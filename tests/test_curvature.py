import math

import numpy as np
import pytest

from torickahler.curvature import (
    extremal_check,
    hessian_general,
    hessian_t_family,
    legendre_roundtrip,
    scalar_curvature_abreu,
    scalar_curvature_reduced,
)
from torickahler.errors import (
    DegeneratePotentialError,
    DomainError,
    NonAdmissibleError,
)
from torickahler.jets import variable
from torickahler.polytope import build_standard, canonical_potential
from torickahler.potentials import (
    custom_potential,
    flat_potential,
    flat_radial,
    fubini_study_potential,
    fubini_study_radial,
    generalized_burns_potential,
    scalar_flat_family,
    symplectic_evaluator,
)
from torickahler.scalarflat import burns_simanca_potential


# ---------------------------------------------------------------------------
# Closed-form Hessians
# ---------------------------------------------------------------------------


def test_hessian_flat_example():
    h = hessian_t_family(flat_potential(), [1.0, 2.0])
    assert np.allclose(h.G, np.diag([0.5, 0.25]), atol=0)
    assert np.allclose(h.G_inv, np.diag([2.0, 4.0]), atol=0)
    assert h.det_G_inv == pytest.approx(8.0)
    assert h.posdef


def test_hessian_two_dim_determinant_identity():
    # det G = (1 + t F'') / (4 x1 x2) in dimension two.
    rng = np.random.default_rng(0)
    pot = fubini_study_potential()
    for _ in range(20):
        x = rng.uniform(0.05, 0.4, 2)
        t = float(x.sum())
        h = hessian_t_family(pot, x)
        from torickahler.potentials import f2_value

        expected = (1.0 + t * f2_value(pot, t)) / (4.0 * x[0] * x[1])
        assert np.linalg.det(h.G) == pytest.approx(expected, rel=1e-12)


def test_hessian_non_admissible():
    pot = custom_potential(
        lambda t, order: -2.0 / variable(t, order), (0.1, math.inf), label="minus_two_over_t"
    )
    with pytest.raises(NonAdmissibleError):
        hessian_t_family(pot, [0.5, 0.5])


def test_vanishing_normalization_is_non_admissible():
    # F'' = -1/t makes 1 + t F'' exactly 0 at t = 2; both routes refuse it alike.
    pot = custom_potential(
        lambda t, order: -1.0 / variable(t, order), (0.1, math.inf), label="minus_one_over_t"
    )
    with pytest.raises(NonAdmissibleError):
        hessian_t_family(pot, [1.0, 1.0])
    with pytest.raises(NonAdmissibleError):
        scalar_curvature_reduced(pot, 2, 2.0)


def test_hessian_requires_interior_point():
    with pytest.raises(DomainError):
        hessian_t_family(flat_potential(), [1.0, -0.5])


def test_hessian_inverse_is_inverse():
    rng = np.random.default_rng(1)
    pots = [flat_potential(), fubini_study_potential(), generalized_burns_potential()]
    for pot in pots:
        for _ in range(10):
            n = int(rng.integers(1, 5))
            lo, hi = pot.domain
            t = rng.uniform(lo + 0.2, min(hi - 0.1, lo + 3.0))
            w = rng.uniform(0.3, 1.0, n)
            x = t * w / w.sum()
            h = hessian_t_family(pot, x)
            assert np.allclose(h.G @ h.G_inv, np.eye(n), atol=1e-10)
            assert h.det_G_inv == pytest.approx(np.linalg.det(h.G_inv), rel=1e-10)


def test_posdef_flag_tracks_admissibility():
    # F'' = c/t: 1 + t F'' = 1 + c, so c crossing -1 flips the flag/raises.
    rng = np.random.default_rng(2)
    for _ in range(100):
        c = rng.uniform(-3.0, 3.0)
        if abs(1.0 + c) < 1e-8:
            continue
        pot = custom_potential(
            lambda t, order, c=c: c / variable(t, order), (1e-6, math.inf), label="c_over_t"
        )
        n = int(rng.integers(1, 5))
        x = rng.uniform(0.1, 2.0, n)
        try:
            h = hessian_t_family(pot, x)
            flag = h.posdef
            assert np.all(np.linalg.eigvalsh(h.G) > 0.0) == flag
        except NonAdmissibleError:
            flag = False
        assert flag == (c > -1.0)


# ---------------------------------------------------------------------------
# Finite-difference Hessians
# ---------------------------------------------------------------------------


def test_hessian_general_canonical_orthant():
    poly = build_standard("orthant", 2)
    h = hessian_general(lambda x: canonical_potential(poly, x), [1.0, 1.0], step=1e-4)
    assert np.allclose(h.G, np.diag([0.5, 0.5]), atol=1e-6)


def test_hessian_general_matches_closed_form():
    pot = fubini_study_potential()
    g = symplectic_evaluator(pot)
    fd = hessian_general(g, [0.2, 0.3])
    closed = hessian_t_family(pot, [0.2, 0.3])
    assert np.allclose(fd.G, closed.G, atol=1e-6)
    assert np.allclose(fd.G_inv, closed.G_inv, atol=1e-6)


def test_hessian_general_degenerate():
    with pytest.raises(DegeneratePotentialError):
        hessian_general(lambda x: 1.0 + 2.0 * x[0] - x[1], [1.0, 1.0])


# ---------------------------------------------------------------------------
# Scalar curvature, reduced formula
# ---------------------------------------------------------------------------


def test_reduced_fubini_study_constant():
    assert scalar_curvature_reduced(fubini_study_potential(), 2, 0.3) == pytest.approx(6.0, abs=1e-10)


def test_reduced_flat_zero():
    assert scalar_curvature_reduced(flat_potential(), 3, 5.0) == 0.0


def test_reduced_generalized_burns():
    # (n^2 - 3n + 2)/t^2 = (16 - 12 + 2)/4 at n=4, t=2.
    assert scalar_curvature_reduced(generalized_burns_potential(), 4, 2.0) == pytest.approx(
        1.5, abs=1e-12
    )


def test_reduced_burns_simanca_flat():
    assert scalar_curvature_reduced(burns_simanca_potential(5), 5, 3.0) == pytest.approx(
        0.0, abs=1e-10
    )


def test_whole_family_is_scalar_flat():
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 60:
        n = int(rng.integers(2, 7))
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-2.0, 2.0)
        pot = scalar_flat_family(n, a, b)
        t = max(0.5, pot.domain[0]) + rng.uniform(0.05, 6.0)
        if t**n - (a * t + b) < 0.05 * max(1.0, t**n):
            continue
        assert scalar_curvature_reduced(pot, n, t) == pytest.approx(0.0, abs=1e-9)
        checked += 1


# ---------------------------------------------------------------------------
# Scalar curvature, general formula
# ---------------------------------------------------------------------------


def test_abreu_fubini_study():
    g = symplectic_evaluator(fubini_study_potential())
    assert scalar_curvature_abreu(g, [0.1, 0.2]) == pytest.approx(6.0, abs=1e-4)


def test_abreu_canonical_orthant_flat():
    poly = build_standard("orthant", 2)
    s = scalar_curvature_abreu(lambda x: canonical_potential(poly, x), [1.0, 1.0])
    assert s == pytest.approx(0.0, abs=1e-4)


def test_abreu_generalized_burns():
    # (9 - 9 + 2)/4 = 0.5 at n=3, t=2.
    g = symplectic_evaluator(generalized_burns_potential())
    s = scalar_curvature_abreu(g, [0.7, 0.65, 0.65])
    assert s == pytest.approx(0.5, abs=1e-4)


def test_abreu_matches_reduced_on_catalog():
    rng = np.random.default_rng(7)
    cases = [
        (flat_potential(), 2, np.array([0.8, 1.1])),
        (fubini_study_potential(), 2, np.array([0.2, 0.25])),
        (generalized_burns_potential(), 3, np.array([0.7, 0.6, 0.8])),
        (burns_simanca_potential(3), 3, np.array([0.7, 0.6, 0.8])),
    ]
    for pot, n, x in cases:
        t = float(x.sum())
        window = None
        if pot.value_fn is None:
            radius = min(0.5, 0.6 * (t - pot.domain[0]))
            window = (t - radius, t + radius)
        g = symplectic_evaluator(pot, t_window=window)
        s_fd = scalar_curvature_abreu(g, x)
        s_jet = scalar_curvature_reduced(pot, n, t)
        assert s_fd == pytest.approx(s_jet, abs=1e-4)


def test_abreu_affine_shift_invariance():
    pot = fubini_study_potential()
    g = symplectic_evaluator(pot)
    shifted = lambda x: g(x) + 0.3 + 0.1 * x[0] - 0.2 * x[1]
    x = [0.2, 0.25]
    base_h = hessian_general(g, x)
    shift_h = hessian_general(shifted, x)
    assert np.allclose(base_h.G, shift_h.G, atol=1e-6)
    assert scalar_curvature_abreu(shifted, x) == pytest.approx(
        scalar_curvature_abreu(g, x), abs=1e-4
    )


def test_abreu_permutation_invariance():
    # Each evaluation is a finite-difference estimate; under permutation the
    # stencil hits the same values in a different summation order, so the two
    # results agree only to the noise floor of the estimates themselves.
    g = symplectic_evaluator(generalized_burns_potential())
    x = [0.6, 0.8, 0.7]
    reference = scalar_curvature_abreu(g, x)
    for perm in ([0.8, 0.6, 0.7], [0.7, 0.8, 0.6]):
        assert scalar_curvature_abreu(g, perm) == pytest.approx(reference, abs=1e-5)


def _counting(g):
    """Wrap g so that every evaluation point is recorded."""
    points = []

    def counted(x):
        points.append(np.asarray(x, dtype=float).tobytes())
        return g(x)

    return counted, points


@pytest.mark.parametrize("n", [2, 3])
def test_hessian_general_evaluation_count(n):
    # Each Richardson step adds 2n^2 points around the one shared centre.
    g, points = _counting(symplectic_evaluator(fubini_study_potential()))
    hessian_general(g, np.full(n, 0.6 / n))
    assert len(points) == 1 + 4 * n**2
    assert len(set(points)) == len(points)


@pytest.mark.parametrize("n", [2, 3])
def test_abreu_evaluation_count(n):
    g, points = _counting(symplectic_evaluator(fubini_study_potential()))
    scalar_curvature_abreu(g, np.full(n, 0.6 / n))
    assert len(points) == (1 + 4 * n**2) ** 2
    assert len(set(points)) == len(points)


def test_t_family_affine_shift_is_exact():
    # The closed-form route consumes only F''; an affine change of F (which is
    # an affine change of g) cannot alter a single bit of the Hessian.
    base = generalized_burns_potential()
    shifted = custom_potential(
        base.jet_fn,
        base.domain,
        label="gb_plus_affine",
        value_fn=lambda t: base.value_fn(t) + 2.0 + 3.0 * t,
    )
    x = [0.7, 0.8, 0.9]
    assert np.array_equal(hessian_t_family(base, x).G, hessian_t_family(shifted, x).G)
    assert np.array_equal(hessian_t_family(base, x).G_inv, hessian_t_family(shifted, x).G_inv)
    assert scalar_curvature_reduced(base, 3, sum(x)) == scalar_curvature_reduced(
        shifted, 3, sum(x)
    )


# ---------------------------------------------------------------------------
# Extremal check
# ---------------------------------------------------------------------------


def test_extremal_fubini_study():
    report = extremal_check(fubini_study_potential(), 3, np.linspace(0.1, 0.9, 12))
    assert report.extremal
    assert report.fit_slope == pytest.approx(0.0, abs=1e-9)
    assert report.fit_intercept == pytest.approx(12.0, abs=1e-9)


def test_extremal_burns_simanca():
    report = extremal_check(burns_simanca_potential(4), 4, np.linspace(1.2, 6.0, 12))
    assert report.extremal
    assert report.fit_intercept == pytest.approx(0.0, abs=1e-9)
    assert report.fit_slope == pytest.approx(0.0, abs=1e-9)


def test_extremal_rejects_generalized_burns():
    report = extremal_check(generalized_burns_potential(), 4, np.linspace(1.2, 6.0, 12))
    assert not report.extremal
    assert report.max_residual > 1e-2


# ---------------------------------------------------------------------------
# Legendre roundtrip
# ---------------------------------------------------------------------------


def test_legendre_flat_origin():
    result = legendre_roundtrip(flat_radial(), [0.0, 0.0])
    assert result.x == pytest.approx([1.0, 1.0], abs=1e-12)
    assert result.duality_gap < 1e-9


def test_legendre_fubini_study_origin():
    # x_i = 2 e^{2 a_i} f'(s) = e^{2 a_i}/(1+s); at a = 0, s = 2, so x = (1/3, 1/3).
    result = legendre_roundtrip(fubini_study_radial(), [0.0, 0.0])
    assert result.x == pytest.approx([1.0 / 3.0, 1.0 / 3.0], abs=1e-12)
    assert result.gradient_residual < 1e-6


def test_legendre_random_points():
    rng = np.random.default_rng(8)
    for profile in (flat_radial(), fubini_study_radial()):
        for _ in range(10):
            n = int(rng.integers(1, 4))
            a = rng.uniform(-0.8, 0.8, n)
            result = legendre_roundtrip(profile, a)
            assert result.duality_gap < 1e-8
            assert result.hessian_residual < 1e-5
            assert result.gradient_residual < 1e-6


def test_legendre_rejects_non_admissible():
    from torickahler.potentials import custom_radial

    falling = custom_radial(lambda s, order: -1.0 * variable(s, order), "minus_s")
    with pytest.raises(NonAdmissibleError):
        legendre_roundtrip(falling, [0.0, 0.0])
