import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torickahler import curvature, potentials
from torickahler.curvature import (
    STENCIL_BLOCK,
    abreu_t_window,
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
    NearBoundaryError,
    NonAdmissibleError,
    ToricError,
)
from torickahler.jets import TaylorJet, constant, variable
from torickahler.polytope import build_standard, canonical_potential, row_sum
from torickahler.potentials import (
    RadialKahlerPotential,
    custom_potential,
    f2_value,
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
    assert np.linalg.det(h.G_inv) == pytest.approx(8.0)


def test_hessian_two_dim_determinant_identity():
    # det G = (1 + t F'') / (4 x1 x2) in dimension two.
    rng = np.random.default_rng(0)
    pot = fubini_study_potential()
    for _ in range(20):
        x = rng.uniform(0.05, 0.4, 2)
        t = float(x.sum())
        h = hessian_t_family(pot, x)
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
    for x in ([], [[1.0, 1.0]]):
        with pytest.raises(DomainError, match="x must be a nonempty vector"):
            hessian_t_family(flat_potential(), x)


@pytest.mark.parametrize(
    "pot, x",
    [
        (flat_potential(), [1e308, 1.0]),  # 2 x_0 overflows on G^-1's diagonal
        (burns_simanca_potential(2), [1e308, 1.0]),
        (flat_potential(), [1e308, 1e308]),  # t overflows
        (flat_potential(), [1e-320, 1.0]),  # 1 / (2 x_0) overflows on G's diagonal
    ],
    ids=["flat", "burns_simanca", "t", "subnormal"],
)
def test_hessian_refuses_a_point_where_it_overflows(pot, x):
    with pytest.raises(DomainError, match="overflows at x|t=inf is outside the domain"):
        hessian_t_family(pot, x)


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
            # The matrix determinant lemma: det G^{-1} = 2^n prod(x) / (1 + t F'').
            expected = 2.0**n * np.prod(x) / (1.0 + x.sum() * f2_value(pot, float(x.sum())))
            assert np.linalg.det(h.G_inv) == pytest.approx(expected, rel=1e-10)


def test_hessian_is_posdef_exactly_when_admissible():
    # F'' = c/t: 1 + t F'' = 1 + c, so c crossing -1 makes G indefinite, which raises.
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
        except NonAdmissibleError:
            admitted = False
        else:
            admitted = True
            assert np.all(np.linalg.eigvalsh(h.G) > 0.0)
        assert admitted == (c > -1.0)


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
        hessian_general(lambda x: 1.0 + 2.0 * x[..., 0] - x[..., 1], [1.0, 1.0])


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


def _mp_reduced_curvature(F2, n, t):
    """S = t^(1-n) (t^(n+1) phi)'' with phi = F''/(1 + t F''), by 50-digit mpmath differentiation.

    Also returns the size n(n+1)|phi| + 2(n+1) t |phi'| + t^2 |phi''| of the
    three terms whose sum is S, which sets the scale of its roundoff.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        T = mpmath.mpf(t)

        def phi(u):
            return F2(u) / (1 + u * F2(u))

        S = T ** (1 - n) * mpmath.diff(lambda u: u ** (n + 1) * phi(u), T, 2)
        p0, p1, p2 = (mpmath.diff(phi, T, k) for k in range(3))
        scale = n * (n + 1) * abs(p0) + 2 * (n + 1) * T * abs(p1) + T * T * abs(p2)
    return S, scale


def _reference_cases():
    """(potential, mpmath F'', n, t, exact S as a function of mpf t)."""
    cases = []
    for n in range(1, 9):
        for t in (0.02, 0.3, 0.7, 0.98):
            cases.append((fubini_study_potential(), lambda u: 1 / (1 - u), n, t, lambda T, n=n: n * (n + 1)))
        for t in (1.05, 2.0, 7.0, 40.0):
            cases.append(
                (generalized_burns_potential(), lambda u: 1 / (u * (u - 1)), n, t, lambda T, n=n: (n * n - 3 * n + 2) / T**2)
            )
    for n in range(2, 9):
        for a, b in ((n - 1.0, 2.0 - n), (1.5, -0.5), (-1.2, 1.7)):
            pot = scalar_flat_family(n, a, b)
            start = max(pot.domain[0], 0.5)

            def f2(u, a=a, b=b, n=n):
                return (a * u + b) / (u * (u**n - a * u - b))

            cases += [(pot, f2, n, start + dt, lambda T: 0) for dt in (0.05, 0.5, 2.0, 6.0)]
    bs = burns_simanca_potential(300)
    for t in (1.01, 1.5, 3.0):
        cases.append((bs, _burns_simanca_f2(300), 300, t, lambda T: 0))
    return cases


def _burns_simanca_f2(n):
    return lambda u: ((n - 1) * u + 2 - n) / (u * (u**n - (n - 1) * u - (2 - n)))


def test_reduced_curvature_matches_mpmath_reference():
    # The closed form against mpmath's derivative of the formula itself, the
    # error scaled by the size of the three terms that sum to S.  The worst
    # case over these points is 38 eps (Fubini-Study, n = 1, t = 0.98); the
    # jet composition it replaced reached 1307 eps there.
    mpmath = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    worst = 0.0
    for pot, F2, n, t, exact in _reference_cases():
        ref, scale = _mp_reduced_curvature(F2, n, t)
        with mpmath.workdps(50):
            assert abs(ref - exact(mpmath.mpf(t))) <= 1e-30 * scale
        worst = max(worst, float(abs(scalar_curvature_reduced(pot, n, t) - ref) / scale))
    assert worst <= 64 * eps


@pytest.mark.parametrize("n, t", [(300, 10.6), (300, 10.7), (300, 10.8), (100, 1140.0)])
def test_reduced_curvature_beyond_float_range_of_t_power(n, t):
    # t^(n+1) overflows here while u = F'' and its first two derivatives are
    # normal floats: S must still meet the mpmath reference's scaled bound.
    with pytest.raises(OverflowError):
        t ** (n + 1)
    pot = burns_simanca_potential(n)
    c = potentials.f2_jet(pot, t, 2).coefficients
    assert min(abs(v) for v in c) >= np.finfo(float).tiny
    ref, scale = _mp_reduced_curvature(_burns_simanca_f2(n), n, t)
    assert abs(ref) <= 1e-30 * scale
    assert abs(scalar_curvature_reduced(pot, n, t) - ref) <= 64 * np.finfo(float).eps * scale


def _subnormal_jet(t, order):
    """A jet of F'' whose u, u' and u'' are all subnormal, the same at every t."""
    coefficients = (1e-310, 1e-294, 5e-301)[: order + 1]
    return TaylorJet(t, tuple(np.full(np.shape(t), c) if isinstance(t, np.ndarray) else c for c in coefficients))


@pytest.mark.parametrize(
    "pot, n, t",
    [
        (burns_simanca_potential(300), 300, 50.0),  # u underflows to 0
        (burns_simanca_potential(300), 300, 11.0),  # u subnormal
        (burns_simanca_potential(30), 30, 1e11),
        (burns_simanca_potential(8), 8, 1e33),  # u'' underflows to 0
        (burns_simanca_potential(8), 8, 1e35),  # u' subnormal
        (generalized_burns_potential(), 4, 1e80),  # u'' subnormal
        # Every input subnormal: S would read 1.2e-293, and the slack of 5e-307
        # that underflow leaves is some 180 eps of that size.
        (custom_potential(_subnormal_jet, (0.1, math.inf), "subnormal"), 2, 2.0),
    ],
    ids=["bs300_t50", "bs300_t11", "bs30_t1e11", "bs8_t1e33", "bs8_t1e35", "gb4_t1e80", "subnormal_t2"],
)
def test_reduced_curvature_refuses_underflow(pot, n, t):
    # At each point one or more of the three terms that sum to S has lost
    # its digits to underflow, so any value returned would be a guess.
    with pytest.raises(DomainError, match="underflow"):
        scalar_curvature_reduced(pot, n, t)
    with pytest.raises(DomainError, match=f"underflow.* t={re.escape(str(t))}"):
        scalar_curvature_reduced(pot, n, np.array([2.0, t]))


def test_reduced_curvature_of_a_zero_jet_is_zero():
    # F'' = 0 to second order is no underflow: the flat metric has S = 0,
    # even where 2 (n + 1) t overflows.
    S = scalar_curvature_reduced(flat_potential(), 3, np.array([0.5, 1e200, 1e308]))
    assert S.tolist() == [0.0, 0.0, 0.0]
    assert scalar_curvature_reduced(flat_potential(), 3, 1e308) == 0.0


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
        g = symplectic_evaluator(pot, t_window=abreu_t_window(x))
        s_fd = scalar_curvature_abreu(g, x)
        s_jet = scalar_curvature_reduced(pot, n, float(x.sum()))
        assert s_fd == pytest.approx(s_jet, abs=1e-4)


@pytest.mark.parametrize("n, step", [(1, None), (2, None), (3, None), (5, 0.01), (3, 0.3)])
def test_abreu_t_window_holds_every_t_that_g_sees(n, step):
    # From n = 2 on, the outer corners +(e_i + e_j) with the inner ones on top
    # reach both ends, so the window is tight up to its rounding slack.
    x = np.linspace(0.6, 1.4, n)
    lo, hi = abreu_t_window(x, step)
    base = symplectic_evaluator(flat_potential())
    seen = []

    def g(points):
        seen.append(row_sum(points).ravel())
        return base(points)

    scalar_curvature_abreu(g, x, step)
    ts, t = np.concatenate(seen), float(x.sum())
    assert lo <= ts.min() and ts.max() <= hi
    if n >= 2:
        assert ts.min() - lo <= 1e-5 * (t - lo) and hi - ts.max() <= 1e-5 * (hi - t)


def test_abreu_affine_shift_invariance():
    pot = fubini_study_potential()
    g = symplectic_evaluator(pot)
    shifted = lambda x: g(x) + 0.3 + 0.1 * x[..., 0] - 0.2 * x[..., 1]
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
    """Wrap g so that every evaluation point, each row of a batch, is recorded."""
    points = []

    def counted(x):
        x = np.asarray(x, dtype=float)
        points.extend(row.tobytes() for row in x.reshape(-1, x.shape[-1]))
        return g(x)

    return counted, points


@pytest.mark.parametrize("n", [2, 3])
def test_hessian_general_evaluation_count(n):
    # Each Richardson step adds +-e_i and +-(e_i + e_j), n + n^2 pairs, around
    # the one shared centre.
    g, points = _counting(symplectic_evaluator(fubini_study_potential()))
    hessian_general(g, np.full(n, 0.6 / n))
    assert len(points) == 1 + 2 * n + 2 * n**2
    assert len(set(points)) == len(points)


@pytest.mark.parametrize("n", [2, 3])
def test_abreu_evaluation_count(n):
    # A two-corner inner Hessian at each point of the four-corner outer stencil.
    g, points = _counting(symplectic_evaluator(fubini_study_potential()))
    scalar_curvature_abreu(g, np.full(n, 0.6 / n))
    assert len(points) == (1 + 4 * n**2) * (1 + 2 * n + 2 * n**2)
    assert len(set(points)) == len(points)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_hessian_general_diagonal_matches_four_corners(n):
    # The diagonal reads only the centre and +-e_i, which both stencils share.
    g = symplectic_evaluator(fubini_study_potential())
    x, step = np.linspace(0.5, 0.7, n) / n, 1e-4
    four = curvature._richardson_combine(
        g(curvature._stencil_points(x, step, corners=curvature.FOUR_CORNERS)), step, curvature.FOUR_CORNERS
    )
    G = hessian_general(g, x, step).G
    assert np.array_equal(np.diagonal(G), np.diagonal(four))
    assert np.allclose(G, four, rtol=1e-7)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_batched_hessian_general_matches_row_by_row(monkeypatch, n):
    g = symplectic_evaluator(fubini_study_potential())
    x = np.random.default_rng(20).uniform(0.5, 1.0, (7, n)) * (0.8 / n)
    batch = hessian_general(g, x, 1e-4)
    assert batch.G.shape == batch.G_inv.shape == (7, n, n)
    for k, row in enumerate(x):
        one = hessian_general(g, row, 1e-4)
        assert np.array_equal(batch.G[k], one.G) and np.array_equal(batch.G_inv[k], one.G_inv)
    # The default step is the one for the largest |x| of the batch.
    step = max(1e-4, 1e-4 * float(np.linalg.norm(x, axis=-1).max()))
    assert np.array_equal(hessian_general(g, x).G[0], hessian_general(g, x[0], step).G)
    # A point whose stencil exceeds the block bound is a block of its own.
    monkeypatch.setattr(curvature, "STENCIL_BLOCK", 5)
    shapes = []
    assert np.array_equal(hessian_general(lambda p: shapes.append(p.shape) or g(p), x, 1e-4).G, batch.G)
    assert shapes == [(1, 1 + 2 * n + 2 * n**2, n)] * 7
    with pytest.raises(DomainError):
        hessian_general(g, np.zeros((0, n)))


def test_abreu_takes_its_inner_hessians_in_one_hessian_general_call(monkeypatch):
    calls = []
    original = curvature.hessian_general

    def counted(g, x, step=None):
        calls.append((np.shape(x), step))
        return original(g, x, step)

    monkeypatch.setattr(curvature, "hessian_general", counted)
    n, x = 3, np.full(3, 0.2)
    scalar_curvature_abreu(symplectic_evaluator(fubini_study_potential()), x)
    assert calls == [((1 + 4 * n**2, n), 1.5e-3 * (1.0 + float(np.linalg.norm(x))))]


def test_abreu_rejects_degenerate_hessian():
    with pytest.raises(DegeneratePotentialError):
        scalar_curvature_abreu(lambda x: x[..., 0] ** 2, [1.0, 1.0])


def test_abreu_evaluates_the_stencil_in_blocks():
    # n = 8: 257 outer points x 145 inner points = 37,265, and 56 outer points
    # (8,120 points) fit in one STENCIL_BLOCK, so 5 g calls.
    n = 8
    base = symplectic_evaluator(fubini_study_potential())
    batches = []

    def g(x):
        batches.append(math.prod(np.shape(x)[:-1]))
        return base(x)

    s = scalar_curvature_abreu(g, np.full(n, 0.6 / n))
    assert STENCIL_BLOCK // 145 == 56
    assert len(batches) == 5
    assert sum(batches) == 257 * 145 == 37_265
    assert max(batches) <= STENCIL_BLOCK
    assert s == pytest.approx(n * (n + 1.0), abs=1e-4 * (1.0 + n * (n + 1.0)))


def test_abreu_blocks_share_one_points_buffer():
    n = 8
    base = symplectic_evaluator(fubini_study_potential())
    batches = []

    def g(x):
        batches.append(x)
        return base(x)

    scalar_curvature_abreu(g, np.full(n, 0.6 / n))
    assert len(batches) == 5
    assert all(np.shares_memory(batch, batches[0]) for batch in batches)
    assert all(batch.base is batches[0].base for batch in batches)


def _abreu_point(rng, n: int, t_lo: float, t_hi: float) -> np.ndarray:
    """A point more than 4 default Abreu steps inside the facets x_i = 0 and t = 1."""
    while True:
        t = rng.uniform(t_lo, t_hi)
        x_min = 0.08 * (1.0 + 1.1 * t / math.sqrt(n))
        if n * x_min >= t:
            continue
        x = x_min + (t - n * x_min) * rng.dirichlet(np.ones(n))
        reach = 4 * 0.02 * (1.0 + float(np.linalg.norm(x)))
        if x.min() > reach and abs(t - 1.0) > reach:
            return x


def _abreu_scaled_errors() -> dict[str, list[float]]:
    """|S_abreu - S_reduced| / (1 + |S|) at 14 seeded points (two per n = 2..8) for each source of g.

    The sources are those of the ``abreu_cross`` benchmark: Fubini-Study's
    closed form, Burns-Simanca's Chebyshev interpolant, and the canonical
    potential of the blow-up polytope, whose F'' is 1/(t - 1).
    """
    rng = np.random.default_rng(0)
    blowup = custom_potential(lambda t, order: 1.0 / (variable(t, order) - 1.0), (1.0, math.inf), label="blowup")
    fs = fubini_study_potential()
    errors = {"closed_form": [], "chebyshev": [], "canonical": []}
    for n in range(2, 9):
        for _ in range(2):
            for source in errors:
                if source == "closed_form":
                    x = _abreu_point(rng, n, 0.3, 0.9)
                    pot, g = fs, symplectic_evaluator(fs)
                elif source == "chebyshev":
                    x = _abreu_point(rng, n, 1.6, 3.0 + 0.15 * n)
                    t = float(x.sum())
                    pot = burns_simanca_potential(n)
                    g = symplectic_evaluator(pot, t_window=(t - 0.5, t + 0.5))
                else:
                    x = _abreu_point(rng, n, 1.6, 3.0 + 0.15 * n)
                    poly = build_standard("blowup", n)
                    pot, g = blowup, (lambda y, poly=poly: canonical_potential(poly, y))
                S = scalar_curvature_reduced(pot, n, float(x.sum()))
                errors[source].append(abs(scalar_curvature_abreu(g, x) - S) / (1.0 + abs(S)))
    return errors


#: (median, max) of the scaled error at the points of :func:`_abreu_scaled_errors`
#: with the four-corner inner Hessian, 1 + 4 n^2 points.
_FOUR_CORNER_ERRORS = {
    "closed_form": (2.709e-08, 9.018e-07),
    "chebyshev": (9.064e-07, 2.191e-05),
    "canonical": (4.189e-07, 1.769e-06),
}


def _abreu_accuracy_violations(errors: dict[str, list[float]]) -> list[str]:
    """The sources whose median exceeds 2x, or whose max exceeds 3x, the four-corner figure.

    The two-corner mixed entry (1/2)[(g_++ + g_-- - g_+i - g_-i - g_+j - g_-j
    + 2 g_0)] / s^2 sums seven rounded values of g against four, so its
    rounding noise is sqrt(10)/2 / (1/2), about 3.2 times larger; the maximum,
    one op at the rounding floor, may grow by that much, the median less.
    """
    bad = []
    for source, values in errors.items():
        median, worst = _FOUR_CORNER_ERRORS[source]
        if float(np.median(values)) > 2.0 * median or max(values) > 3.0 * worst:
            bad.append(f"{source}: median {np.median(values):.3e}, max {max(values):.3e}")
    return bad


def test_abreu_accuracy_holds_against_the_four_corner_inner_hessian():
    assert _abreu_accuracy_violations(_abreu_scaled_errors()) == []


def test_abreu_accuracy_check_fails_on_scaled_mixed_entries(monkeypatch):
    # Inner mixed entries 0.1% too large must break the bound on every source.
    combine = curvature._richardson_combine

    def mutated(values, h, corners=curvature.TWO_CORNERS):
        D = combine(values, h, corners)
        if corners == curvature.TWO_CORNERS:
            n = D.shape[-1]
            D = D * np.where(np.eye(n, dtype=bool), 1.0, 1.001)
        return D

    monkeypatch.setattr(curvature, "_richardson_combine", mutated)
    assert len(_abreu_accuracy_violations(_abreu_scaled_errors())) == 3


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


def test_extremal_needs_two_samples():
    with pytest.raises(DomainError):
        extremal_check(fubini_study_potential(), 3, [0.5])


@pytest.mark.parametrize(
    "pot, n, ts",
    [
        (fubini_study_potential(), 4, np.linspace(0.02, 0.98, 13)),
        (generalized_burns_potential(), 3, np.linspace(1.05, 30.0, 13)),
        (burns_simanca_potential(8), 8, np.linspace(1.01, 90.0, 13)),
        (scalar_flat_family(7, 1.2, -0.4), 7, np.linspace(1.5, 7.0, 13)),
    ],
    ids=["fubini_study", "generalized_burns", "burns_simanca", "family"],
)
def test_batched_reduced_curvature_matches_row_by_row(pot, n, ts):
    # The closed form does the same float operations on a batch as on one t.
    batched = scalar_curvature_reduced(pot, n, ts)
    rows = np.array([scalar_curvature_reduced(pot, n, float(t)) for t in ts])
    assert batched.tolist() == rows.tolist()
    report = extremal_check(pot, n, ts)
    assert [S for _, S in report.points] == batched.tolist()


def test_batched_reduced_curvature_rejects_one_non_admissible_point():
    # F'' = -1/2: 1 + t F'' > 0 only for t < 2.
    pot = custom_potential(lambda t, order: constant(-0.5, t, order), (0.1, math.inf), label="minus_half")
    assert np.all(np.isfinite(scalar_curvature_reduced(pot, 2, np.array([0.5, 1.5]))))
    with pytest.raises(NonAdmissibleError, match="t=3.0"):
        scalar_curvature_reduced(pot, 2, np.array([0.5, 3.0, 1.5]))


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
    falling = RadialKahlerPotential("minus_s", lambda s, order: -1.0 * variable(s, order))
    with pytest.raises(NonAdmissibleError):
        legendre_roundtrip(falling, [0.0, 0.0])


def test_legendre_roundtrip_refuses_a_degenerate_hessian():
    # f = s/2 has the Hessian diag(2 e^{2 a_i}) in a, so at a = (-10, 0) the
    # eigenvalue ratio is about e^-20 = 2e-9, below the check's 1e-8.
    with pytest.raises(DegeneratePotentialError, match="numerically singular"):
        legendre_roundtrip(flat_radial(), [-10.0, 0.0])


@pytest.mark.parametrize(
    "a",
    [[-math.inf, 0.0], [1e308, 0.0], [math.nan, 0.0], [354.85, 0.0], [-360.0, 0.0], [[0.1, 0.0], [1e308, 0.0]]],
    ids=["-inf", "1e308", "nan", "sum-near-max", "e2a-subnormal", "batch"],
)
def test_legendre_roundtrip_refuses_a_point_out_of_range(a):
    # e^(2 a_i) must be a normal float and 2 e^(2 a_i) finite; past that the
    # roundtrip met inf - inf and overflows, with warnings and no error.
    with pytest.raises(DomainError, match=r"^a = \[(-inf|1e\+308|nan|354\.85|-360\.0), 0\.0\] is out of range"):
        legendre_roundtrip(fubini_study_radial(), a)


def test_only_hessian_general_inverts(monkeypatch):
    # The roundtrip compares its Hessians in a with G^{-1} in closed form, so
    # it checks them and inverts none; hessian_general inverts once per call.
    calls = []
    original = np.linalg.inv

    def counted(G):
        calls.append(np.shape(G))
        return original(G)

    monkeypatch.setattr(np.linalg, "inv", counted)
    legendre_roundtrip(fubini_study_radial(), np.random.default_rng(19).uniform(-0.8, 0.8, (5, 3)))
    assert calls == []
    g = lambda x: (x * x).sum(axis=-1)  # noqa: E731
    hessian_general(g, [1.0, 2.0])
    hessian_general(g, np.ones((4, 2)))
    assert calls == [(2, 2), (4, 2, 2)]


def _count_radial_jets(monkeypatch):
    """Count radial jets, whether reached through ``potentials`` or ``curvature``."""
    calls = []
    original = potentials.radial_jet

    def counted(f, s, order=6):
        calls.append(np.shape(s))
        return original(f, s, order)

    monkeypatch.setattr(potentials, "radial_jet", counted)
    monkeypatch.setattr(curvature, "radial_jet", counted)
    return calls


_ROUNDTRIP_FIELDS = ("x", "s", "t", "gradient_residual", "duality_gap", "hessian_residual")


@pytest.mark.parametrize("profile", [flat_radial(), fubini_study_radial()], ids=lambda f: f.label)
@pytest.mark.parametrize("n", [1, 2, 4])
def test_batched_legendre_roundtrip_matches_row_by_row(profile, n):
    a = np.random.default_rng(14).uniform(-0.8, 0.8, (3, 4, n))
    batch = legendre_roundtrip(profile, a)
    assert batch.x.shape == (3, 4, n) and batch.duality_gap.shape == (3, 4)
    for index in np.ndindex(3, 4):
        one = legendre_roundtrip(profile, a[index])
        assert isinstance(one.hessian_residual, float)
        for name in _ROUNDTRIP_FIELDS:
            assert np.array_equal(getattr(batch, name)[index], getattr(one, name)), name


@pytest.mark.parametrize("samples", [1, 7, 60])
def test_legendre_roundtrip_radial_jets_per_batch(monkeypatch, samples):
    # One jet at s for (f, f', f''), one on the stencil for the gradient and
    # the Hessian together, however many rows the block holds.
    calls = _count_radial_jets(monkeypatch)
    a = np.random.default_rng(15).uniform(-0.8, 0.8, (samples, 3))
    legendre_roundtrip(fubini_study_radial(), a)
    assert calls == [(samples,), (samples, 1 + 2 * 3 + 2 * 3**2)]


def test_legendre_roundtrip_evaluates_rows_in_blocks(monkeypatch):
    # n = 2: 13 stencil points per row, so a block of 40 points holds 3 rows.
    a = np.random.default_rng(16).uniform(-0.8, 0.8, (7, 2))
    expected = [legendre_roundtrip(fubini_study_radial(), row) for row in a]
    monkeypatch.setattr(curvature, "STENCIL_BLOCK", 40)
    calls = _count_radial_jets(monkeypatch)
    batch = legendre_roundtrip(fubini_study_radial(), a)
    assert [shape[0] for shape in calls] == [3, 3, 3, 3, 1, 1]
    for k, one in enumerate(expected):
        for name in _ROUNDTRIP_FIELDS:
            assert np.array_equal(getattr(batch, name)[k], getattr(one, name)), name


def _roundtrip_worst(profile, field: str) -> float:
    """The largest ``field`` of the roundtrip over n = 2..8 and 40 seeds of 20 rows each."""
    rows = [np.random.default_rng(seed).uniform(-0.8, 0.8, (20, n)) for n in range(2, 9) for seed in range(40)]
    return max(float(np.max(getattr(legendre_roundtrip(profile, a), field))) for a in rows)


def test_flat_roundtrip_hessian_residual_is_bounded():
    # Each stencil point's s is s plus at most two increments e^{2 a_i}
    # expm1(2 d), so all of them share the rounding of s; forming the points
    # in a and summing e^{2 a} again reached 9.1e-7 here.
    assert _roundtrip_worst(flat_radial(), "hessian_residual") < 5e-7


@pytest.mark.parametrize("profile", [flat_radial(), fubini_study_radial()], ids=lambda f: f.label)
def test_roundtrip_gradient_is_richardson_extrapolated(profile):
    # (4 D(h/2) - D(h)) / 3 from the +-e_i values of both steps; the central
    # difference at step h alone was off by up to 1.07e-7 (flat).
    assert _roundtrip_worst(profile, "gradient_residual") < 1e-9


def test_legendre_roundtrip_takes_a_wide_row_in_one_jet(monkeypatch):
    # n = 70: one row's stencil has 1 + 2 n + 2 n^2 = 9,941 points, more than
    # STENCIL_BLOCK; the row is a block of its own, one radial jet of s-values.
    calls = _count_radial_jets(monkeypatch)
    a = np.random.default_rng(17).uniform(-0.8, 0.8, 70)
    result = legendre_roundtrip(fubini_study_radial(), a)
    assert calls == [(1,), (1, 1 + 2 * 70 + 2 * 70**2)]
    assert 9_941 > curvature.STENCIL_BLOCK
    # No point in a is formed, so the dense offsets table is never made.
    assert "offsets" not in vars(curvature._stencil(70, curvature.TWO_CORNERS))
    assert result.hessian_residual < 1e-6


@pytest.mark.parametrize("n", [1, 2, 5])
def test_stencil_slices_match_the_whole_stencil(n):
    # Each stencil as a dense table of unit offsets, bit for bit what
    # _stencil_points gives, and what it writes to a given buffer.
    x = np.random.default_rng(18).uniform(0.1, 1.0, (2, n))
    h = 1e-3
    eye = np.eye(n)
    i, j = np.triu_indices(n, 1)
    two = [eye[i] + eye[j], -eye[i] - eye[j]]
    four = [eye[i] + eye[j], eye[i] - eye[j], -eye[i] + eye[j], -eye[i] - eye[j]]
    for corners, mixed in ((curvature.TWO_CORNERS, two), (curvature.FOUR_CORNERS, four)):
        unit = np.concatenate([eye, -eye] + mixed)
        offsets = np.concatenate([np.zeros((1, n)), unit, unit / 2.0])
        whole = x[:, None, :] + offsets * h
        assert np.array_equal(curvature._stencil_points(x, h, corners=corners), whole)
        buffer = np.full(whole.shape, np.nan)
        assert curvature._stencil_points(x, h, corners=corners, out=buffer) is buffer
        assert np.array_equal(buffer, whole)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_stencil_geometry_is_made_once_per_n_and_read_only(n):
    for corners, per_step in ((curvature.TWO_CORNERS, n + n * n), (curvature.FOUR_CORNERS, 2 * n * n)):
        stencil = curvature._stencil(n, corners)
        assert stencil is curvature._stencil(n, corners)
        assert stencil.offsets is stencil.offsets
        assert stencil.offsets.shape == (1 + 2 * per_step, n)
        assert sum(b.stop - b.start for b in stencil.blocks) == per_step
        # The moves rebuild the dense table exactly: each point is the sum of
        # its one or two moves, and a move of step 0 adds nothing.
        rebuilt = np.zeros((1 + 2 * per_step, n))
        for k, (a, da, b, db) in enumerate(
            zip(stencil.first, stencil.first_step, stencil.second, stencil.second_step)
        ):
            rebuilt[k, a] += da
            rebuilt[k, b] += db
        assert np.array_equal(rebuilt, stencil.offsets)
        assert np.array_equal(np.abs(stencil.first_step) > 0, np.arange(1 + 2 * per_step) > 0)
        for array in (stencil.offsets, stencil.first, stencil.first_step, stencil.second, stencil.second_step,
                      stencil.diag, stencil.upper, stencil.lower, stencil.i, stencil.j):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            stencil.offsets[1, 0] = 2.0


def _dense_second_differences(corners, n=3, h=1e-2):
    """The combine of ``corners`` and the same Hessian written out entry by entry."""
    rng = np.random.default_rng(19)
    x = rng.uniform(0.5, 1.0, n)
    g = symplectic_evaluator(fubini_study_potential())
    values = g(curvature._stencil_points(x / 4.0, h, corners=corners))
    eye = np.eye(n)
    f = lambda d: g(x / 4.0 + d)  # noqa: E731

    def diagonal(step, i):
        return (f(step * eye[i]) - 2.0 * f(0.0 * eye[i]) + f(-step * eye[i])) / step**2

    def second(step, i, j):
        if i == j:
            return diagonal(step, i)
        if corners == curvature.FOUR_CORNERS:
            return (f(step * (eye[i] + eye[j])) - f(step * (eye[i] - eye[j])) - f(step * (eye[j] - eye[i]))
                    + f(-step * (eye[i] + eye[j]))) / (4.0 * step**2)
        return 0.5 * (
            (f(step * (eye[i] + eye[j])) - 2.0 * f(0.0 * eye[i]) + f(-step * (eye[i] + eye[j]))) / step**2
            - diagonal(step, min(i, j)) - diagonal(step, max(i, j))
        )

    want = np.array([[(4.0 * second(h / 2.0, i, j) - second(h, i, j)) / 3.0 for j in range(n)] for i in range(n)])
    return curvature._richardson_combine(values, h, corners), want


def test_richardson_combine_matches_dense_second_differences():
    # The cached four-corner layout of Abreu's outer stencil against the formula.
    got, want = _dense_second_differences(curvature.FOUR_CORNERS)
    assert np.array_equal(got, want)


def test_two_corner_combine_matches_dense_second_differences():
    # The mixed entry (1/2)[(g_++ - 2 g_0 + g_--)/s^2 - D_ii - D_jj] at each step.
    got, want = _dense_second_differences(curvature.TWO_CORNERS)
    assert np.array_equal(got, want)


def test_finite_differences_refuse_a_nan_canonical_point():
    # NaN used to pass the boundary check and reach eigvalsh as a NaN Hessian.
    poly = build_standard("blowup", 3)
    g = lambda x: canonical_potential(poly, x)  # noqa: E731
    for fn in (hessian_general, scalar_curvature_abreu):
        with pytest.raises(NearBoundaryError):
            fn(g, [1.0, math.nan, 1.0])


def test_finite_differences_refuse_a_point_whose_norm_overflows():
    # The default steps scale with |x|, which overflows past about 1.3e154.
    g = lambda x: np.sum(x**2, axis=-1)  # noqa: E731
    for fn, x in [
        (hessian_general, [1e160, 1e160]),
        (hessian_general, [[1.0, 1.0], [1e160, 1e160]]),
        (scalar_curvature_abreu, [1e160, 1e160]),
    ]:
        with pytest.raises(DomainError, match=r"\|x\| overflows \(largest \|x_i\| = 1e\+160\)"):
            fn(g, x)


def test_non_finite_hessian_is_degenerate():
    # A g that is NaN on part of the stencil must not reach eigvalsh.
    g = lambda x: np.where(x[..., 0] > 1.0, math.nan, x[..., 0] ** 2 + x[..., 1] ** 2)  # noqa: E731
    for fn in (hessian_general, scalar_curvature_abreu):
        with pytest.raises(DegeneratePotentialError):
            fn(g, [1.0, 1.0])
    with pytest.raises(DegeneratePotentialError):
        curvature._check_hessians(np.array([[[1.0, 0.0], [0.0, math.inf]]]))


def test_saddle_is_no_metric():
    # G = diag(2, -2) is well conditioned but not positive definite, so no
    # Hessian of it, and no Abreu S (which would read about 1e-14), is returned.
    g = lambda x: x[..., 0] ** 2 - x[..., 1] ** 2  # noqa: E731
    for fn in (hessian_general, scalar_curvature_abreu):
        with pytest.raises(NonAdmissibleError, match="not positive definite"):
            fn(g, [1.0, 1.0])


def _symmetric(eigenvalues: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Q diag(eigenvalues) Q^T for a random orthogonal Q per row, exactly symmetric."""
    q, _ = np.linalg.qr(rng.normal(size=eigenvalues.shape + eigenvalues.shape[-1:]))
    G = (q * eigenvalues[..., None, :]) @ np.swapaxes(q, -1, -2)
    return 0.5 * (G + np.swapaxes(G, -1, -2))


@st.composite
def _hessian_stacks(draw) -> np.ndarray:
    """Symmetric stacks (rows, n, n), or one matrix: well conditioned, nearly singular, indefinite or non-finite."""
    kind = draw(st.sampled_from(["conditioned", "nearly_singular", "indefinite", "non_finite"]))
    rows, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Scales on both sides of 1 exercise the max(1, largest |eig|) of the ratio.
    eigenvalues = 10.0 ** rng.uniform(-9.0, 9.0) * 10.0 ** rng.uniform(-2.0, 0.0, (rows, n))
    row, k = rng.integers(rows), rng.integers(n)
    if kind == "nearly_singular":
        ratio = 10.0 ** -draw(st.floats(6.0, 10.0))
        eigenvalues[row, k] = ratio * max(1.0, eigenvalues[row].max())
    elif kind == "indefinite":
        eigenvalues[row, k] *= -1.0
    G = _symmetric(eigenvalues, rng)
    if kind == "non_finite":
        i, j = rng.integers(n, size=2)
        G[row, i, j] = G[row, j, i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return G[0] if draw(st.booleans()) else G


def _inverse_or_error(check, G: np.ndarray):
    try:
        return check(G).tobytes()
    except ToricError as exc:
        return type(exc), str(exc)


def _eigvalsh_checked_inverse(G: np.ndarray) -> np.ndarray:
    curvature._check_hessians(G)
    return np.linalg.inv(G)


@given(_hessian_stacks())
@example(np.array([[[5e-10, 0.0], [0.0, 5e-10]]]))  # G of the flat metric at |x| = 1e9: singular by the ratio
@settings(max_examples=300, deadline=None)
def test_checked_inverse_decides_as_eigvalsh_does(G):
    # Same exception type and message, or the same bits of G^-1.
    assert _inverse_or_error(curvature._checked_inverse, G) == _inverse_or_error(_eigvalsh_checked_inverse, G)


def test_checked_inverse_refuses_a_positive_definite_hessian_with_ratio_1e_10():
    # Cholesky factors it, so the bound alone keeps it from being certified.
    G = np.stack([np.eye(3), _symmetric(np.array([1.0, 0.5, 1e-10]), np.random.default_rng(5))])
    with pytest.raises(DegeneratePotentialError, match=r"= 1\.00e-10\)$"):
        curvature._checked_inverse(G)


@pytest.mark.parametrize(
    "pot, x",
    [
        (flat_potential(), [1.0, 2.0]),
        (fubini_study_potential(), [0.1, 0.2, 0.15]),
        (generalized_burns_potential(), [0.7, 0.9, 1.1, 0.5]),
        (fubini_study_potential(), [0.05] * 8),
        (burns_simanca_potential(3), [0.6, 0.6, 0.6]),
    ],
    ids=["flat", "fubini_study", "generalized_burns", "fubini_study_n8", "burns_simanca"],
)
def test_catalog_abreu_calls_make_no_eigvalsh_call(monkeypatch, pot, x):
    def refuse(G):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    g = symplectic_evaluator(pot, t_window=abreu_t_window(x))
    assert math.isfinite(scalar_curvature_abreu(g, x))


def test_one_bad_row_fails_the_whole_roundtrip_batch():
    # f = s - s^2/10 has f' + s f'' = 1 - 2s/5 > 0 only for s < 2.5.
    def jet(s, order):
        v = variable(s, order)
        return v - 0.1 * v * v

    bending = RadialKahlerPotential("bending", jet)
    good = np.array([[0.0, 0.0], [-0.3, 0.1], [0.2, -0.4]])
    legendre_roundtrip(bending, good)
    with pytest.raises(NonAdmissibleError):
        legendre_roundtrip(bending, np.vstack([good, [[0.5, 0.5]]]))
    with pytest.raises(DomainError):
        legendre_roundtrip(bending, np.zeros((0, 2)))
