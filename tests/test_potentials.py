import math

import numpy as np
import pytest

from torickahler.errors import (
    BracketRangeError,
    DomainError,
    NearBoundaryError,
    NonAdmissibleError,
)
from torickahler.jets import derivative, ln_jet, variable
from torickahler.potentials import (
    admissibility,
    custom_potential,
    custom_radial,
    f2_jet,
    f2_value,
    flat_potential,
    flat_radial,
    fubini_study_potential,
    fubini_study_radial,
    generalized_burns_potential,
    hermitian_metric,
    kahler_to_t_potential,
    local_t_potential,
    radial_jet,
    scalar_flat_family,
    symplectic_evaluator,
)
from torickahler.cli import get_potential
from torickahler.scalarflat import reconstruct_F

from helpers import central_derivative


# ---------------------------------------------------------------------------
# F'' jets of the catalog
# ---------------------------------------------------------------------------


def test_fubini_study_jet_derivatives():
    # F'' = (1-t)^-1: derivatives 2, 4, 16 at t = 1/2.
    jet = f2_jet(fubini_study_potential(), 0.5, 2)
    assert derivative(jet, 0) == pytest.approx(2.0, abs=1e-13)
    assert derivative(jet, 1) == pytest.approx(4.0, abs=1e-12)
    assert derivative(jet, 2) == pytest.approx(16.0, abs=1e-11)


def test_flat_jet_is_zero():
    jet = f2_jet(flat_potential(), 7.0, 4)
    assert jet.coefficients == (0.0,) * 5


def test_generalized_burns_value():
    assert f2_value(generalized_burns_potential(), 2.0) == pytest.approx(0.5, abs=1e-15)


def test_f2_jet_outside_domain():
    with pytest.raises(DomainError):
        f2_jet(fubini_study_potential(), 1.2, 2)
    with pytest.raises(DomainError):
        f2_jet(generalized_burns_potential(), 1.0, 2)


def test_get_potential_lookup():
    assert get_potential("fubini-study").label == "fubini_study"
    assert get_potential("burns_simanca", 3).label == "burns_simanca"
    with pytest.raises(DomainError):
        get_potential("nonsense")


# ---------------------------------------------------------------------------
# Admissibility sweeps
# ---------------------------------------------------------------------------


def test_admissibility_fubini_study():
    assert admissibility(fubini_study_potential(), (0.01, 0.99)).passed


def test_admissibility_flat():
    assert admissibility(flat_potential(), (0.1, 100.0)).passed


def test_admissibility_violator_reports_witness():
    pot = custom_potential(
        lambda t, order: -2.0 / variable(t, order), (0.5, math.inf), label="minus_two_over_t"
    )
    report = admissibility(pot, (1.0, 2.0))
    assert not report.passed
    assert report.witness is not None and 1.0 <= report.witness <= 2.0
    assert f2_value(pot, report.witness) + 1.0 / report.witness <= 0.0


# ---------------------------------------------------------------------------
# Legendre bridge
# ---------------------------------------------------------------------------


def test_kahler_to_t_flat():
    result = kahler_to_t_potential(flat_radial(), 3.0)
    assert result.s == pytest.approx(3.0, rel=1e-12)
    assert result.F == pytest.approx(-3.0, rel=1e-12)
    assert result.F2 == pytest.approx(0.0, abs=1e-12)


def test_kahler_to_t_fubini_study():
    result = kahler_to_t_potential(fubini_study_radial(), 0.5)
    assert result.s == pytest.approx(1.0, rel=1e-11)
    assert result.F == pytest.approx(0.5 * math.log(0.5), rel=1e-11)
    assert result.F2 == pytest.approx(2.0, rel=1e-10)


def test_kahler_to_t_out_of_range():
    # gamma = s/(1+s) < 1, so t = 1.5 is unreachable.
    with pytest.raises(BracketRangeError):
        kahler_to_t_potential(fubini_study_radial(), 1.5)


def test_kahler_to_t_rejects_decreasing_profile():
    falling = custom_radial(lambda s, order: -1.0 * variable(s, order), "minus_s")
    with pytest.raises(NonAdmissibleError):
        kahler_to_t_potential(falling, 2.0)


def test_kahler_to_t_reproduces_fubini_study_closed_form():
    f = fubini_study_radial()
    for t in np.arange(0.1, 0.95, 0.1):
        expected = (1.0 - t) * math.log(1.0 - t)
        assert kahler_to_t_potential(f, float(t)).F == pytest.approx(expected, abs=1e-9)


def _mixture_radial(alpha: float, beta: float):
    """f(s) = alpha * s/2 + beta * (1/2) ln(1+s); admissibility varies with signs."""

    def jfn(s, order):
        sj = variable(s, order)
        return alpha * 0.5 * sj + beta * 0.5 * ln_jet(1.0 + sj)

    return custom_radial(jfn, "mixture")


def test_gamma_monotonicity_matches_radial_admissibility():
    rng = np.random.default_rng(3)
    for _ in range(100):
        alpha = rng.uniform(-0.5, 1.5)
        beta = rng.uniform(-0.5, 1.5)
        s = rng.uniform(0.2, 4.0)
        f = _mixture_radial(alpha, beta)
        jet = radial_jet(f, s, 2)
        f1 = jet.coefficients[1]
        f2 = 2.0 * jet.coefficients[2]
        if abs(f1) < 1e-9 or abs(f1 + s * f2) < 1e-9:
            continue
        gamma = 2.0 * s * f1
        gamma_slope = central_derivative(
            lambda u: 2.0 * u * radial_jet(f, u, 1).coefficients[1], s, 1, 1e-5
        )
        admissible = f1 > 0.0 and f2 > -f1 / s
        assert admissible == (gamma > 0.0 and gamma_slope > 0.0)


@pytest.mark.parametrize(
    "f, t_range",
    [(fubini_study_radial(), (1e-3, 1.0 - 1e-3)), (_mixture_radial(1.0, 1.0), (1e-3, 1e3))],
)
def test_kahler_to_t_inverts_gamma_to_roundoff(f, t_range):
    # gamma(s) = 2 s f'(s) at the returned s reproduces t to a few ulps.
    rng = np.random.default_rng(11)
    lo, hi = t_range
    for t in np.exp(rng.uniform(math.log(lo), math.log(hi), 20)):
        s = kahler_to_t_potential(f, float(t)).s
        gamma = 2.0 * s * radial_jet(f, s, 1).coefficients[1]
        assert abs(gamma - t) <= 8.0 * np.finfo(float).eps * t


# ---------------------------------------------------------------------------
# Hermitian matrix on the complex side
# ---------------------------------------------------------------------------


def test_hermitian_flat_is_half_identity():
    result = hermitian_metric(flat_radial(), [1.0 + 2.0j, -0.5j, 3.0])
    assert np.allclose(result.matrix, 0.5 * np.eye(3), atol=1e-15)
    assert result.posdef


def test_hermitian_fubini_study_eigenvalues():
    # s = 1: eigenvalues f' = 1/4 and f' + s f'' = 1/8.
    result = hermitian_metric(fubini_study_radial(), [1.0, 0.0])
    eigs = sorted(np.linalg.eigvalsh(result.matrix))
    assert eigs == pytest.approx([0.125, 0.25], abs=1e-13)
    assert result.posdef


def test_hermitian_decreasing_profile_not_posdef():
    falling = custom_radial(lambda s, order: -1.0 * variable(s, order), "minus_s")
    assert not hermitian_metric(falling, [1.0, 1.0]).posdef


def test_hermitian_rejects_origin():
    with pytest.raises(DomainError):
        hermitian_metric(flat_radial(), [0.0, 0.0])


def test_hermitian_flag_matches_numeric_eigenvalues():
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 200:
        alpha = rng.uniform(-0.6, 1.2)
        beta = rng.uniform(-0.6, 1.2)
        n = int(rng.integers(1, 4))
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = _mixture_radial(alpha, beta)
        result = hermitian_metric(f, z)
        eigs = np.linalg.eigvalsh(result.matrix)
        if np.min(np.abs(eigs)) < 1e-8:
            continue  # sign of a near-zero eigenvalue is noise, not a disagreement
        assert result.posdef == bool(np.min(eigs) > 0.0)
        checked += 1


def test_hermitian_determinant_eigenstructure():
    rng = np.random.default_rng(5)
    for f in (flat_radial(), fubini_study_radial()):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            s = float(np.vdot(z, z).real)
            jet = radial_jet(f, s, 2)
            f1 = jet.coefficients[1]
            f2 = 2.0 * jet.coefficients[2]
            result = hermitian_metric(f, z)
            det = np.linalg.det(result.matrix)
            assert det.imag == pytest.approx(0.0, abs=1e-12)
            assert det.real == pytest.approx(f1 ** (n - 1) * (f1 + s * f2), abs=1e-10)


# ---------------------------------------------------------------------------
# Symplectic potential values
# ---------------------------------------------------------------------------


def test_symplectic_potential_flat():
    assert symplectic_evaluator(flat_potential())((1.0, 1.0)) == pytest.approx(-1.0, abs=1e-14)


def test_symplectic_potential_fubini_study():
    expected = 0.5 * (2 * 0.25 * math.log(0.25) + 0.5 * math.log(0.5))
    got = symplectic_evaluator(fubini_study_potential())((0.25, 0.25))
    assert got == pytest.approx(expected, abs=1e-14)


def test_symplectic_potential_near_boundary():
    with pytest.raises(NearBoundaryError):
        symplectic_evaluator(flat_potential())((1.0, 0.0))


def test_symplectic_potential_t_outside_domain():
    with pytest.raises(DomainError):
        symplectic_evaluator(fubini_study_potential())((0.7, 0.7))


def test_symplectic_evaluator_needs_closed_form_or_window():
    bare = custom_potential(generalized_burns_potential().jet_fn, (1.0, math.inf), label="gb_no_value")
    with pytest.raises(DomainError):
        symplectic_evaluator(bare)
    g = symplectic_evaluator(bare, t_window=(1.5, 2.5))
    with pytest.raises(DomainError):
        g((0.4, 0.4))  # t = 0.8, outside the potential's domain


def test_quadrature_value_matches_closed_form_up_to_affine():
    closed = generalized_burns_potential()
    bare = custom_potential(closed.jet_fn, closed.domain, label="gb_no_value")
    ts = [1.3, 1.8, 2.6, 3.5]
    diffs = [reconstruct_F(bare, t)[0] - closed.value_fn(t) for t in ts]
    slopes = [(diffs[i + 1] - diffs[i]) / (ts[i + 1] - ts[i]) for i in range(3)]
    for i in range(2):
        assert slopes[i + 1] == pytest.approx(slopes[i], abs=1e-8)


def test_local_t_potential_second_derivative():
    pot = fubini_study_potential()
    approx = local_t_potential(pot, 0.3, 0.6)
    for t in (0.35, 0.45, 0.55):
        second = central_derivative(approx, t, 2, 1e-3)
        assert second == pytest.approx(f2_value(pot, t), rel=1e-6)


def test_local_t_potential_gauge():
    approx = local_t_potential(generalized_burns_potential(), 1.5, 2.5)
    assert approx(1.5) == pytest.approx(0.0, abs=1e-12)


def test_local_t_potential_rejects_points_outside_window():
    approx = local_t_potential(generalized_burns_potential(), 1.5, 2.5)
    assert math.isfinite(approx(2.5))
    for t in (1.5 - 1e-9, 2.5 + 1e-9):
        with pytest.raises(DomainError):
            approx(t)


def test_local_t_potential_needs_an_increasing_window():
    with pytest.raises(DomainError):
        local_t_potential(generalized_burns_potential(), 2.5, 1.5)


def test_scalar_flat_family_domain_guard():
    pot = scalar_flat_family(3, 1.96, -1.02)
    with pytest.raises(DomainError):
        f2_jet(pot, pot.domain[0] - 0.2, 2)
