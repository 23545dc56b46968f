import math
from fractions import Fraction

import numpy as np
import pytest

from torickahler import potentials
from torickahler.errors import (
    AccuracyError,
    BracketRangeError,
    DomainError,
    NearBoundaryError,
    NonAdmissibleError,
)
from torickahler.jets import derivative, jet_pow, ln_jet, variable
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
    legendre_dual,
    local_t_potential,
    radial_jet,
    scalar_flat_family,
    symplectic_evaluator,
)
from torickahler.cli import get_potential
from torickahler.scalarflat import burns_simanca_potential, reconstruct_F

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


@pytest.mark.parametrize(
    "pot, ts",
    [
        (flat_potential(), np.linspace(0.1, 40.0, 9)),
        (fubini_study_potential(), np.linspace(0.02, 0.98, 9)),
        (generalized_burns_potential(), np.linspace(1.05, 30.0, 9)),
        (get_potential("burns_simanca", 5), np.linspace(1.01, 90.0, 9)),
        # t^100 = 2^400 at t = 16: the batch mixes scaled and unscaled points.
        (scalar_flat_family(100, 1.5, -0.7), np.geomspace(2.0, 60.0, 11)),
    ],
    ids=["flat", "fubini_study", "generalized_burns", "burns_simanca", "family_n100_straddling"],
)
def test_batched_f2_jet_matches_row_by_row(pot, ts):
    batched = f2_jet(pot, ts.reshape(-1, 1), 4)
    assert batched.base.shape == (len(ts), 1)
    for i, t in enumerate(ts):
        row = f2_jet(pot, float(t), 4)
        assert [c[i, 0] for c in batched.coefficients] == list(row.coefficients)
    assert np.array_equal(f2_value(pot, ts), [f2_value(pot, float(t)) for t in ts])


def test_batch_with_one_bad_point_fails():
    with pytest.raises(DomainError):
        f2_jet(fubini_study_potential(), np.array([0.5, 1.2]), 2)
    with pytest.raises(DomainError):
        f2_jet(fubini_study_potential(), np.array([]), 2)
    with pytest.raises(DomainError):
        radial_jet(fubini_study_radial(), np.array([0.5, -1.0]), 2)


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


def _per_sample_admissibility(pot, t_range, samples):
    """The sweep one point at a time, as a reference for the batched sweep."""
    ts = np.linspace(t_range[0], t_range[1], max(2, samples))
    min_margin = math.inf
    for t in ts:
        margin = f2_value(pot, float(t)) + 1.0 / float(t)
        min_margin = min(min_margin, margin)
        if margin <= 0.0:
            return (False, float(t), min_margin, len(ts))
    return (True, None, min_margin, len(ts))


def test_admissibility_failing_range_matches_per_sample_loop():
    # F'' + 1/t = (t - 1.5)^2 - 0.1: falls, fails on (1.18, 1.82), then recovers.
    def jfn(t, order):
        tj = variable(t, order)
        return (tj - 1.5) * (tj - 1.5) - 0.1 - 1.0 / tj

    pot = custom_potential(jfn, (0.1, math.inf), label="dip")
    for t_range, samples in (((0.5, 3.0), 200), ((0.5, 3.0), 7), ((2.0, 3.0), 50)):
        report = admissibility(pot, t_range, samples)
        assert tuple(report) == _per_sample_admissibility(pot, t_range, samples)
    assert not admissibility(pot, (0.5, 3.0), 200).passed


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


def test_legendre_dual_takes_a_batch():
    f = fubini_study_radial()
    s, t = np.array([0.3, 1.0, 4.0]), np.array([0.2, 0.5, 0.8])
    batch = legendre_dual(f, s, t)
    for k in range(3):
        one = legendre_dual(f, float(s[k]), float(t[k]))
        assert all(type(v) is float for v in one)
        # numpy's vector and scalar log loops may differ in the last bit.
        assert batch.F[k] == pytest.approx(one.F, rel=4 * np.finfo(float).eps, abs=0.0)
        assert batch.F2[k] == one.F2


def test_kahler_to_t_out_of_range():
    # gamma = s/(1+s) < 1, so t = 1.5 is unreachable.
    with pytest.raises(BracketRangeError):
        kahler_to_t_potential(fubini_study_radial(), 1.5)


def _log_radial():
    """f = s/2 + (1/2) ln s: gamma = s + 1 > 1, so the bracket halves toward s = 0 for t < 1."""

    def jfn(s, order):
        sj = variable(s, order)
        return 0.5 * sj + 0.5 * ln_jet(sj)

    return custom_radial(jfn, "s_plus_log")


def test_kahler_to_t_downward_bracket_exhausts():
    with pytest.raises(BracketRangeError, match=r"^no s with gamma\(s\) <= 0.5; t outside"):
        kahler_to_t_potential(_log_radial(), 0.5)


@pytest.mark.parametrize("t", [1e-3, 0.3, 1.0, 2.5, 123.4])
def test_kahler_to_t_downward_bracket_finds_the_root(monkeypatch, t):
    # f = s gives gamma = 2 s > t at s = t: the bracket halves, and the root is s = t/2.
    batches = _record_batched_radial_jets(monkeypatch)
    result = kahler_to_t_potential(custom_radial(lambda s, order: variable(s, order), "s"), t)
    assert batches == [np.linspace(t / 2.0, t, 9).tolist()]  # one halving brackets the root
    assert result.s == t / 2.0
    assert result.F == t * math.log(0.5) - t
    assert result.F2 == 0.0
    assert kahler_to_t_potential(_log_radial(), 1.0 + t).s == pytest.approx(t, rel=1e-12)


def _record_gamma_calls(monkeypatch) -> list:
    """Each _gamma_and_slope call, recorded as True for the batched probe call and False otherwise."""
    calls = []
    original = potentials._gamma_and_slope

    def recording(f, s):
        calls.append(isinstance(s, np.ndarray))
        return original(f, s)

    monkeypatch.setattr(potentials, "_gamma_and_slope", recording)
    return calls


def test_kahler_to_t_newton_bisection_on_fubini_study(monkeypatch):
    # gamma(s) = s/(1+s) has the inverse s = t/(1-t).  An error of eps in t
    # moves s by eps/(1-t) relative, so the closed form is met to 4 eps
    # relative times that condition number; gamma(s), evaluated exactly,
    # meets t to the stopping tolerance 2 eps t.  After the bracket and its
    # probes, no t takes more than 8 Newton-bisection iterates.
    eps = np.finfo(float).eps
    calls = _record_gamma_calls(monkeypatch)
    f = fubini_study_radial()
    for t in np.random.default_rng(2026).uniform(0.05, 0.95, 200):
        t = float(t)
        calls.clear()
        s = kahler_to_t_potential(f, t).s
        assert abs(s - t / (1.0 - t)) <= 4.0 * eps * s / (1.0 - t)
        gamma = Fraction(s) / (1 + Fraction(s))
        assert abs(gamma - Fraction(t)) <= 2.0 * eps * t
        assert calls.count(True) == 1
        assert len(calls) - calls.index(True) - 1 <= 8


@pytest.mark.parametrize("t", [0.5, 2.0, 3.0, 10.0])
def test_kahler_to_t_newton_safeguard_on_a_steep_profile(monkeypatch, t):
    # f = s^50/100: gamma = s^50, root t^(1/50).  From the bracket's midpoint,
    # plain Newton creeps toward the root by about 1/50 of s per step (86
    # iterates at t = 10); bisecting whenever a step fails to halve the one
    # before keeps it under 20.  gamma's roundoff, about 50 eps, never lets
    # |gamma - t| reach 2 eps t: the Newton-step stop ends the search.
    calls = _record_gamma_calls(monkeypatch)
    steep = custom_radial(lambda s, order: 0.01 * jet_pow(variable(s, order), 50), "steep")
    s = kahler_to_t_potential(steep, t).s
    assert s == pytest.approx(t ** (1 / 50), rel=4 * np.finfo(float).eps, abs=0.0)
    assert len(calls) - calls.index(True) - 1 <= 20


def _jump_radial():
    """f = s/2 below s = 1 and s - 1/2 above it: gamma jumps from 1 to 2 at s = 1."""

    def jfn(s, order):
        slope = np.where(np.asarray(s) < 1.0, 0.5, 1.0)
        return (slope if slope.ndim else float(slope)) * variable(s, order)

    return custom_radial(jfn, "jump")


def test_kahler_to_t_refuses_a_root_it_cannot_reach(monkeypatch):
    # gamma increases but skips t = 1.5: the bracket [0.75, 1.5] closes on the
    # jump at s = 1 without |gamma - t| ever falling to 2 eps t, and every
    # Newton step leaves the bracket, so the iterate cap is reached.
    calls = _record_gamma_calls(monkeypatch)
    with pytest.raises(AccuracyError, match=r"^gamma\(s\) = 1.5 not met within 400 Newton-bisection iterates"):
        kahler_to_t_potential(_jump_radial(), 1.5)
    assert len(calls) - calls.index(True) - 1 == potentials._INVERSION_CAP


def test_kahler_to_t_rejects_decreasing_profile():
    falling = custom_radial(lambda s, order: -1.0 * variable(s, order), "minus_s")
    with pytest.raises(NonAdmissibleError):
        kahler_to_t_potential(falling, 2.0)


def test_kahler_to_t_reproduces_fubini_study_closed_form():
    f = fubini_study_radial()
    for t in np.arange(0.1, 0.95, 0.1):
        expected = (1.0 - t) * math.log(1.0 - t)
        assert kahler_to_t_potential(f, float(t)).F == pytest.approx(expected, abs=1e-9)


def _dipping_radial():
    """f = s/2 - s^2/2 + 1.26 s^3/6: gamma = s - 2 s^2 + 1.26 s^3 rises, dips on about (0.41, 0.65), rises."""

    def jfn(s, order):
        sj = variable(s, order)
        return 0.5 * sj - 0.5 * sj * sj + (1.26 / 6.0) * sj * sj * sj

    return custom_radial(jfn, "dipping")


def _record_batched_radial_jets(monkeypatch) -> list:
    batches = []
    original = potentials.radial_jet

    def recording(f, s, order=6):
        if isinstance(s, np.ndarray):
            batches.append(s.tolist())
        return original(f, s, order)

    monkeypatch.setattr(potentials, "radial_jet", recording)
    return batches


def test_kahler_to_t_probes_the_bracket_in_one_batch(monkeypatch):
    # From t = 0.34 the bracket doubles to [0.34, 1.36] over the dip in
    # gamma, which only the probes inside the bracket see; two of them fail.
    # The batch must raise what the per-probe loop it replaced raised, at
    # the first failing probe.
    f = _dipping_radial()
    probes = np.linspace(0.34, 0.34 * 2.0 * 2.0, 9)
    failing = []
    for u in probes:
        c = radial_jet(f, float(u), 2).coefficients
        f1, f2 = c[1], 2.0 * c[2]
        if 2.0 * f1 + 2.0 * u * f2 < -1e-8 * (abs(2.0 * f1) + abs(2.0 * u * f2)):
            failing.append(f"gamma is not invertible on the bracket (slope <= 0 at s = {u})")
    assert len(failing) == 2
    batches = _record_batched_radial_jets(monkeypatch)
    with pytest.raises(NonAdmissibleError) as info:
        kahler_to_t_potential(f, 0.34)
    assert str(info.value) == failing[0]
    assert batches == [probes.tolist()]
    batches.clear()
    kahler_to_t_potential(fubini_study_radial(), 0.5)
    assert [len(b) for b in batches] == [9]


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


def _gb_chebyshev():
    bare = custom_potential(generalized_burns_potential().jet_fn, (1.0, math.inf), label="gb_no_value")
    return symplectic_evaluator(bare, t_window=(1.5, 2.5))


@pytest.mark.parametrize(
    "make_g, t_range",
    [
        (lambda: symplectic_evaluator(flat_potential()), (0.5, 4.0)),
        (lambda: symplectic_evaluator(fubini_study_potential()), (0.2, 0.9)),
        (lambda: symplectic_evaluator(generalized_burns_potential()), (1.2, 4.0)),
        (_gb_chebyshev, (1.6, 2.4)),
    ],
    ids=["flat", "fubini_study", "generalized_burns", "chebyshev"],
)
def test_batched_evaluator_matches_row_by_row(make_g, t_range):
    rng = np.random.default_rng(21)
    w = rng.uniform(0.5, 1.0, (3, 5, 4))
    x = rng.uniform(*t_range, (3, 5, 1)) * w / w.sum(axis=-1, keepdims=True)
    g = make_g()
    batch = g(x)
    rows = np.array([[g(point) for point in block] for block in x])
    assert batch.shape == (3, 5)
    assert isinstance(g(x[0, 0]), float)
    np.testing.assert_allclose(batch, rows, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize(
    "make_g, good, row, error",
    [
        (lambda: symplectic_evaluator(fubini_study_potential()), 0.2, [0.2, -0.1, 0.2], NearBoundaryError),
        (lambda: symplectic_evaluator(fubini_study_potential()), 0.2, [0.4, 0.4, 0.4], DomainError),
        (lambda: symplectic_evaluator(fubini_study_potential()), 0.2, [0.2, math.nan, 0.2], DomainError),
        (_gb_chebyshev, 2.0 / 3.0, [1.0, 1.0, 0.8], DomainError),
    ],
    ids=["orthant", "t_domain", "nan", "chebyshev_window"],
)
def test_one_bad_row_fails_the_whole_batch(make_g, good, row, error):
    g = make_g()
    x = np.full((4, 3), good)
    g(x)
    x[2] = row
    with pytest.raises(error):
        g(x)


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


def _recorded_degrees(monkeypatch) -> list:
    degrees = []
    original = np.polynomial.chebyshev.chebinterpolate

    def recording(fn, degree):
        degrees.append(degree)
        return original(fn, degree)

    monkeypatch.setattr(np.polynomial.chebyshev, "chebinterpolate", recording)
    return degrees


@pytest.mark.parametrize(
    "t_lo, degrees", [(1.1, [32, 64]), (1.08, [32, 64, 128]), (1.02, [32, 64, 128, 256])]
)
def test_local_t_potential_refines_past_32_nodes(monkeypatch, t_lo, degrees):
    # The pole of Burns-Simanca's F'' at t = 1 needs more nodes the nearer the
    # window starts.  The accepted degrees come within 3e-13 of F'' (relative),
    # and at t_lo = 1.08 and 1.02 the last rejected ones miss by 6e-12 and
    # 8e-12, so these windows pin the 1e-12 threshold.
    pot = burns_simanca_potential(3)
    recorded = _recorded_degrees(monkeypatch)
    approx = local_t_potential(pot, t_lo, 3.0)
    assert recorded == degrees
    for t in np.linspace(t_lo, 3.0, 9)[1:]:
        assert approx(t) == pytest.approx(reconstruct_F(pot, t, anchor=t_lo)[0], abs=1e-12)


def test_local_t_potential_refuses_an_unresolved_window(monkeypatch):
    recorded = _recorded_degrees(monkeypatch)
    with pytest.raises(AccuracyError, match=r"^F'' not resolved on \[1.001, 3.0\] with 256 Chebyshev nodes$"):
        local_t_potential(burns_simanca_potential(3), 1.001, 3.0)
    assert recorded == [32, 64, 128, 256]


def test_local_t_potential_needs_an_increasing_window():
    with pytest.raises(DomainError):
        local_t_potential(generalized_burns_potential(), 2.5, 1.5)


def test_scalar_flat_family_domain_guard():
    pot = scalar_flat_family(3, 1.96, -1.02)
    with pytest.raises(DomainError):
        f2_jet(pot, pot.domain[0] - 0.2, 2)


FAMILY_MEMBERS = [lambda n: (n - 1.0, 2.0 - n), lambda n: (1.5, -0.7)]


@pytest.mark.parametrize("n", [100, 200, 300])
def test_family_jet_is_the_unscaled_formula_bit_for_bit(n):
    # One formula at every t: past t^n = 2^400 the family scales numer and
    # t^n by the same power of two, which leaves the quotient's bits alone.
    # The points run from below that cap, at t = e^(250/n), to t^(n+1) =
    # e^705, short of overflow and of a subnormal F''; the unscaled formula
    # is compared wherever it is finite, one t at a time and as one batch.
    ts = np.geomspace(math.exp(250.0 / n), math.exp(705.0 / (n + 1)), 48)
    for member in FAMILY_MEMBERS:
        a, b = member(n)
        pot = scalar_flat_family(n, a, b, domain=(1.0, math.inf))
        past_switch = 0
        for order in range(7):
            batched = f2_jet(pot, ts, order).coefficients
            for i, t in enumerate(ts.tolist()):
                tj = variable(t, order)
                numer = a * tj + b
                try:
                    want = (numer / (tj * (jet_pow(tj, n) - numer))).coefficients
                except DomainError:  # t^n or t^(n+1) overflows
                    continue
                assert f2_jet(pot, t, order).coefficients == want, (order, t)
                assert tuple(float(c[i]) for c in batched) == want, (order, t)
                past_switch += n * math.log2(t) > 400.0
        assert past_switch >= 7 * 20


def _family_taylor_reference(mpmath, n, a, b, t, order):
    """Taylor coefficients of (a u + b) / (u (u^n - a u - b)) at t, by 50-digit series division."""
    with mpmath.workdps(50):
        T, A, B = mpmath.mpf(t), mpmath.mpf(a), mpmath.mpf(b)
        numer = [A * T + B, A] + [mpmath.mpf(0)] * (order - 1)
        gap = [mpmath.binomial(n, j) * T ** (n - j) - numer[j] for j in range(order + 1)]
        divisor = [T * gap[0]] + [T * gap[j] + gap[j - 1] for j in range(1, order + 1)]
        q = []
        for k in range(order + 1):
            q.append((numer[k] - sum(divisor[i] * q[k - i] for i in range(1, k + 1))) / divisor[0])
        return q


@pytest.mark.parametrize(
    "n, ts, low_orders, all_orders, refused_points",
    [
        (300, np.linspace(10.5, 10.9, 41), 64, 512, 10),
        (100, np.geomspace(21.0, 1100.0, 41), 64, 512, 0),
        (400, np.linspace(5.5, 6.0, 26), 128, 1024, 2),
    ],
)
def test_family_jet_past_overflow_matches_mpmath(n, ts, low_orders, all_orders, refused_points):
    # Here t^n overflows, so the jet comes from the scaled quotient.  Its
    # error is that of the unscaled formula where t^n is finite: at n = 300,
    # at most 61 eps through order two and 356 eps at order six (t = 10.8),
    # against about 270 eps at order six for t = 2.5..2.7.  Where F'' itself is
    # subnormal a derivative jet is refused and the value is kept to a few
    # subnormal ulps.  Bounds are in eps, relative to each coefficient.
    mpmath = pytest.importorskip("mpmath")
    eps, tiny, ulp = np.finfo(float).eps, np.finfo(float).tiny, 2.0**-1074
    pot = burns_simanca_potential(n)
    compared, refused = [], 0
    for t in ts.tolist():
        ref = _family_taylor_reference(mpmath, n, n - 1, 2 - n, t, 6)
        if abs(ref[0]) < tiny:
            with pytest.raises(DomainError, match="underflows"):
                f2_jet(pot, t, 1)
            assert abs(f2_value(pot, t) - ref[0]) <= 64 * ulp
            refused += 1
            continue
        jet = f2_jet(pot, t, 6).coefficients
        errors = [float(abs(got - want) / abs(want)) / eps for got, want in zip(jet, ref)]
        assert max(errors[:3]) <= low_orders and max(errors) <= all_orders, (t, errors)
        compared.append((t, jet))
    assert len(compared) >= 20 and refused == refused_points
    batched = f2_jet(pot, np.array([t for t, _ in compared]), 6).coefficients
    assert [tuple(float(c[i]) for c in batched) for i in range(len(compared))] == [jet for _, jet in compared]


@pytest.mark.parametrize("n, lo, hi", [(1100, 1.5, 4.0), (1100, 1.9, 1.92), (3000, 1.2, 1.3)])
def test_family_at_high_dimension_matches_mpmath(n, lo, hi):
    # t^1100 overflows from t = 1.9072 on, where F'' ~ 1e-305 is still a
    # normal float, and past n ~ 2046 no one scaling t 2^-k keeps (t 2^-k)^n
    # in the float range at every t.  Each partial power is rescaled instead,
    # so the value is a float at every t, and a derivative jet is one wherever
    # F'' is normal.  The value's error grows with the n-fold product: at
    # most about 310, 240 and 900 eps on 301-point grids over these ranges.
    mpmath = pytest.importorskip("mpmath")
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    pot = burns_simanca_potential(n)
    ts = np.linspace(lo, hi, 101)
    values = f2_value(pot, ts)
    normal = 0
    for t, got in zip(ts.tolist(), values.tolist()):
        want = _family_taylor_reference(mpmath, n, n - 1, 2 - n, t, 2)
        assert float(abs(got - want[0])) <= n / 2 * eps * max(float(abs(want[0])), tiny), t
        assert f2_value(pot, t) == got
        if abs(want[0]) >= tiny:
            jet = f2_jet(pot, t, 2).coefficients
            errors = [float(abs(c - w) / abs(w)) / eps for c, w in zip(jet, want)]
            assert max(errors) <= n / 2, (t, errors)
            normal += 1
    assert normal >= 10


@pytest.mark.parametrize("n, a, b", [(1, 0.5, 0.0), (2, 1.0, 0.5), (3, 2.0, -1.0), (500, 499.0, -498.0)])
def test_family_value_at_huge_t(n, a, b):
    # t itself passes 2^400 here, so even the first factor of t^n is rescaled.
    mpmath = pytest.importorskip("mpmath")
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    pot = scalar_flat_family(n, a, b)
    ts = np.array([1e100, 1e200, 1e300])
    for t, got in zip(ts.tolist(), f2_value(pot, ts).tolist()):
        want = float(_family_taylor_reference(mpmath, n, a, b, t, 0)[0])
        assert abs(got - want) <= 4 * eps * max(want, tiny), (t, got, want)


def _exact_gap(n, a, b, t):
    t = Fraction(t)
    return t**n - Fraction(a) * t - Fraction(b)


@pytest.mark.parametrize(
    "n, t0",
    [(3, 1.5), (4, 1.5), (5, 1.25), (6, 1.5), (7, 1.75), (8, 1.25), (6, 1.3), (7, 1.1)],
)
def test_tangent_family_domain_starts_at_the_double_root(n, t0):
    # a = n t0^(n-1), b = -(n-1) t0^n make t^n - a t - b = (t - t0)^2 (...), so
    # F'' has a pole at t0.  For dyadic t0 the coefficients are exact floats and
    # the double root is t0 itself; for the others rounding splits it into two
    # roots about 1e-8 apart, and the domain starts at the larger.
    a, b = n * t0 ** (n - 1), -(n - 1) * t0**n
    pot = scalar_flat_family(n, a, b)
    start = pot.domain[0]
    assert type(start) is float
    assert _exact_gap(n, a, b, start) <= 0 < _exact_gap(n, a, b, math.nextafter(start, math.inf))
    if Fraction(t0).denominator in (1, 2, 4):
        assert start == t0
    assert start == pytest.approx(t0, rel=1e-7)
    with pytest.raises(DomainError):
        admissibility(pot, (0.5 * t0, 3.0 * t0))
    assert admissibility(pot, (1.01 * t0, 3.0 * t0)).passed


def test_family_domain_decides_root_existence_exactly():
    # Lifting the tangent gap of n = 4, t0 = 1.5 by 1e-9 leaves no real root;
    # lowering it by 1e-9 gives two roots about 1e-5 apart around t0.
    n, t0 = 4, 1.5
    a, b = n * t0 ** (n - 1), -(n - 1) * t0**n
    assert scalar_flat_family(n, a, b - 1e-9).domain[0] == 0.0
    lowered = scalar_flat_family(n, a, b + 1e-9).domain[0]
    assert t0 < lowered < t0 + 1e-4
    assert _exact_gap(n, a, b + 1e-9, lowered) <= 0 < _exact_gap(n, a, b + 1e-9, math.nextafter(lowered, 2.0))
    assert scalar_flat_family(3, -1.0, -0.5).domain[0] == 0.0  # gap increasing from gap(0) = 0.5


@pytest.mark.parametrize("a, b", [(2.0, -1.0), (1.0, 0.5), (3.0, 0.0), (1.0, 0.0), (1.5, 2.0)])
def test_first_order_family_without_a_right_half_line_is_refused(a, b):
    # For n = 1 the gap (1 - a) t - b falls when a > 1 and is the constant -b
    # when a = 1: no interval (t0, inf) has a positive gap.
    with pytest.raises(DomainError, match="positive on no interval"):
        scalar_flat_family(1, a, b)


@pytest.mark.parametrize("a, b, start", [(0.5, 0.25, 0.5), (-1.0, -2.0, 0.0), (1.0, -0.5, 0.0), (0.0, 3.0, 3.0)])
def test_first_order_family_lives_right_of_its_root(a, b, start):
    pot = scalar_flat_family(1, a, b)
    assert pot.domain == (start, math.inf)
    ts = start + np.array([0.1, 1.0, 10.0])
    np.testing.assert_allclose(f2_value(pot, ts), (a * ts + b) / (ts * ((1.0 - a) * ts - b)), rtol=1e-12)
