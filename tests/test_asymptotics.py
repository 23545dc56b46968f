import math

import numpy as np
import pytest

from torickahler import potentials
from torickahler.asymptotics import DecayReport, chart_deviation, decay_scan
from torickahler.curvature import hessian_t_family
from torickahler.errors import DecayFitError, DimensionError, DomainError, NonAdmissibleError
from torickahler.jets import constant, variable
from torickahler.potentials import (
    custom_potential,
    f2_value,
    flat_potential,
    fubini_study_potential,
    generalized_burns_potential,
    scalar_flat_family,
)
from torickahler.scalarflat import burns_simanca_potential


# ---------------------------------------------------------------------------
# The closed-form blocks G and G^{-1} of h = diag(G, G^{-1})
# ---------------------------------------------------------------------------


def test_flat_blocks_are_identity():
    hess = hessian_t_family(flat_potential(), [0.5, 0.5])
    assert np.allclose(hess.G, np.eye(2), atol=1e-15)
    assert np.allclose(hess.G_inv, np.eye(2), atol=1e-15)


def test_burns_simanca_lower_right_block():
    # n=2 at (1,1): t=2, F''=1/2, so diagonal 2*1*(1+0.5)/2 = 1.5, off-diagonal
    # -2*0.5*1*1/2 = -0.5.
    hess = hessian_t_family(burns_simanca_potential(2), [1.0, 1.0])
    expected = np.array([[1.5, -0.5], [-0.5, 1.5]])
    assert np.allclose(hess.G_inv, expected, atol=1e-13)


def test_hessian_splitting_diag_plus_rank_one():
    rng = np.random.default_rng(1)
    pot = burns_simanca_potential(3)
    for _ in range(10):
        t = rng.uniform(1.3, 5.0)
        w = rng.uniform(0.3, 1.0, 3)
        x = t * w / w.sum()
        hess = hessian_t_family(pot, x)
        f2 = f2_value(pot, float(x.sum()))
        expected = np.diag(0.5 / x) + 0.5 * f2 * np.ones((3, 3))
        assert np.array_equal(hess.G, expected)


def test_inverse_splitting_matches_closed_form():
    # G^{-1} = C + D with C = t^{-n}(t^n - (n-1)t + n - 2) diag(2 x_i) and
    # D = 2 t^{-n-1}((n-1)t + 2 - n)(diag(t x_i) - x x^T).
    rng = np.random.default_rng(2)
    for n in (2, 3, 4):
        pot = burns_simanca_potential(n)
        for _ in range(10):
            t = rng.uniform(1.3, 6.0)
            w = rng.uniform(0.3, 1.0, n)
            x = t * w / w.sum()
            t = float(x.sum())
            C = t ** (-n) * (t**n - (n - 1) * t + n - 2) * np.diag(2.0 * x)
            D = 2.0 * t ** (-n - 1) * ((n - 1) * t + 2 - n) * (np.diag(t * x) - np.outer(x, x))
            assert np.allclose(hessian_t_family(pot, x).G_inv, C + D, atol=1e-10)


# ---------------------------------------------------------------------------
# Decay scans
# ---------------------------------------------------------------------------


def test_decay_slope_n2():
    report = decay_scan(2, 10.0, 1e6, 24)
    assert report.expected_slope == -1.0
    assert report.fitted_slope == pytest.approx(-1.0, abs=0.1)


def test_decay_slope_n3():
    report = decay_scan(3, 1e2, 1e6, 32)
    assert report.fitted_slope == pytest.approx(-2.0, abs=0.1)


def test_decay_deviations_decrease():
    report = decay_scan(3, 1e2, 1e6, 24)
    devs = [d for _, d in report.samples]
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_decay_deviations_positive_for_curved_metric():
    # The deviation is (n - 1) u^(1-n) to leading order, with a relative
    # correction of order 1/u.
    report = decay_scan(2, 1e2, 1e4, 16)
    assert all(u * d == pytest.approx(1.0, rel=2e-2) for u, d in report.samples)
    assert report.leading_coefficient == pytest.approx(1.0, rel=1e-3)


@pytest.mark.parametrize("n", range(2, 9))
def test_decay_fit_takes_up_the_one_over_u_correction(n):
    # The deviation is (n - 1) u^(1-n) (1 + c/u + O(1/u^2)); a two-column
    # log-log fit leaves the c/u term as a slope error of 1e-5 to 5e-5 here.
    report = decay_scan(n, 1e2, 1e6, 32)
    assert abs(report.fitted_slope - (1 - n)) / (n - 1) < 1e-7


@pytest.mark.parametrize(
    "n, u_max, rel",
    # At n = 60, F'' leaves the normal floats near u = 1.4e5 and the last fit
    # point sits at u = 1.25e5, where u^(n-1) d = 59 - 58/u.  The wide scans
    # reach u^(n-1) d = n - 1 to far below roundoff.
    [(60, 1e6, 1e-5), (2, 1e160, 1e-12), (3, 1e200, 1e-12)],
)
def test_decay_coefficient_where_f2_underflows(n, u_max, rel):
    report = decay_scan(n, 1e2, u_max, 32)
    assert report.fitted_slope == pytest.approx(1 - n, rel=1e-6)
    assert report.leading_coefficient == pytest.approx(n - 1, rel=rel)


def test_decay_fit_needs_enough_samples():
    # The fit drops the first decade of u, and this scan never leaves it.
    with pytest.raises(DecayFitError):
        decay_scan(2, 10.0, 90.0, 8)


def test_decay_input_validation():
    with pytest.raises(ValueError):
        decay_scan(2, 0.5, 1e4, 16)
    with pytest.raises(ValueError):
        decay_scan(2, 10.0, 1e4, 4)
    with pytest.raises(ValueError):
        decay_scan(2, 100.0, 10.0, 16)
    with pytest.raises(ValueError, match="strictly increasing"):
        DecayReport(((2.0, 1.0), (1.0, 1.0)), (True, True), -1.0, -1.0, 1.0)


@pytest.mark.parametrize("n", [math.nan, math.inf])
def test_decay_scan_refuses_a_non_finite_dimension(n):
    # Fraction(n - 1) would raise a bare ValueError (NaN) or OverflowError (inf).
    with pytest.raises(DimensionError, match="^boundary matching needs dimension n >= 2$"):
        decay_scan(n, 1e2, 1e6, 32)


def _dense_chart_deviation(pot, x, y):
    """Reference: the largest |eigenvalue| of M^{-T} (h - h0) M^{-1}, assembled as a dense 2n x 2n matrix.

    M^{-1} = d(x, y)/d(lambda, mu) for the chart lambda = sqrt(2x) cos y,
    mu = sqrt(2x) sin y; h - h0 = diag((1/2) F'' 11^T, -2 F'' x x^T/(1 + t F'')).
    """
    n = len(x)
    t = float(x.sum())
    f2 = f2_value(pot, t)
    r = np.sqrt(2.0 * x)
    k = np.arange(n)
    M_inv = np.zeros((2 * n, 2 * n))
    M_inv[k, k] = r * np.cos(y)
    M_inv[k, n + k] = r * np.sin(y)
    M_inv[n + k, k] = -np.sin(y) / r
    M_inv[n + k, n + k] = np.cos(y) / r
    dh = np.zeros((2 * n, 2 * n))
    dh[:n, :n] = 0.5 * f2
    dh[n:, n:] = -2.0 * f2 / (1.0 + t * f2) * np.outer(x, x)
    return float(np.max(np.abs(np.linalg.eigvalsh(M_inv.T @ dh @ M_inv))))


def test_chart_deviation_matches_closed_form():
    # The closed form |t F''| max(1, 1/(1 + t F'')) against the dense chart
    # eigenproblem, at random angles y.
    rng = np.random.default_rng(5)
    # F'' = -1/(2t) makes t F'' = -1/2 < 0, where the G^{-1} block dominates.
    negative = custom_potential(lambda t, order: -0.5 / variable(t, order), (1e-6, math.inf))
    for pot in (burns_simanca_potential(3), generalized_burns_potential(), fubini_study_potential(), negative):
        for n in range(1, 13):
            for _ in range(3):
                lo, hi = pot.domain
                t = rng.uniform(lo + 0.1, min(hi - 0.05, lo + 5.0))
                w = rng.uniform(0.3, 1.0, n)
                x = t * w / w.sum()
                y = rng.uniform(-math.pi, math.pi, n)
                expected = _dense_chart_deviation(pot, x, y)
                assert chart_deviation(pot, x) == pytest.approx(expected, rel=16 * np.finfo(float).eps, abs=0.0)


def test_chart_deviation_scales_with_curvature_gap():
    pot = scalar_flat_family(2, 1.0, 0.0)
    x = np.array([5.0, 5.0])
    assert chart_deviation(pot, x) > 0.0


# ---------------------------------------------------------------------------
# Batched deviations
# ---------------------------------------------------------------------------


def _count_f2_jets(monkeypatch):
    """Count the F'' jet evaluations made through ``potentials.f2_jet``."""
    calls = []
    original = potentials.f2_jet

    def counted(pot, t, order=4):
        calls.append(np.shape(t))
        return original(pot, t, order)

    monkeypatch.setattr(potentials, "f2_jet", counted)
    return calls


def _random_points(rng, pot, shape, n):
    lo, hi = pot.domain
    t = rng.uniform(lo + 0.1, min(hi - 0.05, lo + 5.0), shape)
    w = rng.uniform(0.3, 1.0, shape + (n,))
    return t[..., None] * w / w.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize(
    "pot, n",
    [(burns_simanca_potential(3), 3), (fubini_study_potential(), 4), (generalized_burns_potential(), 2),
     (scalar_flat_family(8, 3.0, -1.5), 8)],
)
def test_batched_chart_deviation_matches_row_by_row(pot, n):
    rng = np.random.default_rng(11)
    x = _random_points(rng, pot, (3, 5), n)
    batch = chart_deviation(pot, x)
    assert batch.shape == (3, 5)
    for index in np.ndindex(3, 5):
        one = chart_deviation(pot, x[index])
        assert isinstance(one, float)
        assert batch[index] == pytest.approx(one, rel=4 * np.finfo(float).eps, abs=0.0)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_decay_scan_makes_one_f2_evaluation(monkeypatch, n):
    calls = _count_f2_jets(monkeypatch)
    decay_scan(n, 1e2, 1e6, 32)
    assert calls == [(32,)]


def test_one_bad_row_fails_the_whole_deviation_batch():
    pot = burns_simanca_potential(3)
    x = _random_points(np.random.default_rng(13), pot, (6,), 3)
    chart_deviation(pot, x)
    outside = x.copy()
    outside[4, 1] = -0.1
    with pytest.raises(DomainError):
        chart_deviation(pot, outside)
    # F'' = -1/2 makes 1 + t F'' <= 0 from t = 2 on: only the last row has t >= 2.
    falling = custom_potential(lambda t, order: constant(-0.5, t, order), (1e-6, math.inf))
    x = np.array([[0.3, 0.4], [0.5, 0.5], [0.2, 0.9], [1.5, 1.0]])
    chart_deviation(falling, x[:3])
    with pytest.raises(NonAdmissibleError):
        chart_deviation(falling, x)


@pytest.mark.parametrize("n, u_max", [(2, 1e160), (3, 1e200), (4, 1e6)])
def test_decay_scan_marks_exactly_the_samples_it_fits(n, u_max):
    # Refitting the marked samples alone gives the slope bit for bit.
    scan = decay_scan(n, 1e2, u_max, 32)
    u, d = np.array(scan.samples).T
    fit = np.array(scan.fitted)
    assert len(fit) == 32 and fit.any() and not fit.all()
    columns = np.stack([np.log(u[fit]), np.ones(fit.sum()), u[fit][0] / u[fit]], axis=-1)
    assert np.linalg.lstsq(columns, np.log(d[fit]), rcond=None)[0][0] == scan.fitted_slope
