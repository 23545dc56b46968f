import math

import numpy as np
import pytest

from torickahler import potentials
from torickahler.asymptotics import chart_deviation, decay_scan
from torickahler.curvature import STENCIL_BLOCK, hessian_t_family
from torickahler.errors import DecayFitError, DomainError, NonAdmissibleError
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


def test_decay_flat_metric_sits_at_floor():
    report = decay_scan(2, 10.0, 1e6, 16, pot=flat_potential())
    assert all(d < 1e-12 for _, d in report.samples)
    assert math.isnan(report.fitted_slope)


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


def test_chart_deviation_matches_closed_form():
    # h - h0 transforms to (1/2) F'' a a^T - (2 F'' / (1 + t F'')) b b^T with
    # a = sqrt(2x)(cos y, sin y) and b = sqrt(x/2)(-sin y, cos y) orthogonal,
    # |a|^2 = 2t and |b|^2 = t/2: the norm is |t F''| max(1, 1 / (1 + t F'')).
    rng = np.random.default_rng(5)
    # F'' = -1/(2t) makes t F'' = -1/2 < 0, where the G^{-1} block dominates.
    negative = custom_potential(lambda t, order: -0.5 / variable(t, order), (1e-6, math.inf))
    for pot in (burns_simanca_potential(3), generalized_burns_potential(), fubini_study_potential(), negative):
        for _ in range(5):
            lo, hi = pot.domain
            t = rng.uniform(lo + 0.1, min(hi - 0.05, lo + 5.0))
            w = rng.uniform(0.3, 1.0, 3)
            x = t * w / w.sum()
            y = rng.uniform(-math.pi, math.pi, 3)
            tf2 = float(x.sum()) * f2_value(pot, float(x.sum()))
            expected = abs(tf2) * max(1.0, 1.0 / (1.0 + tf2))
            assert chart_deviation(pot, x, y) == pytest.approx(expected, rel=1e-12)


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
    y = rng.uniform(-math.pi, math.pi, x.shape)
    for angles in (y, None):
        batch = chart_deviation(pot, x, angles)
        assert batch.shape == (3, 5)
        rows = angles if angles is not None else np.zeros_like(x)
        for index in np.ndindex(3, 5):
            one = chart_deviation(pot, x[index], rows[index])
            assert isinstance(one, float)
            assert batch[index] == pytest.approx(one, rel=4 * np.finfo(float).eps, abs=0.0)


@pytest.mark.parametrize("n", [2, 5, 8])
def test_decay_scan_makes_one_f2_evaluation(monkeypatch, n):
    calls = _count_f2_jets(monkeypatch)
    decay_scan(n, 1e2, 1e6, 32)
    assert calls == [(32,)]


def test_chart_deviation_evaluates_rows_in_blocks(monkeypatch):
    # n = 2: a 4 x 4 matrix per row, so STENCIL_BLOCK // 16 rows per block.
    rows_per_block = STENCIL_BLOCK // 16
    pot = burns_simanca_potential(2)
    rng = np.random.default_rng(12)
    x = _random_points(rng, pot, (2 * rows_per_block + 7,), 2)
    y = rng.uniform(-math.pi, math.pi, x.shape)
    calls = _count_f2_jets(monkeypatch)
    batch = chart_deviation(pot, x, y)
    assert calls == [(rows_per_block,), (rows_per_block,), (7,)]
    expected = [chart_deviation(pot, xr, yr) for xr, yr in zip(x, y)]
    assert batch == pytest.approx(expected, rel=4 * np.finfo(float).eps, abs=0.0)


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
