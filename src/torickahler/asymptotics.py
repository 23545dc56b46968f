"""Full metric blocks, the flat chart at infinity, and the decay-rate scan.

In action-angle coordinates a radial-family metric is the block matrix
``h = diag(G, G^{-1})`` with compatible complex structure
``J = [[0, -G^{-1}], [G, 0]]``.  The flat chart
``lambda_i = sqrt(2 x_i) cos y_i, mu_i = sqrt(2 x_i) sin y_i`` turns the
euclidean metric into the identity, so the operator-norm distance of the
transformed ``h`` from the identity measures how fast a metric flattens out.
For the scalar-flat blow-up metric that deviation falls off like
``(n-1) u^(1-n)`` in the squared radius ``u``, and :func:`decay_scan` fits the
exponent and reads off the coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DecayFitError, DomainError
from .curvature import HessianEval, _in_blocks, hessian_t_family
from .potentials import TPotential, admissible_f2, f2_value
from .scalarflat import burns_simanca_potential

__all__ = [
    "MetricBlocks",
    "DecayReport",
    "metric_blocks",
    "flat_chart",
    "chart_deviation",
    "decay_scan",
]


@dataclass(frozen=True)
class MetricBlocks:
    """Metric and complex-structure blocks at one action point."""

    x: np.ndarray
    hessian: HessianEval
    h: np.ndarray
    J: np.ndarray


@dataclass(frozen=True)
class DecayReport:
    """Log-log decay fit of the deviation from the euclidean metric.

    ``leading_coefficient`` is ``u^(-expected_slope) * deviation`` at the
    largest ``u``; it tends to ``n - 1`` for the blow-up metric.
    """

    n: int
    potential: str
    samples: tuple[tuple[float, float], ...]
    fitted_slope: float
    expected_slope: float
    leading_coefficient: float

    def __post_init__(self) -> None:
        us = [u for u, _ in self.samples]
        if any(b <= a for a, b in zip(us, us[1:])):
            raise ValueError("scan points must be strictly increasing in u")


def metric_blocks(pot: TPotential, x: Sequence[float]) -> MetricBlocks:
    """h = diag(G, G^{-1}) and J = [[0, -G^{-1}], [G, 0]] at an interior point."""
    hess = hessian_t_family(pot, x)
    n = hess.x.size
    h = np.zeros((2 * n, 2 * n))
    h[:n, :n] = hess.G
    h[n:, n:] = hess.G_inv
    J = np.zeros((2 * n, 2 * n))
    J[:n, n:] = -hess.G_inv
    J[n:, :n] = hess.G
    return MetricBlocks(x=hess.x, hessian=hess, h=h, J=J)


def flat_chart(x: Sequence[float], y: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(lambda, mu) = (sqrt(2x) cos y, sqrt(2x) sin y); needs x >= 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DomainError("x and y must have the same length")
    if np.any(x < 0.0):
        raise DomainError("the chart needs x >= 0")
    r = np.sqrt(2.0 * x)
    return r * np.cos(y), r * np.sin(y)


def _chart_jacobian_inverse(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(x, y) / d(lambda, mu) at points of shape (..., n); block-diagonal in each coordinate pair."""
    n = x.shape[-1]
    r = np.sqrt(2.0 * x)
    k = np.arange(n)
    M = np.zeros(x.shape[:-1] + (2 * n, 2 * n))
    M[..., k, k] = r * np.cos(y)
    M[..., k, n + k] = r * np.sin(y)
    M[..., n + k, k] = -np.sin(y) / r
    M[..., n + k, n + k] = np.cos(y) / r
    return M


def chart_deviation(
    pot: TPotential, x: Sequence[float] | np.ndarray, y: Sequence[float] | np.ndarray | None = None
) -> float | np.ndarray:
    """Operator-norm distance of the metric from the identity in the flat chart.

    The flat potential gives h0 = diag(G0, G0^{-1}) with G0 = diag(1/(2x)),
    which the chart maps to the identity exactly.  So h - h0 is assembled from
    its exact rank-one pieces, G - G0 = (1/2) F'' 11^T and
    G^{-1} - G0^{-1} = -2 F'' x x^T / (1 + t F''), and transformed; nothing is
    subtracted from a rounded matrix, so the deviation keeps its digits far
    below roundoff of the identity.

    ``x`` is one point of shape (n,), giving a float, or a batch of shape
    (..., n), giving an array of shape (...); ``y`` has x's shape.  Every row
    must lie in the positive orthant and be admissible.  Rows are evaluated in
    blocks of at most ``curvature.STENCIL_BLOCK`` matrix entries, each block
    with one batched ``F''`` and one stacked ``eigvalsh``.
    """
    x = np.asarray(x, dtype=float)
    y = np.zeros_like(x) if y is None else np.asarray(y, dtype=float)
    if x.ndim == 0 or x.size == 0 or np.any(x <= 0.0) or x.shape != y.shape:
        raise DomainError("x must be a point inside the positive orthant and y of its shape")
    n = x.shape[-1]
    deviation = _in_blocks(
        lambda xb, yb: _deviation_rows(pot, xb, yb), 4 * n * n, x.reshape(-1, n), y.reshape(-1, n)
    )
    return float(deviation[0]) if x.ndim == 1 else deviation.reshape(x.shape[:-1])


def _deviation_rows(pot: TPotential, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """:func:`chart_deviation` on the rows of ``x`` and ``y`` (shape (rows, n))."""
    n = x.shape[-1]
    t = x.sum(axis=-1)
    f2 = admissible_f2(t, f2_value(pot, t))
    dh = np.zeros((len(x), 2 * n, 2 * n))
    dh[:, :n, :n] = (0.5 * f2)[:, None, None]
    dh[:, n:, n:] = (-2.0 * f2 / (1.0 + t * f2))[:, None, None] * (x[:, :, None] * x[:, None, :])
    M_inv = _chart_jacobian_inverse(x, y)
    return np.max(np.abs(np.linalg.eigvalsh(np.swapaxes(M_inv, -2, -1) @ dh @ M_inv)), axis=-1)


def decay_scan(
    n: int,
    u_min: float,
    u_max: float,
    samples: int,
    pot: TPotential | None = None,
) -> DecayReport:
    """Measure the deviation from euclidean at log-spaced u and fit its decay.

    Deviations are taken along the diagonal ray x = (u/n)(1, ..., 1), y = 0;
    for radial-family metrics the deviation at fixed u is direction
    independent, so one ray suffices.  The fit drops the first decade of u
    (transient constants).  If every deviation is exactly zero the metric is
    flat and the slope is reported as NaN; having fewer than three nonzero
    points past the first decade otherwise is an error.
    """
    if not u_min > 1.0:
        raise DomainError("u_min must exceed 1")
    if not u_min < u_max < math.inf:
        raise DomainError("u_max must be finite and exceed u_min")
    if samples < 8:
        raise DomainError("need at least 8 samples")
    if pot is None:
        pot = burns_simanca_potential(n)

    us = np.geomspace(u_min, u_max, samples)
    deviations = chart_deviation(pot, (us / n)[:, None] * np.ones(n))
    scan = list(zip(us.tolist(), deviations.tolist()))

    fit_points = [(u, d) for u, d in scan if u >= 10.0 * u_min and d > 0.0]
    if len(fit_points) >= 3:
        log_u = np.log([u for u, _ in fit_points])
        log_d = np.log([d for _, d in fit_points])
        slope = float(np.polyfit(log_u, log_d, 1)[0])
    elif all(d == 0.0 for _, d in scan):
        slope = math.nan
    else:
        raise DecayFitError(
            f"only {len(fit_points)} nonzero samples past the first decade; cannot fit a slope"
        )

    u_last, d_last = scan[-1]
    with np.errstate(over="ignore"):
        leading = float(d_last * np.float64(u_last) ** (n - 1))
    return DecayReport(
        n=n,
        potential=pot.label,
        samples=tuple(scan),
        fitted_slope=slope,
        expected_slope=float(1 - n),
        leading_coefficient=leading,
    )
