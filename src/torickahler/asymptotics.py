"""Distance from the euclidean metric in the flat chart, and the decay-rate scan.

In action-angle coordinates a radial-family metric is the block matrix
``h = diag(G, G^{-1})``, G the Hessian of the symplectic potential
(:func:`~torickahler.curvature.hessian_t_family`).  The flat chart
``lambda_i = sqrt(2 x_i) cos y_i, mu_i = sqrt(2 x_i) sin y_i`` turns the
euclidean metric into the identity, so the operator-norm distance of ``h``,
carried through the chart's Jacobian, from the identity measures how fast a
metric flattens out (:func:`chart_deviation`).  With ``t = sum(x)`` it is
``|t F''| max(1, 1/(1 + t F''))``: the chart sends ``h - h0`` to
``(1/2) F'' a a^T - (2 F''/(1 + t F'')) b b^T``, where in each coordinate pair
``a_i = sqrt(2 x_i)(cos y_i, sin y_i)`` is orthogonal to
``b_i = sqrt(x_i/2)(-sin y_i, cos y_i)``; so ``a`` and ``b`` are orthogonal
eigenvectors, with ``|a|^2 = 2t`` and ``|b|^2 = t/2`` whatever the angles y.
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
# perfbench/tracing.py wraps ``asymptotics.hessian_t_family`` by name, so it stays importable here.
from .curvature import hessian_t_family  # noqa: F401
from .potentials import _TINY, TPotential, admissible_f2, f2_value
from .scalarflat import burns_simanca_potential

__all__ = [
    "DecayReport",
    "chart_deviation",
    "decay_scan",
]


@dataclass(frozen=True)
class DecayReport:
    """Log-log decay fit of the deviation from the euclidean metric.

    ``fitted`` marks, per sample, whether the fit used it: past the first
    decade of u, with ``F''`` a normal float.  ``leading_coefficient`` is
    ``u^(-expected_slope) * deviation``, taken in log space at the largest
    ``u`` of the fit; it tends to ``n - 1`` for the blow-up metric.
    """

    samples: tuple[tuple[float, float], ...]
    fitted: tuple[bool, ...]
    fitted_slope: float
    expected_slope: float
    leading_coefficient: float

    def __post_init__(self) -> None:
        us = [u for u, _ in self.samples]
        if any(b <= a for a, b in zip(us, us[1:])):
            raise ValueError("scan points must be strictly increasing in u")


def chart_deviation(pot: TPotential, x: Sequence[float] | np.ndarray) -> float | np.ndarray:
    """Operator-norm distance of the metric from the identity in the flat chart.

    The flat potential gives h0 = diag(G0, G0^{-1}) with G0 = diag(1/(2x)),
    which the chart maps to the identity.  The rest, G - G0 = (1/2) F'' 11^T
    and G^{-1} - G0^{-1} = -2 F'' x x^T / (1 + t F''), becomes the sum of two
    orthogonal rank-one terms (module docstring) with eigenvalues t F'' and
    -t F''/(1 + t F''), so the distance is |t F''| max(1, 1/(1 + t F'')) at
    every angle y, exact far below roundoff of the identity.

    ``x`` is one point of shape (n,), giving a float, or a batch of shape
    (..., n), giving an array of shape (...), with one batched ``F''``.
    Every row must lie in the positive orthant and be admissible.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.size == 0 or np.any(x <= 0.0):
        raise DomainError("x must be a point inside the positive orthant")
    t = x.sum(axis=-1)
    tf2 = t * admissible_f2(t, f2_value(pot, t))
    deviation = np.abs(tf2) * np.maximum(1.0, 1.0 / (1.0 + tf2))
    return float(deviation) if x.ndim == 1 else deviation


def decay_scan(n: int, u_min: float, u_max: float, samples: int) -> DecayReport:
    """Measure the blow-up metric's deviation from euclidean at log-spaced u and fit its decay.

    Deviations are taken along the diagonal ray x = (u/n)(1, ..., 1), where
    the deviation is u F''(u) to leading order; for radial-family metrics the
    deviation at fixed u is direction independent, so one ray suffices.  The
    fit drops the first decade of u (transient constants) and every sample
    where F'' = deviation/u is not a normal float, and fits
    ``ln d = p ln u + k + c/u``: the ``c/u`` column takes up the first
    correction of the decay, which would otherwise bias the slope p.  Fewer
    than three points to fit, as when F'' has underflowed on the whole scan,
    raise :class:`DecayFitError`.
    """
    if not u_min > 1.0:
        raise DomainError("u_min must exceed 1")
    if not u_min < u_max < math.inf:
        raise DomainError("u_max must be finite and exceed u_min")
    if samples < 8:
        raise DomainError("need at least 8 samples")

    us = np.geomspace(u_min, u_max, samples)
    deviations = chart_deviation(burns_simanca_potential(n), (us / n)[:, None] * np.ones(n))
    scan = tuple(zip(us.tolist(), deviations.tolist()))

    fit = (us >= 10.0 * u_min) & (deviations >= us * _TINY)
    if np.count_nonzero(fit) >= 3:
        u_fit = us[fit]
        log_u, log_d = np.log(u_fit), np.log(deviations[fit])
        # The c/u column is scaled to 1 at the first fit point, so that lstsq
        # keeps it at any u_min.
        columns = np.stack([log_u, np.ones_like(log_u), u_fit[0] / u_fit], axis=-1)
        slope = float(np.linalg.lstsq(columns, log_d, rcond=None)[0][0])
        leading = float(np.exp(log_d[-1] + (n - 1) * log_u[-1]))
    else:
        raise DecayFitError(
            f"only {np.count_nonzero(fit)} samples past the first decade with a normal F''; cannot fit a slope"
        )

    return DecayReport(
        samples=scan,
        fitted=tuple(fit.tolist()),
        fitted_slope=slope,
        expected_slope=float(1 - n),
        leading_coefficient=leading,
    )
