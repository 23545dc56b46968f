"""Hessians in action coordinates and the scalar curvature, two independent ways.

For potentials of the radial family ``g = (1/2)(sum x_i ln x_i + F(t))`` the
Hessian and its inverse have closed forms, and the scalar curvature reduces to

    S = t^(1-n) (t^(n+1) F'' / (1 + t F''))'' ,

which :func:`scalar_curvature_reduced` evaluates exactly through jet
arithmetic.  Independently, :func:`scalar_curvature_abreu` computes

    S = -(1/2) sum_ij d^2 G^ij / dx_i dx_j

for an arbitrary potential evaluator by finite differences of the inverse
Hessian field.  Agreement of the two routes is the package's main
cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegeneratePotentialError,
    DomainError,
    NonAdmissibleError,
    SingularMetricError,
)
from .jets import derivative, jet_pow, variable
from .potentials import RadialKahlerPotential, TPotential, f2_jet, f2_value, radial_jet

__all__ = [
    "HessianEval",
    "CurvatureReport",
    "LegendreRoundtrip",
    "hessian_t_family",
    "hessian_general",
    "scalar_curvature_reduced",
    "scalar_curvature_abreu",
    "extremal_check",
    "legendre_roundtrip",
]


@dataclass(frozen=True)
class HessianEval:
    """Hessian data of a symplectic potential at one action point."""

    x: np.ndarray
    G: np.ndarray
    G_inv: np.ndarray
    det_G_inv: float
    posdef: bool


@dataclass(frozen=True)
class CurvatureReport:
    """Scalar curvature samples with an affine fit in t."""

    points: tuple[tuple[float, float], ...]
    fit_intercept: float
    fit_slope: float
    max_residual: float
    tolerance: float
    extremal: bool


@dataclass(frozen=True)
class LegendreRoundtrip:
    """Residuals of one pass complex side -> action side -> back."""

    a: np.ndarray
    x: np.ndarray
    s: float
    t: float
    gradient_residual: float
    duality_gap: float
    hessian_residual: float


def _t_family_matrices(x: np.ndarray, f2: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Closed forms for G, G^{-1} and det G^{-1} of the radial family."""
    n = x.size
    t = float(x.sum())
    denom = 1.0 + t * f2
    G = np.diag(0.5 / x) + 0.5 * f2 * np.ones((n, n))
    G_inv = (2.0 / denom) * (np.diag(x * (1.0 + f2 * t)) - f2 * np.outer(x, x))
    det_G_inv = (2.0**n) * float(np.prod(x)) / denom
    return G, G_inv, det_G_inv


def hessian_t_family(pot: TPotential, x: Sequence[float]) -> HessianEval:
    """Hessian of (1/2)(sum x_i ln x_i + F(t)) from the closed forms.

    G_ij = (1/2)(delta_ij / x_i + F''); the inverse has diagonal entries
    2 x_i (1 + F'' (t - x_i)) / (1 + t F'') and off-diagonal
    -2 F'' x_i x_j / (1 + t F'').  G is positive definite whenever it is
    returned: with x > 0, G is a positive diagonal matrix plus a rank-one term,
    so it has at most one nonpositive eigenvalue, and by the matrix determinant
    lemma det G = (1 + t F'') / prod(2 x_i) > 0 rules that one out.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("x must be a nonempty vector")
    if np.any(x <= 0.0):
        raise DomainError("x must lie strictly inside the positive orthant")
    t = float(x.sum())
    f2 = f2_value(pot, t)
    if 1.0 + t * f2 <= 0.0:
        raise NonAdmissibleError(
            f"1 + t F'' = {1.0 + t * f2} <= 0 at t={t}; the inverse Hessian degenerates"
        )
    G, G_inv, det_G_inv = _t_family_matrices(x, f2)
    return HessianEval(x=x, G=G, G_inv=G_inv, det_G_inv=det_G_inv, posdef=True)


def _second_difference_matrix(g: Callable[[np.ndarray], float], x: np.ndarray, h: float) -> np.ndarray:
    n = x.size
    G = np.empty((n, n))
    g0 = g(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        G[i, i] = (g(x + ei) - 2.0 * g0 + g(x - ei)) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            val = (g(x + ei + ej) - g(x + ei - ej) - g(x - ei + ej) + g(x - ei - ej)) / (4.0 * h**2)
            G[i, j] = G[j, i] = val
    return G


def hessian_general(
    g: Callable[[Sequence[float]], float], x: Sequence[float], step: float | None = None
) -> HessianEval:
    """Hessian of an arbitrary potential evaluator by central differences.

    One Richardson pass over steps (h, h/2) removes the leading h^2 error; the
    result is symmetrized and inverted by pivoted elimination.  A Hessian whose
    smallest eigenvalue is negligible against the largest raises
    :class:`DegeneratePotentialError` rather than returning garbage.  The
    caller must keep ``x`` more than ``2 * step`` away from any boundary of
    ``g``'s domain; the stencil reaches that far.
    """
    x = np.asarray(x, dtype=float)
    if step is None:
        step = max(1e-4, 1e-4 * float(np.linalg.norm(x)))
    coarse = _second_difference_matrix(g, x, step)
    fine = _second_difference_matrix(g, x, step / 2.0)
    G = (4.0 * fine - coarse) / 3.0
    G = 0.5 * (G + G.T)

    eigenvalues = np.linalg.eigvalsh(G)
    largest = float(np.max(np.abs(eigenvalues)))
    smallest = float(np.min(np.abs(eigenvalues)))
    if smallest < 1e-8 * max(1.0, largest):
        raise DegeneratePotentialError(
            f"Hessian is numerically singular (|eig| range {smallest:.2e} .. {largest:.2e})"
        )
    G_inv = np.linalg.inv(G)
    return HessianEval(
        x=x,
        G=G,
        G_inv=G_inv,
        det_G_inv=float(np.linalg.det(G_inv)),
        posdef=bool(eigenvalues[0] > 0.0),
    )


def scalar_curvature_reduced(pot: TPotential, n: int, t: float, order: int = 4) -> float:
    """S = t^(1-n) (t^(n+1) F'' / (1 + t F''))'' via jet arithmetic."""
    if n < 1:
        raise DomainError("dimension n must be at least 1")
    t = float(t)
    f2 = f2_jet(pot, t, order)
    tj = variable(t, order)
    denom = 1.0 + tj * f2
    if denom.value == 0.0:
        raise SingularMetricError(f"1 + t F'' vanishes at t={t}")
    if denom.value < 0.0:
        raise NonAdmissibleError(f"1 + t F'' = {denom.value} < 0 at t={t}")
    inner = jet_pow(tj, n + 1) * f2 / denom
    return t ** (1 - n) * derivative(inner, 2)


def scalar_curvature_abreu(
    g: Callable[[Sequence[float]], float],
    x: Sequence[float],
    step: float | None = None,
    hessian_step: float | None = None,
) -> float:
    """S = -(1/2) sum_ij d^2 G^ij / dx_i dx_j by finite differences.

    The inverse-Hessian field is sampled through :func:`hessian_general` and
    differentiated with central stencils of width ``step``, with one Richardson
    extrapolation over (step, step/2).  The inner Hessian step is wider than
    the standalone default: the composition is a fourth derivative of g, and a
    too-small inner step leaves rounding noise that the outer stencil amplifies
    by 1/step^2.  Keep ``x`` more than ``4 * step`` inside the domain.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if step is None:
        step = 0.02 * (1.0 + float(np.linalg.norm(x)))
    if hessian_step is None:
        hessian_step = 1.5e-3 * (1.0 + float(np.linalg.norm(x)))

    def inv_field(point: np.ndarray) -> np.ndarray:
        return hessian_general(g, point, step=hessian_step).G_inv

    center = inv_field(x)

    def stencil_sum(h: float) -> float:
        total = 0.0
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            total += (inv_field(x + ei)[i, i] - 2.0 * center[i, i] + inv_field(x - ei)[i, i]) / h**2
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = h
                mixed = (
                    inv_field(x + ei + ej)[i, j]
                    - inv_field(x + ei - ej)[i, j]
                    - inv_field(x - ei + ej)[i, j]
                    + inv_field(x - ei - ej)[i, j]
                ) / (4.0 * h**2)
                total += 2.0 * mixed
        return total

    coarse = stencil_sum(step)
    fine = stencil_sum(step / 2.0)
    return -0.5 * (4.0 * fine - coarse) / 3.0


def extremal_check(
    pot: TPotential,
    n: int,
    t_samples: Sequence[float],
    tolerance: float | None = None,
) -> CurvatureReport:
    """Least-squares affine fit of S(t) over samples; extremal means tiny residual.

    For radial metrics S depends on x only through t, so affinity in t is the
    checkable form of "S is an affine function of x".  The default tolerance is
    scale-free: 1e-6 * (1 + max |S|).
    """
    ts = [float(t) for t in t_samples]
    if len(ts) < 2:
        raise ValueError("need at least two t samples")
    values = [scalar_curvature_reduced(pot, n, t) for t in ts]
    design = np.column_stack([np.ones(len(ts)), np.asarray(ts)])
    coeffs, *_ = np.linalg.lstsq(design, np.asarray(values), rcond=None)
    residuals = np.asarray(values) - design @ coeffs
    max_residual = float(np.max(np.abs(residuals)))
    if tolerance is None:
        tolerance = 1e-6 * (1.0 + float(np.max(np.abs(values))))
    return CurvatureReport(
        points=tuple(zip(ts, values)),
        fit_intercept=float(coeffs[0]),
        fit_slope=float(coeffs[1]),
        max_residual=max_residual,
        tolerance=tolerance,
        extremal=max_residual < tolerance,
    )


def _fd_gradient(fn: Callable[[np.ndarray], float], a: np.ndarray, h: float) -> np.ndarray:
    grad = np.empty_like(a)
    for i in range(a.size):
        ei = np.zeros(a.size)
        ei[i] = h
        grad[i] = (fn(a + ei) - fn(a - ei)) / (2.0 * h)
    return grad


def legendre_roundtrip(
    f: RadialKahlerPotential, a: Sequence[float], fd_step: float = 1e-4
) -> LegendreRoundtrip:
    """Map a log-coordinate point through the Legendre transform and verify it.

    Three residuals are reported: the moment map x_i = 2 e^{2 a_i} f'(s)
    against a finite-difference gradient of a -> f(s(a)); the duality identity
    f(a) + g(x) = sum a_i x_i; and the Hessian of f over a against the inverse
    Hessian of g at the image point.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise DomainError("a must be a nonempty vector")
    e2a = np.exp(2.0 * a)
    s = float(e2a.sum())

    jet = radial_jet(f, s, 2)
    f0 = jet.coefficients[0]
    f1 = jet.coefficients[1]
    f2r = 2.0 * jet.coefficients[2]
    gamma_slope = 2.0 * f1 + 2.0 * s * f2r
    if f1 <= 0.0 or gamma_slope <= 0.0:
        raise NonAdmissibleError("radial profile is not admissible at this point")

    x = 2.0 * e2a * f1
    t = float(x.sum())

    def f_of_a(av: np.ndarray) -> float:
        sv = float(np.exp(2.0 * av).sum())
        return radial_jet(f, sv, 0).value

    grad = _fd_gradient(f_of_a, a, fd_step * (1.0 + float(np.max(np.abs(a)))))
    gradient_residual = float(np.max(np.abs(grad - x)))

    F = t * math.log(s / t) - 2.0 * f0
    g_value = 0.5 * (float(np.sum(x * np.log(x))) + F)
    duality_gap = abs(f0 + g_value - float(np.dot(a, x)))

    F2 = 1.0 / (s * gamma_slope) - 1.0 / t
    _, G_inv, _ = _t_family_matrices(x, F2)
    hess_a = hessian_general(f_of_a, a, step=fd_step * (1.0 + float(np.max(np.abs(a))))).G
    hessian_residual = float(np.max(np.abs(hess_a - G_inv)))

    return LegendreRoundtrip(
        a=a,
        x=x,
        s=s,
        t=t,
        gradient_residual=gradient_residual,
        duality_gap=duality_gap,
        hessian_residual=hessian_residual,
    )
