"""Hessians in action coordinates and the scalar curvature, two independent ways.

For potentials of the radial family ``g = (1/2)(sum x_i ln x_i + F(t))`` the
Hessian and its inverse have closed forms, and the scalar curvature reduces to

    S = t^(1-n) (t^(n+1) F'' / (1 + t F''))'' ,

which :func:`scalar_curvature_reduced` evaluates in closed form, by Leibniz's
rule, from one second-order jet of ``F''``; no power of t is formed.
Independently, :func:`scalar_curvature_abreu` computes

    S = -(1/2) sum_ij d^2 G^ij / dx_i dx_j

for an arbitrary potential evaluator by finite differences of the inverse
Hessian field.  Agreement of the two routes is the package's main
cross-check.

A potential evaluator ``g`` maps points of shape ``(..., n)`` to values of
shape ``(...)``.  The finite differences build their stencil points as one
array and evaluate ``g`` on whole blocks of them at once;
:func:`legendre_roundtrip` takes a batch of points the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegeneratePotentialError, DomainError, NonAdmissibleError
from .potentials import (
    _TINY,
    RadialKahlerPotential,
    TPotential,
    admissible_f2,
    f2_jet,
    f2_value,
    _legendre_relations,
    radial_derivatives,
    radial_jet,
)

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

#: Most points per ``g`` call in :func:`scalar_curvature_abreu`; bounds the
#: memory of one batch (Abreu at n = 8 needs 257^2 = 66,049 points).  Batched
#: :func:`legendre_roundtrip` and :func:`~torickahler.asymptotics.chart_deviation`
#: evaluate their rows in blocks under the same bound (see :func:`_in_blocks`).
STENCIL_BLOCK = 8192


def _in_blocks(fn: Callable, per_row: int, *rows: np.ndarray):
    """``fn`` on consecutive blocks of the row arrays ``rows``, results joined along axis 0.

    A block holds at most ``STENCIL_BLOCK // per_row`` rows, one if a single
    row costs more; ``per_row`` is what one row costs in stencil points or
    matrix entries.  ``fn`` takes one block of each row array and returns an
    array or a tuple of arrays with one entry per row.
    """
    size = max(1, STENCIL_BLOCK // per_row)
    parts = [fn(*(r[k : k + size] for r in rows)) for k in range(0, len(rows[0]), size)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


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
    """Residuals of passes complex side -> action side -> back.

    For one point ``a`` and ``x`` have shape (n,) and the other fields are
    floats; for a batch of shape (..., n) they are arrays of shape (...).
    """

    a: np.ndarray
    x: np.ndarray
    s: float | np.ndarray
    t: float | np.ndarray
    gradient_residual: float | np.ndarray
    duality_gap: float | np.ndarray
    hessian_residual: float | np.ndarray


def _t_family_inverse(x: np.ndarray, f2: float | np.ndarray) -> np.ndarray:
    """Closed form for G^{-1} of the radial family, shape (..., n, n).

    ``x`` has shape (..., n) and ``f2`` the batch shape (...).
    """
    t = x.sum(axis=-1)
    f2_m = np.asarray(f2)[..., None, None]
    # Built in place on a diagonal view: at n = 200 each fresh n x n temporary
    # costs more than the arithmetic.
    G_inv = x[..., :, None] * x[..., None, :]
    G_inv *= -f2_m
    np.einsum("...ii->...i", G_inv)[...] += x * np.asarray(1.0 + f2 * t)[..., None]
    G_inv *= np.asarray(2.0 / (1.0 + t * f2))[..., None, None]
    return G_inv


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
    f2 = admissible_f2(t, f2_value(pot, t))
    G = np.full((x.size, x.size), 0.5 * f2)
    G[np.diag_indices(x.size)] += 0.5 / x
    det_G_inv = (2.0**x.size) * np.prod(x) / (1.0 + x.sum() * f2)
    return HessianEval(x=x, G=G, G_inv=_t_family_inverse(x, f2), det_G_inv=float(det_G_inv), posdef=True)


def _stencil_points(
    x: np.ndarray, h: float | np.ndarray, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """The 1 + 4 n^2 points of the second-difference stencil around each centre, or its points start..stop.

    ``x`` has shape (..., n) and the result (..., 1 + 4 n^2, n): the centre,
    then 2 n^2 points at step h and the same 2 n^2 at step h/2, each block
    ordered +e_i, -e_i (i = 0..n-1), then +e_i+e_j, +e_i-e_j, -e_i+e_j,
    -e_i-e_j over i < j.  Every point is distinct.  ``h`` is one step for
    every centre, or an array of x's batch shape (...) with a step per centre.
    Each offset has at most two nonzero entries, so a slice of the stencil is
    built without the rest of it; every point is the same, bit for bit,
    whatever slice it comes from.
    """
    n = x.shape[-1]
    i, j = np.triu_indices(n, 1)
    m, axis = len(i), np.arange(n)
    first, second = np.concatenate([axis, axis, i, i, i, i]), np.concatenate([axis, axis, j, j, j, j])
    first_sign = np.repeat([1.0, -1.0, 1.0, 1.0, -1.0, -1.0], [n, n, m, m, m, m])
    second_sign = np.repeat([0.0, 0.0, 1.0, -1.0, 1.0, -1.0], [n, n, m, m, m, m])
    k = np.arange(start, 1 + 4 * n * n if stop is None else stop)
    offsets = np.zeros((k.size, n))
    rows = np.flatnonzero(k)
    unit = (k[rows] - 1) % (2 * n * n)
    scale = np.where(k[rows] > 2 * n * n, 0.5, 1.0)
    offsets[rows, first[unit]] = first_sign[unit] * scale
    offsets[rows, second[unit]] += second_sign[unit] * scale
    return x[..., None, :] + offsets * np.expand_dims(h, (-2, -1))


def _richardson_combine(values: np.ndarray, h: float | np.ndarray) -> np.ndarray:
    """Second partials from values on :func:`_stencil_points`: steps h and h/2, one Richardson step.

    ``values`` has the stencil on its last axis, shape (..., 1 + 4 n^2); the
    result has shape (..., n, n), entry [i, j] being d^2/dx_i dx_j.  Entries
    (i, j) and (j, i) come from the same four values, so the result is
    symmetric in its last two axes.  ``h`` is one step, or an array of the
    batch shape (...) with a step per centre.
    """
    if isinstance(h, np.ndarray):
        h = h[..., None]
    n = math.isqrt((values.shape[-1] - 1) // 4)
    m = n * (n - 1) // 2
    i, j = np.triu_indices(n, 1)
    diag = np.arange(n)
    center = values[..., :1]

    def at(step_values: np.ndarray, step: float) -> np.ndarray:
        plus, minus, pp, pm, mp, mm = np.split(step_values, np.cumsum([n, n, m, m, m]), axis=-1)
        D = np.empty(values.shape[:-1] + (n, n))
        D[..., diag, diag] = (plus - 2.0 * center + minus) / step**2
        D[..., i, j] = D[..., j, i] = (pp - pm - mp + mm) / (4.0 * step**2)
        return D

    coarse = at(values[..., 1 : 1 + 2 * n * n], h)
    fine = at(values[..., 1 + 2 * n * n :], h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def _checked_inverse(G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and inverses of the Hessians ``G`` (shape (..., n, n)).

    A Hessian whose smallest eigenvalue is negligible against the largest
    raises :class:`DegeneratePotentialError` rather than returning garbage.
    """
    eigenvalues = np.linalg.eigvalsh(G)
    magnitudes = np.abs(eigenvalues)
    ratio = magnitudes.min(axis=-1) / np.maximum(1.0, magnitudes.max(axis=-1))
    if np.any(ratio < 1e-8):
        raise DegeneratePotentialError(
            f"Hessian is numerically singular (smallest |eig| / max(1, largest |eig|) = {np.min(ratio):.2e})"
        )
    return eigenvalues, np.linalg.inv(G)


def hessian_general(
    g: Callable[[np.ndarray], np.ndarray], x: Sequence[float], step: float | None = None
) -> HessianEval:
    """Hessian of an arbitrary potential evaluator by central differences.

    ``g`` maps points of shape (..., n) to values of shape (...); it is called
    once, on the 1 + 4 n^2 stencil points.  One Richardson pass over steps
    (h, h/2) removes the leading h^2 error; the result is symmetric by
    construction.  A numerically singular Hessian raises
    :class:`DegeneratePotentialError`.  The caller must keep ``x`` more than
    ``2 * step`` away from any boundary of ``g``'s domain; the stencil reaches
    that far.
    """
    x = np.asarray(x, dtype=float)
    if step is None:
        step = max(1e-4, 1e-4 * float(np.linalg.norm(x)))
    G = _richardson_combine(np.asarray(g(_stencil_points(x, step))), step)
    eigenvalues, G_inv = _checked_inverse(G)
    return HessianEval(
        x=x,
        G=G,
        G_inv=G_inv,
        det_G_inv=float(np.linalg.det(G_inv)),
        posdef=bool(eigenvalues[0] > 0.0),
    )


def scalar_curvature_reduced(pot: TPotential, n: int, t: float | np.ndarray) -> float | np.ndarray:
    """S = t^(1-n) (t^(n+1) F'' / (1 + t F''))'' from one second-order jet of F''.

    With u = F'', D = 1 + t u and phi = u / D, Leibniz's rule turns the
    formula into S = n(n+1) phi + 2(n+1) t phi' + t^2 phi'', where

        phi'  = (u' - u^2) / D^2,
        phi'' = (u'' - 2 u u') / D^2 - 2 (u' - u^2)(u + t u') / D^3.

    No power of t is formed, so S is finite wherever F'' and its first two
    derivatives are.  An array of t is one batch of jets and gives S
    elementwise, bit for bit what each t gives alone; every t must be in the
    domain and admissible.  Where u, u' or u'' has underflowed far enough to
    matter, S is refused rather than returned (see :func:`_check_resolved`).
    """
    if n < 1:
        raise DomainError("dimension n must be at least 1")
    jet = f2_jet(pot, t, 2)
    t, c = jet.base, jet.coefficients  # t: a float, or the batch as a float ndarray
    u, du, d2u = admissible_f2(t, c[0]), c[1], 2.0 * c[2]
    D = 1.0 + t * u
    D2 = D * D
    gap = du - u * u
    phi1 = gap / D2
    phi2 = (d2u - 2.0 * u * du) / D2 - 2.0 * gap * (u + t * du) / (D2 * D)
    terms = (n * (n + 1) * (u / D), 2 * (n + 1) * t * phi1, t * (t * phi2))
    if isinstance(t, np.ndarray):
        underflow = bool((np.minimum(np.minimum(abs(u), abs(du)), abs(d2u)) < _TINY).any())
    else:
        underflow = min(abs(u), abs(du), abs(d2u)) < _TINY
    if underflow:
        _check_resolved(n, t, (u, du, d2u), D2, terms)
    return terms[0] + terms[1] + terms[2]


def _check_resolved(n: int, t, inputs: tuple, D2, terms: tuple) -> None:
    """Refuse the t at which underflow in u, u' or u'' could change S beyond roundoff.

    An input below the smallest normal float in magnitude, zero included, may
    be off by up to that size, and to first order the three inputs move S by
    n(n+1), 2(n+1) t and t^2 times their error over D^2.  S is refused where
    that slack exceeds eps times the size of its three terms.  A jet that is
    zero in all three inputs is taken as exact: F'' = 0 to second order, as
    for the flat metric, where S = 0.  A potential whose F'' underflows
    entirely must refuse on its own, as :func:`scalar_flat_family` does.
    """
    t = np.asarray(t)
    low = [np.abs(v) < _TINY for v in inputs]
    tiny_t = _TINY * t
    slack = (_TINY * n * (n + 1) * low[0] + 2 * (n + 1) * tiny_t * low[1] + t * tiny_t * low[2]) / D2
    size = np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2])
    flat = (inputs[0] == 0.0) & (inputs[1] == 0.0) & (inputs[2] == 0.0)
    bad = (slack > np.finfo(float).eps * size) & ~flat
    if bad.any():
        where = t[bad].flat[0] if t.ndim else float(t)
        raise DomainError(f"F'' or its first two derivatives underflow at t={where}; S is not resolved there")


def scalar_curvature_abreu(
    g: Callable[[np.ndarray], np.ndarray],
    x: Sequence[float],
    step: float | None = None,
) -> float:
    """S = -(1/2) sum_ij d^2 G^ij / dx_i dx_j by finite differences.

    ``g`` maps points of shape (..., n) to values of shape (...).  The Hessian
    G is taken by the stencil of :func:`hessian_general` at each point of an
    outer stencil of width ``step`` around ``x``; the inner stencils of
    consecutive outer points are evaluated together, ``STENCIL_BLOCK`` points
    per ``g`` call at most (one outer point's stencil if that is larger).
    Every G is checked for degeneracy and inverted, and G^{-1} is
    differentiated on the outer stencil with one Richardson extrapolation
    over (step, step/2).  The inner Hessian step, 1.5e-3 (1 + |x|), is wider
    than the standalone default: the composition is a fourth derivative of g,
    and a too-small inner step leaves rounding noise that the outer stencil
    amplifies by 1/step^2.  Keep ``x`` more than ``4 * step`` inside the domain.
    """
    x = np.asarray(x, dtype=float)
    if step is None:
        step = 0.02 * (1.0 + float(np.linalg.norm(x)))
    hessian_step = 1.5e-3 * (1.0 + float(np.linalg.norm(x)))

    outer = _stencil_points(x, step)
    G = _in_blocks(
        lambda b: _richardson_combine(np.asarray(g(_stencil_points(b, hessian_step))), hessian_step),
        len(outer),
        outer,
    )
    _, G_inv = _checked_inverse(G)
    # D[k, l, i, j] = d^2 G^kl / dx_i dx_j
    D = _richardson_combine(np.moveaxis(G_inv, 0, -1), step)
    return -0.5 * float(np.einsum("ijij", D))


def extremal_check(pot: TPotential, n: int, t_samples: Sequence[float]) -> CurvatureReport:
    """Least-squares affine fit of S(t) over samples; extremal means tiny residual.

    S is evaluated at all samples in one batch of jets.

    For radial metrics S depends on x only through t, so affinity in t is the
    checkable form of "S is an affine function of x".  The tolerance is
    scale-free: 1e-6 * (1 + max |S|).
    """
    ts = np.array([float(t) for t in t_samples])
    if len(ts) < 2:
        raise DomainError("need at least two t samples")
    values = scalar_curvature_reduced(pot, n, ts)
    design = np.column_stack([np.ones(len(ts)), ts])
    coeffs, *_ = np.linalg.lstsq(design, values, rcond=None)
    residuals = values - design @ coeffs
    max_residual = float(np.max(np.abs(residuals)))
    tolerance = 1e-6 * (1.0 + float(np.max(np.abs(values))))
    return CurvatureReport(
        points=tuple(zip(ts.tolist(), values.tolist())),
        fit_intercept=float(coeffs[0]),
        fit_slope=float(coeffs[1]),
        max_residual=max_residual,
        tolerance=tolerance,
        extremal=max_residual < tolerance,
    )


def legendre_roundtrip(f: RadialKahlerPotential, a: Sequence[float] | np.ndarray) -> LegendreRoundtrip:
    """Map log-coordinate points through the Legendre transform and verify them.

    Three residuals are reported per point: the moment map
    x_i = 2 e^{2 a_i} f'(s) against a finite-difference gradient of
    a -> f(s(a)); the duality identity f(a) + g(x) = sum a_i x_i; and the
    Hessian of f over a against the inverse Hessian of g at the image point.
    The gradient and the Hessian come from one Richardson stencil
    (see :func:`hessian_general`) with step ``1e-4 * (1 + max |a_i|)``.

    ``a`` is one point of shape (n,) or a batch of shape (..., n); see
    :class:`LegendreRoundtrip` for the shapes returned.  Rows are evaluated
    in blocks of at most ``STENCIL_BLOCK`` stencil points, each block with one
    radial jet at s and one on its stencil; a row whose stencil alone is
    larger has its stencil made and evaluated in chunks under the same bound.
    A row where the profile is not admissible, or whose Hessian is
    numerically singular, fails the batch.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 0 or a.size == 0:
        raise DomainError("a must be a nonempty vector or a batch of them")
    n = a.shape[-1]
    batch = a.shape[:-1]
    fields = _in_blocks(lambda rows: _roundtrip_rows(f, rows), 1 + 4 * n * n, a.reshape(-1, n))
    x, s, t, gradient_residual, duality_gap, hessian_residual = (
        v.reshape(batch + v.shape[1:]) for v in fields
    )
    if not batch:
        s, t, gradient_residual, duality_gap, hessian_residual = map(
            float, (s, t, gradient_residual, duality_gap, hessian_residual)
        )
    return LegendreRoundtrip(
        a=a,
        x=x,
        s=s,
        t=t,
        gradient_residual=gradient_residual,
        duality_gap=duality_gap,
        hessian_residual=hessian_residual,
    )


def _roundtrip_rows(f: RadialKahlerPotential, a: np.ndarray) -> tuple[np.ndarray, ...]:
    """:func:`legendre_roundtrip` on the rows of ``a`` (shape (rows, n)): x, s, t and the residuals."""
    n = a.shape[-1]
    e2a = np.exp(2.0 * a)
    s = e2a.sum(axis=-1)

    f0, f1, f2 = radial_derivatives(f, s)
    admissible = (f1 > 0.0) & (f1 + s * f2 > 0.0)
    if not admissible.all():
        bad = a[int(np.argmin(admissible))]
        raise NonAdmissibleError(f"radial profile is not admissible at a = {bad.tolist()}")

    x = 2.0 * e2a * f1[:, None]
    t = x.sum(axis=-1)

    h = 1e-4 * (1.0 + np.max(np.abs(a), axis=-1))
    # The stencil of a wide row exceeds the block bound by itself, so its
    # points are made, summed and evaluated STENCIL_BLOCK at a time.
    points, chunk = 1 + 4 * n * n, max(1, STENCIL_BLOCK // len(a))
    stencil_s = (
        np.exp(2.0 * _stencil_points(a, h, k, min(k + chunk, points))).sum(axis=-1)
        for k in range(0, points, chunk)
    )
    values = np.concatenate([radial_jet(f, s_k, 0).value for s_k in stencil_s], axis=-1)
    grad = (values[:, 1 : 1 + n] - values[:, 1 + n : 1 + 2 * n]) / (2.0 * h[:, None])
    gradient_residual = np.max(np.abs(grad - x), axis=-1)

    dual = _legendre_relations(s, t, f0, f1, f2)
    g_value = 0.5 * (np.sum(x * np.log(x), axis=-1) + dual.F)
    a_dot_x = (a[:, None, :] @ x[:, :, None])[:, 0, 0]  # row by row what np.dot(a, x) gives
    duality_gap = np.abs(f0 + g_value - a_dot_x)

    G_inv = _t_family_inverse(x, dual.F2)
    hess_a = _richardson_combine(values, h)
    _checked_inverse(hess_a)
    hessian_residual = np.max(np.abs(hess_a - G_inv), axis=(-2, -1))
    return x, s, t, gradient_residual, duality_gap, hessian_residual
