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
shape ``(...)``.  Every finite-difference Hessian of a black-box ``g`` goes
through :func:`hessian_general`, which takes one point or a batch and
evaluates ``g`` on whole blocks of stencil points at once; Abreu's inner
level is one such batch.  :func:`legendre_roundtrip` differentiates a radial
profile on the same stencil, but in s = sum e^{2 a_i}, with no point in a.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegeneratePotentialError, DomainError, NonAdmissibleError
from .potentials import (
    _FLOAT_MAX,
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
    "abreu_t_window",
    "extremal_check",
    "legendre_roundtrip",
]

#: Most stencil points per ``g`` call in :func:`hessian_general`; bounds the
#: memory of one batch (Abreu at n = 8 needs 257 x 145 = 37,265 points: 145
#: for each inner Hessian at each of 257 outer points).  Batched
#: :func:`legendre_roundtrip` evaluates its rows in blocks under the same
#: bound (see :func:`_in_blocks`), and ``scalarflat.delta_check`` factors at
#: most ``STENCIL_BLOCK // n^2`` of its n x n G^{-1} at a time; a row whose
#: cost alone is larger is a block of its own.
STENCIL_BLOCK = 8192


def _block_rows(per_row: int) -> int:
    """Rows per block of :func:`_in_blocks`: ``STENCIL_BLOCK // per_row``, one if a single row costs more."""
    return max(1, STENCIL_BLOCK // per_row)


def _in_blocks(fn: Callable, per_row: int, *rows: np.ndarray):
    """``fn`` on consecutive blocks of the row arrays ``rows``, results joined along axis 0.

    A block holds :func:`_block_rows` rows; ``per_row`` is what one row
    costs in stencil points or matrix entries.  ``fn`` takes one block of
    each row array and returns an array or a tuple of arrays with one entry
    per row.
    """
    size = _block_rows(per_row)
    parts = [fn(*(r[k : k + size] for r in rows)) for k in range(0, len(rows[0]), size)]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(p) for p in zip(*parts))
    return np.concatenate(parts)


@dataclass(frozen=True)
class HessianEval:
    """Hessian data of a symplectic potential at one action point or a batch.

    For one point of shape (n,) ``G`` and ``G_inv`` have shape (n, n); for a
    batch (rows, n) both gain a leading axis of length rows.  ``G`` is
    positive definite: a potential whose Hessian is not raises instead.
    """

    G: np.ndarray
    G_inv: np.ndarray


@dataclass(frozen=True)
class CurvatureReport:
    """Scalar curvature samples with an affine fit in t."""

    points: tuple[tuple[float, float], ...]
    fit_intercept: float
    fit_slope: float
    max_residual: float
    extremal: bool


@dataclass(frozen=True)
class LegendreRoundtrip:
    """Residuals of passes complex side -> action side -> back.

    For one point ``x`` has shape (n,) and the other fields are floats; for
    a batch of shape (..., n) ``x`` has that shape and the others (...).
    """

    x: np.ndarray
    s: float | np.ndarray
    t: float | np.ndarray
    gradient_residual: float | np.ndarray
    duality_gap: float | np.ndarray
    hessian_residual: float | np.ndarray


def _t_family_inverse(x: np.ndarray, f2: float | np.ndarray, out=None) -> np.ndarray:
    """Closed form for G^{-1} of the radial family, shape (..., n, n).

    ``x`` has shape (..., n) and ``f2`` the batch shape (...).  The result is
    written to ``out`` if it is given, so that one buffer can serve a run of
    blocks, as in :func:`_stencil_points`.
    """
    t = x.sum(axis=-1)
    f2_m = np.asarray(f2)[..., None, None]
    # Built in place on a diagonal view: at n = 200 each fresh n x n temporary
    # costs more than the arithmetic.
    G_inv = np.multiply(x[..., :, None], x[..., None, :], out=out)
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
    lemma det G = (1 + t F'') / prod(2 x_i) > 0 rules that one out.  An x whose
    t overflows, or at which an entry of G or G^{-1} (or a product x_i x_j
    that G^{-1} is built from) does, raises :class:`DomainError`.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise DomainError("x must be a nonempty vector")
    if np.any(x <= 0.0):
        raise DomainError("x must lie strictly inside the positive orthant")
    with np.errstate(over="ignore"):
        t = float(x.sum())
    f2 = admissible_f2(t, f2_value(pot, t))
    with np.errstate(over="ignore", invalid="ignore"):
        G = np.full((x.size, x.size), 0.5 * f2)
        G[np.diag_indices(x.size)] += 0.5 / x
        G_inv = _t_family_inverse(x, f2)
    if not (np.isfinite(G).all() and np.isfinite(G_inv).all()):
        raise DomainError(f"G or G^-1 overflows at x (x_i from {x.min():g} to {x.max():g})")
    return HessianEval(G=G, G_inv=G_inv)


#: Corner sets of the mixed second differences.  ``FOUR_CORNERS`` are
#: +-e_i +-e_j, whose mixed entry is (g_++ - g_+- - g_-+ + g_--) / (4 s^2);
#: ``TWO_CORNERS`` are +-(e_i + e_j), whose mixed entry is
#: (1/2)[(g_++ - 2 g_0 + g_--) / s^2 - D_ii - D_jj], so a stencil takes
#: 1 + 2 n + 2 n^2 points instead of 1 + 4 n^2.
FOUR_CORNERS = ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))
TWO_CORNERS = ((1.0, 1.0), (-1.0, -1.0))


class _Stencil:
    """The second-difference stencil of one dimension and corner set; :func:`_stencil` makes it once.

    Point 0 is the centre, then come the points at unit step and the same at
    step 1/2, each block ordered +e_i, -e_i (i = 0..n-1), then a e_i + b e_j
    over i < j for each corner (a, b) in turn: 1 + 2 n + 2 n^2 points for
    ``TWO_CORNERS`` and 1 + 4 n^2 for ``FOUR_CORNERS``.  Point k moves
    ``first_step[k]`` along axis ``first[k]`` and ``second_step[k]`` along
    axis ``second[k]``; a step is 0 where the point has no such move.
    ``blocks`` slice one step's values (+e_i, -e_i, then one block per
    corner); ``diag``, ``upper`` and ``lower`` are flat indices into an n x n
    matrix, and ``i``, ``j`` the pairs i < j of the mixed blocks.  Every
    array is read-only.
    """

    def __init__(self, n: int, corners: tuple):
        i, j = np.triu_indices(n, 1)
        axis, counts = np.arange(n), [n, n] + [len(i)] * len(corners)
        first, second = (np.concatenate([axis, axis] + [k] * len(corners)) for k in (i, j))
        first_step = np.repeat([1.0, -1.0] + [a for a, _ in corners], counts)
        second_step = np.repeat([0.0, 0.0] + [b for _, b in corners], counts)
        self.n = n
        self.first, self.second = np.concatenate([[0], first, first]), np.concatenate([[0], second, second])
        self.first_step = np.concatenate([[0.0], first_step, 0.5 * first_step])
        self.second_step = np.concatenate([[0.0], second_step, 0.5 * second_step])
        bounds = np.cumsum([0] + counts).tolist()
        self.blocks = tuple(slice(a, b) for a, b in zip(bounds, bounds[1:]))
        self.diag, self.upper, self.lower, self.i, self.j = axis * (n + 1), i * n + j, j * n + i, i, j
        for array in vars(self).values():
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    @functools.cached_property
    def offsets(self) -> np.ndarray:
        """The points at unit step as a dense table, shape (points, n); made on first use only."""
        k = np.arange(len(self.first))
        offsets = np.zeros((len(k), self.n))
        offsets[k, self.first] = self.first_step
        offsets[k, self.second] += self.second_step
        offsets.flags.writeable = False
        return offsets


_stencil = functools.cache(_Stencil)


def _stencil_points(x: np.ndarray, h: float, *, corners: tuple = TWO_CORNERS, out=None) -> np.ndarray:
    """The points of the second-difference stencil around each centre.

    ``x`` has shape (..., n) and the result (..., points, n): the centre,
    then the points at step h and the same at step h/2, in the order of
    :class:`_Stencil` for ``corners``.  Every point is distinct.  The points
    are written to ``out`` if it is given, so that one buffer can serve a run
    of blocks.
    """
    offsets = _stencil(x.shape[-1], corners).offsets
    if out is None:
        out = np.empty(x.shape[:-1] + offsets.shape)
    # Scaled offsets first, then x added in place: adding the broadcast x
    # into a fresh array is about a third slower at n = 8, for the same bits.
    np.multiply(offsets, h, out=out)
    out += x[..., None, :]
    return out


def _richardson_combine(values: np.ndarray, h: float | np.ndarray, corners: tuple = TWO_CORNERS) -> np.ndarray:
    """Second partials from values on :func:`_stencil_points`: steps h and h/2, one Richardson step.

    ``values`` has the stencil of ``corners`` on its last axis; the result has
    shape (..., n, n), entry [i, j] being d^2/dx_i dx_j.  Entries (i, j) and
    (j, i) are one value, so the result is symmetric in its last two axes.
    The diagonal reads only the centre and +-e_i, so it is the same, bit for
    bit, for either corner set.  ``h`` is one step, or an array of the batch
    shape (...) with a step per centre.
    """
    if isinstance(h, np.ndarray):
        h = h[..., None]
    # One step holds 2 n + c n (n - 1) / 2 values for c corners, so twice that
    # over c is n^2 (c = 4) or n^2 + n (c = 2), and its integer root is n.
    per_step = (values.shape[-1] - 1) // 2
    n = math.isqrt(2 * per_step // len(corners))
    stencil = _stencil(n, corners)
    plus, minus, *mixed = stencil.blocks
    diag, upper, lower, i, j = stencil.diag, stencil.upper, stencil.lower, stencil.i, stencil.j
    center = values[..., :1]

    def at(step_values: np.ndarray, step: float) -> np.ndarray:
        D = np.empty(values.shape[:-1] + (n * n,))
        D_diag = D[..., diag] = (step_values[..., plus] - 2.0 * center + step_values[..., minus]) / step**2
        if len(corners) == 4:
            pp, pm, mp, mm = (step_values[..., block] for block in mixed)
            D[..., upper] = D[..., lower] = (pp - pm - mp + mm) / (4.0 * step**2)
        else:
            pp, mm = (step_values[..., block] for block in mixed)
            D[..., upper] = D[..., lower] = 0.5 * (
                (pp - 2.0 * center + mm) / step**2 - D_diag[..., i] - D_diag[..., j]
            )
        return D.reshape(values.shape[:-1] + (n, n))

    coarse = at(values[..., 1 : 1 + per_step], h)
    fine = at(values[..., 1 + per_step :], h / 2.0)
    return (4.0 * fine - coarse) / 3.0


def _check_hessians(G: np.ndarray) -> None:
    """Raise unless each of the Hessians ``G`` (shape (..., n, n)) is positive definite.

    A Hessian with a non-finite entry, or whose smallest eigenvalue is
    negligible against the largest, raises :class:`DegeneratePotentialError`;
    one with a negative eigenvalue then raises :class:`NonAdmissibleError`,
    for a potential that is not strictly convex there is no metric.  This is
    the decision itself, from ``eigvalsh``; :func:`_checked_inverse` reaches
    the same one without it wherever a cheaper test is conclusive.
    """
    if not np.isfinite(G).all():
        raise DegeneratePotentialError("Hessian has a non-finite entry")
    eigenvalues = np.linalg.eigvalsh(G)
    magnitudes = np.abs(eigenvalues)
    ratio = magnitudes.min(axis=-1) / np.maximum(1.0, magnitudes.max(axis=-1))
    if np.any(ratio < 1e-8):
        raise DegeneratePotentialError(
            f"Hessian is numerically singular (smallest |eig| / max(1, largest |eig|) = {np.min(ratio):.2e})"
        )
    if not (eigenvalues[..., 0] > 0.0).all():
        raise NonAdmissibleError(f"Hessian is not positive definite (smallest eigenvalue = {np.min(eigenvalues):.2e})")


def _checked_inverse(G: np.ndarray) -> np.ndarray:
    """``np.linalg.inv(G)`` of the symmetric Hessians ``G`` (shape (..., n, n)) that :func:`_check_hessians` passes.

    The decision and any exception are :func:`_check_hessians`', but most
    stacks skip its ``eigvalsh``.  Where every entry is finite, a batched
    Cholesky factorization succeeds, and each matrix with its computed
    inverse X has ``bound = 1 / (|X|_F max(1, |G|_F)) >= 4e-8``, X is
    returned.  Every other stack (a non-finite entry, a failed factorization
    or a smaller bound) goes through :func:`_check_hessians`, which raises or
    passes it, and is then inverted.

    Why the certificate is sound: let G be one certified matrix, lambda its
    eigenvalues, M = max |lambda|, and r = min |lambda| / max(1, M) the
    ratio that :func:`_check_hessians` tests against 1e-8.  The constants
    c, d, e below are low-degree polynomials in n, and eps is the unit
    roundoff; the rounding of the norms and of the bound is a relative few
    n eps, which the margins absorb.

    * Magnitudes.  The computed inverse of LU with partial pivoting has
      |X G - I| <= c eps |X| |G| (c includes the pivot growth), and
      |X|_F |G|_F <= 1 / bound <= 2.5e7, so |X G - I| <= 1/2 while
      c < 9e7.  Then G^-1 = (X G)^-1 X gives
      min |lambda| = 1 / |G^-1|_2 >= 1 / (2 |X|_F), and M = |G|_2 <= |G|_F,
      so r >= bound / 2 >= 2e-8.
    * Signs.  A Cholesky factorization that completes in floating point is
      exact for some G + E with |E|_2 <= d eps M, and G + E is positive
      definite, so every lambda > -d eps M.  A negative lambda would need
      r <= d eps, that is d > 9e7; so G is positive definite.
    * What ``eigvalsh`` computes.  Its eigenvalues are exact for some G + F
      with |F|_2 <= e eps M, so each is within e eps M of its lambda
      (Weyl).  The smallest stays positive, and the ratio it forms is at
      least (r - e eps) / (1 + e eps) >= 1e-8 while e < 4e7.

    So :func:`_check_hessians` passes every certified stack, and it is given
    every other one.
    """
    if np.isfinite(G).all():
        try:
            np.linalg.cholesky(G)
            G_inv = np.linalg.inv(G)
        except np.linalg.LinAlgError:
            pass
        else:
            # A norm that overflows makes the bound 0 or NaN, which fails.
            with np.errstate(all="ignore"):
                norms = np.linalg.norm(G_inv, axis=(-2, -1)) * np.maximum(1.0, np.linalg.norm(G, axis=(-2, -1)))
                bound = 1.0 / norms
            if (bound >= 4e-8).all():
                return G_inv
    _check_hessians(G)
    return np.linalg.inv(G)


def _largest_norm(x: np.ndarray) -> float:
    """|x|, or a batch's largest row norm, which default steps scale with; :class:`DomainError` if it overflows."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x) if x.ndim == 1 else np.linalg.norm(x, axis=-1).max())
    if norm == math.inf:
        raise DomainError(f"|x| overflows (largest |x_i| = {np.max(np.abs(x)):g}); no finite-difference step fits it")
    return norm


def hessian_general(
    g: Callable[[np.ndarray], np.ndarray], x: Sequence[float] | np.ndarray, step: float | None = None
) -> HessianEval:
    """Hessian of an arbitrary potential evaluator by central differences, at one point or a batch.

    ``x`` is one point of shape (n,) or a batch of shape (rows, n); see
    :class:`HessianEval` for the shapes returned.  ``g`` maps points of shape
    (..., n) to values of shape (...).  Each Hessian reads the
    1 + 2 n + 2 n^2 points of the two-corner stencil: the centre, +-e_i and
    +-(e_i + e_j) for i < j at steps h and h/2 (see :data:`TWO_CORNERS`).
    The stencils of consecutive points are evaluated together, at most
    ``STENCIL_BLOCK`` points per ``g`` call (one point's stencil if that is
    larger), each block written to one points buffer made once per call, so
    ``g`` must not keep its argument.  One Richardson pass over steps
    (h, h/2) removes the leading h^2 error; the result is symmetric by
    construction, and its diagonal is bit for bit that of the four-corner
    stencil.  ``step`` is one h for every point, by default
    ``max(1e-4, 1e-4 |x|)`` for the largest |x| of the batch (an |x| that
    overflows raises :class:`DomainError`).  A non-finite or numerically
    singular Hessian raises :class:`DegeneratePotentialError`, and one that is
    not positive definite :class:`NonAdmissibleError`: the decision of
    :func:`_check_hessians`, which :func:`_checked_inverse` certifies with a
    Cholesky factorization and the Frobenius norms of G and G^{-1} before it
    falls back to ``eigvalsh``.  G^{-1} is ``np.linalg.inv(G)``.
    Keep ``x`` more than ``2 * step`` away from any boundary of ``g``'s
    domain; the stencil reaches that far.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.size == 0:
        raise DomainError("x must be a nonempty point (n,) or batch of points (rows, n)")
    if step is None:
        step = max(1e-4, 1e-4 * _largest_norm(x))
    n, rows = x.shape[-1], np.atleast_2d(x)
    per_row = 1 + 2 * n + 2 * n**2
    # One buffer for every block: a fresh points array per block would be
    # given back to the OS and faulted in again each time.
    buffer = np.empty((min(len(rows), _block_rows(per_row)), per_row, n))
    G = _in_blocks(
        lambda b: _richardson_combine(np.asarray(g(_stencil_points(b, step, out=buffer[: len(b)]))), step),
        per_row,
        rows,
    ).reshape(x.shape + (n,))
    return HessianEval(G=G, G_inv=_checked_inverse(G))


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
    if isinstance(t, np.ndarray):
        underflow = bool((np.minimum(np.minimum(abs(u), abs(du)), abs(d2u)) < _TINY).any())
    else:
        underflow = min(abs(u), abs(du), abs(d2u)) < _TINY
    if underflow:
        # A jet that is zero in all three inputs is exact, F'' = 0 as for the flat
        # metric, and S = 0: every term is 0 at t = 0, where no product of t overflows.
        flat = (u == 0.0) & (du == 0.0) & (d2u == 0.0)
        t = np.where(flat, 0.0, t) if isinstance(t, np.ndarray) else (0.0 if flat else t)
    D = 1.0 + t * u
    D2 = D * D
    gap = du - u * u
    phi1 = gap / D2
    phi2 = (d2u - 2.0 * u * du) / D2 - 2.0 * gap * (u + t * du) / (D2 * D)
    terms = (n * (n + 1) * (u / D), 2 * (n + 1) * t * phi1, t * (t * phi2))
    if underflow:
        _check_resolved(n, t, (u, du, d2u), D2, terms, flat)
    return terms[0] + terms[1] + terms[2]


def _check_resolved(n: int, t, inputs: tuple, D2, terms: tuple, flat) -> None:
    """Refuse the t at which underflow in u, u' or u'' could change S beyond roundoff.

    An input below the smallest normal float in magnitude, zero included, may
    be off by up to that size, and to first order the three inputs move S by
    n(n+1), 2(n+1) t and t^2 times their error over D^2.  S is refused where
    that slack exceeds eps times the size of its three terms, except where
    ``flat`` marks a jet that is zero in all three inputs, which is exact.  A
    potential whose F'' underflows entirely must refuse on its own, as
    :func:`scalar_flat_family` does.
    """
    t = np.asarray(t)
    low = [np.abs(v) < _TINY for v in inputs]
    tiny_t = _TINY * t
    slack = (_TINY * n * (n + 1) * low[0] + 2 * (n + 1) * tiny_t * low[1] + t * tiny_t * low[2]) / D2
    size = np.abs(terms[0]) + np.abs(terms[1]) + np.abs(terms[2])
    bad = (slack > np.finfo(float).eps * size) & ~flat
    if bad.any():
        where = t[bad].flat[0] if t.ndim else float(t)
        raise DomainError(f"F'' or its first two derivatives underflow at t={where}; S is not resolved there")


def _abreu_steps(x: np.ndarray, step: float | None) -> tuple[float, float]:
    """The outer step (``step`` if given) and the inner Hessian step of :func:`scalar_curvature_abreu`."""
    scale = 1.0 + _largest_norm(x)
    return (0.02 * scale if step is None else step), 1.5e-3 * scale


def abreu_t_window(x: Sequence[float], step: float | None = None) -> tuple[float, float]:
    """The interval of t = sum x_i on which ``scalar_curvature_abreu(g, x, step)`` evaluates ``g``.

    The outer stencil moves t by at most 2 ``step`` (at +-(e_i + e_j)) and an
    inner one by at most 2 h more, h the inner Hessian step.  That reach is
    widened by a relative 1e-6, far above the ~n eps t by which rounding
    moves a point's t (the reach is at least 2 h >= 3e-3 t / sqrt(n)).  The
    interval is the ``t_window`` to give
    :func:`~torickahler.potentials.symplectic_evaluator`.
    """
    x = np.asarray(x, dtype=float)
    step, hessian_step = _abreu_steps(x, step)
    t, reach = float(x.sum()), 2.0 * (step + hessian_step) * (1.0 + 1e-6)
    return t - reach, t + reach


def scalar_curvature_abreu(
    g: Callable[[np.ndarray], np.ndarray],
    x: Sequence[float],
    step: float | None = None,
) -> float:
    """S = -(1/2) sum_ij d^2 G^ij / dx_i dx_j by finite differences.

    ``g`` maps points of shape (..., n) to values of shape (...).  The inverse
    Hessian G^{-1} is taken by one :func:`hessian_general` call on the batch
    of an outer four-corner stencil (1 + 4 n^2 points, see
    :data:`FOUR_CORNERS`) of width ``step`` around ``x``, so ``g`` sees that
    call's blocks and its one reused points buffer; at n = 8 that is
    257 x 145 = 37,265 points.  The outer level keeps four corners because
    the two-corner form there costs about half a digit.  G^{-1} is
    differentiated on the outer stencil with one Richardson extrapolation
    over (step, step/2).  The inner Hessian step, like the default ``step`` a
    multiple of 1 + |x|, is wider than the standalone default: the
    composition is a fourth derivative of g, and a too-small inner step
    leaves rounding noise that the outer stencil amplifies by 1/step^2.  Keep
    ``x`` more than ``4 * step`` inside the domain; :func:`abreu_t_window` is
    the interval of t that ``g`` sees.  A ``g`` whose Hessian is not positive
    definite at a stencil point raises :class:`NonAdmissibleError`.
    """
    x = np.asarray(x, dtype=float)
    step, hessian_step = _abreu_steps(x, step)
    G_inv = hessian_general(g, _stencil_points(x, step, corners=FOUR_CORNERS), hessian_step).G_inv
    # D[k, l, i, j] = d^2 G^kl / dx_i dx_j
    D = _richardson_combine(np.moveaxis(G_inv, 0, -1), step, corners=FOUR_CORNERS)
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
    return CurvatureReport(
        points=tuple(zip(ts.tolist(), values.tolist())),
        fit_intercept=float(coeffs[0]),
        fit_slope=float(coeffs[1]),
        max_residual=max_residual,
        extremal=max_residual < 1e-6 * (1.0 + float(np.max(np.abs(values)))),
    )


def legendre_roundtrip(f: RadialKahlerPotential, a: Sequence[float] | np.ndarray) -> LegendreRoundtrip:
    """Map log-coordinate points through the Legendre transform and verify them.

    Three residuals are reported per point: the moment map
    x_i = 2 e^{2 a_i} f'(s) against a finite-difference gradient of
    a -> f(s(a)); the duality identity f(a) + g(x) = sum a_i x_i; and the
    Hessian of f over a against the inverse Hessian of g at the image point.
    Both derivatives read f on the 1 + 2 n + 2 n^2 points of
    :func:`hessian_general`'s stencil, with step h = ``1e-4 * (1 + max |a_i|)``,
    and never form a point in a: f depends on a only through
    s = sum e^{2 a_i}, and a point that moves a_i by d and a_j by d' has
    s + e^{2 a_i} expm1(2 d) + e^{2 a_j} expm1(2 d').  The Hessian is the
    Richardson step of :func:`hessian_general`; the gradient is
    (4 D(h/2) - D(h)) / 3 from the central differences D at the +-e_i points
    of both steps.

    ``a`` is one point of shape (n,) or a batch of shape (..., n); see
    :class:`LegendreRoundtrip` for the shapes returned.  Rows are evaluated
    in blocks of at most ``STENCIL_BLOCK`` stencil points, each block with one
    radial jet at s and one on its stencil; a row whose stencil alone is
    larger is a block of its own.  A row where the profile is not
    admissible, that is where f' > 0 and f' + s f'' > 0 fail (the
    eigenvalues of the complex-side metric f' I + f'' z z^*), raises
    :class:`NonAdmissibleError` for the batch; a numerically singular
    Hessian raises :class:`DegeneratePotentialError`.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 0 or a.size == 0:
        raise DomainError("a must be a nonempty vector or a batch of them")
    n = a.shape[-1]
    batch = a.shape[:-1]
    fields = _in_blocks(lambda rows: _roundtrip_rows(f, rows), 1 + 2 * n + 2 * n**2, a.reshape(-1, n))
    x, s, t, gradient_residual, duality_gap, hessian_residual = (
        v.reshape(batch + v.shape[1:]) for v in fields
    )
    if not batch:
        s, t, gradient_residual, duality_gap, hessian_residual = map(
            float, (s, t, gradient_residual, duality_gap, hessian_residual)
        )
    return LegendreRoundtrip(
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
    with np.errstate(over="ignore"):
        e2a = np.exp(2.0 * a)
        s = e2a.sum(axis=-1)
    # 2 e^(2 a_i) and the stencil's s, at most 1.2 s, stay finite below a quarter of the float maximum.
    resolved = (e2a >= _TINY).all(axis=-1) & (s <= 0.25 * _FLOAT_MAX)
    if not resolved.all():
        bad = a[int(np.argmin(resolved))]
        raise DomainError(
            f"a = {bad.tolist()} is out of range: each e^(2 a_i) must be a normal float, "
            "and their sum below a quarter of the float maximum"
        )

    f0, f1, f2 = radial_derivatives(f, s)
    admissible = (f1 > 0.0) & (f1 + s * f2 > 0.0)
    if not admissible.all():
        bad = a[int(np.argmin(admissible))]
        raise NonAdmissibleError(f"radial profile is not admissible at a = {bad.tolist()}")

    x = 2.0 * e2a * f1[:, None]
    t = x.sum(axis=-1)

    h = 1e-4 * (1.0 + np.max(np.abs(a), axis=-1))
    stencil = _stencil(n, TWO_CORNERS)
    two_h = 2.0 * h[:, None]
    # f sees a only through s, and a move of a_i by d adds e^{2 a_i} expm1(2 d) to s.
    stencil_s = s[:, None] + e2a[:, stencil.first] * np.expm1(two_h * stencil.first_step)
    stencil_s += e2a[:, stencil.second] * np.expm1(two_h * stencil.second_step)
    values = radial_jet(f, stencil_s, 0).value
    plus, minus = stencil.blocks[:2]
    coarse, fine = values[:, 1 : 1 + n + n * n], values[:, 1 + n + n * n :]
    grad = (
        4.0 * (fine[:, plus] - fine[:, minus]) / h[:, None] - (coarse[:, plus] - coarse[:, minus]) / two_h
    ) / 3.0
    gradient_residual = np.max(np.abs(grad - x), axis=-1)

    dual = _legendre_relations(s, t, f0, f1, f2)
    g_value = 0.5 * (np.sum(x * np.log(x), axis=-1) + dual.F)
    a_dot_x = (a[:, None, :] @ x[:, :, None])[:, 0, 0]  # row by row what np.dot(a, x) gives
    duality_gap = np.abs(f0 + g_value - a_dot_x)

    G_inv = _t_family_inverse(x, dual.F2)
    hess_a = _richardson_combine(values, h)
    _check_hessians(hess_a)
    hessian_residual = np.max(np.abs(hess_a - G_inv), axis=(-2, -1))
    return x, s, t, gradient_residual, duality_gap, hessian_residual
