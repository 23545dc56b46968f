"""Delzant polytope data: facets, affine functionals and the canonical potential.

A polytope is described by its facet inequalities ``l_i(x) = <x, u_i> - lam_i >= 0``
with primitive integer inward normals ``u_i``.  Three standard families are
built in: the positive orthant, the standard simplex, and the orthant with its
corner vertex truncated (the one-point blow-up).

Facet functionals and :func:`canonical_potential` take points of shape
``(..., n)``: one point or a whole batch in one call.  Every sum over
coordinates or facets runs left to right, one column of the batch at a time
(see :func:`row_sum`), so a point gives the same bits alone as inside a
batch.  A point is interior where every facet functional is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError, NearBoundaryError

__all__ = [
    "BOUNDARY_CUTOFF",
    "AffineFunctional",
    "DelzantPolytope",
    "build_standard",
    "canonical_potential",
    "row_sum",
]

#: l_i ln l_i stays finite at the boundary but its derivatives do not; keep
#: log-evaluating operations at least this far inside.
BOUNDARY_CUTOFF = 1e-12


def row_sum(x: np.ndarray) -> np.ndarray | float:
    """The sum of ``x`` (shape ``(..., n)``) over its last axis, left to right.

    One column is added at a time, so a row alone gets the bits it gets inside
    a batch; for rows shorter than 8, these are the bits of
    ``x.sum(axis=-1)``, which adds such rows in order too.  On a batch of
    short rows it is several times faster than numpy's reduction.  A single
    row gives a float.
    """
    total = x[..., 0].copy()
    for k in range(1, x.shape[-1]):
        total += x[..., k]
    return total[()]


@dataclass(frozen=True)
class AffineFunctional:
    """The facet functional x -> <x, normal> - offset, for x of shape (..., n).

    ``<x, normal>`` adds ``u_i x_i`` over the nonzero entries of the normal,
    left to right; an entry 1 adds the column itself, so the facet ``x_i >= 0``
    gives ``x_i`` exactly.
    """

    normal: tuple[int, ...]
    offset: float

    def __post_init__(self) -> None:
        normal = tuple(int(u) for u in self.normal)
        if not normal or all(u == 0 for u in normal):
            raise ValueError("facet normal must be a nonzero integer vector")
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))

    def __call__(self, x: Sequence[float] | np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (len(self.normal),):
            raise DimensionError(
                f"point has shape {x.shape}, facet normal has length {len(self.normal)}"
            )
        total = None
        for i, u in enumerate(self.normal):
            if u:
                term = x[..., i] if u == 1 else u * x[..., i]
                total = term if total is None else total + term
        return total - self.offset


@dataclass(frozen=True)
class DelzantPolytope:
    dim: int
    facets: tuple[AffineFunctional, ...]
    label: str = "custom"

    def __post_init__(self) -> None:
        object.__setattr__(self, "facets", tuple(self.facets))
        for facet in self.facets:
            if len(facet.normal) != self.dim:
                raise DimensionError("facet normal length does not match polytope dimension")


def build_standard(kind: str, n: int) -> DelzantPolytope:
    """Build one of the standard polytopes in dimension ``n``.

    ``orthant``: the n facets x_i >= 0.
    ``simplex``: x_i >= 0 together with 1 - sum(x) >= 0.
    ``blowup``: x_i >= 0 together with sum(x) - 1 >= 0, the orthant with the
    corner vertex cut off.
    """
    if n < 1:
        raise DimensionError("polytope dimension must be at least 1")

    def axis(i: int) -> AffineFunctional:
        normal = tuple(1 if j == i else 0 for j in range(n))
        return AffineFunctional(normal, 0.0)

    axes = tuple(axis(i) for i in range(n))
    if kind == "orthant":
        facets = axes
    elif kind == "simplex":
        facets = axes + (AffineFunctional((-1,) * n, -1.0),)
    elif kind == "blowup":
        facets = axes + (AffineFunctional((1,) * n, 1.0),)
    else:
        raise ValueError(f"unknown polytope kind {kind!r}")
    return DelzantPolytope(n, facets, label=kind)


def canonical_potential(poly: DelzantPolytope, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """The convex function (1/2) sum_i l_i(x) ln l_i(x) on the interior.

    ``x`` has shape ``(..., n)`` and the result shape ``(...)``; one point gives
    a float.  Every point must be at least ``BOUNDARY_CUTOFF`` inside and every
    facet value finite, or :class:`NearBoundaryError` is raised; an empty batch
    raises :class:`DomainError`.  The terms are added facet by facet, left to
    right in the order of ``poly.facets``, as :func:`row_sum` adds columns.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise DomainError("a batch of points must not be empty")
    # One facet at a time: the terms of a whole stencil block stacked side by
    # side would hold several times the memory for no gain in speed.
    total = None
    for facet in poly.facets:
        values = facet(x)  # a fresh array, never a view of x
        # min and max are NaN if any value is, which fails both comparisons.
        if not (values.min() >= BOUNDARY_CUTOFF and values.max() < math.inf):
            raise NearBoundaryError(
                f"a facet value is within {BOUNDARY_CUTOFF} of the boundary or not finite; "
                "log terms degenerate"
            )
        values *= np.log(values)
        if total is None:
            total = values
        else:
            total += values
    return 0.5 * total
