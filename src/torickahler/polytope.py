"""Delzant polytope data: facets, affine functionals and the canonical potential.

A polytope is described by its facet inequalities ``l_i(x) = <x, u_i> - lam_i >= 0``
with primitive integer inward normals ``u_i``.  Three standard families are
built in: the positive orthant, the standard simplex, and the orthant with its
corner vertex truncated (the one-point blow-up).

Facet functionals, :func:`facet_values` and :func:`canonical_potential` take
points of shape ``(..., n)``: one point or a whole batch in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, NearBoundaryError

__all__ = [
    "BOUNDARY_CUTOFF",
    "AffineFunctional",
    "DelzantPolytope",
    "build_standard",
    "facet_values",
    "canonical_potential",
]

#: l_i ln l_i stays finite at the boundary but its derivatives do not; keep
#: log-evaluating operations at least this far inside.
BOUNDARY_CUTOFF = 1e-12


@dataclass(frozen=True)
class AffineFunctional:
    """The facet functional x -> <x, normal> - offset, for x of shape (..., n)."""

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
        return np.einsum("...i,i->...", x, np.asarray(self.normal, dtype=float)) - self.offset


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


def facet_values(poly: DelzantPolytope, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """Every facet functional at ``x`` (shape ``(..., n)``), stacked on a last axis.

    All positive means interior.
    """
    return np.stack([facet(x) for facet in poly.facets], axis=-1)


def canonical_potential(poly: DelzantPolytope, x: Sequence[float] | np.ndarray) -> np.ndarray:
    """The convex function (1/2) sum_i l_i(x) ln l_i(x) on the interior.

    ``x`` has shape ``(..., n)`` and the result shape ``(...)``; one point gives
    a float.  Every point must be at least ``BOUNDARY_CUTOFF`` inside.
    """
    total = 0.0
    for facet in poly.facets:
        values = facet(x)
        if np.any(values < BOUNDARY_CUTOFF):
            raise NearBoundaryError(
                f"point within {BOUNDARY_CUTOFF} of the boundary; log terms degenerate"
            )
        total = total + values * np.log(values)
    return 0.5 * total
