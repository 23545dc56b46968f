"""Scalar-flat metrics on the blown-up orthant: exact boundary matching.

Setting the reduced scalar curvature to zero leaves the two-parameter family
``F''(t) = (A t + B) / (t (t^n - A t - B))``.  On the blow-up polytope the
determinant of the inverse Hessian must factor through the facet functionals
with a smooth positive cofactor delta; that forces two algebraic conditions on
(A, B):

* ``t^n - A t - B`` must be divisible by ``t - 1`` (the new facet), i.e.
  ``A + B = 1``;
* the simple pole of ``F''`` at ``t = 1`` must have residue 1, so that the
  potential carries the boundary term ``(t-1) ln(t-1)``, i.e. ``n - A = 1``.

Both conditions are linear; solving them exactly over the rationals gives
``A = n - 1`` and ``B = 2 - n``, with quotient polynomial
``Q(t) = t^(n-1) + ... + t - (n - 2)``.  All the polynomial work here is done
with ``fractions.Fraction`` so the divisibility statements are exact, not
approximate.

:func:`reconstruct_F` is the quadrature route to ``F`` itself, one of three:
the closed form ``TPotential.value_fn`` where one is known, the Chebyshev
interpolant of :func:`torickahler.potentials.local_t_potential` for fast
finite differences, and this slow, independent reference that the Chebyshev
route is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np
from scipy import integrate

from .curvature import hessian_t_family
from .errors import AccuracyError, DimensionError, DomainError
from .potentials import TPotential, _check_t, f2_value, scalar_flat_family

__all__ = [
    "BoundaryMatch",
    "solve_boundary_coefficients",
    "boundary_match",
    "burns_simanca_potential",
    "delta_check",
    "DeltaCheckReport",
    "reconstruct_F",
    "boundary_regularity",
]


def _poly_eval(coeffs: Sequence[Fraction], t: Fraction) -> Fraction:
    """Evaluate an ascending-coefficient polynomial by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _divide_by_t_minus_1(coeffs: Sequence[Fraction]) -> tuple[tuple[Fraction, ...], Fraction]:
    """Synthetic division by (t - 1); returns (quotient ascending, remainder)."""
    descending = list(reversed(coeffs))
    quotient = [descending[0]]
    for c in descending[1:-1]:
        quotient.append(c + quotient[-1])
    remainder = descending[-1] + quotient[-1]
    return tuple(reversed(quotient)), remainder


@dataclass(frozen=True)
class BoundaryMatch:
    """Coefficients (A, B), the quotient Q(t) = (t^n - A t - B)/(t - 1), and delta."""

    n: int
    A: Fraction
    B: Fraction
    quotient: tuple[Fraction, ...]
    remainder: Fraction

    def quotient_value(self, t: float) -> float:
        return float(_poly_eval(self.quotient, Fraction(t)))

    def delta(self, t: float) -> float:
        """The cofactor delta(t) = 2^n t^(-n) Q(t) in det G^{-1} = delta * prod l_i.

        For mismatched (A, B) the division leaves a remainder and delta keeps
        the raw form 2^n (t^n - A t - B) / (t^n (t - 1)), singular at t = 1.
        Either form is one exact rational, rounded once, so that neither Q(t)
        nor 2^n overflows on the way to a representable delta.
        """
        t = Fraction(float(t))
        n = self.n
        if self.remainder == 0:
            value = 2**n * _poly_eval(self.quotient, t) / t**n
        elif t == 1:
            return math.inf
        else:
            value = 2**n * (t**n - self.A * t - self.B) / (t**n * (t - 1))
        try:
            return float(value)
        except OverflowError:
            raise DomainError(f"delta({float(t)}) overflows a float at n={n}") from None


def _solve_2x2_exact(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Fraction, Fraction]:
    (m00, m01), (m10, m11) = matrix
    det = m00 * m11 - m01 * m10
    if det == 0:
        raise ValueError("matching conditions are degenerate")
    a = (rhs[0] * m11 - m01 * rhs[1]) / det
    b = (m00 * rhs[1] - rhs[0] * m10) / det
    return a, b


def boundary_match(n: int, a, b) -> BoundaryMatch:
    """Synthetic division data for arbitrary (A, B); remainder recorded, not hidden."""
    if n < 2:
        raise DimensionError("boundary matching needs dimension n >= 2")
    a, b = Fraction(a), Fraction(b)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    coeffs[1] += -a
    coeffs[0] += -b
    quotient, remainder = _divide_by_t_minus_1(coeffs)
    return BoundaryMatch(n=n, A=a, B=b, quotient=quotient, remainder=remainder)


def solve_boundary_coefficients(n: int) -> BoundaryMatch:
    """Impose divisibility by (t - 1) and unit residue; solve exactly for (A, B).

    Divisibility of t^n - A t - B by t - 1 is the vanishing of its value at 1,
    i.e. A + B = 1.  The residue of F'' at the simple pole t = 1 is
    (A + B) / (n - A) once divisibility holds, so unit residue is n - A = 1.
    """
    if n < 2:
        raise DimensionError("boundary matching needs dimension n >= 2")
    a, b = _solve_2x2_exact(
        [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(0)]],
        [Fraction(1), Fraction(n - 1)],
    )
    match = boundary_match(n, a, b)
    if match.remainder != 0:
        raise ArithmeticError("exact division failed; matching conditions are inconsistent")
    return match


def burns_simanca_potential(n: int) -> TPotential:
    """The scalar-flat potential on the blow-up: family member with the matched (A, B).

    Nonsingularity on t > 1 holds because Q(1) = 1 and Q has nonnegative
    derivative coefficients, so Q(t) >= 1 for t >= 1; both are verified here.
    """
    match = solve_boundary_coefficients(n)
    if _poly_eval(list(match.quotient), Fraction(1)) != 1:
        raise ArithmeticError("quotient normalization Q(1) = 1 failed")
    if any(c < 0 for c in match.quotient[1:]):
        raise ArithmeticError("quotient has a negative non-constant coefficient")
    return scalar_flat_family(
        n, float(match.A), float(match.B), label="burns_simanca", domain=(1.0, math.inf)
    )


class DeltaCheckReport(NamedTuple):
    passed: bool
    min_delta: float
    max_det_deviation: float
    witness: float | None


def delta_check(
    match: BoundaryMatch,
    t_samples: Sequence[float],
    *,
    points_per_t: int = 2,
    seed: int = 0,
    tol: float = 1e-10,
) -> DeltaCheckReport:
    """Positivity of delta on [1, inf) plus the determinant factorization.

    delta(t) must be finite and positive at every sample and at t = 1, and at
    interior points of the blow-up polytope the closed-form det G^{-1} of the
    matched family must equal delta(t) * prod_i l_i(x) (the n coordinate facets
    and the t - 1 facet).  The factorization is compared in log space, where
    the difference is the relative error and neither side underflows however
    large n is; ``max_det_deviation`` is the largest such log difference.
    """
    ts = sorted(set(float(t) for t in t_samples) | {1.0})
    if min(ts) < 1.0:
        raise DomainError("delta is checked on [1, inf)")

    deltas = {t: match.delta(t) for t in ts}
    for t, value in deltas.items():
        if not math.isfinite(value) or value <= 0.0:
            return DeltaCheckReport(False, value, math.inf, t)
    min_delta = min(deltas.values())

    pot = scalar_flat_family(match.n, float(match.A), float(match.B))
    rng = np.random.default_rng(seed)
    max_deviation = 0.0
    for t in ts:
        if t < 1.0 + 1e-6:
            continue
        log_cofactor = math.log(deltas[t]) + math.log(t - 1.0)
        for _ in range(points_per_t):
            weights = rng.uniform(0.2, 1.0, match.n)
            x = t * weights / weights.sum()
            sign, log_det = np.linalg.slogdet(hessian_t_family(pot, x).G_inv)
            factored = log_cofactor + float(np.sum(np.log(x)))
            deviation = abs(float(log_det) - factored) if sign > 0 else math.inf
            max_deviation = max(max_deviation, deviation)
            if deviation > tol:
                return DeltaCheckReport(False, min_delta, max_deviation, t)
    return DeltaCheckReport(True, min_delta, max_deviation, None)


def reconstruct_F(pot: TPotential, t: float, anchor: float = 2.0) -> tuple[float, float]:
    """(F(t), F'(t)) by adaptive quadrature of F'', with F(anchor) = F'(anchor) = 0.

    The quadrature reference for F (see the module docstring for the other
    two routes).  The affine ambiguity of F is fixed by the anchor convention;
    anything curvature-like is unaffected by it.
    """
    t, anchor = float(t), float(anchor)
    _check_t(pot, t)
    _check_t(pot, anchor)
    if t == anchor:
        return 0.0, 0.0

    results = []
    for integrand in (lambda tau: f2_value(pot, tau), lambda tau: (t - tau) * f2_value(pot, tau)):
        out = integrate.quad(
            integrand, anchor, t, epsabs=1e-11, epsrel=1e-11, limit=300, full_output=1
        )
        if len(out) > 3:
            raise AccuracyError(f"quadrature of F'' did not converge: {out[3]}")
        value, abserr = out[0], out[1]
        if abserr > 1e-8 * (1.0 + abs(value)):
            raise AccuracyError(f"quadrature error estimate {abserr} too large")
        results.append(value)
    return results[1], results[0]


def boundary_regularity(pot: TPotential, t: float) -> float:
    """The diagnostic r(t) = F''(t) - 1/(t - 1).

    For a potential matched to the blow-up boundary, r extends continuously to
    t = 1; the subtraction removes the simple pole that the boundary term
    (t-1) ln(t-1) contributes.
    """
    t = float(t)
    if t <= 1.0:
        raise DomainError("the boundary diagnostic needs t > 1")
    return f2_value(pot, t) - 1.0 / (t - 1.0)
