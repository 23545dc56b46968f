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
approximate; Q is evaluated by Horner's rule on integers
(:func:`torickahler.potentials._poly_eval`).

:func:`reconstruct_F` is the quadrature route to ``F`` itself, one of three:
the closed form ``TPotential.value_fn`` where one is known, the Chebyshev
interpolant of :func:`torickahler.potentials.local_t_potential` for fast
finite differences, and this independent reference that the Chebyshev
route is checked against: its nodes and its rule differ from the
interpolant's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .curvature import _t_family_inverse
from .errors import AccuracyError, DimensionError, DomainError
from .potentials import (
    TPotential,
    _check_t,
    _integer_form,
    _poly_eval,
    admissible_f2,
    f2_value,
    scalar_flat_family,
)

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

#: Largest relative error of the factorization that :func:`delta_check` accepts.
DELTA_TOL = 1e-10

#: Gauss-Legendre orders that :func:`reconstruct_F` tries in turn.
_QUADRATURE_ORDERS = (32, 64, 128, 256, 512)


def _divide_by_t_minus_1(coeffs: Sequence[Fraction]) -> tuple[tuple[Fraction, ...], Fraction]:
    """Synthetic division by (t - 1); returns (quotient ascending, remainder)."""
    descending = list(reversed(coeffs))
    quotient = [descending[0]]
    for c in descending[1:-1]:
        quotient.append(c + quotient[-1])
    remainder = descending[-1] + quotient[-1]
    return tuple(reversed(quotient)), remainder


def _exact(t: float) -> Fraction:
    """A finite float t as an exact rational; NaN and infinities raise :class:`DomainError`."""
    t = float(t)
    if not math.isfinite(t):
        raise DomainError(f"t={t} must be finite")
    return Fraction(t)


def _rounded(value: Fraction, what: str, n: int) -> float:
    """An exact rational rounded to a float; one beyond float range raises :class:`DomainError`."""
    try:
        return float(value)
    except OverflowError:
        raise DomainError(f"{what} overflows a float at n={n}") from None


@dataclass(frozen=True)
class BoundaryMatch:
    """Coefficients (A, B), the quotient Q(t) = (t^n - A t - B)/(t - 1), and delta."""

    n: int
    A: Fraction
    B: Fraction
    quotient: tuple[Fraction, ...]
    remainder: Fraction

    @cached_property
    def _quotient_form(self) -> tuple[tuple[int, ...], int]:
        """The quotient's integer numerators over their common denominator, made once per match."""
        return _integer_form(self.quotient)

    def quotient_value(self, t: float) -> float:
        return _rounded(_poly_eval(self._quotient_form, _exact(t)), f"Q({float(t)})", self.n)

    def delta(self, t: float) -> float:
        """The cofactor delta(t) = 2^n t^(-n) Q(t) in det G^{-1} = delta * prod l_i.

        For mismatched (A, B) the division leaves a remainder and delta keeps
        the raw form 2^n (t^n - A t - B) / (t^n (t - 1)), singular at t = 1.
        Either form is one exact rational, rounded once, so that neither Q(t)
        nor 2^n overflows on the way to a representable delta.
        """
        t = _exact(t)
        n = self.n
        if self.remainder == 0:
            value = 2**n * _poly_eval(self._quotient_form, t) / t**n
        elif t == 1:
            return math.inf
        else:
            value = 2**n * (t**n - self.A * t - self.B) / (t**n * (t - 1))
        return _rounded(value, f"delta({float(t)})", n)


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
    The system is triangular: A = n - 1 from the residue, then B = 1 - A.
    """
    if n < 2:
        raise DimensionError("boundary matching needs dimension n >= 2")
    a = Fraction(n - 1)
    match = boundary_match(n, a, 1 - a)
    if match.remainder != 0:
        raise ArithmeticError("exact division failed; matching conditions are inconsistent")
    return match


def burns_simanca_potential(n: int) -> TPotential:
    """The scalar-flat potential on the blow-up: family member with the matched (A, B).

    Nonsingularity on t > 1 holds because Q(1) = 1 and Q has nonnegative
    derivative coefficients, so Q(t) >= 1 for t >= 1; both are verified here.
    """
    match = solve_boundary_coefficients(n)
    if _poly_eval(match._quotient_form, 1) != 1:
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


def delta_check(match: BoundaryMatch, t_samples: Sequence[float], *, seed: int = 0) -> DeltaCheckReport:
    """Positivity of delta on [1, inf) plus the determinant factorization.

    delta(t) must be finite and positive at every sample and at t = 1, and at
    interior points of the blow-up polytope the closed-form det G^{-1} of the
    matched family must equal delta(t) * prod_i l_i(x) (the n coordinate facets
    and the t - 1 facet).  The factorization is compared in log space, where
    the difference is the relative error and neither side underflows however
    large n is; ``max_det_deviation`` is the largest such log difference, and
    the check fails once one exceeds ``DELTA_TOL``.  Two seeded random points
    are drawn at each sampled t > 1; their G^{-1} form one stack, so one
    batched F'' and one ``slogdet`` call serve every point.  The report names
    the first point in sample order whose deviation fails.
    """
    ts = sorted(set(float(t) for t in t_samples) | {1.0})
    if min(ts) < 1.0:
        raise DomainError("delta is checked on [1, inf)")

    deltas = {t: match.delta(t) for t in ts}
    for t, value in deltas.items():
        if not math.isfinite(value) or value <= 0.0:
            return DeltaCheckReport(False, value, math.inf, t)
    min_delta = min(deltas.values())

    # Every sample reaching the Hessian has t > 1 and delta(t) > 0, hence
    # t^n - A t - B > 0; so the domain is the checked interval [1, inf), not the
    # largest root of t^n - A t - B, whose exact bisection costs about 11 ms at n = 200.
    pot = scalar_flat_family(match.n, float(match.A), float(match.B), domain=(1.0, math.inf))
    sampled = [t for t in ts if t >= 1.0 + 1e-6]
    row_t = np.repeat(sampled, 2)
    weights = np.random.default_rng(seed).uniform(0.2, 1.0, (row_t.size, match.n))
    x = row_t[:, None] * weights / weights.sum(axis=-1)[:, None]
    log_cofactor = np.repeat([math.log(deltas[t]) + math.log(t - 1.0) for t in sampled], 2)
    deviations = np.zeros(0)
    if row_t.size:
        t_of_x = x.sum(axis=-1)
        sign, log_det = np.linalg.slogdet(_t_family_inverse(x, admissible_f2(t_of_x, f2_value(pot, t_of_x))))
        factored = log_cofactor + np.log(x).sum(axis=-1)
        deviations = np.where(sign > 0, np.abs(log_det - factored), math.inf)
    failing = np.flatnonzero(deviations > DELTA_TOL)
    if failing.size:
        k = int(failing[0])
        return DeltaCheckReport(False, min_delta, float(deviations[: k + 1].max()), float(row_t[k]))
    return DeltaCheckReport(True, min_delta, float(deviations.max(initial=0.0)), None)


@cache
def _gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the ``order``-point Gauss-Legendre rule on [-1, 1], made on first use.

    ``order`` is even.  Newton's method on P_order, evaluated by the
    three-term recurrence, refines the guesses cos(pi (k - 1/4)/(order + 1/2))
    to roundoff within five steps for every order up to 512; the weights are
    2 / ((1 - x^2) P'(x)^2) with 1 - x^2 formed as (1 - x)(1 + x).  Against
    an mpmath reference their relative error stays near 2e-12 or below at 512
    nodes, where numpy's ``leggauss`` weights are off by about 1e-10 (2e-11 at
    256 nodes); near a pole of F'' that error showed in F at 1e-12.
    """
    x = np.cos(np.pi * (np.arange(1, order // 2 + 1) - 0.25) / (order + 0.5))
    for _ in range(5):
        p_prev, p = np.ones_like(x), x
        for j in range(2, order + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        slope = order * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))
        x = x - p / slope
    weights = 2.0 / ((1.0 - x) * (1.0 + x) * slope**2)
    nodes, weights = np.concatenate([-x, x[::-1]]), np.concatenate([weights, weights[::-1]])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def reconstruct_F(pot: TPotential, t: float, anchor: float = 2.0) -> tuple[float, float]:
    """(F(t), F'(t)) by Gauss-Legendre quadrature of F'', with F(anchor) = F'(anchor) = 0.

    The quadrature reference for F (see the module docstring for the other
    two routes).  The affine ambiguity of F is fixed by the anchor convention;
    anything curvature-like is unaffected by it.  F'(t) is the integral of
    F'' from the anchor to t and F(t) that of (t - tau) F''(tau); both come
    from one batched F'' evaluation per rule.  Rules of 32, 64, ..., 512
    nodes are tried in turn, and the first pair of consecutive rules that
    agree on both integrals to 1e-11 (1 + |value|) gives the finer rule's
    values; if no pair does, :class:`AccuracyError` is raised.
    """
    t, anchor = float(t), float(anchor)
    _check_t(pot, t)
    _check_t(pot, anchor)
    if t == anchor:
        return 0.0, 0.0

    mid, half = 0.5 * (anchor + t), 0.5 * (t - anchor)
    previous = None
    for order in _QUADRATURE_ORDERS:
        nodes, weights = _gauss_legendre(order)
        tau = mid + half * nodes
        f2 = f2_value(pot, tau)
        current = half * float(weights @ ((t - tau) * f2)), half * float(weights @ f2)
        agree = previous is not None and all(
            abs(c - p) <= 1e-11 * (1.0 + abs(c)) for c, p in zip(current, previous)
        )
        if agree:
            return current
        previous = current
    raise AccuracyError(
        f"quadrature of F'' from {anchor} to {t} not converged with {order} Gauss-Legendre nodes"
    )


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
