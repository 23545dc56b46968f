"""Potential catalog and the bridge between complex and action coordinates.

Two kinds of objects live here.  A :class:`RadialKahlerPotential` is a radial
profile ``f(s)`` on complex space, ``s`` the squared radius; it determines a
U(n)-invariant metric whenever ``f' > 0`` and ``f'' > -f'/s``.  A
:class:`TPotential` is the radial part ``F(t)`` of a symplectic potential
``g(x) = (1/2)(sum x_i ln x_i + F(t))`` with ``t = sum x_i``; it determines a
metric whenever ``F''(t) > -1/t``.  The two pictures are exchanged by a
Legendre transform, implemented in :func:`kahler_to_t_potential` by inverting
the monotone map ``gamma(s) = 2 s f'(s)``.

T-potentials are handled through jets of ``F''`` rather than values of ``F``:
every curvature quantity depends on ``F`` only through its second derivative,
and the interesting scalar-flat family is closed-form only at that level.
Jet evaluators take one t (a float) or a batch (an ndarray) and return a
scalar or a batched :class:`~torickahler.jets.TaylorJet`; the catalog's are
built from jet arithmetic, which serves both alike.
Values of ``F`` itself, needed only to assemble ``g`` for finite differences,
have three routes, each with its own role:

* the closed form ``TPotential.value_fn``, where the catalog knows one;
* :func:`local_t_potential`, a Chebyshev interpolant of ``F''`` integrated
  twice, the fast route for finite-difference work without a closed form;
* :func:`torickahler.scalarflat.reconstruct_F`, Gauss-Legendre quadrature
  of ``F''``, the reference that the Chebyshev route is checked against.

:func:`symplectic_evaluator` assembles ``g`` from the first two.

Every potential evaluator here takes points of shape ``(..., n)`` and returns
values of shape ``(...)``, so a whole finite-difference stencil is one call; a
single point gives a float.  The same holds for F routes in t: ``value_fn``
and :func:`local_t_potential` map t of any shape elementwise.  Their domain
checks apply to every point of a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import (
    AccuracyError,
    BracketRangeError,
    DimensionError,
    DomainError,
    NearBoundaryError,
    NonAdmissibleError,
)
from .jets import TaylorJet, _any, _elementwise, _same_base, constant, jet_pow, ln_jet, variable
from .polytope import BOUNDARY_CUTOFF, row_sum

__all__ = [
    "RadialKahlerPotential",
    "TPotential",
    "AdmissibilityReport",
    "TDual",
    "flat_radial",
    "fubini_study_radial",
    "radial_jet",
    "radial_derivatives",
    "flat_potential",
    "fubini_study_potential",
    "generalized_burns_potential",
    "scalar_flat_family",
    "custom_potential",
    "f2_jet",
    "f2_value",
    "admissible_f2",
    "admissibility",
    "kahler_to_t_potential",
    "local_t_potential",
    "symplectic_evaluator",
]

#: Required clearance between an evaluation point and the domain endpoints.
DOMAIN_MARGIN = 1e-10

#: Most Newton-bisection iterates :func:`kahler_to_t_potential` spends on one
#: root.  Bisection alone narrows a bracket of 2^200 t to one ulp within about
#: 260 of them.
_INVERSION_CAP = 400

#: The smallest normal float; below it a value has lost bits to underflow.
_TINY = float(np.finfo(float).tiny)

#: The largest float, where the family's search for its domain start stops.
_FLOAT_MAX = float(np.finfo(float).max)

#: Past 2^_POW_CAP, _scaled_pow rescales a power of t; two such factors times a
#: binomial of up to 2^120 (order <= 6, n < 2^20) stay below the float maximum.
_POW_CAP = 400


# ---------------------------------------------------------------------------
# Radial profiles f(s)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialKahlerPotential:
    """Radial profile ``f(s)`` supplied as a jet evaluator of one s or a batch."""

    label: str
    jet_fn: Callable[[float | np.ndarray, int], TaylorJet] = field(repr=False)


def _as_points(t) -> float | np.ndarray:
    """One evaluation point as a float, a batch of them as a nonempty float ndarray."""
    if type(t) is float:
        return t
    t = np.asarray(t, dtype=float)
    if t.ndim == 0:
        return float(t)
    if t.size == 0:
        raise DomainError("a batch of evaluation points must not be empty")
    return t


def _smallest(t: float | np.ndarray) -> float:
    """The point itself, or the smallest point of a batch (NaN if any is NaN)."""
    return float(t.min()) if isinstance(t, np.ndarray) else t


def radial_jet(f: RadialKahlerPotential, s: float | np.ndarray, order: int) -> TaylorJet:
    """Jet of f at ``s``; an array of s gives one batched jet."""
    s = _as_points(s)
    if not _smallest(s) > 0.0:
        raise DomainError("radial profiles are defined for s > 0")
    return f.jet_fn(s, order)


def radial_derivatives(
    f: RadialKahlerPotential, s: float | np.ndarray
) -> tuple[float | np.ndarray, float | np.ndarray, float | np.ndarray]:
    """(f(s), f'(s), f''(s)) read off a second-order radial jet; an array of s is one batched jet."""
    c = radial_jet(f, s, 2).coefficients
    return c[0], c[1], 2.0 * c[2]


def flat_radial() -> RadialKahlerPotential:
    """f(s) = s/2, the euclidean metric."""

    def jfn(s: float, order: int) -> TaylorJet:
        return 0.5 * variable(s, order)

    return RadialKahlerPotential("flat", jfn)


def fubini_study_radial() -> RadialKahlerPotential:
    """f(s) = (1/2) ln(1 + s)."""

    def jfn(s: float, order: int) -> TaylorJet:
        return 0.5 * ln_jet(1.0 + variable(s, order))

    return RadialKahlerPotential("fubini_study", jfn)


# ---------------------------------------------------------------------------
# t-potentials F(t)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TPotential:
    """Radial part of a symplectic potential, described through jets of F''.

    It is built directly (``custom_potential`` is another name for this
    class), or by :func:`scalar_flat_family`, which works out its own domain.

    ``jet_fn(t, order)`` takes a float or an ndarray of t and returns the jet
    of F'' about it, batched for an array.

    ``value_fn``, when present, is a closed form for ``F`` itself, applied
    elementwise to a float or an array of t.  Without it ``F`` values come from
    integrating ``F''`` in an arbitrary affine gauge, which is invisible to
    Hessians and curvature.
    """

    jet_fn: Callable[[float | np.ndarray, int], TaylorJet] = field(repr=False)
    domain: tuple[float, float]
    label: str = "custom"
    value_fn: Callable[[np.ndarray], np.ndarray] | None = field(default=None, repr=False)


custom_potential = TPotential


def flat_potential() -> TPotential:
    """F'' = 0 on (0, inf); the euclidean metric in action coordinates."""
    return TPotential(lambda t, order: constant(0.0, t, order), (0.0, math.inf), "flat", value_fn=lambda t: -t)


def fubini_study_potential() -> TPotential:
    """F''(t) = 1/(1-t) on (0, 1), i.e. F(t) = (1-t) ln(1-t)."""

    def jfn(t: float, order: int) -> TaylorJet:
        return 1.0 / (1.0 - variable(t, order))

    return TPotential(jfn, (0.0, 1.0), "fubini_study", value_fn=lambda t: (1.0 - t) * np.log1p(-t))


def generalized_burns_potential() -> TPotential:
    """F''(t) = 1/(t(t-1)) on (1, inf), the scalar-flat family at n = 1, a = 0, b = 1.

    This is the restriction of the ambient product metric to the blow-up; F has a closed form.
    """
    return replace(
        scalar_flat_family(1, 0.0, 1.0, label="generalized_burns"),
        value_fn=lambda t: (t - 1.0) * np.log(t - 1.0) - t * np.log(t) - t + 1.0,
    )


def _integer_form(coeffs: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Integer numerators m_k and their common denominator D, with c_k = m_k / D."""
    D = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (D // c.denominator) for c in coeffs), D


def _poly_eval(form: tuple[tuple[int, ...], int], t: float | Fraction) -> Fraction:
    """Exact value at t of the ascending polynomial sum_k m_k t^k / D, ``form = (m, D)``.

    With t = p/q in lowest terms (a float is a dyadic rational), the value is
    sum_k m_k p^k q^(d-k) / (q^d D); Horner's rule forms that numerator on
    Python ints, and one Fraction is made at the end.
    """
    numerators, D = form
    p, q = Fraction(t).as_integer_ratio()
    acc, q_power = 0, 1
    for m in reversed(numerators):
        acc = acc * p + m * q_power
        q_power *= q
    return Fraction(acc, q_power // q * D)


def _family_domain_start(n: int, a: float, b: float) -> float:
    """Largest nonnegative real root of gap(t) = t^n - a t - b, or 0.0; the family lives to its right.

    The result is the largest float at or below the root.  For n = 1 the
    root b / (1 - a) is rounded once, to at most the float maximum, and
    stepped one ulp toward 0 if above.
    For n >= 2 with a + b = 1 (t - 1 divides the gap) and a <= n it is 1.0:
    gap(1) = 0, gap'(1) = n - a >= 0 and gap' rises on t > 0.  Otherwise
    gap'' = n (n-1) t^(n-2) > 0 on t > 0, so gap falls until
    t* = (a/n)^(1/(n-1)) (until 0 if a <= 0) and rises after it.  A root on
    t > 0 exists unless a <= 0 <= -b, or gap(t*) = -a t* (n-1)/n - b > 0, that
    is a^n (n-1)^(n-1) < n^n (-b)^(n-1); both are decided exactly.  Past the
    largest root, and only there, gap > 0 and gap' > 0; bisection on floats
    finds where that starts, in a bracket doubled from [0, 1] up to at most
    the float maximum (a root above it raises :class:`DomainError`).  Each
    sign is read off the float value where its rounding error, under
    4 n eps times the size of its terms, cannot flip it, and from
    :func:`_poly_eval` otherwise, so a double root (a tangent gap) is found
    like a simple one.
    """
    if n == 1:
        # gap = (1 - a) t - b rises through its root for a < 1, is -b for a = 1, and falls for a > 1.
        if a < 1.0:
            root = max(Fraction(0), Fraction(b) / (1 - Fraction(a)))
            start = float(min(root, Fraction(_FLOAT_MAX)))
            return math.nextafter(start, 0.0) if start > root else start
        if a == 1.0 and b < 0.0:
            return 0.0
        raise DomainError(f"t - ({a} t + {b}) is positive on no interval (t0, inf)")
    A, B = Fraction(a), Fraction(b)
    if A + B == 1 and A <= n:
        return 1.0
    if (A <= 0 and B <= 0) or (A > 0 and B < 0 and A**n * (n - 1) ** (n - 1) < n**n * (-B) ** (n - 1)):
        return 0.0
    zeros = [Fraction(0)] * (n - 2)
    gap = _integer_form([-B, -A, *zeros, Fraction(1)])
    slope = _integer_form([-A, *zeros, Fraction(n)])
    bound = 4.0 * n * np.finfo(float).eps

    def positive(form, value: float, size: float, t: float) -> bool:
        return value > 0.0 if abs(value) > bound * size else _poly_eval(form, t) > 0

    def past_root(t: float) -> bool:
        try:
            power = t ** (n - 1)
        except OverflowError:
            power = math.inf  # leaves both signs to the exact evaluation
        return positive(gap, power * t - a * t - b, power * t + abs(a * t) + abs(b), t) and positive(
            slope, n * power - a, n * power + abs(a), t
        )

    lo, hi = 0.0, 1.0
    while not past_root(hi):
        if hi == _FLOAT_MAX:
            raise DomainError(f"the largest root of t^{n} - ({a} t + {b}) lies above the largest float")
        lo, hi = hi, min(2.0 * hi, _FLOAT_MAX)
    while True:
        mid = 0.5 * (lo + hi)
        if mid == math.inf:  # lo + hi overflowed; hi - lo is exact, as lo >= hi / 2
            mid = lo + 0.5 * (hi - lo)
        if mid in (lo, hi):
            return lo
        if past_root(mid):
            hi = mid
        else:
            lo = mid


def _ldexp(jet: TaylorJet, e: int | np.ndarray) -> TaylorJet:
    """The jet times 2^e (an int, or an int array for a batch), exact while coefficients stay normal."""
    if isinstance(jet.base, np.ndarray):
        return TaylorJet(jet.base, tuple(np.ldexp(c, e) for c in jet.coefficients))
    return TaylorJet(jet.base, tuple(math.ldexp(c, int(e)) for c in jet.coefficients))


def _scaled_pow(tj: TaylorJet, n: int) -> tuple[TaylorJet, int | np.ndarray]:
    """``(p, e)`` with ``t^n = p 2^e`` for the jet ``tj`` of t and n >= 1.

    This is :func:`jet_pow`'s repeated squaring, except that every factor and
    product whose value passes 2^_POW_CAP, or is scaled already, is brought
    into [1/2, 1) by a power of two.  That is exact, so ``p`` has the bits of
    ``jet_pow(tj, n) 2^-e`` wherever those are finite, no partial power's
    value leaves the float range at any n and t, and t p is finite at every t.
    Where t^n is at most 2^_POW_CAP the loop is skipped: ``(jet_pow(tj, n), 0)``.
    """
    t = tj.base
    if (float(t.max()) if isinstance(t, np.ndarray) else t) <= 2.0 ** (_POW_CAP / n):
        return jet_pow(tj, n), 0

    def rescale(jet: TaylorJet, e) -> tuple[TaylorJet, int | np.ndarray]:
        v = jet.value
        where = (v > 2.0**_POW_CAP) | (e != 0)
        if isinstance(v, np.ndarray):
            shift = np.where(where, np.frexp(v)[1], 0)
        else:
            shift = math.frexp(v)[1] * where
        return (_ldexp(jet, -shift), e + shift) if _any(shift) else (jet, e)

    (square, e_square), result = rescale(tj, 0), None
    while True:
        if n & 1:
            result, e = (square, e_square) if result is None else rescale(result * square, e + e_square)
        n >>= 1
        if not n:
            return result, e
        square, e_square = rescale(square * square, 2 * e_square)


def scalar_flat_family(n: int, a: float, b: float, label: str = "scalar_flat_family") -> TPotential:
    """The two-parameter family F''(t) = (a t + b) / (t (t^n - a t - b)).

    Every member is scalar-flat in dimension ``n`` wherever it is admissible,
    i.e. wherever ``t^n - a t - b > 0``.  The domain is always the interval
    right of the gap's largest root, worked out by :func:`_family_domain_start`;
    a member with none (n = 1 with a > 1, or a = 1 and b >= 0), a root above
    the float maximum, or a non-finite a or b raises :class:`DomainError`.

    The jet is ``numer / (t (t^n - numer))``, ``numer = a t + b`` or the number
    b where a = 0, at every t.  Where t^n passes 2^400, ``t^n`` and ``numer``
    are divided by one power of two (:func:`_scaled_pow`): the quotient keeps
    the unscaled formula's bits wherever those are finite, nothing overflows,
    and the scaled ``numer`` is at least t F''/2.  Where F'' is subnormal its
    value is returned, but a jet of order one or more raises :class:`DomainError`
    unless a t + b = 0 (or t^n <= 2^400, where that needs |a t + b| < 2^-221).
    """
    if n < 1:
        raise DimensionError("the family needs dimension n >= 1")
    a = float(a)
    b = float(b)
    for name, value in (("a", a), ("b", b)):
        if not math.isfinite(value):
            raise DomainError(f"the family's {name}={value} must be finite")
    domain = (_family_domain_start(n, a, b), math.inf)

    def jfn(t: float | np.ndarray, order: int) -> TaylorJet:
        tj = variable(t, order)
        power, e = _scaled_pow(tj, n)
        if _any(e):  # a t + b at 2^-k, rounded once at 2^-e; k > 0 only where (|a| + |b|) t could pass 2^1000
            k = np.maximum(np.frexp(t)[1] + math.frexp(abs(a) + abs(b))[1] - 1000, 0)
            linear = a * _ldexp(tj, -k) + np.ldexp(b, -k)
            numer = _ldexp(linear, k - e)
        else:
            numer = a * tj + b if a else b
        gap = power - numer
        if not _smallest(gap.value) > 0.0:
            bad = t[np.argmin(gap.value)] if isinstance(t, np.ndarray) else t
            raise DomainError(f"t^{n} - ({a} t + {b}) must be positive; t={bad} is outside")
        f2 = numer / (tj * gap)
        if order and _any(e):
            lost = (abs(f2.value) < _TINY) & (linear.value != 0.0)
            if _any(lost):
                bad = t[lost][0] if isinstance(t, np.ndarray) else t
                raise DomainError(f"F'' underflows at t={bad}; its derivatives are not representable")
        return f2

    return TPotential(jfn, domain, label)


# ---------------------------------------------------------------------------
# Operations on t-potentials
# ---------------------------------------------------------------------------


def _check_t(pot: TPotential, t: float | np.ndarray) -> None:
    """Raise :class:`DomainError` unless every t is finite and DOMAIN_MARGIN inside the domain.

    ``t`` is a float or an array; an array passes exactly when its smallest and
    largest entries do (a NaN anywhere makes both NaN, which fails).
    """
    lo, hi = pot.domain
    for v in (float(t.min()), float(t.max())) if isinstance(t, np.ndarray) else (float(t),):
        inside = v - lo >= DOMAIN_MARGIN and (math.isinf(hi) or hi - v >= DOMAIN_MARGIN)
        if not (inside and math.isfinite(v)):
            raise DomainError(
                f"t={v} is outside the domain ({lo}, {hi}) of potential {pot.label!r} "
                f"(margin {DOMAIN_MARGIN})"
            )


def f2_jet(pot: TPotential, t: float | np.ndarray, order: int) -> TaylorJet:
    """Jet of F'' at ``t`` to the requested order; an array of t gives one batched jet."""
    t = _as_points(t)
    _check_t(pot, t)
    jet = pot.jet_fn(t, order)
    if jet.order != order or not _same_base(jet.base, t):
        raise DomainError(f"potential {pot.label!r} returned a malformed jet")
    return jet


def f2_value(pot: TPotential, t: float | np.ndarray) -> float | np.ndarray:
    """F''(t) at one t or, elementwise, at an array of t."""
    return f2_jet(pot, t, 0).value


def admissible_f2(t: float | np.ndarray, f2: float | np.ndarray) -> float | np.ndarray:
    """Return ``f2 = F''(t)`` after checking 1 + t F'' > 0, the admissibility of the metric.

    For arrays the check applies to every entry; the first failing t is named.
    """
    normalization = 1.0 + t * f2
    if not _smallest(normalization) > 0.0:
        if isinstance(normalization, np.ndarray):
            k = int(np.argmax(~(normalization > 0.0)))
            t, normalization = t[k], normalization[k]
        raise NonAdmissibleError(
            f"1 + t F'' = {normalization} <= 0 at t={t}; the inverse Hessian degenerates"
        )
    return f2


class AdmissibilityReport(NamedTuple):
    passed: bool
    witness: float | None
    min_margin: float
    samples: int


def admissibility(pot: TPotential, t_range: tuple[float, float], samples: int = 200) -> AdmissibilityReport:
    """Check F''(t) + 1/t > 0 on a sampled interval; on failure report a witness.

    The witness is the first failing grid point and ``min_margin`` the least
    margin up to and including it; ``samples`` counts the whole grid, which is
    evaluated in one batch.
    """
    lo, hi = float(t_range[0]), float(t_range[1])
    if not lo < hi:
        raise DomainError("t_range must be an increasing pair")
    _check_t(pot, lo)
    _check_t(pot, hi)
    ts = np.linspace(lo, hi, max(2, samples))
    margins = f2_value(pot, ts) + 1.0 / ts
    failing = np.flatnonzero(margins <= 0.0)
    if failing.size:
        k = int(failing[0])
        return AdmissibilityReport(False, float(ts[k]), float(margins[: k + 1].min()), len(ts))
    return AdmissibilityReport(True, None, float(margins.min()), len(ts))


# ---------------------------------------------------------------------------
# Legendre bridge from radial profiles
# ---------------------------------------------------------------------------


class TDual(NamedTuple):
    s: float | np.ndarray
    F: float | np.ndarray
    F2: float | np.ndarray


def _legendre_relations(s, t, f0, f1, f2) -> TDual:
    """The Legendre relations from (f0, f1, f2) = (f, f', f'') at the s where gamma(s) = 2 s f'(s) equals t.

    F(t) = t ln(s/t) - 2 f(s), and F''(t) = 1/(s gamma'(s)) - 1/t follows from
    differentiating it along the inverse map.  Floats give floats; arrays of s
    and t (one batched radial jet) give arrays.
    """
    gamma_slope = 2.0 * f1 + 2.0 * s * f2
    return TDual(s=s, F=t * _elementwise(np.log, s / t) - 2.0 * f0, F2=1.0 / (s * gamma_slope) - 1.0 / t)


def _gamma_and_slope(f: RadialKahlerPotential, s: float | np.ndarray) -> tuple:
    """gamma, gamma', and the magnitude scale of the slope's two terms; elementwise for an array of s.

    The scale lets callers tell a genuinely negative slope from one that is
    zero up to cancellation (for very large s both terms can dwarf their sum).
    """
    _, f1, f2 = radial_derivatives(f, s)
    slope = 2.0 * f1 + 2.0 * s * f2
    scale = abs(2.0 * f1) + abs(2.0 * s * f2)
    return 2.0 * s * f1, slope, scale


def kahler_to_t_potential(f: RadialKahlerPotential, t: float) -> TDual:
    """Invert gamma(s) = 2 s f'(s) at ``t`` and return (s, F(t), F''(t)).

    The root is bracketed (gamma is monotone wherever f is admissible) and
    found by Newton's method safeguarded by bisection;
    :func:`_legendre_relations` turns it into F and F''.  The bracket grows from
    s = t toward the root, since gamma increases: s doubles while
    gamma(s) < t, or halves while gamma(s) > t, and a 201st step raises
    :class:`BracketRangeError`; a t that is not positive and finite, or a
    gamma or gamma' that is not finite at an end of the bracket (as where
    2 s f'(s) overflows), raises :class:`DomainError`.  Before the search,
    gamma' is checked at nine evenly spaced probes of the bracket, one batched
    radial jet; the first clearly negative slope raises :class:`NonAdmissibleError`.

    A bracket endpoint where gamma equals t is returned as it is.  Otherwise
    each iterate s gives a Newton step from its own second-order jet.  The
    search stops at the first s with |gamma(s) - t| <= 2 eps t, or with a
    Newton step of at most 4 eps |s|, and returns s moved by that step, which
    costs no evaluation and leaves s as near the root as gamma's roundoff
    allows.  Otherwise the step is taken unless it leaves the bracket or fails
    to halve the previous step, and the bracket is bisected instead.  With no
    stop within ``_INVERSION_CAP`` iterates, :class:`AccuracyError` is raised:
    gamma then never meets t closely enough, as where it jumps over t.
    """
    t = float(t)
    if not 0.0 < t < math.inf:
        raise DomainError("t must be positive and finite")

    def clearly_negative(slope, scale):
        return slope < -1e-8 * scale

    gamma0, slope0, scale0 = _gamma_and_slope(f, t)
    if slope0 <= 0.0:
        raise NonAdmissibleError("gamma(s) = 2 s f'(s) is not increasing at s = t")

    up = gamma0 < t
    s, gamma, scale, doublings = t, gamma0, scale0, 0
    while (gamma < t) if up else (gamma > t):
        s = 2.0 * s if up else 0.5 * s
        gamma, slope, scale = _gamma_and_slope(f, s)
        if clearly_negative(slope, scale):
            raise NonAdmissibleError(f"gamma is not increasing at s = {s}")
        doublings += 1
        if doublings > 200:
            side = ">=" if up else "<="
            raise BracketRangeError(f"no s with gamma(s) {side} {t}; t outside the potential's range")
    lo, hi = (t, s) if up else (s, t)
    # An overflow at either end (NaN and inf end the search) would recur, with warnings, in the probes.
    if not all(map(math.isfinite, (gamma0, scale0, gamma, scale))):
        raise DomainError(f"gamma(s) = 2 s f'(s) or its slope is not finite on [{lo}, {hi}]; t={t} is out of reach")

    probes = np.linspace(lo, hi, 9)
    _, slopes, scales = _gamma_and_slope(f, probes)
    failing = np.flatnonzero(clearly_negative(slopes, scales))
    if failing.size:
        u = probes[failing[0]]
        raise NonAdmissibleError(f"gamma is not invertible on the bracket (slope <= 0 at s = {u})")
    if gamma == t:
        return _legendre_relations(s, t, *radial_derivatives(f, s))

    # gamma(lo) < t < gamma(hi) from here on.
    eps = float(np.finfo(float).eps)
    step = hi - lo
    s = lo + 0.5 * step
    for _ in range(_INVERSION_CAP):
        gamma, slope, _ = _gamma_and_slope(f, s)
        residual = gamma - t
        newton = residual / slope if slope > 0.0 else math.inf
        if abs(residual) <= 2.0 * eps * t or abs(newton) <= 4.0 * eps * abs(s):
            s = s - newton if slope > 0.0 else s
            return _legendre_relations(s, t, *radial_derivatives(f, s))
        if residual < 0.0:
            lo = s
        else:
            hi = s
        if lo < s - newton < hi and abs(newton) <= 0.5 * abs(step):
            step, s = newton, s - newton
        else:
            step = 0.5 * (hi - lo)
            s = lo + step
    raise AccuracyError(
        f"gamma(s) = {t} not met within {_INVERSION_CAP} Newton-bisection iterates; "
        f"the last bracket was [{lo}, {hi}]"
    )


# ---------------------------------------------------------------------------
# Symplectic potential values
# ---------------------------------------------------------------------------


def local_t_potential(pot: TPotential, t_lo: float, t_hi: float) -> Callable[[np.ndarray], np.ndarray]:
    """Fast polynomial stand-in for F on [t_lo, t_hi], gauged F(t_lo) = F'(t_lo) = 0.

    F'' is interpolated at Chebyshev nodes (:func:`_chebyshev_interpolant`)
    and integrated twice exactly (:func:`_chebyshev_integral`); the
    interpolant of degree 32, 64, 128 or 256, the first whose error at five
    probes is within 1e-12 (1 + max |F''|), is kept; if none is,
    :class:`AccuracyError` is raised.  F'' at the probes is evaluated once,
    before the first degree.  Every step is numpy's own
    (``Chebyshev(chebinterpolate(...), domain=[t_lo, t_hi]).integ(2, lbnd=t_lo)``
    and ``chebval``), written out in the same operation order, so the
    coefficients have its bits and ``numpy.polynomial`` is never imported.
    Intended for finite-difference work that hits F at many nearby points
    where per-call quadrature would dominate the runtime.  The returned
    callable maps a float or an array of t elementwise and raises
    :class:`DomainError` if any t lies outside the window, rather than
    extrapolate.
    """
    t_lo, t_hi = float(t_lo), float(t_hi)
    if not t_lo < t_hi:
        raise DomainError(f"need t_lo < t_hi, got [{t_lo}, {t_hi}]")
    _check_t(pot, t_lo)
    _check_t(pot, t_hi)

    mid = 0.5 * (t_lo + t_hi)
    half = 0.5 * (t_hi - t_lo)

    def f2_scaled(xi: np.ndarray) -> np.ndarray:
        return f2_value(pot, mid + half * xi)

    probes = np.array([-0.83, -0.41, 0.07, 0.52, 0.96])
    exact = f2_scaled(probes)
    scale = 1.0 + float(np.max(np.abs(exact)))
    for degree in (32, 64, 128, 256):
        coeffs = _chebyshev_interpolant(f2_scaled, degree)
        if float(np.max(np.abs(_clenshaw(probes, coeffs) - exact))) <= 1e-12 * scale:
            break
    else:
        raise AccuracyError(f"F'' not resolved on [{t_lo}, {t_hi}] with 256 Chebyshev nodes")

    inner_coeffs = _chebyshev_integral(_chebyshev_integral(coeffs, t_lo, t_hi), t_lo, t_hi)

    def value(t):
        t_min, t_max = np.min(t), np.max(t)
        if not (t_lo <= t_min and t_max <= t_hi):
            bad = t_max if t_lo <= t_min else t_min
            raise DomainError(f"t={bad} is outside the Chebyshev window [{t_lo}, {t_hi}]")
        return _clenshaw((t - mid) / half, inner_coeffs)

    return value


def _chebyshev_interpolant(f: Callable[[np.ndarray], np.ndarray], degree: int) -> np.ndarray:
    """Chebyshev coefficients of the interpolant of ``f`` on [-1, 1], bit for bit ``chebinterpolate(f, degree)``.

    ``f`` is called once, on the degree + 1 Chebyshev points of the first
    kind (``chebpts1``'s sines); ``chebvander``'s recurrence builds the
    transposed Vandermonde matrix in the layout that ``np.dot`` reads there,
    and the scaling is numpy's.
    """
    order = degree + 1
    nodes = np.sin(0.5 * np.pi / order * np.arange(-order + 1, order + 1, 2))
    vander = np.empty((order, order))  # row i is T_i at the nodes
    vander[0] = 1.0
    vander[1] = nodes
    x2 = 2 * nodes
    for i in range(2, order):
        vander[i] = vander[i - 1] * x2 - vander[i - 2]
    c = np.dot(vander, f(nodes))
    c[0] /= order
    c[1:] /= 0.5 * order
    return c


def _chebyshev_integral(c: np.ndarray, t_lo: float, t_hi: float) -> np.ndarray:
    """The antiderivative in t, zero at t_lo, of the series ``c`` on the window [t_lo, t_hi].

    Bit for bit one pass of ``Chebyshev(c, domain=[t_lo, t_hi]).integ(1, lbnd=t_lo)``:
    numpy's ``mapparms`` constants, then ``chebint``'s coefficients, each
    formed once as its loop forms it (``c[j] / (2 (j + 1))``, then the
    subtraction of ``c[j] / (2 (j - 1))``), and the constant that makes the
    series vanish at the mapped t_lo.  ``c`` has at least two coefficients.
    """
    length = t_hi - t_lo
    scl = 2.0 / length
    lbnd = (-t_hi - t_lo) / length + scl * t_lo
    c = c * (1.0 / scl)
    n = len(c)
    integral = np.empty(n + 1)
    integral[0] = c[0] * 0
    integral[1] = c[0]
    integral[2:] = c[1:] / np.arange(4, 2 * n + 1, 2)
    integral[1 : n - 1] -= c[2:] / np.arange(2, 2 * n - 3, 2)
    integral[0] += 0 - _clenshaw(lbnd, integral)
    return integral


def _clenshaw(x, c: np.ndarray):
    """The Chebyshev series ``c`` at ``x``, bit for bit what numpy's ``chebval(x, c)`` returns.

    The same Clenshaw recurrence, in the same order.  For an array of x it
    runs on three work arrays made once instead of the three fresh arrays
    ``chebval`` makes per coefficient; on a stencil block of 8,192 points
    that is about a quarter faster.  A single x runs the recurrence on Python
    floats, which round as numpy's float64 scalars do at a fraction of their
    cost, and gives a float.
    """
    if np.ndim(x) == 0:
        x, c = float(x), np.asarray(c, dtype=float).tolist()
        c0, c1 = (c[0], 0.0) if len(c) == 1 else (c[-2], c[-1])
        x2 = 2.0 * x
        for ci in reversed(c[:-2]):
            c0, c1 = ci - c1, c0 + c1 * x2
        return c0 + c1 * x
    if len(c) == 1:
        c = (c[0], 0.0)
    x = np.asarray(x, dtype=float)
    x2 = 2.0 * x
    c0, c1, work = np.full(x.shape, c[-2]), np.full(x.shape, c[-1]), np.empty(x.shape)
    for i in range(3, len(c) + 1):
        # chebval: (c0, c1) <- (c[-i] - c1, c0 + c1 * x2)
        np.multiply(c1, x2, out=work)
        work += c0
        np.subtract(c[-i], c1, out=c0)
        c1, work = work, c1
    np.multiply(c1, x, out=work)
    work += c0
    return work


def symplectic_evaluator(
    pot: TPotential, t_window: tuple[float, float] | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """The callable x -> g(x) = (1/2)(sum x_i ln x_i + F(t)) at interior points.

    ``x`` has shape ``(..., n)`` and ``g(x)`` shape ``(...)``; one point gives
    a float.  With a closed-form F the evaluation is direct and ``t_window`` is
    ignored.  Otherwise ``t_window`` is required and selects a gauge-fixed
    local polynomial for F (see :func:`local_t_potential`).  Every call checks
    that each point is inside the orthant and its t inside the potential's
    domain; an empty batch raises :class:`DomainError`.  ``t`` is summed by
    :func:`~torickahler.polytope.row_sum`, so a point alone gets the bits it
    gets inside a batch.
    """
    if pot.value_fn is not None:
        f_of_t = pot.value_fn
    elif t_window is not None:
        f_of_t = local_t_potential(pot, t_window[0], t_window[1])
    else:
        raise DomainError(f"potential {pot.label!r} has no closed-form F; give a t_window")

    def g(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.size == 0:
            raise DomainError("a batch of points must not be empty")
        if np.any(x < BOUNDARY_CUTOFF):
            raise NearBoundaryError("x must be strictly inside the orthant")
        t = row_sum(x)
        _check_t(pot, t)
        return 0.5 * (np.einsum("...i,...i->...", x, np.log(x)) + f_of_t(t))

    return g
