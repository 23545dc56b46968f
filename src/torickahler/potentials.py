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
Values of ``F`` itself, needed only to assemble ``g`` for finite differences,
have three routes, each with its own role:

* the closed form ``TPotential.value_fn``, where the catalog knows one;
* :func:`local_t_potential`, a Chebyshev interpolant of ``F''`` integrated
  twice, the fast route for finite-difference work without a closed form;
* :func:`torickahler.scalarflat.reconstruct_F`, adaptive quadrature of
  ``F''``, the reference that the Chebyshev route is checked against.

:func:`symplectic_evaluator` is the one assembly of ``g`` from the first two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.optimize import brentq

from .errors import (
    AccuracyError,
    BracketRangeError,
    DimensionError,
    DomainError,
    NearBoundaryError,
    NonAdmissibleError,
)
from .jets import DEFAULT_ORDER, TaylorJet, constant, jet_pow, ln_jet, variable
from .polytope import BOUNDARY_CUTOFF

__all__ = [
    "RadialKahlerPotential",
    "TPotential",
    "AdmissibilityReport",
    "TDual",
    "HermitianMetric",
    "flat_radial",
    "fubini_study_radial",
    "custom_radial",
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
    "legendre_dual",
    "kahler_to_t_potential",
    "hermitian_metric",
    "local_t_potential",
    "symplectic_evaluator",
]

#: Required clearance between an evaluation point and the domain endpoints.
DOMAIN_MARGIN = 1e-10


# ---------------------------------------------------------------------------
# Radial profiles f(s)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialKahlerPotential:
    """Radial profile ``f(s)`` supplied as a jet evaluator."""

    label: str
    jet_fn: Callable[[float, int], TaylorJet] = field(repr=False)


def radial_jet(f: RadialKahlerPotential, s: float, order: int = DEFAULT_ORDER) -> TaylorJet:
    if s <= 0.0:
        raise DomainError("radial profiles are defined for s > 0")
    return f.jet_fn(float(s), order)


def radial_derivatives(f: RadialKahlerPotential, s: float) -> tuple[float, float, float]:
    """(f(s), f'(s), f''(s)) read off a second-order radial jet."""
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


def custom_radial(jet_fn: Callable[[float, int], TaylorJet], label: str = "custom") -> RadialKahlerPotential:
    return RadialKahlerPotential(label, jet_fn)


# ---------------------------------------------------------------------------
# t-potentials F(t)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TPotential:
    """Radial part of a symplectic potential, described through jets of F''.

    ``value_fn``, when present, is a closed form for ``F`` itself.  Without it
    ``F`` values come from integrating ``F''`` in an arbitrary affine gauge,
    which is invisible to Hessians and curvature.
    """

    label: str
    domain: tuple[float, float]
    jet_fn: Callable[[float, int], TaylorJet] = field(repr=False)
    value_fn: Callable[[float], float] | None = field(default=None, repr=False)


def flat_potential() -> TPotential:
    """F'' = 0 on (0, inf); the euclidean metric in action coordinates."""
    return TPotential(
        "flat",
        (0.0, math.inf),
        lambda t, order: constant(0.0, t, order),
        value_fn=lambda t: -t,
    )


def fubini_study_potential() -> TPotential:
    """F''(t) = 1/(1-t) on (0, 1), i.e. F(t) = (1-t) ln(1-t)."""

    def jfn(t: float, order: int) -> TaylorJet:
        return 1.0 / (1.0 - variable(t, order))

    return TPotential(
        "fubini_study",
        (0.0, 1.0),
        jfn,
        value_fn=lambda t: (1.0 - t) * math.log1p(-t),
    )


def generalized_burns_potential() -> TPotential:
    """F''(t) = 1/(t(t-1)) on (1, inf).

    This is the restriction of the ambient product metric to the blow-up; the
    closed form for F is (t-1) ln(t-1) - t ln t - t + 1.
    """

    def jfn(t: float, order: int) -> TaylorJet:
        tj = variable(t, order)
        return 1.0 / (tj * (tj - 1.0))

    def value(t: float) -> float:
        return (t - 1.0) * math.log(t - 1.0) - t * math.log(t) - t + 1.0

    return TPotential("generalized_burns", (1.0, math.inf), jfn, value_fn=value)


def _family_domain_start(n: int, a: float, b: float) -> float:
    """Largest nonnegative real root of t^n - a t - b; the family lives to its right."""
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    coeffs[-2] += -a
    coeffs[-1] += -b
    coeffs = np.trim_zeros(coeffs, "f")
    if coeffs.size <= 1:
        return 0.0
    roots = np.roots(coeffs)
    real = [r.real for r in roots if abs(r.imag) <= 1e-9 * (1.0 + abs(r))]
    return max([0.0] + real)


def scalar_flat_family(
    n: int,
    a: float,
    b: float,
    label: str = "scalar_flat_family",
    domain: tuple[float, float] | None = None,
) -> TPotential:
    """The two-parameter family F''(t) = (a t + b) / (t (t^n - a t - b)).

    Every member is scalar-flat in dimension ``n`` wherever it is admissible,
    i.e. wherever ``t^n - a t - b > 0``.
    """
    if n < 1:
        raise DimensionError("the family needs dimension n >= 1")
    a = float(a)
    b = float(b)
    if domain is None:
        domain = (_family_domain_start(n, a, b), math.inf)

    def jfn(t: float, order: int) -> TaylorJet:
        tj = variable(t, order)
        numer = a * tj + b
        gap = jet_pow(tj, n) - numer
        if gap.value <= 0.0:
            raise DomainError(f"t^{n} - ({a} t + {b}) must be positive; t={t} is outside")
        return numer / (tj * gap)

    return TPotential(label, domain, jfn)


def custom_potential(
    jet_fn: Callable[[float, int], TaylorJet],
    domain: tuple[float, float],
    label: str = "custom",
    value_fn: Callable[[float], float] | None = None,
) -> TPotential:
    return TPotential(label, domain, jet_fn, value_fn=value_fn)


# ---------------------------------------------------------------------------
# Operations on t-potentials
# ---------------------------------------------------------------------------


def _check_t(pot: TPotential, t: float) -> None:
    lo, hi = pot.domain
    inside = t - lo >= DOMAIN_MARGIN and (math.isinf(hi) or hi - t >= DOMAIN_MARGIN)
    if not (inside and math.isfinite(t)):
        raise DomainError(
            f"t={t} is outside the domain ({lo}, {hi}) of potential {pot.label!r} "
            f"(margin {DOMAIN_MARGIN})"
        )


def f2_jet(pot: TPotential, t: float, order: int = 4) -> TaylorJet:
    """Jet of F'' at ``t`` to the requested order."""
    t = float(t)
    _check_t(pot, t)
    jet = pot.jet_fn(t, order)
    if jet.base != t or jet.order != order:
        raise ValueError(f"potential {pot.label!r} returned a malformed jet")
    return jet


def f2_value(pot: TPotential, t: float) -> float:
    return f2_jet(pot, t, 0).value


def admissible_f2(t: float, f2: float) -> float:
    """Return ``f2 = F''(t)`` after checking 1 + t F'' > 0, the admissibility of the metric."""
    if 1.0 + t * f2 <= 0.0:
        raise NonAdmissibleError(f"1 + t F'' = {1.0 + t * f2} <= 0 at t={t}; the inverse Hessian degenerates")
    return f2


class AdmissibilityReport(NamedTuple):
    passed: bool
    witness: float | None
    min_margin: float
    samples: int


def admissibility(pot: TPotential, t_range: tuple[float, float], samples: int = 200) -> AdmissibilityReport:
    """Check F''(t) + 1/t > 0 on a sampled interval; on failure report a witness."""
    lo, hi = float(t_range[0]), float(t_range[1])
    if not lo < hi:
        raise DomainError("t_range must be an increasing pair")
    _check_t(pot, lo)
    _check_t(pot, hi)
    ts = np.linspace(lo, hi, max(2, samples))
    min_margin = math.inf
    for t in ts:
        margin = f2_value(pot, float(t)) + 1.0 / float(t)
        if margin < min_margin:
            min_margin = margin
        if margin <= 0.0:
            return AdmissibilityReport(False, float(t), min_margin, len(ts))
    return AdmissibilityReport(True, None, min_margin, len(ts))


# ---------------------------------------------------------------------------
# Legendre bridge from radial profiles
# ---------------------------------------------------------------------------


class TDual(NamedTuple):
    s: float
    F: float
    F2: float


def legendre_dual(f: RadialKahlerPotential, s: float, t: float) -> TDual:
    """The Legendre relations at the s where gamma(s) = 2 s f'(s) equals t.

    F(t) = t ln(s/t) - 2 f(s), and F''(t) = 1/(s gamma'(s)) - 1/t follows from
    differentiating it along the inverse map.
    """
    f0, f1, f2 = radial_derivatives(f, s)
    gamma_slope = 2.0 * f1 + 2.0 * s * f2
    return TDual(s=s, F=t * math.log(s / t) - 2.0 * f0, F2=1.0 / (s * gamma_slope) - 1.0 / t)


def _gamma_and_slope(f: RadialKahlerPotential, s: float) -> tuple[float, float, float]:
    """gamma, gamma', and the magnitude scale of the slope's two terms.

    The scale lets callers tell a genuinely negative slope from one that is
    zero up to cancellation (for very large s both terms can dwarf their sum).
    """
    _, f1, f2 = radial_derivatives(f, s)
    slope = 2.0 * f1 + 2.0 * s * f2
    scale = abs(2.0 * f1) + abs(2.0 * s * f2)
    return 2.0 * s * f1, slope, scale


def kahler_to_t_potential(f: RadialKahlerPotential, t: float, *, max_doublings: int = 200) -> TDual:
    """Invert gamma(s) = 2 s f'(s) at ``t`` and return (s, F(t), F''(t)).

    The root is bracketed (gamma is monotone wherever f is admissible) and
    found by Brent's method to a relative tolerance of 4 eps;
    :func:`legendre_dual` turns it into F and F''.
    """
    t = float(t)
    if t <= 0.0:
        raise DomainError("t must be positive")

    def clearly_negative(slope: float, scale: float) -> bool:
        return slope < -1e-8 * scale

    gamma0, slope0, scale0 = _gamma_and_slope(f, t)
    if slope0 <= 0.0:
        raise NonAdmissibleError("gamma(s) = 2 s f'(s) is not increasing at s = t")

    lo = hi = t
    glo = ghi = gamma0
    doublings = 0
    while ghi < t:
        hi *= 2.0
        ghi, slope, scale = _gamma_and_slope(f, hi)
        if clearly_negative(slope, scale):
            raise NonAdmissibleError(f"gamma is not increasing at s = {hi}")
        doublings += 1
        if doublings > max_doublings:
            raise BracketRangeError(f"no s with gamma(s) >= {t}; t outside the potential's range")
    doublings = 0
    while glo > t:
        lo /= 2.0
        glo, slope, scale = _gamma_and_slope(f, lo)
        if clearly_negative(slope, scale):
            raise NonAdmissibleError(f"gamma is not increasing at s = {lo}")
        doublings += 1
        if doublings > max_doublings:
            raise BracketRangeError(f"no s with gamma(s) <= {t}; t outside the potential's range")

    for u in np.linspace(lo, hi, 9):
        _, slope, scale = _gamma_and_slope(f, float(u))
        if clearly_negative(slope, scale):
            raise NonAdmissibleError(f"gamma is not invertible on the bracket (slope <= 0 at s = {u})")

    # A negligible xtol leaves the relative tolerance in charge at every scale of s.
    fp = np.finfo(float)
    s = brentq(lambda u: _gamma_and_slope(f, u)[0] - t, lo, hi, xtol=fp.tiny, rtol=4.0 * fp.eps)
    return legendre_dual(f, s, t)


# ---------------------------------------------------------------------------
# Complex-side Hermitian matrix
# ---------------------------------------------------------------------------


class HermitianMetric(NamedTuple):
    matrix: np.ndarray
    posdef: bool


def hermitian_metric(f: RadialKahlerPotential, z: Sequence[complex]) -> HermitianMetric:
    """The matrix f' I + f'' z z* with its positive-definiteness flag.

    The eigenvalues are f' with multiplicity n-1 and f' + s f'' once (s = |z|^2),
    so positivity is decided from those two numbers.
    """
    z = np.asarray(z, dtype=complex)
    if z.ndim != 1 or z.size == 0:
        raise DimensionError("z must be a nonempty complex vector")
    s = float(np.vdot(z, z).real)
    if s == 0.0:
        raise DomainError("the origin is excluded; radial profiles live on C^n minus 0")
    _, f1, f2 = radial_derivatives(f, s)
    matrix = f1 * np.eye(z.size, dtype=complex) + f2 * np.outer(z, np.conj(z))
    posdef = f1 > 0.0 and f1 + s * f2 > 0.0
    return HermitianMetric(matrix=matrix, posdef=posdef)


# ---------------------------------------------------------------------------
# Symplectic potential values
# ---------------------------------------------------------------------------


def local_t_potential(
    pot: TPotential,
    t_lo: float,
    t_hi: float,
    tol: float = 1e-12,
    max_nodes: int = 256,
) -> Callable[[float], float]:
    """Fast polynomial stand-in for F on [t_lo, t_hi], gauged F(t_lo) = F'(t_lo) = 0.

    F'' is interpolated at Chebyshev nodes and integrated twice exactly; the
    interpolation is validated against direct F'' values and refined until it
    is below ``tol``.  Intended for finite-difference work that hits F at many
    nearby points where per-call quadrature would dominate the runtime.  The
    returned callable raises :class:`DomainError` outside the window rather
    than extrapolate.
    """
    t_lo, t_hi = float(t_lo), float(t_hi)
    if not t_lo < t_hi:
        raise DomainError(f"need t_lo < t_hi, got [{t_lo}, {t_hi}]")
    _check_t(pot, t_lo)
    _check_t(pot, t_hi)

    mid = 0.5 * (t_lo + t_hi)
    half = 0.5 * (t_hi - t_lo)

    def f2_scaled(xi: np.ndarray) -> np.ndarray:
        return np.array([f2_value(pot, mid + half * float(v)) for v in np.atleast_1d(xi)])

    degree = 32
    while True:
        coeffs = np.polynomial.chebyshev.chebinterpolate(f2_scaled, degree)
        probes = np.array([-0.83, -0.41, 0.07, 0.52, 0.96])
        approx = np.polynomial.chebyshev.chebval(probes, coeffs)
        exact = f2_scaled(probes)
        scale = 1.0 + float(np.max(np.abs(exact)))
        if float(np.max(np.abs(approx - exact))) <= tol * scale:
            break
        degree *= 2
        if degree > max_nodes:
            raise AccuracyError(
                f"F'' not resolved on [{t_lo}, {t_hi}] with {max_nodes} Chebyshev nodes"
            )

    series = np.polynomial.Chebyshev(coeffs, domain=[t_lo, t_hi])
    antiderivative = series.integ(2, lbnd=t_lo)
    inner_coeffs = antiderivative.coef.copy()

    def value(t: float) -> float:
        t = float(t)
        if not t_lo <= t <= t_hi:
            raise DomainError(f"t={t} is outside the Chebyshev window [{t_lo}, {t_hi}]")
        xi = (t - mid) / half
        return float(np.polynomial.chebyshev.chebval(xi, inner_coeffs))

    return value


def symplectic_evaluator(
    pot: TPotential, t_window: tuple[float, float] | None = None
) -> Callable[[Sequence[float]], float]:
    """The callable x -> g(x) = (1/2)(sum x_i ln x_i + F(t)) at interior points.

    With a closed-form F the evaluation is direct and ``t_window`` is ignored.
    Otherwise ``t_window`` is required and selects a gauge-fixed local
    polynomial for F (see :func:`local_t_potential`).  Every call checks that
    x is inside the orthant and t inside the potential's domain.
    """
    if pot.value_fn is not None:
        f_of_t = pot.value_fn
    elif t_window is not None:
        f_of_t = local_t_potential(pot, t_window[0], t_window[1])
    else:
        raise DomainError(f"potential {pot.label!r} has no closed-form F; give a t_window")

    def g(x: Sequence[float]) -> float:
        total = 0.0
        t = 0.0
        for v in x:
            v = float(v)
            if v < BOUNDARY_CUTOFF:
                raise NearBoundaryError("x must be strictly inside the orthant")
            total += v * math.log(v)
            t += v
        _check_t(pot, t)
        return 0.5 * (total + f_of_t(t))

    return g
