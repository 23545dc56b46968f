"""Truncated Taylor-series ("jet") arithmetic for scalar functions of one variable.

A :class:`TaylorJet` stores the coefficients ``c_0 .. c_K`` of an expansion
around a base point, with ``c_k = f^(k)(base) / k!``.  Storing Taylor
coefficients rather than raw derivatives keeps Cauchy products and series
quotients factorial-free, which is what makes order-6 arithmetic numerically
uneventful.  Everything here is plain 64-bit floating point; exact rational
work lives elsewhere.

Jets propagate derivatives through compositions of rational operations and
logarithms exactly (up to roundoff), so a quantity like the second derivative
of ``t^(n+1) F'' / (1 + t F'')`` comes out with no step-size error at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, InsufficientOrderError, SingularPointError

__all__ = [
    "DEFAULT_ORDER",
    "TaylorJet",
    "constant",
    "variable",
    "arith",
    "ln_jet",
    "exp_jet",
    "jet_pow",
    "derivative",
]

#: Two spare orders beyond the four derivatives the curvature formulas need.
DEFAULT_ORDER = 6


@dataclass(frozen=True)
class TaylorJet:
    """Expansion of a scalar function about ``base``, truncated at some order.

    ``coefficients[k]`` is the k-th Taylor coefficient, i.e. the k-th
    derivative divided by k!.
    """

    base: float
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("a jet needs at least the constant coefficient")
        for c in coeffs:
            if not math.isfinite(c):
                raise DomainError("jet coefficients must be finite")
        object.__setattr__(self, "base", float(self.base))
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def value(self) -> float:
        """Value of the represented function at the base point."""
        return self.coefficients[0]

    # Operator sugar; all arithmetic funnels through arith() below.
    def __add__(self, other):
        return arith(self, _as_jet(other, self), "add")

    __radd__ = __add__

    def __sub__(self, other):
        return arith(self, _as_jet(other, self), "sub")

    def __rsub__(self, other):
        return arith(_as_jet(other, self), self, "sub")

    def __mul__(self, other):
        return arith(self, _as_jet(other, self), "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return arith(self, _as_jet(other, self), "div")

    def __rtruediv__(self, other):
        return arith(_as_jet(other, self), self, "div")

    def __neg__(self):
        return arith(constant(0.0, self.base, self.order), self, "sub")


def _as_jet(value, template: TaylorJet) -> TaylorJet:
    if isinstance(value, TaylorJet):
        return value
    return constant(float(value), template.base, template.order)


def constant(value: float, base: float = 0.0, order: int = DEFAULT_ORDER) -> TaylorJet:
    """Jet of a constant function: ``[value, 0, ...]``."""
    if order < 0:
        raise ValueError("jet order must be nonnegative")
    return TaylorJet(base, (float(value),) + (0.0,) * order)


def variable(base: float, order: int = DEFAULT_ORDER) -> TaylorJet:
    """Jet of the identity function about ``base``: ``[base, 1, 0, ...]``."""
    if order < 0:
        raise ValueError("jet order must be nonnegative")
    return TaylorJet(base, ((float(base), 1.0) + (0.0,) * (order - 1))[: order + 1])


def _check_compatible(a: TaylorJet, b: TaylorJet) -> None:
    if a.base != b.base:
        raise ValueError(f"jet base points differ: {a.base} vs {b.base}")
    if a.order != b.order:
        raise ValueError(f"jet orders differ: {a.order} vs {b.order}")


def arith(a: TaylorJet, b: TaylorJet, op: str) -> TaylorJet:
    """Combine two jets sharing base point and order.

    ``mul`` is the truncated Cauchy product; ``div`` is power-series long
    division, which requires the divisor's constant term to be nonzero.
    """
    _check_compatible(a, b)
    ac, bc = a.coefficients, b.coefficients
    k_max = a.order
    if op == "add":
        coeffs = tuple(x + y for x, y in zip(ac, bc))
    elif op == "sub":
        coeffs = tuple(x - y for x, y in zip(ac, bc))
    elif op == "mul":
        coeffs = tuple(
            math.fsum(ac[i] * bc[k - i] for i in range(k + 1)) for k in range(k_max + 1)
        )
    elif op == "div":
        if bc[0] == 0.0:
            raise SingularPointError("division by a jet vanishing at its base point")
        q = [0.0] * (k_max + 1)
        for k in range(k_max + 1):
            acc = ac[k] - math.fsum(bc[i] * q[k - i] for i in range(1, k + 1))
            q[k] = acc / bc[0]
        coeffs = tuple(q)
    else:
        raise ValueError(f"unknown jet operation {op!r}")
    return TaylorJet(a.base, coeffs)


def ln_jet(a: TaylorJet) -> TaylorJet:
    """Jet of ``log(a)``: take ``log`` of the constant term, then integrate a'/a."""
    if a.coefficients[0] <= 0.0:
        raise DomainError("log of a jet requires a positive constant term")
    k_max = a.order
    out = [math.log(a.coefficients[0])] + [0.0] * k_max
    if k_max >= 1:
        # a'/a as a series of order k_max - 1, then term-by-term integration.
        da = TaylorJet(a.base, tuple((i + 1) * a.coefficients[i + 1] for i in range(k_max)))
        a_trunc = TaylorJet(a.base, a.coefficients[:k_max])
        ratio = arith(da, a_trunc, "div")
        for k in range(1, k_max + 1):
            out[k] = ratio.coefficients[k - 1] / k
    return TaylorJet(a.base, tuple(out))


def exp_jet(a: TaylorJet) -> TaylorJet:
    """Jet of ``exp(a)`` via the recursion e' = a' e."""
    k_max = a.order
    out = [math.exp(a.coefficients[0])] + [0.0] * k_max
    for k in range(1, k_max + 1):
        out[k] = math.fsum(j * a.coefficients[j] * out[k - j] for j in range(1, k + 1)) / k
    return TaylorJet(a.base, tuple(out))


def jet_pow(a: TaylorJet, m: int) -> TaylorJet:
    """Integer power of a jet by repeated multiplication."""
    if m < 0:
        return arith(constant(1.0, a.base, a.order), jet_pow(a, -m), "div")
    result = constant(1.0, a.base, a.order)
    for _ in range(m):
        result = arith(result, a, "mul")
    return result


def derivative(a: TaylorJet, k: int) -> float:
    """k-th derivative of the represented function at the base point (k! * c_k)."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k > a.order:
        raise InsufficientOrderError(
            f"jet of order {a.order} cannot supply derivative {k}"
        )
    return math.factorial(k) * a.coefficients[k]
