"""Truncated Taylor-series ("jet") arithmetic for scalar functions of one variable.

A :class:`TaylorJet` stores the coefficients ``c_0 .. c_K`` of an expansion
around a base point, with ``c_k = f^(k)(base) / k!``.  Storing Taylor
coefficients rather than raw derivatives keeps Cauchy products and series
quotients factorial-free, which is what makes order-6 arithmetic numerically
uneventful.  Everything here is plain 64-bit floating point; exact rational
work lives elsewhere.

A jet carries either one base point or a whole batch of them.  A scalar jet
has a float ``base`` and float coefficients; a batched jet has an ndarray
``base`` and each coefficient is an ndarray of the same shape, entry ``i``
belonging to the expansion about ``base[i]``.  The same code serves both by
broadcasting, and performs the same floating-point operations in the same
order on every entry, so a batch gives bit for bit the numbers that its rows
give one at a time (``log`` and ``exp`` are numpy's for one point too).  Sums
are plain left-to-right sums, not :func:`math.fsum`; jets of order six add at
most seven terms, and an mpmath reference test bounds the roundoff.

Jets propagate derivatives through compositions of rational operations and
logarithms exactly (up to roundoff), so a quantity like the second derivative
of ``t^(n+1) F'' / (1 + t F'')`` comes out with no step-size error at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    derivative divided by k!.  ``base`` is a float, or an ndarray for a batch
    of base points; in a batch every coefficient is an ndarray of the base's
    shape.  Coefficient arrays are shared between jets, never written to.
    """

    base: float | np.ndarray
    coefficients: tuple

    # Keeps numpy from broadcasting over a jet: ``array * jet`` calls __rmul__.
    __array_ufunc__ = None

    def __post_init__(self) -> None:
        coeffs = self.coefficients
        if not coeffs:
            raise ValueError("a jet needs at least the constant coefficient")
        if isinstance(self.base, np.ndarray):
            finite = np.isfinite(coeffs).all()
        else:
            finite = all(map(math.isfinite, coeffs))
        if not finite:
            raise DomainError("jet coefficients must be finite")

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def value(self) -> float | np.ndarray:
        """Value of the represented function at the base point(s)."""
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
    return constant(value, template.base, template.order)


def constant(value, base: float | np.ndarray = 0.0, order: int = DEFAULT_ORDER) -> TaylorJet:
    """Jet of a constant function: ``[value, 0, ...]``.

    With an ndarray ``base`` the jet is a batch; ``value`` is then a float or
    an array that broadcasts to the base's shape.
    """
    if order < 0:
        raise DomainError("jet order must be nonnegative")
    if isinstance(base, np.ndarray):
        zero = np.zeros(base.shape)
        value = zero + value
        if value.shape != base.shape:
            raise DomainError(f"a constant of shape {value.shape} does not fit a batch of shape {base.shape}")
    else:
        zero = 0.0
        value = float(value)
    return TaylorJet(base, (value,) + (zero,) * order)


def variable(base: float | np.ndarray, order: int = DEFAULT_ORDER) -> TaylorJet:
    """Jet of the identity function about ``base``: ``[base, 1, 0, ...]``.

    An ndarray ``base`` (any shape, converted to float) gives a batch.
    """
    if order < 0:
        raise DomainError("jet order must be nonnegative")
    if isinstance(base, np.ndarray):
        base = base.astype(float, copy=False)
        zero, one = np.zeros(base.shape), np.ones(base.shape)
    else:
        base = float(base)
        zero, one = 0.0, 1.0
    return TaylorJet(base, ((base, one) + (zero,) * (order - 1))[: order + 1])


def _any(mask) -> bool:
    """Whether a scalar condition holds, or holds at any point of a batch."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else mask


def _same_base(x: float | np.ndarray, y: float | np.ndarray) -> bool:
    """Whether two base points, or two batches of them (shape included), are equal."""
    if x is y:
        return True
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y)
    return x == y


def _elementwise(fn, x: float | np.ndarray) -> float | np.ndarray:
    """numpy's ``fn`` at one point or over a batch; one point stays a Python float."""
    y = fn(x)
    return y if isinstance(x, np.ndarray) else float(y)


def _check_compatible(a: TaylorJet, b: TaylorJet) -> None:
    if not _same_base(a.base, b.base):
        raise DomainError(f"jet base points differ: {a.base} vs {b.base}")
    if len(a.coefficients) != len(b.coefficients):
        raise DomainError(f"jet orders differ: {a.order} vs {b.order}")


def arith(a: TaylorJet, b: TaylorJet, op: str) -> TaylorJet:
    """Combine two jets sharing base point(s) and order.

    ``mul`` is the truncated Cauchy product; ``div`` is power-series long
    division, which requires the divisor's constant term to be nonzero at
    every base point.  Sums run left to right in the index of ``a``.
    """
    _check_compatible(a, b)
    ac, bc = a.coefficients, b.coefficients
    if op == "add":
        coeffs = tuple(x + y for x, y in zip(ac, bc))
    elif op == "sub":
        coeffs = tuple(x - y for x, y in zip(ac, bc))
    elif op == "mul":
        coeffs = []
        for k in range(len(ac)):
            acc = ac[0] * bc[k]
            for i in range(1, k + 1):
                acc = acc + ac[i] * bc[k - i]
            coeffs.append(acc)
        coeffs = tuple(coeffs)
    elif op == "div":
        b0 = bc[0]
        if _any(b0 == 0.0):
            raise SingularPointError("division by a jet vanishing at its base point")
        q = []
        for k in range(len(ac)):
            acc = ac[k]
            for i in range(1, k + 1):
                acc = acc - bc[i] * q[k - i]
            q.append(acc / b0)
        coeffs = tuple(q)
    else:
        raise ValueError(f"unknown jet operation {op!r}")
    return TaylorJet(a.base, coeffs)


def ln_jet(a: TaylorJet) -> TaylorJet:
    """Jet of ``log(a)``: take ``log`` of the constant term, then integrate a'/a."""
    c = a.coefficients
    if _any(c[0] <= 0.0):
        raise DomainError("log of a jet requires a positive constant term")
    k_max = a.order
    out = [_elementwise(np.log, c[0])]
    if k_max >= 1:
        # a'/a as a series of order k_max - 1, then term-by-term integration.
        da = TaylorJet(a.base, tuple((i + 1) * c[i + 1] for i in range(k_max)))
        ratio = arith(da, TaylorJet(a.base, c[:k_max]), "div")
        out += [ratio.coefficients[k - 1] / k for k in range(1, k_max + 1)]
    return TaylorJet(a.base, tuple(out))


def exp_jet(a: TaylorJet) -> TaylorJet:
    """Jet of ``exp(a)`` via the recursion e' = a' e."""
    c = a.coefficients
    out = [_elementwise(np.exp, c[0])]
    for k in range(1, a.order + 1):
        acc = c[1] * out[k - 1]
        for j in range(2, k + 1):
            acc = acc + j * c[j] * out[k - j]
        out.append(acc / k)
    return TaylorJet(a.base, tuple(out))


def jet_pow(a: TaylorJet, m: int) -> TaylorJet:
    """Integer power of a jet by repeated squaring; a negative m divides once."""
    if m < 0:
        return arith(constant(1.0, a.base, a.order), jet_pow(a, -m), "div")
    result = None
    square = a
    while m:
        if m & 1:
            result = square if result is None else arith(result, square, "mul")
        m >>= 1
        if m:
            square = arith(square, square, "mul")
    return constant(1.0, a.base, a.order) if result is None else result


def derivative(a: TaylorJet, k: int) -> float | np.ndarray:
    """k-th derivative of the represented function at the base point(s) (k! * c_k)."""
    if k < 0:
        raise ValueError("derivative order must be nonnegative")
    if k > a.order:
        raise InsufficientOrderError(
            f"jet of order {a.order} cannot supply derivative {k}"
        )
    return math.factorial(k) * a.coefficients[k]
