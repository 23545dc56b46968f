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
logarithms exactly (up to roundoff), so the derivatives of ``F''`` that the
curvature formulas read come out with no step-size error at all.

A jet combined with a plain number uses the number directly, with no
constant jet built for it (see :func:`arith`); that keeps the per-point cost
of scalar jet code low, and a batch runs the same code as its rows.

The arithmetic builds its jets with one private constructor, which checks only
the coefficients computed in that step; :class:`TaylorJet` checks them all.
Products and quotients of orders 0-2, the orders the library asks for, are
written out in the loop's summation order, ``(a0 b2 + a1 b1) + a2 b0``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularPointError

__all__ = [
    "TaylorJet",
    "constant",
    "variable",
    "arith",
    "ln_jet",
    "jet_pow",
]

class TaylorJet:
    """Expansion of a scalar function about ``base``, truncated at some order.

    ``coefficients[k]`` is the k-th Taylor coefficient, i.e. the k-th
    derivative divided by k!.  ``base`` is a float, or an ndarray for a batch
    of base points; in a batch every coefficient is an ndarray of the base's
    shape.  Coefficient arrays are shared between jets, never written to.
    A jet is immutable: assigning or deleting an attribute raises.
    """

    __slots__ = ("base", "coefficients")

    # Keeps numpy from broadcasting over a jet: ``array * jet`` calls __rmul__.
    __array_ufunc__ = None

    def __init__(self, base: float | np.ndarray, coefficients: tuple) -> None:
        if not coefficients:
            raise ValueError("a jet needs at least the constant coefficient")
        _check_finite(base, coefficients)
        _set_base(self, base)
        _set_coefficients(self, coefficients)

    def __setattr__(self, name, value):
        raise AttributeError(f"TaylorJet is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"TaylorJet is immutable; cannot delete {name!r}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which reruns its checks.
        return (TaylorJet, (self.base, self.coefficients))

    def __repr__(self) -> str:
        return f"TaylorJet(base={self.base!r}, coefficients={self.coefficients!r})"

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @property
    def value(self) -> float | np.ndarray:
        """Value of the represented function at the base point(s)."""
        return self.coefficients[0]

    # Operator sugar: each operator is one arith() call, which also takes a
    # plain number for either operand.
    def __add__(self, other):
        return arith(self, other, "add")

    __radd__ = __add__

    def __sub__(self, other):
        return arith(self, other, "sub")

    def __rsub__(self, other):
        return arith(other, self, "sub")

    def __mul__(self, other):
        return arith(self, other, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        return arith(self, other, "div")

    def __rtruediv__(self, other):
        return arith(other, self, "div")

    def __neg__(self):
        return arith(0.0, self, "sub")


# The slots' own setters, which TaylorJet.__setattr__ does not reach.
_set_base = TaylorJet.base.__set__
_set_coefficients = TaylorJet.coefficients.__set__


def _check_finite(base: float | np.ndarray, values: list | tuple) -> None:
    """Raise :class:`DomainError` unless every value (every entry, for a batch) is finite."""
    if isinstance(base, np.ndarray):
        finite = np.isfinite(values)
        finite = np.count_nonzero(finite) == finite.size
    else:
        finite = all(map(math.isfinite, values))
    if not finite:
        raise DomainError("jet coefficients must be finite")


def _jet(base: float | np.ndarray, fresh: list, kept: tuple = ()) -> TaylorJet:
    """The jet ``fresh + kept``, checking only ``fresh``: ``kept`` is from a checked jet, or 0s and 1s."""
    if type(base) is not float:
        _check_finite(base, fresh)
    else:  # one point, the commonest case, checked here without a call
        for v in fresh:
            if not math.isfinite(v):
                raise DomainError("jet coefficients must be finite")
    jet = object.__new__(TaylorJet)
    _set_base(jet, base)
    _set_coefficients(jet, tuple(fresh) + kept)
    return jet


def constant(value, base: float | np.ndarray, order: int) -> TaylorJet:
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
    return _jet(base, [value], (zero,) * order)


def variable(base: float | np.ndarray, order: int) -> TaylorJet:
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
    return _jet(base, [base], ((one,) + (zero,) * (order - 1))[:order])


def _any(mask) -> bool:
    """Whether a scalar condition holds, or holds at any point of a batch."""
    return np.count_nonzero(mask) > 0 if isinstance(mask, np.ndarray) else mask


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


def _product(ac: tuple, bc: tuple) -> list:
    """The truncated Cauchy product ``ac bc``; orders 0-2 written out in the loop's order."""
    n = len(ac)
    if n == 3:
        (a0, a1, a2), (b0, b1, b2) = ac, bc
        return [a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0]
    if n < 3:
        return [ac[0] * bc[0]] if n == 1 else [ac[0] * bc[0], ac[0] * bc[1] + ac[1] * bc[0]]
    coeffs = []
    for k in range(n):
        acc = ac[0] * bc[k]
        for i in range(1, k + 1):
            acc = acc + ac[i] * bc[k - i]
        coeffs.append(acc)
    return coeffs


def _quotient(ac: tuple | list, bc: tuple) -> list:
    """Power-series long division ``ac / bc``, ``bc[0]`` nonzero; orders 0-2 written out in the loop's order."""
    b0, n = bc[0], len(ac)
    if n == 1:
        return [ac[0] / b0]
    if n <= 3:
        q0 = ac[0] / b0
        q1 = (ac[1] - bc[1] * q0) / b0
        return [q0, q1, (ac[2] - bc[1] * q1 - bc[2] * q0) / b0] if n == 3 else [q0, q1]
    q = []
    for k in range(n):
        acc = ac[k]
        for i in range(1, k + 1):
            acc = acc - bc[i] * q[k - i]
        q.append(acc / b0)
    return q


def arith(a: TaylorJet | float, b: TaylorJet | float, op: str) -> TaylorJet:
    """Combine two jets sharing base point(s) and order, or a jet and a number.

    ``mul`` is the truncated Cauchy product; ``div`` is power-series long
    division, which requires the divisor's constant term to be nonzero at
    every base point.  Sums run left to right in the index of ``a``.

    Either operand may be a number, standing for the constant jet of that
    value.  A float or int is applied directly, to one jet or to a batch:
    ``add`` and ``sub`` change the constant term only, ``mul`` and ``div``
    by the number scale each coefficient, and a number divided by a jet is
    the long division of ``(number, 0, 0, ...)``.  That gives the constant
    jet's bits up to the sign of a zero without building the constant jet.
    Any other operand, such as an ndarray, is lifted with :func:`constant`.
    """
    if type(a) is TaylorJet is type(b) or isinstance(a, TaylorJet) and isinstance(b, TaylorJet):
        ac, bc = a.coefficients, b.coefficients
        if a.base is not b.base or len(ac) != len(bc):
            if not _same_base(a.base, b.base):
                raise DomainError(f"jet base points differ: {a.base} vs {b.base}")
            if len(ac) != len(bc):
                raise DomainError(f"jet orders differ: {a.order} vs {b.order}")
        jet = a
    else:
        jet, number = (a, b) if isinstance(a, TaylorJet) else (b, a)
        c = jet.coefficients
        if type(number) is not float and not isinstance(number, (int, float)):
            lifted = constant(number, jet.base, jet.order).coefficients
            ac, bc = (c, lifted) if jet is a else (lifted, c)
        else:
            x = float(number)
            if not math.isfinite(x):
                raise DomainError("jet coefficients must be finite")
            if op == "add":
                return _jet(jet.base, [c[0] + x], c[1:])
            if op == "sub":
                if jet is a:
                    return _jet(jet.base, [c[0] - x], c[1:])
                return _jet(jet.base, [x - c[0]] + [-v for v in c[1:]])
            if op == "mul":
                return _jet(jet.base, [v * x for v in c])
            if op == "div" and jet is a:
                if x == 0.0:
                    raise SingularPointError("division by a jet vanishing at its base point")
                return _jet(jet.base, [v / x for v in c])
            ac, bc = (x,) + (0.0,) * jet.order, c
    if op == "add":
        coeffs = [x + y for x, y in zip(ac, bc)]
    elif op == "sub":
        coeffs = [x - y for x, y in zip(ac, bc)]
    elif op == "mul":
        coeffs = _product(ac, bc)
    elif op == "div":
        if _any(bc[0] == 0.0):
            raise SingularPointError("division by a jet vanishing at its base point")
        coeffs = _quotient(ac, bc)
    else:
        raise ValueError(f"unknown jet operation {op!r}")
    return _jet(jet.base, coeffs)


def ln_jet(a: TaylorJet) -> TaylorJet:
    """Jet of ``log(a)``: take ``log`` of the constant term, then integrate a'/a."""
    c = a.coefficients
    if _any(c[0] <= 0.0):
        raise DomainError("log of a jet requires a positive constant term")
    k_max = a.order
    out = [_elementwise(np.log, c[0])]
    if k_max >= 1:
        # a'/a as a series of order k_max - 1 (a' checked: (i + 1) c_i+1 can overflow), then integrated.
        da = [(i + 1) * c[i + 1] for i in range(k_max)]
        _check_finite(a.base, da)
        ratio = _quotient(da, c[:k_max])
        out += [ratio[k - 1] / k for k in range(1, k_max + 1)]
    return _jet(a.base, out)


def jet_pow(a: TaylorJet, m: int) -> TaylorJet:
    """Integer power of a jet by repeated squaring; a negative m divides once."""
    if m < 0:
        return arith(1.0, jet_pow(a, -m), "div")
    result = None
    square = a
    while m:
        if m & 1:
            result = square if result is None else arith(result, square, "mul")
        m >>= 1
        if m:
            square = arith(square, square, "mul")
    return constant(1.0, a.base, a.order) if result is None else result
