"""Independent oracles shared by the test modules.

The finite-difference stencils deliberately know nothing about jets: they
only call scalar functions, so agreement between a jet-derived quantity and
one of these stencils is a genuine cross-check of two different
differentiation routes.  The Cauchy product and long division are the plain
loops that jet arithmetic must match bit for bit at every order, on floats
or on arrays of them.
"""

from __future__ import annotations


def central_derivative(fn, x: float, k: int, h: float, richardson: bool = True) -> float:
    """k-th derivative of fn at x from central stencils of O(h^2) accuracy."""

    def stencil(hh: float) -> float:
        if k == 1:
            return (fn(x + hh) - fn(x - hh)) / (2.0 * hh)
        if k == 2:
            return (fn(x + hh) - 2.0 * fn(x) + fn(x - hh)) / hh**2
        if k == 3:
            return (fn(x + 2 * hh) - 2.0 * fn(x + hh) + 2.0 * fn(x - hh) - fn(x - 2 * hh)) / (
                2.0 * hh**3
            )
        if k == 4:
            return (
                fn(x + 2 * hh) - 4.0 * fn(x + hh) + 6.0 * fn(x) - 4.0 * fn(x - hh) + fn(x - 2 * hh)
            ) / hh**4
        raise ValueError(f"no stencil for k={k}")

    if not richardson:
        return stencil(h)
    return (4.0 * stencil(h / 2.0) - stencil(h)) / 3.0


def cauchy_product(ac, bc) -> list:
    """Truncated product of two coefficient sequences, each sum taken left to right in the index of ``ac``."""
    out = []
    for k in range(len(ac)):
        acc = ac[0] * bc[k]
        for i in range(1, k + 1):
            acc = acc + ac[i] * bc[k - i]
        out.append(acc)
    return out


def long_division(ac, bc) -> list:
    """Power-series quotient ``ac / bc`` by long division; ``bc[0]`` must be nonzero."""
    q = []
    for k in range(len(ac)):
        acc = ac[k]
        for i in range(1, k + 1):
            acc = acc - bc[i] * q[k - i]
        q.append(acc / bc[0])
    return q
