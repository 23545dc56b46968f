import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from torickahler import jets
from torickahler.errors import DomainError, SingularPointError
from torickahler.jets import (
    TaylorJet,
    arith,
    constant,
    jet_pow,
    ln_jet,
    variable,
)
from torickahler.potentials import (
    f2_jet,
    flat_potential,
    fubini_study_potential,
    generalized_burns_potential,
    scalar_flat_family,
)
from torickahler.scalarflat import burns_simanca_potential

from helpers import cauchy_product, central_derivative, long_division


def test_lift_constant():
    jet = constant(3.0, base=1.0, order=2)
    assert jet.coefficients == (3.0, 0.0, 0.0)


def test_lift_variable():
    jet = variable(2.0, order=3)
    assert jet.coefficients == (2.0, 1.0, 0.0, 0.0)


def test_lift_degenerate_order():
    assert constant(0.0, base=0.0, order=0).coefficients == (0.0,)
    assert variable(2.0, order=0).coefficients == (2.0,)


def test_lift_rejects_negative_order():
    with pytest.raises(ValueError):
        constant(1.0, base=0.0, order=-1)
    with pytest.raises(ValueError):
        variable(1.0, order=-1)


def test_mul_one_plus_t_times_one_minus_t():
    a = TaylorJet(0.0, (1.0, 1.0, 0.0))
    b = TaylorJet(0.0, (1.0, -1.0, 0.0))
    assert arith(a, b, "mul").coefficients == (1.0, 0.0, -1.0)


def test_div_geometric_series():
    one = TaylorJet(0.0, (1.0, 0.0, 0.0))
    denom = TaylorJet(0.0, (1.0, 1.0, 0.0))
    assert arith(one, denom, "div").coefficients == (1.0, -1.0, 1.0)


def test_div_pole_at_base():
    with pytest.raises(SingularPointError):
        arith(TaylorJet(0.0, (1.0, 0.0)), TaylorJet(0.0, (0.0, 1.0)), "div")


def test_arith_rejects_mismatched_jets():
    with pytest.raises(ValueError):
        arith(constant(1.0, base=0.0, order=2), constant(1.0, base=1.0, order=2), "add")
    with pytest.raises(ValueError):
        arith(constant(1.0, base=0.0, order=2), constant(1.0, base=0.0, order=3), "add")
    # Jets sharing one base object still have their orders compared.
    t = variable(0.5, 2)
    for op in ("add", "sub", "mul", "div"):
        with pytest.raises(ValueError, match="jet orders differ"):
            arith(t, variable(t.base, 3), op)


def test_ln_mercator_series():
    jet = ln_jet(1.0 - variable(0.0, 3))
    expected = (0.0, -1.0, -0.5, -1.0 / 3.0)
    assert jet.coefficients == pytest.approx(expected, abs=1e-15)


def test_ln_of_constant_e():
    jet = ln_jet(constant(math.e, base=5.0, order=4))
    assert jet.coefficients == pytest.approx((1.0, 0.0, 0.0, 0.0, 0.0), abs=1e-15)


def test_ln_rejects_nonpositive_constant_term():
    with pytest.raises(DomainError):
        ln_jet(TaylorJet(0.0, (0.0, 1.0)))
    with pytest.raises(DomainError):
        ln_jet(TaylorJet(0.0, (-1.0, 1.0)))


def test_derivative_of_reciprocal():
    # d/dt 1/(1-t) = (1-t)^-2, which is 4 at t = 1/2.
    jet = 1.0 / (1.0 - variable(0.5, 3))
    assert jet.coefficients[1] == pytest.approx(4.0, abs=1e-12)


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError):
        TaylorJet(0.0, (1.0, math.inf))
    with pytest.raises(ValueError):
        TaylorJet(0.0, ())


def test_jets_are_slotted_and_immutable():
    jet = variable(1.0, 2)
    assert not hasattr(jet, "__dict__")
    for name in ("base", "coefficients", "extra"):
        with pytest.raises(AttributeError):
            setattr(jet, name, 2.0)
    with pytest.raises(AttributeError):
        del jet.base
    assert (jet.base, jet.coefficients) == (1.0, (1.0, 1.0, 0.0))
    batch = variable(np.array([1.0, 2.0]), 2)
    for original in (jet, batch):
        for clone in (copy.copy(original), copy.deepcopy(original), pickle.loads(pickle.dumps(original))):
            assert type(clone) is TaylorJet
            assert np.array_equal(clone.base, original.base)
            assert all(map(np.array_equal, clone.coefficients, original.coefficients))


small = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@given(
    st.lists(small, min_size=3, max_size=7),
    st.lists(small, min_size=3, max_size=7),
)
def test_leibniz_rule_for_first_derivative(ac, bc):
    size = min(len(ac), len(bc))
    a = TaylorJet(0.3, tuple(ac[:size]))
    b = TaylorJet(0.3, tuple(bc[:size]))
    product = arith(a, b, "mul")
    lhs = product.coefficients[1]
    rhs = a.coefficients[1] * b.coefficients[0] + a.coefficients[0] * b.coefficients[1]
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_jet_pow_matches_repeated_multiplication():
    t = variable(1.7, 5)
    cubed = jet_pow(t, 3)
    assert cubed.coefficients[0] == pytest.approx(1.7**3, rel=1e-15)
    assert 2 * cubed.coefficients[2] == pytest.approx(6 * 1.7, rel=1e-14)
    assert 24 * cubed.coefficients[4] == 0.0


# Larger steps for k >= 3: at h = 1e-4 the rounding noise of a k-th order
# stencil (~eps/h^k) swamps the h^2 truncation gain.
FD_STEPS = {1: 1e-4, 2: 1e-4, 3: 1e-3, 4: 1e-2}


@pytest.mark.parametrize(
    "pot, n, t",
    [
        (fubini_study_potential(), None, 0.5),
        (generalized_burns_potential(), None, 2.0),
        (burns_simanca_potential(3), 3, 2.0),
        (burns_simanca_potential(5), 5, 1.6),
    ],
)
def test_jet_derivatives_match_finite_differences(pot, n, t):
    jet = f2_jet(pot, t, 6)

    def f2(tau):
        return f2_jet(pot, tau, 0).value

    for k in range(1, 5):
        expected = central_derivative(f2, t, k, FD_STEPS[k])
        got = math.factorial(k) * jet.coefficients[k]
        assert got == pytest.approx(expected, rel=1e-5, abs=1e-8)


def test_flat_catalog_jet_is_identically_zero():
    jet = f2_jet(flat_potential(), 7.0, 4)
    assert jet.coefficients == (0.0,) * 5


def test_misuse_raises_domain_error():
    with pytest.raises(DomainError):
        constant(1.0, base=0.0, order=-1)
    with pytest.raises(DomainError):
        variable(1.0, order=-1)
    with pytest.raises(DomainError):
        arith(constant(1.0, base=0.0, order=2), constant(1.0, base=1.0, order=2), "add")
    with pytest.raises(DomainError):
        arith(constant(1.0, base=0.0, order=2), constant(1.0, base=0.0, order=3), "add")
    with pytest.raises(DomainError, match=r"a constant of shape \(2, 2\) does not fit a batch of shape \(2,\)"):
        constant(np.ones((2, 1)), base=np.zeros(2), order=1)


def test_arith_rejects_an_unknown_operation():
    t = variable(0.5, 2)
    with pytest.raises(ValueError, match="unknown jet operation 'pow'"):
        arith(t, t, "pow")


# ---------------------------------------------------------------------------
# Batched jets
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps


def _batch(base: np.ndarray, rows) -> TaylorJet:
    """One batched jet from per-row coefficient lists of equal length."""
    return TaylorJet(base, tuple(np.array(column) for column in zip(*rows)))


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


@st.composite
def jet_pairs(draw):
    order = draw(st.integers(0, 6))
    size = draw(st.integers(1, 5))
    row = st.lists(small, min_size=order + 1, max_size=order + 1)
    a_rows = draw(st.lists(row, min_size=size, max_size=size))
    b_rows = draw(st.lists(row, min_size=size, max_size=size))
    # Divisors and logarithms need a constant term bounded away from zero.
    lead = st.floats(min_value=0.25, max_value=2.0)
    b_rows = [[draw(lead)] + r[1:] for r in b_rows]
    base = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=size, max_size=size)))
    return base, a_rows, b_rows


@given(jet_pairs())
@settings(max_examples=150, deadline=None)
def test_batched_jets_match_row_by_row(data):
    base, a_rows, b_rows = data
    a, b = _batch(base, a_rows), _batch(base, b_rows)
    exact = [(lambda x, y, op=op: arith(x, y, op)) for op in ("add", "sub", "mul", "div")]
    exact += [(lambda x, y, m=m: jet_pow(y, m)) for m in (0, 1, 2, 5, -3)]
    for fn in exact:
        batched = fn(a, b)
        for r in range(len(base)):
            row_a = TaylorJet(float(base[r]), tuple(a_rows[r]))
            row = fn(row_a, TaylorJet(float(base[r]), tuple(b_rows[r])))
            assert [_bits(c[r]) for c in batched.coefficients] == [_bits(c) for c in row.coefficients]
    # log may round its constant term differently in numpy's vector and
    # scalar loops; the rest of the recursion propagates it linearly.
    batched = ln_jet(b)
    for r in range(len(base)):
        row = ln_jet(TaylorJet(float(base[r]), tuple(b_rows[r])))
        scale = max(abs(c) for c in row.coefficients)
        for c_batch, c_row in zip(batched.coefficients, row.coefficients):
            assert abs(c_batch[r] - c_row) <= 4.0 * EPS * scale


def _repeated_product(a: TaylorJet, m: int) -> TaylorJet:
    result = constant(1.0, a.base, a.order)
    for _ in range(abs(m)):
        result = arith(result, a, "mul")
    return result if m >= 0 else arith(constant(1.0, a.base, a.order), result, "div")


@pytest.mark.parametrize("m", [0, 1, 2, 3, 9, 200, -3])
@pytest.mark.parametrize(
    "coeffs",
    [
        (1.01, 0.3, -0.2, 0.05, 0.01, -0.004),
        (0.0, 1.0, 0.5, -0.25, 0.125, 0.0625),
        (1.7, 1.0, 0.0, 0.0, 0.0, 0.0),
    ],
    ids=["mixed", "zero_constant_term", "variable"],
)
def test_jet_pow_by_squaring_matches_repeated_multiplication(coeffs, m):
    a = TaylorJet(0.4, coeffs)
    if m < 0 and coeffs[0] == 0.0:
        with pytest.raises(SingularPointError):
            jet_pow(a, m)
        return
    want = _repeated_product(a, m).coefficients
    assert jet_pow(a, m).coefficients == pytest.approx(want, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("n", [6, 7, 8])
def test_family_jet_matches_mpmath_reference(n):
    # Guards the plain (not fsum) sums and the powers by squaring: every
    # coefficient of the order-6 F'' jet against a 30-digit Taylor expansion,
    # the error scaled by the jet's size at the same power of t.  The worst
    # case over these points is about 420 eps (the order-6 coefficient at
    # n = 8, t = 1.05), and about 220 eps with fsum and repeated products.
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for a, b in ((n - 1.0, 2.0 - n), (1.5, -0.5), (-1.2, 1.7)):
            pot = scalar_flat_family(n, a, b)
            start = max(pot.domain[0], 0.5)
            for t in (start + 0.05, start + 0.5, start + 2.0, start + 6.0):
                jet = f2_jet(pot, t, 6)
                A, B, T = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(t)
                ref = mpmath.taylor(lambda u: (A * u + B) / (u * (u**n - A * u - B)), T, 6)
                for k, (got, want) in enumerate(zip(jet.coefficients, ref)):
                    scale = max(abs(r) * T ** (j - k) for j, r in enumerate(ref))
                    worst = max(worst, float(abs(got - want) / scale))
    assert worst <= 2048 * EPS


# ---------------------------------------------------------------------------
# Numbers as operands
# ---------------------------------------------------------------------------

# Each operator with a number, beside the constant-jet arith() it stands for.
NUMBER_OPERATORS = {
    "jet + x": (lambda j, x: j + x, lambda j, c: arith(j, c, "add")),
    "x + jet": (lambda j, x: x + j, lambda j, c: arith(c, j, "add")),
    "jet - x": (lambda j, x: j - x, lambda j, c: arith(j, c, "sub")),
    "x - jet": (lambda j, x: x - j, lambda j, c: arith(c, j, "sub")),
    "jet * x": (lambda j, x: j * x, lambda j, c: arith(j, c, "mul")),
    "x * jet": (lambda j, x: x * j, lambda j, c: arith(c, j, "mul")),
    "jet / x": (lambda j, x: j / x, lambda j, c: arith(j, c, "div")),
    "x / jet": (lambda j, x: x / j, lambda j, c: arith(c, j, "div")),
    "-jet": (lambda j, x: -j, lambda j, c: arith(constant(0.0, j.base, j.order), j, "sub")),
}

nonzero_numbers = st.one_of(
    st.floats(0.25, 4.0), st.floats(-4.0, -0.25), st.integers(1, 5), st.integers(-5, -1)
)


@given(jet_pairs(), nonzero_numbers)
@settings(max_examples=150, deadline=None)
def test_number_operands_match_constant_jets(data, x):
    # Equal values, so equal bits up to the sign of a zero.  The jet is the
    # strategy's divisor, whose constant term is bounded away from zero.
    base, _, rows = data
    scalar = [TaylorJet(float(base[r]), tuple(rows[r])) for r in range(len(base))]
    for jet in scalar + [_batch(base, rows)]:
        lifted = constant(x, jet.base, jet.order)
        for name, (with_number, with_constant) in NUMBER_OPERATORS.items():
            got, want = with_number(jet, x), with_constant(jet, lifted)
            assert got.base is jet.base, name
            for c_got, c_want in zip(got.coefficients, want.coefficients, strict=True):
                assert np.array_equal(c_got, c_want), name
                assert type(c_got) is type(c_want), name


def test_number_operands_keep_the_jet_checks():
    jet = variable(0.5, 3)
    with pytest.raises(SingularPointError):
        jet / 0.0
    for bad in (math.inf, -math.inf, math.nan):
        for op in (lambda: jet + bad, lambda: bad - jet, lambda: jet * bad, lambda: jet / bad):
            with pytest.raises(DomainError):
                op()


# ---------------------------------------------------------------------------
# Bits against the plain loops
# ---------------------------------------------------------------------------

# Signed zeros, and magnitudes whose sums round, as well as small values.
coefficient = st.one_of(st.sampled_from([0.0, -0.0]), small, st.floats(-1e6, 1e6))
lead = st.one_of(st.floats(0.25, 4.0), st.floats(-4.0, -0.25))


def _hex(c, shape) -> list[str]:
    return [float(v).hex() for v in np.broadcast_to(c, shape).ravel()]


def _assert_bits(jet: TaylorJet, want, shape) -> None:
    assert len(jet.coefficients) == len(want)
    for c_got, c_want in zip(jet.coefficients, want):
        assert _hex(c_got, shape) == _hex(c_want, shape)


def _pow_reference(c, m: int) -> list:
    """jet_pow's squaring on coefficient sequences, every product the plain loop."""
    one = [1.0] + [0.0] * (len(c) - 1)
    if m < 0:
        return long_division(one, _pow_reference(c, -m))
    result, square = None, c
    while m:
        if m & 1:
            result = square if result is None else cauchy_product(result, square)
        m >>= 1
        if m:
            square = cauchy_product(square, square)
    return one if result is None else result


@st.composite
def jet_pair_rows(draw):
    """Two coefficient lists of one order from 0 to 6, the second a divisor, and a batch size (0: scalar)."""
    order = draw(st.integers(0, 6))
    size = draw(st.integers(0, 4))
    shape = () if size == 0 else (size,)

    def column(strategy):
        if size == 0:
            return draw(strategy)
        return np.array(draw(st.lists(strategy, min_size=size, max_size=size)))

    a = [column(coefficient) for _ in range(order + 1)]
    b = [column(lead)] + [column(coefficient) for _ in range(order)]
    return shape, a, b


@given(jet_pair_rows(), st.one_of(lead, st.sampled_from([0.0, -0.0])))
@settings(max_examples=200, deadline=None)
# (1 + 2^-53) + 2^-53 rounds to 1 twice; 1 + (2^-53 + 2^-53) does not.
@example(((), [1.0, 1.0, 1.0], [2.0**-53, 2.0**-53, 1.0]), 1.0)
def test_jet_arithmetic_matches_the_plain_loops_bit_for_bit(data, x):
    shape, ac, bc = data
    base = 0.5 if shape == () else np.linspace(0.1, 0.9, shape[0])
    a, b = TaylorJet(base, tuple(ac)), TaylorJet(base, tuple(bc))
    tail = [-v for v in bc[1:]]
    expected = {
        "a + b": (a + b, [p + q for p, q in zip(ac, bc)]),
        "a - b": (a - b, [p - q for p, q in zip(ac, bc)]),
        "a * b": (a * b, cauchy_product(ac, bc)),
        "a / b": (a / b, long_division(ac, bc)),
        "b + x": (b + x, [bc[0] + x] + bc[1:]),
        "x + b": (x + b, [bc[0] + x] + bc[1:]),
        "b - x": (b - x, [bc[0] - x] + bc[1:]),
        "x - b": (x - b, [x - bc[0]] + tail),
        "-b": (-b, [0.0 - bc[0]] + tail),
        "b * x": (b * x, [v * x for v in bc]),
        "x * b": (x * b, [v * x for v in bc]),
        "x / b": (x / b, long_division([x] + [0.0] * (len(bc) - 1), bc)),
    }
    if x != 0.0:
        expected["b / x"] = (b / x, [v / x for v in bc])
    for m in (0, 1, 2, 3, 5, -2):
        expected[f"b ** {m}"] = (jet_pow(b, m), _pow_reference(bc, m))
    if not np.any(bc[0] <= 0.0):
        k_max = len(bc) - 1
        ratio = long_division([(i + 1) * bc[i + 1] for i in range(k_max)], bc[:k_max])
        log0 = np.log(bc[0]) if shape else float(np.log(bc[0]))
        expected["ln b"] = (ln_jet(b), [log0] + [ratio[k - 1] / k for k in range(1, k_max + 1)])
    for name, (got, want) in expected.items():
        assert got.base is base, name
        _assert_bits(got, want, shape)


@pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batched"])
def test_every_construction_path_refuses_an_overflow(batch):
    def jet(*coefficients):
        if batch:
            return TaylorJet(np.array([0.5, 0.5]), tuple(np.full(2, c) for c in coefficients))
        return TaylorJet(0.5, coefficients)

    big = jet(1e200, 1.0, 1.0)
    overflows = {
        "product": lambda: big * big,
        "quotient": lambda: jet(1e200) / jet(1e-200),
        "number quotient": lambda: big / 1e-200,
        "jet + number": lambda: jet(1.7e308, 1.0, 1.0) + 1.7e308,
        "number - jet": lambda: -1.7e308 - jet(1.7e308, 1.0, 1.0),
        # 3 c_3 overflows in a'; refused before the division, where it would meet inf - inf.
        "ln_jet a'": lambda: ln_jet(jet(1.0, 1.0, 1e308, 1e308)),
        "variable(inf)": lambda: variable(np.array([0.5, math.inf]) if batch else math.inf, 2),
        "constant(nan)": lambda: constant(math.nan, np.array([0.5, 0.5]) if batch else 0.5, 2),
        "jet + inf": lambda: big + math.inf,
        "inf - jet": lambda: math.inf - big,
    }
    for name, fn in overflows.items():
        with np.errstate(over="ignore", invalid="raise"), pytest.raises(DomainError):
            fn()


def test_each_operator_calls_arith_once(monkeypatch):
    # perfbench's tracer counts jet arithmetic by wrapping jets.arith by name.
    ops = []
    original = jets.arith

    def counting(a, b, op):
        ops.append(op)
        return original(a, b, op)

    monkeypatch.setattr(jets, "arith", counting)
    for j in (variable(0.7, 3), variable(np.array([0.7, 1.3]), 3)):
        cases = [
            (lambda: j + 2.0, "add"), (lambda: 2.0 + j, "add"), (lambda: j + j, "add"),
            (lambda: j - 2.0, "sub"), (lambda: 2.0 - j, "sub"), (lambda: j - j, "sub"), (lambda: -j, "sub"),
            (lambda: j * 2.0, "mul"), (lambda: 2.0 * j, "mul"), (lambda: j * j, "mul"),
            (lambda: j / 2.0, "div"), (lambda: 2.0 / j, "div"), (lambda: j / j, "div"),
        ]
        for fn, op in cases:
            ops.clear()
            fn()
            assert ops == [op]
