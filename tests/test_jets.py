import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torickahler.errors import DomainError, InsufficientOrderError, SingularPointError
from torickahler.jets import (
    TaylorJet,
    arith,
    constant,
    derivative,
    exp_jet,
    jet_pow,
    ln_jet,
    variable,
)
from torickahler.potentials import (
    f2_jet,
    flat_potential,
    fubini_study_potential,
    generalized_burns_potential,
)
from torickahler.scalarflat import burns_simanca_potential

from helpers import central_derivative


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


def test_derivative_extracts_k_factorial_ck():
    jet = TaylorJet(0.0, (0.0, -1.0, -0.5, -1.0 / 3.0))
    assert derivative(jet, 2) == -1.0


def test_derivative_of_reciprocal():
    # d/dt 1/(1-t) = (1-t)^-2, which is 4 at t = 1/2.
    jet = 1.0 / (1.0 - variable(0.5, 3))
    assert derivative(jet, 1) == pytest.approx(4.0, abs=1e-12)


def test_derivative_beyond_order():
    jet = constant(1.0, base=0.0, order=3)
    with pytest.raises(InsufficientOrderError):
        derivative(jet, 4)


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError):
        TaylorJet(0.0, (1.0, math.inf))
    with pytest.raises(ValueError):
        TaylorJet(0.0, ())


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
    lhs = derivative(product, 1)
    rhs = derivative(a, 1) * b.coefficients[0] + a.coefficients[0] * derivative(b, 1)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@given(st.lists(small, min_size=1, max_size=7))
@settings(max_examples=200)
def test_ln_inverts_exp(coeffs):
    a = TaylorJet(0.0, tuple(coeffs))
    back = ln_jet(exp_jet(a))
    for got, want in zip(back.coefficients, a.coefficients):
        assert got == pytest.approx(want, abs=1e-12)


def test_jet_pow_matches_repeated_multiplication():
    t = variable(1.7, 5)
    cubed = jet_pow(t, 3)
    assert derivative(cubed, 0) == pytest.approx(1.7**3, rel=1e-15)
    assert derivative(cubed, 2) == pytest.approx(6 * 1.7, rel=1e-14)
    assert derivative(cubed, 4) == 0.0


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
        got = derivative(jet, k)
        assert got == pytest.approx(expected, rel=1e-5, abs=1e-8)


def test_flat_catalog_jet_is_identically_zero():
    jet = f2_jet(flat_potential(), 7.0, 4)
    assert jet.coefficients == (0.0,) * 5
