import dataclasses
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from torickahler.curvature import hessian_t_family, scalar_curvature_reduced
from torickahler.errors import AccuracyError, DimensionError, DomainError, NonAdmissibleError
from torickahler.jets import constant
from torickahler.potentials import (
    custom_potential,
    f2_value,
    generalized_burns_potential,
)
from torickahler import cli, curvature, potentials, scalarflat
from torickahler.scalarflat import (
    boundary_match,
    burns_simanca_potential,
    delta_check,
    reconstruct_F,
    solve_boundary_coefficients,
)


def _poly_eval(coeffs, t):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _poly_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


# ---------------------------------------------------------------------------
# Exact boundary matching
# ---------------------------------------------------------------------------


def test_solve_n3():
    match = solve_boundary_coefficients(3)
    assert (match.A, match.B) == (Fraction(2), Fraction(-1))
    assert match.quotient == (Fraction(-1), Fraction(1), Fraction(1))  # t^2 + t - 1
    assert match.remainder == 0


def test_solve_n2():
    match = solve_boundary_coefficients(2)
    assert (match.A, match.B) == (Fraction(1), Fraction(0))
    assert match.quotient == (Fraction(0), Fraction(1))  # Q(t) = t


def test_solve_n1_rejected():
    with pytest.raises(DimensionError, match="boundary matching needs dimension n >= 2"):
        solve_boundary_coefficients(1)


@pytest.mark.parametrize(
    "shift, message",
    [((1, 0), r"Q\(1\) = 1 failed"), ((2, -2), "negative non-constant coefficient")],
    ids=["Q(1)", "sign"],
)
def test_burns_simanca_refuses_a_wrong_quotient(monkeypatch, shift, message):
    # At n = 3 the quotient is -1 + t + t^2; adding (1, 0) to its first two
    # coefficients makes Q(1) = 2, and (2, -2) keeps Q(1) = 1 with a -t.
    divide = scalarflat._divide_by_t_minus_1

    def altered(coeffs):
        quotient, remainder = divide(coeffs)
        return (quotient[0] + shift[0], quotient[1] + shift[1], *quotient[2:]), remainder

    monkeypatch.setattr(scalarflat, "_divide_by_t_minus_1", altered)
    with pytest.raises(NonAdmissibleError, match=message):
        burns_simanca_potential(3)


def test_the_matched_family_never_bisects(monkeypatch, capsys):
    # t - 1 divides the matched gap and A = n - 1 <= n, so the domain starts
    # at 1 exactly; a bisection there would read the gap exactly next to its root.
    def refuse(*args):
        raise AssertionError("the family's domain start bisected")

    monkeypatch.setattr(potentials, "_poly_eval", refuse)
    for n in (3, 200, 1000):
        assert burns_simanca_potential(n).domain == (1.0, math.inf)
    assert delta_check(solve_boundary_coefficients(200), [1.0, 1.5, 2.0, 5.0, 25.0]).passed
    assert cli.dispatch(["derive", "--dim", "1000"]) == 0


@pytest.mark.parametrize("n", range(2, 13))
def test_exact_division_identity(n):
    match = solve_boundary_coefficients(n)
    # (t - 1) Q(t) must reproduce t^n - A t - B coefficient for coefficient.
    product = _poly_mul([Fraction(-1), Fraction(1)], list(match.quotient))
    expected = [Fraction(0)] * (n + 1)
    expected[n] = Fraction(1)
    expected[1] = -match.A
    expected[0] += -match.B
    assert product == expected
    assert match.remainder == 0


@pytest.mark.parametrize("n", range(2, 13))
def test_quotient_is_geometric_sum_minus_constant(n):
    match = solve_boundary_coefficients(n)
    expected = tuple([Fraction(-(n - 2))] + [Fraction(1)] * (n - 1))
    assert match.quotient == expected
    assert _poly_eval(list(match.quotient), Fraction(1)) == 1


def test_matching_conditions_have_unique_solution():
    # The linear system (A+B=1, A=n-1) has determinant -1; its unique exact
    # solution is (n-1, 2-n).
    for n in range(2, 13):
        match = solve_boundary_coefficients(n)
        assert match.A == n - 1
        assert match.B == 2 - n


# ---------------------------------------------------------------------------
# The matched potential
# ---------------------------------------------------------------------------


def test_burns_simanca_n2_equals_generalized_burns():
    bs = burns_simanca_potential(2)
    gb = generalized_burns_potential()
    for t in np.linspace(1.05, 12.0, 40):
        assert f2_value(bs, float(t)) == pytest.approx(f2_value(gb, float(t)), rel=1e-13)


def test_burns_simanca_n3_value():
    # ((n-1)t + 2 - n) / (t (t^n - (n-1)t - 2 + n)) = 3 / (2 * 5) at n=3, t=2.
    assert f2_value(burns_simanca_potential(3), 2.0) == pytest.approx(0.3, abs=1e-14)


def test_burns_simanca_admissible_everywhere():
    from torickahler.potentials import admissibility

    for n in (2, 4, 6):
        pot = burns_simanca_potential(n)
        report = admissibility(pot, (1.0001, 100.0), 300)
        assert report.passed
        assert f2_value(pot, 5.0) > 0.0


def test_burns_simanca_scalar_flat_n3():
    pot = burns_simanca_potential(3)
    for t in (1.01, 1.1, 2.0, 10.0, 100.0):
        assert scalar_curvature_reduced(pot, 3, t) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("n", range(2, 9))
def test_denominator_positive_beyond_one(n):
    for t in np.linspace(1.0001, 50.0, 200):
        assert t**n - (n - 1) * t - 2 + n > 0.0
    match = solve_boundary_coefficients(n)
    assert all(c >= 0 for c in match.quotient[1:])
    assert _poly_eval(list(match.quotient), Fraction(1)) == 1


# ---------------------------------------------------------------------------
# delta positivity and the determinant factorization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 12, 50, 200, 300])
def test_integer_horner_matches_fraction_horner(n):
    # The library evaluates Q on integers over a common denominator; this
    # file's _poly_eval is the plain Fraction Horner rule it must agree with.
    matches = [solve_boundary_coefficients(n), boundary_match(n, Fraction(1, 3), Fraction(2, 7))]
    for match in matches:
        for t in (1.0, 1.0000001, 1.5, 2.0, 3.7, 5.0, 25.0, 0.3):
            exact = _poly_eval(list(match.quotient), Fraction(t))
            assert scalarflat._poly_eval(match._quotient_form, t) == exact
            if abs(exact) < 1e300:
                assert match.quotient_value(t) == float(exact)
            if match.remainder == 0 and t >= 1.0:
                assert match.delta(t) == float(2**n * exact / Fraction(t) ** n)
    assert matches[0].quotient_value(1.0) == 1.0
    assert scalarflat._poly_eval(matches[0]._quotient_form, 1) == 1


def test_delta_at_one():
    match = solve_boundary_coefficients(3)
    assert match.delta(1.0) == pytest.approx(8.0, abs=1e-14)


def test_delta_factorization_n2_unit_point():
    match = solve_boundary_coefficients(2)
    pot = burns_simanca_potential(2)
    h = hessian_t_family(pot, [1.0, 1.0])
    # All three facet values at (1,1) are 1, so det G^{-1} = delta(2).
    assert np.linalg.det(h.G_inv) == pytest.approx(2.0, abs=1e-13)
    assert match.delta(2.0) * 1.0 * 1.0 * 1.0 == pytest.approx(2.0, abs=1e-13)


@pytest.mark.parametrize("n", (2, 3, 5))
def test_delta_check_passes_for_matched_coefficients(n):
    # Determinants grow like t^n, so the absolute 1e-10 gate is checked on
    # moderate t; larger samples are still covered by the relative gate inside.
    match = solve_boundary_coefficients(n)
    report = delta_check(match, [1.0, 1.2, 2.0, 3.5, 5.0])
    assert report.passed
    assert report.max_det_deviation < 1e-10
    wide = delta_check(match, [1.0, 2.0, 25.0, 100.0])
    assert wide.passed


@pytest.mark.parametrize("n", (3, 200))
def test_delta_check_fails_for_scaled_quotient(n):
    # det G^{-1} underflows toward 1e-143 at n = 200; the check compares logs,
    # so a relative error of 1e-6 in delta still shows.
    match = solve_boundary_coefficients(n)
    assert delta_check(match, [1.0, 1.5, 2.0, 5.0, 25.0]).passed
    scaled = dataclasses.replace(
        match, quotient=tuple(c * Fraction(1_000_001, 1_000_000) for c in match.quotient)
    )
    report = delta_check(scaled, [1.0, 1.5, 2.0, 5.0, 25.0])
    assert not report.passed
    assert report.max_det_deviation == pytest.approx(math.log1p(1e-6), rel=1e-4)


def test_delta_check_reports_the_first_failure():
    # Scaling Q's leading coefficient by 1 + 1e-6 puts a relative error of
    # 1e-6 t^2 / Q(t) into delta at n = 3, larger at t = 25 than at t = 1.5.
    # The report names the first sampled t, with the deviation found up to
    # there: log(Q_scaled(1.5) / Q(1.5)), not the larger one at t = 25.
    match = solve_boundary_coefficients(3)
    leading = match.quotient[-1] * Fraction(1_000_001, 1_000_000)
    scaled = dataclasses.replace(match, quotient=match.quotient[:-1] + (leading,))
    report = delta_check(scaled, [1.0, 1.5, 2.0, 5.0, 25.0])
    assert not report.passed
    assert report.witness == 1.5
    expected = math.log(scaled.quotient_value(1.5) / match.quotient_value(1.5))
    assert report.max_det_deviation == pytest.approx(expected, rel=1e-3)


@pytest.mark.parametrize("n", (2, 3, 12, 50, 200))
def test_delta_check_builds_only_the_inverse_hessian(monkeypatch, n):
    # The blocks that slogdet sees, joined, must be bit for bit the stack of
    # the G^{-1} of hessian_t_family at the same seeded points, two per
    # sampled t in order; no block may hold more than STENCIL_BLOCK // n^2
    # matrices (one past that), and hessian_t_family, which builds G, must
    # not run.  The 8 matrices come in blocks of 8 up to n = 32, 3 at n = 50
    # and 1 at n = 200.
    match = solve_boundary_coefficients(n)
    ts, seed = [1.0, 1.5, 2.0, 5.0, 25.0], 3
    pot = scalarflat.scalar_flat_family(n, float(match.A), float(match.B))
    rng = np.random.default_rng(seed)
    expected = []
    for t in ts[1:]:
        for _ in range(2):
            weights = rng.uniform(0.2, 1.0, n)
            expected.append(hessian_t_family(pot, t * weights / weights.sum()).G_inv)
    expected = np.stack(expected).tobytes()
    seen, sizes = [], []
    slogdet = np.linalg.slogdet

    def recording(matrix):
        seen.append(matrix.tobytes())
        sizes.append(len(matrix))
        return slogdet(matrix)

    def no_G(*args):
        raise AssertionError("delta_check built G")

    monkeypatch.setattr(np.linalg, "slogdet", recording)
    monkeypatch.setattr(curvature, "hessian_t_family", no_G)
    assert delta_check(match, ts, seed=seed).passed
    assert b"".join(seen) == expected
    assert max(sizes) == min(8, max(1, curvature.STENCIL_BLOCK // n**2))


@pytest.mark.parametrize("n", (200, 1000))
def test_delta_check_holds_at_most_two_matrices(n):
    # The factorization pass keeps one n x n buffer plus what slogdet copies
    # of it; the whole stack of 8 G^{-1} would be 8 n^2 floats.
    match = solve_boundary_coefficients(n)
    ts = [1.0, 1.5, 2.0, 5.0, 25.0]
    assert delta_check(match, ts).passed  # made once: the family's domain and the quotient's integer form
    tracemalloc.start()
    try:
        assert delta_check(match, ts).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n**2


@pytest.mark.parametrize("t", [1e160, 1e308])
def test_delta_check_refuses_a_t_where_the_inverse_hessian_overflows(t):
    # The products x_i x_j that G^{-1} is built from overflow past t ~ 1e154;
    # slogdet then read a NaN log-determinant, whose deviation passed the check.
    with pytest.raises(DomainError, match=re.escape(f"G^-1 overflows at t={t};")):
        delta_check(solve_boundary_coefficients(3), [1.0, 2.0, t])


def test_delta_is_exact_beyond_float_range_of_its_parts():
    # Q(25) ~ 25^299 overflows a float at n = 300; delta = 2^n t^-n Q(t) ~ 2^n / (t - 1) does not.
    match = solve_boundary_coefficients(300)
    assert match.delta(25.0) == pytest.approx(2.0**300 / 24.0, rel=1e-12)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", ["delta", "quotient_value", "delta_check"])
def test_non_finite_t_is_a_domain_error(entry, t):
    # Fraction() raises ValueError on NaN and OverflowError on an infinity;
    # neither may leak past the boundary-match entry points.
    match = solve_boundary_coefficients(3)
    call = {
        "delta": match.delta,
        "quotient_value": match.quotient_value,
        "delta_check": lambda t: delta_check(match, [2.0, t]),
    }[entry]
    with pytest.raises(DomainError):
        call(t)


@pytest.mark.parametrize("a, b, message", [(math.nan, 0, "a=nan"), (0, math.inf, "b=inf")])
def test_boundary_match_refuses_a_non_finite_coefficient(a, b, message):
    # Fraction() would raise a bare ValueError (NaN) or OverflowError (inf).
    with pytest.raises(DomainError, match=f"^{message} must be finite$"):
        boundary_match(3, a, b)


def test_quotient_value_beyond_float_range_is_a_domain_error():
    # Q(1e200) ~ 1e400 at n = 3 is exact as a rational but not a float.
    with pytest.raises(DomainError, match="overflows"):
        solve_boundary_coefficients(3).quotient_value(1e200)


def test_delta_check_fails_for_mismatched_coefficients():
    bad = boundary_match(3, 0, 0)
    assert bad.remainder != 0
    report = delta_check(bad, [1.0, 2.0])
    assert not report.passed
    assert report.witness == 1.0


# ---------------------------------------------------------------------------
# Reconstruction of F and the boundary diagnostic
# ---------------------------------------------------------------------------


def test_reconstruct_burns_simanca_n2_affine_gauge():
    # F'' agrees with the product-metric potential, so the reconstruction can
    # differ from its closed form only by an affine function of t.
    bs = burns_simanca_potential(2)
    closed = generalized_burns_potential().value_fn
    ts = [1.3, 1.7, 2.5, 4.0]
    diffs = [reconstruct_F(bs, t)[0] - closed(t) for t in ts]
    slopes = [(diffs[i + 1] - diffs[i]) / (ts[i + 1] - ts[i]) for i in range(3)]
    for i in range(2):
        assert slopes[i + 1] == pytest.approx(slopes[i], abs=1e-8)


def test_reconstruct_first_derivative():
    from helpers import central_derivative

    bs = burns_simanca_potential(3)
    value_at = lambda t: reconstruct_F(bs, t)[0]
    for t in (1.6, 2.5):
        fd = central_derivative(value_at, t, 1, 1e-5)
        assert reconstruct_F(bs, t)[1] == pytest.approx(fd, abs=1e-8)


@pytest.mark.parametrize("order", [32, 64, 128, 256, 512])
def test_gauss_legendre_rule(order):
    # Nodes are numpy's to roundoff; the rule integrates x^k exactly for k < 2 order.
    nodes, weights = scalarflat._gauss_legendre(order)
    assert not nodes.flags.writeable and not weights.flags.writeable
    reference, _ = np.polynomial.legendre.leggauss(order)
    assert np.max(np.abs(nodes - reference)) <= 4e-16
    assert abs(weights.sum() - 2.0) <= 1e-14
    for k in (2, order // 2, 2 * order - 2):
        assert float(weights @ nodes**k) == pytest.approx(2.0 / (k + 1), rel=1e-13)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("anchor, t", [(1.02, 1.5), (1.02, 3.0), (1.02, 7.3), (2.0, 1.3), (1.5, 25.0)])
def test_reconstruct_matches_mpmath(n, anchor, t):
    # An mpmath quadrature of the same F'' is the reference; anchor 1.02 sits
    # 0.02 from the pole at t = 1, where F'' is largest.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 30
    A, B = n - 1, 2 - n
    f2 = lambda x: (A * x + B) / (x * (x**n - A * x - B))  # noqa: E731
    T = mpmath.mpf(t)
    value = mpmath.quad(lambda x: (T - x) * f2(x), [anchor, t])
    slope = mpmath.quad(f2, [anchor, t])
    F, dF = reconstruct_F(burns_simanca_potential(n), t, anchor=anchor)
    assert abs(F - value) <= 1e-12 * (1.0 + abs(value))
    assert abs(dF - slope) <= 1e-12 * (1.0 + abs(slope))


def test_reconstruct_makes_one_batched_F2_call_per_rule(monkeypatch):
    sizes = []

    def recording(pot, t):
        sizes.append(np.shape(t))
        return f2_value(pot, t)

    monkeypatch.setattr(scalarflat, "f2_value", recording)
    reconstruct_F(burns_simanca_potential(3), 1.6, anchor=1.1)
    assert sizes[:2] == [(32,), (64,)]
    assert sizes == [(order,) for order in scalarflat._QUADRATURE_ORDERS[: len(sizes)]]


def test_reconstruct_flat_at_anchor():
    from torickahler.potentials import flat_potential

    assert reconstruct_F(flat_potential(), 1.0, anchor=1.0) == (0.0, 0.0)


def test_reconstruct_reports_nonconvergence():
    wild = custom_potential(
        lambda t, order: constant(np.sin(3.0e7 * t) / t, base=t, order=order),
        (0.1, math.inf),
        label="oscillatory",
    )
    with pytest.raises(AccuracyError):
        reconstruct_F(wild, 9.0, anchor=0.5)
