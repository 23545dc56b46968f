"""Acceptance suite: one test per criterion, each printing its pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (or execute this file directly
for the plain PASS/FAIL listing).  Tolerances are fixed here, not tuned at run
time.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from torickahler.curvature import (
    abreu_t_window,
    hessian_t_family,
    legendre_roundtrip,
    scalar_curvature_abreu,
    scalar_curvature_reduced,
)
from torickahler.asymptotics import decay_scan
from torickahler.errors import NonAdmissibleError
from torickahler.jets import variable
from torickahler.potentials import (
    RadialKahlerPotential,
    custom_potential,
    f2_value,
    flat_potential,
    flat_radial,
    fubini_study_potential,
    fubini_study_radial,
    generalized_burns_potential,
    radial_jet,
    scalar_flat_family,
    symplectic_evaluator,
)
from torickahler.scalarflat import burns_simanca_potential, solve_boundary_coefficients


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_01_fubini_study_constancy():
    rng = np.random.default_rng(101)
    pot = fubini_study_potential()
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 6):
        for t in rng.uniform(0.02, 0.98, 20):
            worst = max(worst, abs(scalar_curvature_reduced(pot, n, float(t)) - n * (n + 1)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    _report(1, "fubini_study_constancy", ok, f"max |S - n(n+1)| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_generalized_burns_values():
    pot = generalized_burns_potential()
    worst = 0.0
    for n in range(2, 7):
        for t in (1.5, 2.0, 5.0, 10.0):
            s = scalar_curvature_reduced(pot, n, t)
            worst = max(worst, abs(s * t * t - (n * n - 3 * n + 2)))
    zero_dims = [n for n in range(1, 7) if n * n - 3 * n + 2 == 0]
    flat_small = all(
        abs(scalar_curvature_reduced(pot, n, t)) < 1e-8
        for n in (1, 2)
        for t in (1.5, 2.0, 5.0, 10.0)
    )
    curved_large = all(
        abs(scalar_curvature_reduced(pot, n, 2.0)) > 1e-3 for n in range(3, 7)
    )
    ok = worst < 1e-8 and zero_dims == [1, 2] and flat_small and curved_large
    _report(2, "generalized_burns_values", ok, f"max |S t^2 - (n^2-3n+2)| = {worst:.2e}")


def test_criterion_03_burns_simanca_scalar_flat():
    worst = 0.0
    for n in range(2, 7):
        pot = burns_simanca_potential(n)
        for t in (1.01, 1.1, 2.0, 10.0, 100.0):
            worst = max(worst, abs(scalar_curvature_reduced(pot, n, t)))
    ok = worst < 1e-9
    _report(3, "burns_simanca_scalar_flat", ok, f"max |S| = {worst:.2e}")


def test_criterion_04_whole_family_scalar_flat():
    rng = np.random.default_rng(104)
    worst = 0.0
    draws = 0
    while draws < 200:
        n = int(rng.integers(2, 7))
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-2.0, 2.0)
        pot = scalar_flat_family(n, a, b)
        t = max(0.5, pot.domain[0]) + rng.uniform(0.05, 6.0)
        if t**n - (a * t + b) < 0.05 * max(1.0, t**n):
            continue
        worst = max(worst, abs(scalar_curvature_reduced(pot, n, t)))
        draws += 1
    ok = worst < 1e-9
    _report(4, "whole_family_scalar_flat", ok, f"200 draws, max |S| = {worst:.2e}")


def test_criterion_05_boundary_matching_exact():
    start = time.perf_counter()
    ok = True
    for n in range(2, 13):
        match = solve_boundary_coefficients(n)
        expected_q = tuple([Fraction(-(n - 2))] + [Fraction(1)] * (n - 1))
        ok = ok and match.A == n - 1 and match.B == 2 - n
        ok = ok and match.quotient == expected_q and match.remainder == 0
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 0.1
    _report(5, "boundary_matching_exact", ok, f"n=2..12 exact rational, {elapsed * 1e3:.1f}ms")


def test_criterion_06_cross_oracle_agreement():
    rng = np.random.default_rng(106)
    start = time.perf_counter()
    worst = 0.0
    count = 0
    while count < 50:
        kind = count % 4
        if kind == 0:
            n = int(rng.integers(1, 5))
            pot = flat_potential()
            x = rng.uniform(0.4, 1.2, n)
        elif kind == 1:
            n = int(rng.integers(1, 5))
            pot = fubini_study_potential()
            x = rng.uniform(0.12, 0.8 / n, n)
            if x.sum() > 0.8:
                continue
        elif kind == 2:
            n = int(rng.integers(1, 5))
            pot = generalized_burns_potential()
            t = rng.uniform(1.6, 3.0)
            w = rng.uniform(0.5, 1.0, n)
            x = t * w / w.sum()
        else:
            n = int(rng.integers(2, 5))
            pot = burns_simanca_potential(n)
            t = rng.uniform(1.6, 3.0)
            w = rng.uniform(0.5, 1.0, n)
            x = t * w / w.sum()
        t = float(x.sum())
        lo, hi = pot.domain
        margins = [float(np.min(x)), t - lo if np.isfinite(lo) else np.inf]
        if np.isfinite(hi):
            margins.append(hi - t)
        step = min(0.02 * (1.0 + float(np.linalg.norm(x))), min(margins) / 4.5)
        g = symplectic_evaluator(pot, t_window=abreu_t_window(x, step))
        s_fd = scalar_curvature_abreu(g, x, step=step)
        s_jet = scalar_curvature_reduced(pot, n, t)
        worst = max(worst, abs(s_fd - s_jet))
        count += 1
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    _report(6, "cross_oracle_agreement", ok, f"50 samples, max gap = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_07_legendre_roundtrip():
    rng = np.random.default_rng(107)
    worst_gap = 0.0
    worst_hessian = 0.0
    for profile in (flat_radial(), fubini_study_radial()):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            a = rng.uniform(-0.8, 0.8, n)
            result = legendre_roundtrip(profile, a)
            worst_gap = max(worst_gap, result.duality_gap)
            worst_hessian = max(worst_hessian, result.hessian_residual)
    ok = worst_gap < 1e-8 and worst_hessian < 1e-5
    _report(
        7,
        "legendre_roundtrip",
        ok,
        f"50 points, identity gap = {worst_gap:.2e}, hessian gap = {worst_hessian:.2e}",
    )


def test_criterion_08_asymptotic_decay_slopes():
    # The deviation from euclidean is (n - 1) u^(1-n) to leading order: check
    # the fitted exponent and the coefficient u^(n-1) * deviation at u = 1e6.
    start = time.perf_counter()
    slopes = {}
    ok = True
    for n in range(2, 9):
        report = decay_scan(n, 1e2, 1e6, 32)
        slopes[n] = report.fitted_slope
        ok = ok and abs(report.fitted_slope - (1 - n)) < 0.1
        ok = ok and abs(report.leading_coefficient - (n - 1)) < 1e-3 * (n - 1)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    detail = ", ".join(f"slope(n={n}) = {s:.3f}" for n, s in slopes.items())
    _report(8, "asymptotic_decay_slopes", ok, f"{detail}, {elapsed:.1f}s")


def test_criterion_09_determinant_identities():
    rng = np.random.default_rng(109)
    worst_closed = 0.0
    worst_blowup = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        pot = burns_simanca_potential(n)
        t = rng.uniform(1.2, 4.0)
        w = rng.uniform(0.3, 1.0, n)
        x = t * w / w.sum()
        t = float(x.sum())
        h = hessian_t_family(pot, x)
        det_numeric = float(np.linalg.det(h.G_inv))
        closed = (2.0**n) * float(np.prod(x)) / (1.0 + t * f2_value(pot, t))
        worst_closed = max(worst_closed, abs(det_numeric - closed))
        match = solve_boundary_coefficients(n)
        factored = match.delta(t) * float(np.prod(x)) * (t - 1.0)
        worst_blowup = max(worst_blowup, abs(det_numeric - factored))
    ok = worst_closed < 1e-10 and worst_blowup < 1e-10
    _report(
        9,
        "determinant_identities",
        ok,
        f"closed-form gap = {worst_closed:.2e}, factorization gap = {worst_blowup:.2e}",
    )


def test_criterion_10_admissibility_gates():
    rng = np.random.default_rng(110)

    def mixture(alpha, beta):
        def jfn(s, order):
            from torickahler.jets import ln_jet

            sj = variable(s, order)
            return alpha * 0.5 * sj + beta * 0.5 * ln_jet(1.0 + sj)

        return RadialKahlerPotential("mixture", jfn)

    hermitian_checked = 0
    while hermitian_checked < 200:
        alpha = rng.uniform(-0.6, 1.2)
        beta = rng.uniform(-0.6, 1.2)
        n = int(rng.integers(1, 4))
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = mixture(alpha, beta)
        s = float(np.vdot(z, z).real)
        jet = radial_jet(f, s, 2)
        f1 = jet.coefficients[1]
        f2 = 2.0 * jet.coefficients[2]
        if min(abs(f1), abs(f1 + s * f2)) < 1e-9:
            continue  # razor-edge sample: the inequality itself is ill-posed
        # The roundtrip at a = ln|z| reads the profile at s = |z|^2.
        try:
            legendre_roundtrip(f, np.log(np.abs(z)))
            flag = True
        except NonAdmissibleError:
            flag = False
        assert flag == (f1 > 0.0 and f2 > -f1 / s)
        hermitian_checked += 1

    family_checked = 0
    while family_checked < 200:
        c1 = rng.uniform(-3.0, 3.0)
        c2 = rng.uniform(-0.5, 0.5)
        pot = custom_potential(
            lambda t, order, c1=c1, c2=c2: c1 / variable(t, order) + c2,
            (1e-6, math.inf),
            label="c1_over_t_plus_c2",
        )
        n = int(rng.integers(1, 5))
        x = rng.uniform(0.1, 2.0, n)
        t = float(x.sum())
        margin = f2_value(pot, t) + 1.0 / t
        if abs(margin) < 1e-9 or abs(1.0 + t * f2_value(pot, t)) < 1e-9:
            continue
        try:
            G = hessian_t_family(pot, x).G
        except NonAdmissibleError:
            admitted = False
        else:
            admitted = True
            assert np.all(np.linalg.eigvalsh(G) > 0.0)
        assert admitted == (margin > 0.0)
        family_checked += 1

    _report(10, "admissibility_gates", True, "400 samples, zero disagreements")


def test_criterion_11_cross_oracle_high_dimensions():
    # Criterion 06 in n = 5..8, with a tolerance scaled by |S| (S = n(n+1) is
    # 72 for Fubini-Study at n = 8).  Points are t w / sum(w), so that every
    # dimension has admissible Fubini-Study samples.
    rng = np.random.default_rng(111)
    start = time.perf_counter()
    worst = 0.0
    for count in range(50):
        kind = count % 4
        n = int(rng.integers(5, 9))
        w = rng.uniform(0.5, 1.0, n)
        if kind == 0:
            pot = flat_potential()
            x = rng.uniform(0.4, 1.2, n)
        elif kind == 1:
            pot = fubini_study_potential()
            x = rng.uniform(0.3, 0.8) * w / w.sum()
        elif kind == 2:
            pot = generalized_burns_potential()
            x = rng.uniform(1.6, 3.0) * w / w.sum()
        else:
            pot = burns_simanca_potential(n)
            x = rng.uniform(1.6, 3.0) * w / w.sum()
        t = float(x.sum())
        lo, hi = pot.domain
        margins = [float(np.min(x)), t - lo]
        if np.isfinite(hi):
            margins.append(hi - t)
        step = min(0.02 * (1.0 + float(np.linalg.norm(x))), min(margins) / 4.5)
        g = symplectic_evaluator(pot, t_window=abreu_t_window(x, step))
        s_fd = scalar_curvature_abreu(g, x, step=step)
        s_jet = scalar_curvature_reduced(pot, n, t)
        worst = max(worst, abs(s_fd - s_jet) / (1.0 + abs(s_jet)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 30.0
    _report(11, "cross_oracle_high_dimensions", ok, f"50 samples n=5..8, max scaled gap = {worst:.2e}, {elapsed:.1f}s")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
