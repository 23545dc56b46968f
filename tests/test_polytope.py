import math

import numpy as np
import pytest

from torickahler.errors import DimensionError, DomainError, NearBoundaryError
from torickahler.polytope import (
    AffineFunctional,
    DelzantPolytope,
    build_standard,
    canonical_potential,
    row_sum,
)


def test_blowup_facets():
    poly = build_standard("blowup", 2)
    assert poly.dim == 2 and len(poly.facets) == 3
    assert [f.normal for f in poly.facets] == [(1, 0), (0, 1), (1, 1)]
    assert [f.offset for f in poly.facets] == [0.0, 0.0, 1.0]


def test_orthant_dimension_one():
    poly = build_standard("orthant", 1)
    assert len(poly.facets) == 1
    assert poly.facets[0].normal == (1,)


def test_simplex_facets():
    poly = build_standard("simplex", 2)
    values = [facet((0.2, 0.3)) for facet in poly.facets]
    assert values == pytest.approx([0.2, 0.3, 0.5])


def test_invalid_dimension():
    with pytest.raises(DimensionError):
        build_standard("orthant", 0)
    with pytest.raises(DimensionError, match="facet normal length does not match polytope dimension"):
        DelzantPolytope(2, (AffineFunctional((1,), 0.0),))


def test_unknown_kind():
    with pytest.raises(ValueError):
        build_standard("cube", 2)


def test_facet_values_blowup():
    poly = build_standard("blowup", 2)
    assert [facet((1.0, 1.0)) for facet in poly.facets] == pytest.approx([1.0, 1.0, 1.0])


def test_facet_values_boundary_point():
    poly = build_standard("simplex", 2)
    assert [facet((0.5, 0.5)) for facet in poly.facets] == pytest.approx([0.5, 0.5, 0.0])


def test_facet_values_orthant():
    poly = build_standard("orthant", 3)
    assert [facet((1.0, 2.0, 3.0)) for facet in poly.facets] == pytest.approx([1.0, 2.0, 3.0])


def test_facet_values_dimension_mismatch():
    poly = build_standard("orthant", 2)
    with pytest.raises(DimensionError):
        poly.facets[0]((1.0, 2.0, 3.0))


def test_nonzero_normal_required():
    with pytest.raises(ValueError):
        AffineFunctional((0, 0), 1.0)


def test_canonical_potential_orthant_unit_point():
    poly = build_standard("orthant", 2)
    assert canonical_potential(poly, (1.0, 1.0)) == 0.0


def test_canonical_potential_simplex_midpoint():
    # (1/2)(0.5 ln 0.5 + 0.5 ln 0.5) = 0.5 ln 0.5
    poly = build_standard("simplex", 1)
    assert canonical_potential(poly, (0.5,)) == pytest.approx(0.5 * math.log(0.5), abs=1e-15)


def test_canonical_potential_blowup_unit_point():
    poly = build_standard("blowup", 2)
    assert canonical_potential(poly, (1.0, 1.0)) == 0.0


def test_canonical_potential_near_boundary():
    poly = build_standard("orthant", 2)
    with pytest.raises(NearBoundaryError):
        canonical_potential(poly, (1.0, 1e-13))


def test_blowup_t_minus_one_relation():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 5):
        poly = build_standard("blowup", n)
        for _ in range(20):
            x = rng.uniform(0.1, 3.0, n)
            values = [facet(x) for facet in poly.facets]
            assert values[-1] == pytest.approx(sum(values[:-1]) - 1.0, abs=1e-12)


def test_canonical_potential_is_convex_on_segments():
    rng = np.random.default_rng(1)
    for kind, n in (("orthant", 2), ("simplex", 3), ("blowup", 2)):
        poly = build_standard(kind, n)
        for _ in range(25):
            scale = 0.8 / n if kind == "simplex" else 1.0
            a = rng.uniform(0.05, scale, n)
            b = rng.uniform(0.05, scale, n)
            if kind == "blowup":
                a = a + (1.2 / n)
                b = b + (1.2 / n)
            if not all((facet(np.stack([a, b])) > 1e-6).all() for facet in poly.facets):
                continue
            mid = 0.5 * (a + b)
            lhs = canonical_potential(poly, mid)
            rhs = 0.5 * (canonical_potential(poly, a) + canonical_potential(poly, b))
            assert lhs <= rhs + 1e-12


def test_facet_values_are_affine():
    rng = np.random.default_rng(2)
    poly = build_standard("blowup", 3)
    for _ in range(20):
        x = rng.uniform(-2.0, 2.0, 3)
        y = rng.uniform(-2.0, 2.0, 3)
        alpha = rng.uniform(0.0, 1.0)
        mixed = [facet(alpha * x + (1 - alpha) * y) for facet in poly.facets]
        combo = [alpha * facet(x) + (1 - alpha) * facet(y) for facet in poly.facets]
        assert mixed == pytest.approx(combo, abs=1e-12)


def test_batched_canonical_potential_matches_row_by_row():
    rng = np.random.default_rng(22)
    for kind, n, t_range in (("orthant", 3, (0.5, 4.0)), ("simplex", 3, (0.2, 0.9)), ("blowup", 4, (1.5, 3.0))):
        poly = build_standard(kind, n)
        w = rng.uniform(0.5, 1.0, (6, 7, n))
        x = rng.uniform(*t_range, (6, 7, 1)) * w / w.sum(axis=-1, keepdims=True)
        batch = canonical_potential(poly, x)
        rows = np.array([[canonical_potential(poly, point) for point in block] for block in x])
        assert batch.shape == (6, 7)
        np.testing.assert_allclose(batch, rows, rtol=1e-15, atol=0.0)
        assert isinstance(canonical_potential(poly, x[0, 0]), float)
        # One row on the wrong side of a facet fails the whole batch.
        x[3, 2] = 0.01 * x[3, 2] if kind == "blowup" else -x[3, 2]
        with pytest.raises(NearBoundaryError):
            canonical_potential(poly, x)


def _interior_batch(rng, kind, n, shape):
    lo, hi = {"orthant": (0.5, 4.0), "simplex": (0.2, 0.9), "blowup": (1.5, 3.0)}[kind]
    w = rng.uniform(0.5, 1.0, shape + (n,))
    return rng.uniform(lo, hi, shape + (1,)) * w / w.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("n", range(1, 8))
def test_row_sum_has_the_bits_of_numpy_sum_for_short_rows(n):
    # numpy adds a row of fewer than 8 entries in order; longer ones pairwise.
    rng = np.random.default_rng(30 + n)
    x = rng.uniform(0.0, 3.0, (400, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (400, n))
    assert np.array_equal(row_sum(x), x.sum(axis=-1))


@pytest.mark.parametrize("n", range(1, 13))
def test_row_sum_of_one_row_matches_its_batch_row(n):
    rng = np.random.default_rng(50 + n)
    x = rng.uniform(-1.0, 3.0, (4, 5, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (4, 5, n))
    batch = row_sum(x)
    assert batch.shape == (4, 5)
    rows = np.array([[row_sum(point) for point in block] for block in x])
    assert np.array_equal(batch, rows)
    assert isinstance(row_sum(x[0, 0]), float)
    # Left to right, one column at a time.
    total = x[..., 0]
    for k in range(1, n):
        total = total + x[..., k]
    assert np.array_equal(batch, total)


@pytest.mark.parametrize("n", range(2, 9))
def test_axis_facets_return_the_column_exactly(n):
    x = np.random.default_rng(60 + n).uniform(1e-300, 1e300, (7, n))
    poly = build_standard("blowup", n)
    for i, facet in enumerate(poly.facets[:n]):
        assert np.array_equal(facet(x), x[:, i])
        assert facet(x) is not x[:, i] and not np.shares_memory(facet(x), x)


@pytest.mark.parametrize("kind", ["orthant", "simplex", "blowup"])
@pytest.mark.parametrize("n", range(2, 9))
def test_facet_values_match_row_by_row_bitwise(kind, n):
    rng = np.random.default_rng(70 + n)
    poly = build_standard(kind, n)
    x = _interior_batch(rng, kind, n, (6, 5))
    batch = np.stack([facet(x) for facet in poly.facets], axis=-1)
    rows = np.array([[[facet(point) for facet in poly.facets] for point in block] for block in x])
    assert batch.shape == (6, 5, len(poly.facets))
    assert np.array_equal(batch, rows)
    # The last facet of simplex and blowup sums its coordinates left to right.
    if kind != "orthant":
        sign = -1.0 if kind == "simplex" else 1.0
        assert np.array_equal(batch[..., -1], sign * row_sum(x) - sign)
    potential = canonical_potential(poly, x)
    assert np.array_equal(potential, np.array([[canonical_potential(poly, p) for p in b] for b in x]))
    assert np.array_equal(potential, 0.5 * row_sum(batch * np.log(batch)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind", ["orthant", "simplex", "blowup"])
def test_canonical_potential_refuses_non_finite_coordinates(kind, bad):
    poly = build_standard(kind, 3)
    x = _interior_batch(np.random.default_rng(80), kind, 3, (4,))
    canonical_potential(poly, x)
    x[2, 1] = bad
    with pytest.raises(NearBoundaryError):
        canonical_potential(poly, x)
    with pytest.raises(NearBoundaryError):
        canonical_potential(poly, x[2])


def test_canonical_potential_refuses_an_empty_batch():
    poly = build_standard("blowup", 3)
    with pytest.raises(DomainError):
        canonical_potential(poly, np.empty((0, 3)))
