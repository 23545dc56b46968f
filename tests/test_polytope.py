import math

import numpy as np
import pytest

from torickahler.errors import DimensionError, NearBoundaryError
from torickahler.polytope import (
    AffineFunctional,
    build_standard,
    canonical_potential,
    facet_values,
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
    values = facet_values(poly, (0.2, 0.3))
    assert values == pytest.approx([0.2, 0.3, 0.5])


def test_invalid_dimension():
    with pytest.raises(DimensionError):
        build_standard("orthant", 0)


def test_unknown_kind():
    with pytest.raises(ValueError):
        build_standard("cube", 2)


def test_facet_values_blowup():
    poly = build_standard("blowup", 2)
    assert facet_values(poly, (1.0, 1.0)) == pytest.approx([1.0, 1.0, 1.0])


def test_facet_values_boundary_point():
    poly = build_standard("simplex", 2)
    assert facet_values(poly, (0.5, 0.5)) == pytest.approx([0.5, 0.5, 0.0])


def test_facet_values_orthant():
    poly = build_standard("orthant", 3)
    assert facet_values(poly, (1.0, 2.0, 3.0)) == pytest.approx([1.0, 2.0, 3.0])


def test_facet_values_dimension_mismatch():
    poly = build_standard("orthant", 2)
    with pytest.raises(DimensionError):
        facet_values(poly, (1.0, 2.0, 3.0))


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
            values = facet_values(poly, x)
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
            if not (facet_values(poly, np.stack([a, b])) > 1e-6).all():
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
        mixed = facet_values(poly, alpha * x + (1 - alpha) * y)
        combo = [
            alpha * u + (1 - alpha) * v
            for u, v in zip(facet_values(poly, x), facet_values(poly, y))
        ]
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
