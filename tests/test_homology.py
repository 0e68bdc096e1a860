"""Exact boundary matrices and low-degree cohomology dimensions."""
import random
from fractions import Fraction

import pytest

from graphdgla.homology import (
    BoundaryMatrix,
    _integer_rows,
    _rank_bareiss,
    boundary_matrix,
    boundary_merge_check,
    cohomology_dims,
    composition_is_zero,
    dimension_table,
    merged_differential,
    merged_differential_factor,
    rank,
)
from graphdgla.algebra import vec
from graphdgla.graphs import b0, b1, enumerate_classes

# exact dimensions computed once by the fraction-free elimination and frozen;
# (n, m) -> (number of classes, dim Z, dim B, dim H)
GROUND_TRUTH = {
    (0, 1): (1, 0, 0, 0),
    (0, 2): (1, 1, 1, 0),
    (0, 3): (1, 0, 0, 0),
    (1, 1): (0, 0, 0, 0),
    (1, 2): (1, 1, 0, 1),
    (1, 3): (3, 0, 0, 0),
    (2, 1): (1, 0, 0, 0),
    (2, 2): (6, 1, 1, 0),
    (2, 3): (21, 6, 5, 1),
    (3, 1): (4, 1, 0, 1),
    (3, 2): (38, 7, 3, 4),
    (3, 3): (180, 35, 31, 4),
}


class TestBoundaryMatrix:
    def test_b1_column_zero(self):
        mat = boundary_matrix(1, 2)
        col = mat.source.index(b1().graph)
        assert mat.columns[col] == {}

    def test_b0_column_zero(self):
        mat = boundary_matrix(0, 2)
        assert mat.columns == [{}]

    def test_matrix_level_d_squared(self):
        for n in range(4):
            for m in (1, 2, 3):
                inner = boundary_matrix(n, m)
                outer = boundary_matrix(n, m + 1)
                assert composition_is_zero(outer, inner)


class TestRank:
    def test_known_small_matrix(self):
        mat = BoundaryMatrix(
            0,
            0,
            source=[None, None],
            target=[None, None],
            columns=[{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}],
        )
        assert rank(mat) == 1

    def test_basis_order_independence(self):
        mat = boundary_matrix(2, 2)
        rows = _integer_rows(mat.dense_rows())
        base = _rank_bareiss(rows)
        rng = random.Random(7)
        for _ in range(5):
            shuffled = [row[:] for row in rows]
            rng.shuffle(shuffled)
            cols = list(range(len(rows[0])))
            rng.shuffle(cols)
            permuted = [[row[c] for c in cols] for row in shuffled]
            assert _rank_bareiss(permuted) == base


class TestCohomology:
    def test_frozen_table(self):
        got = dimension_table(3, 3)
        for row in got:
            key = (row["n"], row["m"])
            assert (
                row["classes"],
                row["dim_Z"],
                row["dim_B"],
                row["dim_H"],
            ) == GROUND_TRUTH[key]

    def test_b1_is_a_cocycle(self):
        z, b, h = cohomology_dims(1, 2)
        assert z >= 1

    def test_rank_nullity_sanity(self):
        for (n, m), (_, z, b, h) in GROUND_TRUTH.items():
            assert h >= 0 and b <= z and h == z - b


class TestBoundaryMerge:
    def test_two_cycle_instance(self):
        # the minimal G_{2,1} class: v1 -> (v2, b1), v2 -> (v1, b1)
        classes = enumerate_classes(2, 1)
        assert len(classes) == 1
        c = classes[0]
        assert c.graph.in_degrees()[0] == 2
        verdict, lhs, rhs = boundary_merge_check(c)
        # claimed factor 2^{i-1} = 2; the computed merged differential is
        # -(2^i - 2) * Gamma = -2 * Gamma, so the claim fails honestly
        assert lhs == rhs.scale(-1)
        assert not verdict

    def test_merged_differential_factor(self):
        for n in (1, 2, 3):
            for c in enumerate_classes(n, 1):
                i = c.graph.in_degrees()[0]
                assert merged_differential_factor(c) == -(Fraction(2) ** i - 2)
                assert merged_differential(c) == merged_differential_factor(c) * vec(c)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            boundary_merge_check(b0())
