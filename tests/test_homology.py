"""Exact boundary matrices and low-degree cohomology dimensions."""
import math
import random
import re
import signal
from fractions import Fraction

import pytest

from graphdgla.homology import (
    BoundaryMatrix,
    boundary_matrix,
    cohomology_dims,
    dimension_table,
    merged_differential,
    merged_differential_factor,
    rank,
)
from graphdgla.algebra import add_terms, differential, vec
from graphdgla.graphs import GraphError, SignedGraphClass, b0, b1, enumerate_classes

# exact dimensions computed once and frozen; the n <= 3 rows were first
# computed by dense fraction-free elimination, the n = 4 rows by the sparse rank
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
    (4, 1): (60, 12, 0, 12),
    (4, 2): (445, 70, 48, 22),
    (4, 3): (2250, 405, 375, 30),
}

# every (n, m) whose boundary matrix rank is checked against the dense oracle
ORACLE_SHAPES = [(n, m) for n in range(4) for m in range(1, 4)] + [
    (0, 4),
    (1, 4),
    (2, 4),
    (4, 1),
]


# -- dense fraction-free elimination: the reference oracle for ``rank`` -----


def dense_rows(matrix: BoundaryMatrix) -> list[list[Fraction]]:
    rows = [[Fraction(0)] * len(matrix.source) for _ in matrix.target]
    for col, entries in enumerate(matrix.columns):
        for row, c in entries.items():
            rows[row][col] = c
    return rows


def _integer_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    out = []
    for row in rows:
        scale = math.lcm(*(c.denominator for c in row)) if row else 1
        out.append([int(c * scale) for c in row])
    return out


def _rank_bareiss(rows: list[list[int]]) -> int:
    M = [row[:] for row in rows]
    nr = len(M)
    nc = len(M[0]) if M else 0
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                M[i][j] = (M[r][c] * M[i][j] - M[i][c] * M[r][j]) // prev
            M[i][c] = 0
        prev = M[r][c]
        r += 1
    return r


def dense_rank(matrix: BoundaryMatrix) -> int:
    return _rank_bareiss(_integer_rows(dense_rows(matrix)))


# -- sparse elimination over Q: the oracle for ``rank``'s integer arithmetic --


def _rank_fraction(matrix: BoundaryMatrix) -> int:
    """Rank over Q: reduce each column against the pivots keyed by leading row."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for entries in matrix.columns:
        col = {row: Fraction(c) for row, c in entries.items() if c}
        while col:
            lead = min(col)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = col
                break
            factor = col[lead] / pivot[lead]
            add_terms(col, ((row, -factor * c) for row, c in pivot.items()))
            col = {row: c for row, c in col.items() if c}
    return len(pivots)


def _random_rational_matrix(rng: random.Random) -> BoundaryMatrix:
    """A sparse matrix with non-integer rational entries; some columns are
    combinations of earlier ones, so that elimination cancels."""
    rows, cols = rng.randint(1, 9), rng.randint(1, 12)
    columns: list[dict[int, Fraction]] = []
    for _ in range(cols):
        if columns and rng.random() < 0.3:
            col: dict[int, Fraction] = {}
            for earlier in rng.sample(columns, min(len(columns), 3)):
                k = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
                add_terms(col, ((row, k * c) for row, c in earlier.items()))
        else:
            # an odd numerator over an even denominator is never an integer
            hit = {rng.randrange(rows)} | {row for row in range(rows) if rng.random() < 0.3}
            col = {row: Fraction(rng.randint(-5, 4) * 2 + 1, 2 * rng.randint(1, 4))
                   for row in sorted(hit)}
        columns.append(col)
    return BoundaryMatrix(0, 0, source=[None] * cols, target=[None] * rows, columns=columns)


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
                # the rows of inner are the classes it hits; each is a column of outer
                assert set(inner.target) <= set(outer.source)
                column_of = [outer.source.index(g) for g in inner.target]
                for entries in inner.columns:
                    image = {}
                    for mid, c in entries.items():
                        column = outer.columns[column_of[mid]].items()
                        add_terms(image, ((row, c * c2) for row, c2 in column))
                    assert not any(image.values())

    def test_columns_are_the_differential(self):
        for n in range(4):
            for m in range(1, 4):
                mat = boundary_matrix(n, m)
                for g, col in zip(mat.source, mat.columns):
                    image = differential(vec(SignedGraphClass(g, 1)))
                    assert {mat.target[row]: c for row, c in col.items()} == dict(image)

    @pytest.mark.parametrize("n, m", ORACLE_SHAPES)
    def test_rows_are_distinct_classes_hit(self, n, m):
        # the rows are no enumerated basis: only classes of G_{n,m+1}, each
        # once, and each hit by some column
        mat = boundary_matrix(n, m)
        assert len(set(mat.target)) == len(mat.target)
        assert set(mat.target) <= {c.graph for c in enumerate_classes(n, m + 1)}
        assert {row for col in mat.columns for row in col} == set(range(len(mat.target)))


class TestRank:
    def test_known_small_matrix(self):
        # each case cancels a column entry; a kept zero would be read as a
        # lead and the reduction would never end, so an alarm bounds the wait
        def expire(signum, frame):
            raise TimeoutError("rank did not finish")

        cases = [
            ([{0: 1, 1: 2}, {0: 2, 1: 4}], 1),
            ([{0: 1, 1: 2, 2: 1}, {0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 2}], 2),
        ]
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            for columns, expected in cases:
                mat = BoundaryMatrix(
                    0,
                    0,
                    source=[None] * len(columns),
                    target=[None] * len(columns[0]),
                    columns=[{r: Fraction(c) for r, c in col.items()} for col in columns],
                )
                assert rank(mat) == expected
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("n, m", ORACLE_SHAPES)
    def test_matches_dense_oracle(self, n, m):
        mat = boundary_matrix(n, m)
        assert rank(mat) == dense_rank(mat)

    @pytest.mark.parametrize("n, m", ORACLE_SHAPES)
    def test_matches_fraction_oracle(self, n, m):
        mat = boundary_matrix(n, m)
        assert rank(mat) == _rank_fraction(mat)

    def test_rational_entries_match_fraction_oracle(self):
        rng = random.Random(29)
        deficient = 0
        for _ in range(200):
            mat = _random_rational_matrix(rng)
            assert any(c.denominator > 1 for col in mat.columns for c in col.values())
            r = rank(mat)
            assert r == _rank_fraction(mat)
            deficient += r < min(mat.shape)
        assert deficient > 20  # the cancelling columns are exercised

    def test_basis_order_independence(self):
        rng = random.Random(7)
        for n, m in [(2, 3), (3, 2), (3, 3)]:
            mat = boundary_matrix(n, m)
            base = dense_rank(mat)
            assert rank(mat) == base
            for _ in range(5):
                columns = list(mat.columns)
                rng.shuffle(columns)
                relabel = list(range(len(mat.target)))
                rng.shuffle(relabel)
                permuted = BoundaryMatrix(
                    n,
                    m,
                    mat.source,
                    mat.target,
                    [{relabel[row]: c for row, c in col.items()} for col in columns],
                )
                assert rank(permuted) == base


class TestCohomology:
    def test_frozen_table(self):
        got = dimension_table(4, 3)
        assert len(got) == len(GROUND_TRUTH)
        for row in got:
            key = (row["n"], row["m"])
            assert (
                row["classes"],
                row["dim_Z"],
                row["dim_B"],
                row["dim_H"],
            ) == GROUND_TRUTH[key]

    def test_each_component_enumerated_once(self, monkeypatch):
        calls = []

        def counting(n, m, *args, **kwargs):
            calls.append((n, m))
            return enumerate_classes(n, m, *args, **kwargs)

        monkeypatch.setattr("graphdgla.homology.enumerate_classes", counting)
        dimension_table(3, 3)
        # each G_{n,m} once, as a source; G_{n,m_max+1} never
        assert sorted(calls) == [(n, m) for n in range(4) for m in range(1, 4)]
        calls.clear()
        cohomology_dims(4, 1)
        assert calls == [(4, 1)]

    def test_class_hit_missing_from_next_source_raises(self, monkeypatch):
        # drop from G_{3,3} a class that the differential on G_{3,2} hits
        dropped = boundary_matrix(3, 2).target[0]

        def dropping(n, m, *args, **kwargs):
            classes = enumerate_classes(n, m, *args, **kwargs)
            return [c for c in classes if c.graph != dropped]

        monkeypatch.setattr("graphdgla.homology.enumerate_classes", dropping)
        with pytest.raises(RuntimeError, match=re.escape(dropped.to_literal())):
            dimension_table(3, 3)

    def test_dims_match_table_rows(self):
        rows = dimension_table(3, 3) + [r for r in dimension_table(4, 1) if r["n"] == 4]
        table = {(r["n"], r["m"]): (r["dim_Z"], r["dim_B"], r["dim_H"]) for r in rows}
        keys = [(n, m) for n, m in GROUND_TRUTH if n <= 3] + [(4, 1)]
        for n, m in keys:
            assert cohomology_dims(n, m) == table[(n, m)]

    @pytest.mark.parametrize("n, m", [(2, 0), (-1, 2)])
    def test_dims_reject_bad_component(self, n, m):
        with pytest.raises(GraphError):
            cohomology_dims(n, m)

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
        # claimed factor 2^{i-1} = 2; the computed merged differential is
        # -(2^i - 2) * Gamma = -2 * Gamma, so the claim fails honestly
        assert merged_differential(c) == vec(c, -2)

    def test_merged_differential_factor(self):
        for n in (1, 2, 3):
            for c in enumerate_classes(n, 1):
                i = c.graph.in_degrees()[0]
                assert merged_differential_factor(c) == -(Fraction(2) ** i - 2)
                assert merged_differential(c) == merged_differential_factor(c) * vec(c)

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            merged_differential(b0())
