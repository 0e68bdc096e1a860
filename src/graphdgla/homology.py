"""Exact low-degree cohomology of the graph complex.

The differential preserves the internal-vertex count n, so each (n, m)
component gives a finite exact boundary matrix, ranked by sparse exact
elimination over Q; a table enumerates each G_{n,m} once.  A column is the
differential of one class, which forms only the proper boundary splittings
of that class (``algebra.differential``), so building a matrix canonicalizes
no graft that cancels.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import GraphVector, add_terms, differential, vec
from .graphs import (
    DEFAULT_CAP,
    GraphError,
    LabeledGraph,
    SignedGraphClass,
    enumerate_classes,
    merge_boundary,
)


@dataclass
class BoundaryMatrix:
    """Matrix of the differential G_{n,m} -> G_{n,m+1} in enumerated bases."""

    n: int
    m: int
    source: list[LabeledGraph]
    target: list[LabeledGraph]
    columns: list[dict[int, Fraction]]  # per source class: target index -> coeff

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.target), len(self.source))


def _matrix(n: int, m: int, source: list, target: list) -> BoundaryMatrix:
    index = {c.graph: i for i, c in enumerate(target)}
    columns = []
    for c in source:
        entries: dict[int, Fraction] = {}
        for h, coeff in differential(vec(c)):
            if h not in index:
                raise RuntimeError(
                    "differential image %s missing from target basis" % h.to_literal()
                )
            entries[index[h]] = coeff
        columns.append(entries)
    return BoundaryMatrix(n, m, [c.graph for c in source], [c.graph for c in target], columns)


def boundary_matrix(n: int, m: int, cap: int = DEFAULT_CAP) -> BoundaryMatrix:
    source = enumerate_classes(n, m, cap=cap)
    return _matrix(n, m, source, enumerate_classes(n, m + 1, cap=cap))


def rank(matrix: BoundaryMatrix) -> int:
    """Rank over Q: reduce each column against the pivots keyed by leading row."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for entries in matrix.columns:
        col = {row: c for row, c in entries.items() if c}
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


def _walk(n: int, m_max: int, cap: int) -> list[dict]:
    """Rows (n, m) for m = 1..m_max: each G_{n,m} enumerated, each matrix ranked once."""
    rows = []
    b = 0  # rank of the differential into (n, m); G_{n,0} is empty
    source = enumerate_classes(n, 1, cap=cap) if m_max >= 1 else []
    for m in range(1, m_max + 1):
        target = enumerate_classes(n, m + 1, cap=cap)
        r = rank(_matrix(n, m, source, target))
        z = len(source) - r
        rows.append(dict(n=n, m=m, classes=len(source), dim_Z=z, dim_B=b, dim_H=z - b))
        source, b = target, r
    return rows


def cohomology_dims(n: int, m: int, cap: int = DEFAULT_CAP) -> tuple[int, int, int]:
    """(dim Z, dim B, dim H) of the (n, m) component: the last row of the walk to m."""
    if m < 1:
        raise GraphError("need m >= 1, got %d" % m)
    row = _walk(n, m, cap)[-1]
    return row["dim_Z"], row["dim_B"], row["dim_H"]


def dimension_table(n_max: int, m_max: int, cap: int = DEFAULT_CAP) -> list[dict]:
    """Rows (n, m, |G_{n,m}|, dim Z, dim B, dim H), column by column."""
    return [row for n in range(n_max + 1) for row in _walk(n, m_max, cap)]


def merged_differential(c: SignedGraphClass) -> GraphVector:
    """(d Gamma)/b0: d Gamma with boundary points 1 and 2 merged, Gamma in G_{n,1}."""
    if c.is_zero or c.graph.m != 1:
        raise ValueError("requires a nonzero class in G_{n,1}")
    return GraphVector.combine(
        (merge_boundary(SignedGraphClass(g, 1), 1), coeff)
        for g, coeff in differential(vec(c)).terms()
    )


def merged_differential_factor(c: SignedGraphClass) -> Fraction:
    """The scalar lambda with (d Gamma)/b0 = lambda * Gamma, Gamma in G_{n,1}.

    Exhaustive computation over G_{n,1} (n <= 3) shows lambda = -(2^i - 2),
    where i is the in-degree of the boundary vertex: the extreme
    reattachments of the i boundary edges cancel against the two grafts of
    the empty two-point graph, leaving the 2^i - 2 proper splittings.
    ``algebra.differential`` forms only those splittings, with the sign -1
    at m = 1, and merging the two halves gives Gamma back from each.  At
    i = 0 it forms Gamma with a second, isolated boundary vertex, with the
    sign +1, which merges back to Gamma (lambda = 1 = -(2^0 - 2)).
    """
    lhs = merged_differential(c)
    if lhs.is_zero:
        return Fraction(0)
    base = vec(c)
    ratios = {lhs.coeff(g) / coeff for g, coeff in base}
    if len(ratios) != 1 or len(lhs) != len(base):
        raise ValueError("merged differential is not a multiple of the input")
    return ratios.pop()
