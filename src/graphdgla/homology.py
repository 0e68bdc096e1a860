"""Exact low-degree cohomology of the graph complex.

The differential preserves the internal-vertex count n, so each (n, m)
component gives a finite exact boundary matrix, ranked by sparse
fraction-free elimination on integers.  A rank needs only the columns: a
column is the differential of one class of G_{n,m}, and the rows are the
classes that the differential hits, so a table enumerates each G_{n,m}
once, as a matrix's source, and never G_{n,m_max+1}.  Each column is the
per-class integer kernel ``algebra.differential_terms``, which forms only
the proper boundary splittings of the class, so building a matrix
canonicalizes no graft that cancels and makes no ``Fraction``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import GraphVector, add_terms, differential, differential_terms, vec
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
    """The differential on G_{n,m}: a column per class of ``source``, a row
    per class of G_{n,m+1} it hits, ``target`` in ``LabeledGraph.sort_key``
    order (first-hit order slows ``rank``, whose leads are least rows)."""

    n: int
    m: int
    source: list[LabeledGraph]
    target: list[LabeledGraph]
    columns: list[dict[int, int]]  # per source class: target index -> coeff

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.target), len(self.source))


def boundary_matrix(n: int, m: int, cap: int = DEFAULT_CAP) -> BoundaryMatrix:
    source = enumerate_classes(n, m, cap=cap)
    images = [differential_terms(c.graph) for c in source]
    target = sorted({h for image in images for h in image}, key=LabeledGraph.sort_key)
    index = {h: row for row, h in enumerate(target)}
    columns = [{index[h]: k for h, k in image.items()} for image in images]
    return BoundaryMatrix(n, m, [c.graph for c in source], target, columns)


def rank(matrix: BoundaryMatrix) -> int:
    """Rank over Q by fraction-free elimination on integers.

    Each column is reduced against the pivots keyed by leading row: with
    lead entries a of the pivot and b of the column, the column becomes
    a * col - b * pivot, divided by the gcd of its entries.  A column with
    rational entries is scaled to integers once, on entry.
    """
    pivots: dict[int, dict[int, int]] = {}
    for entries in matrix.columns:
        scale = math.lcm(*(c.denominator for c in entries.values()))
        col = {row: int(c * scale) for row, c in entries.items() if c}
        while col:
            lead = min(col)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = col
                break
            a, b = pivot[lead], col[lead]
            col = {row: a * c for row, c in col.items()}
            add_terms(col, ((row, -b * c) for row, c in pivot.items()))
            content = math.gcd(*col.values()) or 1  # 0 when the column cancels
            col = {row: c // content for row, c in col.items() if c}
    return len(pivots)


def _walk(n: int, m_max: int, cap: int) -> list[dict]:
    """Rows (n, m) for m = 1..m_max, each G_{n,m} enumerated once, as a source;
    each class the step before hits must be one of them (G_{n,m_max+1} is not
    enumerated, so the rows of the last step are not checked)."""
    rows = []
    hit: list[LabeledGraph] = []
    b = 0  # rank of the differential into (n, m); G_{n,0} is empty
    for m in range(1, m_max + 1):
        matrix = boundary_matrix(n, m, cap)
        known = set(matrix.source)
        for h in hit:
            if h not in known:
                raise RuntimeError("differential image %s missing from G_{%d,%d}"
                                   % (h.to_literal(), n, m))
        r = rank(matrix)
        z = len(matrix.source) - r
        rows.append(dict(n=n, m=m, classes=len(matrix.source), dim_Z=z, dim_B=b, dim_H=z - b))
        hit, b = matrix.target, r
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
        for g, coeff in differential(vec(c))
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
