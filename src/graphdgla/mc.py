"""Iterative solution of the deformation equation via the merger contraction.

Builds the star-product series order by order as m_n = P(sigma(D_n)), where P
is an optional Poisson-kernel projection, and exposes the associativity
defects and the Lemma-1 check per order.  A projection is the degree of the
entries of alpha (``PROJECTIONS``): P keeps a graph when no internal
in-degree exceeds it, so the compositions of D_n never make a graft P kills.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .algebra import (
    PROJECTIONS,
    GraphVector,
    bracket,
    compose_terms,
    differential,
    insert,
    sigma,
    vec,
)
from .graphs import b0, b1


@dataclass
class OrderReport:
    """Per-order diagnostics emitted by solve().

    The bracket is symmetric on m_n and m_0 (see ``_compositions``), so
    [m_n, m_0] = [m_0, m_n] = d m_n and the projected defect
    d m_n + [m_n, m_0] - 2 P(D_n) is 2 residual.  Hence the serialized
    ``"lemma1_identity"`` is constantly true and ``"defect_norm"`` is
    ``len(residual)``.  ``lemma1_identity`` in this module checks that
    [m_n, m_0] is d m_n against signed insertions formed on their own
    (``graphdgla selftest --only lemma1``).
    """

    n: int
    m_n: GraphVector
    residual: GraphVector  # d m_n - P(D_n), reported, not asserted

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m_n": self.m_n.to_json_obj(),
            "residual": self.residual.to_json_obj(),
            "lemma1_identity": True,
            "defect_norm": len(self.residual),
        }


@dataclass
class StarSeries:
    """Truncated star-product series; coeffs[n] is the order-n graph vector."""

    coeffs: list[GraphVector]
    projection: str = "none"
    reports: list[OrderReport] = field(default_factory=list)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def initial_series(projection: str = "none") -> StarSeries:
    return StarSeries([vec(b0()), vec(b1())], projection)


def _compositions(series: StarSeries, n: int, lo: int, weight: int, bound: Optional[int]):
    """weight * sum_{j=lo}^{n-lo} m_j o m_{n-j}, each composition formed once.

    Every m_j has Lie degree 1, so [m_j, m_k] = m_j o m_k + m_k o m_j and a
    sum of brackets over ordered pairs is twice the sum of compositions.
    """
    if n - lo > series.order:
        raise ValueError("missing lower-order coefficients for order %d" % n)
    m = series.coeffs
    terms = (compose_terms(m[j], m[n - j], bound, weight) for j in range(lo, n - lo + 1))
    return GraphVector.combine(itertools.chain.from_iterable(terms))


def d_term(series: StarSeries, n: int, bound: Optional[int] = None) -> GraphVector:
    """D_n = -sum_{j+k=n, j,k>=1} m_j o m_k = -1/2 sum [m_j, m_k]; zero for n=1.

    With ``bound`` a projection, the result is P(D_n): the compositions make
    only the grafts that fit it.
    """
    if n < 0:
        raise ValueError("d_term defined for n >= 0")
    return _compositions(series, n, 1, -1, bound)


def defect(series: StarSeries, n: int) -> GraphVector:
    """Order-n associativity defect 2 sum_{i+j=n} m_i o m_j (no projection)."""
    return _compositions(series, n, 0, 2, None)


def lemma1_identity(series: StarSeries, n: int) -> bool:
    """Lemma 1, defect_n = 2 (d m_n - D_n) with no projection, at order n.

    Splitting the terms with i = 0 or j = 0 off defect_n = sum_{i+j=n}
    [m_i, m_j] leaves [m_0, m_n] + [m_n, m_0] - 2 D_n, and [m_0, m_n] is
    d m_n.  What remains is [m_n, m_0] = d m_n: m_n and m_0 = b0 both have
    Lie degree 1, so [m_n, m_0] is m_n o m_0 + m_0 o m_n.  The check forms
    that sum as sum_i (-1)^{(i-1)|g|} f o_i g from ``insert``, which applies
    no sign, and compares it with ``bracket``, so a wrong Gerstenhaber sign
    in the bracket fails it.  At n = 0 it says [m_0, m_0] = 0.  P plays no
    part.
    """
    if n < 0:
        raise ValueError("lemma 1 defined for n >= 0")
    m = series.coeffs
    want = GraphVector()
    for f, g in ((m[n], m[0]), (m[0], m[n])):
        for i in range(1, (f.boundary_arity() or 0) + 1):
            want = want + insert(f, i, g).scale((-1) ** ((i - 1) * g.lie_degree()))
    return bracket(m[n], m[0]) == want


def solve(N: int, projection: str = "none") -> StarSeries:
    """Iterate m_n = P(sigma(D_n)) for 2 <= n <= N from m_0 = b0, m_1 = b1.

    Each order forms each composition of D_n once and projects only D_n.  P
    keeps or drops a graph by its internal in-degrees, which grafting fixes
    once a graft is made, and which sigma (a boundary merge), d = [b0, .]
    and [., m_0] (grafts of b0, which has no internal vertex) all preserve.
    So the compositions of D_n make only the grafts P keeps,
    m_n = sigma(P(D_n)), and d m_n is already projected.  Each order reports
    residual = d m_n - P(D_n); see ``OrderReport`` for why that is the whole
    projected defect.

    Raises SigmaDomainError if a term of some P(D_n) has fewer than two
    internal vertices, where sigma is undefined.
    """
    if N < 1:
        raise ValueError("truncation order must be >= 1")
    if projection not in PROJECTIONS:
        raise ValueError("unknown projection %r" % projection)
    bound = PROJECTIONS[projection]
    series = initial_series(projection)
    for n in range(2, N + 1):
        dn = d_term(series, n, bound)
        mn = sigma(dn)
        series.coeffs.append(mn)
        series.reports.append(OrderReport(n, mn, differential(mn) - dn))
    return series
