"""Iterative solution of the deformation equation via the merger contraction.

Builds the star-product series order by order as m_n = P(sigma(D_n)), where P
is an optional Poisson-kernel projection, and exposes the associativity
defects and the cocycle/contraction diagnostics per order.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import (
    GraphVector,
    add_terms,
    bracket,
    differential,
    project_constant,
    project_linear,
    sigma,
    vec,
)
from .graphs import b0, b1

PROJECTIONS = ("none", "constant", "linear")


def apply_projection(v: GraphVector, projection: str) -> GraphVector:
    if projection == "none":
        return v
    if projection == "constant":
        return project_constant(v)
    if projection == "linear":
        return project_linear(v)
    raise ValueError("unknown projection %r" % projection)


@dataclass
class OrderReport:
    """Per-order diagnostics emitted by solve()."""

    n: int
    m_n: GraphVector
    residual: GraphVector  # P(d m_n - D_n), reported, not asserted
    lemma1_identity: bool
    defect_terms: int

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "m_n": self.m_n.to_json_obj(),
            "residual": self.residual.to_json_obj(),
            "lemma1_identity": self.lemma1_identity,
            "defect_norm": self.defect_terms,
        }


@dataclass
class StarSeries:
    """Truncated star-product series; coeffs[n] is the order-n graph vector."""

    order: int
    coeffs: list[GraphVector]
    projection: str = "none"
    sigma_normalization: str = "merger"
    reports: list[OrderReport] = field(default_factory=list)


def initial_series(projection: str = "none", normalization: str = "merger") -> StarSeries:
    return StarSeries(1, [vec(b0()), vec(b1())], projection, normalization)


def d_term(series: StarSeries, n: int) -> GraphVector:
    """D_n = -1/2 sum_{j+k=n, j,k>=1} [m_j, m_k]; zero for n=1.

    Each distinct bracket is formed once, for j <= n/2.  Every coefficient
    has m = 2 (Lie degree 1), where the graded bracket is symmetric, so the
    mirrored entry [m_{n-j}, m_j] is the same vector and counts twice.
    """
    if n < 0:
        raise ValueError("d_term defined for n >= 0")
    if n - 1 > series.order:
        raise ValueError("missing lower-order coefficients for D_%d" % n)
    acc: dict = {}
    for j in range(1, n // 2 + 1):
        weight = Fraction(-1, 2) if 2 * j == n else -1  # a mirrored pair counts twice
        br = bracket(series.coeffs[j], series.coeffs[n - j])
        add_terms(acc, ((g, c * weight) for g, c in br.terms()))
    return GraphVector(acc)


def defect(series: StarSeries, n: int) -> GraphVector:
    """Order-n associativity defect sum_{i+j=n} [m_i, m_j] (no projection).

    The terms with i, j >= 1 sum to -2 D_n; only the two edge terms
    [m_0, m_n] and [m_n, m_0] are formed here.
    """
    m = series.coeffs
    if n < 1:  # the single term [m_0, m_0], or the empty sum
        return bracket(m[0], m[0]) if n == 0 else GraphVector()
    mn = m[n]
    return bracket(m[0], mn) + bracket(mn, m[0]) - d_term(series, n).scale(2)


def lemma1_identity(series: StarSeries, n: int) -> bool:
    """Formal identity defect_n = 2 (d m_n - D_n), with no projection.

    A real check, not a tautology: both sides share -2 D_n, so it compares
    the defect's edge terms [m_0, m_n] + [m_n, m_0], formed by ``bracket``,
    against 2 d m_n from an independent ``differential(m_n)`` call.
    """
    lhs = defect(series, n)
    rhs = (differential(series.coeffs[n]) - d_term(series, n)).scale(2)
    return lhs == rhs


def cocycle_check(series: StarSeries, n: int) -> GraphVector:
    """P(d D_{n+1}); expected zero when lower orders close, returned as-is."""
    d_next = d_term(series, n + 1)
    return apply_projection(differential(d_next), series.projection)


def solve(
    N: int,
    projection: str = "none",
    sigma_normalization: str = "merger",
) -> StarSeries:
    """Iterate m_n = P(sigma(D_n)) for 2 <= n <= N from m_0 = b0, m_1 = b1.

    Each order forms every bracket once: D_n forms [m_j, m_{n-j}] for
    j <= n/2, then d m_n = [b0, m_n] and the edge term [m_n, m_0] are formed
    once each.  The defect defect_n = d m_n + [m_n, m_0] - 2 D_n, its
    reported term count, the residual and lemma 1 all reuse them.  Lemma 1
    stays a real check: it holds exactly when [m_n, m_0] equals the
    independently formed d m_n, as ``lemma1_identity`` states.

    Raises SigmaDomainError if a term of some D_n has fewer than two
    internal vertices, where sigma is undefined.
    """
    if N < 1:
        raise ValueError("truncation order must be >= 1")
    if projection not in PROJECTIONS:
        raise ValueError("unknown projection %r" % projection)
    series = initial_series(projection, sigma_normalization)
    for n in range(2, N + 1):
        dn = d_term(series, n)
        mn = apply_projection(sigma(dn, sigma_normalization), projection)
        series.coeffs.append(mn)
        series.order = n
        dmn = differential(mn)
        defect_n = dmn + bracket(mn, series.coeffs[0]) - dn.scale(2)
        series.reports.append(
            OrderReport(
                n=n,
                m_n=mn,
                residual=apply_projection(dmn - dn, projection),
                lemma1_identity=defect_n == (dmn - dn).scale(2),
                defect_terms=len(apply_projection(defect_n, projection)),
            )
        )
    return series


def contraction_residual(series: StarSeries, n: int) -> GraphVector:
    """d sigma D_n + sigma d D_n - D_n on the realized cocycle D_n."""
    dn = d_term(series, n)
    norm = series.sigma_normalization
    ddn = differential(dn)
    part1 = differential(sigma(dn, norm))
    part2 = sigma(ddn, norm) if ddn else GraphVector()
    return part1 + part2 - dn


def hat_iteration(
    k: int,
    projection: str = "none",
    sigma_normalization: str = "merger",
) -> GraphVector:
    """The initiator tower t^{k-1}(b1) with t(v) = P(sigma([b1, v]))."""
    if k < 1:
        raise ValueError("k must be >= 1")
    b1v = vec(b1())
    v = b1v
    for _ in range(k - 1):
        v = apply_projection(sigma(bracket(b1v, v), sigma_normalization), projection)
    return v
