"""The paper's identities as plain checks, shared by ``selftest`` and the tests.

``CHECKS`` maps each selftest name to a function of no arguments that returns
a bool.
"""
from __future__ import annotations

from fractions import Fraction

from . import homology, mc
from .algebra import (
    antipode, bracket, compose, delta_sum_check, differential,
    expand_wedge_basis, project_constant, sigma, vec,
)
from .graphs import b1, b1_power, c2L, c2R, enumerate_classes, merge_boundary, t2L, t2R
from .kontsevich import PoissonStructure, Poly, evaluate


def _classes(ns, ms):
    return (c for n in ns for m in ms for c in enumerate_classes(n, m))


def moyal_coefficients(series: mc.StarSeries) -> bool:
    """Each constant-projected m_n, 2 <= n <= N, expands as B_n in the wedge basis."""
    return all(
        expand_wedge_basis(project_constant(series.coeffs[n])) == {n: Fraction(1)}
        for n in range(2, series.order + 1)
    )


def defects_vanish(series: mc.StarSeries) -> bool:
    """Every constant-projected associativity defect of orders 0..N is zero."""
    return all(
        project_constant(mc.defect(series, n)).is_zero
        for n in range(series.order + 1)
    )


def delta_sum() -> bool:
    """sum_{i+j=k} delta(i, j) cancels for every k <= 20."""
    return all(delta_sum_check(k) for k in range(21))


def d2_regression() -> bool:
    """b1 o b1 = t2R - t2L + c2L - c2R."""
    want = vec(t2R()) - vec(t2L()) + vec(c2L()) - vec(c2R())
    return compose(vec(b1()), vec(b1())) == want


def moyal() -> bool:
    """The constant-projected solution recovers Moyal's B_n up to order 4."""
    return moyal_coefficients(mc.solve(4, "constant"))


def sigma_contraction() -> bool:
    """P sigma [b1^i, b1^j] = -b1^n / (2^{n-1} - 1) for n = i + j <= 5."""
    for n in range(2, 6):
        want = vec(b1_power(n), Fraction(-1, 2 ** (n - 1) - 1))
        for i in range(1, n):
            br = bracket(vec(b1_power(i)), vec(b1_power(n - i)))
            if project_constant(sigma(br)) != want:
                return False
    return True


def d_squared() -> bool:
    """d d = 0 on G_{n,m}, n <= 3, m <= 3."""
    return not any(
        differential(differential(vec(c))) for c in _classes(range(4), range(1, 4))
    )


def sigma_squared() -> bool:
    """sigma sigma = 0 on G_{n,m}, n in {2, 3}, 2 <= m <= 5."""
    for c in _classes((2, 3), range(2, 6)):
        inner = sigma(vec(c))
        if inner and sigma(inner):
            return False
    return True


def simplicial() -> bool:
    """Merges obey the simplicial identity on G_{n,m}, n <= 3, 2 <= m <= 5."""
    return all(
        vec(merge_boundary(merge_boundary(c, i), j))
        == vec(merge_boundary(merge_boundary(c, j + 1), i))
        for c in _classes(range(4), range(2, 6))
        for i in range(1, c.graph.m)
        for j in range(i, c.graph.m - 1)
    )


def antipode_morphism() -> bool:
    """S fixes b1, is an involution on G_{n,2}, n <= 2, and a morphism of o
    on pairs from there and from G_{n,m}, n <= 1, m = 1..3.  Only the mixed
    arities can expose a wrong sign such as a constant -1."""
    pool = [vec(c) for c in _classes(range(3), (2,))]
    mixed = [vec(c) for c in _classes(range(2), (1, 2, 3))]
    return (
        antipode(vec(b1())) == vec(b1())
        and all(antipode(antipode(f)) == f for f in pool)
        and all(
            antipode(compose(f, g)) == compose(antipode(f), antipode(g))
            for p in (pool, mixed) for f in p for g in p
        )
    )


def lemma1() -> bool:
    """Lemma 1 holds at orders 0..4 of the solution under every projection."""
    return all(
        mc.lemma1_identity(series, n)
        for series in (mc.solve(4, p) for p in mc.PROJECTIONS)
        for n in range(5)
    )


# (f, b1(f, g), b1^2(f, g)) for g = x1*x2 under the standard symplectic
# structure, derived by hand: b1(f, g) = d1 f d2 g - d2 f d1 g, and b1^2 sums
# the four products of two such pairings, with no 1/2.
_KERNEL_VALUES = (
    ("x1^2*x2", "x1^2*x2", "-4*x1"),
    ("x1^2*x2^2", "0", "-8*x1*x2"),
)


def kernel_consistency() -> bool:
    """b1 and b1^2 take their hand-derived values, and graphs with an edge
    on an internal vertex evaluate to zero (symplectic).

    The values are parsed literals, not Poly products, so a wrong product
    in the kernel cannot agree with them by sharing its arithmetic.
    """
    alpha = PoissonStructure.standard_symplectic(2)
    v = Poly.parse("x1*x2", 2)
    landing = [c for c in _classes(range(4), (2,)) if not c.graph.fits(0)]
    for u, at_b1, at_b1_squared in _KERNEL_VALUES:
        fs = [Poly.parse(u, 2), v]
        if (
            evaluate(b1(), alpha, fs) != Poly.parse(at_b1, 2)
            or evaluate(b1_power(2), alpha, fs) != Poly.parse(at_b1_squared, 2)
            or any(evaluate(c, alpha, fs) for c in landing)
        ):
            return False
    return True


def merged_differential() -> bool:
    """(d Gamma)/b0 = -(2^i - 2) Gamma on G_{n,1}, n <= 3, i the boundary in-degree."""
    return all(
        homology.merged_differential_factor(c) == 2 - 2 ** c.graph.in_degrees()[0]
        for c in _classes(range(1, 4), (1,))
    )


CHECKS = {
    "delta-sum": delta_sum,
    "d2-regression": d2_regression,
    "moyal": moyal,
    "sigma-contraction": sigma_contraction,
    "d-squared": d_squared,
    "sigma-squared": sigma_squared,
    "simplicial": simplicial,
    "antipode": antipode_morphism,
    "lemma1": lemma1,
    "kernel-consistency": kernel_consistency,
    "merged-differential": merged_differential,
}
