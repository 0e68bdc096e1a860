"""Acceptance gate: the twelve exact-identity criteria, one verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
Criterion 10 reproduces a claimed identity that the computed differential
contradicts; it is marked xfail with the measured replacement law (see the
merged_differential_factor docstring and the repository notes).
"""
import math
import time
from fractions import Fraction

import pytest

from graphdgla import checks, mc
from graphdgla.algebra import bracket, expand_wedge_basis, project_constant, vec
from graphdgla.graphs import b1_power, c2, enumerate_classes, t2L, t2R
from graphdgla.homology import merged_differential
from graphdgla.kontsevich import (
    PoissonStructure,
    Poly,
    associativity_defect,
    evaluate,
    iter_monomials,
)


def verdict(number, name, ok, started, limit=None):
    elapsed = time.monotonic() - started
    line = "criterion %2d %-28s %s (%.2fs)" % (
        number,
        name,
        "PASS" if ok else "FAIL",
        elapsed,
    )
    print(line)
    assert ok, line
    if limit is not None:
        assert elapsed < limit, "runtime %.2fs exceeds %ds budget" % (elapsed, limit)


def test_criterion_01_d2_regression():
    started = time.monotonic()
    verdict(1, "D2 regression", checks.d2_regression(), started, limit=1)


def test_criterion_02_moyal_recovery():
    started = time.monotonic()
    verdict(2, "Moyal recovery", checks.moyal(), started, limit=60)


def test_criterion_03_graph_associativity():
    started = time.monotonic()
    ok = checks.defects_vanish(mc.solve(4, "constant"))
    verdict(3, "graph-level associativity", ok, started, limit=60)


def test_criterion_04_evaluated_associativity():
    started = time.monotonic()
    alpha = PoissonStructure.standard_symplectic(2)
    series = mc.solve(4, "constant")
    corpus = list(iter_monomials(2, 3))
    ok = True
    for u in corpus:
        for v in corpus:
            for w in corpus:
                defects = associativity_defect(series, alpha, u, v, w)
                if any(p for p in defects):
                    ok = False
    verdict(4, "evaluated associativity", ok, started, limit=120)


def test_criterion_05_contraction_lemma():
    started = time.monotonic()
    verdict(5, "contraction lemma", checks.sigma_contraction(), started)


def test_criterion_06_structure_constants():
    started = time.monotonic()
    ok = True
    for i in range(1, 5):
        for j in range(1, 5):
            n = i + j
            if n > 5:
                continue
            Bi = vec(b1_power(i), Fraction(1, math.factorial(i)))
            Bj = vec(b1_power(j), Fraction(1, math.factorial(j)))
            got = expand_wedge_basis(project_constant(bracket(Bi, Bj)))
            want = {}
            for r in range(n + 1):
                for s in range(n + 1 - r):
                    t = n - r - s
                    c = (
                        (r + s == i and t == j)
                        - (r == i and s + t == j)
                        + (r + s == j and t == i)
                        - (r == j and s + t == i)
                    )
                    if c:
                        want[(r, s, t)] = Fraction(c)
            if got != want:
                ok = False
    ok = ok and checks.delta_sum()
    verdict(6, "structure constants", ok, started)


def test_criterion_07_differential_contraction_algebra():
    started = time.monotonic()
    ok = checks.d_squared() and checks.sigma_squared() and checks.simplicial()
    verdict(7, "differential/contraction", ok, started, limit=120)


def test_criterion_08_antipode():
    started = time.monotonic()
    verdict(8, "antipode morphism", checks.antipode_morphism(), started)


def test_criterion_09_lemma1_identity():
    started = time.monotonic()
    verdict(9, "Lemma-1 formal identity", checks.lemma1(), started)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the claimed law (dGamma)/b0 = 2^{i-1} Gamma does not hold for the "
        "implemented differential: exhaustive computation over G_{n,1}, "
        "n <= 3 gives (dGamma)/b0 = -(2^i - 2) Gamma instead (i the "
        "boundary in-degree); no sign or normalization convention "
        "reconciles the two factors (0 vs 1 at i = 1, -6 vs 4 at i = 3). "
        "The measured law is verified in test_homology and the selftest."
    ),
)
def test_criterion_10_boundary_merge_lemma():
    started = time.monotonic()
    # the claimed law (dGamma)/b0 = 2^{i-1} Gamma, i the boundary in-degree
    ok = all(
        merged_differential(c) == vec(c, Fraction(2) ** (c.graph.in_degrees()[0] - 1))
        for n in (1, 2, 3)
        for c in enumerate_classes(n, 1)
    )
    verdict(10, "boundary-merge lemma", ok, started)


def test_criterion_11_kernel_consistency():
    started = time.monotonic()
    ok = checks.kernel_consistency()
    so3 = PoissonStructure.so3()
    relation = vec(t2R()) - vec(t2L()) - vec(c2())
    corpus = list(iter_monomials(3, 2))
    for u in corpus:
        for v in corpus:
            for w in corpus:
                if evaluate(relation, so3, [u, v, w]):
                    ok = False
    verdict(11, "Kontsevich kernel consistency", ok, started)


def test_criterion_12_conjecture_instrumentation():
    started = time.monotonic()
    series = mc.solve(2, "linear")
    report = series.reports[0]
    alpha = PoissonStructure.so3()
    u, v, w = (Poly.variable(3, i) for i in (1, 2, 3))
    defects = associativity_defect(series, alpha, u, v, w)
    # acceptance is deterministic production of the report, not its values
    again = mc.solve(2, "linear")
    ok = (
        report.n == 2
        and report.residual == again.reports[0].residual
        and len(defects) == 3
        and defects == associativity_defect(again, alpha, u, v, w)
    )
    verdict(12, "Conjecture-1 instrumentation", ok, started)
