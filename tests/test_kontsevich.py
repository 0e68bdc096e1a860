"""Graph evaluation as polydifferential operators, star products, and
associativity defects over exact polynomial algebras."""
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from graphdgla import checks, kontsevich, mc
from graphdgla.algebra import (
    GraphVector,
    add_terms,
    project_constant,
    vec,
)
from graphdgla.graphs import GraphError, b1, c2, enumerate_classes, t2L, t2R
from graphdgla.kontsevich import (
    Operator,
    PoissonError,
    PoissonStructure,
    Poly,
    associativity_defect,
    compile_vector,
    evaluate,
    evaluate_graph,
    iter_monomials,
    star_series,
)


# a constant 4 x 4 matrix of rank 4 (Pfaffian a12 a34 = 1/2); three entries
# above the diagonal keep the oracle's pairs^n loop affordable at n = 3
RANK4 = PoissonStructure.constant([
    [0, 1, 3, 0],
    [-1, 0, 0, 0],
    [-3, 0, 0, Fraction(1, 2)],
    [0, 0, Fraction(-1, 2), 0],
])


# the nilpotent linear structure {x1, x2} = x3
HEISENBERG = PoissonStructure.linear(3, {(0, 1, 2): 1, (1, 0, 2): -1})

# {x1, x2} = x2/2 plus {x3, x4} = 2*x4/3: a direct sum, so Jacobi holds, with
# constants over different denominators
FRACTIONAL = PoissonStructure.linear(4, {
    (0, 1, 1): Fraction(1, 2), (1, 0, 1): Fraction(-1, 2),
    (2, 3, 3): Fraction(2, 3), (3, 2, 3): Fraction(-2, 3),
})


def multi_diff(p, indices):
    """d_{i_1} ... d_{i_k} of ``p``, for 1-based indices, through the cache
    of ``Poly._derivative``."""
    return Poly.over(p.d, p.den, p._derivative(tuple(sorted(indices))))


def nonzero_constants(c):
    """The dense tensor c[i][j][k] as the ``{(i, j, k): c^{ij}_k}`` input of
    ``PoissonStructure.linear``."""
    return {
        (i, j, k): x
        for i, plane in enumerate(c) for j, row in enumerate(plane) for k, x in enumerate(row)
        if x
    }


def entry(alpha, i, j):
    """alpha^{ij} from ``alpha.entries``, 0-based; zero when it is not listed."""
    return {(a, b): p for a, b, p in alpha.entries}.get((i, j), Poly.zero(alpha.d))


def dense_jacobi_failure(c):
    """The dense d^5 Jacobi loop: the first failing (i, j, k, l)'s message."""
    d = len(c)
    for i, j, k, l in itertools.product(range(d), repeat=4):
        if sum(
            c[i][j][m] * c[m][k][l] + c[j][k][m] * c[m][i][l] + c[k][i][m] * c[m][j][l]
            for m in range(d)
        ):
            return "Jacobi identity fails at (%d,%d,%d,%d)" % (i + 1, j + 1, k + 1, l + 1)
    return None


def moyal_term(alpha, u, v, n):
    """Independent direct implementation of the order-n Moyal coefficient
    (1/n!) sum alpha^{i1 j1}..alpha^{in jn} d_{i..}u d_{j..}v."""
    d = alpha.d
    rows = [[entry(alpha, i, j) for j in range(d)] for i in range(d)]
    total = Poly.zero(d)
    for idx in itertools.product(range(d), repeat=2 * n):
        iis, jjs = idx[:n], idx[n:]
        coeff = Fraction(1)
        for a, b in zip(iis, jjs):
            c = dict(rows[a][b].items()).get((0,) * d, Fraction(0))
            coeff *= c
            if not coeff:
                break
        if not coeff:
            continue
        du = multi_diff(u, [i + 1 for i in iis])
        dv = multi_diff(v, [j + 1 for j in jjs])
        total = total + du * dv * coeff
    return total * Fraction(1, math.factorial(n))


class TestPoly:
    def test_arithmetic(self):
        x1 = Poly.variable(2, 1)
        x2 = Poly.variable(2, 2)
        p = (x1 + x2) * (x1 - x2)
        assert p == x1 * x1 - x2 * x2

    def test_diff(self):
        p = Poly.parse("x1^3*x2", 2)
        assert multi_diff(p, (1,)) == Poly.parse("3*x1^2*x2", 2)
        assert multi_diff(p, (2,)) == Poly.parse("x1^3", 2)
        assert multi_diff(p, []) == p

    def test_parse_str_round_trip(self):
        for text in ["3/2*x1^2*x3 - x2", "x1*x2 + 5", "-7/3*x2^4"]:
            p = Poly.parse(text, 3)
            assert Poly.parse(str(p), 3) == p

    def test_parse_rejects_garbage(self):
        for bad in ["x0", "x4", "x1^^2", "1//2*x1"]:
            with pytest.raises(ValueError):
                Poly.parse(bad, 3)


# -- Fraction-dict arithmetic ------------------------------------------------
# Poly arithmetic as it was on {exponents: Fraction} dicts, before Poly held
# integer numerators over one denominator: the oracle of the integer form.


def frac_add(p, q):
    return {e: c for e, c in add_terms(dict(p), q.items()).items() if c}


def frac_neg(p):
    return {e: -c for e, c in p.items()}


def frac_scale(p, k):
    return {e: c * Fraction(k) for e, c in p.items() if c * Fraction(k)}


def frac_mul(p, q):
    products = (
        (tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        for e1, c1 in p.items()
        for e2, c2 in q.items()
    )
    return {e: c for e, c in add_terms({}, products).items() if c}


def frac_diff(p, i):
    idx = i - 1
    return {e[:idx] + (e[idx] - 1,) + e[idx + 1:]: c * e[idx] for e, c in p.items() if e[idx]}


def mixed_terms(rng, d, size):
    """Random {exponents: Fraction}: small and above-2^64 numerators over
    denominators that share factors, or are above 2^64 themselves."""
    terms = {}
    for _ in range(size):
        exps = tuple(rng.randint(0, 3) for _ in range(d))
        numerator = rng.choice((rng.randint(1, 12), rng.randint(2**64, 2**70)))
        denominator = rng.choice((1, 2, 3, 4, 6, 9, 12, 2**64 + 13))
        terms[exps] = Fraction(rng.choice((-1, 1)) * numerator, denominator)
    return terms


def assert_lowest_terms(p):
    assert p.den > 0 and 0 not in p.num.values()
    assert math.gcd(p.den, *p.num.values()) == 1


class TestIntegerPoly:
    """Poly on integer numerators against the Fraction-dict arithmetic."""

    def cases(self):
        for seed in range(60):
            rng = random.Random("int-poly-%d" % seed)
            d = rng.randint(1, 3)
            p, q = mixed_terms(rng, d, rng.randint(0, 5)), mixed_terms(rng, d, rng.randint(0, 5))
            if seed % 3 == 0:  # q cancels part of p, or all of it
                q = frac_add(frac_neg(p), q if seed % 2 else {})
            yield rng, d, p, q

    def check(self, got, want):
        assert_lowest_terms(got)
        assert dict(got.items()) == want
        assert all(type(c) is Fraction for _, c in got.items())
        same = Poly(got.d, want)
        assert same == got and hash(same) == hash(got)

    def test_matches_fraction_dicts(self):
        cancelled = 0
        for rng, d, p, q in self.cases():
            P, Q = Poly(d, p), Poly(d, q)
            self.check(P, p)
            self.check(P + Q, frac_add(p, q))
            self.check(P - Q, frac_add(p, frac_neg(q)))
            self.check(-P, frac_neg(p))
            for k in (0, 3, Fraction(-2, 3), Fraction(2**66, 5)):
                self.check(P * k, frac_scale(p, k))
            self.check(P * Q, frac_mul(p, q))
            for i in range(1, d + 1):
                self.check(multi_diff(P, (i,)), frac_diff(p, i))
            cancelled += (P + Q).is_zero
        assert cancelled

    def test_over_reduces_to_lowest_terms(self):
        rng = random.Random(1)
        for _ in range(50):
            d = rng.randint(1, 3)
            p = Poly(d, mixed_terms(rng, d, 4))
            k = rng.choice((1, 6, 2**65 + 3))
            scaled = Poly.over(d, p.den * k, {e: c * k for e, c in p.num.items()})
            assert_lowest_terms(scaled)
            assert scaled == p and hash(scaled) == hash(p)
        zero = Poly.over(2, 12, {(1, 0): 0, (0, 1): 0})
        assert_lowest_terms(zero)
        assert zero == Poly.zero(2) and zero.den == 1

    def multi_indices(self, rng, d):
        return [[rng.randint(1, d) for _ in range(rng.randint(0, 4))] for _ in range(8)]

    def test_warm_cache_in_any_index_order(self):
        for rng, d, p, _ in self.cases():
            P = Poly(d, p)
            indices = self.multi_indices(rng, d)
            for idx in indices:
                multi_diff(P, idx)  # warm the cache in the drawn order
            for idx in indices:
                rng.shuffle(idx)
                want = p
                for i in idx:
                    want = frac_diff(want, i)
                self.check(multi_diff(P, idx), want)

    def test_warm_cache_leaves_equality_and_hash(self):
        for rng, d, p, _ in self.cases():
            P, cold = Poly(d, p), Poly(d, p)
            before = hash(P)
            for idx in self.multi_indices(rng, d):
                multi_diff(P, idx)
            assert P == cold and cold == P
            assert hash(P) == before == hash(cold)

    def test_warm_diff_matches_fresh_poly(self):
        for rng, d, p, _ in self.cases():
            P = Poly(d, p)
            for idx in self.multi_indices(rng, d):
                multi_diff(P, idx)
            for i in range(1, d + 1):
                warm, fresh = multi_diff(P, (i,)), multi_diff(Poly(d, p), (i,))
                assert warm == fresh
                assert multi_diff(warm, (i,)) == multi_diff(fresh, (i,))

    def test_equality_and_hash_agree(self):
        polys = [Poly(d, p) for _, d, p, _ in self.cases()]
        for a, b in itertools.product(polys, repeat=2):
            same = a.d == b.d and dict(a.items()) == dict(b.items())
            assert (a == b) == same
            if same:
                assert hash(a) == hash(b)


class TestPoissonStructure:
    def test_constant_antisymmetry_enforced(self):
        with pytest.raises(PoissonError):
            PoissonStructure.constant([[0, 1], [1, 0]])

    def test_linear_jacobi_enforced(self):
        # brackets {x1,x2} = x3, {x1,x3} = x1 violate the Jacobi identity
        t = [[[Fraction(0)] * 3 for _ in range(3)] for _ in range(3)]
        t[0][1][2] = Fraction(1)
        t[1][0][2] = Fraction(-1)
        t[0][2][0] = Fraction(1)
        t[2][0][0] = Fraction(-1)
        with pytest.raises(PoissonError):
            PoissonStructure.linear(3, nonzero_constants(t))

    def test_linear_jacobi_matches_dense_oracle(self):
        # random sparse antisymmetric tensors, d <= 4: the check over nonzero
        # constants reports the same first failing index as the dense loop
        rng = random.Random(5)
        verdicts = []
        for _ in range(300):
            d = rng.randint(1, 4)
            t = [[[0] * d for _ in range(d)] for _ in range(d)]
            for _ in range(rng.randint(0, 4) if d > 1 else 0):
                i, j = rng.sample(range(d), 2)
                k, v = rng.randrange(d), rng.choice([-2, -1, 1, 2])
                t[i][j][k], t[j][i][k] = v, -v
            want = dense_jacobi_failure(t)
            try:
                PoissonStructure.linear(d, nonzero_constants(t))
                got = None
            except PoissonError as exc:
                got = str(exc)
            assert got == want
            verdicts.append(want is None)
        assert any(verdicts) and not all(verdicts)

    def test_linear_load_cost_follows_nonzero_constants(self, tmp_path):
        # so(3) embedded at d = 200: a dense d x d x d tensor would take
        # minutes to build, and compiling its d^2 entries of d terms each longer
        d = 200
        path = tmp_path / "so3.json"
        path.write_text(json.dumps({"d": d, "kind": "linear", "c": [
            {"i": 1, "j": 2, "k": 3, "val": "1"},
            {"i": 2, "j": 3, "k": 1, "val": "1"},
            {"i": 3, "j": 1, "k": 2, "val": "1"},
        ]}))
        start = time.perf_counter()
        alpha = PoissonStructure.from_json_file(str(path))
        x1, x2, x3 = (Poly.variable(d, i) for i in (1, 2, 3))
        assert evaluate(b1(), alpha, [x1, x2]) == x3
        assert time.perf_counter() - start < 20

    @pytest.mark.parametrize("key", [(0, 1, 3), (3, 0, 1), (0, -1, 2)])
    def test_linear_rejects_index_out_of_range(self, key):
        i, j, k = key
        with pytest.raises(PoissonError, match="outside 0..2"):
            PoissonStructure.linear(3, {(i, j, k): 1, (j, i, k): -1})

    def test_so3_entries(self):
        # entries are 0-based: entry(alpha, 0, 1) is alpha^{12} = x3
        alpha = PoissonStructure.so3()
        assert entry(alpha, 0, 1) == Poly.variable(3, 3)
        assert entry(alpha, 1, 2) == Poly.variable(3, 1)
        assert entry(alpha, 1, 0) == -Poly.variable(3, 3)
        assert entry(alpha, 0, 0).is_zero

    def test_json_round_trip(self):
        obj = {
            "d": 3,
            "kind": "linear",
            "c": [
                {"i": 1, "j": 2, "k": 3, "val": "1"},
                {"i": 2, "j": 3, "k": 1, "val": "1"},
                {"i": 3, "j": 1, "k": 2, "val": "1"},
            ],
        }
        alpha = PoissonStructure.from_json_obj(obj)
        assert entry(alpha, 0, 1) == entry(PoissonStructure.so3(), 0, 1)

    def test_json_accepts_consistent_repeats(self):
        # an entry may be repeated, or given again as its negated mirror
        obj = {"d": 3, "kind": "linear", "c": [
            {"i": 1, "j": 2, "k": 3, "val": "1"},
            {"i": 2, "j": 1, "k": 3, "val": "-1"},
            {"i": 1, "j": 2, "k": 3, "val": 1},
        ]}
        assert PoissonStructure.from_json_obj(obj) == HEISENBERG

    def test_json_accepts_zero_diagonal_entry(self):
        obj = {"d": 3, "kind": "linear", "c": [
            {"i": 1, "j": 2, "k": 3, "val": 1},
            {"i": 1, "j": 1, "k": 2, "val": 0},
        ]}
        assert PoissonStructure.from_json_obj(obj) == HEISENBERG

    def test_json_constant(self):
        alpha = PoissonStructure.from_json_obj(
            {"d": 2, "kind": "constant", "alpha": [["0", "1"], ["-1", "0"]]}
        )
        assert entry(alpha, 0, 1) == Poly.const(2, 1)

    @pytest.mark.parametrize(
        "obj, message",
        [
            (
                {"d": 3, "kind": "linear", "c": [{"i": 1, "j": 2, "k": 4, "val": "1"}]},
                'entry c[0]: index "k" = 4 outside 1..3',
            ),
            (
                {"d": 3, "kind": "linear", "c": [
                    {"i": 1, "j": 2, "k": 3, "val": "1"},
                    {"i": 0, "j": 2, "k": 3, "val": "1"},
                ]},
                'entry c[1]: index "i" = 0 outside 1..3',
            ),
            (
                {"d": 5, "kind": "constant", "alpha": [["0", "1"], ["-1", "0"]]},
                '"alpha" has 2 rows but "d" is 5',
            ),
            (  # the mirror (j, i, k) set with the same sign, not the opposite
                {"d": 3, "kind": "linear", "c": [
                    {"i": 1, "j": 2, "k": 3, "val": 1},
                    {"i": 2, "j": 1, "k": 3, "val": 1},
                ]},
                "entries c[0] and c[1] conflict: c^{21}_3 = -1 and 1",
            ),
            (
                {"d": 3, "kind": "linear", "c": [
                    {"i": 1, "j": 2, "k": 3, "val": "1"},
                    {"i": 3, "j": 1, "k": 2, "val": "1"},
                    {"i": 1, "j": 2, "k": 3, "val": "2"},
                ]},
                "entries c[0] and c[2] conflict: c^{12}_3 = 1 and 2",
            ),
            (
                {"d": 2.7, "kind": "constant", "alpha": [["0", "1"], ["-1", "0"]]},
                '"d" must be an integer, got 2.7',
            ),
            (
                {"d": True, "kind": "constant", "alpha": [["0"]]},
                '"d" must be an integer, got true',
            ),
            (
                {"d": "2", "kind": "constant", "alpha": [["0", "1"], ["-1", "0"]]},
                '"d" must be an integer, got "2"',
            ),
            (
                {"d": 3, "kind": "linear", "c": [{"i": 2.9, "j": 1, "k": 3, "val": 1}]},
                'entry c[0]: index "i" must be an integer, got 2.9',
            ),
            (
                {"d": 3, "kind": "linear", "c": [{"i": 2, "j": True, "k": 3, "val": 1}]},
                'entry c[0]: index "j" must be an integer, got true',
            ),
            (
                {"d": 3, "kind": "linear", "c": [
                    {"i": 1, "j": 2, "k": 3, "val": 1},
                    {"i": 2, "j": 3, "k": "1", "val": 1},
                ]},
                'entry c[1]: index "k" must be an integer, got "1"',
            ),
            (
                {"d": 2, "kind": "constant", "alpha": [["0", "1/0"], ["-1", "0"]]},
                '"alpha"[0][1] = "1/0" has a zero denominator',
            ),
            (
                {"d": 3, "kind": "linear", "c": [{"i": 1, "j": 2, "k": 3, "val": "2/0"}]},
                'entry c[0]: "val" = "2/0" has a zero denominator',
            ),
            (
                {"d": 2, "kind": "constant", "alpha": ["00", "00"]},
                '"alpha"[0] must be an array, got a string',
            ),
            (
                {"d": 2, "kind": "constant", "alpha": [["0", "1"], None]},
                '"alpha"[1] must be an array, got null',
            ),
            (
                {"d": 2, "kind": "constant", "alpha": "00"},
                '"alpha" must be an array, got a string',
            ),
            ({"d": 3, "kind": "linear", "c": "ab"}, '"c" must be an array, got a string'),
            ({"d": 3, "kind": "linear", "c": {"i": 1}}, '"c" must be an array, got an object'),
            (
                {"d": 3, "kind": "linear", "c": [[1, 2, 3, 1]]},
                "entry c[0] must be an object, got an array",
            ),
            ([1, 2], "the top level must be an object, got an array"),
            (
                {"d": 2, "kind": "constant", "alpha": [[0, True], [-1, 0]]},
                '"alpha"[0][1] must be a number or numeric string, got true',
            ),
            (
                {"d": 3, "kind": "linear", "c": [{"i": 1, "j": 2, "k": 3, "val": None}]},
                'entry c[0]: "val" must be a number or numeric string, got null',
            ),
            (
                {"d": 3, "kind": "linear", "c": [{"i": 1, "j": 2, "k": 3, "val": [1]}]},
                'entry c[0]: "val" must be a number or numeric string, got [1]',
            ),
            (
                {"d": 3, "kind": "linear", "c": [{"i": 1, "j": 2, "k": 3, "val": "one"}]},
                'entry c[0]: "val" must be a number or numeric string, got "one"',
            ),
            (
                {"d": 2, "kind": "constant", "alpha": [[0, 1], [-1]]},
                '"alpha"[1] has 1 entries but "d" is 2',
            ),
            (
                {"d": 2, "kind": "constant", "alpha": [[1, 1], [-1, 0]]},
                '"alpha"[0][0] = 1 must be the negative of "alpha"[0][0] = 1',
            ),
            (
                {"d": 2, "kind": "constant", "alpha": [[0, 1], [2, 0]]},
                '"alpha"[0][1] = 1 must be the negative of "alpha"[1][0] = 2',
            ),
            (
                {"d": 3, "kind": "linear", "c": [{"i": 1, "j": 1, "k": 2, "val": 1}]},
                'entry c[0]: "i" = "j" needs "val" 0, got 1',
            ),
            (
                {"d": 3, "kind": "linear", "c": [
                    {"i": 1, "j": 2, "k": 3, "val": 1},
                    {"i": 2, "j": 3, "val": 1},
                ]},
                'entry c[1]: missing "k"',
            ),
            ({"d": 3, "kind": "linear"}, 'the top level: missing "c"'),
            ({"d": 2, "kind": "constant"}, 'the top level: missing "alpha"'),
            ({"d": 2, "alpha": [[0]]}, 'the top level: missing "kind"'),
        ],
    )
    def test_json_rejects_inconsistent_entries(self, obj, message):
        with pytest.raises(PoissonError) as info:
            PoissonStructure.from_json_obj(obj)
        assert str(info.value) == message


class TestEvaluate:
    def test_b1_is_poisson_bracket(self):
        alpha = PoissonStructure.standard_symplectic(2)
        x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
        assert evaluate(b1(), alpha, [x1, x2]) == Poly.const(2, 1)

    def test_internal_landings_die_for_constant(self):
        alpha = PoissonStructure.standard_symplectic(2)
        fs = [Poly.parse("x1^2*x2", 2), Poly.parse("x1*x2^2", 2), Poly.parse("x2", 2)]
        for g in (t2R(), t2L(), c2()):
            assert evaluate(g, alpha, fs).is_zero

    def test_in_degree_two_dies_for_linear(self):
        alpha = PoissonStructure.so3()
        fs = [Poly.parse("x1*x2*x3", 3), Poly.parse("x1^2", 3)]
        for c in enumerate_classes(3, 2):
            if not c.graph.fits(1):
                assert evaluate(c, alpha, fs).is_zero

    def test_bracket_antisymmetry(self):
        alpha = PoissonStructure.standard_symplectic(2)
        u, v = Poly.parse("x1^2*x2", 2), Poly.parse("x1*x2^2", 2)
        assert (evaluate(b1(), alpha, [u, v]) + evaluate(b1(), alpha, [v, u])).is_zero

    def test_linearity_in_functions(self):
        alpha = PoissonStructure.standard_symplectic(2)
        u1, u2, v = Poly.parse("x1^2", 2), Poly.parse("x2", 2), Poly.parse("x1*x2", 2)
        lhs = evaluate(b1(), alpha, [u1 + u2 * 3, v])
        rhs = evaluate(b1(), alpha, [u1, v]) + evaluate(b1(), alpha, [u2, v]) * 3
        assert lhs == rhs

    def test_dimension_mismatch(self):
        alpha = PoissonStructure.standard_symplectic(2)
        with pytest.raises(ValueError):
            evaluate(b1(), alpha, [Poly.variable(2, 1)])

    def test_jacobi_graph_relation(self):
        """t2R - t2L - c2 evaluates to zero for a Jacobi-valid linear
        structure: the evaluator's proxy for the quotient ideal."""
        alpha = PoissonStructure.so3()
        corpus = list(iter_monomials(3, 2))
        relation = vec(t2R()) - vec(t2L()) - vec(c2())
        for u in corpus:
            for v in corpus:
                for w in corpus:
                    assert evaluate(relation, alpha, [u, v, w]).is_zero


class TestMoyalOracle:
    def test_solved_series_matches_direct_formula(self):
        series = mc.solve(4, "constant")
        cases = [
            (PoissonStructure.constant([[0, Fraction(1)], [-1, 0]]),
             Poly.parse("x1^3*x2", 2), Poly.parse("x1*x2^2", 2)),
            (RANK4, Poly.parse("x1^2*x2*x3 - 2*x4^3 + x1*x4", 4),
             Poly.parse("x2^2*x3*x4 + 3*x1^2*x3^2", 4)),
        ]
        for alpha, u, v in cases:
            for n in range(5):
                got = evaluate(series.coeffs[n], alpha, [u, v])
                assert got == moyal_term(alpha, u, v, n)


class TestStar:
    def test_moyal_x1_x2(self):
        alpha = PoissonStructure.standard_symplectic(2)
        series = mc.solve(2, "constant")
        x1, x2 = Poly.variable(2, 1), Poly.variable(2, 2)
        fwd = star_series(series, alpha, [x1], [x2])
        bwd = star_series(series, alpha, [x2], [x1])
        assert fwd[0] == x1 * x2 and fwd[1] == Poly.const(2, 1) and fwd[2].is_zero
        assert bwd[0] == x1 * x2 and bwd[1] == Poly.const(2, -1) and bwd[2].is_zero

    def test_unit(self):
        alpha = PoissonStructure.standard_symplectic(2)
        series = mc.solve(3, "constant")
        u = Poly.parse("x1^2*x2 - 3*x2", 2)
        out = star_series(series, alpha, [u], [Poly.const(2, 1)])
        assert out[0] == u and all(p.is_zero for p in out[1:])

    def test_so3_order_1_commutator(self):
        alpha = PoissonStructure.so3()
        series = mc.solve(2, "linear")
        x1, x2 = Poly.variable(3, 1), Poly.variable(3, 2)
        fwd = star_series(series, alpha, [x1], [x2])
        bwd = star_series(series, alpha, [x2], [x1])
        assert fwd[1] - bwd[1] == Poly.variable(3, 3) * 2


class TestAssociativityDefect:
    def test_order_0_always_zero(self):
        alpha = PoissonStructure.so3()
        series = mc.solve(2, "linear")
        u, v, w = (Poly.variable(3, i) for i in (1, 2, 3))
        assert associativity_defect(series, alpha, u, v, w)[0].is_zero

    def test_constant_zero_through_order_2_sample(self):
        alpha = PoissonStructure.standard_symplectic(2)
        series = mc.solve(2, "constant")
        corpus = list(iter_monomials(2, 2))
        for u in corpus:
            for v in corpus:
                for w in corpus:
                    defects = associativity_defect(series, alpha, u, v, w)
                    assert all(p.is_zero for p in defects)

    def test_linear_order_2_reported(self):
        alpha = PoissonStructure.so3()
        series = mc.solve(2, "linear")
        u, v, w = (Poly.variable(3, i) for i in (1, 2, 3))
        defects = associativity_defect(series, alpha, u, v, w)
        assert len(defects) == 3  # orders 0..2 produced, values not asserted


class TestKernelConsistency:
    def test_constant_evaluation_factors_through_projection(self):
        alpha = PoissonStructure.standard_symplectic(2)
        fs = [Poly.parse("x1^2*x2^2", 2), Poly.parse("x1*x2", 2)]
        for n in range(4):
            for c in enumerate_classes(n, 2):
                direct = evaluate(c, alpha, fs)
                projected = evaluate(project_constant(vec(c)), alpha, fs)
                assert direct == projected

    @pytest.mark.parametrize("wrong", ["doubled", "max-exponents"])
    def test_check_fails_on_a_wrong_product(self, monkeypatch, wrong):
        real = kontsevich._mul
        products = {
            "doubled": lambda p, q: {e: 2 * c for e, c in real(p, q).items()},
            "max-exponents": lambda p, q: {
                tuple(map(max, e1, e2)): c1 * c2
                for e1, c1 in p.items() for e2, c2 in q.items()
            },
        }
        monkeypatch.setattr(kontsevich, "_mul", products[wrong])
        assert not checks.kernel_consistency()


def test_monomial_corpus_size():
    # all monomials of total degree <= 3 in 2 variables: C(2+3,3) = 10
    assert len(list(iter_monomials(2, 3))) == 10


def ref_iter_monomials(d, degree):
    """All (total+1)^d exponent tuples per total degree, filtered by their sum."""
    for total in range(degree + 1):
        for exps in itertools.product(range(total + 1), repeat=d):
            if sum(exps) == total:
                yield Poly.monomial(d, exps)


@pytest.mark.parametrize("d", range(5))
def test_monomials_match_filter_oracle(d):
    for degree in range(5):
        assert list(iter_monomials(d, degree)) == list(ref_iter_monomials(d, degree))


def test_monomials_cost_follows_their_number():
    # the filter walks 4^14 tuples for degree 3; C(14+3, 3) = 680 are kept
    start = time.perf_counter()
    assert len(list(iter_monomials(14, 3))) == 680
    assert time.perf_counter() - start < 5


# -- fold-with-+ reference implementations --------------------------------
# Poly arithmetic and evaluation as written before add_terms: each step adds
# a one-monomial polynomial, or a whole term, with Poly.__add__.


def ref_mul(p, q):
    acc = Poly.zero(p.d)
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            acc = acc + Poly.monomial(p.d, [a + b for a, b in zip(e1, e2)], c1 * c2)
    return acc


def ref_diff(p, i):
    acc = Poly.zero(p.d)
    idx = i - 1
    for e, c in p.items():
        if e[idx] == 0:
            continue
        acc = acc + Poly.monomial(p.d, e[:idx] + (e[idx] - 1,) + e[idx + 1:], c * e[idx])
    return acc


def ref_multi_diff(p, indices):
    for i in indices:
        p = ref_diff(p, i)
    return p


def ref_evaluate_graph(g, alpha, fs):
    d = alpha.d
    pairs = alpha.entries
    total = Poly.zero(d)
    m, n = g.m, g.n
    for assign in itertools.product(pairs, repeat=n):
        derivs = [[] for _ in range(m + n)]
        for k, (i, j, _) in enumerate(assign):
            a, b = g.targets[k]
            derivs[a].append(i + 1)
            derivs[b].append(j + 1)
        term = Poly.const(d, 1)
        for k, (_, _, p) in enumerate(assign):
            term = ref_mul(term, ref_multi_diff(p, derivs[m + k]))
        for s in range(m):
            term = ref_mul(term, ref_multi_diff(fs[s], derivs[s]))
        total = total + term
    return total


def ref_evaluate(x, alpha, fs):
    acc = Poly.zero(alpha.d)
    for g, c in x:
        acc = acc + ref_evaluate_graph(g, alpha, fs) * c
    return acc


def random_poly(rng, d, degree, size):
    """A sum of ``size`` random monomials; repeats add and may cancel."""
    p = Poly.zero(d)
    for _ in range(size):
        exps = [rng.randint(0, degree) for _ in range(d)]
        coeff = Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
        p = p + Poly.monomial(d, exps, coeff)
    return p


STRUCTURES = {
    "symplectic": PoissonStructure.standard_symplectic(2),
    "rank4": RANK4,
    "so3": PoissonStructure.so3(),
    "heisenberg": HEISENBERG,
    "fractional": FRACTIONAL,
}


class TestAccumulationOracle:
    """Poly arithmetic and evaluation against the fold-with-+ sums."""

    SEEDS = range(10)

    def test_mul_and_diff(self):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            d = rng.choice((1, 2, 3))
            p, q = random_poly(rng, d, 3, 5), random_poly(rng, d, 3, 4)
            assert p * q == ref_mul(p, q)
            assert p * p * q == ref_mul(ref_mul(p, p), q)
            for i in range(1, d + 1):
                assert multi_diff(p, (i,)) == ref_diff(p, i)

    def test_evaluate(self):
        pool = [c for n in (0, 1, 2) for c in enumerate_classes(n, 2)]
        for seed in self.SEEDS:
            rng = random.Random(seed)
            name = rng.choice(sorted(STRUCTURES))
            alpha = STRUCTURES[name]
            fs = [random_poly(rng, alpha.d, 2, 3) for _ in range(2)]
            x = GraphVector()
            for c in rng.choices(pool, k=4):
                x = x + vec(c, Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)))
            for g, _ in x:
                assert evaluate_graph(g, alpha, fs) == ref_evaluate_graph(g, alpha, fs)
            assert evaluate(x, alpha, fs) == ref_evaluate(x, alpha, fs)

    def test_star_series(self):
        series = mc.solve(2, "linear")
        alpha = STRUCTURES["so3"]
        rng = random.Random(3)
        A = [random_poly(rng, 3, 2, 2) for _ in range(2)]
        B = [random_poly(rng, 3, 2, 2), Poly.zero(3)]
        want = [Poly.zero(3) for _ in range(3)]
        for p, ap in enumerate(A):
            for q, bq in enumerate(B):
                for r in range(3 - p - q):
                    want[p + q + r] = want[p + q + r] + ref_evaluate(
                        series.coeffs[r], alpha, [ap, bq]
                    )
        assert star_series(series, alpha, A, B) == want

    def test_cancelled_sum_stores_no_zero(self):
        p = random_poly(random.Random(0), 2, 3, 5)
        assert not p.is_zero
        assert (p - p).num == {}
        assert (p * Poly.zero(2)).num == {}
        assert Poly.parse("x1 - x1 + 2*x2 - x2 - x2", 2).num == {}

    def test_entry(self):
        # alpha^{ij} = sum_k eps_{ijk} x_k, with eps the Levi-Civita symbol
        alpha = STRUCTURES["so3"]
        for i in range(3):
            for j in range(3):
                want = Poly.zero(3)
                for k in range(3):
                    eps = Fraction((i - j) * (j - k) * (k - i), 2)
                    want = want + Poly.variable(3, k + 1) * eps
                assert entry(alpha, i, j) == want
        assert [(i, j) for i, j, _ in alpha.entries] == [
            (0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)
        ]


class TestCompiledOperator:
    """Compiled evaluation against the per-assignment fold-with-+ oracle."""

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_every_class_matches_oracle(self, name, m):
        alpha = STRUCTURES[name]
        rng = random.Random("%s-%d" % (name, m))
        for n in range(4):
            fs = [random_poly(rng, alpha.d, 3, 3) for _ in range(m)]
            for c in enumerate_classes(n, m):
                want = ref_evaluate_graph(c.graph, alpha, fs) * c.sign
                assert evaluate(c, alpha, fs) == want, (n, c.graph)

    def test_vector_merges_graphs(self):
        # graphs whose operators share multi-indices, summed with coefficients
        alpha = PoissonStructure.so3()
        x = mc.solve(3, "linear").coeffs[3]
        fs = [random_poly(random.Random(5), 3, 3, 4) for _ in range(2)]
        assert evaluate(x, alpha, fs) == ref_evaluate(x, alpha, fs)

    def test_arity_checked_with_cached_operator(self):
        alpha = PoissonStructure.so3()
        x1 = Poly.variable(3, 1)
        evaluate(b1(), alpha, [x1, x1])
        with pytest.raises(GraphError):
            evaluate(b1(), alpha, [x1])
        with pytest.raises(ValueError):
            evaluate(b1(), alpha, [Poly.variable(2, 1)] * 2)


def ref_compile_vector(x, alpha):
    """``compile_vector`` without the kind filter: every graph's pairs^n
    edge assignments are walked."""
    d = alpha.d
    pairs = alpha.entries
    acc = {}
    for g, c in x:
        m, n = g.m, g.n
        for assign in itertools.product(pairs, repeat=n):
            derivs = [[] for _ in range(m + n)]
            for k, (i, j, _) in enumerate(assign):
                a, b = g.targets[k]
                derivs[a].append(i + 1)
                derivs[b].append(j + 1)
            coeff = Poly.const(d, c)
            for k, (_, _, p) in enumerate(assign):
                factor = multi_diff(p, derivs[m + k])
                if factor.is_zero:
                    break
                coeff = coeff * factor
            else:
                key = tuple(tuple(sorted(derivs[s])) for s in range(m))
                add_terms(acc.setdefault(key, {}), coeff.items())
    terms = ((key, Poly(d, coeff)) for key, coeff in acc.items())
    return Operator(d, x.boundary_arity(), tuple(t for t in terms if t[1]))


def ref_apply(op, fs):
    """``Operator.__call__`` as a Fraction Poly product per term; each slot
    is differentiated once per distinct multi-index."""
    derived = [{} for _ in fs]
    acc = {}
    for key, term in op.terms:
        for f, known, idx in zip(fs, derived, key):
            factor = known.get(idx)
            if factor is None:
                factor = known[idx] = multi_diff(f, idx)
            if factor.is_zero:
                break
            term = term * factor
        else:
            add_terms(acc, term.items())
    return Poly(op.d, acc)


def ref_star_series(series, alpha, A, B):
    """``star_series`` as a sum of ``ref_apply`` products, order by order."""
    N = series.order
    acc = [{} for _ in range(N + 1)]
    for p, ap in enumerate(A):
        for q, bq in enumerate(B):
            if ap.is_zero or bq.is_zero:
                continue
            for r in range(N - p - q + 1):
                product = ref_apply(compile_vector(series.coeffs[r], alpha), [ap, bq])
                add_terms(acc[p + q + r], product.items())
    return [Poly(alpha.d, terms) for terms in acc]


def big_poly(rng, d, degree, size):
    """Random monomials with numerators above 2^64 over denominators 1..7."""
    terms = {}
    for _ in range(size):
        exps = tuple(rng.randint(0, degree) for _ in range(d))
        numerator = rng.choice((-1, 1)) * rng.randint(2**64, 2**70)
        terms[exps] = Fraction(numerator, rng.randint(1, 7))
    return Poly(d, terms)


def assert_fraction_coefficients(p):
    assert all(type(c) is Fraction for _, c in p.items())


class TestIntegerKernel:
    """Operators applied on integer numerators, against ``ref_apply``."""

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_every_class_matches_ref_apply(self, name):
        alpha = STRUCTURES[name]
        rng = random.Random("kernel-" + name)
        for m in (1, 2, 3):
            for n in range(4):
                fs = [random_poly(rng, alpha.d, 3, 3) for _ in range(m)]
                for c in enumerate_classes(n, m):
                    op = compile_vector(vec(c), alpha)
                    got = op(fs)
                    assert got == ref_apply(op, fs), (n, c.graph)
                    assert_fraction_coefficients(got)

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_mixed_denominators_and_large_numerators(self, name):
        alpha = STRUCTURES[name]
        series = mc.solve(3, alpha.kind)
        rng = random.Random("big-" + name)
        for x in series.coeffs:
            op = compile_vector(x, alpha)
            fs = [big_poly(rng, alpha.d, 3, 4) for _ in range(2)]
            got = op(fs)
            assert got == ref_apply(op, fs)
            assert_fraction_coefficients(got)

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_zero_and_constant_inputs(self, name):
        alpha = STRUCTURES[name]
        d = alpha.d
        u = random_poly(random.Random(name), d, 3, 4)
        inputs = [
            (Poly.zero(d), u), (u, Poly.zero(d)), (Poly.zero(d), Poly.zero(d)),
            (Poly.const(d, Fraction(-5, 3)), u), (u, Poly.const(d, 7)),
            (Poly.const(d, Fraction(1, 2)), Poly.const(d, Fraction(2, 7))),
        ]
        ops = [compile_vector(x, alpha) for x in mc.solve(3, alpha.kind).coeffs]
        for op in ops:
            for fs in inputs:
                got = op(list(fs))
                assert got == ref_apply(op, list(fs))
                assert_fraction_coefficients(got)
        # m_0 is the product
        assert ops[0]([Poly.zero(d), u]).is_zero
        assert ops[0]([u, Poly.const(d, 7)]) == u * 7

    # the one truncation left is the series' own order, N = None
    @pytest.mark.parametrize("N", [None])
    def test_star_series_fractional_with_zero_entry(self, N):
        series = mc.solve(3, "linear")
        alpha = STRUCTURES["so3"]
        rng = random.Random(7)
        A = [big_poly(rng, 3, 2, 3), Poly.zero(3), random_poly(rng, 3, 2, 3)]
        B = [random_poly(rng, 3, 2, 3), big_poly(rng, 3, 2, 2)]
        got = star_series(series, alpha, A, B)
        assert got == ref_star_series(series, alpha, A, B)
        assert len(got) == series.order + 1
        for p in got:
            assert_fraction_coefficients(p)

    def test_so3_order_4_defect(self):
        series = mc.solve(4, "linear")
        alpha = STRUCTURES["so3"]
        rng = random.Random(11)
        corpus = [Poly.variable(3, 1), random_poly(rng, 3, 2, 3), big_poly(rng, 3, 2, 2)]
        nonzero = 0
        for u, v, w in itertools.product(corpus, repeat=3):
            got = associativity_defect(series, alpha, u, v, w)
            uv = ref_star_series(series, alpha, [u], [v])
            vw = ref_star_series(series, alpha, [v], [w])
            left = ref_star_series(series, alpha, uv, [w])
            right = ref_star_series(series, alpha, [u], vw)
            assert got == [l - r for l, r in zip(left, right)]
            for p in got:
                assert_fraction_coefficients(p)
            nonzero += any(got)
        assert nonzero  # so(3) star products of the linear series are not associative


class TestKindFilter:
    """compile_vector skips the graphs that vanish for the structure's kind."""

    CASES = [("so3", 1), ("symplectic", 0), ("fractional", 1)]
    # the case IDs name the filters these bounds replaced, so they stay stable
    IDS = ["%s-keeps_%s" % (name, ("constant", "linear")[b]) for name, b in CASES]

    @pytest.mark.parametrize("name, bound", CASES, ids=IDS)
    def test_same_operator_as_unfiltered_walk(self, name, bound):
        alpha = STRUCTURES[name]
        classes = [c for n in range(4) for c in enumerate_classes(n, 2)]
        for c in classes:
            x = vec(c)
            assert compile_vector(x, alpha) == ref_compile_vector(x, alpha), c.graph
        # one vector mixing kept and dropped graphs, with distinct coefficients
        x = GraphVector.combine((c, Fraction(k + 1, 3)) for k, c in enumerate(classes))
        assert compile_vector(x, alpha) == ref_compile_vector(x, alpha)

    @pytest.mark.parametrize("name, bound", CASES, ids=IDS)
    def test_dropped_graph_compiles_to_nothing(self, name, bound):
        alpha = STRUCTURES[name]
        dropped = [
            c for n in range(4) for c in enumerate_classes(n, 2) if not c.graph.fits(bound)
        ]
        assert dropped
        for c in dropped:
            x = vec(c)
            assert ref_compile_vector(x, alpha).terms == (), c.graph
            assert compile_vector(x, alpha).terms == ()
            assert compile_vector(x, alpha).m == 2


class TestDefectIdentity:
    """associativity_defect(...)[n] is half the evaluated formal defect."""

    @pytest.mark.parametrize(
        "projection, name",
        [("linear", "so3"), ("constant", "symplectic"), ("linear", "heisenberg")],
    )
    def test_half_identity(self, projection, name):
        alpha = STRUCTURES[name]
        series = mc.solve(3, projection)
        defects = [mc.defect(series, n) for n in range(4)]
        rng = random.Random(name)
        nonzero = 0
        for _ in range(20):
            u, v, w = (random_poly(rng, alpha.d, 3, 3) for _ in range(3))
            got = associativity_defect(series, alpha, u, v, w)
            for n in range(4):
                assert got[n] == evaluate(defects[n], alpha, [u, v, w]) * Fraction(1, 2)
                nonzero += bool(got[n])
        if name == "so3":  # the identity is not checked on zeros alone
            assert nonzero


# sl(2): [h, e] = 2e, [h, f] = -2f, [e, f] = h, with x1, x2, x3 = e, f, h
SL2 = PoissonStructure.linear(3, {(0, 1, 2): 1, (1, 0, 2): -1, (2, 0, 0): 2,
                                  (0, 2, 0): -2, (2, 1, 1): -2, (1, 2, 1): 2})


class TestConjecture1:
    """Exact verdicts on Conjecture 1 for the merger series.

    An operator with polynomial coefficients vanishes on every polynomial
    input iff its compiled form has no terms, and ``TestDefectIdentity`` ties
    the evaluated associativity defect to the formal one.  So the star
    product is associative at order n iff ``compile_vector(mc.defect(series,
    n), alpha)`` is empty.  Order 4 on so(3) and sl(2) takes seconds and is
    left to the compiled-operator digests, which pin 3,846 and 3,276 terms.
    """

    @pytest.mark.parametrize(
        "order, projection, alpha, sizes",
        [
            (3, "linear", STRUCTURES["so3"], [0, 0, 12, 450]),
            (3, "linear", SL2, [0, 0, 12, 364]),
            (4, "linear", HEISENBERG, [0] * 5),
            (4, "constant", STRUCTURES["symplectic"], [0] * 5),
        ],
        ids=["so3", "sl2", "heisenberg", "symplectic"],
    )
    def test_compiled_defect_terms(self, order, projection, alpha, sizes):
        series = mc.solve(order, projection)
        got = [len(compile_vector(mc.defect(series, n), alpha).terms) for n in range(order + 1)]
        assert got == sizes

    def test_so3_witness(self):
        # (x1 * x1) * x2 - x1 * (x1 * x2) = 1/4 x2 at order 2
        x1, x2 = Poly.variable(3, 1), Poly.variable(3, 2)
        got = associativity_defect(mc.solve(2, "linear"), STRUCTURES["so3"], x1, x1, x2)
        assert got == [Poly.zero(3), Poly.zero(3), x2 * Fraction(1, 4)]
