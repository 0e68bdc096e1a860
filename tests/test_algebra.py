"""The DGLA operations: insertion, bracket, differential, merger contraction,
projections, basis expansions, antipode, and the index-triple codifferential."""
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from graphdgla import algebra, checks, mc
from graphdgla.algebra import (
    PROJECTIONS,
    GraphVector,
    SigmaDomainError,
    WedgeSpanError,
    _reattachments,
    add_terms,
    antipode,
    antipode_sign,
    bracket,
    compose,
    compose_terms,
    delta_codifferential,
    delta_sum_check,
    differential,
    expand_wedge_basis,
    insert,
    project_constant,
    project,
    sigma,
    sigma_normalization,
    vec,
)
from graphdgla.graphs import (
    ZERO,
    GraphError,
    LabeledGraph,
    SignedGraphClass,
    canonicalize,
    b0,
    b1,
    b1_power,
    c2,
    c2L,
    c2R,
    empty_graph,
    enumerate_classes,
    merge_boundary,
    t2L,
    t2R,
    transpose,
)

B0 = vec(b0())
B1 = vec(b1())
# X is the third graph produced by inserting a wedge into a wedge: one foot
# of each wedge on a shared boundary point, no internal landings.
X = vec(canonicalize(LabeledGraph(3, ((1, 2), (0, 1)))))


def wedge_basis_element(key):
    """B_n = b1^n / n! for an int key; for a triple (r, s, t), Gamma_rst =
    (Gamma_1^r / r!) (Gamma_2^s / s!) (Gamma_3^t / t!) with Gamma_1, Gamma_2,
    Gamma_3 the wedges over (2,3), (1,3), (1,2)."""
    if isinstance(key, int):
        return vec(b1_power(key), Fraction(1, math.factorial(key)))
    targets = ((1, 2),) * key[0] + ((0, 2),) * key[1] + ((0, 1),) * key[2]
    norm = math.prod(math.factorial(k) for k in key)
    return vec(canonicalize(LabeledGraph(3, targets)), Fraction(1, norm))


def project_linear(f):
    return project(f, PROJECTIONS["linear"])


def lie_degree(v):
    (g, _), *_ = list(v)
    return g.m - 1


class TestInsert:
    def test_wedge_into_slot_1(self):
        assert insert(B1, 1, B1) == vec(t2R()) + vec(c2L()) + X

    def test_wedge_into_slot_2(self):
        assert insert(B1, 2, B1) == vec(t2L()) + X + vec(c2R())

    def test_b0_into_b0(self):
        assert insert(B0, 1, B0) == vec(empty_graph(3))

    def test_position_out_of_range(self):
        with pytest.raises(ValueError):
            insert(B1, 3, B1)

    def test_bilinear(self):
        f = B1 + vec(b1_power(2), Fraction(1, 3))
        g = B1 - B0.scale(2)
        lhs = insert(f, 1, g)
        rhs = (
            insert(B1, 1, B1)
            - insert(B1, 1, B0).scale(2)
            + insert(vec(b1_power(2)), 1, B1).scale(Fraction(1, 3))
            - insert(vec(b1_power(2)), 1, B0).scale(Fraction(2, 3))
        )
        assert lhs == rhs


class TestCompose:
    def test_d2_regression(self):
        got = compose(B1, B1)
        want = vec(t2R()) - vec(t2L()) + vec(c2L()) - vec(c2R())
        assert got == want

    def test_b0_squares_to_zero(self):
        assert compose(B0, B0).is_zero

    def test_inhomogeneous_g_rejected(self):
        with pytest.raises(ValueError):
            compose(B1, B1 + vec(empty_graph(3)))

    def test_pre_lie_associator_symmetry(self):
        """(f.g).h - f.(g.h) is symmetric in g, h for homogeneous samples."""
        samples = [B0, B1, vec(b1_power(2))]
        for f in samples:
            for g in samples:
                for h in samples:
                    lhs = compose(compose(f, g), h) - compose(f, compose(g, h))
                    rhs = compose(compose(f, h), g) - compose(f, compose(h, g))
                    sign = (-1) ** (lie_degree(g) * lie_degree(h))
                    assert lhs == rhs.scale(sign)


class TestBracket:
    def test_b0_b1_commute(self):
        assert bracket(B0, B1).is_zero

    def test_odd_odd_doubles(self):
        assert bracket(B1, B1) == compose(B1, B1).scale(2)

    def test_constant_projected_B1_bracket(self):
        got = project_constant(bracket(B1, B1))
        assert got == (vec(c2L()) - vec(c2R())).scale(2)

    def test_graded_antisymmetry(self):
        pool = [vec(c) for n in range(3) for c in enumerate_classes(n, 2)]
        for f in pool:
            for g in pool:
                sign = (-1) ** (lie_degree(f) * lie_degree(g))
                assert (bracket(f, g) + bracket(g, f).scale(sign)).is_zero

    def test_graded_jacobi_odd_element(self):
        f = B0 + B1
        assert bracket(bracket(f, f), f).is_zero


class TestDifferential:
    def test_wedge_closed(self):
        assert differential(B1).is_zero

    def test_b0_closed(self):
        assert differential(B0).is_zero

    def test_square_zero_on_2_2(self):
        for c in enumerate_classes(2, 2):
            assert differential(differential(vec(c))).is_zero

    def test_raises_m_preserves_n(self):
        for c in enumerate_classes(2, 2):
            for g, _ in differential(vec(c)):
                assert g.m == 3 and g.n == 2


# Every class of G_{n,m}, n <= 3, m <= 4: slots of in-degree 0, adjacent ones
# among them, and the edgeless G_{0,m}.
ORACLE_POOL = [c for n in range(4) for m in range(1, 5) for c in enumerate_classes(n, m)]


class TestDifferentialOracle:
    """d forms only the proper splittings; bracket(b0, .) makes every graft."""

    def test_pool_has_the_edge_cases(self):
        degrees = [c.graph.in_degrees()[: c.graph.m] for c in ORACLE_POOL]
        assert any(c.graph.n == 0 and c.graph.m == 4 for c in ORACLE_POOL)
        assert any(0 in d and any(d) for d in degrees)
        assert any(d[i] == d[i + 1] == 0 and any(d) for d in degrees for i in range(len(d) - 1))

    def test_every_small_class(self):
        for c in ORACLE_POOL:
            assert differential(vec(c)).items() == bracket(B0, vec(c)).items()

    @pytest.mark.parametrize("order, projection", [(5, "constant"), (5, "linear"), (4, "none")])
    def test_solve_coefficients_and_residuals(self, order, projection):
        series = mc.solve(order, projection)
        for x in series.coeffs + series.residuals:
            assert differential(x).items() == bracket(B0, x).items()

    def test_mixed_coefficient_sum(self):
        x = GraphVector.combine(
            (c, Fraction(k - 7, 2 * k + 1)) for k, c in enumerate(enumerate_classes(2, 3))
        )
        assert len(x) > 10
        assert differential(x).items() == bracket(B0, x).items()

    def test_zero_vector(self):
        assert differential(GraphVector()).is_zero

    def test_mixed_arity_raises(self):
        with pytest.raises(GraphError):
            differential(B1 + X)

    def test_one_canonicalize_per_proper_splitting(self, monkeypatch):
        calls = []
        real = algebra.canonicalize

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(algebra, "canonicalize", counting)
        for c in ORACLE_POOL:
            calls.clear()
            differential(vec(c))
            k = c.graph.in_degrees()[: c.graph.m]
            assert len(calls) == sum(2**d - 2 for d in k if d) + k.count(0)


class TestSigma:
    def test_c2R(self):
        assert sigma(vec(c2R())) == vec(b1_power(2), Fraction(1, 4))

    def test_c2L(self):
        assert sigma(vec(c2L())) == vec(b1_power(2), Fraction(-1, 4))

    def test_contraction_coefficients(self):
        for i, j in [(1, 1), (1, 2), (2, 2)]:
            n = i + j
            got = project_constant(sigma(bracket(vec(b1_power(i)), vec(b1_power(j)))))
            assert got == vec(b1_power(n), Fraction(-1, 2 ** (n - 1) - 1))

    def test_domain_error_single_vertex(self):
        with pytest.raises(SigmaDomainError):
            sigma(B1)

    def test_linear_alt_normalization(self, monkeypatch):
        # a refuted convention, pinned as a finding: sigma scaled per term by
        # -1/(2^{n-1} - 1) instead of 1/(2(2^n - 2)) loses Moyal's B_n
        monkeypatch.setattr(
            algebra, "sigma_normalization", lambda n: Fraction(-1, 2 ** (n - 1) - 1)
        )
        assert sigma(vec(c2R())) == vec(b1_power(2), -1)
        assert not checks.moyal_coefficients(mc.solve(4, "constant"))

    def test_lowers_m_preserves_n(self):
        v = bracket(B1, B1)
        for g, _ in sigma(v):
            assert g.m == 2 and g.n == 2


class TestProjections:
    def test_constant_kills_internal_landing(self):
        assert project_constant(vec(t2R())).is_zero
        assert project_constant(vec(t2L())).is_zero
        assert project_constant(vec(c2())).is_zero

    def test_constant_keeps_wedges(self):
        for n in (1, 2, 3):
            assert project_constant(vec(b1_power(n))) == vec(b1_power(n))

    def test_constant_of_zero(self):
        assert project_constant(GraphVector()).is_zero

    def test_linear_keeps_in_degree_one(self):
        assert project_linear(vec(t2R())) == vec(t2R())

    def test_linear_kills_in_degree_two(self):
        g = canonicalize(LabeledGraph(2, ((0, 4), (0, 4), (0, 1))))
        assert project_linear(vec(g)).is_zero

    def test_linear_keeps_wedges(self):
        assert project_linear(vec(b1_power(3))) == vec(b1_power(3))


class TestWedgeBasis:
    def test_b1_squared(self):
        assert expand_wedge_basis(vec(b1_power(2))) == {2: Fraction(2)}

    def test_c2L_is_gamma_011(self):
        assert expand_wedge_basis(vec(c2L())) == {(0, 1, 1): Fraction(1)}

    def test_four_case_rule(self):
        """expand([B_i, B_j]) coefficient on (r,s,t) is
        [r+s=i, t=j] - [r=i, s+t=j] + [r+s=j, t=i] - [r=j, s+t=i]."""
        for i in range(1, 5):
            for j in range(1, 5 - i + 1):
                got = expand_wedge_basis(
                    project_constant(
                        bracket(wedge_basis_element(i), wedge_basis_element(j))
                    )
                )
                want = {}
                n = i + j
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
                assert got == want
                if i != j:
                    # the four indicator cases cannot coincide unless i = j
                    assert all(abs(c) == 1 for c in want.values())

    def test_residual_reported(self):
        with pytest.raises(WedgeSpanError) as exc:
            expand_wedge_basis(vec(t2R()))
        assert exc.value.residual == vec(t2R())

    @pytest.mark.parametrize(
        "literal",
        [
            "G{m=2; v1=(b1,b2); v2=(b2,v1)}",
            "G{m=2; v1=(b1,v2); v2=(b1,b2)}",
        ],
    )
    def test_m2_edge_on_internal_vertex_is_not_a_wedge(self, literal):
        # at m = 2, target index 2 is the internal vertex v1, not a boundary point
        v = GraphVector.from_literal(literal)
        with pytest.raises(WedgeSpanError) as exc:
            expand_wedge_basis(v)
        assert exc.value.residual == v

    def test_round_trip(self):
        v = vec(b1_power(2), Fraction(3, 7)) + vec(b1_power(4), Fraction(-1, 5))
        w = vec(c2L()) - vec(c2R(), Fraction(5, 2))
        for x in (v, w):
            coeffs = expand_wedge_basis(x).items()
            parts = (wedge_basis_element(k).scale(c) for k, c in coeffs)
            assert sum(parts, GraphVector()) == x


class TestAntipode:
    def test_b1_fixed(self):
        assert antipode(B1) == B1

    def test_involution(self):
        for c in enumerate_classes(2, 3):
            v = vec(c)
            assert antipode(antipode(v)) == v

    def test_pre_lie_morphism_on_d2(self):
        lhs = antipode(compose(B1, B1))
        rhs = compose(antipode(B1), antipode(B1))
        assert lhs == rhs

    def test_alternate_sign_convention_differs(self):
        # a refuted convention, pinned as a finding: S' = (-1)^m transpose
        # sends b1 to -b1, and S'(f o g) = S'(f) o S'(g) fails on 45 of the 49
        # pairs from G_{n,m}, n <= 1, m <= 3, where antipode holds on all 49
        def paper(f):
            return GraphVector.combine(
                (transpose(SignedGraphClass(g, 1)), c * (-1) ** g.m) for g, c in f
            )

        assert paper(B1) == -B1
        pool = [vec(c) for c in classes(range(2), (1, 2, 3))]
        pairs = [(f, g) for f in pool for g in pool]
        def broken(s):
            return sum(s(compose(f, g)) != compose(s(f), s(g)) for f, g in pairs)

        assert broken(antipode) == 0 and broken(paper) == 45

    def test_check_fails_with_constant_sign(self, monkeypatch):
        # a constant sign -1 agrees with antipode_sign at m = 2 and 3, so
        # only the mixed-arity pairs of the check can expose it
        assert checks.antipode_morphism()
        monkeypatch.setattr(algebra, "antipode_sign", lambda m: -1)
        assert not checks.antipode_morphism()


class TestCurly:
    """The curly bracket {f, g} = f o_1 g - g o_2 f on m=2 terms, from insert."""

    def test_b0_b0(self):
        assert (insert(B0, 1, B0) - insert(B0, 2, B0)).is_zero

    def test_b1_b1_equals_compose(self):
        assert insert(B1, 1, B1) - insert(B1, 2, B1) == compose(B1, B1)

    def test_constant_projection(self):
        curly = insert(B1, 1, B1) - insert(B1, 2, B1)
        assert project_constant(curly) == vec(c2L()) - vec(c2R())


class TestDeltaCodifferential:
    def test_delta_1_1(self):
        assert delta_codifferential(1, 1) == {(0, 1, 1): 1, (1, 1, 0): -1}

    def test_delta_0_0(self):
        assert delta_codifferential(0, 0) == {}

    def test_sum_cancels(self):
        for n in range(21):
            assert delta_sum_check(n)


class TestGraphVector:
    def test_no_zero_coefficients_stored(self):
        v = B1 - B1
        assert len(v) == 0 and v.is_zero

    def test_hash_agrees_with_eq(self):
        """Equal vectors built by +, scale and combine hash alike, and a
        vector made from an already hashed one gets a hash of its own."""
        half = Fraction(1, 2)
        a = vec(t2R()) + vec(c2L(), half)
        assert hash(a) == hash(a)  # the kept hash
        b = (vec(c2L()) + vec(t2R())).scale(half) + vec(t2R(), half)
        c = GraphVector.combine([(c2L(), half), (t2R(), Fraction(1))])
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        d = a + vec(c2())
        assert d != a
        assert hash(d) == hash(GraphVector.combine([(c2(), 1), (c2L(), half), (t2R(), 1)]))
        assert {a: "a", d: "d"}[c] == "a"
        assert hash(a.scale(2)) == hash(vec(t2R(), 2) + vec(c2L()))

    def test_literal_round_trip(self):
        v = vec(t2R(), Fraction(-3, 2)) + vec(c2L()) + vec(c2R(), Fraction(5, 7))
        assert GraphVector.from_literal(v.to_literal()) == v

    def test_json_round_trip(self):
        v = compose(B1, B1)
        blob = json.dumps(v.to_json_obj())
        assert GraphVector.from_json_obj(json.loads(blob)) == v

    def test_wedge_closure_under_composition(self):
        """Adding Poisson-kernel terms to wedge-only inputs cannot change the
        constant-projected composition."""
        f = vec(b1_power(2))
        g = B1
        kernel = vec(canonicalize(LabeledGraph(2, ((0, 3), (0, 1)))))
        assert project_constant(kernel).is_zero
        assert project_constant(compose(f + kernel, g)) == project_constant(
            compose(f, g)
        )
        assert project_constant(compose(g, f + kernel)) == project_constant(
            compose(g, f)
        )


def test_factorials_in_wedge_basis_elements():
    # B_n = b1^n / n! is a basis element, so b1^n has coefficient n!
    for n in range(1, 5):
        assert expand_wedge_basis(vec(b1_power(n))) == {n: math.factorial(n)}


# -- fold-with-+ reference implementations --------------------------------
# The sums as they were written before add_terms and GraphVector.combine:
# each step adds a one-term vector with GraphVector.__add__.


def ref_insert(f, i, g):
    acc = GraphVector()
    for gf, cf in f:
        for gg, cg in g:
            for raw in _reattachments(gf, i, gg, None):
                acc = acc + vec(canonicalize(raw), cf * cg)
    return acc


def ref_compose(f, g):
    deg_g = g.lie_degree()
    total = GraphVector()
    for gf, cf in f:
        fv = GraphVector({gf: cf})
        for i in range(1, gf.m + 1):
            term = ref_insert(fv, i, g)
            if ((i - 1) * deg_g) % 2:
                term = -term
            total = total + term
    return total


def ref_bracket(f, g):
    fg, gf = ref_compose(f, g), ref_compose(g, f)
    return fg + gf if (f.lie_degree() * g.lie_degree()) % 2 else fg - gf


def ref_sigma(f):
    acc = GraphVector()
    for g, c in f:
        norm = c * sigma_normalization(g.n)
        cls = SignedGraphClass(g, 1)
        for i in range(1, g.m):
            merged = merge_boundary(cls, i)
            if merged.is_zero:
                continue
            coeff = norm if (i - 1) % 2 == 0 else -norm
            acc = acc + vec(merged, coeff)
    return acc


def ref_antipode(f):
    acc = GraphVector()
    for g, c in f:
        eps = antipode_sign(g.m)
        acc = acc + vec(transpose(SignedGraphClass(g, 1)), c * eps)
    return acc


def random_coeff(rng):
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))


def random_vector(rng, pool, size):
    """A random combination of ``size`` picks from ``pool``, with repeats,
    so that coefficients of one class add and sometimes cancel."""
    v = GraphVector()
    for c in rng.choices(pool, k=size):
        v = v + vec(c, random_coeff(rng))
    return v


def random_relabel(rng, g):
    """``g`` with its internal vertices renumbered and some edge pairs swapped."""
    perm = list(range(g.n))
    rng.shuffle(perm)

    def move(t):
        return t if t < g.m else g.m + perm[t - g.m]

    targets = [None] * g.n
    for k, (a, b) in enumerate(g.targets):
        pair = (move(a), move(b))
        targets[perm[k]] = pair[::-1] if rng.random() < 0.5 else pair
    return LabeledGraph(g.m, tuple(targets))


def classes(ns, ms):
    return [c for n in ns for m in ms for c in enumerate_classes(n, m)]


class TestAccumulationOracle:
    """add_terms and GraphVector.combine against the fold-with-+ sums."""

    SEEDS = range(12)

    def test_insert(self):
        pool = classes((0, 1, 2), (1, 2, 3))
        for seed in self.SEEDS:
            rng = random.Random(seed)
            f = random_vector(rng, pool, 4)
            g = random_vector(rng, pool, 3)
            lo = min((h.m for h, _ in f), default=1)
            for i in range(1, lo + 1):
                assert insert(f, i, g) == ref_insert(f, i, g)

    def test_compose(self):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            m = rng.choice((1, 2, 3))
            f = random_vector(rng, classes((0, 1, 2), (1, 2, 3)), 4)
            g = random_vector(rng, classes((0, 1, 2), (m,)), 3)
            if g.is_zero:
                continue
            assert compose(f, g) == ref_compose(f, g)

    # Lie degree m - 1: even.even, even.odd, odd.even and odd.odd
    @pytest.mark.parametrize("mf, mg", [(1, 3), (3, 3), (1, 2), (2, 3), (2, 2)])
    def test_bracket(self, mf, mg):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            f = random_vector(rng, classes((0, 1, 2), (mf,)), 3)
            g = random_vector(rng, classes((0, 1, 2), (mg,)), 3)
            if f.is_zero or g.is_zero:
                continue
            assert bracket(f, g) == ref_bracket(f, g)

    # the case IDs name the filters these bounds replaced, so they stay stable
    @pytest.mark.parametrize(
        "bound, proj",
        [(0, project_constant), (1, project_linear)],
        ids=["keeps_constant-project_constant", "keeps_linear-project_linear"],
    )
    def test_keep_filtered_compose(self, bound, proj):
        for seed in self.SEEDS:
            rng = random.Random(seed)
            f = random_vector(rng, classes((1, 2), (1, 2, 3)), 4)
            g = random_vector(rng, classes((1, 2), (rng.choice((1, 2, 3)),)), 3)
            if g.is_zero:
                continue
            assert GraphVector.combine(compose_terms(f, g, bound)) == proj(ref_compose(f, g))

    def test_sigma(self):
        pool = classes((2, 3), (2, 3))
        for seed in self.SEEDS:
            rng = random.Random(seed)
            f = random_vector(rng, pool, 6)
            assert sigma(f) == ref_sigma(f)

    def test_sigma_of_d_term(self):
        b1v = vec(b1())
        d2 = bracket(b1v, b1v).scale(Fraction(-1, 2))
        assert sigma(d2) == ref_sigma(d2)

    def test_antipode(self):
        pool = classes((0, 1, 2), (1, 2, 3, 4))
        for seed in self.SEEDS:
            rng = random.Random(seed)
            f = random_vector(rng, pool, 6)
            assert antipode(f) == ref_antipode(f)

    def test_literal_and_json(self):
        """Terms given in random labelings, some repeated or cancelling."""
        pool = classes((0, 1, 2, 3), (2, 3))
        for seed in self.SEEDS:
            rng = random.Random(seed)
            picks = rng.choices(pool, k=6)
            picks += picks[:2]  # repeats, which may cancel
            terms = [(random_coeff(rng), random_relabel(rng, c.graph)) for c in picks]
            want = GraphVector()
            for coeff, g in terms:
                want = want + vec(canonicalize(g), coeff)
            text = " ".join(
                "%s %s * %s" % ("-" if k < 0 else "+", abs(k), g.to_literal())
                for k, g in terms
            )
            assert GraphVector.from_literal(text) == want
            obj = [{"graph": g.to_literal(), "coeff": str(k)} for k, g in terms]
            assert GraphVector.from_json_obj(obj) == want

    def test_cancelled_sum_stores_no_zero(self):
        rng = random.Random(0)
        v = random_vector(rng, classes((1, 2), (2, 3)), 8)
        assert not v.is_zero
        assert (v - v)._terms == {}
        w = v + v.scale(-1) + vec(b1())
        assert w._terms == vec(b1())._terms

    def test_combine_drops_zero_classes(self):
        c = canonicalize(LabeledGraph(2, ((0, 1),)))
        assert GraphVector.combine([(ZERO, Fraction(5)), (c, Fraction(1))]) == vec(c)
        assert GraphVector.combine([(ZERO, Fraction(1))])._terms == {}
        assert GraphVector.combine([(c, Fraction(1)), (-c, Fraction(1))])._terms == {}
        assert GraphVector.combine([(-c, Fraction(2))]) == vec(c, -2)

    def test_add_terms_in_place(self):
        acc = {"a": 1}
        assert add_terms(acc, [("a", 2), ("b", -1), ("b", 1)]) is acc
        assert acc == {"a": 3, "b": 0}


def ref_reattachments(f, i, g):
    """Every graft of ``g`` into slot ``i`` of ``f``, with no bound: the
    loose edges of ``f`` go to every vertex of ``g`` in product order."""
    new_m, slot = f.m + g.m - 1, i - 1

    def remap_f(t):
        if t >= f.m:
            return new_m + t - f.m
        return None if t == slot else t if t < slot else t + g.m - 1

    def remap_g(t):
        return slot + t if t < g.m else new_m + f.n + t - g.m

    base = [[remap_f(a), remap_f(b)] for a, b in f.targets]
    loose = [(k, pos) for k, pair in enumerate(base) for pos in (0, 1) if pair[pos] is None]
    g_part = tuple((remap_g(a), remap_g(b)) for a, b in g.targets)
    for choice in itertools.product(map(remap_g, range(g.m + g.n)), repeat=len(loose)):
        filled = [pair[:] for pair in base]
        for (k, pos), t in zip(loose, choice):
            filled[k][pos] = t
        yield LabeledGraph(new_m, tuple(map(tuple, filled)) + g_part)


class TestPrunedGrafts:
    """_reattachments with a bound makes exactly the unbounded grafts that fit
    it, in the same order; and the graphs the library builds are admissible,
    which canonicalize relies on, since it does not validate."""

    POOL = [c.graph for c in classes(range(4), (1, 2, 3))]

    def pairs(self):
        for f in self.POOL:
            for g in self.POOL:
                if f.n + g.n <= 3:
                    yield from ((f, i, g) for i in range(1, f.m + 1))

    def test_same_grafts_as_filtered_product(self):
        cases = 0
        for f, i, g in self.pairs():
            every = list(ref_reattachments(f, i, g))
            assert list(_reattachments(f, i, g, None)) == every
            for bound in (0, 1):
                want = [h for h in every if h.fits(bound)]
                assert list(_reattachments(f, i, g, bound)) == want
            cases += 1
        assert cases > 1000

    def test_built_graphs_are_admissible(self):
        for f, i, g in self.pairs():
            for h in _reattachments(f, i, g, None):
                h.validate()
        for h in self.POOL:
            c = SignedGraphClass(h, 1)
            built = [transpose(c)] + [merge_boundary(c, i) for i in range(1, h.m)]
            for b in built:
                if not b.is_zero:
                    b.graph.validate()
