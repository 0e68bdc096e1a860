"""Canonicalization, enumeration, and surgery on admissible graphs."""
import itertools
import random

import pytest

from graphdgla import graphs, mc
from graphdgla.algebra import bracket, vec
from graphdgla.graphs import (
    GraphError,
    LabeledGraph,
    ResourceCapExceeded,
    SignedGraphClass,
    b0,
    b1,
    b1_power,
    _canonicalize_brute,
    _canonicalize_forced,
    c2R,
    canonicalize,
    enumerate_classes,
    merge_boundary,
    transpose,
    wedge,
)


def all_labeled_graphs(n, m):
    """Independent brute-force generator of admissible labeled graphs."""
    choices = range(m + n)
    for targets in itertools.product(itertools.permutations(choices, 2), repeat=n):
        ok = True
        for k, (a, b) in enumerate(targets):
            if a == m + k or b == m + k or a == b:
                ok = False
                break
        if ok:
            yield LabeledGraph(m, targets)


def apply_perm_and_flips(g, perm, flips):
    """Relabel internal vertices by perm and swap L/R at the flipped ones."""
    remap = {g.m + k: g.m + perm[k] for k in range(g.n)}
    new_targets = [None] * g.n
    for k, (a, b) in enumerate(g.targets):
        a2 = remap.get(a, a)
        b2 = remap.get(b, b)
        if k in flips:
            a2, b2 = b2, a2
        new_targets[perm[k]] = (a2, b2)
    return LabeledGraph(g.m, tuple(new_targets))


def random_graph(rng, n):
    """An admissible graph with n internal vertices and 1 to 3 boundary ones."""
    m = rng.randint(1, 3)
    return LabeledGraph(m, tuple(
        tuple(rng.sample([t for t in range(m + n) if t != m + k], 2)) for k in range(n)
    ))


class TestCanonicalize:
    def test_b1_identity(self):
        c = canonicalize(LabeledGraph(2, ((0, 1),)))
        assert c.graph == b1().graph and c.sign == 1

    def test_b1_flipped(self):
        c = canonicalize(LabeledGraph(2, ((1, 0),)))
        assert c.graph == b1().graph and c.sign == -1

    def test_c2R_as_drawn(self):
        # vertex A -> boundary {1,3}, vertex B -> boundary {2,3}
        c = canonicalize(LabeledGraph(3, ((0, 2), (1, 2))))
        assert c.graph == c2R().graph and c.sign == 1

    def test_idempotent(self):
        for cls in enumerate_classes(2, 2):
            again = canonicalize(cls.graph)
            assert again.graph == cls.graph and again.sign == 1

    def test_zero_class(self):
        # v1->(b1,v2), v2->(b1,v1), v3->(v1,v2): the swap of v1,v2 together
        # with a flip at v3 is an odd-flip automorphism.
        g = LabeledGraph(1, ((0, 2), (0, 1), (1, 2)))
        assert canonicalize(g).is_zero

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            LabeledGraph(2, ((2, 0),)).validate()

    def test_rejects_double_edge(self):
        with pytest.raises(GraphError):
            LabeledGraph(2, ((0, 0),)).validate()

    def test_orbit_invariance(self):
        """Same canonical graph on the whole permutation x flip orbit, with
        sign differing by flip parity."""
        samples = [
            LabeledGraph(2, ((3, 1), (0, 1))),
            LabeledGraph(1, ((2, 0), (0, 1))),
            LabeledGraph(3, ((1, 2), (0, 1))),
        ]
        for g in samples:
            base = canonicalize(g)
            for perm in itertools.permutations(range(g.n)):
                for r in range(g.n + 1):
                    for flips in itertools.combinations(range(g.n), r):
                        h = apply_perm_and_flips(g, perm, set(flips))
                        c = canonicalize(h)
                        if base.is_zero:
                            assert c.is_zero
                        else:
                            assert c.graph == base.graph
                            assert c.sign == base.sign * (-1) ** len(flips)


class TestPrunedSearch:
    """The pruned search, and canonicalize at every n, against the n! oracle."""

    @staticmethod
    def assert_agrees(g):
        want = _canonicalize_brute(g)
        assert _canonicalize_forced(g) == want
        assert canonicalize(g) == want

    def assert_agrees_relabelled(self, g, rng, count):
        """``g`` and ``count`` random relabellings with random swaps."""
        self.assert_agrees(g)
        for _ in range(count):
            perm = list(range(g.n))
            rng.shuffle(perm)
            flips = {k for k in range(g.n) if rng.random() < 0.5}
            self.assert_agrees(apply_perm_and_flips(g, perm, flips))

    def test_exhaustive_small(self):
        for n in range(4):
            for m in range(1, 4):
                for g in all_labeled_graphs(n, m):
                    self.assert_agrees(g)

    def test_ascending_pairs_n4_random_swaps(self):
        rng = random.Random(4)
        n = 4
        for m in (1, 2):
            options = [
                [p for p in itertools.combinations(range(m + n), 2) if m + k not in p]
                for k in range(n)
            ]
            for assignment in itertools.product(*options):
                mask = rng.getrandbits(n)
                targets = tuple(
                    (b, a) if mask >> k & 1 else (a, b)
                    for k, (a, b) in enumerate(assignment)
                )
                self.assert_agrees(LabeledGraph(m, targets))

    def test_random_n5_n6(self):
        rng = random.Random(56)
        for n in (5, 6):
            for _ in range(150):
                self.assert_agrees(random_graph(rng, n))

    # (name, literal, zero?) for each branch of the forced search
    BRANCH_CASES = [
        # v1 is placed first and forces v2, whose entry then has two
        # unplaced targets; only v3 first gives the least encoding
        ("two-refs", "G{m=4; v1=(b1,v2); v2=(v3,v4); v3=(b2,b3); v4=(b2,b4)}", False),
        ("two-refs-swapped", "G{m=4; v1=(b1,v2); v2=(v4,v3); v3=(b2,b3); v4=(b2,b4)}", False),
        # every entry has an internal target
        ("no-boundary-pair", "G{m=2; v1=(v2,v3); v2=(v3,b1); v3=(b2,v4); v4=(b1,v2)}", False),
        # v1 and v2 tie in the free step and are landed on, so are no twins
        ("tied-free", "G{m=2; v1=(b1,b2); v2=(b1,b2); v3=(v1,b1); v4=(v2,b2)}", False),
        ("tied-free-zero", "G{m=2; v1=(b1,b2); v2=(b2,b1); v3=(b1,b2); v4=(v1,v3); v5=(v2,b1)}", True),
        ("twins", "G{m=2; v1=(b1,b2); v2=(b2,b1); v3=(b1,v4); v4=(b2,v3)}", False),
        ("twins-and-landed", "G{m=2; v1=(b1,b2); v2=(b1,b2); v3=(b2,b1); v4=(v1,b2); v5=(b2,v4)}", False),
        # an automorphism exchanging the targets of v1 flips v1 alone
        ("zero-4", "G{m=2; v1=(v2,v3); v2=(b1,v4); v3=(b1,v4); v4=(b1,b2)}", True),
        # v1 points into two disjoint 2-cycles v -> (b1, w), w -> (b2, v)
        ("zero-5", "G{m=2; v1=(v2,v4); v2=(b1,v3); v3=(b2,v2); v4=(b1,v5); v5=(b2,v4)}", True),
        ("zero-6", "G{m=2; v1=(v2,v4); v2=(b1,v3); v3=(b2,v2); v4=(b1,v5); v5=(b2,v4); v6=(b1,b2)}", True),
        # exchanging the 2-cycles flips v1 and v2: even, so not zero
        ("even-6", "G{m=2; v1=(v3,v5); v2=(v4,v6); v3=(b1,v4); v4=(b2,v3); v5=(b1,v6); v6=(b2,v5)}", False),
        ("cycles-6", "G{m=2; v1=(b1,v2); v2=(b2,v1); v3=(b1,v4); v4=(b2,v3); v5=(b1,v6); v6=(b2,v5)}", False),
    ]

    @pytest.mark.parametrize("name, literal, zero", BRANCH_CASES, ids=[c[0] for c in BRANCH_CASES])
    def test_branch_cases(self, name, literal, zero):
        g = LabeledGraph.from_literal(literal)
        assert canonicalize(g).is_zero == zero
        self.assert_agrees_relabelled(g, random.Random(name), 6)

    def test_every_graph_of_solve_5(self, monkeypatch):
        seen = []
        search = graphs._canonicalize_forced

        def recording(g):
            seen.append(g)
            return search(g)

        monkeypatch.setattr(graphs, "_canonicalize_forced", recording)
        series = mc.solve(5, "linear")
        # [b0, m_n] also makes the grafts that cancel in d m_n, which the
        # differential in solve skips; it restores the graphs they bring
        for m_n in series.coeffs[2:]:
            bracket(vec(b0()), m_n)
        monkeypatch.undo()
        assert len(seen) > 5000 and min(g.n for g in seen) >= 4
        for g in set(seen):
            assert search(g) == _canonicalize_brute(g)

    def test_random_n7(self):
        rng = random.Random(77)
        for _ in range(4):
            self.assert_agrees(random_graph(rng, 7))
        # zero-6 with a wedge on v1, relabelled
        g = LabeledGraph.from_literal(
            "G{m=2; v1=(v2,v4); v2=(b1,v3); v3=(b2,v2); v4=(b1,v5); v5=(b2,v4); "
            "v6=(b1,b2); v7=(v1,b2)}"
        )
        self.assert_agrees(apply_perm_and_flips(g, [3, 6, 0, 5, 1, 4, 2], {0, 2, 5}))

    def test_twin_heavy(self):
        rng = random.Random(7)
        graphs = [b1_power(5).graph, b1_power(6).graph]
        # superpositions Gamma_rst of wedges over (2,3), (1,3), (1,2)
        for r, s, t in itertools.product(range(3), repeat=3):
            graphs.append(LabeledGraph(3, ((1, 2),) * r + ((0, 2),) * s + ((0, 1),) * t))
        # vertices with a twin's target pair that are landed on, so no twins
        graphs.append(LabeledGraph(2, ((0, 1), (0, 1), (0, 1), (2, 3), (0, 3))))
        graphs.append(LabeledGraph(2, ((0, 1), (0, 1), (5, 1), (0, 2), (1, 0))))
        for g in graphs:
            self.assert_agrees_relabelled(g, rng, 3)


class TestEnumerate:
    def test_0_2_is_b0(self):
        classes = enumerate_classes(0, 2)
        assert [c.graph for c in classes] == [b0().graph]

    def test_1_2_is_b1(self):
        classes = enumerate_classes(1, 2)
        assert [c.graph for c in classes] == [b1().graph]

    def test_1_3_is_three_wedges(self):
        classes = enumerate_classes(1, 3)
        got = {c.graph for c in classes}
        assert got == {wedge(3, 2, 3).graph, wedge(3, 1, 3).graph, wedge(3, 1, 2).graph}
        assert len(classes) == 3

    def test_signs_all_plus_one(self):
        for c in enumerate_classes(2, 3):
            assert c.sign == 1

    def test_no_duplicates_no_zeros(self):
        classes = enumerate_classes(2, 2)
        graphs = [c.graph for c in classes]
        assert len(graphs) == len(set(graphs))
        for g in graphs:
            assert not canonicalize(g).is_zero

    def test_completeness(self):
        """Every admissible labeled graph canonicalizes to a listed class
        or to zero."""
        listed = {c.graph for c in enumerate_classes(2, 2)}
        for g in all_labeled_graphs(2, 2):
            c = canonicalize(g)
            assert c.is_zero or c.graph in listed

    def test_max_in_degree_filter(self):
        unfiltered = enumerate_classes(2, 2)
        filtered = enumerate_classes(2, 2, max_in_degree=1)
        kept = {c.graph for c in filtered}
        for c in unfiltered:
            degs = c.graph.in_degrees()[c.graph.m:]
            assert (c.graph in kept) == (max(degs, default=0) <= 1)

    def test_fits_bounds_every_internal_in_degree(self):
        for g in itertools.chain(all_labeled_graphs(2, 2), all_labeled_graphs(3, 1)):
            landings = [t for pair in g.targets for t in pair if t >= g.m]
            most = max((landings.count(t) for t in landings), default=0)
            assert g.fits(None)
            for bound in range(4):
                assert g.fits(bound) == (most <= bound), (g, bound)

    def test_resource_cap(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("work done before the cap check")

        # the cap fires before any assignment is walked or canonicalized
        monkeypatch.setattr(graphs, "canonicalize", refuse)
        monkeypatch.setattr(graphs, "_orderly_assignments", refuse)
        with pytest.raises(ResourceCapExceeded):
            enumerate_classes(3, 3, cap=10)

    def test_deterministic_order(self):
        assert enumerate_classes(2, 3) == enumerate_classes(2, 3)


def ref_enumerate_classes(n, m, max_in_degree=None):
    """The flat loop: canonicalize every labeled assignment of ascending pairs."""
    size = m + n
    seen = set()
    vertex_options = []
    for k in range(n):
        own = m + k
        opts = [
            (a, b)
            for a, b in itertools.combinations(range(size), 2)
            if a != own and b != own
        ]
        vertex_options.append(opts)
    for assignment in itertools.product(*vertex_options):
        c = canonicalize(LabeledGraph(m, assignment))
        if c.is_zero:
            continue
        if max_in_degree is not None and any(
            d > max_in_degree for d in c.graph.in_degrees()[m:]
        ):
            continue
        seen.add(c.graph)
    return [SignedGraphClass(g, 1) for g in sorted(seen, key=LabeledGraph.sort_key)]


ORACLE_SIZES = [(n, m) for n in range(4) for m in range(1, 5)] + [(4, 1), (4, 2), (4, 3)]


class TestOrderlyEnumeration:
    """The orderly walk against the flat loop it replaced."""

    @pytest.mark.parametrize("max_in_degree", [None, 1, 2])
    @pytest.mark.parametrize("n, m", ORACLE_SIZES)
    def test_same_list_as_flat_loop(self, n, m, max_in_degree):
        got = enumerate_classes(n, m, max_in_degree)
        assert got == ref_enumerate_classes(n, m, max_in_degree)

    def test_canonicalizes_fewer_assignments(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return canonicalize(g)

        monkeypatch.setattr(graphs, "canonicalize", counting)
        assert len(enumerate_classes(4, 2)) == 445
        # the flat loop canonicalizes all 10**4 assignments
        assert len(calls) < 1000


class TestMergeBoundary:
    def test_c2R_merge_1(self):
        merged = merge_boundary(c2R(), 1)
        assert merged.graph == b1_power(2).graph and merged.sign == 1

    def test_c2R_merge_2_bridged(self):
        assert merge_boundary(c2R(), 2).is_zero

    def test_b0_merge(self):
        merged = merge_boundary(b0(), 1)
        assert merged.graph == LabeledGraph(1, ()) and merged.sign == 1

    def test_index_out_of_range(self):
        with pytest.raises(GraphError):
            merge_boundary(b1(), 2)

    def test_simplicial_identity(self):
        for n in range(1, 3):
            for m in range(3, 6):
                for c in enumerate_classes(n, m):
                    for i in range(1, m):
                        for j in range(i, m - 1):
                            lhs = merge_boundary(merge_boundary(c, i), j)
                            rhs = merge_boundary(merge_boundary(c, j + 1), i)
                            if lhs.is_zero or rhs.is_zero:
                                assert lhs.is_zero and rhs.is_zero
                            else:
                                assert lhs.graph == rhs.graph
                                assert lhs.sign == rhs.sign


class TestTranspose:
    def test_b1(self):
        t = transpose(b1())
        assert t.graph == b1().graph and t.sign == -1

    def test_b0(self):
        t = transpose(b0())
        assert t.graph == b0().graph and t.sign == 1

    def test_gamma3(self):
        t = transpose(wedge(3, 1, 2))
        assert t.graph == wedge(3, 2, 3).graph and t.sign == -1

    def test_involution(self):
        for c in enumerate_classes(2, 3):
            tt = transpose(transpose(c))
            assert tt.graph == c.graph and tt.sign == 1


class TestLiterals:
    def test_b1_format(self):
        assert b1().graph.to_literal() == "G{m=2; v1=(b1,b2)}"

    def test_round_trip(self):
        for n, m in [(0, 1), (0, 2), (1, 2), (2, 2), (2, 3)]:
            for c in enumerate_classes(n, m):
                text = c.graph.to_literal()
                assert LabeledGraph.from_literal(text) == c.graph

    def test_parse_rejects_garbage(self):
        for bad in ["", "G{m=2 v1=(b1,b2)}", "G{m=0;}", "G{m=2; v1=(b9,b1)}"]:
            with pytest.raises((GraphError, ValueError)):
                LabeledGraph.from_literal(bad)

    @pytest.mark.parametrize(
        "text, token",
        [
            ("G{m=2; v1=(b1,b2); v2=(b3,b1)}", "'b3'"),
            ("G{m=2; v1=(b1,b3); v2=(b2,b1)}", "'b3'"),
            ("G{m=1; v1=(b2,b1)}", "'b2'"),
            ("G{m=2; v1=(b1,v4); v2=(b2,b1)}", "'v4'"),
            ("G{m=2; v1=(v2,b1)}", "'v2'"),
        ],
    )
    def test_rejects_target_past_range(self, text, token):
        with pytest.raises(GraphError, match=token):
            LabeledGraph.from_literal(text)


class TestWedges:
    def test_wedge_feet(self):
        w = wedge(3, 1, 3)
        assert w.graph == LabeledGraph(3, ((0, 2),)) and w.sign == 1

    def test_b1_power_count(self):
        g = b1_power(3).graph
        assert g.n == 3 and g.m == 2
        assert all(t == (0, 1) for t in g.targets)
