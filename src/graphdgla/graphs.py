"""Admissible edge-labeled directed graphs and signed orientation classes.

A graph has ``m`` linearly ordered boundary vertices (pure sinks, labeled
1..m) and ``n`` internal vertices, each carrying an ordered pair of outgoing
edges (L, R).  Targets are encoded as integers: ``0..m-1`` are the boundary
vertices ``1..m`` and ``m+k`` is the internal vertex of index ``k``.

An orientation class is a graph up to permutation of the internal vertices
(no sign) combined with L/R swaps at individual vertices, each swap
contributing a factor of -1.  A class whose underlying graph admits an
automorphism realizing an odd number of swaps equals its own negative and is
therefore zero.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Optional

Pair = tuple[int, int]

DEFAULT_CAP = 10**8

# the most boundary vertices a literal may declare: work and memory grow
# with m, so an absurd m is rejected where it is read
MAX_LITERAL_M = 10_000


class GraphError(ValueError):
    """Structurally inadmissible graph or invalid index."""


class ResourceCapExceeded(RuntimeError):
    """Enumeration search space exceeds the configured cap."""


def too_many_digits(field: str, token: str) -> GraphError:
    """The error for a number of a literal with more digits than ``int``
    converts (``sys.get_int_max_str_digits``): it names ``field`` and the
    start of ``token`` instead of Python's message."""
    digits = sum(ch.isdigit() for ch in token)
    return GraphError("%s %r has %d digits, more than a number may have"
                      % (field, token[:10] + "...", digits))


def _literal_int(digits: str, field: str, token: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise too_many_digits(field, token) from None


@dataclass(frozen=True)
class LabeledGraph:
    """A concrete labeled representative (not necessarily canonical)."""

    m: int
    targets: tuple[Pair, ...]

    @property
    def n(self) -> int:
        return len(self.targets)

    def validate(self) -> None:
        if self.m < 1:
            raise GraphError("need at least one boundary vertex")
        size = self.m + self.n
        for k, (a, b) in enumerate(self.targets):
            for t in (a, b):
                if not 0 <= t < size:
                    raise GraphError("target %d out of range at vertex v%d" % (t, k + 1))
            if a == self.m + k or b == self.m + k:
                raise GraphError("self-loop at vertex v%d" % (k + 1))
            if a == b:
                raise GraphError("double edge at vertex v%d" % (k + 1))

    def in_degrees(self) -> list[int]:
        """In-degree of every vertex, boundary slots first."""
        deg = [0] * (self.m + self.n)
        for a, b in self.targets:
            deg[a] += 1
            deg[b] += 1
        return deg

    def fits(self, bound: Optional[int]) -> bool:
        """True when every internal in-degree is <= ``bound``; None admits
        every graph.  A projection is such a bound (``algebra.PROJECTIONS``)."""
        return bound is None or all(d <= bound for d in self.in_degrees()[self.m:])

    def sort_key(self) -> tuple:
        return (self.n, self.targets)

    # -- text literal ------------------------------------------------------

    def to_literal(self) -> str:
        def fmt(t: int) -> str:
            return "b%d" % (t + 1) if t < self.m else "v%d" % (t - self.m + 1)

        parts = ["m=%d" % self.m]
        for k, (a, b) in enumerate(self.targets):
            parts.append("v%d=(%s,%s)" % (k + 1, fmt(a), fmt(b)))
        return "G{%s}" % "; ".join(parts) if self.n else "G{m=%d;}" % self.m

    _LITERAL_RE = re.compile(r"^G\{\s*m=(\d+)\s*(?:;(.*))?\}$")
    _VERTEX_RE = re.compile(r"^v(\d+)=\(\s*([bv]\d+)\s*,\s*([bv]\d+)\s*\)$")

    @classmethod
    def from_literal(cls, text: str) -> "LabeledGraph":
        match = cls._LITERAL_RE.match(text.strip())
        if match is None:
            raise GraphError("malformed graph literal: %r" % text)
        m = _literal_int(match.group(1), "m", match.group(1))
        if m > MAX_LITERAL_M:
            raise GraphError("m=%d exceeds the limit of %d boundary vertices" % (m, MAX_LITERAL_M))
        body = (match.group(2) or "").strip().rstrip(";")
        entries: dict[int, Pair] = {}

        def parse_target(tok: str) -> int:
            idx = _literal_int(tok[1:], "target", tok)
            if idx < 1:
                raise GraphError("bad target %r" % tok)
            if tok[0] == "v":
                return m + idx - 1
            if idx > m:
                raise GraphError("bad target %r: boundary vertices are b1..b%d" % (tok, m))
            return idx - 1

        if body:
            for chunk in body.split(";"):
                chunk = chunk.strip()
                if not chunk:
                    continue
                vm = cls._VERTEX_RE.match(chunk)
                if vm is None:
                    raise GraphError("malformed vertex entry: %r" % chunk)
                k = _literal_int(vm.group(1), "vertex label", "v" + vm.group(1)) - 1
                if k in entries:
                    raise GraphError("duplicate vertex v%d" % (k + 1))
                entries[k] = (parse_target(vm.group(2)), parse_target(vm.group(3)))
        n = len(entries)
        if set(entries) != set(range(n)):
            raise GraphError("vertex labels must be v1..v%d" % n)
        for a, b in entries.values():
            if max(a, b) >= m + n:  # n is known only now
                raise GraphError(
                    "bad target 'v%d': internal vertices are v1..v%d" % (max(a, b) - m + 1, n)
                )
        g = cls(m, tuple(entries[k] for k in range(n)))
        g.validate()
        return g


@dataclass(frozen=True)
class SignedGraphClass:
    """A canonical orientation class with a sign, or the zero class."""

    graph: Optional[LabeledGraph]
    sign: int

    @property
    def is_zero(self) -> bool:
        return self.graph is None

    def __neg__(self) -> "SignedGraphClass":
        if self.is_zero:
            return self
        return SignedGraphClass(self.graph, -self.sign)

    def scaled(self, s: int) -> "SignedGraphClass":
        if self.is_zero:
            return self
        return SignedGraphClass(self.graph, self.sign * s)


ZERO = SignedGraphClass(None, 0)


# Up to this many internal vertices the n! loop is faster than the forced
# search, whose per-graph set-up outweighs the few relabellings it skips
# (measured on the graphs that solve and the cohomology tables canonicalize).
_BRUTE_FORCE_MAX_N = 3


def canonicalize(g: LabeledGraph) -> SignedGraphClass:
    """Canonical representative of the orientation class of ``g``.

    The canonical graph is the lexicographically minimal encoding over all
    internal-vertex permutations combined with per-vertex L/R swaps; the sign
    is the swap parity relating ``g`` to it.  If the minimum is reachable with
    both parities the class is zero.

    Graphs with more than ``_BRUTE_FORCE_MAX_N`` internal vertices use a
    search that places only the vertices the lex-min order can put next;
    smaller ones try all n!.
    Both give the same class, sign and zero verdict.

    ``g`` must be admissible: the input is not validated here.  Graphs from
    outside enter through ``LabeledGraph.from_literal``, which validates
    them, and every graph the library builds from admissible ones (grafts,
    boundary merges, transposes) is admissible by construction.
    """
    if g.n > _BRUTE_FORCE_MAX_N:
        return _canonicalize_forced(g)
    return _canonicalize_brute(g)


def _signed_class(m: int, best: tuple, parities: set[int]) -> SignedGraphClass:
    if len(parities) == 2:
        return ZERO
    return SignedGraphClass(LabeledGraph(m, best), 1 if 0 in parities else -1)


def _canonicalize_brute(g: LabeledGraph) -> SignedGraphClass:
    """``canonicalize`` by trying all n! relabellings; the reference search."""
    n, m = g.n, g.m
    if n == 0:
        return SignedGraphClass(g, 1)
    best: Optional[tuple] = None
    parities: set[int] = set()
    targets = g.targets
    for perm in itertools.permutations(range(n)):
        new: list[Pair] = [(0, 0)] * n
        flips = 0
        for old in range(n):
            a, b = targets[old]
            if a >= m:
                a = m + perm[a - m]
            if b >= m:
                b = m + perm[b - m]
            if a > b:
                a, b = b, a
                flips += 1
            new[perm[old]] = (a, b)
        key = tuple(new)
        if best is None or key < best:
            best = key
            parities = {flips & 1}
        elif key == best:
            parities.add(flips & 1)
    return _signed_class(m, best, parities)


def _canonicalize_forced(g: LabeledGraph) -> SignedGraphClass:
    """``canonicalize`` by placing the vertices that the prefix forces.

    New positions 0..n-1 are filled in order, each by one vertex not yet
    placed, and the vertex at position q gets the label m+q.  While
    position p is being filled, every label given so far is below m+p, so
    an unplaced target will read m+p or more.

    Forced step.  Let k be the first placed position whose entry has an
    unplaced target.  Entries before k are final and the same in every
    branch.  Placing one of the (one or two) unplaced targets of entry k
    at p makes that target m+p; placing any other vertex leaves each of
    them at m+p+1 or more, so entry k is larger than in those branches and
    the branch loses at k.  Only the targets of entry k are tried, and a
    single one is placed without any comparison.

    Free step.  When no placed entry has an unplaced target, the prefix is
    final.  The candidates for p are compared by their own entry alone,
    with an unplaced target counted as m+p+1, its least value (any value
    above every label given compares the same).  Where a larger entry
    first differs from the least one, the least one holds a label below
    m+p+1, which is final, and the larger one can only grow; so a larger
    entry loses at p, and only the least candidates are tried.  Twins
    (in-degree 0, same unordered target pair) are placed in label order:
    exchanging two of them fixes the graph and the swap parity.

    Every lex-min relabelling survives these cuts, so each leaf compares
    its encoding with the best and collects both swap parities on a tie.
    """
    n, m = g.n, g.m
    if n == 0:
        return SignedGraphClass(g, 1)
    targets = g.targets
    landed = {t for pair in targets for t in pair if t >= m}
    # (vertex, its targets, its earlier twin); a vertex without one gets
    # boundary 0, whose label is never ``unplaced``
    vertices = []
    last: dict[Pair, int] = {}
    for v, (a, b) in enumerate(targets, m):
        twin = 0
        if v not in landed:
            pair = (a, b) if a < b else (b, a)
            twin = last.get(pair, 0)
            last[pair] = v
        vertices.append((v, a, b, twin))
    unplaced = m + n  # above every label, so it stands in for m+p+1
    label = list(range(m)) + [unplaced] * n  # old target -> new label
    width = unplaced + 1  # a sorted entry (a, b) compares as a * width + b
    order: list[int] = []  # new position -> old vertex index
    best: Optional[tuple] = None
    parities: set[int] = set()

    def extend(p: int, k: int) -> None:
        """Fill positions p.., placing forced vertices in a loop and
        recursing only where two or more candidates remain."""
        nonlocal best, parities
        start = p
        while p < n:
            while k < p:
                a, b = targets[order[k]]
                if label[a] == unplaced or label[b] == unplaced:
                    break
                k += 1
            if k < p:
                choices = [t for t in targets[order[k]] if label[t] == unplaced]
            else:
                choices = []
                least = None
                for v, a, b, twin in vertices:
                    if label[v] != unplaced or label[twin] == unplaced:
                        continue
                    a, b = label[a], label[b]
                    entry = a * width + b if a <= b else b * width + a
                    if least is None or entry < least:
                        least, choices = entry, [v]
                    elif entry == least:
                        choices.append(v)
            if len(choices) > 1:
                for v in choices:
                    label[v] = m + p
                    order.append(v - m)
                    extend(p + 1, k)
                    order.pop()
                    label[v] = unplaced
                break
            label[choices[0]] = m + p
            order.append(choices[0] - m)
            p += 1
        else:
            new = []
            flips = 0
            for u in order:
                a, b = targets[u]
                a, b = label[a], label[b]
                if a > b:
                    a, b = b, a
                    flips += 1
                new.append((a, b))
            key = tuple(new)
            if best is None or key < best:
                best, parities = key, {flips & 1}
            elif key == best:
                parities.add(flips & 1)
        for u in order[start:]:
            label[m + u] = unplaced
        del order[start:]

    extend(0, 0)
    return _signed_class(m, best, parities)


def merge_boundary(c: SignedGraphClass, i: int) -> SignedGraphClass:
    """Merge boundary vertices ``i`` and ``i+1`` (1-based); zero on a bridge."""
    if c.is_zero:
        return ZERO
    g = c.graph
    if not 1 <= i <= g.m - 1:
        raise GraphError("merge index %d out of range for m=%d" % (i, g.m))
    new: list[Pair] = []
    for a, b in g.targets:
        # boundary slots >= i and internal slots all shift down by one
        na = a if a < i else a - 1
        nb = b if b < i else b - 1
        if na == nb:
            return ZERO
        new.append((na, nb))
    return canonicalize(LabeledGraph(g.m - 1, tuple(new))).scaled(c.sign)


def transpose(c: SignedGraphClass) -> SignedGraphClass:
    """Reverse the order of the boundary points."""
    if c.is_zero:
        return ZERO
    g = c.graph
    new = tuple(
        tuple(g.m - 1 - t if t < g.m else t for t in pair) for pair in g.targets
    )
    return canonicalize(LabeledGraph(g.m, new)).scaled(c.sign)


def enumerate_classes(
    n: int,
    m: int,
    max_in_degree: Optional[int] = None,
    cap: int = DEFAULT_CAP,
) -> list[SignedGraphClass]:
    """All nonzero orientation classes of G_{n,m}, each once with sign +1.

    Deterministic lexicographic order of the canonical encodings.  Classes
    that do not fit ``max_in_degree`` (``LabeledGraph.fits``) are omitted.

    Candidates come from an orderly walk (``_orderly_assignments``) and only
    those are canonicalized.  ``cap`` still bounds the labeled space
    ``((m+n-1)(m+n-2))**n``, not the walk, so (5,3), at 42**5 > 10**8,
    needs a larger ``cap`` than the default.
    """
    if n < 0 or m < 1:
        raise GraphError("need n >= 0 and m >= 1")
    size = m + n
    choices = size - 1
    if n and (choices * (choices - 1)) ** n > cap:
        raise ResourceCapExceeded(
            "labeled search space for G_{%d,%d} exceeds cap %d" % (n, m, cap)
        )
    # ascending pairs suffice: every class has a representative with L < R
    # at each vertex (a swap only flips the sign)
    seen: set[LabeledGraph] = set()
    vertex_options = []
    for k in range(n):
        own = m + k
        opts = [
            (a, b)
            for a, b in itertools.combinations(range(size), 2)
            if a != own and b != own
        ]
        vertex_options.append(opts)
    for assignment in _orderly_assignments(m, vertex_options):
        c = canonicalize(LabeledGraph(m, assignment))
        if not c.is_zero and c.graph.fits(max_in_degree):
            seen.add(c.graph)
    return [SignedGraphClass(g, 1) for g in sorted(seen, key=LabeledGraph.sort_key)]


def _orderly_assignments(m: int, vertex_options: list[list[Pair]]):
    """The assignments of ``product(*vertex_options)`` that no transposition
    of two internal labels makes lexicographically smaller.

    Positions 0, 1, ... are filled depth first.  Once positions 0..p are
    fixed, a transposition (i j) with i < j <= p sends them to positions
    0..p of its image (targets relabelled, each pair re-sorted) and leaves
    every label above p alone, so that prefix depends on positions 0..p
    only.  If it is smaller than the current prefix, every completion is
    beaten and the branch is cut; if it is larger, (i j) never cuts below
    here and is dropped; if it ties, it is tested again at the next depth.

    Nothing is lost: every nonzero class has a lex-min encoding, which has
    ascending pairs and no self-loops, so it lies in the product; and a
    transposition is one of the relabellings ``canonicalize`` minimizes
    over, so it cannot beat that encoding on any prefix.
    """
    n = len(vertex_options)
    size = m + n
    prefix: list[Pair] = [(0, 0)] * n

    def compare(i: int, j: int, sw: list[int], start: int, p: int) -> int:
        """Sign of (image under (i j)) - (prefix) on positions start..p;
        ``sw`` is the target map of (i j)."""
        for k in range(start, p + 1):
            x, y = prefix[j if k == i else i if k == j else k]
            x, y = sw[x], sw[y]
            image = (x, y) if x < y else (y, x)
            if image != prefix[k]:
                return -1 if image < prefix[k] else 1
        return 0

    def walk(p: int, tied: list[tuple]):
        # ``tied``: the transpositions (i, j, sw), j < p, whose image ties
        # positions 0..p-1, so only position p is left to compare
        fresh = []
        for i in range(p):
            sw = list(range(size))
            sw[m + i], sw[m + p] = m + p, m + i
            fresh.append((i, p, sw))
        for pair in vertex_options[p]:
            prefix[p] = pair
            live = []
            for i, j, sw in tied + fresh:
                order = compare(i, j, sw, 0 if j == p else p, p)
                if order < 0:
                    break
                if order == 0:
                    live.append((i, j, sw))
            else:
                if p + 1 == n:
                    yield tuple(prefix)
                else:
                    yield from walk(p + 1, live)

    if n == 0:
        yield ()
    else:
        yield from walk(0, [])


# -- named graphs ----------------------------------------------------------


def empty_graph(m: int) -> SignedGraphClass:
    """The edgeless graph on ``m`` boundary points."""
    return SignedGraphClass(LabeledGraph(m, ()), 1)


def b0() -> SignedGraphClass:
    return empty_graph(2)


def wedge(m: int, i: int, j: int) -> SignedGraphClass:
    """Single internal vertex with L -> boundary i, R -> boundary j (1-based)."""
    return canonicalize(LabeledGraph(m, ((i - 1, j - 1),)))


def b1() -> SignedGraphClass:
    return wedge(2, 1, 2)


def b1_power(n: int) -> SignedGraphClass:
    """n disjoint wedges over two shared boundary points."""
    return canonicalize(LabeledGraph(2, ((0, 1),) * n)) if n else b0()


def t2R() -> SignedGraphClass:
    # v1 -> (v2, b3), v2 -> (b1, b2)
    return canonicalize(LabeledGraph(3, ((4, 2), (0, 1))))


def t2L() -> SignedGraphClass:
    # v1 -> (b1, v2), v2 -> (b2, b3)
    return canonicalize(LabeledGraph(3, ((0, 4), (1, 2))))


def c2() -> SignedGraphClass:
    # v1 -> (v2, b2), v2 -> (b1, b3)
    return canonicalize(LabeledGraph(3, ((4, 1), (0, 2))))


def c2R() -> SignedGraphClass:
    # v1 -> (b1, b3), v2 -> (b2, b3)
    return canonicalize(LabeledGraph(3, ((0, 2), (1, 2))))


def c2L() -> SignedGraphClass:
    # v1 -> (b1, b3), v2 -> (b1, b2)
    return canonicalize(LabeledGraph(3, ((0, 2), (0, 1))))
