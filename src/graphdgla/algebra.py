"""The graded Lie algebra structure on rational sums of graph classes.

Holds insertion composition, the pre-Lie product and its bracket, the
differential ad(b0), the merger almost-contraction, the Poisson-kernel
projections, the wedge-basis expansion and the antipodal map.
"""
from __future__ import annotations

import itertools
import json
import math
import re
from collections import Counter
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .graphs import (
    GraphError,
    LabeledGraph,
    SignedGraphClass,
    canonicalize,
    merge_boundary,
    number_text,
    too_many_digits,
    transpose,
)


class SigmaDomainError(GraphError):
    """sigma applied to a term with fewer than two internal vertices."""


class WedgeSpanError(ValueError):
    """Wedge-basis expansion hit terms outside the wedge span."""

    def __init__(self, residual: "GraphVector"):
        super().__init__("terms outside the wedge span: %s" % residual)
        self.residual = residual


def add_terms(acc: dict, pairs: Iterable[tuple]) -> dict:
    """Add each (key, coeff) pair into ``acc`` in place and return ``acc``.

    The one accumulation loop of the package.  Coefficients that cancel stay
    in ``acc`` as zeros; the GraphVector and Poly constructors strip them, so
    a finished vector or polynomial never stores a zero coefficient.
    """
    for key, c in pairs:
        acc[key] = acc.get(key, 0) + c
    return acc


def split_signed_terms(text: str) -> list[tuple[int, str]]:
    """Split a sum literal into (sign, body) chunks at + and - outside braces.

    A sign before any content is a prefix.  The last body is blank when the
    text ends in a sign.
    """
    chunks: list[tuple[int, str]] = []
    depth, sign, cur = 0, 1, ""
    for ch in text:
        depth += (ch == "{") - (ch == "}")
        if depth == 0 and ch in "+-":
            if cur.strip():
                chunks.append((sign, cur))
                cur, sign = "", 1
            if ch == "-":
                sign = -sign
            continue
        cur += ch
    chunks.append((sign, cur))
    return chunks


class GraphVector:
    """Finite formal sum of canonical graph classes with rational coefficients,
    stored in ``LabeledGraph.sort_key`` order however the terms were made."""

    # ``_terms`` is never changed after ``__init__``, so the hash is kept
    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Optional[dict[LabeledGraph, Fraction]] = None):
        self._terms = dict(sorted(((g, c) for g, c in (terms or {}).items() if c),
                                  key=lambda kv: kv[0].sort_key()))
        self._hash: Optional[int] = None

    @classmethod
    def combine(cls, pairs: Iterable[tuple[SignedGraphClass, Fraction]]) -> "GraphVector":
        """The sum of coeff * class over (SignedGraphClass, coeff) pairs.

        Zero classes are skipped and each class's sign is applied.  Terms
        that cancel are stripped by the constructor, so the result stores no
        zero coefficient.
        """
        return cls(
            add_terms({}, ((c.graph, k * c.sign) for c, k in pairs if not c.is_zero))
        )

    def items(self) -> list[tuple[LabeledGraph, Fraction]]:
        return list(self._terms.items())

    def coeff(self, g: LabeledGraph) -> Fraction:
        return self._terms.get(g, Fraction(0))

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[LabeledGraph, Fraction]]:
        return iter(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, GraphVector) and self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __add__(self, other: "GraphVector") -> "GraphVector":
        return GraphVector(add_terms(dict(self._terms), other._terms.items()))

    def __sub__(self, other: "GraphVector") -> "GraphVector":
        return self + (-other)

    def __neg__(self) -> "GraphVector":
        return GraphVector({g: -c for g, c in self._terms.items()})

    def scale(self, k) -> "GraphVector":
        k = Fraction(k)
        return GraphVector({g: c * k for g, c in self._terms.items()})

    __mul__ = scale
    __rmul__ = scale

    # -- homogeneity -------------------------------------------------------

    def boundary_arity(self) -> Optional[int]:
        """Common m of all terms, or None if mixed or empty."""
        ms = {g.m for g in self._terms}
        return ms.pop() if len(ms) == 1 else None

    def lie_degree(self) -> Optional[int]:
        m = self.boundary_arity()
        return None if m is None else m - 1

    # -- serialization -----------------------------------------------------

    def to_literal(self) -> str:
        if self.is_zero:
            return "0"
        parts = ["%s * %s" % (number_text(c), g.to_literal()) for g, c in self]
        out = parts[0]
        for chunk in parts[1:]:
            if chunk.startswith("-"):
                out += " - " + chunk[1:]
            else:
                out += " + " + chunk
        return out

    _TERM_RE = re.compile(r"^\s*(?:(\d+(?:/\d+)?)\s*\*\s*)?(G\{[^}]*\})\s*$")

    @classmethod
    def from_literal(cls, text: str) -> "GraphVector":
        text = text.strip()
        if text in ("0", ""):
            return cls()
        chunks = split_signed_terms(text)
        if not chunks[-1][1].strip():
            raise GraphError("malformed vector literal: %r" % text)
        return cls.combine(cls._parse_term(sgn, body) for sgn, body in chunks)

    @classmethod
    def _parse_term(cls, sgn: int, body: str) -> tuple[SignedGraphClass, Fraction]:
        match = cls._TERM_RE.match(body)
        if match is None:
            raise GraphError("malformed vector term: %r" % body)
        try:
            coeff = Fraction(match.group(1) or 1)
        except ZeroDivisionError:
            raise GraphError("zero denominator in term %r" % body.strip()) from None
        except ValueError:  # more digits than int() converts
            raise too_many_digits("coefficient", match.group(1)) from None
        return canonicalize(LabeledGraph.from_literal(match.group(2))), sgn * coeff

    def to_json_obj(self) -> list[dict]:
        return [{"graph": g.to_literal(), "coeff": number_text(c)} for g, c in self]

    @classmethod
    def from_json_obj(cls, obj: Iterable[dict]) -> "GraphVector":
        """The vector of a list of {"graph", "coeff"} entries, as ``to_json_obj``
        writes it.  A coefficient is a JSON integer or a numeric string; a JSON
        float or boolean is refused.  Errors name the entry index and field."""
        return cls.combine(cls._json_term(k, entry) for k, entry in enumerate(obj))

    _JSON_COEFF_RE = re.compile(r"\s*[+-]?\d+(?:/\d+)?\s*")

    @classmethod
    def _json_term(cls, k: int, entry) -> tuple[SignedGraphClass, Fraction]:
        """Entry ``k`` of ``from_json_obj``'s list as a (class, coeff) pair."""
        where = "entry %d" % k

        def refuse(what: str, value) -> GraphError:
            return GraphError("%s%s, got %s" % (where, what, json.dumps(value, default=repr)))

        if not isinstance(entry, dict):
            raise refuse(" must be an object", entry)
        for name in ("graph", "coeff"):
            if name not in entry:
                raise GraphError('%s: missing "%s"' % (where, name))
        text, coeff = entry["graph"], entry["coeff"]
        if not isinstance(text, str):
            raise refuse(': "graph" must be a string', text)
        try:
            c = canonicalize(LabeledGraph.from_literal(text))
        except GraphError as exc:
            raise GraphError('%s: "graph": %s' % (where, exc)) from None
        if type(coeff) is int:  # a JSON integer; bool is a subclass of int
            return c, Fraction(coeff)
        if type(coeff) is str:
            try:
                return c, Fraction(coeff)
            except ZeroDivisionError:
                raise GraphError('%s: "coeff" %s has a zero denominator'
                                 % (where, coeff)) from None
            except ValueError:
                if cls._JSON_COEFF_RE.fullmatch(coeff):  # more digits than int() converts
                    raise too_many_digits('%s: "coeff"' % where, coeff) from None
        raise refuse(': "coeff" must be an integer or a numeric string', coeff)

    def __repr__(self):
        return "GraphVector(%s)" % self.to_literal()


def vec(c: SignedGraphClass, coeff=1) -> GraphVector:
    return GraphVector.combine([(c, Fraction(coeff))])


# -- insertion composition -------------------------------------------------


def _reattachments(
    f: LabeledGraph, i: int, g: LabeledGraph, bound: Optional[int]
) -> Iterator[LabeledGraph]:
    """The graphs obtained by grafting ``g`` into boundary slot ``i`` of
    ``f`` that fit ``bound``, a projection: the degree of the entries of
    alpha (``PROJECTIONS``), or None for every graft.

    The edges of ``f`` that landed on slot ``i`` are reassigned to every
    vertex of ``g`` (boundary or internal) in all possible ways.  A graft
    keeps the internal in-degrees of ``f`` and ``g``, and each reassigned
    edge adds one at its target, so only the choices that leave every
    internal vertex of ``g`` within ``bound`` are made.
    """
    if not (f.fits(bound) and g.fits(bound)):
        return
    mf, mg, nf = f.m, g.m, f.n
    new_m = mf + mg - 1
    slot = i - 1

    def remap_f(t: int) -> Optional[int]:
        if t >= mf:
            return new_m + (t - mf)
        if t == slot:
            return None  # to be reattached
        return t if t < slot else t + mg - 1

    def remap_g(t: int) -> int:
        return slot + t if t < mg else new_m + nf + (t - mg)

    base: list[list[Optional[int]]] = [[remap_f(a), remap_f(b)] for a, b in f.targets]
    loose = [
        (k, pos) for k, pair in enumerate(base) for pos in (0, 1) if pair[pos] is None
    ]
    g_part = tuple((remap_g(a), remap_g(b)) for a, b in g.targets)
    # how many reassigned edges each internal vertex of g can still take
    room = {new_m + nf + k: len(loose) if bound is None else bound - d
            for k, d in enumerate(g.in_degrees()[mg:])}
    g_vertices = [slot + t for t in range(mg)] + [v for v, r in room.items() if r > 0]
    tight = [(v, r) for v, r in room.items() if 0 < r < len(loose)]
    for choice in itertools.product(g_vertices, repeat=len(loose)):
        if tight and any(choice.count(v) > r for v, r in tight):
            continue
        filled = [pair[:] for pair in base]
        for (k, pos), target in zip(loose, choice):
            filled[k][pos] = target
        yield LabeledGraph(new_m, tuple((a, b) for a, b in filled) + g_part)


def grafts(slots: Iterable[tuple], g: GraphVector, bound: Optional[int]) -> Iterator[tuple]:
    """(class, c * cg) for every graft of each term cg * gg of ``g`` into slot
    i of gf, over the (gf, i, c) in ``slots``: the one place grafts are made.

    Only the grafts that fit ``bound``, a projection's entry degree of
    alpha (``PROJECTIONS``), are made, so the sum is the projected one.
    """
    for gf, i, c in slots:
        if not 1 <= i <= gf.m:
            raise GraphError("insertion position %d out of range for m=%d" % (i, gf.m))
        for gg, cg in g:
            coeff = c * cg
            for raw in _reattachments(gf, i, gg, bound):
                yield canonicalize(raw), coeff


def compose_terms(f: GraphVector, g: GraphVector, bound: Optional[int] = None, sign: int = 1):
    """The grafts of sign * (f o g): every slot i of every term of ``f``,
    with the Gerstenhaber sign (-1)^{(i-1)|g|}."""
    if f.is_zero or g.is_zero:
        return iter(())
    deg_g = g.lie_degree()
    if deg_g is None:
        raise GraphError("right factor of compose must be m-homogeneous")
    signs = (sign, -sign if deg_g % 2 else sign)
    slots = (
        (gf, i, cf * signs[(i - 1) % 2]) for gf, cf in f for i in range(1, gf.m + 1)
    )
    return grafts(slots, g, bound)


def insert(f: GraphVector, i: int, g: GraphVector) -> GraphVector:
    """The operation f o_i g, extended bilinearly."""
    return GraphVector.combine(grafts(((gf, i, cf) for gf, cf in f), g, None))


def compose(f: GraphVector, g: GraphVector) -> GraphVector:
    """Pre-Lie product f o g."""
    return GraphVector.combine(compose_terms(f, g))


def bracket(f: GraphVector, g: GraphVector) -> GraphVector:
    """Graded Lie bracket [f, g] = f o g - (-1)^{|f||g|} g o f."""
    if f.is_zero or g.is_zero:
        return GraphVector()
    df, dg = f.lie_degree(), g.lie_degree()
    if df is None or dg is None:
        raise GraphError("bracket requires m-homogeneous arguments")
    sign = 1 if (df * dg) % 2 else -1
    return GraphVector.combine(
        itertools.chain(compose_terms(f, g), compose_terms(g, f, sign=sign))
    )


def differential_terms(g: LabeledGraph) -> dict[LabeledGraph, int]:
    """d Gamma for the graph ``g``, as integer coefficients of canonical classes.

    d = ad(b0) = [b0, .] raises m by one and preserves n.  Let I_j be Gamma
    with an isolated boundary vertex inserted at position j (1 <= j <= m + 1).
    In [b0, Gamma], b0 o Gamma is I_{m+1} + (-1)^{m-1} I_1, and Gamma o_i b0
    splits slot i in two, reattaching each of its k_i edges to one half,
    with the sign (-1)^{m+i-1}.  The two extreme splittings of slot i, all
    edges on one half, are I_i and I_{i+1}; over the slots these telescope
    to (-1)^m I_1 - I_{m+1} and cancel b0 o Gamma.  When k_i = 0 the two
    extremes are one graft, I_i, so the telescoping sum holds one I_i too
    many, and (-1)^{m+i} I_i is left.

    So per slot i the targets above it shift up once, and the edges on it
    take the halves i and i + 1 as the bits of 1 .. 2^{k_i} - 2 say: exactly
    the proper splittings (both halves hit), with the sign (-1)^{m+i-1}, or
    the single I_i with the sign (-1)^{m+i} when k_i = 0.  Each graph made is
    canonicalized once; entries that cancel are dropped.
    """
    m = g.m
    tally: dict[LabeledGraph, int] = {}
    for slot in range(m):  # boundary vertex i = slot + 1
        sign = 1 if (m + slot) % 2 == 0 else -1  # (-1)^{m+i-1}
        flat = [t + 1 if t > slot else t for pair in g.targets for t in pair]
        loose = [p for p, t in enumerate(flat) if t == slot]
        if loose:
            # product's first and last choices are the extremes
            halves = itertools.product((slot, slot + 1), repeat=len(loose))
            choices = itertools.islice(halves, 1, 2 ** len(loose) - 1)
        else:
            choices, sign = [()], -sign  # I_i
        for choice in choices:
            for p, t in zip(loose, choice):
                flat[p] = t
            pairs = iter(flat)
            c = canonicalize(LabeledGraph(m + 1, tuple(zip(pairs, pairs))))
            if not c.is_zero:
                tally[c.graph] = tally.get(c.graph, 0) + sign * c.sign
    return {h: k for h, k in tally.items() if k}


def differential(f: GraphVector) -> GraphVector:
    """The pointed differential ad(b0) = [b0, .]: the sum of c * ``differential_terms(g)``
    over the terms c * g of ``f``, which must be m-homogeneous."""
    if f.is_zero:
        return GraphVector()
    if f.boundary_arity() is None:
        raise GraphError("the differential requires an m-homogeneous argument")
    acc: dict[LabeledGraph, Fraction] = {}
    for g, c in f:
        add_terms(acc, ((h, c * k) for h, k in differential_terms(g).items()))
    return GraphVector(acc)


# -- merger contraction ----------------------------------------------------


def sigma_normalization(n: int) -> Fraction:
    """Per-term constant 1/(2(2^n - 2)) in front of the alternating merger sum."""
    if n <= 1:
        raise SigmaDomainError("normalization undefined for n=%d" % n)
    return Fraction(1, 2 * (2**n - 2))


def sigma(f: GraphVector) -> GraphVector:
    """Merger almost-contraction: alternating boundary merges, normalized per n."""

    def merges():
        for g, c in f:
            if g.n <= 1:
                raise SigmaDomainError(
                    "sigma needs n >= 2 internal vertices; offending term %s"
                    % g.to_literal()
                )
            norm = c * sigma_normalization(g.n)
            cls = SignedGraphClass(g, 1)
            for i in range(1, g.m):
                yield merge_boundary(cls, i), norm if (i - 1) % 2 == 0 else -norm

    return GraphVector.combine(merges())


# -- Poisson-kernel projections -------------------------------------------

# A projection is the degree of the entries of alpha.  An internal vertex of
# in-degree k applies k derivatives to an entry (Kontsevich's rule), so a
# graph dies exactly when it does not fit that degree; None keeps every graph.
PROJECTIONS: dict[str, Optional[int]] = {"none": None, "constant": 0, "linear": 1}


def project(f: GraphVector, bound: Optional[int]) -> GraphVector:
    """The terms of ``f`` whose graph fits ``bound`` (``LabeledGraph.fits``)."""
    return GraphVector({g: c for g, c in f if g.fits(bound)})


def project_constant(f: GraphVector) -> GraphVector:
    """Kill every term with an edge landing on an internal vertex."""
    return project(f, PROJECTIONS["constant"])


# -- wedge basis -----------------------------------------------------------


def expand_wedge_basis(f: GraphVector) -> dict:
    """Coefficients of f over B_n = b1^n / n! (m=2) or over Gamma_rst =
    (Gamma_1^r / r!) (Gamma_2^s / s!) (Gamma_3^t / t!) (m=3), where
    Gamma_1, Gamma_2, Gamma_3 are the wedges over (2,3), (1,3), (1,2).

    Raises WedgeSpanError carrying the residual if some term is not a
    superposition of wedges.
    """
    if f.is_zero:
        return {}
    m = f.boundary_arity()
    if m not in (2, 3):
        raise GraphError("wedge expansion requires m in {2, 3}")
    residual: dict[LabeledGraph, Fraction] = {}
    out: dict = {}
    # at m = 2, index 2 is the internal vertex v1, not a boundary point
    wedges = {(0, 1)} if m == 2 else {(0, 1), (0, 2), (1, 2)}
    for g, c in f:
        counts = Counter(g.targets)
        if not counts.keys() <= wedges:
            residual[g] = c
            continue
        if m == 2:
            key, norm = g.n, math.factorial(g.n)
        else:
            key = (counts[(1, 2)], counts[(0, 2)], counts[(0, 1)])
            norm = math.prod(math.factorial(k) for k in key)
        add_terms(out, [(key, c * norm)])
    if residual:
        raise WedgeSpanError(GraphVector(residual))
    return {k: v for k, v in out.items() if v}


# -- antipode --------------------------------------------------------------


def antipode_sign(m: int) -> int:
    """(-1)^{m(m-1)/2}, the sign of reversing m boundary points."""
    return -1 if (m * (m - 1) // 2) % 2 else 1


def antipode(f: GraphVector) -> GraphVector:
    """S(Gamma) = sign(m) * transpose(Gamma), extended linearly."""
    return GraphVector.combine(
        (transpose(SignedGraphClass(g, 1)), c * antipode_sign(g.m)) for g, c in f
    )


# -- index-triple codifferential ------------------------------------------


def delta_codifferential(i: int, j: int) -> dict[tuple[int, int, int], int]:
    """Signed formal sum of index triples delta(i, j)."""
    acc = add_terms({}, (((r, i - r, j), 1) for r in range(i + 1)))
    add_terms(acc, (((i, s, j - s), -1) for s in range(j + 1)))
    return {k: v for k, v in acc.items() if v}


def delta_sum_check(n: int) -> bool:
    """Total cancelation of sum_{i+j=n} delta(i, j)."""
    acc: dict[tuple[int, int, int], int] = {}
    for i in range(n + 1):
        add_terms(acc, delta_codifferential(i, n - i).items())
    return not any(acc.values())
