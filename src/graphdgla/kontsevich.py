"""Evaluation of graphs as polydifferential operators on polynomials.

Each internal vertex carries a copy of the Poisson tensor; its L and R edges
act as partial derivatives (first and second index respectively) on their
targets.  A graph vector is compiled once per structure into an ``Operator``
(derivative multi-indices per boundary slot, with coefficient polynomials),
which is then applied to each tuple of functions on integer numerators over
one common denominator.  All arithmetic is exact; the deformation parameter
is a formal truncation index.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Iterable, Iterator, Optional, Sequence, Union

from .algebra import PROJECTIONS, GraphVector, add_terms, split_signed_terms, vec
from .graphs import GraphError, LabeledGraph, SignedGraphClass
from .mc import StarSeries


class PoissonError(ValueError):
    """Invalid Poisson structure data."""


# -- polynomials -----------------------------------------------------------


def _mul(p: dict, q: dict) -> dict:
    """The product of two polynomials given as {exponents: int}."""
    out: dict[tuple, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(map(add, e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return out


class Poly:
    """Multivariate polynomial over the rationals in x1..xd.

    Stored as integer numerators ``num`` over one positive denominator
    ``den``, in lowest terms: gcd(den, *num) = 1 and no numerator is zero.
    Partial derivatives are cached on first use, outside ``==`` and ``hash``.
    """

    __slots__ = ("d", "den", "num", "_derived")

    def __init__(self, d: int, terms: Optional[dict[tuple, Fraction]] = None):
        coeffs = {e: Fraction(c) for e, c in (terms or {}).items() if c}
        self.d = d
        self.den = math.lcm(*(c.denominator for c in coeffs.values()))
        self.num = {e: c.numerator * (self.den // c.denominator) for e, c in coeffs.items()}

    @classmethod
    def over(cls, d: int, den: int, numerators: dict[tuple, int]) -> "Poly":
        """``numerators / den`` for a positive ``den``, in lowest terms."""
        g = math.gcd(den, *numerators.values())  # zero numerators leave g alone
        p = cls.__new__(cls)
        p.d, p.den, p.num = d, den // g, {e: c // g for e, c in numerators.items() if c}
        return p

    @classmethod
    def zero(cls, d: int) -> "Poly":
        return cls(d)

    @classmethod
    def const(cls, d: int, c) -> "Poly":
        return cls(d, {(0,) * d: c})

    @classmethod
    def variable(cls, d: int, i: int) -> "Poly":
        """x_i, 1-based."""
        if not 1 <= i <= d:
            raise ValueError("variable index %d out of range" % i)
        exps = [0] * d
        exps[i - 1] = 1
        return cls(d, {tuple(exps): 1})

    @classmethod
    def monomial(cls, d: int, exps: Sequence[int], c=1) -> "Poly":
        return cls(d, {tuple(exps): c})

    def items(self):
        return sorted((e, Fraction(c, self.den)) for e, c in self.num.items())

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        # lowest terms make (den, num) unique, so equal polynomials have equal fields
        return isinstance(other, Poly) and (self.d, self.den, self.num) == (
            other.d, other.den, other.num)

    def __hash__(self):
        return hash((self.d, self.den, frozenset(self.num.items())))

    def _check(self, other: "Poly") -> None:
        if self.d != other.d:
            raise ValueError("dimension mismatch: %d vs %d" % (self.d, other.d))

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        den = math.lcm(self.den, other.den)
        scaled = ((e, c * (den // p.den)) for p in (self, other) for e, c in p.num.items())
        return Poly.over(self.d, den, add_terms({}, scaled))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __neg__(self) -> "Poly":
        return Poly.over(self.d, self.den, {e: -c for e, c in self.num.items()})

    def __mul__(self, other: Union["Poly", int, Fraction]) -> "Poly":
        if not isinstance(other, Poly):
            k = Fraction(other)
            num = {e: c * k.numerator for e, c in self.num.items()}
            return Poly.over(self.d, self.den * k.denominator, num)
        self._check(other)
        return Poly.over(self.d, self.den * other.den, _mul(self.num, other.num))

    __rmul__ = __mul__

    def _derivative(self, idx: tuple) -> dict[tuple, int]:
        """The numerators of d_{idx} self over ``den``, for idx a sorted tuple
        of 1-based indices; cached per idx, so callers must not mutate it."""
        derived = getattr(self, "_derived", None)
        if derived is None:
            derived = self._derived = {(): self.num}
        got = derived.get(idx)
        if got is None:  # lower exponent k of d_{idx[:-1]}; injective, so nothing adds up
            k = idx[-1] - 1
            got = derived[idx] = {e[:k] + (e[k] - 1,) + e[k + 1:]: c * e[k]
                                  for e, c in self._derivative(idx[:-1]).items() if e[k]}
        return got

    def multi_diff(self, indices: Iterable[int]) -> "Poly":
        """d_{i_1} ... d_{i_k} of self, for 1-based indices."""
        idx = tuple(sorted(indices))
        if idx and not 1 <= idx[0] <= idx[-1] <= self.d:
            raise ValueError("derivative index outside 1..%d in %s" % (self.d, idx))
        return Poly.over(self.d, self.den, self._derivative(idx))

    # -- text form ---------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for e, c in self.items():
            factors = []
            if abs(c) != 1 or not any(e):
                factors.append(str(abs(c)))
            for i, p in enumerate(e):
                if p == 1:
                    factors.append("x%d" % (i + 1))
                elif p > 1:
                    factors.append("x%d^%d" % (i + 1, p))
            chunk = "*".join(factors)
            parts.append(("- " if c < 0 else "+ ") + chunk)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else out.replace("- ", "-", 1)

    __repr__ = __str__

    _FACTOR_RE = re.compile(r"^(?:(\d+(?:/\d+)?)|x(\d+)(?:\^(\d+))?)$")

    @classmethod
    def parse(cls, text: str, d: int) -> "Poly":
        """Parse literals like ``3/2*x1^2*x3 - x2``."""
        text = text.strip()
        if not text or text == "0":
            return cls.zero(d)
        chunks = split_signed_terms(text)
        if not chunks[-1][1].strip():
            raise ValueError("malformed polynomial literal: %r" % text)
        terms = (cls._parse_term(sgn, body, d) for sgn, body in chunks)
        return cls(d, add_terms({}, terms))

    @classmethod
    def _parse_term(cls, sgn: int, body: str, d: int) -> tuple[tuple, Fraction]:
        coeff = Fraction(sgn)
        exps = [0] * d
        for factor in body.split("*"):
            factor = factor.strip()
            fm = cls._FACTOR_RE.match(factor)
            if fm is None:
                raise ValueError("malformed factor %r" % factor)
            if fm.group(1) is not None:
                try:
                    coeff *= Fraction(fm.group(1))
                except ZeroDivisionError:
                    raise ValueError("zero denominator in factor %r" % factor) from None
            else:
                i = int(fm.group(2))
                if not 1 <= i <= d:
                    raise ValueError("variable x%d out of range (d=%d)" % (i, d))
                exps[i - 1] += int(fm.group(3)) if fm.group(3) else 1
        return tuple(exps), coeff


# -- Poisson structures ----------------------------------------------------


class _Literal(float):
    """A JSON number with a fraction or an exponent: a float that keeps its
    text, so that it converts to a Fraction exactly as written."""

    def __new__(cls, text: str):
        self = super().__new__(cls, text)
        self.text = text
        return self

    def __str__(self) -> str:
        return self.text


def _quote(value) -> str:
    """``value`` as the file wrote it: each ``_Literal`` by its text, the rest as JSON."""
    if isinstance(value, (list, tuple)):
        return "[%s]" % ", ".join(map(_quote, value))
    if isinstance(value, dict):
        return "{%s}" % ", ".join(json.dumps(k) + ": " + _quote(v) for k, v in value.items())
    return value.text if type(value) is _Literal else json.dumps(value)


def _field(obj: dict, name: str, where: str):
    """``obj[name]``, or a PoissonError naming ``where`` and the missing field."""
    if name not in obj:
        raise PoissonError('%s: missing "%s"' % (where, name))
    return obj[name]


def _index(entry: dict, name: str, pos: int, d: int) -> int:
    """The 1-based index field ``name`` of linear entry ``c[pos]``, 0-based."""
    value = _field(entry, name, "entry c[%d]" % pos)
    if type(value) is not int:  # a JSON integer; bool is a subclass of int
        raise PoissonError(
            'entry c[%d]: index "%s" must be an integer, got %s'
            % (pos, name, _quote(value))
        )
    if not 1 <= value <= d:
        raise PoissonError(
            'entry c[%d]: index "%s" = %d outside 1..%d' % (pos, name, value, d)
        )
    return value - 1


_JSON_NAMES = {dict: "an object", list: "an array", str: "a string", bool: "a boolean",
               int: "a number", float: "a number", _Literal: "a number", type(None): "null"}


def _require_json(value, want: type, where: str):
    """``value`` if it has the JSON type ``want``, else a PoissonError naming ``where``."""
    if type(value) is not want:
        raise PoissonError("%s must be %s, got %s" % (
            where, _JSON_NAMES[want], _JSON_NAMES.get(type(value), type(value).__name__)))
    return value


def _rational(value, where: str) -> Fraction:
    """A JSON number or numeric string as a Fraction; ``where`` names the field."""
    try:
        if type(value) in (int, float, _Literal, str):  # not a boolean, null, array or object
            return Fraction(str(value))
    except ZeroDivisionError:
        raise PoissonError(
            "%s = %s has a zero denominator" % (where, _quote(value))
        ) from None
    except ValueError:
        pass
    raise PoissonError(
        "%s must be a number or numeric string, got %s" % (where, _quote(value))
    )


@dataclass(frozen=True)
class PoissonStructure:
    """A Poisson bivector on R^d, stored as its nonzero entries.

    ``entries`` holds one ``(i, j, alpha^{ij})`` per nonzero alpha^{ij}, with
    0-based ``i``, ``j`` in row-major order and alpha^{ij} a ``Poly``: a
    constant for kind "constant", ``sum_k c^{ij}_k x_k`` for kind "linear".
    """

    d: int
    kind: str  # "constant" | "linear"
    entries: tuple  # ((i, j, Poly), ...)

    @classmethod
    def constant(cls, matrix: Sequence[Sequence]) -> "PoissonStructure":
        """From the dense rows alpha[i][j] of an antisymmetric matrix."""
        d = len(matrix)
        alpha = [[Fraction(x) for x in row] for row in matrix]
        for i, row in enumerate(alpha):
            if len(row) != d:
                raise PoissonError(
                    '"alpha"[%d] has %d entries but "d" is %d' % (i, len(row), d))
        for i, j in itertools.product(range(d), repeat=2):
            if alpha[i][j] != -alpha[j][i]:
                raise PoissonError(
                    '"alpha"[%d][%d] = %s must be the negative of "alpha"[%d][%d] = %s'
                    % (i, j, alpha[i][j], j, i, alpha[j][i]))
        return cls(d, "constant", tuple(
            (i, j, Poly.const(d, x))
            for i, row in enumerate(alpha) for j, x in enumerate(row) if x
        ))

    @classmethod
    def linear(cls, d: int, constants: dict) -> "PoissonStructure":
        """From the structure constants ``{(i, j, k): c^{ij}_k}``, 0-based, with
        both orientations (i, j, k) and (j, i, k) of each nonzero constant."""
        for key in constants:
            if not all(0 <= t < d for t in key):
                raise PoissonError("constant c%s has an index outside 0..%d" % (key, d - 1))
        c = {key: Fraction(x) for key, x in sorted(constants.items()) if x}
        rows: dict = {}  # i -> (j, k, c^{ij}_k) for each nonzero constant
        alpha: dict = {}  # (i, j) -> {exponents of x_k: c^{ij}_k}
        for (i, j, k), x in c.items():
            if c.get((j, i, k), 0) != -x:
                raise PoissonError(
                    "c^{%d%d}_%d = %s must be the negative of c^{%d%d}_%d = %s"
                    % (i + 1, j + 1, k + 1, x, j + 1, i + 1, k + 1, c.get((j, i, k), 0)))
            rows.setdefault(i, []).append((j, k, x))
            alpha.setdefault((i, j), {})[tuple(int(t == k) for t in range(d))] = x
        # Jacobi: J(i,j,k,l) = P(i,j,k,l) + P(j,k,i,l) + P(k,i,j,l) = 0 with
        # P(i,j,k,l) = sum_m c^{ij}_m c^{mk}_l over nonzero constants.  J is
        # invariant under rotating (i,j,k), so the least rotation of a failing
        # key of P is the first failing index.
        p = add_terms({}, (
            ((i, j, k, l), x * y)
            for i, row in rows.items() for j, mm, x in row for k, l, y in rows.get(mm, ())
        ))
        failing = [
            min((i, j, k, l), (j, k, i, l), (k, i, j, l))
            for i, j, k, l in p
            if p[i, j, k, l] + p.get((j, k, i, l), 0) + p.get((k, i, j, l), 0)
        ]
        if failing:
            first = "(%d,%d,%d,%d)" % tuple(t + 1 for t in min(failing))
            raise PoissonError("Jacobi identity fails at " + first)
        entries = tuple((i, j, Poly(d, terms)) for (i, j), terms in alpha.items())
        return cls(d, "linear", entries)

    @classmethod
    def standard_symplectic(cls, d: int = 2) -> "PoissonStructure":
        if d % 2:
            raise PoissonError("symplectic dimension must be even")
        m = [[Fraction(0)] * d for _ in range(d)]
        for k in range(d // 2):
            m[2 * k][2 * k + 1] = Fraction(1)
            m[2 * k + 1][2 * k] = Fraction(-1)
        return cls.constant(m)

    @classmethod
    def so3(cls) -> "PoissonStructure":
        """Linear structure with c^{ij}_k the Levi-Civita symbol."""
        return cls.linear(3, {
            (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
            (1, 0, 2): -1, (2, 1, 0): -1, (0, 2, 1): -1,
        })

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PoissonStructure":
        _require_json(obj, dict, "the top level")
        try:
            d = _field(obj, "d", "the top level")
            kind = _field(obj, "kind", "the top level")
            if type(d) is not int:  # a JSON integer; bool is a subclass of int
                raise PoissonError('"d" must be an integer, got %s' % _quote(d))
            if d < 1:
                raise PoissonError('"d" must be >= 1, got %d' % d)
            if kind == "constant":
                rows = _require_json(_field(obj, "alpha", "the top level"), list, '"alpha"')
                if len(rows) != d:
                    raise PoissonError('"alpha" has %d rows but "d" is %d' % (len(rows), d))
                return cls.constant([
                    [_rational(x, '"alpha"[%d][%d]' % (r, c))
                     for c, x in enumerate(_require_json(row, list, '"alpha"[%d]' % r))]
                    for r, row in enumerate(rows)
                ])
            if kind == "linear":
                seen: dict[tuple, tuple] = {}  # (i, j, k) -> (position that set it, value)
                listed = _require_json(_field(obj, "c", "the top level"), list, '"c"')
                for pos, entry in enumerate(listed):
                    where = "entry c[%d]" % pos
                    _require_json(entry, dict, where)
                    i, j, k = (_index(entry, name, pos, d) for name in "ijk")
                    val = _rational(_field(entry, "val", where), where + ': "val"')
                    if i == j and val:
                        raise PoissonError('entry c[%d]: "i" = "j" needs "val" 0, got %s'
                                           % (pos, _quote(entry["val"])))
                    for cell, value in (((i, j, k), val), ((j, i, k), -val)):
                        first, old = seen.setdefault(cell, (pos, value))
                        if old != value:
                            a, b, c = cell
                            raise PoissonError(
                                "entries c[%d] and c[%d] conflict: c^{%d%d}_%d = %s and %s"
                                % (first, pos, a + 1, b + 1, c + 1, old, value)
                            )
                return cls.linear(d, {cell: value for cell, (_, value) in seen.items()})
            raise PoissonError("unknown kind %s" % _quote(kind))
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, PoissonError):
                raise
            raise PoissonError("malformed Poisson structure: %s" % exc) from exc

    @classmethod
    def from_json_file(cls, path: str) -> "PoissonStructure":
        with open(path) as fh:
            try:
                obj = json.load(fh, parse_float=_Literal)
            except json.JSONDecodeError as exc:
                raise PoissonError("invalid JSON: %s" % exc) from exc
        return cls.from_json_obj(obj)


# -- graph evaluation ------------------------------------------------------


@dataclass(frozen=True)
class Operator:
    """A graph vector compiled for one Poisson structure.

    The polydifferential operator ``fs -> sum coeff * prod_s d_{I_s} fs[s]``.
    Each term pairs the sorted derivative multi-indices ``(I_1, ..., I_m)``,
    one per boundary slot, with a nonzero coefficient polynomial: the graph
    coefficients times the differentiated vertex tensors, summed over every
    graph and edge assignment that lands on those multi-indices.
    """

    d: int
    m: Optional[int]  # the boundary arity of every graph; None for the zero vector
    terms: tuple  # ((I_1, ..., I_m), Poly) pairs

    # the least common denominator L of every coefficient
    den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "den", math.lcm(*(p.den for _, p in self.terms)))

    def check(self, fs: Sequence[Poly]) -> None:
        """Raise unless ``fs`` has one polynomial in x1..xd per boundary slot."""
        if self.m is None:
            return
        if len(fs) != self.m:
            raise GraphError("need %d boundary functions, got %d" % (self.m, len(fs)))
        for f in fs:
            if f.d != self.d:
                raise ValueError(
                    "polynomial dimension %d != Poisson dimension %d" % (f.d, self.d)
                )

    def __call__(self, fs: Sequence[Poly]) -> Poly:
        self.check(fs)
        acc: dict[tuple, int] = {}
        self.add_into(acc, 1, fs)
        return Poly.over(self.d, self.den * math.prod(f.den for f in fs), acc)

    def add_into(self, acc: dict, scale: int, fs: Sequence[Poly]) -> None:
        """Add the integer polynomial ``scale * L * prod(f.den) * self(fs)`` to ``acc``."""
        for key, p in self.terms:
            product = p.num
            for f, idx in zip(fs, key):
                factor = f._derivative(idx)
                if not factor:
                    break
                product = _mul(product, factor)
            else:
                k = scale * (self.den // p.den)
                for e, c in product.items():
                    acc[e] = acc.get(e, 0) + c * k


@functools.lru_cache(maxsize=256)
def compile_vector(x: GraphVector, alpha: PoissonStructure) -> Operator:
    """The operator of ``x`` under Kontsevich's rule, walking each graph's
    edge assignments once; cached per (vector, structure).  Graphs that
    vanish for ``alpha.kind`` are skipped, but still set ``m``."""
    arity = x.boundary_arity()
    if arity is None and x:
        raise GraphError("evaluation requires an m-homogeneous vector, got m = %s"
                         % ", ".join(map(str, sorted({g.m for g, _ in x.terms()}))))
    d = alpha.d
    # a graph that does not fit its structure's kind differentiates some
    # vertex tensor past its polynomial degree, so every edge assignment is zero
    bound = PROJECTIONS[alpha.kind]
    kept = [(g, c) for g, c in x.terms() if g.fits(bound)]
    # a common multiple of every assignment's c.denominator * prod(entry dens)
    entry_den = math.lcm(*(p.den for _, _, p in alpha.entries))
    den = math.lcm(*(c.denominator * entry_den ** g.n for g, c in kept))
    acc: dict[tuple, dict[tuple, int]] = {}
    for g, c in kept:
        n = g.n
        for assign in itertools.product(alpha.entries, repeat=n):
            derivs: list[list[int]] = [[] for _ in range(arity + n)]
            for k, (i, j, _) in enumerate(assign):
                a, b = g.targets[k]
                derivs[a].append(i + 1)
                derivs[b].append(j + 1)
            product, product_den = {(0,) * d: 1}, c.denominator
            for k, (_, _, p) in enumerate(assign):
                factor = p._derivative(tuple(sorted(derivs[arity + k])))
                if not factor:
                    break
                product = _mul(product, factor)
                product_den *= p.den
            else:
                key = tuple(tuple(sorted(derivs[s])) for s in range(arity))
                k = c.numerator * (den // product_den)
                add_terms(acc.setdefault(key, {}), ((e, v * k) for e, v in product.items()))
    terms = tuple((key, p) for key, num in acc.items() if (p := Poly.over(d, den, num)))
    return Operator(d, arity, terms)


def evaluate_graph(g: LabeledGraph, alpha: PoissonStructure, fs: Sequence[Poly]) -> Poly:
    """One labeled graph, as drawn (not canonicalized), on ``fs``."""
    return compile_vector(GraphVector({g: Fraction(1)}), alpha)(fs)


def evaluate(
    x: Union[SignedGraphClass, GraphVector],
    alpha: PoissonStructure,
    fs: Sequence[Poly],
) -> Poly:
    """Kontsevich-rule evaluation, extended linearly and by sign."""
    if isinstance(x, SignedGraphClass):
        x = vec(x)
    return compile_vector(x, alpha)(fs)


# -- star products and defects --------------------------------------------


def star_series(
    series: StarSeries, alpha: PoissonStructure, A: Sequence[Poly], B: Sequence[Poly]
) -> list[Poly]:
    """Star product of two truncated series, truncated at the series' order.

    Each order is summed on integers over one denominator, the lcm of its
    contributions' denominators, and turned into a Poly at the end."""
    N = series.order
    ops = [compile_vector(x, alpha) for x in series.coeffs]
    dens = [1] * (N + 1)
    parts = []  # (order, denominator, operator, a, b) per contribution
    for p, a in enumerate(A):
        for q, b in enumerate(B):
            for r in range(N - p - q + 1) if a and b else ():
                ops[r].check((a, b))
                den = ops[r].den * a.den * b.den
                dens[p + q + r] = math.lcm(dens[p + q + r], den)
                parts.append((p + q + r, den, ops[r], a, b))
    acc: list[dict[tuple, int]] = [{} for _ in range(N + 1)]
    for k, den, op, a, b in parts:
        op.add_into(acc[k], dens[k] // den, (a, b))
    return [Poly.over(alpha.d, den, terms) for den, terms in zip(dens, acc)]


def associativity_defect(
    series: StarSeries, alpha: PoissonStructure, u: Poly, v: Poly, w: Poly
) -> list[Poly]:
    """(u * v) * w - u * (v * w), truncated at the series' order."""
    uv = star_series(series, alpha, [u], [v])
    vw = star_series(series, alpha, [v], [w])
    left = star_series(series, alpha, uv, [w])
    right = star_series(series, alpha, [u], vw)
    return [l - r for l, r in zip(left, right)]


def iter_monomials(d: int, degree: int) -> Iterator[Poly]:
    """The monomials in d variables of total degree <= degree, lazily: by
    total degree, then in lexicographic order of the exponents."""
    for total in range(degree + 1):
        for exps in _compositions(total, d):
            yield Poly.monomial(d, exps)


def _compositions(total: int, d: int) -> Iterator[tuple]:
    """The d-tuples of nonnegative integers summing to ``total``, in
    lexicographic order."""
    if d == 0:
        if total == 0:
            yield ()
        return
    for a in range(total + 1):
        for rest in _compositions(total - a, d - 1):
            yield (a,) + rest
