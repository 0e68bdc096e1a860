"""Span tracer for the traced mode, applied to graphdgla from outside.

Each traced function is replaced in every graphdgla module namespace that
bound it (``from .graphs import canonicalize`` makes a separate binding in
each importing module), and dunders are replaced on their class.  A span
records its name, start, end and parent; spans stay in memory and are
summarised when the sample ends.  Self time is a span's duration minus the
durations of its child spans.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

DIAGNOSTICS = ("mc.defect", "mc.lemma1_identity")
# counters the observers add to; each starts at 0
COUNTERS = (
    "graphs.canonicalize.zero",
    "algebra.vector_add.terms_copied",
    "homology.rank.entries",
    "homology.rank.nnz",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.distinct: dict[str, set] = {}
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, key=None, observe=None):
        """A traced stand-in for ``fn``.

        ``key(*args)`` gives the hashable identity of an input, for the
        distinct ratio; ``observe(counters, args, result)`` adds counts.
        """
        sid = len(self.names)
        self.names.append(name)
        seen = self.distinct.setdefault(name, set()) if key else None
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, counters, clock = self._stack, self.counters, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if seen is not None:
                seen.add(key(*args, **kwargs))
            idx = len(start)
            span_name.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, result)
            return result

        return traced

    def summary(self) -> dict:
        """Per-name calls and self time, distinct and zero ratios, counters."""
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        in_diag = [False] * n
        diag_ids = {i for i, name in enumerate(self.names) if name in DIAGNOSTICS}
        solve_id = self.names.index("mc.solve") if "mc.solve" in self.names else -1
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        diag_s = solve_s = 0.0
        # parents precede children, so one forward pass sees every parent first
        for i in range(n):
            p, sid = self.parent[i], self.span_name[i]
            if p >= 0:
                child[p] += dur[i]
            is_diag = sid in diag_ids
            in_diag[i] = is_diag or (p >= 0 and in_diag[p])
            if is_diag and not (p >= 0 and in_diag[p]):
                diag_s += dur[i]
            if sid == solve_id:
                solve_s += dur[i]
        for i in range(n):
            sid = self.span_name[i]
            calls[sid] += 1
            self_s[sid] += dur[i] - child[i]
        out: dict = {}
        for sid, name in enumerate(self.names):
            out[name + ".calls"] = calls[sid]
            out[name + ".self_s"] = self_s[sid]
            if name in self.distinct:
                out[name + ".distinct_ratio"] = _ratio(len(self.distinct[name]), calls[sid])
        for key, value in self.counters.items():
            out[key] = value
        out["graphs.canonicalize.zero_ratio"] = _ratio(
            self.counters["graphs.canonicalize.zero"], out["graphs.canonicalize.calls"]
        )
        out["mc.diagnostics_share"] = diag_s / solve_s if solve_s else 0.0
        return out


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def rebind(owners, original, replacement) -> int:
    """Replace every binding of ``original`` in the owners' namespaces."""
    hits = 0
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, attr, replacement)
                hits += 1
    return hits


def _matrix_key(matrix) -> tuple:
    return matrix.shape, tuple(tuple(sorted(col.items())) for col in matrix.columns)


def _observe_canonicalize(counters, args, result):
    if result.is_zero:
        counters["graphs.canonicalize.zero"] += 1


def _observe_vector_add(counters, args, result):
    counters["algebra.vector_add.terms_copied"] += len(args[0])


def _observe_rank(counters, args, result):
    matrix = args[0]
    rows, cols = matrix.shape
    counters["homology.rank.entries"] += rows * cols
    counters["homology.rank.nnz"] += sum(len(col) for col in matrix.columns)


def _args_key(*args, **kwargs):
    return args, tuple(sorted(kwargs.items()))


def _evaluate_key(x, alpha, fs):
    return x, alpha, tuple(fs)


def install(tracer: Tracer) -> None:
    """Wrap the traced public functions of graphdgla in every namespace."""
    from graphdgla import algebra, cli, graphs, homology, kontsevich, mc

    modules = [
        module
        for name, module in sys.modules.items()
        if name == "graphdgla" or name.startswith("graphdgla.")
    ]
    targets = [
        (graphs, "canonicalize", "graphs.canonicalize", lambda g: g, _observe_canonicalize),
        (graphs, "enumerate_classes", "graphs.enumerate_classes", None, None),
        (graphs, "merge_boundary", "graphs.merge_boundary", None, None),
        (algebra, "insert", "algebra.insert", None, None),
        (algebra, "compose", "algebra.compose", None, None),
        (algebra, "sigma", "algebra.sigma", None, None),
        (algebra, "differential", "algebra.differential", None, None),
        (algebra, "bracket", "algebra.bracket", _args_key, None),
        (algebra.GraphVector, "__add__", "algebra.vector_add", None, _observe_vector_add),
        (mc, "solve", "mc.solve", None, None),
        (mc, "d_term", "mc.d_term", None, None),
        (mc, "defect", "mc.defect", None, None),
        (mc, "lemma1_identity", "mc.lemma1_identity", None, None),
        (kontsevich, "evaluate_graph", "kontsevich.evaluate_graph", None, None),
        (kontsevich, "evaluate", "kontsevich.evaluate", _evaluate_key, None),
        (kontsevich, "star_series", "kontsevich.star_series", None, None),
        (kontsevich.Poly, "__mul__", "kontsevich.poly_mul", None, None),
        (homology, "rank", "homology.rank", _matrix_key, _observe_rank),
        (homology, "boundary_matrix", "homology.boundary_matrix", _args_key, None),
        (cli, "main", "cli.main", None, None),
    ]
    for owner, attr, name, key, observe in targets:
        original = vars(owner)[attr]
        # a dunder is looked up on the class; a function in each module namespace
        owners = [owner] if isinstance(owner, type) else modules
        if not rebind(owners, original, tracer.wrap(name, original, key, observe)):
            raise RuntimeError("no binding of %s found" % name)
