"""Command-line front end.

Subcommands: enumerate, compose, bracket, sigma, solve, defect, evaluate,
homology, selftest.  Exit codes: 0 success, 1 identity-check failure,
2 input error (an input check raised ``graphs.GraphError``), 3 resource cap
exceeded or a result number too long to print, 4 internal error (any other
exception, a fault of the engine, reported as one ``internal error:`` line
instead of a traceback).
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys

from . import checks, homology, mc
from .algebra import GraphVector, bracket, compose, sigma
from .graphs import DEFAULT_CAP, GraphError, ResourceCapExceeded, enumerate_classes
from .kontsevich import (
    PoissonError,
    PoissonStructure,
    Poly,
    associativity_defect,
    evaluate,
    iter_monomials,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


def _load_poisson(path: str) -> PoissonStructure:
    try:
        return PoissonStructure.from_json_file(path)
    except (OSError, PoissonError) as exc:
        raise GraphError("bad Poisson file %s: %s" % (path, exc)) from exc


def _require(flag: str, value: int, least: int) -> None:
    if value < least:
        raise GraphError("%s must be >= %d, got %d" % (flag, least, value))


def _solve(args) -> mc.StarSeries:
    _require("order", args.order, 1)
    return mc.solve(args.order, args.projection)


def _emit_vector(v: GraphVector, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(v.to_json_obj()))
    else:
        print(v.to_literal())


# -- subcommands -----------------------------------------------------------


def cmd_enumerate(args) -> int:
    _require("--cap", args.cap, 1)
    if args.max_in_degree is not None:
        _require("--max-in-degree", args.max_in_degree, 0)
    classes = enumerate_classes(args.n, args.m, args.max_in_degree, cap=args.cap)
    if args.format == "json":
        print(json.dumps([c.graph.to_literal() for c in classes]))
    else:
        print("count: %d" % len(classes))
        for c in classes:
            print(c.graph.to_literal())
    return EXIT_OK


def cmd_product(args) -> int:
    """``compose`` or ``bracket``, whichever the subcommand set as ``product``."""
    f = GraphVector.from_literal(args.f)
    g = GraphVector.from_literal(args.g)
    _emit_vector(args.product(f, g), args.format)
    return EXIT_OK


def cmd_sigma(args) -> int:
    _emit_vector(sigma(GraphVector.from_literal(args.f)), args.format)
    return EXIT_OK


def cmd_solve(args) -> int:
    series = _solve(args)
    orders = list(zip(itertools.count(2), series.coeffs[2:], series.residuals))
    checked = {}  # the report's keys after "orders", in order
    ok = True
    if args.projection == "constant":
        ok = checks.moyal_coefficients(series) and checks.defects_vanish(series)
        checked["moyal_ok"] = ok
    if args.poisson:
        alpha = _load_poisson(args.poisson)
        # a fixed corpus: the first 4 monomials of degree <= 3, 64 triples
        corpus = list(itertools.islice(iter_monomials(alpha.d, 3), 4))
        count = 0
        sample = None
        for u, v, w in itertools.product(corpus, repeat=3):
            defects = associativity_defect(series, alpha, u, v, w)
            nonzero = [n for n, p in enumerate(defects) if p]
            if nonzero:
                count += 1
                if sample is None:
                    sample = {"u": str(u), "v": str(v), "w": str(w), "orders": nonzero}
        checked["evaluated_defect"] = {"nonzero_triples": count, "sample": sample}
    if args.format == "json":
        # Three fields carry no information: sigma has one normalization,
        # and the projected defect is 2 residual (see mc.solve), so Lemma 1
        # holds and the defect has len(residual) terms.  They stay because
        # the solve digests pin them: SOLVE_SHA256 in benchmark/workloads.py
        # and the CI solve pins.
        report = {
            "order": series.order,
            "projection": args.projection,
            "sigma_normalization": "merger",
            "orders": [
                {"n": n, "m_n": m_n.to_json_obj(), "residual": residual.to_json_obj(),
                 "lemma1_identity": True, "defect_norm": len(residual)}
                for n, m_n, residual in orders
            ],
            **checked,
        }
        print(json.dumps(report))
    else:
        for n, m_n, residual in orders:
            print(
                "n=%d  m_n=%s  residual=%s  lemma1=True"
                % (n, m_n.to_literal(), residual.to_literal())
            )
        if "moyal_ok" in checked:
            print("moyal_ok: %s" % checked["moyal_ok"])
        if "evaluated_defect" in checked:
            print("evaluated_defect: %s" % json.dumps(checked["evaluated_defect"]))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_defect(args) -> int:
    series = _solve(args)
    rows = []
    for n in range(series.order + 1):
        d = mc.defect(series, n)
        rows.append({"n": n, "defect": d.to_json_obj(), "terms": len(d)})
    if args.format == "json":
        print(json.dumps(rows))
    else:
        for row in rows:
            print("n=%d  terms=%d" % (row["n"], row["terms"]))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    alpha = _load_poisson(args.poisson)
    v = GraphVector.from_literal(args.vector)
    fs = [Poly.parse(chunk, alpha.d) for chunk in args.functions.split(";")]
    print(evaluate(v, alpha, fs))
    return EXIT_OK


def cmd_homology(args) -> int:
    if args.n_max < 0 or args.m_max < 1:
        raise GraphError(
            "need --n-max >= 0 and --m-max >= 1, got %d and %d" % (args.n_max, args.m_max)
        )
    _require("--cap", args.cap, 1)
    rows = homology.dimension_table(args.n_max, args.m_max, cap=args.cap)
    keys = ("n", "m", "classes", "dim_Z", "dim_B", "dim_H")
    if args.format == "json":
        print(json.dumps(rows))
    elif args.format == "csv":
        print(",".join(keys))
        for r in rows:
            print("%d,%d,%d,%d,%d,%d" % tuple(r[k] for k in keys))
    else:
        for r in rows:
            print("n=%d m=%d classes=%d Z=%d B=%d H=%d" % tuple(r[k] for k in keys))
    return EXIT_OK


# -- selftest --------------------------------------------------------------


def cmd_selftest(args) -> int:
    selected = checks.CHECKS
    if args.only:
        if args.only not in selected:
            raise GraphError("unknown check %r" % args.only)
        selected = {args.only: selected[args.only]}
    results = {}
    for name, fn in selected.items():
        results[name] = bool(fn())
        if args.format != "json":
            print("%-20s %s" % (name, "pass" if results[name] else "FAIL"))
    if args.format == "json":
        print(json.dumps(results))
    return EXIT_OK if all(results.values()) else EXIT_CHECK_FAILED


# -- argument parsing ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a malformed command line as one
    ``error:`` line and exits with EXIT_INPUT; subparsers share the class."""

    def error(self, message):
        print("error: %s" % message, file=sys.stderr)
        sys.exit(EXIT_INPUT)


def _add_common(p, formats=("text", "json")):
    p.add_argument("--format", choices=formats, default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphdgla",
        description="Exact engine for the graded Lie algebra of admissible graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list orientation classes of G_{n,m}")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--max-in-degree", type=int, default=None)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_common(p)
    p.set_defaults(fn=cmd_enumerate)

    for name, product in (("compose", compose), ("bracket", bracket)):
        p = sub.add_parser(name, help="%s of two graph-vector literals" % name)
        p.add_argument("f")
        p.add_argument("g")
        _add_common(p)
        p.set_defaults(fn=cmd_product, product=product)

    p = sub.add_parser("sigma", help="merger contraction of a graph vector")
    p.add_argument("f")
    _add_common(p)
    p.set_defaults(fn=cmd_sigma)

    p = sub.add_parser("solve", help="iterate the deformation recursion")
    p.add_argument("order", type=int)
    p.add_argument("--projection", choices=mc.PROJECTIONS, default="none")
    p.add_argument("--poisson", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("defect", help="associativity defects of a solved series")
    p.add_argument("order", type=int)
    p.add_argument("--projection", choices=mc.PROJECTIONS, default="none")
    _add_common(p)
    p.set_defaults(fn=cmd_defect)

    p = sub.add_parser("evaluate", help="Kontsevich-rule evaluation")
    p.add_argument("vector", help="graph-vector literal")
    p.add_argument("--poisson", required=True)
    p.add_argument("--functions", required=True, help="semicolon-separated polynomials")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("homology", help="cohomology dimension table")
    p.add_argument("--n-max", type=int, default=2)
    p.add_argument("--m-max", type=int, default=2)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_common(p, ("text", "json", "csv"))
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.add_argument("--only", default=None)
    _add_common(p)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except GraphError as exc:  # an input check refused the input
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:  # anything else is a fault of the engine, not of its input
        print("internal error: %r" % exc, file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
