"""Command-line front end.

Subcommands: enumerate, compose, bracket, sigma, solve, defect, evaluate,
homology, selftest.  Exit codes: 0 success, 1 identity-check failure,
2 input error, 3 resource cap exceeded.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import homology, mc
from .algebra import (
    GraphVector,
    SigmaDomainError,
    antipode,
    bracket,
    compose,
    delta_sum_check,
    differential,
    expand_wedge_basis,
    project_constant,
    sigma,
    vec,
)
from .graphs import (
    DEFAULT_CAP,
    GraphError,
    ResourceCapExceeded,
    SignedGraphClass,
    b1_power,
    enumerate_classes,
)
from .kontsevich import (
    PoissonError,
    PoissonStructure,
    Poly,
    associativity_defect,
    evaluate,
    monomials_up_to_degree,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_CAP = 3


class _InputError(Exception):
    pass


def _parse_vector(text: str) -> GraphVector:
    try:
        return GraphVector.from_literal(text)
    except (GraphError, ValueError) as exc:
        raise _InputError(str(exc)) from exc


def _load_poisson(path: str) -> PoissonStructure:
    try:
        return PoissonStructure.from_json_file(path)
    except (OSError, PoissonError) as exc:
        raise _InputError("bad Poisson file %s: %s" % (path, exc)) from exc


def _require(flag: str, value: int, least: int) -> None:
    if value < least:
        raise _InputError("%s must be >= %d, got %d" % (flag, least, value))


def _solve(args) -> mc.StarSeries:
    _require("order", args.order, 1)
    return mc.solve(args.order, args.projection, args.sigma_norm)


def _emit_vector(v: GraphVector, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(v.to_json_obj()))
    else:
        print(v.to_literal())


# -- subcommands -----------------------------------------------------------


def cmd_enumerate(args) -> int:
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


def cmd_compose(args) -> int:
    f = _parse_vector(args.f)
    g = _parse_vector(args.g)
    _emit_vector(compose(f, g), args.format)
    return EXIT_OK


def cmd_bracket(args) -> int:
    f = _parse_vector(args.f)
    g = _parse_vector(args.g)
    _emit_vector(bracket(f, g), args.format)
    return EXIT_OK


def cmd_sigma(args) -> int:
    f = _parse_vector(args.f)
    try:
        _emit_vector(sigma(f, args.sigma_norm), args.format)
    except SigmaDomainError as exc:
        raise _InputError(str(exc)) from exc
    return EXIT_OK


def cmd_solve(args) -> int:
    _require("--corpus-degree", args.corpus_degree, 0)
    _require("--corpus-limit", args.corpus_limit, 1)
    series = _solve(args)
    report = {
        "order": series.order,
        "projection": series.projection,
        "sigma_normalization": series.sigma_normalization,
        "orders": [r.to_json_obj() for r in series.reports],
    }
    ok = True
    if args.projection == "constant":
        for n in range(2, series.order + 1):
            expansion = expand_wedge_basis(project_constant(series.coeffs[n]))
            if expansion != {n: Fraction(1)}:
                ok = False
        for n in range(series.order + 1):
            if project_constant(mc.defect(series, n)):
                ok = False
        report["moyal_ok"] = ok
    if args.poisson:
        alpha = _load_poisson(args.poisson)
        corpus = monomials_up_to_degree(alpha.d, args.corpus_degree)
        worst = 0
        sample = None
        for u in corpus[: args.corpus_limit]:
            for v in corpus[: args.corpus_limit]:
                for w in corpus[: args.corpus_limit]:
                    defects = associativity_defect(series, alpha, u, v, w)
                    nonzero = [n for n, p in enumerate(defects) if p]
                    if nonzero:
                        worst = max(worst, len(nonzero))
                        if sample is None:
                            sample = {
                                "u": str(u),
                                "v": str(v),
                                "w": str(w),
                                "orders": nonzero,
                            }
        report["evaluated_defect"] = {"nonzero_triples": worst, "sample": sample}
    if args.format == "json":
        print(json.dumps(report))
    else:
        for r in series.reports:
            print(
                "n=%d  m_n=%s  residual=%s  lemma1=%s"
                % (r.n, r.m_n.to_literal(), r.residual.to_literal(), r.lemma1_identity)
            )
        if "moyal_ok" in report:
            print("moyal_ok: %s" % report["moyal_ok"])
        if "evaluated_defect" in report:
            print("evaluated_defect: %s" % json.dumps(report["evaluated_defect"]))
    if args.projection == "constant" and not ok:
        return EXIT_CHECK_FAILED
    return EXIT_OK


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
    v = _parse_vector(args.vector)
    try:
        fs = [Poly.parse(chunk, alpha.d) for chunk in args.functions.split(";")]
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    try:
        result = evaluate(v, alpha, fs)
    except (GraphError, ValueError) as exc:
        raise _InputError(str(exc)) from exc
    print(str(result))
    return EXIT_OK


def cmd_homology(args) -> int:
    if args.n_max < 0 or args.m_max < 1:
        raise _InputError(
            "need --n-max >= 0 and --m-max >= 1, got %d and %d" % (args.n_max, args.m_max)
        )
    rows = homology.dimension_table(args.n_max, args.m_max, cap=args.cap)
    if args.format == "json":
        print(json.dumps(rows))
    elif args.format == "csv":
        print("n,m,classes,dim_Z,dim_B,dim_H")
        for r in rows:
            print(
                "%d,%d,%d,%d,%d,%d"
                % (r["n"], r["m"], r["classes"], r["dim_Z"], r["dim_B"], r["dim_H"])
            )
    else:
        for r in rows:
            print(
                "n=%d m=%d classes=%d Z=%d B=%d H=%d"
                % (r["n"], r["m"], r["classes"], r["dim_Z"], r["dim_B"], r["dim_H"])
            )
    return EXIT_OK


# -- selftest --------------------------------------------------------------


def _selftest_checks(args):
    from .graphs import b0, b1, c2L, c2R, t2L, t2R, merge_boundary

    sigma_norm = args.sigma_norm
    antipode_sign = args.antipode_sign

    def check_delta_sum():
        return all(delta_sum_check(n) for n in range(args.n + 1))

    def check_d2():
        lhs = compose(vec(b1()), vec(b1()))
        rhs = vec(t2R()) - vec(t2L()) + vec(c2L()) - vec(c2R())
        return lhs == rhs

    def check_moyal():
        series = mc.solve(4, "constant", sigma_norm)
        return all(
            expand_wedge_basis(series.coeffs[n]) == {n: Fraction(1)}
            for n in range(2, 5)
        )

    def check_sigma_contraction():
        import math

        for i in range(1, 5):
            for j in range(1, 5):
                if i + j > 5:
                    continue
                n = i + j
                br = bracket(vec(b1_power(i)), vec(b1_power(j)))
                got = expand_wedge_basis(project_constant(sigma(br, sigma_norm)))
                # coefficient -1/(2^{n-1}-1) on b1^n, i.e. -n!/(2^{n-1}-1) on B_n
                want = {n: Fraction(-math.factorial(n), 2 ** (n - 1) - 1)}
                if got != want:
                    return False
        return True

    def check_d_squared():
        for n in range(0, 4):
            for m in range(1, 4):
                for c in enumerate_classes(n, m):
                    if differential(differential(vec(c))):
                        return False
        return True

    def check_sigma_squared():
        for n in (2, 3):
            for m in range(2, 6):
                for c in enumerate_classes(n, m):
                    inner = sigma(vec(c), sigma_norm)
                    if inner and sigma(inner, sigma_norm):
                        return False
        return True

    def check_simplicial():
        for n in range(1, 4):
            for m in range(3, 6):
                for c in enumerate_classes(n, m):
                    for i in range(1, m):
                        for j in range(i, m - 1):
                            lhs = merge_boundary(merge_boundary(c, i), j)
                            rhs = merge_boundary(merge_boundary(c, j + 1), i)
                            if GraphVector.from_class(lhs) != GraphVector.from_class(rhs):
                                return False
        return True

    def check_antipode():
        pool = [vec(c) for n in range(0, 3) for c in enumerate_classes(n, 2)]
        if antipode(vec(b1()), antipode_sign) != vec(b1()):
            return False
        for f in pool:
            if antipode(antipode(f, antipode_sign), antipode_sign) != f:
                return False
            for g in pool:
                lhs = antipode(compose(f, g), antipode_sign)
                rhs = compose(
                    antipode(f, antipode_sign), antipode(g, antipode_sign)
                )
                if lhs != rhs:
                    return False
        return True

    def check_lemma1():
        series = mc.solve(4, "none", sigma_norm)
        return all(mc.lemma1_identity(series, n) for n in range(0, 5))

    def check_kernel_consistency():
        alpha = PoissonStructure.standard_symplectic(2)
        fs = [Poly.parse("x1^2*x2", 2), Poly.parse("x1*x2", 2)]
        for n in range(0, 4):
            for c in enumerate_classes(n, 2):
                if c.graph.has_internal_landing() and evaluate(c, alpha, fs):
                    return False
        return True

    def check_merged_differential():
        from fractions import Fraction as F

        for n in range(1, 4):
            for c in enumerate_classes(n, 1):
                i = c.graph.in_degrees()[0]
                if homology.merged_differential_factor(c) != -(F(2) ** i - 2):
                    return False
        return True

    return {
        "delta-sum": check_delta_sum,
        "d2-regression": check_d2,
        "moyal": check_moyal,
        "sigma-contraction": check_sigma_contraction,
        "d-squared": check_d_squared,
        "sigma-squared": check_sigma_squared,
        "simplicial": check_simplicial,
        "antipode": check_antipode,
        "lemma1": check_lemma1,
        "kernel-consistency": check_kernel_consistency,
        "merged-differential": check_merged_differential,
    }


def cmd_selftest(args) -> int:
    _require("--n", args.n, 0)
    checks = _selftest_checks(args)
    if args.only:
        if args.only not in checks:
            raise _InputError("unknown check %r" % args.only)
        checks = {args.only: checks[args.only]}
    all_ok = True
    results = {}
    for name, fn in checks.items():
        ok = bool(fn())
        results[name] = ok
        all_ok = all_ok and ok
        if args.format != "json":
            print("%-20s %s" % (name, "pass" if ok else "FAIL"))
    if args.format == "json":
        print(json.dumps(results))
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


# -- argument parsing ------------------------------------------------------


def _add_common(p, fmt_default="text"):
    p.add_argument("--format", choices=("text", "json", "csv"), default=fmt_default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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

    for name, fn in (("compose", cmd_compose), ("bracket", cmd_bracket)):
        p = sub.add_parser(name, help="%s of two graph-vector literals" % name)
        p.add_argument("f")
        p.add_argument("g")
        _add_common(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("sigma", help="merger contraction of a graph vector")
    p.add_argument("f")
    p.add_argument("--sigma-norm", choices=("merger", "linear-alt"), default="merger")
    _add_common(p)
    p.set_defaults(fn=cmd_sigma)

    p = sub.add_parser("solve", help="iterate the deformation recursion")
    p.add_argument("order", type=int)
    p.add_argument("--projection", choices=mc.PROJECTIONS, default="none")
    p.add_argument("--poisson", default=None)
    p.add_argument("--sigma-norm", choices=("merger", "linear-alt"), default="merger")
    p.add_argument("--corpus-degree", type=int, default=3)
    p.add_argument("--corpus-limit", type=int, default=4)
    _add_common(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("defect", help="associativity defects of a solved series")
    p.add_argument("order", type=int)
    p.add_argument("--projection", choices=mc.PROJECTIONS, default="none")
    p.add_argument("--sigma-norm", choices=("merger", "linear-alt"), default="merger")
    _add_common(p)
    p.set_defaults(fn=cmd_defect)

    p = sub.add_parser("evaluate", help="Kontsevich-rule evaluation")
    p.add_argument("vector", help="graph-vector literal")
    p.add_argument("--poisson", required=True)
    p.add_argument("--functions", required=True, help="semicolon-separated polynomials")
    _add_common(p)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("homology", help="cohomology dimension table")
    p.add_argument("--n-max", type=int, default=2)
    p.add_argument("--m-max", type=int, default=2)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    _add_common(p)
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("selftest", help="run the invariant suite")
    p.add_argument("--only", default=None)
    p.add_argument("--n", type=int, default=20, help="bound for delta-sum")
    p.add_argument("--sigma-norm", choices=("merger", "linear-alt"), default="merger")
    p.add_argument(
        "--antipode-sign", choices=("reversal", "paper"), default="reversal"
    )
    _add_common(p)
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapExceeded as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CAP
    except GraphError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
