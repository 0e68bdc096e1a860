"""Command-line interface: outputs, determinism, and exit codes."""
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest

from graphdgla import algebra, checks, cli, kontsevich
from graphdgla.algebra import SigmaDomainError
from graphdgla.cli import (
    EXIT_CAP, EXIT_CHECK_FAILED, EXIT_INPUT, EXIT_INTERNAL, EXIT_OK, main,
)
from graphdgla.graphs import MAX_LITERAL_M, GraphError
from graphdgla.kontsevich import PoissonError, PoissonStructure, Poly

SO3_JSON = {
    "d": 3,
    "kind": "linear",
    "c": [
        {"i": 1, "j": 2, "k": 3, "val": "1"},
        {"i": 2, "j": 3, "k": 1, "val": "1"},
        {"i": 3, "j": 1, "k": 2, "val": "1"},
    ],
}

NINES = "9" * 5000

BIG_TERM = "%s * G{m=2; v1=(b1,b2)}" % ("7" * 3000)

SYMPLECTIC_JSON = {"d": 2, "kind": "constant", "alpha": [["0", "1"], ["-1", "0"]]}


@pytest.fixture
def so3_file(tmp_path):
    path = tmp_path / "so3.json"
    path.write_text(json.dumps(SO3_JSON))
    return str(path)


@pytest.fixture
def symplectic_file(tmp_path):
    path = tmp_path / "symplectic.json"
    path.write_text(json.dumps(SYMPLECTIC_JSON))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def linear_alt(n):
    """The refuted sigma normalization, -1/(2^{n-1} - 1) per term."""
    return Fraction(-1, 2 ** (n - 1) - 1)


class TestEnumerate:
    def test_0_2(self, capsys):
        code, out = run(capsys, "enumerate", "0", "2")
        assert code == EXIT_OK
        assert out.splitlines() == ["count: 1", "G{m=2;}"]

    def test_1_2(self, capsys):
        code, out = run(capsys, "enumerate", "1", "2")
        assert code == EXIT_OK
        assert out.splitlines() == ["count: 1", "G{m=2; v1=(b1,b2)}"]

    def test_1_3_count(self, capsys):
        code, out = run(capsys, "enumerate", "1", "3")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "count: 3"

    def test_cap_exit_code(self, capsys):
        code = main(["enumerate", "3", "3", "--cap", "10"])
        capsys.readouterr()
        assert code == EXIT_CAP

    def test_deterministic(self, capsys):
        _, first = run(capsys, "enumerate", "2", "3", "--format", "json")
        _, second = run(capsys, "enumerate", "2", "3", "--format", "json")
        assert first == second


class TestVectorCommands:
    def test_compose_d2(self, capsys):
        code, out = run(
            capsys, "compose", "G{m=2; v1=(b1,b2)}", "G{m=2; v1=(b1,b2)}"
        )
        assert code == EXIT_OK
        _, out2 = run(capsys, "bracket", "G{m=2; v1=(b1,b2)}", "G{m=2; v1=(b1,b2)}")
        assert out and out2

    def test_sigma(self, capsys):
        vector = "1 * G{m=3; v1=(b1,b3); v2=(b2,b3)}"  # c2R
        code, out = run(capsys, "sigma", vector)
        assert code == EXIT_OK
        assert out.strip() == "1/4 * G{m=2; v1=(b1,b2); v2=(b1,b2)}"

    def test_sigma_domain_error(self, capsys):
        code = main(["sigma", "1 * G{m=2; v1=(b1,b2)}"])
        capsys.readouterr()
        assert code == EXIT_INPUT

    def test_malformed_literal(self, capsys):
        code = main(["compose", "nonsense", "G{m=2; v1=(b1,b2)}"])
        capsys.readouterr()
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "literal, token",
        [
            ("1 * G{m=2; v1=(b1,b2); v2=(b3,b1)}", "'b3'"),
            ("1 * G{m=2; v1=(b1,b3); v2=(b2,b1)}", "'b3'"),
            ("1 * G{m=2; v1=(b1,v3); v2=(b2,b1)}", "'v3'"),
        ],
    )
    def test_target_past_range(self, capsys, literal, token):
        code = main(["compose", literal, "G{m=2;}"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert token in captured.err

    # canonicalize trusts its input, so an inadmissible graph must be
    # stopped where the literal is read
    @pytest.mark.parametrize(
        "literal, problem",
        [("G{m=2; v1=(v1,b1)}", "self-loop"), ("G{m=2; v1=(b1,b1)}", "double edge")],
        ids=["self-loop", "double-edge"],
    )
    @pytest.mark.parametrize("command", ["sigma", "compose", "evaluate"])
    def test_inadmissible_graph(self, capsys, symplectic_file, command, literal, problem):
        argv = {
            "sigma": ["sigma", literal],
            "compose": ["compose", literal, "G{m=2;}"],
            "evaluate": ["evaluate", literal, "--poisson", symplectic_file,
                         "--functions", "x1;x2"],
        }[command]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert problem in captured.err and "v1" in captured.err

    # lists sized by m would overflow or exhaust memory, and compose loops
    # over all m slots of its left factor
    @pytest.mark.parametrize("command", ["sigma", "compose-left", "compose-right", "evaluate"])
    def test_absurd_boundary_count(self, capsys, symplectic_file, command):
        m = "99999999999999999999"
        literal = "G{m=%s; v1=(b1,b2); v2=(b1,b2); v3=(b1,b2); v4=(b1,b2)}" % m
        argv = {
            "sigma": ["sigma", literal],
            "compose-left": ["compose", literal, "G{m=2;}"],
            "compose-right": ["compose", "G{m=2; v1=(b1,b2)}", literal],
            "evaluate": ["evaluate", literal, "--poisson", symplectic_file,
                         "--functions", "x1;x2"],
        }[command]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "m=%s" % m in captured.err

    def test_boundary_count_at_limit(self, capsys):
        literal = "G{m=%d;}" % MAX_LITERAL_M
        assert run(capsys, "compose", literal, "G{m=2;}") == (EXIT_OK, "0\n")

    def test_boundary_count_past_limit(self, capsys):
        code = main(["compose", "G{m=%d;}" % (MAX_LITERAL_M + 1), "G{m=2;}"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == "error: m=%d exceeds the limit of %d boundary vertices\n" % (
            MAX_LITERAL_M + 1, MAX_LITERAL_M)

    # int() converts at most sys.get_int_max_str_digits() digits (4,300 by
    # default); past that the error names the field, not Python's limit.
    # Python before 3.10.7 has no such limit, so int() never refuses.
    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit before Python 3.10.7")
    @pytest.mark.parametrize(
        "literal, field",
        [
            ("G{m=%s;}" % NINES, "m '9999999999...'"),
            ("G{m=2; v%s=(b1,b2)}" % NINES, "vertex label 'v999999999...'"),
            ("G{m=2; v1=(b1,v%s)}" % NINES, "target 'v999999999...'"),
            ("%s * G{m=2; v1=(b1,b2)}" % NINES, "coefficient '9999999999...'"),
        ],
        ids=["m", "vertex-label", "target", "coefficient"],
    )
    def test_number_past_int_digit_limit(self, capsys, literal, field):
        code = main(["sigma", literal])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == "error: %s has 5000 digits, more than a number may have\n" % field

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_value_equal_inputs_print_identical_bytes(self, capsys, fmt):
        # the same mixed-arity sum with its two terms given in either order
        outs = [run(capsys, "compose", f, "G{m=2; v1=(b1,b2)}", "--format", fmt)
                for f in ("G{m=2; v1=(b1,b2)} + G{m=3; v1=(b1,b2)}",
                          "G{m=3; v1=(b1,b2)} + G{m=2; v1=(b1,b2)}")]
        assert outs[0] == outs[1]
        assert outs[0][0] == EXIT_OK and "m=3" in outs[0][1] and "m=4" in outs[0][1]

    # every input number is within the digit limit; the exact result has a
    # coefficient of 6,000 digits or an exponent of 4,301, which str() refuses
    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit before Python 3.10.7")
    @pytest.mark.parametrize(
        "argv, digits",
        [
            (("compose", BIG_TERM, BIG_TERM), 6000),
            (("compose", BIG_TERM, BIG_TERM, "--format", "json"), 6000),
            (("evaluate", "G{m=2;}", "--functions", "x1^%s;x1^%s" % (("9" * 4300,) * 2)), 4301),
        ],
        ids=["text", "json", "evaluate-exponent"],
    )
    def test_result_number_past_int_digit_limit(self, capsys, symplectic_file, argv, digits):
        if argv[0] == "evaluate":
            argv += ("--poisson", symplectic_file)
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_CAP and captured.out == ""
        assert captured.err == (
            "error: a number of the result has %d digits, more than the %d"
            " that can be printed\n" % (digits, sys.get_int_max_str_digits()))


class TestSolve:
    def test_constant_exit_ok(self, capsys):
        code, out = run(capsys, "solve", "4", "--projection", "constant",
                        "--format", "json")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["moyal_ok"] is True
        assert [r["n"] for r in report["orders"]] == [2, 3, 4]
        assert all(r["lemma1_identity"] for r in report["orders"])

    def test_trivial_order(self, capsys):
        code, out = run(capsys, "solve", "1", "--projection", "constant",
                        "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["orders"] == []

    def test_linear_with_poisson_report_only(self, capsys, so3_file):
        code, out = run(capsys, "solve", "2", "--projection", "linear",
                        "--poisson", so3_file, "--format", "json")
        assert code == EXIT_OK  # conjecture data never fails the run
        report = json.loads(out)
        assert "evaluated_defect" in report

    @pytest.mark.parametrize("order, count", [("1", 0), ("2", 12)])
    def test_nonzero_triples_counts_triples(self, capsys, so3_file, order, count):
        # of the 64 corpus triples (1, x1, x2, x3 in each slot), 12
        # have a nonzero order-2 associativity defect on so(3)
        code, out = run(capsys, "solve", order, "--projection", "linear",
                        "--poisson", so3_file, "--format", "json")
        assert code == EXIT_OK
        evaluated = json.loads(out)["evaluated_defect"]
        assert evaluated["nonzero_triples"] == count
        assert (evaluated["sample"] is None) == (count == 0)

    @pytest.mark.parametrize(
        "d, corpus",
        [
            (1, ["1", "x1", "x1^2", "x1^3"]),
            (2, ["1", "x2", "x1", "x2^2"]),
            (3, ["1", "x3", "x2", "x1"]),
            (5, ["1", "x5", "x4", "x3"]),  # x1 and x2 are never drawn
        ],
    )
    def test_poisson_corpus(self, capsys, tmp_path, monkeypatch, d, corpus):
        # the corpus README states: the first four monomials of iter_monomials
        seen = []
        monkeypatch.setattr(cli, "associativity_defect",
                            lambda series, alpha, *uvw: seen.append(tuple(map(str, uvw))) or [])
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"d": d, "kind": "linear", "c": []}))
        code, _ = run(capsys, "solve", "1", "--poisson", str(path))
        assert code == EXIT_OK
        assert seen == list(itertools.product(corpus, repeat=3))

    def test_negative_control(self, capsys, monkeypatch):
        # the wrong sigma normalization must break the Moyal identity
        monkeypatch.setattr(algebra, "sigma_normalization", linear_alt)
        for fmt in ("text", "json"):
            code, out = run(capsys, "solve", "4", "--projection", "constant",
                            "--format", fmt)
            assert code == EXIT_CHECK_FAILED
        assert json.loads(out)["moyal_ok"] is False

    def test_bad_poisson_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["solve", "2", "--projection", "linear",
                     "--poisson", str(bad)])
        capsys.readouterr()
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "argv",
        [
            ("solve", "0"),
            ("solve", "-1"),
            ("defect", "0"),
            ("defect", "-1"),
            ("homology", "--n-max", "-1"),
            ("homology", "--m-max", "-1"),
            ("enumerate", "1", "2", "--max-in-degree", "-1"),
            ("homology", "--n-max", "-2", "--m-max", "2"),
            ("enumerate", "2", "2", "--cap", "0"),
            ("homology", "--cap", "-7", "--n-max", "0", "--m-max", "2"),
        ],
    )
    def test_bad_order(self, capsys, argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        flag = next((a for a in argv if a.startswith("--")), "order")
        assert flag in captured.err

    @pytest.mark.parametrize(
        "obj",
        [
            {"d": 3, "kind": "linear", "c": [{"i": 1, "j": 2, "k": 4, "val": "1"}]},
            {"d": 3, "kind": "linear", "c": [{"i": 0, "j": 2, "k": 3, "val": "1"}]},
            {"d": 5, "kind": "constant", "alpha": [["0", "1"], ["-1", "0"]]},
        ],
    )
    def test_inconsistent_poisson_file(self, capsys, tmp_path, obj):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code = main(["solve", "1", "--poisson", str(bad)])
        err = capsys.readouterr().err
        assert code == EXIT_INPUT
        assert err.startswith("error: bad Poisson file") and err.count("\n") == 1

    def test_byte_stable(self, capsys):
        _, first = run(capsys, "solve", "3", "--projection", "constant",
                       "--format", "json")
        _, second = run(capsys, "solve", "3", "--projection", "constant",
                        "--format", "json")
        assert first == second


class TestEvaluate:
    def test_poisson_bracket(self, capsys, symplectic_file):
        code, out = run(capsys, "evaluate", "1 * G{m=2; v1=(b1,b2)}",
                        "--poisson", symplectic_file, "--functions", "x1;x2")
        assert code == EXIT_OK
        assert out.strip() == "1"

    def test_missing_file(self, capsys):
        code = main(["evaluate", "1 * G{m=2; v1=(b1,b2)}",
                     "--poisson", "/nonexistent.json", "--functions", "x1;x2"])
        capsys.readouterr()
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "obj, detail",
        [
            ({"d": 3, "kind": "linear", "c": [
                {"i": 1, "j": 2, "k": 3, "val": 1},
                {"i": 2, "j": 1, "k": 3, "val": 1},
            ]}, "entries c[0] and c[1] conflict"),
            ({"d": 3, "kind": "linear", "c": [
                {"i": 1, "j": 2, "k": 3, "val": 1},
                {"i": 1, "j": 2, "k": 3, "val": 2},
            ]}, "entries c[0] and c[1] conflict"),
            ({"d": 2.7, "kind": "constant", "alpha": [["0", "1"], ["-1", "0"]]},
             '"d" must be an integer'),
            ({"d": True, "kind": "constant", "alpha": [["0"]]}, '"d" must be an integer'),
            ({"d": 3, "kind": "linear", "c": [{"i": 2.9, "j": True, "k": "3", "val": 1}]},
             'entry c[0]: index "i" must be an integer, got 2.9'),
            ({"d": 2, "kind": "constant", "alpha": ["00", "00"]},
             '"alpha"[0] must be an array'),
            ({"d": 3, "kind": "linear", "c": "ab"}, '"c" must be an array'),
            ({"d": 3, "kind": "linear", "c": {"i": 1}}, '"c" must be an array'),
            ({"d": 3, "kind": "linear", "c": [7]}, "entry c[0] must be an object"),
            ([1, 2], "the top level must be an object"),
            ({"d": 2, "kind": "constant", "alpha": [[0, True], [-1, 0]]},
             '"alpha"[0][1] must be a number or numeric string, got true'),
            ({"d": 3, "kind": "linear", "c": [{"i": 1, "j": 2, "k": 3, "val": None}]},
             'entry c[0]: "val" must be a number or numeric string, got null'),
            ({"d": 3, "kind": "linear", "c": [{"i": 1, "j": 2, "k": 3, "val": [1]}]},
             'entry c[0]: "val" must be a number or numeric string, got [1]'),
            ({"d": 2, "kind": "constant", "alpha": [[0, 1], [-1]]},
             '"alpha"[1] has 1 entries but "d" is 2'),
            ({"d": 2, "kind": "constant", "alpha": [[1, 1], [-1, 0]]}, '"alpha"[0][0]'),
            ({"d": 3, "kind": "linear", "c": [{"i": 1, "j": 1, "k": 2, "val": 1}]},
             'entry c[0]: "i" = "j" needs "val" 0'),
            ({"d": 3, "kind": "linear", "c": [{"i": 1, "j": 2, "val": 1}]},
             'entry c[0]: missing "k"'),
            ({"d": 3, "kind": "linear", "c": [{"i": 1, "j": 2, "k": 3}]},
             'entry c[0]: missing "val"'),
            ({"d": 3, "kind": "linear"}, 'the top level: missing "c"'),
            ({"kind": "linear", "c": []}, 'the top level: missing "d"'),
            pytest.param(  # quoted as written, not as the float 1.2345678901234568e+29
                '{"d": 123456789012345678901234567890.5, "kind": "constant", "alpha": []}',
                '"d" must be an integer, got 123456789012345678901234567890.5',
                id="big-float-d",
            ),
            pytest.param('{"d": 1e1, "kind": "constant", "alpha": []}',
                         '"d" must be an integer, got 1e1', id="exponent-d"),
            pytest.param(  # not Infinity
                '{"d": 3, "kind": "linear", "c": [{"i": 1, "j": 1, "k": 2, "val": 1e400}]}',
                'entry c[0]: "i" = "j" needs "val" 0, got 1e400',
                id="overflowing-val",
            ),
            pytest.param(  # the text of the file, read exactly: not 0.3 as a float
                '{"d": 2, "kind": "constant", "alpha": [[0, 0.30000000000000001], [-0.3, 0]]}',
                '"alpha"[0][1] = 30000000000000001/100000000000000000 must be the negative'
                ' of "alpha"[1][0] = -3/10',
                id="inexact-float-literal",
            ),
            pytest.param(  # nested numbers too: not [Infinity, 2.5]
                '{"d": 3, "kind": "linear",'
                ' "c": [{"i": 1, "j": 2, "k": 3, "val": [1e400, 2.50]}]}',
                'entry c[0]: "val" must be a number or numeric string, got [1e400, 2.50]',
                id="nested-array-val",
            ),
            pytest.param('{"d": 2, "kind": "constant", "alpha": [[0, {"a": 1e400}], [0, 0]]}',
                         '"alpha"[0][1] must be a number or numeric string, got {"a": 1e400}',
                         id="nested-object-alpha"),
            pytest.param('{"d": 2, "kind": 1e400}', "unknown kind 1e400\n", id="number-kind"),
            pytest.param('{"d": 2, "kind": ["constant", 2.50]}',
                         'unknown kind ["constant", 2.50]\n', id="array-kind"),
            pytest.param({"d": 2, "kind": "foo"}, 'unknown kind "foo"\n', id="string-kind"),
        ],
    )
    def test_contradictory_poisson_file(self, capsys, tmp_path, obj, detail):
        bad = tmp_path / "bad.json"
        bad.write_text(obj if isinstance(obj, str) else json.dumps(obj))
        code = main(["evaluate", "1 * G{m=2; v1=(b1,b2)}",
                     "--poisson", str(bad), "--functions", "x1;x2"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err.startswith("error: bad Poisson file %s: " % bad)
        assert detail in captured.err and captured.err.count("\n") == 1


    @pytest.mark.parametrize("functions", ["x1;x2", "x1;x2;x1"])
    def test_mixed_arity_vector(self, capsys, symplectic_file, functions):
        # no number of functions fits a vector with terms of two arities
        code = main(["evaluate", "G{m=2; v1=(b1,b2)} + G{m=3; v1=(b1,b2)}",
                     "--poisson", symplectic_file, "--functions", functions])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == (
            "error: evaluation requires an m-homogeneous vector, got m = 2, 3\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit before Python 3.10.7")
    @pytest.mark.parametrize(
        "functions, field",
        [
            ("%s*x1;x2" % NINES, "coefficient '9999999999...'"),
            ("x1;x%s" % NINES, "variable index 'x999999999...'"),
            ("x1^%s;x2" % NINES, "exponent '9999999999...'"),
        ],
        ids=["coefficient", "variable-index", "exponent"],
    )
    def test_function_number_past_int_digit_limit(
            self, capsys, symplectic_file, functions, field):
        code = main(["evaluate", "G{m=2; v1=(b1,b2)}",
                     "--poisson", symplectic_file, "--functions", functions])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == "error: %s has 5000 digits, more than a number may have\n" % field

    # json.load converts a JSON integer before any field is checked, so one
    # past int()'s digit limit is kept as text for its field to refuse
    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="int() has no digit limit before Python 3.10.7")
    @pytest.mark.parametrize(
        "obj, field",
        [
            ('{"d": %s, "kind": "constant", "alpha": []}' % NINES, '"d"'),
            *(('{"d": 3, "kind": "linear", "c": [{"%s": %s, %s, "val": 1}]}'
               % (name, NINES, ", ".join('"%s": 1' % o for o in "ijk" if o != name)),
               'entry c[0]: index "%s"' % name) for name in "ijk"),
            ('{"d": 3, "kind": "linear", "c": [{"i": 1, "j": 2, "k": 3, "val": %s}]}' % NINES,
             'entry c[0]: "val"'),
            ('{"d": 2, "kind": "constant", "alpha": [[0, "%s"], [0, 0]]}' % NINES,
             '"alpha"[0][1]'),
            ('{"d": 3, "kind": "linear", "c": [{"i": 1, "j": 2, "k": 3, "val": "%s"}]}' % NINES,
             'entry c[0]: "val"'),
        ],
        ids=["d", "i", "j", "k", "val", "alpha-string", "val-string"],
    )
    def test_poisson_file_number_past_int_digit_limit(self, capsys, tmp_path, obj, field):
        path = tmp_path / "p.json"
        path.write_text(obj)
        code = main(["evaluate", "G{m=2; v1=(b1,b2)}",
                     "--poisson", str(path), "--functions", "x1;x2"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == (
            "error: bad Poisson file %s: %s '9999999999...' has 5000 digits,"
            " more than a number may have\n" % (path, field))

    def test_poisson_file_numbers_read_exactly(self, capsys, tmp_path):
        # a float would round alpha^{12} to 123456789012345680000000000000
        path = tmp_path / "big.json"
        path.write_text('{"d": 2, "kind": "constant", "alpha": [[0, 123456789012345678901234567890.5],'
                        ' [-123456789012345678901234567890.5, 0]]}')
        code, out = run(capsys, "evaluate", "G{m=2; v1=(b1,b2)}",
                        "--poisson", str(path), "--functions", "x1;x2")
        assert code == EXIT_OK
        assert out == "246913578024691357802469135781/2\n"

    @pytest.mark.parametrize(
        "data, problem",
        [
            (b'\xff\xfe{"d": 2}', "not UTF-8 at byte 0"),
            (b'{"d": 2, "kind": "\xe9"}', "not UTF-8 at byte 18"),
            (b"[" * 100000 + b"]" * 100000, "nested too deeply"),
        ],
        ids=["utf-16-bom", "latin-1", "nested"],
    )
    def test_unreadable_poisson_file(self, capsys, tmp_path, data, problem):
        path = tmp_path / "p.json"
        path.write_bytes(data)
        code = main(["evaluate", "G{m=2; v1=(b1,b2)}",
                     "--poisson", str(path), "--functions", "x1;x2"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == "error: bad Poisson file %s: invalid JSON: %s\n" % (path, problem)

    @pytest.mark.parametrize("d", [10**100, 10**9], ids=["googol", "billion"])
    def test_poisson_file_d_past_limit(self, capsys, tmp_path, d):
        # refused where it is read: [0] * d would overflow, or allocate gigabytes
        path = tmp_path / "p.json"
        path.write_text('{"d": %d, "kind": "linear", "c": []}' % d)
        tracemalloc.start()
        try:
            code = main(["evaluate", "G{m=2; v1=(b1,b2)}",
                         "--poisson", str(path), "--functions", "x1;x2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == 'error: bad Poisson file %s: "d" must be <= %d, got %d\n' % (
            path, kontsevich.MAX_POISSON_D, d)
        assert peak < 10**7

    def test_poisson_file_d_at_limit(self):
        obj = {"d": kontsevich.MAX_POISSON_D, "kind": "linear", "c": []}
        assert PoissonStructure.from_json_obj(obj).d == kontsevich.MAX_POISSON_D

    @pytest.mark.parametrize(
        "template, detail",
        [
            ('{"d": 3, "kind": %s}', "unknown kind "),
            ('{"d": 3, "kind": "linear", "c": [{"i": 1, "j": 2, "k": 3, "val": %s}]}',
             'entry c[0]: "val" must be a number or numeric string, got '),
        ],
        ids=["kind", "val"],
    )
    def test_poisson_value_nested_deeply(self, capsys, tmp_path, template, detail):
        # json.load accepts the nesting; the message echoes only its start
        path = tmp_path / "p.json"
        path.write_text(template % ("[" * 900 + "]" * 900))
        code = main(["evaluate", "G{m=2; v1=(b1,b2)}",
                     "--poisson", str(path), "--functions", "x1;x2"])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT and captured.out == ""
        assert captured.err == "error: bad Poisson file %s: %s%s...\n" % (
            path, detail, "[" * kontsevich._QUOTE_MAX)


def test_benchmark_tracer_binds_every_traced_name():
    # benchmark/tracing.py wraps named functions of graphdgla and raises on a
    # name that is gone, which would break the traced benchmark run
    code = (
        'import sys; sys.path[:0] = ["benchmark", "src"]; import tracing; '
        "tracing.install(tracing.Tracer())"
    )
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_internal_error_exit_code(capsys, monkeypatch):
    # a fault of the engine is neither a failed check (1) nor a traceback
    def crash(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_solve", crash)
    code = main(["solve", "2"])
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL and captured.out == ""
    assert captured.err == "internal error: RuntimeError('boom')\n"
    assert EXIT_INTERNAL not in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_INPUT, EXIT_CAP)


def _fault(exc):
    def raises(*args, **kwargs):
        raise exc
    return raises


@pytest.mark.parametrize(
    "owner, name, exc, argv, poisson",
    [
        (kontsevich, "_mul", ValueError("engine bug"),
         ("evaluate", "G{m=2; v1=(b1,b2)}", "--functions", "x1;x2"), SYMPLECTIC_JSON),
        (algebra, "canonicalize", ValueError("engine bug"),
         ("sigma", "G{m=3; v1=(b1,b3); v2=(b2,b3)}"), None),
        (PoissonStructure, "linear", TypeError("engine bug"),
         ("evaluate", "G{m=2; v1=(b1,b2)}", "--functions", "x1;x2"), SO3_JSON),
    ],
    ids=["poly-mul", "canonicalize", "poisson-linear"],
)
def test_engine_fault_is_not_input_error(capsys, tmp_path, monkeypatch, owner, name, exc,
                                         argv, poisson):
    # a ValueError or TypeError of the engine is its own fault: only an input
    # check, which raises GraphError, makes exit code 2
    if poisson is not None:
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(poisson))
        argv = (*argv, "--poisson", str(path))
    monkeypatch.setattr(owner, name, _fault(exc))
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_INTERNAL and captured.out == ""
    assert captured.err.startswith("internal error: ") and captured.err.count("\n") == 1


def test_one_input_error_type():
    assert issubclass(PoissonError, GraphError) and issubclass(SigmaDomainError, GraphError)
    with pytest.raises(GraphError):
        Poly.parse("2x1", 2)


@pytest.mark.parametrize(
    "argv, poisson",
    [
        (("sigma", "1/0 * G{m=3; v1=(b1,b3); v2=(b2,b3)}"), None),
        (("compose", "1/0 * G{m=2; v1=(b1,b2)}", "G{m=2;}"), None),
        (("--functions", "1/0*x1;x2"), SYMPLECTIC_JSON),
        (("--functions", "x1;x2"),
         {"d": 2, "kind": "constant", "alpha": [["0", "1"], ["-1/0", "0"]]}),
        (("--functions", "x1;x2"),
         {"d": 3, "kind": "linear", "c": [{"i": 1, "j": 2, "k": 3, "val": "1/0"}]}),
    ],
)
def test_zero_denominator(capsys, tmp_path, argv, poisson):
    if poisson is not None:  # evaluate b1 with this structure
        path = tmp_path / "alpha.json"
        path.write_text(json.dumps(poisson))
        argv = ("evaluate", "G{m=2; v1=(b1,b2)}", "--poisson", str(path), *argv)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == EXIT_INPUT and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "zero denominator" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "1", "2", "--format", "csv"),
        ("compose", "G{m=2;}", "G{m=2;}", "--format", "csv"),
        ("bracket", "G{m=2;}", "G{m=2;}", "--format", "csv"),
        ("sigma", "G{m=3; v1=(b1,b3); v2=(b2,b3)}", "--format", "csv"),
        ("solve", "2", "--format", "csv"),
        ("defect", "2", "--format", "csv"),
        ("selftest", "--only", "delta-sum", "--format", "csv"),
        *(
            ("evaluate", "G{m=2;}", "--poisson", "p.json", "--functions", "x1;x2",
             "--format", fmt)
            for fmt in ("text", "json", "csv")
        ),
    ],
)
def test_format_offers_only_what_is_printed(capsys, argv):
    # only homology writes CSV, and evaluate prints one polynomial
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert info.value.code == EXIT_INPUT and captured.out == ""
    assert "--format" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("solve", "abc"),
        ("solve", "2", "--projection", "foo"),
        ("solve", "2", "--bogus"),
        ("solve", "2", "--corpus-degree", "3"),
        ("enumerate", "2"),
        # the sigma normalization and the antipode sign are fixed, not options
        ("solve", "2", "--sigma-norm", "merger"),
        ("selftest", "--antipode-sign", "reversal"),
        # delta-sum's bound is fixed too
        ("selftest", "--n", "7"),
    ],
)
def test_malformed_command_line(capsys, argv):
    # one error line and no usage block, as for any other input error
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert info.value.code == EXIT_INPUT and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestHomology:
    def test_csv_table(self, capsys):
        code, out = run(capsys, "homology", "--n-max", "1", "--m-max", "2",
                        "--format", "csv")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n,m,classes,dim_Z,dim_B,dim_H"
        assert "1,2,1,1,0,1" in lines

    @pytest.mark.parametrize(
        "argv", [("--n-max", "-1"), ("--m-max", "-1"), ("--m-max", "0")]
    )
    def test_rejects_empty_range(self, capsys, argv):
        code = main(["homology", *argv])
        captured = capsys.readouterr()
        assert code == EXIT_INPUT
        assert captured.out == "" and captured.err.startswith("error: ")


SELFTEST_NAMES = [
    "delta-sum",
    "d2-regression",
    "moyal",
    "sigma-contraction",
    "d-squared",
    "sigma-squared",
    "simplicial",
    "antipode",
    "lemma1",
    "kernel-consistency",
    "merged-differential",
]


class TestSelftest:
    def test_fresh_checkout_passes(self, capsys):
        code, out = run(capsys, "selftest", "--format", "json")
        assert code == EXIT_OK
        assert all(json.loads(out).values())
        assert list(json.loads(out)) == SELFTEST_NAMES

    def test_paper_antipode_sign_fails(self, capsys, monkeypatch):
        # a check that fails exits 1 in either format: the antipode check
        # with the refuted sign (-1)^m, which sends b1 to -b1
        def paper_sign(m):
            return -1 if m % 2 else 1

        def antipode_with_paper_sign():
            monkeypatch.setattr(algebra, "antipode_sign", paper_sign)
            return checks.antipode_morphism()

        monkeypatch.setitem(checks.CHECKS, "antipode", antipode_with_paper_sign)
        code, out = run(capsys, "selftest", "--only", "antipode")
        assert code == EXIT_CHECK_FAILED and out.split() == ["antipode", "FAIL"]
        code, out = run(capsys, "selftest", "--only", "antipode", "--format", "json")
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out) == {"antipode": False}

    def test_only_delta_sum(self, capsys):
        code, _ = run(capsys, "selftest", "--only", "delta-sum")
        assert code == EXIT_OK

    def test_unknown_check(self, capsys):
        code = main(["selftest", "--only", "no-such-check"])
        capsys.readouterr()
        assert code == EXIT_INPUT

    def test_corrupted_normalization_fails(self, capsys, monkeypatch):
        def moyal_with_linear_alt():
            monkeypatch.setattr(algebra, "sigma_normalization", linear_alt)
            return checks.moyal()

        monkeypatch.setitem(checks.CHECKS, "moyal", moyal_with_linear_alt)
        code, out = run(capsys, "selftest", "--only", "moyal")
        assert code == EXIT_CHECK_FAILED and out.split() == ["moyal", "FAIL"]
        code, out = run(capsys, "selftest", "--only", "moyal", "--format", "json")
        assert code == EXIT_CHECK_FAILED
        assert json.loads(out) == {"moyal": False}
