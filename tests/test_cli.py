"""Command-line interface: exit codes, outputs, artifact validity."""

import argparse
import json
import os
import re
import subprocess
import sys
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import pytest

import diskmerge
from diskmerge import cli
from diskmerge.cli import generate_random, run
from diskmerge.core import (Assignment, Disk, FormatError, Instance, Point,
                            VerificationReport)
from diskmerge.fixtures import relaxed_only_instance, single_positive_clause
from diskmerge.formula import (Clause, MonotoneFormula, Polarity,
                               RectilinearRep, validate_rep)
from diskmerge.gadgets import GadgetKind, Pose, build_gadget, pose_at
from diskmerge.serialization import (instance_metadata, parse_formula,
                                     parse_instance, parse_rep,
                                     serialize_assignment, serialize_formula,
                                     serialize_instance, serialize_rep)
from diskmerge.solvers import collinearity_check
from diskmerge.transforms import equalize_radii


@pytest.fixture
def paths(tmp_path):
    return tmp_path


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class _One(IntEnum):
    ONE = 1


def _positive(num_variables, *literals):
    return MonotoneFormula(num_variables, tuple(
        Clause(Polarity.POSITIVE, lits) for lits in literals))


# input errors and their messages; a list is a CLI argv, in which
# "INSTANCE" stands for an empty instance file and "MISSING" for a path
# that does not exist, and must exit 1 with the message as its one stderr
# line
INPUT_ERRORS = [
    pytest.param(lambda: MonotoneFormula(-1, ()),
                 "negative variable count", id="negative-variables"),
    pytest.param(lambda: validate_rep(
        _positive(1, (1,)), RectilinearRep(((3, 1),), (1,), ((2,),))),
        "bad variable segment (3,1)", id="reversed-segment"),
    pytest.param(lambda: validate_rep(
        _positive(1, (1,)), RectilinearRep(((0, 5),), (1,), ((1, 2),))),
        "clause 0: one leg per literal required", id="leg-count"),
    pytest.param(lambda: validate_rep(
        _positive(1, (1,), (1,)),
        RectilinearRep(((0, 5),), (1, 2), ((3,), (3,)))),
        "leg columns must be distinct", id="shared-leg-column"),
    pytest.param(lambda: parse_instance("[]"),
                 "instance document must be an object", id="instance-array"),
    pytest.param(lambda: instance_metadata(
        '{"version":1,"disks":[],"metadata":[]}'),
        "metadata must be an object", id="metadata-array"),
    pytest.param(lambda: parse_formula(
        '{"version":1,"variables":"2","clauses":[]}'),
        "formula document needs integer 'variables'", id="variables-string"),
    pytest.param(lambda: parse_formula(
        '{"version":1,"variables":1,"clauses":[1]}'),
        "each clause must be an object", id="clause-number"),
    pytest.param(lambda: parse_rep('{"version":1}'),
                 "drawing document needs a 'segments' list",
                 id="no-segments"),
    pytest.param(lambda: parse_rep('{"version":1,"segments":[[0]]}'),
                 "each variable segment needs [lo, hi]", id="short-segment"),
    pytest.param(lambda: parse_rep('{"version":1,"segments":[[0,"1"]]}'),
                 "variable segment must be a list of integers",
                 id="string-segment-end"),
    pytest.param(lambda: parse_rep(
        '{"version":1,"segments":[[0,1]],"rows":[1]}'),
        "drawing document needs a 'legs' list", id="no-legs"),
    pytest.param(lambda: parse_formula('{"version":1,"variables":1}'),
                 "formula document needs a 'clauses' list", id="no-clauses"),
    pytest.param(lambda: validate_rep(
        _positive(2, (1,)), RectilinearRep(((0, 5),), (1,), ((1,),))),
        "one segment per variable required", id="segment-count"),
    pytest.param(lambda: validate_rep(
        _positive(1, (1,)), RectilinearRep(((0, 5),), (1, 2), ((1,),))),
        "one row and leg list per clause required", id="row-count"),
    pytest.param(lambda: build_gadget(GadgetKind.COPY4, Pose(),
                                      drop_ports={"a"}),
                 "cannot drop ports ['a'] of copy4", id="undroppable-port"),
    pytest.param(lambda: build_gadget(GadgetKind.DISJUNCTION, Pose(),
                                      drop_ports={"w", "s", "e"}),
                 "disjunction needs at least one port", id="portless-or"),
    pytest.param(lambda: build_gadget(GadgetKind.COPY4, Pose(),
                                      with_absorber=True),
                 "only the input gadget takes an absorber",
                 id="copy-absorber"),
    pytest.param(lambda: equalize_radii(Instance(()), Fraction(0)),
                 "target radius must be positive", id="zero-radius"),
    pytest.param(lambda: equalize_radii(Instance(()), 0.5),
                 "target radius must be an exact rational, got 0.5",
                 id="float-radius"),
    pytest.param(lambda: Instance([Disk(1, Point(0.1, 0), 1)]),
                 "not an int id with exact values: "
                 "Disk(id=1, center=Point(x=0.1, y=0), radius=1)",
                 id="float-coordinate"),
    pytest.param(lambda: pose_at(0.1, 0),
                 "not an int matrix and an exact offset: (1, 0, 0, 1), "
                 "Point(x=0.1, y=0)", id="float-offset"),
    pytest.param(lambda: Clause(Polarity.POSITIVE, (1.0,)),
                 "clause literals must be ints, got (1.0,)",
                 id="float-literal"),
    pytest.param(lambda: Assignment((2,)),
                 "assignment target 2 out of range 1..1",
                 id="target-out-of-range"),
    # keys and targets are ints by type, as instance ids are: these all
    # equal 1
    pytest.param(lambda: Assignment({True: 1}),
                 "assignment keys must be exactly 1..n", id="bool-key"),
    pytest.param(lambda: Assignment({1.0: 1}),
                 "assignment keys must be exactly 1..n", id="float-key"),
    pytest.param(lambda: Assignment({Fraction(1): 1}),
                 "assignment keys must be exactly 1..n", id="fraction-key"),
    pytest.param(lambda: Assignment((_One.ONE,)),
                 "assignment target <_One.ONE: 1> is not an int",
                 id="int-enum-target"),
    # one past the size limit, so that a build without it stays in memory
    pytest.param(lambda: equalize_radii(
        Instance([Disk(1, Point(0, 0), 1_000_001)]), 1),
        "equal radius 1 makes 1000001 disks, more than 1000000",
        id="equalize-too-many-disks"),
    pytest.param(lambda: generate_random(3, "cube", 0),
                 "unknown profile 'cube'", id="unknown-profile"),
    pytest.param(["solve", "--collinear", "--relaxed", "INSTANCE"],
                 "--relaxed requires --exact", id="cli-collinear-relaxed"),
    pytest.param(["solve", "--collinear", "--relaxed", "MISSING"],
                 "--relaxed requires --exact",
                 id="cli-collinear-relaxed-missing-file"),
    pytest.param(["gen", "--n", "-1"], "n must be non-negative",
                 id="cli-negative-n"),
    # refused before a list of n entries is made
    pytest.param(["gen", "--n", "1000000000000"], "n must be at most 1000000",
                 id="cli-huge-n"),
    pytest.param(["solve", "--collinear", "SCALED"],
                 "the common denominator of the values has at least 1025 "
                 "bits, more than 1024", id="cli-scale-over-cap"),
]

# three disks whose co-prime denominators make an L of 1025 bits
SCALED_DOCUMENT = json.dumps({"version": 1, "disks": [
    {"id": i + 1, "x": str(i), "y": "0", "r": f"1/{q}"}
    for i, q in enumerate((3 ** 200, 5 ** 150, 7 ** 128))]})


@pytest.mark.parametrize("source, message", INPUT_ERRORS)
def test_input_error_message(paths, capsys, source, message):
    if isinstance(source, list):
        files = {"INSTANCE": write(paths / "in.json",
                                   serialize_instance(Instance(()))),
                 "MISSING": str(paths / "missing.json"),
                 "SCALED": write(paths / "scaled.json", SCALED_DOCUMENT)}
        assert run([files.get(a, a) for a in source]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    else:
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            source()


class TestReprAndHash:
    def test_value_methods(self):
        assert bool(VerificationReport(True, 0)) is True
        assert bool(VerificationReport(False, 0, ["x"])) is False
        assert hash(Assignment((1, 1))) == hash(Assignment({1: 1, 2: 1}))
        assert repr(Assignment((1, 1))) == "Assignment((1, 1))"
        assert repr(Instance(())) == "Instance(n=0)"


class TestGenerateRandom:
    def test_deterministic(self):
        a = generate_random(6, "collinear", 42)
        b = generate_random(6, "collinear", 42)
        assert serialize_instance(a) == serialize_instance(b)

    def test_collinear_profile(self):
        inst = generate_random(7, "collinear", 1)
        assert collinearity_check(inst) is not None

    def test_empty(self):
        assert generate_random(0, "planar", 0).n == 0


class TestSolveAndVerify:
    def test_solve_collinear_writes_valid_assignment(self, paths, capsys):
        inp = write(paths / "in.json",
                    serialize_instance(generate_random(5, "collinear", 3)))
        out = str(paths / "phi.json")
        assert run(["solve", "--collinear", inp, "-o", out]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "FEASIBLE"
        assert run(["verify", inp, out]) == 0

    def test_solve_exact_relaxed(self, paths, capsys):
        inp = write(paths / "in.json",
                    serialize_instance(generate_random(4, "planar", 5)))
        assert run(["solve", "--exact", "--relaxed", inp]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert "target" in summary or summary["status"] == "INFEASIBLE"

    def test_infeasible_is_exit_zero(self, paths, capsys):
        inp = write(paths / "in.json",
                    serialize_instance(relaxed_only_instance()))
        assert run(["solve", "--exact", inp]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "INFEASIBLE"

    def test_verify_failure_exit_two(self, paths, capsys):
        inp = write(paths / "in.json",
                    serialize_instance(generate_random(2, "collinear", 8)))
        bad = write(paths / "phi.json",
                    serialize_assignment(Assignment((1, 1))))
        code = run(["verify", inp, bad])
        out = json.loads(capsys.readouterr().out)
        assert (code == 0) == out["ok"]
        if code:
            assert code == 2

    def test_collinear_on_planar_is_input_error(self, paths, capsys):
        doc = ('{"version":1,"disks":['
               '{"id":1,"x":"0","y":"0","r":"1"},'
               '{"id":2,"x":"9","y":"0","r":"1"},'
               '{"id":3,"x":"0","y":"9","r":"1"}]}')
        inp = write(paths / "in.json", doc)
        assert run(["solve", "--collinear", inp]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: instance is not collinear\n"

    def test_max_n_guard(self, paths, capsys):
        inp = write(paths / "in.json",
                    serialize_instance(generate_random(5, "collinear", 3)))
        assert run(["solve", "--exact", "--max-n", "3", inp]) == 1
        # the default limit is the oracles' own
        big = write(paths / "big.json",
                    serialize_instance(generate_random(10, "planar", 1)))
        capsys.readouterr()
        assert run(["solve", "--exact", big]) == 1
        assert capsys.readouterr().err == \
            "error: instance size 10 exceeds oracle limit 9\n"
        assert run(["solve", "--exact", "--max-n", "10", big]) == 0

    def test_exact_recursion_depth_is_input_error(self, paths, capsys):
        # far-apart disks: the search nests one call per disk
        far = write(paths / "far.json", serialize_instance(Instance(
            [Disk(i, Point(10 * i, 0), 1) for i in range(1, 1001)])))
        assert run(["solve", "--exact", "--max-n", "1000", far]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: instance size 1000 exceeds the "
                                "exact search's recursion depth\n")


class TestReduceCommands:
    def test_reduce_partition(self, paths, capsys):
        out = str(paths / "out.json")
        assert run(["reduce", "partition", "--values", "1,1",
                    "--e", "1/2", "-o", out]) == 0
        inst = parse_instance(Path(out).read_text(encoding="utf-8"))
        assert inst.n == 6
        assert inst.radius(1) == 4  # 2s with s = 2

    def test_reduce_partition_bad_values(self, paths, capsys):
        # int() would strip the space or newline, drop the underscore,
        # read the Arabic-Indic digit and accept the sign or leading zero
        for values in ("1,x", " 1,1", "1,1_0", "1,\u0663", "1,01", "1,+1",
                       "1,1\n", " 1,1_0,\u0663"):
            assert run(["reduce", "partition", "--values", values]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: bad --values list"), values

    def test_reduce_sat(self, paths):
        f, rep = single_positive_clause()
        ff = write(paths / "f.json", serialize_formula(f))
        rr = write(paths / "r.json", serialize_rep(rep))
        out = str(paths / "out.json")
        assert run(["reduce", "sat", ff, rr, "-o", out]) == 0
        assert parse_instance(Path(out).read_text(encoding="utf-8")).n > 0


class TestOtherCommands:
    def test_equalize(self, paths):
        doc = ('{"version":1,"disks":['
               '{"id":1,"x":"0","y":"0","r":"2"}]}')
        inp = write(paths / "in.json", doc)
        out = str(paths / "out.json")
        assert run(["equalize", "--r", "1", inp, "-o", out]) == 0
        inst = parse_instance(Path(out).read_text(encoding="utf-8"))
        assert inst.n == 2 and all(d.radius == 1 for d in inst.disks)

    def test_equalize_non_multiple_fails(self, paths):
        doc = ('{"version":1,"disks":['
               '{"id":1,"x":"0","y":"0","r":"3/2"}]}')
        inp = write(paths / "in.json", doc)
        assert run(["equalize", "--r", "1", inp]) == 1

    def test_render(self, paths):
        inp = write(paths / "in.json",
                    serialize_instance(generate_random(3, "collinear", 2)))
        out = str(paths / "out.svg")
        assert run(["render", inp, "-o", out]) == 0
        assert Path(out).read_text(encoding="utf-8").count("<circle") == 3

    def test_gen_round_trips(self, paths, capsys):
        out = str(paths / "gen.json")
        assert run(["gen", "--n", "4", "--profile", "planar",
                    "--seed", "9", "-o", out]) == 0
        assert parse_instance(Path(out).read_text(encoding="utf-8")).n == 4

    def test_gen_writes_document_to_stdout(self, capsys):
        assert run(["gen", "--n", "3", "--seed", "2"]) == 0
        assert capsys.readouterr().out == serialize_instance(
            generate_random(3, "collinear", 2),
            {"kind": "random", "profile": "collinear", "seed": 2})

    def test_usage_errors_exit_one(self, capsys):
        for argv in ([], ["bogus"],
                     ["solve", "in.json"],  # neither --collinear nor --exact
                     ["equalize", "--r", "-x", "in.json"],  # --r, no value
                     ["solve", "--exact", "in.json", "extra\nline"],
                     ["solve", "--collinear", "/nonexistent.json"]):
            assert run(argv) == 1, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")
            assert captured.err.count("\n") == 1, captured.err

    def test_help_prints_usage_and_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert run(["solve", "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: diskmerge [-h]")
        assert "usage: diskmerge solve" in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("raw", [
        pytest.param(b'\xff{"version":1,"disks":[]}', id="non-utf8"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deep-json"),
        pytest.param(b'{"version":1,"disks":[{"id":1,"x":"' + b"1" * 5000 +
                     b'","y":"0","r":"1"}]}', id="5000-digit-rational"),
        pytest.param(b'{"version":1,"disks":[{"id":' + b"1" * 5000 +
                     b',"x":"0","y":"0","r":"1"}]}', id="5000-digit-json-int"),
        pytest.param(b'{"version":true,"disks":[{"id":1,"x":"0","y":"0",'
                     b'"r":"1"}]}', id="bool-version"),
        pytest.param('{"version":1,"disks":[{"id":1,"x":"1\\n","y":"\u0663",'
                     '"r":"1"}]}'.encode(), id="non-ascii-numerals"),
    ])
    def test_bad_input_is_one_error_line(self, paths, capsys, raw):
        inp = paths / "in.json"
        inp.write_bytes(raw)
        phi = write(paths / "phi.json",
                    serialize_assignment(Assignment((1,))))
        assert run(["verify", str(inp), phi]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_long_target_is_worded_by_length(self, paths, capsys):
        inst = write(paths / "in.json", '{"version":1,"disks":['
                     '{"id":1,"x":"0","y":"0","r":"1"}]}')
        phi = write(paths / "phi.json",
                    '{"version":1,"target":{"1":"' + "1" * 5000 + '"}}')
        assert run(["verify", inst, phi]) == 1
        assert capsys.readouterr().err == \
            "error: integer has too many digits (5000 characters)\n"

    def test_bad_id_set_is_one_short_error_line(self, paths, capsys):
        # ids 2..10,001: the message names the missing id, not every id
        inst = write(paths / "in.json", json.dumps({"version": 1, "disks": [
            {"id": i, "x": str(i), "y": "0", "r": "1/3"}
            for i in range(2, 10_002)]}))
        assert run(["solve", "--collinear", inst]) == 1
        err = capsys.readouterr().err
        assert err == "error: disk ids must be exactly 1..n, but id 1 is " \
            "missing\n" and len(err.encode()) < 200

    def test_duplicate_key_is_one_error_line(self, paths, capsys):
        # last-key-wins would read the map (1, 2), which verifies
        inst = write(paths / "in.json", '{"version":1,"disks":['
                     '{"id":1,"x":"0","y":"0","r":"1"},'
                     '{"id":2,"x":"9","y":"0","r":"1"}]}')
        phi = write(paths / "phi.json",
                    '{"version":1,"target":{"1":"1","2":"1","2":"2"}}')
        assert run(["verify", inst, phi]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "duplicate key '2'" in err

    def test_python_m_diskmerge(self, paths):
        src = str(Path(diskmerge.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))

        def main(*argv):
            return subprocess.run([sys.executable, "-m", "diskmerge", *argv],
                                  env=env, capture_output=True, text=True,
                                  timeout=120)

        shown = main("--help")
        assert shown.returncode == 0 and "usage: diskmerge" in shown.stdout
        missing = str(paths / "missing.json")
        failed = main("verify", missing, missing)
        assert failed.returncode == 1 and failed.stderr.startswith("error: ")


def reference_parser():
    """The parser as ``cli`` built it when every call registered every
    command; command functions are read from ``cli`` when it is called."""
    parser = cli._Parser(prog="diskmerge",
                         description="centre-disjoint disk merging toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_mode(p):
        p.add_argument("--mode", choices=["max", "sum"], default="max",
                       help="centre-disjointness rule (default max)")

    def add_output(p):
        p.add_argument("-o", "--output", default=None, metavar="OUT")

    p = sub.add_parser("solve", help="find a maximum assignment")
    alg = p.add_mutually_exclusive_group(required=True)
    alg.add_argument("--collinear", action="store_true",
                     help="polynomial dynamic program (collinear centres)")
    alg.add_argument("--exact", action="store_true",
                     help="exhaustive search (small instances)")
    p.add_argument("--relaxed", action="store_true",
                   help="relaxed merge rules (with --exact)")
    p.add_argument("--max-n", type=int, default=cli.MAX_N,
                   help="refuse exhaustive search above this size; about "
                        "1000 disks exceed its recursion depth")
    add_mode(p)
    p.add_argument("instance")
    add_output(p)
    p.set_defaults(func=cli._cmd_solve)

    p = sub.add_parser("verify", help="check an assignment")
    p.add_argument("--relaxed", action="store_true")
    add_mode(p)
    p.add_argument("instance")
    p.add_argument("assignment")
    p.set_defaults(func=cli._cmd_verify)

    p = sub.add_parser("reduce", help="hardness-reduction generators")
    rsub = p.add_subparsers(dest="reduction", required=True)
    rp = rsub.add_parser("sat", help="planar monotone 3-SAT to disks")
    rp.add_argument("formula")
    rp.add_argument("rep")
    add_output(rp)
    rp.set_defaults(func=cli._cmd_reduce_sat)
    rp = rsub.add_parser("partition", help="number partition to disks")
    rp.add_argument("--values", required=True,
                    help="comma-separated positive integers")
    rp.add_argument("--e", default="1/2",
                    help="gap parameter, 0 < e < 1; odd value totals "
                         "need e < 1/2")
    add_output(rp)
    rp.set_defaults(func=cli._cmd_reduce_partition)

    p = sub.add_parser("equalize", help="rewrite to equal radii")
    p.add_argument("--r", required=True,
                   help="common radius; at most 1000000 disks come out")
    p.add_argument("instance")
    add_output(p)
    p.set_defaults(func=cli._cmd_equalize)

    p = sub.add_parser("render", help="draw an instance as SVG")
    add_mode(p)
    p.add_argument("instance")
    p.add_argument("assignment", nargs="?", default=None)
    p.add_argument("-o", "--output", required=True, metavar="OUT")
    p.set_defaults(func=cli._cmd_render)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, required=True,
                   help="number of disks, at most 1000000")
    p.add_argument("--profile", choices=["collinear", "planar"],
                   default="collinear")
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=cli._cmd_gen)

    return parser


def reference_run(argv):
    """``cli.run`` on ``reference_parser``."""
    try:
        args = reference_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


HELP_PATHS = [[], ["solve"], ["verify"], ["reduce"], ["reduce", "sat"],
              ["reduce", "partition"], ["equalize"], ["render"], ["gen"]]

# command lines whose parse must match reference_parser's: every help
# path, usage errors, and accepted lines whose Namespace is compared
PARSER_CASES = [[*path, "--help"] for path in HELP_PATHS] + [
    ["-h"], ["reduce", "partition", "-h"], ["--help", "solve"],
    ["solve", "--collinear", "in.json", "--help"],
    [], ["bogus"], ["Solve"], ["sol"], ["-x"], ["-x", "solve"],
    ["--", "solve"], ["solve", "--", "--exact"],
    ["solve", "in.json"],  # neither --collinear nor --exact
    ["solve", "--collinear", "--exact", "in.json"],
    ["solve", "--exact"],
    ["solve", "--exact", "--max-n", "x", "in.json"],
    ["solve", "--exact", "in.json", "extra"],
    ["verify", "in.json"],
    ["reduce"], ["reduce", "bogus"], ["reduce", "sat", "f.json"],
    ["reduce", "partition"],  # no --values
    ["reduce", "partition", "--values"],
    ["equalize", "in.json"], ["equalize", "--r", "-x", "in.json"],
    ["render", "in.json"],  # no -o
    ["render", "--mode", "min", "in.json", "-o", "o.svg"],
    ["gen"], ["gen", "--n", "x"], ["gen", "--n", "3", "--profile", "cube"],
    ["solve", "--col", "in.json"],  # abbreviations are accepted
    ["solve", "--exact", "--max", "3", "--mo", "sum", "in.json"],
    ["solve", "--exact", "--relaxed", "--mode", "sum", "in.json",
     "-o", "out.json"],
    ["verify", "--relaxed", "in.json", "phi.json"],
    ["reduce", "sat", "f.json", "r.json"],
    ["reduce", "partition", "--values", "1,2", "--e", "1/3", "-o", "p.json"],
    ["equalize", "--r", "1/2", "in.json"],
    ["render", "in.json", "phi.json", "--output", "o.svg"],
    ["gen", "--n", "3", "--profile", "planar", "--seed", "4"],
    # later words that look like commands or flags
    ["solve", "verify"], ["gen", "--n", "3", "gen"],
    ["reduce", "--help", "sat"],
    ["reduce", "partition", "--values", "1", "sat"],
    ["reduce", "sat", "--", "f.json", "r.json"], ["verify", "-h", "x"],
]


class TestParser:
    @pytest.fixture
    def commands(self, monkeypatch):
        """Replaces every command function with one that records its
        name and Namespace and exits 0; returns the record."""
        seen = []
        for name in ("_cmd_solve", "_cmd_verify", "_cmd_reduce_sat",
                     "_cmd_reduce_partition", "_cmd_equalize",
                     "_cmd_render", "_cmd_gen"):
            def record(args, name=name):
                seen.append((name, vars(args)))
                return 0
            monkeypatch.setattr(cli, name, record)
        return seen

    @pytest.mark.parametrize("argv", [
        pytest.param(argv, id=" ".join(argv) or "no-arguments")
        for argv in PARSER_CASES])
    def test_matches_reference_parser(self, monkeypatch, capsys, commands,
                                      argv):
        monkeypatch.setenv("COLUMNS", "80")
        outcomes = []
        for parse in (reference_run, run):
            code = parse(list(argv))
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err, commands[:]))
            commands.clear()
        assert outcomes[0] == outcomes[1]
        code, out, err, called = outcomes[0]
        assert out or err or called

    # a command line that names a command (and reduce's reduction)
    # builds that command's parser alone; help and errors that name no
    # whole command build all 9
    @pytest.mark.parametrize("argv, code, built", [
        pytest.param(["gen", "--n", "2"], 0, 1, id="gen"),
        pytest.param(["solve", "--collinear", "INSTANCE"], 0, 1, id="solve"),
        pytest.param(["reduce", "partition", "--values", "1,1"], 0, 1,
                     id="reduce-partition"),
        pytest.param(["reduce", "sat", "--help"], 0, 1, id="reduce-sat"),
        pytest.param(["reduce", "--help"], 0, 9, id="reduce-help"),
        pytest.param(["reduce", "bogus"], 1, 9, id="reduce-unknown"),
        pytest.param(["--help"], 0, 9, id="help"),
        pytest.param(["bogus"], 1, 9, id="unknown-command"),
        pytest.param([], 1, 9, id="no-arguments"),
    ])
    def test_builds_only_the_command_it_runs(self, monkeypatch, paths,
                                              capsys, argv, code, built):
        inst = write(paths / "in.json", serialize_instance(Instance(())))
        init = argparse.ArgumentParser.__init__
        parsers = []

        def counting_init(self, *args, **kwargs):
            parsers.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                            counting_init)
        assert run([inst if a == "INSTANCE" else a for a in argv]) == code
        assert len(parsers) == built
