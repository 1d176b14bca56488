"""Command-line interface: exit codes, outputs, artifact validity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diskmerge
from diskmerge.cli import generate_random, run
from diskmerge.core import Assignment
from diskmerge.fixtures import relaxed_only_instance, single_positive_clause
from diskmerge.serialization import (parse_assignment, parse_instance,
                                     serialize_assignment,
                                     serialize_formula, serialize_instance,
                                     serialize_rep)
from diskmerge.solvers import collinearity_check


@pytest.fixture
def paths(tmp_path):
    return tmp_path


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


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

    def test_collinear_on_planar_is_input_error(self, paths):
        doc = ('{"version":1,"disks":['
               '{"id":1,"x":"0","y":"0","r":"1"},'
               '{"id":2,"x":"9","y":"0","r":"1"},'
               '{"id":3,"x":"0","y":"9","r":"1"}]}')
        inp = write(paths / "in.json", doc)
        assert run(["solve", "--collinear", inp]) == 1

    def test_max_n_guard(self, paths):
        inp = write(paths / "in.json",
                    serialize_instance(generate_random(5, "collinear", 3)))
        assert run(["solve", "--exact", "--max-n", "3", inp]) == 1


class TestReduceCommands:
    def test_reduce_partition(self, paths, capsys):
        out = str(paths / "out.json")
        assert run(["reduce", "partition", "--values", "1,1",
                    "--e", "1/2", "-o", out]) == 0
        inst = parse_instance(open(out).read())
        assert inst.n == 6
        assert inst.radius(1) == 4  # 2s with s = 2

    def test_reduce_partition_bad_values(self, paths):
        assert run(["reduce", "partition", "--values", "1,x"]) == 1

    def test_reduce_sat(self, paths):
        f, rep = single_positive_clause()
        ff = write(paths / "f.json", serialize_formula(f))
        rr = write(paths / "r.json", serialize_rep(rep))
        out = str(paths / "out.json")
        assert run(["reduce", "sat", ff, rr, "-o", out]) == 0
        assert parse_instance(open(out).read()).n > 0


class TestOtherCommands:
    def test_equalize(self, paths):
        doc = ('{"version":1,"disks":['
               '{"id":1,"x":"0","y":"0","r":"2"}]}')
        inp = write(paths / "in.json", doc)
        out = str(paths / "out.json")
        assert run(["equalize", "--r", "1", inp, "-o", out]) == 0
        inst = parse_instance(open(out).read())
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
        assert open(out).read().count("<circle") == 3

    def test_gen_round_trips(self, paths, capsys):
        out = str(paths / "gen.json")
        assert run(["gen", "--n", "4", "--profile", "planar",
                    "--seed", "9", "-o", out]) == 0
        assert parse_instance(open(out).read()).n == 4

    def test_usage_errors_exit_one(self):
        assert run([]) == 1
        assert run(["bogus"]) == 1
        assert run(["solve", "in.json"]) == 1  # neither --collinear nor --exact
        assert run(["solve", "--collinear", "/nonexistent.json"]) == 1

    @pytest.mark.parametrize("raw", [
        pytest.param(b'\xff{"version":1,"disks":[]}', id="non-utf8"),
        pytest.param(b"[" * 100_000 + b"]" * 100_000, id="deep-json"),
        pytest.param(b'{"version":1,"disks":[{"id":1,"x":"' + b"1" * 5000 +
                     b'","y":"0","r":"1"}]}', id="5000-digit-rational"),
    ])
    def test_bad_input_is_one_error_line(self, paths, capsys, raw):
        inp = paths / "in.json"
        inp.write_bytes(raw)
        phi = write(paths / "phi.json",
                    serialize_assignment(Assignment((1,))))
        assert run(["verify", str(inp), phi]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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
