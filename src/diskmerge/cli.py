"""Command-line front end.

Exit status: 0 for successful computations (an INFEASIBLE solve is a
successful computation and is reported in the output), 1 for usage or
input errors, 2 when ``verify`` rejects an assignment.  Results go to
stdout as JSON; diagnostics go to stderr.

``_COMMANDS`` maps each command to its help and to the function that adds
its arguments (``reduce`` to a table of its reductions).  A command line
that names a command, and for ``reduce`` its reduction, is parsed by that
command's parser alone, built as the full parser would build it; any
other line (no arguments, ``-h``, an unknown command or reduction) goes
to the full parser, so help and usage errors read as with every command.
Building parsers took longer than a small command.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Optional

from .core import (Disk, DisjointnessMode, FormatError, Instance, Point,
                   format_rational, parse_rational, verify_proper,
                   verify_uproper)
from .reduction import reduce_sat
from .serialization import (_dump, _parse_int, parse_assignment,
                            parse_formula, parse_instance, parse_rep,
                            serialize_assignment, serialize_instance)
from .solvers import (MAX_N, solve_collinear, solve_exact_mcmd,
                      solve_exact_rmcmd)
from .svg import render_svg
from .transforms import (_MAX_DISKS, PartitionInput, equalize_radii,
                         reduce_partition)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, like every input error; --help shows the usage
        print(f"error: {' '.join(message.splitlines())}", file=sys.stderr)
        raise SystemExit(1)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: not UTF-8 text ({exc})") from exc


def _write_out(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _mode(args) -> DisjointnessMode:
    return DisjointnessMode(args.mode)


def _cmd_solve(args) -> int:
    if args.collinear and args.relaxed:
        raise FormatError("--relaxed requires --exact")
    instance = parse_instance(_read(args.instance))
    mode = _mode(args)
    try:
        if args.collinear:
            result = solve_collinear(instance, mode)
        else:
            solver = solve_exact_rmcmd if args.relaxed else solve_exact_mcmd
            result = solver(instance, mode, max_n=args.max_n)
    except ValueError as exc:  # not collinear, or over --max-n
        raise FormatError(str(exc)) from exc
    except RecursionError as exc:  # the exact search nests once per disk
        raise FormatError(f"instance size {instance.n} exceeds the exact "
                          f"search's recursion depth") from exc
    summary = {"status": result.status, "cardinality": result.cardinality}
    if result.assignment is not None:
        doc = serialize_assignment(result.assignment)
        if args.output is not None:
            _write_out(doc, args.output)
        else:
            summary["target"] = json.loads(doc)["target"]
    sys.stdout.write(_dump(summary))
    return 0


def _cmd_verify(args) -> int:
    instance = parse_instance(_read(args.instance))
    assignment = parse_assignment(_read(args.assignment))
    verifier = verify_uproper if args.relaxed else verify_proper
    report = verifier(instance, assignment, _mode(args))
    sys.stdout.write(_dump({"ok": report.ok,
                            "cardinality": report.cardinality,
                            "violations": report.violations}))
    if not report.ok:
        for v in report.violations:
            print(v, file=sys.stderr)
        return 2
    return 0


def _cmd_reduce_sat(args) -> int:
    formula = parse_formula(_read(args.formula))
    art = reduce_sat(formula, parse_rep(_read(args.rep)))
    _write_out(serialize_instance(art.instance, art.metadata()), args.output)
    print(f"{art.instance.n} disks, {len(art.gadgets)} gadgets",
          file=sys.stderr)
    return 0


def _cmd_reduce_partition(args) -> int:
    ints = [_parse_int(v) for v in args.values.split(",")]
    if None in ints:
        raise FormatError(f"bad --values list: {args.values!r}")
    inp = PartitionInput(tuple(ints), parse_rational(args.e))
    instance = reduce_partition(inp)
    meta = {"kind": "partition-reduction",
            "values": [str(v) for v in inp.values],
            "e": format_rational(inp.e)}
    _write_out(serialize_instance(instance, meta), args.output)
    return 0


def _cmd_equalize(args) -> int:
    instance = parse_instance(_read(args.instance))
    eq = equalize_radii(instance, parse_rational(args.r))
    meta = {"kind": "equal-radius",
            "r": format_rational(eq.radius),
            "origin": {str(i): o for i, o in sorted(eq.origin.items())}}
    _write_out(serialize_instance(eq.instance, meta), args.output)
    return 0


def _cmd_render(args) -> int:
    instance = parse_instance(_read(args.instance))
    assignment = None
    if args.assignment is not None:
        assignment = parse_assignment(_read(args.assignment))
    svg = render_svg(instance, assignment, _mode(args))
    _write_out(svg, args.output)
    return 0


def generate_random(n: int, profile: str, seed: int) -> Instance:
    """Deterministic random instance for a given (n, profile, seed).

    ``collinear`` places centres at distinct small-rational x on the
    x-axis; ``planar`` places them in a bounded box.  Radii lie in
    [1/4, 2] in both profiles.  ``n`` is at most ``_MAX_DISKS`` (10**6),
    checked before anything is built.
    """
    if n < 0:
        raise FormatError("n must be non-negative")
    if n > _MAX_DISKS:
        raise FormatError(f"n must be at most {_MAX_DISKS}")
    rng = random.Random(seed)
    disks = []
    if profile == "collinear":
        xs = rng.sample(range(-8 * n, 8 * n + 1), n) if n else []
        for i, x in enumerate(xs, start=1):
            radius = Fraction(rng.randint(1, 8), 4)
            disks.append(Disk(i, Point(Fraction(x, 2), Fraction(0)), radius))
    elif profile == "planar":
        seen = set()
        for i in range(1, n + 1):
            while True:
                p = (rng.randint(-4 * n, 4 * n), rng.randint(-4 * n, 4 * n))
                if p not in seen:
                    seen.add(p)
                    break
            radius = Fraction(rng.randint(1, 8), 4)
            disks.append(Disk(i, Point(Fraction(p[0], 2), Fraction(p[1], 2)),
                              radius))
    else:
        raise FormatError(f"unknown profile {profile!r}")
    return Instance(disks)


def _cmd_gen(args) -> int:
    instance = generate_random(args.n, args.profile, args.seed)
    meta = {"kind": "random", "profile": args.profile,
            "seed": args.seed}
    _write_out(serialize_instance(instance, meta), args.output)
    return 0


def _add_mode(p):
    p.add_argument("--mode", choices=["max", "sum"], default="max",
                   help="centre-disjointness rule (default max)")


def _add_output(p):
    p.add_argument("-o", "--output", default=None, metavar="OUT")


def _add_solve(p):
    alg = p.add_mutually_exclusive_group(required=True)
    alg.add_argument("--collinear", action="store_true",
                     help="polynomial dynamic program (collinear centres)")
    alg.add_argument("--exact", action="store_true",
                     help="exhaustive search (small instances)")
    p.add_argument("--relaxed", action="store_true",
                   help="relaxed merge rules (with --exact)")
    p.add_argument("--max-n", type=int, default=MAX_N,
                   help="refuse exhaustive search above this size; about "
                        "1000 disks exceed its recursion depth")
    _add_mode(p)
    p.add_argument("instance")
    _add_output(p)
    p.set_defaults(func=_cmd_solve)


def _add_verify(p):
    p.add_argument("--relaxed", action="store_true")
    _add_mode(p)
    p.add_argument("instance")
    p.add_argument("assignment")
    p.set_defaults(func=_cmd_verify)


def _add_reduce_sat(p):
    p.add_argument("formula")
    p.add_argument("rep")
    _add_output(p)
    p.set_defaults(func=_cmd_reduce_sat)


def _add_reduce_partition(p):
    p.add_argument("--values", required=True,
                   help="comma-separated positive integers")
    p.add_argument("--e", default="1/2",
                   help="gap parameter, 0 < e < 1; odd value totals "
                        "need e < 1/2")
    _add_output(p)
    p.set_defaults(func=_cmd_reduce_partition)


def _add_equalize(p):
    p.add_argument("--r", required=True,
                   help="common radius; at most 1000000 disks come out")
    p.add_argument("instance")
    _add_output(p)
    p.set_defaults(func=_cmd_equalize)


def _add_render(p):
    _add_mode(p)
    p.add_argument("instance")
    p.add_argument("assignment", nargs="?", default=None)
    p.add_argument("-o", "--output", required=True, metavar="OUT")
    p.set_defaults(func=_cmd_render)


def _add_gen(p):
    p.add_argument("--n", type=int, required=True,
                   help="number of disks, at most 1000000")
    p.add_argument("--profile", choices=["collinear", "planar"],
                   default="collinear")
    p.add_argument("--seed", type=int, default=0)
    _add_output(p)
    p.set_defaults(func=_cmd_gen)


# command name -> (help, function that adds its arguments), in help order;
# reduce names a table of its reductions in place of the function
_COMMANDS = {
    "solve": ("find a maximum assignment", _add_solve),
    "verify": ("check an assignment", _add_verify),
    "reduce": ("hardness-reduction generators", {
        "sat": ("planar monotone 3-SAT to disks", _add_reduce_sat),
        "partition": ("number partition to disks", _add_reduce_partition),
    }),
    "equalize": ("rewrite to equal radii", _add_equalize),
    "render": ("draw an instance as SVG", _add_render),
    "gen": ("generate a random instance", _add_gen),
}

# the Namespace attribute that names the command at each level
_DESTS = ("command", "reduction")


def _add_commands(parser, table, level=0) -> None:
    sub = parser.add_subparsers(dest=_DESTS[level], required=True)
    for name, (help_text, add_arguments) in table.items():
        p = sub.add_parser(name, help=help_text)
        if isinstance(add_arguments, dict):
            _add_commands(p, add_arguments, level + 1)
        else:
            add_arguments(p)


def _build_parser() -> _Parser:
    """The full parser, with every command and reduction."""
    parser = _Parser(prog="diskmerge",
                     description="centre-disjoint disk merging toolkit")
    _add_commands(parser, _COMMANDS)
    return parser


def _parser_for(argv):
    """``(parser, k)``: ``parser`` parses ``argv[k:]``.  When ``argv[:k]``
    names a command (``reduce`` with its reduction) it is that command's
    parser alone, built as the full parser builds it; otherwise it is the
    full parser and ``k`` is 0."""
    table, names = _COMMANDS, []
    for word in argv[:len(_DESTS)]:
        if word not in table:
            break
        names.append(word)
        add_arguments = table[word][1]
        if not isinstance(add_arguments, dict):
            parser = _Parser(prog=" ".join(["diskmerge", *names]))
            parser.set_defaults(**dict(zip(_DESTS, names)))
            add_arguments(parser)
            return parser, len(names)
        table = add_arguments
    return _build_parser(), 0


def run(argv) -> int:
    parser, k = _parser_for(argv)
    try:
        args = parser.parse_args(argv[k:])
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
