"""The four benchmark workloads: seeded inputs, work items and output checks.

Every workload builds a pool of items from the seed.  An item is one unit
of work that a user of the library would wait for: one formula pipeline,
one solved instance or one CLI command.  ``Item.run`` does the work through
the library's public functions (looked up on the package at call time, so
the traced run can wrap them) and returns its outputs; ``Item.check``
returns the list of checks those outputs failed.  Checks run outside the
timed region.

Inputs are plain ``Disk`` lists, drawings or document texts; each item
builds its own ``Instance`` so no item reuses another's neighbour or
distance caches.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path
from typing import Any, Callable


@dataclass
class Item:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], list]


@dataclass
class Workload:
    """``pool`` is cycled by the timed run; it is a sequence of blocks of
    ``block`` items with the same cost mix.  The traced run walks its first
    ``traced`` items once (all if 0).  ``probes`` are checked items never
    timed.
    ``counters`` collects per-layer counts that checks observe."""

    pool: list
    probes: list
    block: int = 1
    traced: int = 0
    counters: Counter = field(default_factory=Counter)

    def traced_items(self):
        """The pool prefix the traced run walks."""
        return self.pool[:self.traced or None]


def _digest(*texts: str) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


class _Stable:
    """Checks that an output repeats byte for byte whenever the same pool
    item runs again within one run."""

    def __init__(self):
        self.seen: dict = {}

    def failures(self, key, digest: str) -> list:
        first = self.seen.setdefault(key, digest)
        return [] if first == digest else [f"{key}: output bytes changed"]


# ---------------------------------------------------------------------------
# sat-reduction
# ---------------------------------------------------------------------------

# A clause drawing of 73 disks beside a lone variable keeps every
# composite at 83 disks: about 0.2 s per pipeline on a shared 2-vCPU VM,
# so a 30 s run has the 100+ items item_p90_ms needs.
_CLAUSE_PIECES = ("single_positive", "single_negative")

# sha256 of the canonical instance text and the SVG of a fixed composite,
# as produced by the library when this benchmark was written: canonical
# bytes must not change between runs or commits.
_SAT_PROBE = (("unit_clause", "single_positive"), {1: 1, 2: 0, 3: 1, 4: 0})
SAT_PROBE_DIGEST = (
    "a2572d7580f6cf80f220d89d0110208a2ea658c859efc46eda4c0f065375ff12")


def compose_formula(lib, fixtures, names):
    """Place fixture drawings side by side, two columns apart.

    Variables of later pieces are renumbered after those of earlier
    pieces; clause rows are kept, so clauses of different pieces may share
    a row.  The composite is validated with ``validate_rep``.
    """
    nv = 0
    next_col = 0
    clauses, segments, rows, legs = [], [], [], []
    for name in names:
        formula, rep = fixtures.FORMULA_FIXTURES[name]()
        cols = [c for seg in rep.variable_segments for c in seg]
        cols += [c for leg in rep.legs for c in leg]
        shift = next_col - min(cols)
        segments += [(lo + shift, hi + shift)
                     for lo, hi in rep.variable_segments]
        for cl, row, leg in zip(formula.clauses, rep.clause_rows, rep.legs):
            clauses.append(lib.Clause(cl.polarity,
                                      tuple(v + nv for v in cl.literals)))
            rows.append(row)
            legs.append(tuple(c + shift for c in leg))
        nv += formula.num_variables
        next_col = max(cols) + shift + 2
    formula = lib.MonotoneFormula(nv, tuple(clauses))
    rep = lib.RectilinearRep(tuple(segments), tuple(rows), tuple(legs))
    lib.validate_rep(formula, rep)
    return formula, rep


def _satisfying(formula, rng):
    n = formula.num_variables
    found = [dict(zip(range(1, n + 1), bits))
             for bits in itertools.product((0, 1), repeat=n)]
    found = [v for v in found if formula.is_satisfied(v)]
    return rng.choice(found)


def _sat_item(lib, formula, rep, values, key, stable, golden=None):
    """One formula pipeline; ``golden``, if given, is the expected digest."""
    def run():
        embedded = lib.grid_embed(formula, rep)
        art = lib.reduce_sat(formula, embedded)
        text = lib.serialize_instance(art.instance, art.metadata())
        inst = lib.parse_instance(text)
        built = lib.build_assignment_from_sat(art, values)
        atext = lib.serialize_assignment(built)
        parsed = lib.parse_assignment(atext)
        report = lib.verify_proper(inst, parsed)
        back = lib.extract_sat_assignment(art, parsed)
        svg = lib.render_svg(inst, parsed)
        return art, text, inst, built, atext, parsed, report, back, svg

    def check(out):
        art, text, inst, built, atext, parsed, report, back, svg = out
        bad = []
        if not report.ok:
            bad.append(f"{key}: verify_proper rejected the built assignment")
        if back != values:
            bad.append(f"{key}: extract(build(values)) != values")
        if inst != art.instance or parsed != built:
            bad.append(f"{key}: parse(serialize(x)) != x")
        if lib.serialize_instance(inst, lib.instance_metadata(text)) != text \
                or lib.serialize_assignment(parsed) != atext:
            bad.append(f"{key}: canonical text is not a fixed point")
        digest = _digest(text, svg)
        if golden is not None and digest != golden:
            bad.append(f"{key}: instance/SVG digest {digest} != {golden}")
        return bad + stable.failures(key, digest)

    return Item("pipeline", run, check)


def sat_reduction(lib, seed, smoke):
    from diskmerge import fixtures
    rng = random.Random(f"sat-reduction:{seed}")
    stable = _Stable()
    pool = []
    for k in range(3 if smoke else 24):
        names = [rng.choice(_CLAUSE_PIECES), "variables_only"]
        rng.shuffle(names)
        formula, rep = compose_formula(lib, fixtures, names)
        pool.append(_sat_item(lib, formula, rep, _satisfying(formula, rng),
                              f"formula{k}", stable))
    names, values = _SAT_PROBE
    formula, rep = compose_formula(lib, fixtures, names)
    probe = _sat_item(lib, formula, rep, values, "probe", stable,
                      golden=SAT_PROBE_DIGEST)
    return Workload(pool, [probe])


# ---------------------------------------------------------------------------
# collinear-dp
# ---------------------------------------------------------------------------

# A pool is a run of blocks with a fixed mix of sizes: the seed moves the
# sparse family's centres and radii, the modes and the order within a
# block, never the cost mix.  Pools are longer than a run consumes, so
# sparse instances do not repeat and the run's mean does not hang on a
# few of them.  The dense 55 and 60 items, a sixth of the pool, are the
# slowest, so item_p90_ms falls inside a cluster of fixed inputs.
_SPARSE_N = (60, 70, 80, 90, 100, 110, 120)
_DENSE_N = (40, 45, 50, 55, 60)
_BLOCKS = 30


def sparse_collinear(lib, rng, n):
    """Criterion-8 family: distinct integer centres in [-4n, 4n], radii in
    [1, 5] by halves."""
    xs = rng.sample(range(-4 * n, 4 * n + 1), n)
    return [lib.Disk(i + 1, lib.Point(F(x), F(0)), F(rng.randint(2, 10), 2))
            for i, x in enumerate(xs)]


def dense_collinear(lib, n):
    """Unit spacing, all radii 3/2: every disk reaches both neighbours.
    The optimum is 2 under the max rule and 1 under the sum rule."""
    return [lib.Disk(i + 1, lib.Point(F(i), F(0)), F(3, 2))
            for i in range(n)]


def _small_collinear(lib, rng, n):
    """Criterion-1 family: small instances, sometimes with shared
    centres."""
    if rng.random() < 0.3:
        xs = [rng.randint(-6, 6) for _ in range(n)]
    else:
        xs = rng.sample(range(-20, 21), n)
    return [lib.Disk(i + 1, lib.Point(F(x), F(0)),
                     F(rng.randint(1, 8), rng.randint(1, 4)))
            for i, x in enumerate(xs)]


def _dp_item(lib, disks, mode, kind, key, stable):
    closed_form = {"max": 2, "sum": 1} if kind == "dense" else None

    def run():
        inst = lib.Instance(disks)
        return inst, lib.solve_collinear(inst, lib.DisjointnessMode(mode))

    def check(out):
        inst, result = out
        bad = []
        if result.feasible:
            if not lib.verify_proper(inst, result.assignment,
                                     lib.DisjointnessMode(mode)).ok:
                bad.append(f"{key}: DP assignment fails verify_proper")
            if result.cardinality != len(result.assignment.selected()):
                bad.append(f"{key}: cardinality disagrees with assignment")
        if closed_form and (not result.feasible
                            or result.cardinality != closed_form[mode]):
            bad.append(f"{key}: dense optimum {result.cardinality}, "
                       f"expected {closed_form[mode]}")
        target = result.assignment.target if result.feasible else None
        return bad + stable.failures(
            key, _digest(repr((result.status, result.cardinality, target,
                               result.stats["transitions"]))))

    return Item(kind, run, check)


def _dp_probe(lib, disks, key):
    def run():
        out = []
        for mode in lib.DisjointnessMode:
            dp = lib.solve_collinear(lib.Instance(disks), mode)
            oracle = lib.solve_exact_mcmd(lib.Instance(disks), mode)
            out.append((mode.value, dp, oracle))
        return out

    def check(out):
        return [f"{key}: DP {dp.status}/{dp.cardinality} != oracle "
                f"{oracle.status}/{oracle.cardinality} ({mode})"
                for mode, dp, oracle in out
                if (dp.status, dp.cardinality)
                != (oracle.status, oracle.cardinality)]

    return Item("probe", run, check)


def collinear_dp(lib, seed, smoke):
    rng = random.Random(f"collinear-dp:{seed}")
    stable = _Stable()
    sparse_n = (12, 16) if smoke else _SPARSE_N
    dense_n = (10,) if smoke else _DENSE_N
    pool = []
    for b in range(1 if smoke else _BLOCKS):
        block = []
        for n in sparse_n:
            mode = rng.choice(("max", "sum"))
            block.append(_dp_item(lib, sparse_collinear(lib, rng, n), mode,
                                  "sparse", f"sparse{n}.{b}.{mode}", stable))
        for n in dense_n:
            mode = rng.choice(("max", "sum"))
            block.append(_dp_item(lib, dense_collinear(lib, n), mode,
                                  "dense", f"dense{n}.{mode}", stable))
        rng.shuffle(block)
        pool += block
    probes = []
    for k in range(4 if smoke else 24):
        disks = _small_collinear(lib, rng, rng.randint(1, 8))
        probes.append(_dp_probe(lib, disks, f"probe{k}"))
    for n in range(1, 8):
        probes.append(_dp_probe(lib, dense_collinear(lib, n), f"dense{n}"))
    return Workload(pool, probes, block=len(block), traced=3 * len(block))


# ---------------------------------------------------------------------------
# exact-oracle
# ---------------------------------------------------------------------------

def dense_planar(lib, rng, n, radii=range(2, 9), unit=F(1, 4)):
    """n disks with centres on a quarter grid in [-n/2, n/2]^2 and radii
    ``unit * k`` for k in ``radii``: most pairs overlap."""
    return [lib.Disk(i + 1,
                     lib.Point(F(rng.randint(-2 * n, 2 * n), 4),
                               F(rng.randint(-2 * n, 2 * n), 4)),
                     unit * rng.choice(radii))
            for i in range(n)]


def _check_oracles(lib, key, inst, strict, relaxed):
    bad = []
    if strict.feasible and not lib.verify_proper(inst,
                                                 strict.assignment).ok:
        bad.append(f"{key}: strict optimum fails verify_proper")
    if relaxed.feasible and not lib.verify_uproper(inst,
                                                   relaxed.assignment).ok:
        bad.append(f"{key}: relaxed optimum fails verify_uproper")
    for res in (strict, relaxed):
        if res.feasible and \
                res.cardinality != len(res.assignment.selected()):
            bad.append(f"{key}: cardinality disagrees with assignment")
    if strict.feasible and not (relaxed.feasible and
                                strict.cardinality <= relaxed.cardinality):
        bad.append(f"{key}: strict optimum {strict.cardinality} exceeds "
                   f"relaxed optimum {relaxed.cardinality}")
    return bad


def _solve_both(lib, inst):
    return lib.solve_exact_mcmd(inst), lib.solve_exact_rmcmd(inst)


def _planar_item(lib, disks, key):
    def run():
        inst = lib.Instance(disks)
        return (inst,) + _solve_both(lib, inst)

    def check(out):
        return _check_oracles(lib, key, *out)

    return Item(f"planar{len(disks)}", run, check)


def _equalize_item(lib, disks, key):
    def run():
        base = lib.Instance(disks)
        eq = lib.equalize_radii(base, F(1))
        return (base, eq.instance) + _solve_both(lib, base) + \
            _solve_both(lib, eq.instance)

    def check(out):
        base, eq, bs, br, es, er = out
        bad = _check_oracles(lib, key, base, bs, br)
        bad += _check_oracles(lib, key + "/equalized", eq, es, er)
        for name, a, b in (("strict", bs, es), ("relaxed", br, er)):
            if (a.status, a.cardinality) != (b.status, b.cardinality):
                bad.append(f"{key}: equalize_radii moved the {name} "
                           f"optimum {a.cardinality} -> {b.cardinality}")
        return bad

    return Item("equalize", run, check)


def _balanced(values):
    total = sum(values)
    return any(2 * sum(c) == total
               for r in range(len(values) + 1)
               for c in itertools.combinations(values, r))


def _partition_item(lib, values, e, key):
    # reduce_partition documents: relaxed optimum 4 exactly when the values
    # split evenly, provided e < 1 - frac(s/2).  Outside that range (odd s
    # with e >= 1/2) only the generic checks apply.
    total = sum(values)
    in_range = e < 1 - (F(total, 2) - total // 2)

    def run():
        inst = lib.reduce_partition(lib.PartitionInput(values, e))
        return (inst,) + _solve_both(lib, inst)

    def check(out):
        inst, strict, relaxed = out
        bad = _check_oracles(lib, key, inst, strict, relaxed)
        if in_range and (relaxed.cardinality == 4) != _balanced(values):
            bad.append(f"{key}: relaxed optimum {relaxed.cardinality} for "
                       f"values {values}, e={e}")
        return bad

    return Item("partition", run, check)


_PARTITION_E = (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(3, 4))


def _equalize_base(lib, rng):
    """2 to 4 disks with integer radii summing to at most 7, so the
    equalized copy stays within the oracles' default size limit."""
    while True:
        disks = dense_planar(lib, rng, rng.randint(2, 4), radii=(1, 2, 3),
                             unit=F(1))
        if sum(d.radius for d in disks) <= 7:
            return disks


def exact_oracle(lib, seed, smoke):
    rng = random.Random(f"exact-oracle:{seed}")
    pool = []
    # Per block of 12: seven n=7 and two n=8 planar instances, two
    # equalize and one partition item.  The n=8 items (0.3-0.5 s) are a
    # sixth of the pool, so item_p90_ms falls inside them and item_p50_ms
    # among the rest; n=9 (3 s each) would leave too few items per run.
    sizes = (5, 6) if smoke else (7,) * 7 + (8,) * 2
    for b in range(1 if smoke else _BLOCKS):
        block = [_planar_item(lib, dense_planar(lib, rng, n),
                              f"planar{n}.{b}.{k}")
                 for k, n in enumerate(sizes)]
        block += [_equalize_item(lib, _equalize_base(lib, rng),
                                 f"equalize{b}.{k}")
                  for k in range(1 if smoke else 2)]
        values = tuple(F(rng.randint(1, 6)) for _ in range(3))
        block.append(_partition_item(lib, values, rng.choice(_PARTITION_E),
                                     f"partition{b}"))
        rng.shuffle(block)
        pool += block
    return Workload(pool, [], block=len(block), traced=3 * len(block))


# ---------------------------------------------------------------------------
# cli-roundtrip
# ---------------------------------------------------------------------------

def _instance_doc(disks) -> str:
    """Canonical instance document, written without the library."""
    def rat(v):
        return str(v.numerator) if v.denominator == 1 else \
            f"{v.numerator}/{v.denominator}"
    return json.dumps({"version": 1, "disks": [
        {"id": i, "x": rat(x), "y": rat(y), "r": rat(r)}
        for i, (x, y, r) in enumerate(disks, start=1)]},
        sort_keys=True, separators=(",", ":")) + "\n"


def grouped_collinear(rng, groups):
    """Collinear groups 6 apart: a radius-2 disk, sometimes with a small
    disk inside its reach that must merge into it.  The strict optimum is
    exactly the number of groups."""
    disks = []
    for g in range(groups):
        x = F(6 * g)
        disks.append((x, F(0), F(2)))
        if rng.random() < 0.6:
            side = rng.choice((-1, 1))
            disks.append((x + side * F(rng.randint(3, 6), 4), F(0),
                          F(rng.randint(1, 2), 4)))
    rng.shuffle(disks)
    return disks


def hub_planar(rng, n):
    """Disk 1 (radius 3 at the origin) reaches every other centre, so
    merging everything into it is always a relaxed solution."""
    disks = [(F(0), F(0), F(3))]
    while len(disks) < n:
        x, y = F(rng.randint(-5, 5), 2), F(rng.randint(-5, 5), 2)
        if x * x + y * y < 9:
            disks.append((x, y, F(rng.randint(1, 8), 4)))
    return disks


def _json(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


class _Cli:
    """Runs ``cli.run`` in-process with stdout and stderr captured."""

    def __init__(self, lib, tmp: Path, stable: _Stable, counters: Counter):
        self.lib = lib
        self.tmp = tmp
        self.stable = stable
        self.counters = counters

    def path(self, name):
        return str(self.tmp / name)

    def item(self, kind, argv, expected, key, verify=None):
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.lib.cli.run(argv)
            return code, out.getvalue(), err.getvalue()

        def check(result):
            code, out, err = result
            if code != expected:
                self.counters["cli.exit_unexpected"] += 1
                return [f"{key}: exit {code}, expected {expected}: "
                        f"{err.strip()[:200]}"]
            return verify(out) if verify else []

        return Item("cli." + kind, run, check)

    def read(self, name):
        return Path(self.path(name)).read_text(encoding="utf-8")


# The same for the gen output and the SVG of the fixed CLI probe script.
CLI_PROBE_DIGEST = (
    "33d74bb1cb8fe73e13dd757d18a9a9ee6c8b3861f88c769a1d31a048eb8d621f")


def _cli_script(cli: _Cli, rng, k):
    """Ten commands (one block) on the documents of script ``k``; returns
    the documents to write and the items."""
    p = lambda name: cli.path(f"s{k}-{name}")  # noqa: E731
    read = lambda name: cli.read(f"s{k}-{name}")  # noqa: E731
    stable = cli.stable
    gen_seed = rng.randrange(2 ** 31)
    groups = rng.randint(4, 8)
    col = grouped_collinear(rng, groups)
    small = hub_planar(rng, 5)
    bad = hub_planar(rng, 4)
    bad[1] = (F(0), F(0), bad[1][2])  # shares disk 1's centre
    values = [rng.randint(1, 6) for _ in range(3)]
    docs = {
        "col.json": _instance_doc(col),
        "small.json": _instance_doc(small),
        "bad.json": _instance_doc(bad),
        "ident.json": json.dumps({"version": 1, "target": {
            str(i): str(i) for i in range(1, len(bad) + 1)}},
            sort_keys=True, separators=(",", ":")) + "\n",
    }

    def gen_ok(_):
        text = read("gen.json")
        doc = _json(text)
        if not doc or len(doc.get("disks", ())) != 12:
            return [f"s{k}: gen wrote no 12-disk document"]
        return stable.failures(f"s{k}.gen", _digest(text))

    def equalize_ok(_):
        src, eq = _json(read("gen.json")), _json(read("eq.json"))
        want = sum(F(d["r"]) * 4 for d in src["disks"]) if src else None
        if not eq or len(eq.get("disks", ())) != want:
            return [f"s{k}: equalize wrote {eq and len(eq['disks'])} "
                    f"disks, expected {want}"]
        return []

    def solve_ok(out):
        doc = _json(out)
        if not doc or doc.get("status") != "FEASIBLE" or \
                doc.get("cardinality") != groups:
            return [f"s{k}: solve --collinear printed {out.strip()}, "
                    f"expected cardinality {groups}"]
        return []

    def verdict(ok):
        def verify(out):
            doc = _json(out)
            if not doc or doc.get("ok") is not ok:
                return [f"s{k}: verify printed {out.strip()[:200]}"]
            return []
        return verify

    def render_ok(_):
        svg = read("out.svg")
        if not svg.rstrip().endswith("</svg>"):
            return [f"s{k}: render wrote no SVG"]
        return stable.failures(f"s{k}.svg", _digest(svg))

    def relaxed_ok(out):
        doc = _json(out)
        if not doc or doc.get("status") != "FEASIBLE":
            return [f"s{k}: solve --exact --relaxed printed {out.strip()}"]
        return []

    def partition_ok(_):
        doc = _json(read("part.json"))
        if not doc or len(doc.get("disks", ())) != 4 + len(values):
            return [f"s{k}: reduce partition wrote a wrong document"]
        return []

    items = [
        cli.item("gen", ["gen", "--n", "12", "--profile", "planar",
                         "--seed", str(gen_seed), "-o", p("gen.json")],
                 0, f"s{k}", gen_ok),
        cli.item("equalize", ["equalize", "--r", "1/4", p("gen.json"),
                              "-o", p("eq.json")], 0, f"s{k}", equalize_ok),
        cli.item("solve-collinear", ["solve", "--collinear", p("col.json"),
                                     "-o", p("phi.json")],
                 0, f"s{k}", solve_ok),
        cli.item("verify", ["verify", p("col.json"), p("phi.json")],
                 0, f"s{k}", verdict(True)),
        cli.item("render", ["render", p("col.json"), p("phi.json"),
                            "-o", p("out.svg")], 0, f"s{k}", render_ok),
    ]
    # the slowest command runs twice, so item_p90_ms falls inside its
    # latencies rather than between two command kinds
    for _ in range(2):
        items.append(cli.item(
            "solve-exact-relaxed",
            ["solve", "--exact", "--relaxed", p("small.json"),
             "-o", p("rphi.json")], 0, f"s{k}", relaxed_ok))
    items += [
        cli.item("verify-relaxed", ["verify", "--relaxed", p("small.json"),
                                    p("rphi.json")],
                 0, f"s{k}", verdict(True)),
        cli.item("verify-reject", ["verify", p("bad.json"), p("ident.json")],
                 2, f"s{k}", verdict(False)),
        cli.item("reduce-partition",
                 ["reduce", "partition", "--values",
                  ",".join(map(str, values)), "-o", p("part.json")],
                 0, f"s{k}", partition_ok),
    ]
    return docs, items


def cli_roundtrip(lib, seed, smoke, tmp: Path):
    import diskmerge.cli  # noqa: F401  (cli is not imported by the package)
    rng = random.Random(f"cli-roundtrip:{seed}")
    workload = Workload([], [], block=10)
    cli = _Cli(lib, tmp, _Stable(), workload.counters)

    def script(rng, k):
        docs, items = _cli_script(cli, rng, k)
        for name, text in docs.items():
            Path(cli.path(f"s{k}-{name}")).write_text(text, encoding="utf-8")
        return items

    for k in range(2 if smoke else 48):
        workload.pool += script(rng, k)
    workload.probes = script(random.Random("cli-probe"), "probe")

    def golden(_):
        digest = _digest(cli.read("sprobe-gen.json"),
                         cli.read("sprobe-out.svg"))
        return [] if digest == CLI_PROBE_DIGEST else \
            [f"probe: gen/render digest {digest} != {CLI_PROBE_DIGEST}"]

    workload.probes.append(Item("golden", lambda: None, golden))
    return workload

