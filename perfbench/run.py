"""diskmerge benchmark: one seeded workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --smoke [--trace 0|1]

Run from a checkout of the repository: the library is imported from
``src/`` next to this directory, never from an installed copy.  With
``--trace 0`` a run cycles through the workload's item pool for ``--seconds``
of item time (and at least 100 items, so item_p90_ms is defined) and
prints every end-to-end metric of BENCHMARK.json.  With ``--trace 1`` it
runs the pool once untraced and once traced, prints every per-layer
metric, and writes the spans to ``.perfbench-out/``.  ``--all`` runs each
workload in a fresh interpreter and prints a table.  ``--smoke`` uses tiny
inputs and walks the pool once; the benchmark's own tests use it.

The last line of standard output is the JSON result.  Every item's
outputs are checked; a run with failed checks reports ``"correct": false``.

End-to-end times are host-normalized: each is scaled by a fixed stdlib-only
reference kernel timed next to it (see ``HostSpeed``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("sat-reduction", "collinear-dp", "exact-oracle", "cli-roundtrip")
SETUP_REPEATS = 5    # at least, and until SETUP_MIN_S of set-up in all
SETUP_MIN_S = 1.0
MIN_ITEMS = 100      # item_p90_ms needs at least ten items beyond it
WALL_LIMIT_S = 150   # a run ends by then even below MIN_ITEMS
REF_MS = 10.0        # nominal time of reference_kernel
REF_EVERY_S = 0.25   # time the reference kernel again after this long


class SetupError(RuntimeError):
    pass


def import_library():
    """Import ``diskmerge`` afresh from the checkout's ``src/``."""
    for name in [n for n in sys.modules
                 if n == "diskmerge" or n.startswith("diskmerge.")]:
        del sys.modules[name]
    lib = importlib.import_module("diskmerge")
    if Path(lib.__file__).resolve().parent != SRC / "diskmerge":
        raise SetupError(f"imported diskmerge from {lib.__file__}, "
                         f"not from {SRC}")
    return lib


def reference_kernel():
    """Fixed Fraction arithmetic, sorting and dict work of the kind the
    library does, independent of ``diskmerge`` and of the seed: 5-12 ms
    on a 2.1 GHz Xeon vCPU, depending on the host's load."""
    rng = random.Random(0)
    points = [(Fraction(rng.randint(-400, 400), 4),
               Fraction(rng.randint(-400, 400), 4)) for _ in range(24)]
    return {i: sorted(((x - u) ** 2 + (y - v) ** 2, j)
                      for j, (u, v) in enumerate(points))[:8]
            for i, (x, y) in enumerate(points)}


class HostSpeed:
    """Scales wall times to a nominal host speed.

    On a shared VM the speed of a fixed piece of work drifts by up to 2x
    for seconds to minutes at a time, and process CPU time drifts with it.
    The reference kernel slows down with the host but not with a change to
    ``diskmerge``.  Work is bracketed by two kernel timings, and its time
    multiplied by ``scale()`` is what it would take on a host where the
    kernel takes ``REF_MS``.
    """

    def __init__(self):
        reference_kernel()  # warm-up
        self.samples: list = []
        self.taken = 0.0

    def sample(self):
        """Times the kernel; returns the index of the timing."""
        start = perf_counter()
        reference_kernel()
        self.taken = perf_counter()
        self.samples.append(self.taken - start)
        return len(self.samples) - 1

    def mark(self):
        """The index of the timing before the work done next; the kernel
        is timed again when its last timing is older than REF_EVERY_S."""
        if not self.samples or perf_counter() - self.taken > REF_EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def scale(self, mark):
        """The factor for work done between timing ``mark`` and the next:
        the nominal kernel time over the mean of the two timings."""
        return REF_MS / 1000 / statistics.fmean(self.samples[mark:mark + 2])


def build(name, lib, seed, smoke, tmp):
    if name == "sat-reduction":
        return workloads.sat_reduction(lib, seed, smoke)
    if name == "collinear-dp":
        return workloads.collinear_dp(lib, seed, smoke)
    if name == "exact-oracle":
        return workloads.exact_oracle(lib, seed, smoke)
    return workloads.cli_roundtrip(lib, seed, smoke, tmp)


def setup(name, seed, smoke, tmp, host):
    """Import plus input generation, repeated; returns the last workload
    and the median host-normalized set-up time."""
    wall, marks = [], []
    while len(wall) < SETUP_REPEATS or sum(wall) < SETUP_MIN_S:
        marks.append(host.sample())
        start = perf_counter()
        workload = build(name, import_library(), seed, smoke, tmp)
        wall.append(perf_counter() - start)
    host.sample()
    return workload, statistics.median(
        t * host.scale(m) for t, m in zip(wall, marks))


class Tally:
    """Items attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list = []

    def record(self, item, runner):
        """Run ``item`` through ``runner``, check it, return its time."""
        self.attempted += 1
        start = perf_counter()
        try:
            out = runner(item.run)
            elapsed = perf_counter() - start
            bad = item.check(out)
        except Exception:  # an item that raises is a failed item
            elapsed = perf_counter() - start
            bad = [traceback.format_exc(limit=4)]
        if bad:
            self.failed += 1
            self.messages += bad[:2]
        return elapsed


def _direct(run):
    return run()


def timed_loop(workload, tally, host, seconds, smoke, started):
    """Closed loop over the pool; returns each item's wall time and its
    host-normalized time, in seconds."""
    pool = workload.pool
    wall, marks = [], []
    busy = 0.0
    while True:
        i = len(wall)
        if smoke:
            if i == len(pool):
                break
        elif busy >= seconds and i >= MIN_ITEMS:
            break
        elif perf_counter() - started > WALL_LIMIT_S:
            print(f"wall limit reached after {i} items", file=sys.stderr)
            break
        marks.append(host.mark())
        wall.append(tally.record(pool[i % len(pool)], _direct))
        busy += wall[-1]
    host.sample()
    return wall, [t * host.scale(m) for t, m in zip(wall, marks)]


def items_per_s(times, block):
    """Median over the run's whole blocks of items per second, so a burst
    of host contention does not set the run's throughput."""
    rates = [block / sum(times[k:k + block])
             for k in range(0, len(times) - block + 1, block)]
    return statistics.median(rates) if rates else len(times) / sum(times)


def end_to_end(times, block, setup_s):
    return {
        "setup_s": setup_s,
        "items_per_s": items_per_s(times, block),
        "item_p50_ms": 1000 * statistics.median(times),
        "item_p90_ms": 1000 * statistics.quantiles(times, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def per_layer(names, tracer, workload, untraced, traced_s):
    counters = tracer.counters + workload.counters
    self_s = tracer.self_times()
    cli_ms = defaultdict(list)
    for kind, t in untraced:
        cli_ms[kind].append(1000 * t)
    values = {}
    for name in names:
        if name == "core.dist2.hit_ratio":
            calls = counters["core.dist2.calls"]
            values[name] = 1 - counters["core.dist2.pairs"] / calls \
                if calls else 0.0
        elif name == "bench.tracing_overhead_s":
            values[name] = traced_s - sum(t for _, t in untraced)
        elif name.startswith("cli.") and name.endswith(".p50_ms"):
            kind = name[:-len(".p50_ms")]
            values[name] = statistics.median(cli_ms[kind]) \
                if cli_ms[kind] else 0.0
        elif name.endswith(".s"):
            values[name] = self_s.get(name[:-2], 0.0)
        else:
            values[name] = counters[name]
    return values


def run_one(args, spec):
    started = perf_counter()
    if not (SRC / "diskmerge" / "__init__.py").is_file():
        raise SetupError(f"no diskmerge package under {SRC}")
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    host = HostSpeed()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        workload, setup_s = setup(args.workload, args.seed, args.smoke,
                                  Path(tmp), host)
        gc.collect()
        tally = Tally()
        for probe in workload.probes:
            tally.record(probe, _direct)
        # warm-up: the first item once, checked but not timed
        tally.record(workload.pool[0], _direct)

        if not args.trace:
            wall, times = timed_loop(workload, tally, host, args.seconds,
                                     args.smoke, started)
            values = end_to_end(times, workload.block, setup_s)
            wanted = spec["end_to_end"]
            print(f"{args.workload}: item_p50_ms and item_p90_ms over "
                  f"{len(times)} items; unscaled wall item p50 "
                  f"{1000 * statistics.median(wall):.4g} ms, reference "
                  f"kernel median {1000 * statistics.median(host.samples):.4g}"
                  f" ms over {len(host.samples)} timings", file=sys.stderr)
        else:
            items = workload.traced_items()
            untraced = [(item.kind, tally.record(item, _direct))
                        for item in items]
            tracer = tracing.Tracer()
            tracer.install()
            traced_s = sum(tally.record(item, tracer.run_item)
                           for item in items)
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
            wanted = spec["per_layer"]
            values = per_layer([m["name"] for m in wanted], tracer, workload,
                               untraced, traced_s)

    for msg in tally.messages[:10]:
        print(f"check failed: {msg}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def run_all(args, spec):
    """Each workload in a fresh interpreter; a table of its metrics."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=300)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        ratio = result["failed"] / result["attempted"]
        print(f"{name}  ({result['attempted']} items checked, "
              f"failed_ratio {ratio:g})")
        for line in proc.stderr.strip().splitlines():
            print(f"  {line}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:42s} {v['value']:>14.6g} {v['unit']}")
        if not result["correct"]:
            status = 1
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass over the pool")
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.all:
            return run_all(args, spec)
        result = run_one(args, spec)
    except (SetupError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
