"""The traced run: spans and counters around the library's public callables.

Wrappers are installed from here at run time, only in the traced run, and
nothing under ``src/`` changes.  A wrapper replaces the original object in
every ``diskmerge.*`` module namespace that holds it, so calls between
library modules (``reduce_sat`` calling ``assemble``, ``solve_collinear``
calling ``verify_proper``) are traced too.  Counters come only from public
results and arguments, never from private attributes.

A span is ``(name, start, end, parent)``; ``parent`` is the index of the
enclosing span, -1 for none.  Every item runs inside a ``bench.item`` span,
so all spans of one item share that root.  Self time is a span's duration
minus the durations of its direct children (calls are nested and
single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import json
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

# (module, function, span name); Instance methods are wrapped in install()
_SPANS = (
    ("core", "verify_proper", "core.verify_proper"),
    ("core", "verify_uproper", "core.verify_uproper"),
    ("solvers", "solve_collinear", "solvers.solve_collinear"),
    ("solvers", "collinearity_check", "solvers.collinearity_check"),
    ("solvers", "solve_exact_mcmd", "solvers.solve_exact_mcmd"),
    ("solvers", "solve_exact_rmcmd", "solvers.solve_exact_rmcmd"),
    ("reduction", "reduce_sat", "reduction.reduce_sat"),
    ("reduction", "assemble", "reduction.assemble"),
    ("reduction", "build_assignment_from_sat",
     "reduction.build_assignment_from_sat"),
    ("reduction", "extract_sat_assignment",
     "reduction.extract_sat_assignment"),
    ("gadgets", "build_gadget", "gadgets.build_gadget"),
    ("formula", "grid_embed", "formula.grid_embed"),
    ("serialization", "parse_instance", "serialization.parse_instance"),
    ("serialization", "serialize_instance",
     "serialization.serialize_instance"),
    ("serialization", "parse_assignment", "serialization.parse_assignment"),
    ("serialization", "serialize_assignment",
     "serialization.serialize_assignment"),
    ("svg", "render_svg", "svg.render_svg"),
    ("transforms", "equalize_radii", "transforms.equalize_radii"),
    ("transforms", "reduce_partition", "transforms.reduce_partition"),
    ("cli", "run", "cli.run"),
)


def _count_result(counters, name, args, result):
    """Counters read from a call's public arguments and result."""
    if name == "solvers.solve_collinear":
        counters["solvers.dp.transitions"] += result.stats["transitions"]
        counters["solvers.dp.entries"] += result.stats.get("entries", 0)
    elif name == "solvers.solve_exact_mcmd":
        counters["solvers.mcmd.accepted"] += result.stats.get("accepted", 0)
    elif name == "solvers.solve_exact_rmcmd":
        counters["solvers.rmcmd.checked"] += result.stats.get("checked", 0)
    elif name == "reduction.assemble":
        counters["reduction.assemble.disks"] += result.instance.n
    elif name.startswith("serialization.serialize") or \
            name == "svg.render_svg":
        counters[name + ".bytes"] += len(result)
    elif name.startswith("serialization.parse"):
        counters[name + ".bytes"] += len(args[0])


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counters: Counter = Counter()
        self.active = False
        # per live instance, keyed by id: a sort is the first neighbour
        # request for a disk, a pair the first distance request for it
        self._seen: dict = {}
        self._root = self.span("bench.item", lambda run: run())

    def span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            idx = len(tracer.spans)
            tracer.spans.append(None)
            tracer.stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.spans[idx] = (name, start, perf_counter(), parent)
                tracer.stack.pop()
            tracer.counters[name + ".calls"] += 1
            _count_result(tracer.counters, name, args, result)
            return result

        return wrapper

    def _per_instance(self, inst):
        """(weakref, disks sorted, pairs requested) of a live instance."""
        key = id(inst)
        entry = self._seen.get(key)
        if entry is None or entry[0]() is not inst:
            ref = weakref.ref(inst, lambda _: self._seen.pop(key, None))
            entry = self._seen[key] = (ref, set(), set())
        return entry

    def neighbor_sequence(self, fn):
        wrapped = self.span("core.neighbor_sequence", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(inst, i):
            if tracer.active:
                disks = tracer._per_instance(inst)[1]
                if i not in disks:
                    disks.add(i)
                    tracer.counters["core.neighbor_sequence.sorts"] += 1
            return wrapped(inst, i)

        return wrapper

    def dist2(self, fn):
        """Counter only: a span per distance would cost more than the
        distance itself."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(inst, i, j):
            if tracer.active:
                tracer.counters["core.dist2.calls"] += 1
                pairs = tracer._per_instance(inst)[2]
                pair = (i, j) if i < j else (j, i)
                if pair not in pairs:
                    pairs.add(pair)
                    tracer.counters["core.dist2.pairs"] += 1
            return fn(inst, i, j)

        return wrapper

    def install(self):
        """Replace each traced callable in every loaded diskmerge module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "diskmerge" or n.startswith("diskmerge.")]
        for modname, attr, name in _SPANS:
            owner = sys.modules.get(f"diskmerge.{modname}")
            if owner is None:  # never imported, so never called
                continue
            orig = getattr(owner, attr)
            wrapper = self.span(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
        inst = sys.modules["diskmerge.core"].Instance
        inst.neighbor_sequence = self.neighbor_sequence(
            inst.neighbor_sequence)
        inst.dist2 = self.dist2(inst.dist2)

    def run_item(self, run):
        """Trace one item under a ``bench.item`` root span; calls made
        outside items, such as output checks, are not traced."""
        self.active = True
        try:
            return self._root(run)
        finally:
            self.active = False

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            totals[name] += end - start - covered
        return totals

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
