"""Solver behaviour: oracles, the collinear dynamic program, helpers."""

import hashlib
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from diskmerge.core import (Assignment, Disk, DisjointnessMode, Instance,
                            Point, centre_disjoint, verify_proper,
                            verify_uproper)
from diskmerge.fixtures import (FORMULA_FIXTURES, chain_merge_instance,
                                relaxed_only_instance, three_clause_formula)
from diskmerge.formula import grid_embed
from diskmerge.gadgets import GadgetKind, Pose, build_gadget
from diskmerge.reduction import port_harness, reduce_sat
from diskmerge.solvers import (FEASIBLE, INFEASIBLE, collinearity_check,
                               enumerate_proper_assignments, solve_collinear,
                               solve_exact_mcmd, solve_exact_rmcmd)
from diskmerge.transforms import (PartitionInput, equalize_radii,
                                  reduce_partition)

MAX = DisjointnessMode.MAX
SUM = DisjointnessMode.SUM


def mk(*rows):
    return Instance([Disk(i + 1, Point(F(x), F(y)), F(r))
                     for i, (x, y, r) in enumerate(rows)])


def random_collinear(rng, n, tie_centres=False):
    if tie_centres:
        xs = [rng.randint(-6, 6) for _ in range(n)]
    else:
        xs = rng.sample(range(-20, 21), n)
    return Instance([
        Disk(i + 1, Point(F(x), F(0)),
             F(rng.randint(1, 8), rng.randint(1, 4)))
        for i, x in enumerate(xs)])


def iter_idempotent_maps(n):
    """Yield every idempotent self-map of ``{1..n}`` as a target tuple.

    The independent reference for the oracles: it knows nothing of reach,
    prefixes or disjointness."""
    if n == 0:
        yield ()
        return
    for mask in range(1, 1 << n):
        selected = [i + 1 for i in range(n) if mask >> i & 1]
        others = [i for i in range(1, n + 1) if not mask >> (i - 1) & 1]
        target = [0] * n
        for s in selected:
            target[s - 1] = s

        def rec(idx):
            if idx == len(others):
                yield tuple(target)
                return
            j = others[idx]
            for s in selected:
                target[j - 1] = s
                yield from rec(idx + 1)
        yield from rec(0)


def reference_rmcmd(inst, mode):
    """Relaxed optimum by brute force: every idempotent map through
    ``verify_uproper``; most selected disks first, then the smallest
    target tuple.  Returns ``(cardinality, target)`` or ``None``."""
    best = None
    for target in iter_idempotent_maps(inst.n):
        if verify_uproper(inst, Assignment(target), mode).ok:
            key = (-len(set(target)), target)
            if best is None or key < best:
                best = key
    return None if best is None else (-best[0], best[1])


def oracle_corpus():
    """Seeded instances of up to 6 disks, plus pinned ones.  Integer
    centres and radii make exact tangencies (a member exactly at the
    reach bound) and shared centres common."""
    rng = random.Random(606)
    cases = []
    for k in range(64):
        n = rng.randint(1, 6)
        kind = ("tangent", "shared", "collinear", "dense")[k % 4]
        if kind == "tangent":
            rows = [(rng.randint(-3, 3), rng.randint(-3, 3),
                     rng.randint(1, 3)) for _ in range(n)]
        elif kind == "shared":
            centres = [(rng.randint(-3, 3), rng.randint(-3, 3))
                       for _ in range(max(1, n // 2))]
            rows = [rng.choice(centres) + (F(rng.randint(1, 4), 2),)
                    for _ in range(n)]
        elif kind == "collinear":
            cases.append((f"collinear{k}",
                          random_collinear(rng, n, tie_centres=True)))
            continue
        else:
            rows = [(F(rng.randint(-2 * n, 2 * n), 4),
                     F(rng.randint(-2 * n, 2 * n), 4),
                     F(rng.randint(2, 8), 4)) for _ in range(n)]
        cases.append((f"{kind}{k}", mk(*rows)))
    for values, e in (((1, 1), F(1, 2)), ((1, 2), F(1, 3)),
                      ((1, 2), F(1, 2))):
        cases.append((f"partition{values}@{e}", reduce_partition(
            PartitionInput(tuple(F(v) for v in values), e))))
    # the pinned equalize counterexample (tests/test_reductions.py)
    base = mk((F(3, 4), F(-1, 2), 1), (F(1, 2), F(1, 4), 1),
              (F(-3, 4), F(-1, 2), 2), (F(-7, 4), F(-7, 4), 2))
    cases.append(("equalize-base", base))
    cases.append(("equalized", equalize_radii(base, F(1)).instance))
    cases.append(("empty", mk()))
    return cases


ORACLE_CORPUS = oracle_corpus()


def reference_collinear(instance, mode):
    """The collinear DP with a full-scan transition: every window
    ``(t, k)`` with ``t < A`` is examined as a predecessor of the window
    ``(a, b, A, B)``, and each prefix walks its ``A``/``B`` containment
    out from the disk.  The reference for the indexed DP of
    ``solve_collinear``.  Returns ``(status, cardinality, target,
    entries, transitions)``."""
    order = collinearity_check(instance)
    n = instance.n
    if n == 0:  # the empty chain covers the empty line
        return FEASIBLE, 0, (), 0, 0
    pos_of = {disk_id: p for p, disk_id in enumerate(order, start=1)}
    id_at = {p: disk_id for p, disk_id in enumerate(order, start=1)}
    aggs = [()] + [instance._reach(id_at[p]) for p in range(1, n + 1)]
    windows = [[]]
    for p in range(1, n + 1):
        i = id_at[p]
        seq = instance.neighbor_sequence(i)
        wrow = []
        lo = hi = p
        for j, reach in enumerate(aggs[p]):
            if j:
                q = pos_of[seq[j - 1]]
                lo, hi = min(lo, q), max(hi, q)
            if hi - lo == j:
                A, B = p, p
                r2 = reach * reach
                while A > 1 and instance._d2(i, id_at[A - 1]) < r2:
                    A -= 1
                while B < n and instance._d2(i, id_at[B + 1]) < r2:
                    B += 1
                wrow.append((lo, hi, A, B))
            else:
                wrow.append(None)
        windows.append(wrow)

    value, pred, transitions = {}, {}, 0
    for y in range(1, n + 1):
        for j, w in enumerate(windows[y]):
            if w is None:
                continue
            a, b, A, B = w
            key = (b, y, B, j)
            if a == 1:
                value[key], pred[key] = 1, None
                continue
            for t in range(1, A):
                for k, wt in enumerate(windows[t]):
                    transitions += 1
                    if wt is None or wt[1] != a - 1 or wt[3] >= y:
                        continue
                    if mode is SUM and not centre_disjoint(
                            instance._d2(id_at[t], id_at[y]),
                            aggs[t][k], aggs[y][j], mode):
                        continue
                    pkey = (a - 1, t, wt[3], k)
                    prev = value.get(pkey)
                    if prev is not None and prev + 1 > value.get(key, 0):
                        value[key], pred[key] = prev + 1, pkey

    best_key, best_val = None, 0
    for (x, y, z, j), v in value.items():
        if x == n and z == n and v > best_val:
            best_val, best_key = v, (x, y, z, j)
    if best_key is None:
        return INFEASIBLE, 0, None, len(value), transitions
    target = [0] * (n + 1)
    key = best_key
    while key is not None:
        _, y, _, j = key
        i = id_at[y]
        target[i] = i
        for nb in instance.neighbor_sequence(i)[:j]:
            target[nb] = i
        key = pred[key]
    return FEASIBLE, best_val, tuple(target[1:]), len(value), transitions


def dense_line(n):
    """Unit spacing, all radii 3/2: every disk reaches both neighbours."""
    return mk(*[(i, 0, F(3, 2)) for i in range(n)])


def dp_corpus():
    """Seeded collinear lines for the DP reference: criterion-8 sparse
    lines, dense unit lines, lines with coincident centres and a line of
    direction (2, 3) through shared centres."""
    rng = random.Random(707)
    cases = []
    for n in (1, 2, 5, 10, 20, 30, 40):
        for _ in range(3 if n < 30 else 1):
            xs = rng.sample(range(-4 * n, 4 * n + 1), n)
            cases.append((f"sparse{n}", mk(*[
                (x, 0, F(rng.randint(2, 10), 2)) for x in xs])))
    for n in (1, 2, 3, 5, 10, 20, 30):
        cases.append((f"dense{n}", dense_line(n)))
    cases.append(("empty", mk()))
    for k in range(40):
        n = rng.randint(2, 12)
        cases.append((f"coincident{k}",
                      random_collinear(rng, n, tie_centres=True)))
    for k in range(20):
        n = rng.randint(2, 12)
        steps = [rng.randint(-3, 3) for _ in range(rng.randint(1, n - 1))]
        steps += [rng.choice(steps) for _ in range(n - len(steps))]
        cases.append((f"sloped{k}", mk(*[
            (2 * s + F(1, 3), 3 * s - F(1, 2), F(rng.randint(1, 12), 2))
            for s in steps])))
    return cases


DP_CORPUS = dp_corpus()


def bench_lines():
    """Seeded lines of benchmark size: two criterion-8 sparse lines per
    n = 60..120 by 10 and the dense unit lines n = 40..60 by 5."""
    rng = random.Random(808)
    cases = []
    for n in range(60, 121, 10):
        for _ in range(2):
            xs = rng.sample(range(-4 * n, 4 * n + 1), n)
            cases.append((f"sparse{n}", mk(*[
                (x, 0, F(rng.randint(2, 10), 2)) for x in xs])))
    for n in range(40, 61, 5):
        cases.append((f"dense{n}", dense_line(n)))
    return cases


def sloped_lines():
    """Seeded lines of direction (2, 3) and benchmark size, in the style
    of dp_corpus's sloped lines: dense lines n = 40..60 by 5 with one
    step between centres and radii from 4 to 8 (a step is sqrt(13) < 4
    long, so every disk reaches both neighbours), and lines n = 60..120
    by 20 on which about half the centres are shared, spread over n or
    2n steps."""
    rng = random.Random(909)
    cases = []
    for n in range(40, 61, 5):
        cases.append((f"sloped-dense{n}", mk(*[
            (2 * s + F(1, 3), 3 * s - F(1, 2), F(rng.randint(8, 16), 2))
            for s in range(n)])))
    for n in range(60, 121, 20):
        for width in (n // 2, n):
            steps = rng.sample(range(-width, width + 1), n // 2)
            steps += [rng.choice(steps) for _ in range(n - len(steps))]
            rng.shuffle(steps)
            cases.append((f"sloped-shared{n}", mk(*[
                (2 * s + F(1, 3), 3 * s - F(1, 2), F(rng.randint(2, 16), 2))
                for s in steps])))
    return cases


def solve_digest(cases, transitions=True):
    """sha256 over every solve of ``cases`` in both modes: name, mode,
    status, cardinality, target, then ``transitions`` if asked and
    ``entries``."""
    digest = hashlib.sha256()
    for name, inst in cases:
        for mode in (MAX, SUM):
            result = solve_collinear(inst, mode)
            target = result.assignment.target if result.feasible else None
            counters = (result.stats["transitions"],) if transitions else ()
            digest.update(repr((
                name, mode.value, result.status, result.cardinality, target,
                *counters, result.stats["entries"])).encode())
    return digest.hexdigest()


# sha256 of every bench_lines() solve in both modes, recorded once the
# window pass scored each window as it was built and kept only the
# windows some chain reaches
BENCH_LINES_DIGEST = \
    "4ca36037c32525c695a37aecea1f1752540e3524e10661e343b84438b6118fa9"

# the same digest over DP_CORPUS, whose lines have gapped prefixes
DP_CORPUS_DIGEST = \
    "3c697707c16a780617e9832b3cd70e6f13bc1d597487cbafea5cfbb89a090144"

# the same digest over sloped_lines()
SLOPED_LINES_DIGEST = \
    "ded07d3ab0597e651986ad9c522b258fb665a152b611a52a3251fa88f320baa0"

# the same digests without transitions, recorded while every feasible
# window was still scored and put in a bucket
OUTPUT_DIGESTS = {
    "bench_lines":
        "41a8866543e84b26dca149adb7835f12fd0cbc7fca5464412507805a0eed7042",
    "DP_CORPUS":
        "740942a7ee39d0d64a0ef5f0556e7829beb2305da93ea1a93b4cfc9597c196df",
    "sloped_lines":
        "c50a0391d7a6238421b5c5283bb1b928466b7bee07fb3e1307f6e83c05fe1a92",
}


def dense_planar_corpus():
    """Seeded dense planar instances, twelve each of 1 to 9 disks:
    centres on a quarter grid in ``[-n/2, n/2]^2`` and radii ``k/4`` for
    ``k`` in 2..8, so most pairs overlap."""
    rng = random.Random(2601)
    cases = []
    for k in range(108):
        n = k % 9 + 1
        cases.append((f"dense-planar{n}.{k}", mk(*[
            (F(rng.randint(-2 * n, 2 * n), 4),
             F(rng.randint(-2 * n, 2 * n), 4), F(rng.randint(2, 8), 4))
            for _ in range(n)])))
    return cases


def reduction_corpus():
    """The port harness of every gadget kind and the reduced instance of
    every formula fixture."""
    cases = [(f"harness-{kind.value}",
              port_harness(build_gadget(kind, Pose())).instance)
             for kind in GadgetKind]
    for name, fn in sorted(FORMULA_FIXTURES.items()):
        f, rep = fn()
        cases.append((name, reduce_sat(f, grid_embed(f, rep)).instance))
    return cases


def oracle_digest(cases, relaxed_max_n=9):
    """sha256 over both exact oracles in both modes on ``cases``: name,
    mode, status, cardinality, target and the strict ``accepted`` /
    relaxed ``checked`` counter.  The relaxed oracle only runs on
    instances of at most ``relaxed_max_n`` disks."""
    digest = hashlib.sha256()
    for name, inst in cases:
        for mode in (MAX, SUM):
            solvers = [(solve_exact_mcmd, "accepted")]
            if inst.n <= relaxed_max_n:
                solvers.append((solve_exact_rmcmd, "checked"))
            for solve, counter in solvers:
                result = solve(inst, mode, max_n=inst.n)
                target = result.assignment.target if result.feasible \
                    else None
                digest.update(repr((
                    name, mode.value, solve.__name__, result.status,
                    result.cardinality, target,
                    result.stats[counter])).encode())
    return digest.hexdigest()


# sha256 of both oracles over each corpus, recorded before the search's
# disjointness test read conflict rows
ORACLE_DIGESTS = {
    "ORACLE_CORPUS":
        "d91ee26b640194237fc09909ae837649c7c1652b61e7ff27b292c311d3e43c5d",
    "dense_planar":
        "e0da9096ecea539eb9ae9f32b273248c595986653951420a83f38e91e88fc30d",
    "reductions":
        "9ce947a18923c7734817ddc2666736029150898caba2e2ed6655608801ca6461",
}
# sha256 over the repr of every target tuple, in order, that the strict
# enumeration of the whole three_clause reduction yields
THREE_CLAUSE_ENUMERATION_DIGEST = \
    "437e5cacebc2de400ee10e670ac4a1d2926efea1e6f372eb4f9599e6ea7527dd"


@st.composite
def shared_centre_lines(draw):
    """2 to 7 disks on an axis-aligned or sloped line; at least two share
    a centre."""
    n = draw(st.integers(2, 7))
    dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (2, 3), (1, -2)]))
    ox, oy = draw(st.sampled_from([(0, 0), (F(1, 3), F(-1, 2))]))
    steps = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=n - 1,
                          unique=True))
    steps += draw(st.lists(st.sampled_from(steps), min_size=n - len(steps),
                           max_size=n - len(steps)))
    steps = draw(st.permutations(steps))
    radii = draw(st.lists(st.builds(F, st.integers(1, 12),
                                    st.sampled_from([1, 2, 4])),
                          min_size=n, max_size=n))
    return mk(*[(ox + dx * s, oy + dy * s, r)
                for s, r in zip(steps, radii)])


@st.composite
def swallowing_lines(draw):
    """1 to 6 disks on an axis-aligned or sloped line, centres possibly
    shared, with radii in quarters up to the line's extent: a disk may
    strictly cover one end of the line, or both."""
    n = draw(st.integers(1, 6))
    dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (2, 3)]))
    steps = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    extent = max(steps) - min(steps) + 1
    radii = draw(st.lists(st.builds(F, st.integers(1, 4 * extent),
                                    st.just(4)),
                          min_size=n, max_size=n))
    return mk(*[(dx * s, dy * s, r) for s, r in zip(steps, radii)])


# lines of 1 to 3 disks, most with a disk that strictly covers an end of
# the line: its windows that stop short of that end have no predecessor
# or no successor
SWALLOWING_LINES = [
    ("one", mk((0, 0, 1))),
    ("apart", mk((0, 0, F(1, 4)), (1, 0, F(1, 4)))),
    ("last-covers-first", mk((0, 0, F(1, 4)), (1, 0, 3))),
    ("first-covers-last", mk((0, 0, 3), (1, 0, F(1, 4)))),
    ("ids-out-of-order", mk((1, 0, F(1, 4)), (0, 0, F(1, 4)), (2, 0, 5))),
    ("last-covers-all", mk((0, 0, F(1, 2)), (1, 0, F(1, 2)), (2, 0, 5))),
    ("first-covers-all", mk((0, 0, 5), (1, 0, F(1, 2)), (2, 0, F(1, 2)))),
    ("middle-covers-both", mk((0, 0, F(1, 4)), (1, 0, 3),
                              (2, 0, F(1, 4)))),
    ("shared-last", mk((0, 0, F(1, 4)), (1, 0, 3), (1, 0, F(1, 2)))),
    ("shared-first", mk((0, 0, F(1, 2)), (0, 0, 3), (1, 0, F(1, 4)))),
    ("shared-all", mk((0, 0, 1), (0, 0, 2), (0, 0, F(1, 4)))),
    ("sloped-last", mk((0, 0, F(1, 4)), (2, 3, F(1, 4)), (4, 6, 8))),
    ("sloped-first", mk((4, 6, 8), (2, 3, F(1, 4)), (0, 0, F(1, 4)))),
]


def check_against_references(inst):
    """The DP's optimum equals the oracle's, and its status, cardinality,
    reconstruction, tie-break and entries equal the full scan's, with no
    more predecessors examined, in both modes."""
    for mode in (MAX, SUM):
        dp = solve_collinear(inst, mode)
        oracle = solve_exact_mcmd(inst, mode)
        assert (dp.status, dp.cardinality) == \
            (oracle.status, oracle.cardinality)
        if dp.feasible:
            assert verify_proper(inst, dp.assignment, mode).ok
        status, card, target, entries, transitions = \
            reference_collinear(inst, mode)
        got = dp.assignment.target if dp.feasible else None
        assert (dp.status, dp.cardinality, got, dp.stats["entries"]) == \
            (status, card, target, entries)
        assert dp.stats["transitions"] <= transitions


class TestIdempotentMaps:
    @pytest.mark.parametrize("n,count", [(0, 1), (1, 1), (2, 3), (3, 10),
                                         (4, 41)])
    def test_counts(self, n, count):
        # number of idempotent self-maps: sum over k of C(n,k) * k^(n-k)
        maps = list(iter_idempotent_maps(n))
        assert len(maps) == count
        assert len(set(maps)) == count
        for tgt in maps:
            assert all(tgt[t - 1] == t for t in tgt)


class TestOracles:
    def test_empty_instance(self):
        empty = mk()
        assert solve_exact_mcmd(empty).cardinality == 0
        assert solve_exact_rmcmd(empty).cardinality == 0
        assert solve_collinear(empty).cardinality == 0

    def test_single_disk(self):
        inst = mk((0, 0, 1))
        assert solve_exact_mcmd(inst).cardinality == 1

    def test_size_guard(self):
        inst = mk(*[(i * 10, 0, 1) for i in range(5)])
        with pytest.raises(ValueError):
            solve_exact_mcmd(inst, max_n=4)
        with pytest.raises(ValueError):
            solve_exact_rmcmd(inst, max_n=4)

    def test_enumeration_matches_brute_force(self):
        # the pruned enumeration yields exactly the verifier-accepted
        # maps, once each and in ascending target order; the strict
        # optimum is the first of them with the most selected disks
        rng = random.Random(3)
        lines = [(f"line{k}", random_collinear(rng, rng.randint(1, 5),
                                               tie_centres=True))
                 for k in range(20)]
        for name, inst in lines + ORACLE_CORPUS:
            for mode in (MAX, SUM):
                found = [a.target
                         for a in enumerate_proper_assignments(inst, mode)]
                brute = sorted(t for t in iter_idempotent_maps(inst.n)
                               if verify_proper(inst, Assignment(t),
                                                mode).ok)
                assert found == brute, name
                result = solve_exact_mcmd(inst, mode)
                assert result.stats == {"accepted": len(brute)}, name
                if not brute:
                    assert (result.status, result.cardinality,
                            result.assignment) == (INFEASIBLE, 0, None), name
                    continue
                best = max(len(set(t)) for t in brute)
                first = next(t for t in brute if len(set(t)) == best)
                assert (result.status, result.cardinality,
                        result.assignment.target) == \
                    (FEASIBLE, best, first), name

    def test_relaxed_dominates_strict(self):
        rng = random.Random(4)
        for _ in range(10):
            inst = random_collinear(rng, rng.randint(1, 5))
            strict = solve_exact_mcmd(inst)
            relaxed = solve_exact_rmcmd(inst)
            if strict.feasible:
                assert relaxed.feasible
                assert relaxed.cardinality >= strict.cardinality


class TestRelaxedOracle:
    @pytest.mark.parametrize("mode", [MAX, SUM])
    def test_matches_brute_force(self, mode):
        # status, optimum and the lexicographically smallest optimal target
        for name, inst in ORACLE_CORPUS:
            expected = reference_rmcmd(inst, mode)
            result = solve_exact_rmcmd(inst, mode)
            if expected is None:
                assert (result.status, result.cardinality,
                        result.assignment) == (INFEASIBLE, 0, None), name
            else:
                assert (result.status, result.cardinality,
                        result.assignment.target) == \
                    (FEASIBLE,) + expected, name

    def test_counts_search_nodes(self):
        # an isolated disk: the root, then the leaf that selects it
        assert solve_exact_rmcmd(mk((0, 0, 1))).stats == {"checked": 2}
        # the empty instance: the root is the leaf of the empty assignment
        assert solve_exact_rmcmd(mk()).stats == {"checked": 1}

    def test_relaxed_groups_interleave_on_a_line(self):
        # along the line the MAX optimum reads [1, 3, 3, 2, 3, 2, 2]:
        # disk 5 (x = 17/2) merges into disk 3 past disk 6 (x = 8), which
        # merges into disk 2, so no DP over contiguous blocks finds it;
        # both aggregates end at 9/2, the distance from disk 2 to disk 3
        inst = Instance([Disk(i, Point(x, F(0)), r) for i, x, r in (
            (1, F(1, 2), F(1, 2)), (2, F(10), F(5, 4)),
            (3, F(11, 2), F(7, 4)), (4, F(7), F(3, 2)),
            (5, F(17, 2), F(5, 4)), (6, F(8), F(7, 4)),
            (7, F(9), F(3, 2)))])
        relaxed = solve_exact_rmcmd(inst, MAX)
        assert (relaxed.cardinality, relaxed.assignment.target) == \
            (3, (1, 2, 3, 3, 3, 2, 2))
        assert verify_uproper(inst, relaxed.assignment, MAX).ok
        assert solve_exact_rmcmd(inst, SUM).cardinality == 2
        assert solve_collinear(inst, MAX).cardinality == 2
        assert solve_exact_mcmd(inst, MAX).cardinality == 2


class TestOraclesPinned:
    def test_oracle_corpus_pinned(self):
        assert oracle_digest(ORACLE_CORPUS) == \
            ORACLE_DIGESTS["ORACLE_CORPUS"]

    def test_dense_planar_pinned(self):
        assert oracle_digest(dense_planar_corpus()) == \
            ORACLE_DIGESTS["dense_planar"]

    def test_reductions_pinned(self):
        # the relaxed search of a whole reduction outgrows tier-1 from
        # about 70 disks; the strict one runs on all of them
        assert oracle_digest(reduction_corpus(), relaxed_max_n=16) == \
            ORACLE_DIGESTS["reductions"]

    def test_three_clause_enumeration_pinned(self):
        f, rep = three_clause_formula()
        inst = reduce_sat(f, grid_embed(f, rep)).instance
        digest = hashlib.sha256()
        count = 0
        for a in enumerate_proper_assignments(inst):
            digest.update(repr(a.target).encode())
            count += 1
        assert (count, digest.hexdigest()) == \
            (42, THREE_CLAUSE_ENUMERATION_DIGEST)


class TestCollinearityCheck:
    def test_accepts_any_line(self):
        inst = mk((0, 0, 1), (1, 2, 1), (2, 4, 1))
        assert collinearity_check(inst) == (1, 2, 3)

    def test_rejects_triangle(self):
        inst = mk((0, 0, 1), (4, 0, 1), (0, 4, 1))
        assert collinearity_check(inst) is None

    def test_coincident_centres_tie_break_by_id(self):
        # order runs along the line from disk 1; ties broken by id
        inst = mk((1, 0, 1), (0, 0, 1), (0, 0, 2))
        assert collinearity_check(inst) == (1, 2, 3)
        inst = mk((0, 0, 1), (1, 0, 1), (1, 0, 2))
        assert collinearity_check(inst) == (1, 2, 3)


class TestSolveCollinear:
    def test_rejects_non_collinear(self):
        inst = mk((0, 0, 1), (4, 0, 1), (0, 4, 1))
        with pytest.raises(ValueError):
            solve_collinear(inst)

    def test_chain_fixture_optimum(self):
        result = solve_collinear(chain_merge_instance())
        assert result.feasible and result.cardinality == 4

    def test_infeasible_fixture(self):
        result = solve_collinear(relaxed_only_instance())
        assert not result.feasible

    @pytest.mark.parametrize("mode", [MAX, SUM])
    def test_agrees_with_oracle(self, mode):
        rng = random.Random(11)
        for trial in range(60):
            inst = random_collinear(rng, rng.randint(1, 7),
                                    tie_centres=trial % 2 == 0)
            dp = solve_collinear(inst, mode)
            oracle = solve_exact_mcmd(inst, mode)
            assert (dp.status, dp.cardinality) == \
                (oracle.status, oracle.cardinality)
            if dp.assignment is not None:
                assert verify_proper(inst, dp.assignment, mode).ok

    @pytest.mark.parametrize("mode", [MAX, SUM])
    def test_matches_full_scan_reference(self, mode):
        # same optimum, assignment and table as the full scan, and no
        # more predecessors examined
        for name, inst in DP_CORPUS:
            status, card, target, entries, transitions = \
                reference_collinear(inst, mode)
            result = solve_collinear(inst, mode)
            got = result.assignment.target if result.feasible else None
            assert (result.status, result.cardinality, got,
                    result.stats["entries"]) == \
                (status, card, target, entries), name
            assert result.stats["transitions"] <= transitions, name

    def test_bench_lines_pinned(self):
        # optimum, tie-break and both counters, byte for byte
        assert solve_digest(bench_lines()) == BENCH_LINES_DIGEST

    def test_dp_corpus_pinned(self):
        # as above, on the lines where gapped prefixes get no window
        assert solve_digest(DP_CORPUS) == DP_CORPUS_DIGEST

    def test_sloped_lines_pinned(self):
        # as above, on sloped lines of benchmark size, dense or with
        # shared centres
        assert solve_digest(sloped_lines()) == SLOPED_LINES_DIGEST

    @pytest.mark.parametrize("name,cases", [
        pytest.param(name, cases, id=name) for name, cases in (
            ("bench_lines", bench_lines()), ("DP_CORPUS", DP_CORPUS),
            ("sloped_lines", sloped_lines()))])
    def test_outputs_pinned(self, name, cases):
        # optimum, tie-break and entries, whatever transitions counts
        assert solve_digest(cases, transitions=False) == OUTPUT_DIGESTS[name]

    @settings(max_examples=150, deadline=None)
    @given(shared_centre_lines())
    def test_equals_oracle_on_shared_centres(self, inst):
        check_against_references(inst)

    @pytest.mark.parametrize("name,inst", SWALLOWING_LINES,
                             ids=[name for name, _ in SWALLOWING_LINES])
    def test_disk_covering_an_end(self, name, inst):
        check_against_references(inst)

    @settings(max_examples=150, deadline=None)
    @given(swallowing_lines())
    def test_equals_oracle_on_swallowing_lines(self, inst):
        check_against_references(inst)

    def test_reports_transition_counter(self):
        # transitions counts bucket entries examined, about n**3 / 33 on
        # dense lines; the full scan examines 930 and 16,380 windows at
        # n = 10 and 20
        for n, mode, transitions, entries in (
                (10, MAX, 31, 45), (10, SUM, 31, 39),
                (20, MAX, 245, 148), (20, SUM, 241, 129),
                (100, MAX, 30110, 3082), (100, SUM, 29982, 2649),
                (200, MAX, 239523, 11998), (200, SUM, 238979, 10299)):
            inst = dense_line(n)
            stats = solve_collinear(inst, mode).stats
            assert (stats["transitions"], stats["entries"]) == \
                (transitions, entries)
            if n <= 20:
                assert stats["transitions"] < \
                    reference_collinear(inst, mode)[4]
