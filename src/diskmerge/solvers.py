"""Exact solvers: exhaustive oracles and the collinear dynamic program.

Three engines live here:

* :func:`solve_exact_mcmd` -- optimal solver for the strict rules on tiny
  instances.  It enumerates selected sets and neighbour-prefix choices,
  which covers every assignment the strict verifier can accept (merged
  sets are always neighbour-sequence prefixes), and breaks ties towards
  the lexicographically smallest target map.
* :func:`solve_exact_rmcmd` -- optimal solver for the relaxed rules by
  depth-first branch and bound.  It resolves disks in id order and tries
  targets in ascending id, so leaves come out in lexicographic order of
  the target tuple; it prunes only subtrees that hold no accepted map
  (reach bound, disjointness of partial aggregates) or no map better
  than the best found (selected + undecided at most the best
  cardinality).  The first optimum found is therefore the
  lexicographically smallest one, the same tie-break as the strict
  oracle.
* :func:`solve_collinear` -- polynomial dynamic program for instances
  whose centres are collinear, with full solution reconstruction.

:func:`enumerate_proper_assignments` exposes the strict-rules search as a
generator; the reduction tests use it to enumerate all accepted
assignments of gadget instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .core import (
    Assignment,
    DisjointnessMode,
    Instance,
    _relaxed_walk,
    cardinality,
    centre_disjoint,
    verify_proper,
)

FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"


@dataclass
class SolveResult:
    status: str
    cardinality: int
    assignment: Optional[Assignment]
    stats: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


@dataclass(frozen=True)
class MergeWindow:
    """Positional extent of a prefix merge for a collinear instance.

    ``a``/``b`` are the left-most/right-most positions among the selected
    disk and its merged prefix; ``A``/``B`` are the left-most/right-most
    positions whose centres lie strictly inside the aggregate disk.
    """

    a: int
    b: int
    A: int
    B: int


def enumerate_proper_assignments(
    instance: Instance,
    mode: DisjointnessMode = DisjointnessMode.MAX,
) -> Iterator[Assignment]:
    """Yield every assignment accepted by the strict verifier.

    Search strategy: any accepted assignment selects some set of disks and
    merges a neighbour-sequence prefix into each of them, the prefixes
    partitioning the remaining disks.  The search repeatedly resolves the
    smallest undecided disk, either selecting it or selecting the disk
    whose prefix will absorb it, so each accepted assignment is produced
    exactly once.
    """
    n = instance.n
    if n == 0:
        yield Assignment(())
        return
    reach = [()] + [instance._reach(i) for i in range(1, n + 1)]
    seqs = [()] + [instance.neighbor_sequence(i) for i in range(1, n + 1)]

    target: list[int] = [0] * (n + 1)  # 0 = undecided
    committed: list[int] = []          # selected disks, in commit order
    agg: dict[int, int] = {}           # scaled aggregate radii

    def commit_ok(i: int, j: int) -> bool:
        """Can disk ``i`` be selected with prefix length ``j`` right now?"""
        if target[i]:
            return False
        if j >= len(reach[i]):
            return False
        if any(target[p] for p in seqs[i][:j]):
            return False
        return all(centre_disjoint(instance._d2(i, s), agg[s], reach[i][j],
                                   mode) for s in committed)

    def apply(i: int, j: int) -> None:
        target[i] = i
        for p in seqs[i][:j]:
            target[p] = i
        committed.append(i)
        agg[i] = reach[i][j]

    def undo(i: int, j: int) -> None:
        target[i] = 0
        for p in seqs[i][:j]:
            target[p] = 0
        committed.pop()
        del agg[i]

    def rec(start: int):
        i = start
        while i <= n and target[i]:
            i += 1
        if i > n:
            yield Assignment(tuple(target[1:]))
            return
        # i selected with any feasible prefix …
        for j in range(0, len(reach[i])):
            if commit_ok(i, j):
                apply(i, j)
                yield from rec(i + 1)
                undo(i, j)
        # … or absorbed by some other disk t whose prefix covers i.
        for t in range(1, n + 1):
            if t == i or target[t]:
                continue
            for j in range(seqs[t].index(i) + 1, len(reach[t])):
                if commit_ok(t, j):
                    apply(t, j)
                    yield from rec(i + 1)
                    undo(t, j)

    yield from rec(1)


def solve_exact_mcmd(
    instance: Instance,
    mode: DisjointnessMode = DisjointnessMode.MAX,
    max_n: int = 9,
) -> SolveResult:
    """Optimal strict-rules solver by exhaustive search (tiny instances).

    Returns the maximum-cardinality accepted assignment, ties broken by the
    lexicographically smallest target tuple.  ``INFEASIBLE`` when no
    assignment is accepted.
    """
    n = instance.n
    if n > max_n:
        raise ValueError(f"instance size {n} exceeds oracle limit {max_n}")
    if n == 0:
        return SolveResult(FEASIBLE, 0, Assignment(()))
    best: Optional[tuple[int, tuple[int, ...]]] = None
    count = 0
    for assignment in enumerate_proper_assignments(instance, mode):
        count += 1
        card = cardinality(assignment)
        key = (-card, assignment.target)
        if best is None or key < best:
            best = key
    if best is None:
        return SolveResult(INFEASIBLE, 0, None, {"accepted": 0})
    card = -best[0]
    return SolveResult(FEASIBLE, card, Assignment(best[1]), {"accepted": count})


def _relaxed_reach_bounds(instance: Instance) -> list[int]:
    """Upper bound ``U_t`` on the aggregate radius of each disk ``t`` under
    the relaxed rule, in units of ``1/L`` (index 0 unused).

    ``U_t`` is the least fixed point of ``U = r_t + sum r_j`` over the
    ``j != t`` with ``_d2(t, j) <= U**2``.  Every member of a walk that
    ``_relaxed_walk`` accepts lies within the aggregate of the members
    before it, so by induction within ``U_t``: a disk ``j`` can merge into
    ``t`` only if ``_d2(t, j) <= U_t**2``.
    """
    n, r = instance.n, instance._r
    bounds = [0]
    for t in range(1, n + 1):
        bound = r[t]
        while True:
            grown = r[t] + sum(r[j] for j in range(1, n + 1) if j != t
                               and instance._d2(t, j) <= bound * bound)
            if grown == bound:
                break
            bound = grown
        bounds.append(bound)
    return bounds


def solve_exact_rmcmd(
    instance: Instance,
    mode: DisjointnessMode = DisjointnessMode.MAX,
    max_n: int = 9,
) -> SolveResult:
    """Optimal relaxed-rules solver by exact branch and bound.

    The search resolves the undecided disks in id order and tries their
    targets in ascending id: the disk itself (select it), or a disk ``t``
    that is, or becomes, selected.  Leaves therefore come out in
    lexicographic order of the target tuple.  Three prunes are exact:

    * reach -- ``i`` may merge into ``t`` only if ``_d2(t, i) <= U_t**2``
      (:func:`_relaxed_reach_bounds`);
    * disjointness -- aggregates only grow as members are added, so a
      :func:`centre_disjoint` failure on partial aggregates is final;
    * cardinality -- a subtree whose ``selected + undecided`` is at most
      the best cardinality found is cut.  Every leaf found later is
      lexicographically larger, so cutting ties keeps the tie-break.

    ``_relaxed_walk`` is not monotone as members are added, so each
    member set is walked only at a leaf.  Returns the maximum-cardinality
    accepted assignment, ties broken by the lexicographically smallest
    target tuple, or ``INFEASIBLE``.  ``stats["checked"]`` counts search
    nodes.
    """
    n = instance.n
    if n > max_n:
        raise ValueError(f"instance size {n} exceeds oracle limit {max_n}")
    if n == 0:
        return SolveResult(FEASIBLE, 0, Assignment(()))
    bounds = _relaxed_reach_bounds(instance)
    d2 = [[0] * (n + 1)] + [[0] + [instance._d2(i, j)
                                   for j in range(1, n + 1)]
                            for i in range(1, n + 1)]
    # candidate targets of each disk, ascending: itself or any t in reach
    cands = [()] + [tuple(t for t in range(1, n + 1)
                          if t == i or d2[t][i] <= bounds[t] * bounds[t])
                    for i in range(1, n + 1)]
    r = instance._r
    target = [0] * (n + 1)              # 0 = undecided
    agg = [0] * (n + 1)                 # partial aggregates of selected disks
    members: list[list[int]] = [[] for _ in range(n + 1)]
    selected: list[int] = []
    best_card = 0
    best: Optional[tuple[int, ...]] = None
    checked = 0

    def rec(i: int, undecided: int) -> None:
        nonlocal best_card, best, checked
        checked += 1
        if len(selected) + undecided <= best_card:
            return
        while i <= n and target[i]:
            i += 1
        if i > n:
            if all(_relaxed_walk(instance, t, members[t])[1] is None
                   for t in selected if members[t]):
                best_card, best = len(selected), tuple(target[1:])
            return
        for t in cands[i]:
            fresh = not target[t]      # t == i, or t > i: t gets selected
            if not fresh and target[t] != t:
                continue               # t is already merged elsewhere
            target[i] = target[t] = t
            if fresh:
                agg[t] = r[t]
                selected.append(t)
            if t != i:
                agg[t] += r[i]
                members[t].append(i)
            if all(s == t or centre_disjoint(d2[t][s], agg[t], agg[s], mode)
                   for s in selected):
                rec(i + 1, undecided - (2 if fresh and t != i else 1))
            if t != i:
                agg[t] -= r[i]
                members[t].pop()
            if fresh:
                selected.pop()
                target[t] = 0
            target[i] = 0

    rec(1, n)
    if best is None:
        return SolveResult(INFEASIBLE, 0, None, {"checked": checked})
    return SolveResult(FEASIBLE, best_card, Assignment(best),
                       {"checked": checked})


# ---------------------------------------------------------------------------
# Collinear dynamic program
# ---------------------------------------------------------------------------


def collinearity_check(instance: Instance) -> Optional[tuple[int, ...]]:
    """If all centres are collinear, return the ids ordered along the line
    (ties broken by id); otherwise return ``None``."""
    n = instance.n
    ids = list(range(1, n + 1))
    if n <= 1:
        return tuple(ids)
    xs, ys = instance._x, instance._y  # scaled ints
    direction = None
    for i in ids[1:]:
        if xs[i] != xs[1] or ys[i] != ys[1]:
            direction = (xs[i] - xs[1], ys[i] - ys[1])
            break
    if direction is None:
        return tuple(ids)  # all centres coincide
    dx, dy = direction
    proj = {}
    for i in ids:
        vx, vy = xs[i] - xs[1], ys[i] - ys[1]
        if vx * dy - vy * dx != 0:
            return None
        proj[i] = vx * dx + vy * dy
    ids.sort(key=lambda i: (proj[i], i))
    return tuple(ids)


def solve_collinear(
    instance: Instance,
    mode: DisjointnessMode = DisjointnessMode.MAX,
) -> SolveResult:
    """Optimal strict-rules solver for collinear instances.

    Dynamic program over states ``(x, y, z)``: the first ``x`` disks along
    the line are fully assigned, ``y`` is the right-most selected disk and
    ``z`` the right-most disk whose centre its aggregate covers.  States
    additionally track the prefix length of ``y`` so that the ``SUM``
    disjointness rule can be applied exactly.

    There are at most ``n^2`` windows, one per position and feasible
    prefix length.  They are indexed by their right end, so a transition
    into window ``w`` examines only the windows that end at ``w.a - 1``
    and belong to a disk left of ``w.A``: at most ``n^2`` of them, so
    ``O(n^4)`` in all, and about ``n^3`` on dense unit-spaced lines.
    ``stats["transitions"]`` counts those bucket entries examined and
    ``stats["entries"]`` the states reached.
    """
    order = collinearity_check(instance)
    if order is None:
        raise ValueError("instance is not collinear")
    n = instance.n
    if n == 0:
        return SolveResult(FEASIBLE, 0, Assignment(()), {"transitions": 0})

    pos_of = {disk_id: p for p, disk_id in enumerate(order, start=1)}
    # positional views: position -> disk id
    id_at = {p: disk_id for p, disk_id in enumerate(order, start=1)}

    # feasible windows and aggregates per (position, prefix length).  A
    # window may be None: with coincident centres a prefix can cover a
    # non-contiguous range of positions (a same-centre sibling is skipped);
    # such a prefix can never be completed to a full valid assignment, so
    # the DP ignores it.
    aggs = [()] + [instance._reach(id_at[p]) for p in range(1, n + 1)]
    windows: list[list[Optional[MergeWindow]]] = [[]]
    for p in range(1, n + 1):
        i = id_at[p]
        seq = instance.neighbor_sequence(i)
        wrow: list[Optional[MergeWindow]] = []
        # the reach grows strictly with j and distances grow away from p
        # along the line, so A only moves left and B only moves right
        lo = hi = A = B = p
        for j, reach in enumerate(aggs[p]):
            if j:
                q = pos_of[seq[j - 1]]
                lo, hi = min(lo, q), max(hi, q)
            if hi - lo == j:
                r2 = reach * reach
                while A > 1 and instance._d2(i, id_at[A - 1]) < r2:
                    A -= 1
                while B < n and instance._d2(i, id_at[B + 1]) < r2:
                    B += 1
                wrow.append(MergeWindow(lo, hi, A, B))
            else:
                wrow.append(None)
        windows.append(wrow)

    # feasible windows by right end b, in ascending (t, k) order: a
    # predecessor of window w ends at w.a - 1 and starts left of w.A
    ending_at: list[list[tuple[int, int, MergeWindow]]] = [
        [] for _ in range(n + 1)]
    for t in range(1, n + 1):
        for k, wt in enumerate(windows[t]):
            if wt is not None:
                ending_at[wt.b].append((t, k, wt))

    value: dict[tuple[int, int, int, int], int] = {}
    pred: dict[tuple[int, int, int, int], Optional[tuple[int, int, int, int]]] = {}
    transitions = 0

    for y in range(1, n + 1):
        for j in range(len(windows[y])):
            w = windows[y][j]
            if w is None:
                continue
            key = (w.b, y, w.B, j)
            if w.a == 1:
                value[key] = 1
                pred[key] = None
                continue
            for t, k, wt in ending_at[w.a - 1]:
                if t >= w.A:
                    break
                transitions += 1
                # t < w.A and wt.B < y: neither centre lies strictly
                # inside the other aggregate, which is the MAX rule
                if wt.B >= y:
                    continue
                if mode is DisjointnessMode.SUM and \
                        not centre_disjoint(
                            instance._d2(id_at[t], id_at[y]),
                            aggs[t][k], aggs[y][j], mode):
                    continue
                pkey = (w.a - 1, t, wt.B, k)
                prev = value.get(pkey)
                if prev is not None and prev + 1 > value.get(key, 0):
                    value[key] = prev + 1
                    pred[key] = pkey

    best_key = None
    best_val = 0
    for (x, y, z, j), v in value.items():
        if x == n and z == n and v > best_val:
            best_val, best_key = v, (x, y, z, j)

    stats = {"transitions": transitions, "entries": len(value)}
    if best_key is None:
        return SolveResult(INFEASIBLE, 0, None, stats)

    # reconstruct: walk predecessor chain, each state contributes one
    # selected disk with its prefix.
    target = [0] * (n + 1)
    key = best_key
    while key is not None:
        _, y, _, j = key
        i = id_at[y]
        target[i] = i
        for nb in instance.neighbor_sequence(i)[:j]:
            target[nb] = i
        key = pred[key]
    assignment = Assignment(tuple(target[1:]))
    report = verify_proper(instance, assignment, mode)
    if not report.ok:  # pragma: no cover - internal consistency guard
        raise AssertionError(
            f"DP reconstruction failed verification: {report.violations}")
    return SolveResult(FEASIBLE, best_val, assignment, stats)
