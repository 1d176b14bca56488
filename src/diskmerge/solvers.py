"""Exact solvers: exhaustive oracles and the collinear dynamic program.

Two engines live here:

* :func:`_search` -- one exact depth-first search over assignments for
  tiny instances, under the strict or the relaxed rule.  It resolves
  disks in id order and tries their targets in ascending id, so leaves
  come out in lexicographic order of the target tuple, and it prunes
  only subtrees that hold no accepted assignment (reach, disjointness of
  partial aggregates) or, when optimising the relaxed rule, none better
  than the best found.  Its disjointness test reads *conflict rows*,
  built once per search: each disk's row holds only the disks that can
  fail centre-disjointness with it at some node, so pairs too far apart
  to fail are never tested.  Three thin wrappers sit on it:
  :func:`enumerate_proper_assignments` yields every strictly accepted
  assignment, and :func:`solve_exact_mcmd` / :func:`solve_exact_rmcmd`
  return the optimum under the strict / relaxed rule, ties broken
  towards the lexicographically smallest target tuple.
* :func:`solve_collinear` -- polynomial dynamic program for instances
  whose centres are collinear, with full solution reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .core import (
    Assignment,
    DisjointnessMode,
    Instance,
    _close_pairs,
    centre_disjoint,
    verify_proper,
)

FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"

MAX_N = 9  # the exact oracles' default size limit


@dataclass
class SolveResult:
    status: str
    cardinality: int
    assignment: Optional[Assignment]
    stats: dict = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def _search(instance: Instance, mode: DisjointnessMode, relaxed: bool,
            stats: dict) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Depth-first search over assignments; yields ``(cardinality,
    target)`` for every accepted leaf, in lexicographic order of the
    target tuple.

    The search resolves the smallest undecided disk ``i`` and tries its
    candidate targets ``t`` in ascending id: ``i`` itself (select it), or
    a disk that is, or becomes, selected and can reach ``i``.  Under the
    strict rule ``t`` can reach ``i`` when ``i`` lies in a feasible prefix
    of ``t``'s neighbour sequence, and attaching ``i`` merges the rest of
    that prefix through ``i``, all of which must still be undecided.
    Under the relaxed rule ``t`` can reach ``i`` when ``_d2(t, i) <=
    U_t**2``, and attaching merges ``i`` alone.  ``U_t`` is the last
    aggregate of ``t``'s relaxed reach walk (``Instance._reach`` with
    ``strict=False``): every member of a group that the relaxed rule
    accepts lies within the aggregate of the members before it, so by
    induction within ``U_t``.  Both tables read only the neighbours that
    these walks take.  Each leaf's target tuple fixes every branch
    taken, so no assignment is reached twice.

    Aggregates only grow as members are added, so a
    :func:`centre_disjoint` failure on partial aggregates is final; every
    pair is checked after its last growth, so a strict leaf is accepted
    as is.  The relaxed rule is not monotone in a group's members, so a
    relaxed leaf walks each group as :func:`verify_uproper` does:
    ``Instance._reach`` over its members in ``(d2, id)`` order must take
    them all.  The relaxed search is an optimiser: it cuts a
    subtree whose ``selected + undecided`` is at most the best cardinality
    found (-1 before the first leaf, so the empty leaf of ``n == 0`` is
    kept), so each leaf it yields beats the one before.
    ``stats["checked"]`` counts search nodes once the search is done.

    The disjointness check reads conflict rows: ``rows[t]`` maps each
    disk ``s`` that can fail centre-disjointness with ``t`` to ``_d2(t,
    s)``.  They are the ``_close_pairs`` of the last aggregates ``U`` of
    the walks under the rule, which bound every aggregate a disk reaches
    in the search, so a pair outside them is centre-disjoint at every
    node.  The check loops over the shorter of the row and the selected
    disks: the row's disks with a nonzero ``agg``, which are exactly the
    selected ones (radii are positive and backtracking restores ``agg``
    to 0), or each selected disk looked up in the row.  It calls no
    ``_d2``, and on a dense near-clique, whose rows hold almost every
    disk, it tests no more pairs than a check of all of them.  Building
    the rows reads each disk's walk out to its ``U`` (``2U`` under SUM).
    A disk whose ``U`` spans the instance, such as an anchor of
    ``reduce_partition`` under the relaxed rule, reads its whole walk
    and its row holds every disk; when most disks are like that, the
    rows hold O(n²) pairs.
    """
    n, r = instance.n, instance._r
    # candidate targets of each disk i as (t, k), ascending in t: i itself
    # (k = 0), or a t whose walk under the rule takes i as its k-th
    # neighbour; strict: attaching i merges t's first k neighbours
    reach = [()] + [instance._reach(t, not relaxed) for t in range(1, n + 1)]
    seqs = [()] + [instance._neighbor_prefix(t, len(reach[t]) - 1)
                   for t in range(1, n + 1)]
    covers: list[list[tuple[int, int]]] = [[(i, 0)] for i in range(n + 1)]
    for t in range(1, n + 1):
        for k, i in enumerate(seqs[t], start=1):
            covers[i].append((t, k))
    cands = [tuple(sorted(c)) for c in covers]
    # conflict rows: rows[t][s] = _d2(t, s) for every s that can fail
    # centre-disjointness with t once both aggregates are at most their U
    rows: list[dict[int, int]] = [{} for _ in range(n + 1)]
    bounds = {t: reach[t][-1] for t in range(1, n + 1)}
    for t, s, d2 in _close_pairs(instance, bounds, mode):
        rows[t][s] = rows[s][t] = d2
    target = [0] * (n + 1)              # 0 = undecided
    agg = [0] * (n + 1)                 # partial aggregates of selected disks
    members: list[list[int]] = [[] for _ in range(n + 1)]
    selected: list[int] = []
    best_card = -1                      # the empty leaf of n == 0 counts
    checked = 0

    def clashes(t: int, grown: int) -> bool:
        # t at aggregate grown fails centre-disjointness with a selected disk
        row = rows[t]
        if len(row) < len(selected):
            for s, d2 in row.items():
                a = agg[s]
                if a and not centre_disjoint(d2, grown, a, mode):
                    return True
            return False
        for s in selected:
            d2 = row.get(s)
            if d2 is not None and not centre_disjoint(d2, grown, agg[s], mode):
                return True
        return False

    def reached(t: int) -> bool:
        # the relaxed walk over t's members, in (d2, id) order, takes all
        pairs = sorted((instance._d2(t, j), j) for j in members[t])
        return len(instance._reach(t, False, pairs)) > len(pairs)

    def rec(i: int, undecided: int):
        nonlocal best_card, checked
        checked += 1
        if relaxed and len(selected) + undecided <= best_card:
            return
        while i <= n and target[i]:
            i += 1
        if i > n:
            if not relaxed or all(reached(t) for t in selected
                                   if members[t]):
                best_card = len(selected)
                yield best_card, tuple(target[1:])
            return
        for t, k in cands[i]:
            fresh = not target[t]      # t == i, or t > i: t gets selected
            if not fresh and target[t] != t:
                continue               # t is already merged elsewhere
            if t == i:
                new, grown = (), r[i]
            elif relaxed:
                new, grown = (i,), (r[t] if fresh else agg[t]) + r[i]
            else:
                new, grown = seqs[t][len(members[t]):k], reach[t][k]
                if any(target[j] for j in new):
                    continue
            if clashes(t, grown):
                continue
            previous = agg[t]
            target[t] = t
            for j in new:
                target[j] = t
            members[t].extend(new)
            agg[t] = grown
            if fresh:
                selected.append(t)
            yield from rec(i + 1, undecided - len(new) - fresh)
            if fresh:
                selected.pop()
                target[t] = 0
            agg[t] = previous
            del members[t][len(members[t]) - len(new):]
            for j in new:
                target[j] = 0

    yield from rec(1, n)
    stats["checked"] = checked


def enumerate_proper_assignments(
    instance: Instance,
    mode: DisjointnessMode = DisjointnessMode.MAX,
) -> Iterator[Assignment]:
    """Yield every assignment accepted by the strict verifier, once each,
    in ascending order of the target tuple (see :func:`_search`)."""
    for _, target in _search(instance, mode, False, {}):
        yield Assignment(target)


def solve_exact_mcmd(
    instance: Instance,
    mode: DisjointnessMode = DisjointnessMode.MAX,
    max_n: int = MAX_N,
) -> SolveResult:
    """Optimal strict-rules solver by exhaustive search (tiny instances).

    Returns the maximum-cardinality accepted assignment, ties broken by the
    lexicographically smallest target tuple: the first leaf of maximum
    cardinality that :func:`_search` yields.  ``INFEASIBLE`` when no
    assignment is accepted.  ``stats["accepted"]`` counts the accepted
    assignments.  The empty instance has one, the empty assignment, so it
    is ``FEASIBLE`` with cardinality 0 and ``{"accepted": 1}``.  The
    search nests one generator per decision, so from about 1,000 disks
    (Python's recursion limit) it can raise :class:`RecursionError`.
    """
    n = instance.n
    if n > max_n:
        raise ValueError(f"instance size {n} exceeds oracle limit {max_n}")
    best: Optional[tuple[int, ...]] = None
    best_card = count = 0
    for card, target in _search(instance, mode, False, {}):
        count += 1
        if best is None or card > best_card:
            best_card, best = card, target
    if best is None:
        return SolveResult(INFEASIBLE, 0, None, {"accepted": 0})
    return SolveResult(FEASIBLE, best_card, Assignment(best),
                       {"accepted": count})


def solve_exact_rmcmd(
    instance: Instance,
    mode: DisjointnessMode = DisjointnessMode.MAX,
    max_n: int = MAX_N,
) -> SolveResult:
    """Optimal relaxed-rules solver by exact branch and bound.

    Each leaf the relaxed :func:`_search` yields beats the one before, and
    its cardinality cut keeps ties out, so the last leaf is the
    maximum-cardinality accepted assignment with the lexicographically
    smallest target tuple.  ``INFEASIBLE`` when no assignment is accepted.
    ``stats["checked"]`` counts search nodes.  The empty instance is one
    node, the leaf of the empty assignment: ``FEASIBLE`` with cardinality
    0 and ``{"checked": 1}``.  The search has the depth limit of
    :func:`solve_exact_mcmd`.
    """
    n = instance.n
    if n > max_n:
        raise ValueError(f"instance size {n} exceeds oracle limit {max_n}")
    stats: dict = {}
    best: Optional[tuple[int, tuple[int, ...]]] = None
    for best in _search(instance, mode, True, stats):
        pass
    if best is None:
        return SolveResult(INFEASIBLE, 0, None, stats)
    return SolveResult(FEASIBLE, best[0], Assignment(best[1]), stats)


# ---------------------------------------------------------------------------
# Collinear dynamic program
# ---------------------------------------------------------------------------


def collinearity_check(instance: Instance) -> Optional[tuple[int, ...]]:
    """If all centres are collinear, return the ids ordered along the line
    (ties broken by id); otherwise return ``None``."""
    ids = list(range(1, instance.n + 1))
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

    The paper's dynamic program runs over states ``(x, y, z)`` plus a
    prefix length ``j``: the first ``x`` disks along the line are fully
    assigned, ``y`` is the right-most selected disk, ``z`` the right-most
    disk whose centre its aggregate covers, and ``j`` the length of
    ``y``'s prefix, which the ``SUM`` disjointness rule needs.  Such a
    state is fixed by its window ``(y, j)``: the outermost positions of
    the disk and its prefix (``a``, ``b``) and of the centres strictly
    inside its aggregate (``A``, ``B``), so ``x = b`` and ``z = B``.
    A prefix whose positions leave a gap (a skipped same-centre sibling)
    has no window, since no assignment completes it.  There are at most
    ``n^2`` windows, one per position and feasible prefix length.  The
    DP finds a longest chain of windows that starts at ``a = 1`` and
    ends at ``b = n``, in which each window starts one past the ``b`` of
    the window before and is centre-disjoint from it.

    One pass builds the windows in ascending ``(y, j)`` and scores each
    as it is built.  A predecessor of ``(a, b, A, B)`` ends at ``a - 1``
    and belongs to a disk ``t < A <= y``, so it was scored on an earlier
    ``y``.  Indexed by right end, the transition examines only those
    windows, at most ``n^2``, so ``O(n^4)`` in all.  One rule keeps out
    the windows that no chain can use: a window of score 0 gets no record
    and goes into no bucket, so no later window examines it, and an
    empty last bucket means that no chain covers the line.  A bucket
    also leaves out the records with ``B == n`` and ``b < n``, which can
    have no successor ``u`` (``B < u <= n``).  On dense unit-spaced
    lines the pass examines about ``n^3 / 33`` transitions, against
    ``n^3 / 26`` when the windows of score 0 went into buckets too.
    ``stats["transitions"]`` counts those bucket entries examined and
    ``stats["entries"]`` the records, the windows that some chain
    reaches.
    """
    order = collinearity_check(instance)
    if order is None:
        raise ValueError("instance is not collinear")
    n = instance.n
    if n == 0:
        return SolveResult(FEASIBLE, 0, Assignment(()),
                           {"transitions": 0, "entries": 0})

    id_at = [0, *order]  # position -> disk id
    pos_of = [0] * (n + 1)
    for p, disk_id in enumerate(order, start=1):
        pos_of[disk_id] = p

    # wins: one record (a, b, y, R) per window that some chain reaches,
    # in ascending (y, prefix length); R is the prefix's aggregate.
    # best[w]: the most windows in a chain that covers positions 1..b and
    # ends with window w; pred[w]: the window before it in the first such
    # chain found.  ending_at[b]: (y, B, w) of the records that end at b
    # and can have a successor, in list order
    wins: list[tuple[int, int, int, int]] = []
    best: list[int] = []
    pred: list[Optional[int]] = []
    ending_at: list[list[tuple[int, int, int]]] = [[] for _ in range(n + 1)]
    transitions = 0
    sum_rule = mode is DisjointnessMode.SUM
    for y in range(1, n + 1):
        # the centres strictly inside prefix j's aggregate are the walk's
        # pairs with d2 < R**2: a run from its start that lengthens with
        # j and ends inside the feasible prefix (_reach stopped at the
        # first centre outside the last aggregate).  On a line they fill
        # the positions A..B around y.
        yid = id_at[y]
        reach = instance._reach(yid)
        pairs = instance._walk(yid, len(reach) - 1)
        size = len(pairs)
        lo = hi = A = B = y
        inside = 0
        for j, R in enumerate(reach):
            if j:  # the prefix of length 0 is the disk alone: no gap
                q = pos_of[pairs[j - 1][1]]
                if q < lo:
                    lo = q
                elif q > hi:
                    hi = q
                if hi - lo != j:
                    continue           # a gap: no assignment completes it
            r2 = R * R
            while inside < size:
                d2, k = pairs[inside]
                if d2 >= r2:
                    break
                q = pos_of[k]
                if q < A:
                    A = q
                elif q > B:
                    B = q
                inside += 1
            score = 1 if lo == 1 else 0    # and ending_at[0] is empty
            prior = None
            for t, Bt, v in ending_at[lo - 1]:
                if t >= A:
                    break
                transitions += 1
                # t < A and Bt < y: neither centre lies strictly inside
                # the other aggregate, which is the MAX rule
                if Bt >= y:
                    continue
                if sum_rule and not centre_disjoint(
                        instance._d2(id_at[t], yid), wins[v][3], R, mode):
                    continue
                if best[v] + 1 > score:
                    score = best[v] + 1
                    prior = v
            if not score:
                continue               # no chain reaches this window
            if B < n or hi == n:       # else no successor
                ending_at[hi].append((y, B, len(wins)))
            wins.append((lo, hi, y, R))
            best.append(score)
            pred.append(prior)

    stats = {"transitions": transitions, "entries": len(wins)}
    if not ending_at[n]:
        return SolveResult(INFEASIBLE, 0, None, stats)
    # a prefix lies strictly inside its aggregate, so A <= a and B >= b:
    # a window that ends at n also has z = B = n.  The first longest
    # chain wins.
    last = max((v for _, _, v in ending_at[n]), key=best.__getitem__)
    cardinality = best[last]

    # reconstruct: each window of the chain maps its positions a..b, the
    # disk and its prefix, to the disk
    target = [0] * (n + 1)
    while last is not None:
        a, b, y, _ = wins[last]
        for p in range(a, b + 1):
            target[id_at[p]] = id_at[y]
        last = pred[last]
    assignment = Assignment(tuple(target[1:]))
    report = verify_proper(instance, assignment, mode)
    if not report.ok:  # pragma: no cover - internal consistency guard
        raise AssertionError(
            f"DP reconstruction failed verification: {report.violations}")
    return SolveResult(FEASIBLE, cardinality, assignment, stats)
