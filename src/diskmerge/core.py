"""Exact-arithmetic core types for the disk merging problem.

A problem instance is a finite set of disks in the plane with rational
centres and radii.  A candidate solution is an idempotent self-map of the
disk set: every disk either keeps itself (it is *selected*) or is merged
into a selected disk.  Two verifiers are provided:

* :func:`verify_proper` -- the strict notion.  Each selected disk may only
  absorb a prefix of its distance-ordered neighbour sequence, every
  absorbed centre must fall strictly inside the growing aggregate disk,
  and selected disks must be pairwise centre-disjoint.
* :func:`verify_uproper` -- the relaxed notion.  The prefix requirement is
  dropped; absorbed centres must be reachable (non-strictly) when taken in
  distance order, and centre-disjointness still applies.

Each rule is written once: ``Instance._reach`` walks the strict reach
rule and, with ``strict=False``, the relaxed one (the bound the solvers'
search prunes with), over the neighbour walk or over a given ``pairs``
list (a merge group's members), :func:`centre_disjoint` decides the
MAX/SUM bound and ``_close_pairs`` finds the pairs that can fail it
under given aggregates.  Both verifiers are one function, ``_verify``;
it and the solvers in :mod:`diskmerge.solvers` call these.

Neighbour order is lazy, and one walk defines it.  One resumable sweep
per disk (``Instance._walk``) yields the other disks in exact
``(distance, id)`` order and computes only as far as its caller reads,
so the reach walks and the solvers stop at the first neighbour out of
reach, and :func:`verify_proper` reads each group's prefix once, one
pair per member, instead of sorting all ``n`` disks for every disk.  A
reader asks for a count of neighbours or for every
neighbour below a squared distance, in one call: a reach walk asks once
per growth of its aggregate, not once per neighbour.  Disjointness is
found the same way in both verifiers and in the exact search
(``_close_pairs``): each disk reads its walk, in one call, only as far as
a pair could fail, instead of testing all pairs.

An exact number is an ``int`` or a :class:`fractions.Fraction`
(``type(v) in _EXACT``, so not a bool, a float or a subclass), and every
Python entry point rejects anything else with :class:`FormatError`.
Inside, :class:`Instance` scales every coordinate and radius by ``L``,
the lcm of their lowest-terms denominators, so each verdict compares
squared distances and aggregate radii as Python ints (in units of
``1/L``); no floating point is involved anywhere.  Those scaled ints and
the walks over them are all an instance keeps.  The constructor, the
parser and the reduction hand it int columns, the serializer and the SVG
renderer format the ints, and :attr:`Instance.disks` is a view built
from them on first read, once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

# ASCII digits only, matched with fullmatch: ``\d`` would take any Unicode
# digit and ``$`` a trailing newline
_RATIONAL_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
_INT_RE = re.compile(r"0|-?[1-9][0-9]*")  # canonical ints only
# exact numbers, matched by type(v): not a bool, a float or a subclass
_EXACT = frozenset((int, Fraction))
# the most bits of L: at 1024 a 10**5-disk line parses as fast as with L =
# 3 and verifies and solves in about twice the time; each scaled int grows
# with L, so co-prime denominators would make a document quadratic
_MAX_SCALE_BITS = 1024


class FormatError(ValueError):
    """Raised for malformed documents or values."""


def _rational_terms(value) -> tuple[int, int]:
    """The lowest terms ``(num, den)``, ``den > 0``, of an exact number
    or of a ``"p/q"`` / integer string."""
    if type(value) is not str:
        if type(value) not in _EXACT:
            raise FormatError(f"not a rational number: {value!r}")
        return value.numerator, value.denominator
    match = _RATIONAL_RE.fullmatch(value)
    if match is None:
        raise FormatError(f"not a rational number: {value!r}")
    num, den = match.groups()
    try:
        num, den = int(num), int(den or 1)
    except ValueError:  # more digits than int() converts
        raise FormatError(
            f"rational has too many digits ({len(value)} characters)"
        ) from None
    if den == 0:
        raise FormatError(f"zero denominator: {value!r}")
    g = gcd(num, den)
    return (num // g, den // g) if g > 1 else (num, den)


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an exact number or a ``"p/q"`` /
    integer string."""
    return Fraction(*_rational_terms(value))


def _format_terms(num: int, den: int) -> str:
    """``num / den`` (``den > 0``) as the canonical ``"p/q"`` (or
    integer) string of its lowest terms."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def format_rational(value: Fraction) -> str:
    """Render a rational as the canonical ``"p/q"`` (or integer) string."""
    return _format_terms(value.numerator, value.denominator)


@dataclass(frozen=True, order=True, slots=True)
class Point:
    x: Fraction
    y: Fraction


@dataclass(frozen=True, slots=True)
class Disk:
    id: int
    center: Point
    radius: Fraction


class DisjointnessMode(Enum):
    """How centre-disjointness of two selected disks is interpreted.

    ``MAX`` requires ``dist(p_i, p_j) >= max(R_i, R_j)``: neither aggregate
    disk contains the other's centre.  ``SUM`` requires
    ``dist(p_i, p_j) >= R_i + R_j``: the aggregate disks are fully disjoint.
    ``MAX`` is the default used throughout the solvers and reductions.
    """

    MAX = "max"
    SUM = "sum"


def centre_disjoint(d2, a, b, mode: DisjointnessMode) -> bool:
    """Whether two selected disks with aggregate radii ``a`` and ``b``,
    whose centres lie at squared distance ``d2``, are centre-disjoint.

    Any exact numbers in consistent units work: Fractions, or the ints of
    one :class:`Instance` (``_d2`` and aggregates scaled by its ``L``)."""
    bound = max(a, b) if mode is DisjointnessMode.MAX else a + b
    return d2 >= bound * bound


class Instance:
    """An immutable set of disks with ids ``1..n`` plus cached geometry.

    Coordinates and radii are kept scaled by ``L``, the lcm of all their
    lowest-terms denominators, as ints indexed by disk id; squared
    distances (``_d2``) and reach walks (``_reach``) are ints in those
    units.  These ints are the one representation: equality and hashing
    compare them, :meth:`radius` and :meth:`center` build their one value
    from them, and :attr:`disks` is a view of them, built on first read
    and then kept.  No object of the caller's is kept.

    Neighbours come from one lazy walk per disk (:meth:`_walk`), which
    defines their order: exact ``(d2, id)``, ties by id.  It computes
    only as far as a caller reads, so :meth:`_reach` and the prefix
    readers in the verifiers and solvers read no farther than they need
    instead of sorting all ``n`` disks.  Besides :attr:`disks`,
    the walks are all an instance adds to its ints.  They keep their state
    in plain lists and ints, so an instance pickles mid-walk.
    """

    def __init__(self, disks: Iterable[Disk]):
        """The instance of ``disks``, in any order: each id an int and
        each value an exact number, else :class:`FormatError`."""
        cols = ids, xn, xd, yn, yd, rn, rd = [], [], [], [], [], [], []
        exact = _EXACT
        for d in disks:
            i, x, y, r = d.id, d.center.x, d.center.y, d.radius
            if type(i) is not int or type(x) not in exact or \
                    type(y) not in exact or type(r) not in exact:
                raise FormatError(f"not an int id with exact values: {d!r}")
            ids.append(i)
            num, den = x.as_integer_ratio()
            xn.append(num)
            xd.append(den)
            num, den = y.as_integer_ratio()
            yn.append(num)
            yd.append(den)
            num, den = r.as_integer_ratio()
            rn.append(num)
            rd.append(den)
        self._setup(*cols)

    @classmethod
    def _from_columns(cls, ids: list[int], xn: list[int], xd: list[int],
                      yn: list[int], yd: list[int], rn: list[int],
                      rd: list[int]) -> Instance:
        """The instance whose ``k``-th disk has id ``ids[k]``, centre
        ``(xn[k] / xd[k], yn[k] / yd[k])`` and radius ``rn[k] / rd[k]``,
        each value in lowest terms with a positive denominator; the ids
        may come in any order.  No Fraction is made, and no object per
        disk: the columns hold ints only."""
        self = cls.__new__(cls)
        self._setup(ids, xn, xd, yn, yd, rn, rd)
        return self

    def _setup(self, ids: list[int], *terms: list[int]) -> None:
        n = self.n = len(ids)
        want = list(range(1, n + 1))
        if ids != want:
            order = sorted(range(n), key=ids.__getitem__)
            if [ids[k] for k in order] != want:
                # n ids that are not 1..n miss one of them; name the least,
                # so that the message stays short on any document
                present = set(ids)
                missing = next(i for i in want if i not in present)
                raise FormatError(f"disk ids must be exactly 1..n, but id "
                                  f"{missing} is missing")
            terms = tuple([col[k] for k in order] for col in terms)
        # each column is scaled in id order, so a walk reads its ints in
        # the order they were made
        xn, xd, yn, yd, rn, rd = terms
        dens = {*xd, *yd, *rd}
        L = 1
        for q in dens:  # stop once L is too long, before it grows further
            L = lcm(L, q)
            if L.bit_length() > _MAX_SCALE_BITS:
                raise FormatError(
                    f"the common denominator of the values has at least "
                    f"{L.bit_length()} bits, more than {_MAX_SCALE_BITS}")
        self._scale = L
        factor = {q: L // q for q in dens}.__getitem__
        self._x = (0, *map(mul, xn, map(factor, xd)))
        self._y = (0, *map(mul, yn, map(factor, yd)))
        self._r = (0, *map(mul, rn, map(factor, rd)))
        if n and min(self._r[1:]) <= 0:  # L > 0 keeps each sign
            i = next(i for i in want if self._r[i] <= 0)
            raise FormatError(f"disk {i} has non-positive radius")
        self._disks: Optional[tuple[Disk, ...]] = None
        # sweep axis, set up by the first walk: ids sorted by (axis
        # coordinate, id), their coordinates, and each id's position
        self._order: list[int] = []
        self._coords: list[int] = []
        self._rank: list[int] = []
        # disk -> [pairs released, heap, left and right frontiers, bound]
        self._walks: dict[int, list] = {}

    @property
    def disks(self) -> tuple[Disk, ...]:
        """The disks in id order."""
        if self._disks is None:
            self._disks = tuple(Disk(i, self.center(i), self.radius(i))
                                for i in range(1, self.n + 1))
        return self._disks

    def radius(self, i: int) -> Fraction:
        return Fraction(self._r[i], self._scale)

    def center(self, i: int) -> Point:
        return Point(Fraction(self._x[i], self._scale),
                     Fraction(self._y[i], self._scale))

    def _d2(self, i: int, j: int) -> int:
        """Squared centre distance in units of ``1/L**2``."""
        dx = self._x[i] - self._x[j]
        dy = self._y[i] - self._y[j]
        return dx * dx + dy * dy

    # read only by perfbench's tracer, which wraps it; goes with its change
    def dist2(self, i: int, j: int) -> Fraction:
        return Fraction(self._d2(i, j), self._scale * self._scale)

    def _walk(self, i: int, k: int, bound: int = 0,
              ) -> list[tuple[int, int]]:
        """The pairs ``(_d2(i, j), j)`` of the other disks ``j`` in
        ascending order, released at least up to the ``k``-th (all of
        them when ``k >= n - 1``) and through every pair with ``d2 <
        bound``.  The list is the walk's own: later calls extend it in
        place, and callers must not change it.

        A sweep along the wider of the x and y extents (Friedman, Baskett
        & Shustek, 1975): step outward from ``i``'s position in the axis
        order, pushing each visited disk onto a heap, and release the
        heap's minimum only while its ``d2`` is below ``g**2``, where
        ``g`` is the axis gap to the nearest unvisited disk.  Every
        unvisited disk lies at least that far, and equal distances wait
        until all of them are in the heap, which then releases them by
        id.  The sweep stops once ``k`` pairs are out and ``g**2 >=
        bound``, so a reader that knows how far it reads asks once, not
        once per pair.  Each call resumes where the last one stopped, and
        a call that asks for nothing new returns the list at once.
        """
        state = self._walks.get(i)
        if state is None:
            if not self._order:
                xs, ys = self._x[1:], self._y[1:]
                axis = self._x if max(xs) - min(xs) >= max(ys) - min(ys) \
                    else self._y
                order = self._order = sorted(range(1, self.n + 1),
                                             key=lambda j: (axis[j], j))
                self._coords = [axis[j] for j in order]
                self._rank = [0] * (self.n + 1)
                for p, j in enumerate(order):
                    self._rank[j] = p
            p = self._rank[i]
            # the last field: every pair with d2 below it is released
            state = self._walks[i] = [[], [], p - 1, p + 1, 0]
        done, heap, lo, hi, released = state
        count = len(done)
        if count >= k and (bound <= released or count == self.n - 1):
            return done
        order, coords, n = self._order, self._coords, self.n
        xs, ys = self._x, self._y
        x, y, a = xs[i], ys[i], coords[self._rank[i]]
        emit = done.append
        # the axis gaps to the nearest unvisited position on each side;
        # past an end, one more than any gap, so the other side wins
        end = coords[-1] - coords[0] + 1
        gl = a - coords[lo] if lo >= 0 else end
        gh = coords[hi] - a if hi < n else end
        while True:
            # the nearest unvisited position q along the axis, at gap g;
            # a tie goes to the lower position
            if gl <= gh:
                if lo < 0:  # all visited: the heap holds the rest in order
                    while heap and (count < k or heap[0][0] < bound):
                        emit(heappop(heap))
                        count += 1
                    g2 = heap[0][0] if heap else bound  # all below are out
                    break
                q, g = lo, gl
            else:
                q, g = hi, gh
            g2 = g * g
            while heap and heap[0][0] < g2:
                emit(heappop(heap))
                count += 1
            if count >= k and g2 >= bound:
                break
            j = order[q]
            if q == lo:
                lo -= 1
                gl = a - coords[lo] if lo >= 0 else end
            else:
                hi += 1
                gh = coords[hi] - a if hi < n else end
            dx, dy = xs[j] - x, ys[j] - y
            heappush(heap, (dx * dx + dy * dy, j))
        state[2:] = lo, hi, g2
        return done

    # read only by perfbench's tracer, which wraps it; goes with its change
    def neighbor_sequence(self, i: int) -> tuple[int, ...]:
        """Other disks ordered by increasing centre distance; ties by id."""
        return tuple(j for _, j in self._walk(i, self.n - 1))

    def _reach(self, i: int, strict: bool = True,
               pairs: Optional[list] = None) -> tuple[int, ...]:
        """Running aggregate radii of disk ``i`` in units of ``1/L``, entry
        ``k`` after ``k`` neighbours, up to the first out of strict reach.

        With ``strict=False``, the same walk under the relaxed rule: it
        also takes a neighbour at exactly the radius so far.  Its last
        entry is then the least ``U`` with ``U = r_i + sum r_j`` over the
        ``j != i`` at ``_d2(i, j) <= U**2``, and the neighbours it takes
        are exactly those.

        Each round asks :meth:`_walk` for every neighbour below the
        aggregate so far (``d2 < total**2``, or ``d2 < total**2 + 1`` under
        the relaxed rule, since ``d2`` is an int) and takes them in order.
        The walk ends at a neighbour beyond the aggregate, or after a
        round that releases nothing new.  Nothing is kept: a second call
        reads again the pairs the first one had released.

        Given ``pairs``, a list of ascending ``(_d2(i, j), j)``, it walks
        them in place of the neighbours: it takes ``len(result) - 1`` of
        them, and the next one, if any, is the first out of reach.
        """
        r = self._r
        total = r[i]
        walk = [total]
        slack = 0 if strict else 1  # relaxed: d2 <= total**2
        limit = total * total + slack
        grows = pairs is None
        if grows:
            pairs = self._walk(i, 0, limit)
        size = len(pairs)
        k = 0
        while k < size:
            d2, j = pairs[k]
            if d2 >= limit:
                break
            total += r[j]
            walk.append(total)
            limit = total * total + slack
            k += 1
            if k == size and grows:  # next round: extends pairs
                self._walk(i, 0, limit)
                size = len(pairs)
        return tuple(walk)

    def _key(self) -> tuple:
        # L is the lcm of lowest-terms denominators, so equal disks give
        # equal ints
        return self._scale, self._x, self._y, self._r

    def __eq__(self, other) -> bool:
        return isinstance(other, Instance) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Instance(n={self.n})"


class Assignment:
    """A total self-map of disk ids.  Disk ``i`` is selected iff ``φ(i) == i``."""

    def __init__(self, target: Mapping[int, int] | Sequence[int]):
        if isinstance(target, Mapping):
            n = len(target)
            # ints by type, as ids are: True, 1.0 and Fraction(1) equal 1
            if any(type(k) is not int for k in target) or \
                    sorted(target) != list(range(1, n + 1)):
                raise FormatError("assignment keys must be exactly 1..n")
            tup = tuple(target[i] for i in range(1, n + 1))
        else:
            tup = tuple(target)
            n = len(tup)
        for t in tup:
            if type(t) is not int:  # not a bool or an IntEnum member
                raise FormatError(f"assignment target {t!r} is not an int")
            if not 1 <= t <= n:
                raise FormatError(f"assignment target {t!r} out of range 1..{n}")
        self.target = tup
        self.n = n

    def __call__(self, i: int) -> int:
        return self.target[i - 1]

    def selected(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if self.target[i - 1] == i)

    def __eq__(self, other) -> bool:
        return isinstance(other, Assignment) and self.target == other.target

    def __hash__(self) -> int:
        return hash(self.target)

    def __repr__(self) -> str:
        return f"Assignment({self.target})"


def _merge_groups(instance: Instance, assignment: Assignment,
                  ) -> dict[int, tuple[tuple[int, ...], int]]:
    """Map each disk that some disk maps to, ascending, to its members
    (the other disks mapped to it, ascending) and its aggregate radius in
    units of ``1/L``, from one pass over ``assignment``.  For an
    idempotent map these are the selected disks and their groups."""
    r = instance._r
    groups: dict[int, list] = {}  # t -> [members, aggregate]
    for j, t in enumerate(assignment.target, start=1):
        group = groups.get(t)
        if group is None:
            groups[t] = group = [[], 0]
        if t != j:
            group[0].append(j)
        group[1] += r[j]
    return {t: (tuple(members), a)
            for t, (members, a) in sorted(groups.items())}


@dataclass
class VerificationReport:
    ok: bool
    cardinality: int
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _close_pairs(instance: Instance, aggregates: Mapping[int, int],
                 mode: DisjointnessMode) -> list[tuple[int, int, int]]:
    """The pairs ``(i, j, _d2(i, j))`` of disks in ``aggregates`` (id ->
    aggregate radius in units of ``1/L``) that can fail centre-disjointness
    under ``mode`` with aggregates at most these, each pair once.

    A failing pair has ``d2 < max**2`` (SUM: ``(a_i + a_j)**2 <= (2
    max)**2``), so the disk ``i`` of larger ``(a, id)`` meets it in its
    walk before ``a**2`` (SUM: ``(2a)**2``) and reports it there, as ``(i,
    j, d2)``.  Each disk reads its own walk, in one call, that far and no
    farther."""
    pairs = []
    double = mode is DisjointnessMode.SUM
    for i, a in aggregates.items():
        limit = (2 * a if double else a) ** 2
        for d2, j in instance._walk(i, 0, limit):
            if d2 >= limit:
                break
            b = aggregates.get(j)
            if b is not None and (b, j) < (a, i):
                pairs.append((i, j, d2))
    return pairs


def _check_disjoint(instance: Instance,
                    groups: dict[int, tuple[tuple[int, ...], int]],
                    mode: DisjointnessMode, violations: list[str]) -> None:
    """Report the selected pairs that are not centre-disjoint, ascending:
    the :func:`_close_pairs` of the aggregates that fail the test."""
    agg = {i: a for i, (_, a) in groups.items()}
    failing = [(min(i, j), max(i, j))
               for i, j, d2 in _close_pairs(instance, agg, mode)
               if not centre_disjoint(d2, agg[i], agg[j], mode)]
    for i, j in sorted(failing):
        violations.append(f"selected disks {i} and {j} are not "
                          f"centre-disjoint ({mode.value} rule)")


def _verify(instance: Instance, assignment: Assignment,
            mode: DisjointnessMode, strict: bool) -> tuple[
                VerificationReport, dict[int, tuple[tuple[int, ...], int]]]:
    """The report of :func:`verify_proper` (``strict``) or
    :func:`verify_uproper`, and the merge groups it checked: empty when
    the assignment is not an idempotent map of the disks.

    ``Instance._reach`` walks each group of ``m`` members over ``m``
    pairs: strict, the first ``m`` of the group's walk, read once, whose
    ids must be the members; relaxed, the members in ``(d2, id)`` order.
    The first pair it does not take is out of reach.  Disjointness then
    resumes each walk out to the aggregate (twice it under SUM).
    """
    target = assignment.target
    if assignment.n != instance.n:
        violations = [f"assignment covers {assignment.n} disks, "
                      f"instance has {instance.n}"]
    else:
        violations = [f"not idempotent: {i} -> {t} -> {target[t - 1]}"
                      for i, t in enumerate(target, start=1)
                      if target[t - 1] != t]
    if violations:
        return VerificationReport(False, 0, violations), {}

    groups = _merge_groups(instance, assignment)
    suffix = "" if strict else " (relaxed)"
    for i, (members, _) in groups.items():
        m = len(members)
        if not m:
            continue
        if strict:
            pairs = instance._walk(i, m)[:m]
            if {j for _, j in pairs} != set(members):
                violations.append(
                    f"disks merged into {i} are not a neighbour-sequence prefix"
                )
                continue
        else:
            pairs = sorted((instance._d2(i, j), j) for j in members)
        k = len(instance._reach(i, strict, pairs)) - 1
        if k < m:
            violations.append(f"disk {pairs[k][1]} is out of reach of disk "
                              f"{i} when merged{suffix}")

    _check_disjoint(instance, groups, mode, violations)
    return VerificationReport(not violations, len(groups), violations), groups


def verify_proper(instance: Instance, assignment: Assignment,
                  mode: DisjointnessMode = DisjointnessMode.MAX,
                  ) -> VerificationReport:
    """Check the strict (prefix-ordered) merging rules.

    For every selected disk, the set of disks merged into it must be exactly
    a prefix of its neighbour sequence; walking that prefix in order, each
    centre must lie strictly inside the aggregate disk accumulated so far;
    and all selected pairs must be centre-disjoint under ``mode``.
    """
    return _verify(instance, assignment, mode, True)[0]


def verify_uproper(instance: Instance, assignment: Assignment,
                   mode: DisjointnessMode = DisjointnessMode.MAX,
                   ) -> VerificationReport:
    """Check the relaxed merging rules.

    The merged set of a selected disk may be arbitrary; its members, taken
    in increasing distance order (ties by id), must each lie within
    (non-strictly) the aggregate radius accumulated from the previous
    members.  Centre-disjointness of selected pairs still applies.
    """
    return _verify(instance, assignment, mode, False)[0]
