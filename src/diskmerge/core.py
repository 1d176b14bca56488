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

Each rule is written once: :meth:`Instance.reach` walks the strict reach
rule, :func:`centre_disjoint` decides the MAX/SUM bound and
``_relaxed_walk`` walks the relaxed rule.  The verifiers here and the
solvers in :mod:`diskmerge.solvers` all call these.

Inputs and outputs are exact :class:`fractions.Fraction` values.  Inside,
:class:`Instance` scales every coordinate and radius by ``L``, the lcm of
their denominators, so each verdict compares squared distances and
aggregate radii as Python ints (in units of ``1/L``); no floating point is
involved anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class FormatError(ValueError):
    """Raised for malformed documents or values."""


def parse_rational(value) -> Fraction:
    """Parse an exact rational from an int or a ``"p/q"`` / integer string."""
    if isinstance(value, bool):
        raise FormatError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value):
            raise FormatError(f"not a rational number: {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise FormatError(f"zero denominator: {value!r}") from None
        except ValueError:  # more digits than int() converts
            raise FormatError(
                f"rational has too many digits ({len(value)} characters)"
            ) from None
    raise FormatError(f"not a rational number: {value!r}")


def format_rational(value: Fraction) -> str:
    """Render a rational as the canonical ``"p/q"`` (or integer) string."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _common_scale(values: Iterable[Fraction]) -> int:
    """``L``, the lcm of the denominators of ``values``: each ``v * L`` is
    the int ``_scaled(v, L)``."""
    return lcm(*{v.denominator for v in values})


def _scaled(value: Fraction, scale: int) -> int:
    return value.numerator * (scale // value.denominator)


@dataclass(frozen=True, order=True)
class Point:
    x: Fraction
    y: Fraction


@dataclass(frozen=True)
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
    denominators, as ints indexed by disk id; squared distances
    (``_d2``) and strict reach (``_reach``) are ints in those units.
    """

    def __init__(self, disks: Iterable[Disk]):
        disks = tuple(sorted(disks, key=lambda d: d.id))
        ids = [d.id for d in disks]
        if ids != list(range(1, len(disks) + 1)):
            raise FormatError(f"disk ids must be exactly 1..n, got {ids}")
        for d in disks:
            if d.radius <= 0:
                raise FormatError(f"disk {d.id} has non-positive radius")
        self.disks = disks
        self.n = len(disks)
        self._scale = L = _common_scale(
            v for d in disks for v in (d.center.x, d.center.y, d.radius))
        self._x = (0,) + tuple(_scaled(d.center.x, L) for d in disks)
        self._y = (0,) + tuple(_scaled(d.center.y, L) for d in disks)
        self._r = (0,) + tuple(_scaled(d.radius, L) for d in disks)
        self._neighbors: dict[int, tuple[int, ...]] = {}
        self._reaches: dict[int, tuple[int, ...]] = {}

    def disk(self, i: int) -> Disk:
        return self.disks[i - 1]

    def radius(self, i: int) -> Fraction:
        return self.disks[i - 1].radius

    def center(self, i: int) -> Point:
        return self.disks[i - 1].center

    def _d2(self, i: int, j: int) -> int:
        """Squared centre distance in units of ``1/L**2``."""
        dx = self._x[i] - self._x[j]
        dy = self._y[i] - self._y[j]
        return dx * dx + dy * dy

    def dist2(self, i: int, j: int) -> Fraction:
        return Fraction(self._d2(i, j), self._scale * self._scale)

    def neighbor_sequence(self, i: int) -> tuple[int, ...]:
        """Other disks ordered by increasing centre distance; ties by id."""
        seq = self._neighbors.get(i)
        if seq is None:
            d2 = self._d2
            others = sorted((d2(i, j), j)
                            for j in range(1, self.n + 1) if j != i)
            seq = self._neighbors[i] = tuple(j for _, j in others)
        return seq

    def _reach(self, i: int) -> tuple[int, ...]:
        """:meth:`reach` in units of ``1/L``."""
        aggs = self._reaches.get(i)
        if aggs is None:
            total = self._r[i]
            walk = [total]
            for j in self.neighbor_sequence(i):
                if self._d2(i, j) >= total * total:
                    break
                total += self._r[j]
                walk.append(total)
            aggs = self._reaches[i] = tuple(walk)
        return aggs

    def reach(self, i: int) -> tuple[Fraction, ...]:
        """Running aggregate radii of disk ``i`` under the strict reach rule.

        Entry ``j`` is the radius after merging the first ``j`` neighbours;
        the walk stops at the first neighbour whose centre is not strictly
        inside the radius so far, so prefix ``j`` is feasible iff
        ``j < len(reach(i))``.
        """
        return tuple(Fraction(t, self._scale) for t in self._reach(i))

    def __eq__(self, other) -> bool:
        return isinstance(other, Instance) and self.disks == other.disks

    def __hash__(self) -> int:
        return hash(self.disks)

    def __repr__(self) -> str:
        return f"Instance(n={self.n})"


class Assignment:
    """A total self-map of disk ids.  Disk ``i`` is selected iff ``φ(i) == i``."""

    def __init__(self, target: Mapping[int, int] | Sequence[int]):
        if isinstance(target, Mapping):
            n = len(target)
            if sorted(target) != list(range(1, n + 1)):
                raise FormatError("assignment keys must be exactly 1..n")
            tup = tuple(target[i] for i in range(1, n + 1))
        else:
            tup = tuple(target)
            n = len(tup)
        for t in tup:
            if not isinstance(t, int) or not (1 <= t <= n):
                raise FormatError(f"assignment target {t!r} out of range 1..{n}")
        self.target = tup
        self.n = n

    def __call__(self, i: int) -> int:
        return self.target[i - 1]

    def is_selected(self, i: int) -> bool:
        return self.target[i - 1] == i

    def selected(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if self.target[i - 1] == i)

    def merged_into(self, i: int) -> tuple[int, ...]:
        return tuple(
            j for j in range(1, self.n + 1) if j != i and self.target[j - 1] == i
        )

    def is_idempotent(self) -> bool:
        return all(self.target[t - 1] == t for t in self.target)

    def as_dict(self) -> dict[int, int]:
        return {i: t for i, t in enumerate(self.target, start=1)}

    def __eq__(self, other) -> bool:
        return isinstance(other, Assignment) and self.target == other.target

    def __hash__(self) -> int:
        return hash(self.target)

    def __repr__(self) -> str:
        return f"Assignment({self.target})"


def cardinality(assignment: Assignment) -> int:
    """Number of selected disks."""
    return len(assignment.selected())


def aggregate_radius(instance: Instance, assignment: Assignment, i: int) -> Fraction:
    """Sum of the radii of all disks mapped to ``i`` (including ``i`` itself
    when it is selected)."""
    return sum(
        (instance.radius(j) for j in range(1, instance.n + 1) if assignment(j) == i),
        Fraction(0),
    )


def _relaxed_walk(instance: Instance, i: int, members: Iterable[int],
                  ) -> tuple[int, Optional[int]]:
    """Walk ``members`` into disk ``i`` in distance order (ties by id) under
    the relaxed reach rule.  Returns the aggregate radius reached, in units
    of ``1/L``, and the first member out of reach, or ``None`` when every
    member is reached."""
    r = instance._r
    total = r[i]
    for d2, j in sorted((instance._d2(i, j), j) for j in members):
        if d2 > total * total:
            return total, j
        total += r[j]
    return total, None


@dataclass
class VerificationReport:
    ok: bool
    cardinality: int
    violations: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def _check_shape(instance: Instance, assignment: Assignment,
                 violations: list[str]) -> bool:
    if assignment.n != instance.n:
        violations.append(
            f"assignment covers {assignment.n} disks, instance has {instance.n}"
        )
        return False
    ok = True
    for i in range(1, instance.n + 1):
        t = assignment(i)
        if assignment(t) != t:
            violations.append(f"not idempotent: {i} -> {t} -> {assignment(t)}")
            ok = False
    return ok


def _check_disjoint(instance: Instance, assignment: Assignment,
                    mode: DisjointnessMode, violations: list[str]) -> None:
    selected = assignment.selected()
    agg = dict.fromkeys(selected, 0)
    for j, t in enumerate(assignment.target, start=1):
        agg[t] += instance._r[j]
    for a in range(len(selected)):
        for b in range(a + 1, len(selected)):
            i, j = selected[a], selected[b]
            if not centre_disjoint(instance._d2(i, j), agg[i], agg[j],
                                   mode):
                violations.append(
                    f"selected disks {i} and {j} are not centre-disjoint "
                    f"({mode.value} rule)"
                )


def verify_proper(instance: Instance, assignment: Assignment,
                  mode: DisjointnessMode = DisjointnessMode.MAX,
                  ) -> VerificationReport:
    """Check the strict (prefix-ordered) merging rules.

    For every selected disk, the set of disks merged into it must be exactly
    a prefix of its neighbour sequence; walking that prefix in order, each
    centre must lie strictly inside the aggregate disk accumulated so far;
    and all selected pairs must be centre-disjoint under ``mode``.
    """
    violations: list[str] = []
    if not _check_shape(instance, assignment, violations):
        return VerificationReport(False, 0, violations)

    for i in assignment.selected():
        members = set(assignment.merged_into(i))
        seq = instance.neighbor_sequence(i)
        if set(seq[: len(members)]) != members:
            violations.append(
                f"disks merged into {i} are not a neighbour-sequence prefix"
            )
            continue
        feasible = len(instance._reach(i))
        if len(members) >= feasible:
            violations.append(f"disk {seq[feasible - 1]} is out of reach "
                              f"of disk {i} when merged")

    _check_disjoint(instance, assignment, mode, violations)
    ok = not violations
    return VerificationReport(ok, cardinality(assignment), violations)


def verify_uproper(instance: Instance, assignment: Assignment,
                   mode: DisjointnessMode = DisjointnessMode.MAX,
                   ) -> VerificationReport:
    """Check the relaxed merging rules.

    The merged set of a selected disk may be arbitrary; its members, taken
    in increasing distance order (ties by id), must each lie within
    (non-strictly) the aggregate radius accumulated from the previous
    members.  Centre-disjointness of selected pairs still applies.
    """
    violations: list[str] = []
    if not _check_shape(instance, assignment, violations):
        return VerificationReport(False, 0, violations)

    for i in assignment.selected():
        _, out = _relaxed_walk(instance, i, assignment.merged_into(i))
        if out is not None:
            violations.append(
                f"disk {out} is out of reach of disk {i} when merged (relaxed)"
            )

    _check_disjoint(instance, assignment, mode, violations)
    ok = not violations
    return VerificationReport(ok, cardinality(assignment), violations)
