"""Verifier and primitive-type behaviour, and the package namespace."""

import ast
import importlib
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import diskmerge
from diskmerge import core
from diskmerge.core import (Assignment, Disk, DisjointnessMode, FormatError,
                            Instance, Point, _close_pairs, _merge_groups,
                            centre_disjoint, format_rational, parse_rational,
                            verify_proper, verify_uproper)

MAX = DisjointnessMode.MAX
SUM = DisjointnessMode.SUM


def mk(*rows):
    return Instance([Disk(i + 1, Point(F(x), F(y)), F(r))
                     for i, (x, y, r) in enumerate(rows)])


def reach(inst, i):
    """The strict reach walk of disk ``i`` (``Instance._reach``) as
    Fractions."""
    return tuple(F(t, inst._scale) for t in inst._reach(i))


def prefix(inst, i, k):
    """The ids of the first ``k`` pairs of disk ``i``'s walk."""
    return tuple(j for _, j in inst._walk(i, k)[:k])


class IntSub(int):
    pass


class FractionSub(F):
    pass


class StrSub(str):
    pass


rationals = st.fractions(max_denominator=1000)


def reference_parse_rational(value):
    """parse_rational as written over ``Fraction(str)``, which parses the
    digits a second time after the regex check."""
    if isinstance(value, bool):
        raise FormatError(f"not a rational number: {value!r}")
    if isinstance(value, int):
        return F(value)
    if isinstance(value, F):
        return value
    if isinstance(value, str):
        if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", value):
            raise FormatError(f"not a rational number: {value!r}")
        try:
            return F(value)
        except ZeroDivisionError:
            raise FormatError(f"zero denominator: {value!r}") from None
        except ValueError:
            raise FormatError(
                f"rational has too many digits ({len(value)} characters)"
            ) from None
    raise FormatError(f"not a rational number: {value!r}")


def parse_outcome(parse, value):
    """The parsed Fraction with its exact numerator and denominator, or
    the FormatError message."""
    try:
        q = parse(value)
    except FormatError as exc:
        return "error", str(exc)
    return type(q), q.numerator, q.denominator


PARSE_CASES = [
    "3", "+3", "-3", "007", "-007/010", "+12/18", "-0", "+0", "0/7",
    "-0/7", "3/0", "0/0", "-3/00", "1" * 4300, "1" * 4301, "7" * 5000,
    "-" + "7" * 5000, "1/" + "3" * 5000, "9" * 5000 + "/0",
    "2/" + "0" * 5000, "4" * 5000 + "/" + "3" * 5000,
    "\u0661\u0662", "\uff13", "1/\uff12", "\u00b2", "1 /2", "1/ 2",
    "1 / 2", " 1", "1 ", "\t1", "1\u00a0", "1\n", "1/2\n", "\n",
    "", "/", "1/", "/2", "--1", "+-1", "1/-2", "1/+2", "1//2", "1/2/3",
    "1.5", "1e3", "1_000", "0x10", "inf", "nan",
    True, False, 0, -5, 10 ** 5000, 1.5, 0.0, -2.0, float("nan"),
    F(2, 4), F(-7, 3), None, [1], b"1",
]


class TestRationals:
    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_parse_forms(self):
        assert parse_rational("3") == 3
        assert parse_rational("-1/2") == F(-1, 2)
        assert parse_rational(5) == 5
        assert parse_rational(F(2, 4)) == F(1, 2)

    def test_format_lowest_terms(self):
        assert format_rational(F(2, 4)) == "1/2"
        assert format_rational(F(3, 1)) == "3"
        assert format_rational(F(-6, 4)) == "-3/2"

    @pytest.mark.parametrize("bad", ["", "1/0", "a", "1.5", 1.5, None])
    def test_parse_rejects(self, bad):
        with pytest.raises(FormatError):
            parse_rational(bad)

    @pytest.mark.parametrize("bad", [IntSub(3), FractionSub(1, 2),
                                     StrSub("1/2")])
    def test_parse_rejects_subclasses(self, bad):
        with pytest.raises(FormatError, match="not a rational number"):
            parse_rational(bad)

    def test_parse_matches_fraction_str(self):
        for k, value in enumerate(PARSE_CASES):
            assert parse_outcome(parse_rational, value) == \
                parse_outcome(reference_parse_rational, value), f"case {k}"

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789+-/ \n", max_size=12))
    def test_parse_matches_fraction_str_on_text(self, value):
        assert parse_outcome(parse_rational, value) == \
            parse_outcome(reference_parse_rational, value)


class TestInstance:
    def test_ids_must_be_consecutive(self):
        with pytest.raises(FormatError):
            Instance([Disk(2, Point(F(0), F(0)), F(1))])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(FormatError):
            Instance([Disk(1, Point(F(0), F(0)), F(1)),
                      Disk(1, Point(F(1), F(0)), F(1))])

    def test_non_positive_radius_rejected(self):
        with pytest.raises(FormatError):
            mk((0, 0, 0))

    def test_empty_instance_allowed(self):
        assert mk().n == 0

    def test_common_scale_capped(self):
        # co-prime prime-power denominators: L has exactly the cap's bits,
        # then one more, so three disks stand in for thousands of primes
        with pytest.raises(FormatError, match=re.escape(
                "the common denominator of the values has at least 1025 "
                "bits, more than 1024")):
            mk((0, 0, F(1, 3 ** 200)), (1, 0, F(1, 5 ** 150)),
               (2, 0, F(1, 7 ** 128)))
        at_cap = mk((0, 0, F(1, 3 ** 200)), (1, 0, F(1, 5 ** 152)),
                    (2, 0, F(1, 7 ** 126)))
        assert at_cap._scale.bit_length() == core._MAX_SCALE_BITS == 1024

    @pytest.mark.parametrize("disk", [
        Disk(1, Point(0.1, 0), 1), Disk(1, Point(0, 0), 1.0),
        Disk(1, Point(0, True), 1), Disk(1, Point("1/2", 0), 1),
        Disk(1, Point(0, 0), "1"), Disk(1, Point(FractionSub(1, 2), 0), 1),
        Disk(1, Point(0, 0), IntSub(1)), Disk(True, Point(0, 0), 1),
        Disk(1.0, Point(0, 0), 1), Disk(F(1), Point(0, 0), 1),
        Disk(IntSub(1), Point(0, 0), 1)])
    def test_rejects_inexact_values(self, disk):
        # each id an int and each value an int or a Fraction, nothing
        # that merely converts to one
        with pytest.raises(FormatError, match="not an int id with exact"):
            Instance([disk])

    def test_keeps_no_caller_object(self):
        disks = [Disk(2, Point(F(1, 3), 0), 2),
                 Disk(1, Point(0, F(-1, 2)), F(1, 2))]
        inst = Instance(disks)
        assert inst._disks is None
        assert inst == Instance(disks[::-1])
        view = inst.disks
        assert view == (disks[1], disks[0]) and inst.disks is view
        assert all(v is not d for v in view for d in disks)
        assert {type(v) for d in view
                for v in (d.center.x, d.center.y, d.radius)} == {F}

    def test_reach_walks_again_from_released_pairs(self):
        inst = mk(*[(x, 0, F(3, 2)) for x in range(12)])
        first = inst._reach(3)
        released = inst._walks[3][0]
        size = len(released)
        again = inst._reach(3)
        assert again == first and again is not first
        assert inst._walks[3][0] is released and len(released) == size

    def test_neighbor_sequence_orders_by_distance_then_id(self):
        inst = mk((0, 0, 1), (3, 0, 1), (-3, 0, 1), (1, 0, 1))
        assert inst.neighbor_sequence(1) == (4, 2, 3)

    def test_prefix_aggregate_strictly_increasing(self):
        inst = mk((0, 0, 2), (1, 0, 1), (2, 0, F(1, 2)))
        vals = list(reach(inst, 1))
        assert len(vals) == 3
        assert vals == sorted(set(vals))
        assert vals[0] == 2 and vals[-1] == F(7, 2)

    def test_reach_stops_at_first_out_of_reach(self):
        # prefixes 0..2 are feasible; the disk at 9 is out of reach
        inst = mk((0, 0, 2), (F(3, 2), 0, 1), (F(5, 2), 0, 1), (9, 0, 1))
        assert reach(inst, 1) == (2, 3, 4)


class TestAssignment:
    def test_rejects_non_idempotent(self):
        inst = mk((0, 0, 1), (1, 0, 1), (5, 0, 1))
        # 1 -> 2 but 2 -> 3: a merge chain, not an assignment
        report = verify_proper(inst, Assignment((2, 3, 3)))
        assert not report.ok
        assert any("idempotent" in v for v in report.violations)

    def test_selected_and_merged(self):
        inst = mk((0, 0, 1), (1, 0, 2), (5, 0, 3))
        a = Assignment((1, 1, 3))
        assert a.selected() == (1, 3)
        assert _merge_groups(inst, a) == {1: ((2,), 3), 3: ((), 3)}
        assert len(a.selected()) == 2
        # groups come out by ascending selected disk, whatever the order
        # in which the target names them
        groups = _merge_groups(inst, Assignment((3, 2, 3)))
        assert list(groups.items()) == [(2, ((), 2)), (3, ((1,), 4))]

    @pytest.mark.parametrize("target", [(True, 2), (1, 2.0), (1, "2")])
    def test_rejects_non_int_targets(self, target):
        # True == 1 would pass the range check, and serialize as "True"
        with pytest.raises(FormatError, match="is not an int"):
            Assignment(target)
        with pytest.raises(FormatError):
            Assignment(dict(enumerate(target, start=1)))


class TestVerifyProper:
    def test_accepts_chain_merge(self):
        # each merge becomes reachable only after the previous one
        inst = mk((0, 0, 2), (F(3, 2), 0, 1), (F(5, 2), 0, 1))
        report = verify_proper(inst, Assignment((1, 1, 1)))
        assert report.ok and report.cardinality == 1

    def test_rejects_out_of_reach(self):
        inst = mk((0, 0, 1), (5, 0, 1))
        report = verify_proper(inst, Assignment((1, 1)))
        assert not report.ok

    def test_reach_is_strict(self):
        # second centre exactly on the boundary: not merged
        inst = mk((0, 0, 1), (1, 0, 1))
        assert not verify_proper(inst, Assignment((1, 1))).ok
        assert verify_uproper(inst, Assignment((1, 1))).ok

    def test_rejects_skipped_prefix(self):
        # disk 3 is closer to 1 than disk 2, so merging 2 alone is invalid
        inst = mk((0, 0, 2), (F(3, 2), 0, 1), (1, 0, 1), (9, 0, 8))
        assert not verify_proper(inst, Assignment((1, 1, 4, 4))).ok
        assert verify_proper(inst, Assignment((1, 4, 1, 4))).ok

    def test_aggregate_disjointness_max(self):
        # disk 1 grows to radius 3 by absorbing disk 2; disk 3 at
        # distance 5/2 is then inside the aggregate
        inst = mk((0, 0, 2), (1, 0, 1), (F(5, 2), 0, F(1, 4)))
        report = verify_proper(inst, Assignment((1, 1, 3)), MAX)
        assert not report.ok
        assert any("centre-disjoint" in v for v in report.violations)

    def test_disjointness_boundary_contact_allowed(self):
        inst = mk((0, 0, 2), (1, 0, 1), (3, 0, F(1, 4)))
        assert verify_proper(inst, Assignment((1, 1, 3)), MAX).ok

    def test_sum_mode_is_stricter(self):
        inst = mk((0, 0, 2), (3, 0, 2))
        assert verify_proper(inst, Assignment((1, 2)), MAX).ok
        assert not verify_proper(inst, Assignment((1, 2)), SUM).ok

    def test_shape_mismatch(self):
        inst = mk((0, 0, 1))
        assert not verify_proper(inst, Assignment((1, 2))).ok


class TestVerifyUproper:
    def test_allows_arbitrary_merge_sets(self):
        # merging the far disk while skipping the nearer one is fine
        inst = mk((0, 0, 2), (1, 0, 1), (F(-3, 2), 0, 1), (3, 0, 2))
        a = Assignment((1, 4, 1, 4))
        assert not verify_proper(inst, a).ok
        assert verify_uproper(inst, a).ok

    def test_distance_order_still_constrains_reach(self):
        # the far disk is reachable only through the near one's radius
        inst = mk((0, 0, 1), (F(3, 2), 0, 1), (F(1, 2), 0, 1))
        assert verify_uproper(inst, Assignment((1, 1, 1))).ok
        assert not verify_uproper(inst, Assignment((1, 1, 3))).ok

    def test_aggregate_disjointness_applies(self):
        inst = mk((0, 0, 2), (1, 0, 1), (F(5, 2), 0, F(1, 4)))
        assert not verify_uproper(inst, Assignment((1, 1, 3)), MAX).ok


class TestViolationMessages:
    # 1 merges 3 past the nearer 2; 5 is out of 4's reach, and so is 12
    # behind it; 8 reaches 9 but 10 sits on its boundary (strictly out,
    # relaxed in) with 11 behind; 6 and 7 touch under MAX, overlap under SUM
    inst = mk((0, 0, 2), (1, 0, 1), (F(-3, 2), 0, 1), (20, 0, 1),
              (25, 0, 1), (40, 0, 1), (41, 0, 1), (60, 0, 1),
              (F(121, 2), 0, 1), (62, 0, 1), (63, 0, 1), (26, 0, 1))
    phi = Assignment((1, 2, 1, 4, 4, 6, 7, 8, 8, 8, 8, 4))
    strict = ["disks merged into 1 are not a neighbour-sequence prefix",
              "disk 5 is out of reach of disk 4 when merged",
              "disk 10 is out of reach of disk 8 when merged"]
    relaxed = ["disk 5 is out of reach of disk 4 when merged (relaxed)"]
    overlaps = {
        MAX: ["selected disks 1 and 2 are not centre-disjoint (max rule)"],
        SUM: ["selected disks 1 and 2 are not centre-disjoint (sum rule)",
              "selected disks 6 and 7 are not centre-disjoint (sum rule)"],
    }

    @pytest.mark.parametrize("mode", [MAX, SUM])
    def test_strict_violations_in_order(self, mode):
        report = verify_proper(self.inst, self.phi, mode)
        assert report.violations == self.strict + self.overlaps[mode]
        assert not report.ok and report.cardinality == 6

    @pytest.mark.parametrize("mode", [MAX, SUM])
    def test_relaxed_violations_in_order(self, mode):
        report = verify_uproper(self.inst, self.phi, mode)
        assert report.violations == self.relaxed + self.overlaps[mode]
        assert not report.ok and report.cardinality == 6


class TestCentreDisjoint:
    def test_boundary_contact_allowed(self):
        # aggregates 2 and 1 at distance 2: MAX holds, SUM needs 3
        assert centre_disjoint(F(4), F(2), F(1), MAX)
        assert not centre_disjoint(F(4), F(2), F(1), SUM)
        assert centre_disjoint(F(9), F(2), F(1), SUM)
        assert not centre_disjoint(F(4) - F(1, 100), F(1), F(2), MAX)


def aggregate_radius(inst, a, i):
    """The radii of the disks that ``a`` maps to ``i`` summed, as a
    Fraction, from ``_merge_groups``; 0 when no disk is mapped to ``i``."""
    group = _merge_groups(inst, a).get(i)
    return F(group[1], inst._scale) if group else F(0)


class TestAggregateRadius:
    def test_sums_merged_radii(self):
        inst = mk((0, 0, 2), (1, 0, 1), (F(5, 2), 0, F(1, 2)))
        a = Assignment((1, 1, 1))
        assert aggregate_radius(inst, a, 1) == F(7, 2)

    def test_non_idempotent_map(self):
        # every disk mapped to i counts, whether or not i maps to itself
        inst = mk((0, 0, 2), (1, 0, 1), (F(5, 2), 0, F(1, 2)))
        a = Assignment((2, 3, 3))
        assert [aggregate_radius(inst, a, i) for i in (1, 2, 3)] == \
            [0, 2, F(3, 2)]
        assert list(_merge_groups(inst, a).items()) == \
            [(2, ((1,), 2 * inst._scale)), (3, ((2,), 3 * inst._scale // 2))]


# An independent Fraction-only reference for the integer kernel: every
# rule written out directly on the disks' exact coordinates and radii.

def ref_dist2(inst, i, j):
    p, q = inst.center(i), inst.center(j)
    return (p.x - q.x) ** 2 + (p.y - q.y) ** 2


def ref_by_distance(inst, i, others):
    return sorted(others, key=lambda j: (ref_dist2(inst, i, j), j))


def ref_neighbors(inst, i):
    return tuple(ref_by_distance(
        inst, i, [j for j in range(1, inst.n + 1) if j != i]))


def ref_reach(inst, i):
    total = inst.radius(i)
    walk = [total]
    for j in ref_neighbors(inst, i):
        if not ref_dist2(inst, i, j) < total * total:
            break
        total += inst.radius(j)
        walk.append(total)
    return tuple(walk)


def ref_relaxed_out(inst, i, members):
    total = inst.radius(i)
    for j in ref_by_distance(inst, i, members):
        if ref_dist2(inst, i, j) > total * total:
            return j
        total += inst.radius(j)
    return None


def ref_violations(inst, target, mode, strict):
    n = inst.n
    phi = dict(enumerate(target, start=1))
    shape = [f"not idempotent: {i} -> {phi[i]} -> {phi[phi[i]]}"
             for i in range(1, n + 1) if phi[phi[i]] != phi[i]]
    if shape:
        return shape
    out = []
    selected = [i for i in range(1, n + 1) if phi[i] == i]
    for i in selected:
        members = [j for j in range(1, n + 1) if j != i and phi[j] == i]
        if not strict:
            far = ref_relaxed_out(inst, i, members)
            if far is not None:
                out.append(f"disk {far} is out of reach of disk {i} "
                           f"when merged (relaxed)")
            continue
        seq = ref_neighbors(inst, i)
        if set(seq[:len(members)]) != set(members):
            out.append(f"disks merged into {i} are not a "
                       f"neighbour-sequence prefix")
            continue
        feasible = len(ref_reach(inst, i))
        if len(members) >= feasible:
            out.append(f"disk {seq[feasible - 1]} is out of reach of "
                       f"disk {i} when merged")
    agg = {i: sum(inst.radius(j) for j in range(1, n + 1) if phi[j] == i)
           for i in selected}
    for a, i in enumerate(selected):
        for j in selected[a + 1:]:
            bound = max(agg[i], agg[j]) if mode is MAX else agg[i] + agg[j]
            if ref_dist2(inst, i, j) < bound * bound:
                out.append(f"selected disks {i} and {j} are not "
                           f"centre-disjoint ({mode.value} rule)")
    return out


# pairwise-coprime denominators make the common scale L large
kernel_rationals = st.builds(F, st.integers(-60, 60),
                             st.sampled_from((1, 2, 7, 11, 13)))
kernel_radii = st.builds(F, st.integers(1, 30),
                         st.sampled_from((1, 2, 7, 11, 13)))


@st.composite
def kernel_instances(draw):
    """Up to 7 disks; a disk may share an earlier centre or sit exactly at
    an earlier disk's radius, or radius plus one more radius, from its
    centre (tangency, where strict and relaxed reach differ)."""
    disks = []
    for i in range(draw(st.integers(1, 7))):
        how = draw(st.sampled_from(("free", "same", "tangent"))) \
            if disks else "free"
        if how == "free":
            centre = Point(draw(kernel_rationals), draw(kernel_rationals))
        else:
            base = draw(st.sampled_from(disks))
            centre = base.center
            if how == "tangent":
                gap = base.radius + draw(st.sampled_from(
                    [F(0)] + [d.radius for d in disks]))
                centre = Point(centre.x + gap * F(3, 5),
                               centre.y + gap * F(4, 5))
        disks.append(Disk(i + 1, centre, draw(kernel_radii)))
    return Instance(disks)


@st.composite
def kernel_cases(draw):
    inst = draw(kernel_instances())
    n = inst.n
    ids = st.integers(1, n)
    if draw(st.booleans()):  # any self-map, idempotent or not
        target = draw(st.lists(ids, min_size=n, max_size=n))
    else:
        chosen = draw(st.sets(ids, min_size=1))
        target = [i if i in chosen else draw(st.sampled_from(sorted(chosen)))
                  for i in range(1, n + 1)]
    return inst, tuple(target)


class TestIntegerKernel:
    @settings(max_examples=300, deadline=None)
    @given(kernel_cases())
    def test_matches_fraction_reference(self, case):
        inst, target = case
        n = inst.n
        for i in range(1, n + 1):
            assert inst.neighbor_sequence(i) == ref_neighbors(inst, i)
            walk = reach(inst, i)
            assert walk == ref_reach(inst, i)
            assert all(type(v) is F for v in walk)
            for j in range(1, n + 1):
                d2 = inst.dist2(i, j)
                assert type(d2) is F and d2 == ref_dist2(inst, i, j)
            members = [j for j in range(1, n + 1)
                       if j != i and target[j - 1] == i]
            pairs = sorted((inst._d2(i, j), j) for j in members)
            taken = len(inst._reach(i, False, pairs)) - 1
            assert (pairs[taken][1] if taken < len(pairs) else None) == \
                ref_relaxed_out(inst, i, members)
        phi = Assignment(target)
        for mode in (MAX, SUM):
            for verify, strict in ((verify_proper, True),
                                   (verify_uproper, False)):
                expected = ref_violations(inst, target, mode, strict)
                report = verify(inst, phi, mode)
                assert report.violations == expected
                assert report.ok == (not expected)


def ref_relaxed_bound(inst, i):
    """Least fixed point of ``U = r_i + sum r_j`` over the ``j != i`` with
    ``dist2(i, j) <= U**2``, by iteration from ``r_i``."""
    bound = inst.radius(i)
    while True:
        grown = inst.radius(i) + sum(
            inst.radius(j) for j in range(1, inst.n + 1)
            if j != i and ref_dist2(inst, i, j) <= bound * bound)
        if grown == bound:
            return bound
        bound = grown


sweep_coords = st.builds(F, st.integers(-12, 12), st.sampled_from((1, 2, 3)))


@st.composite
def sweep_instances(draw):
    """Centres that stress the sweep of ``Instance._walk``: on a vertical,
    horizontal or sloped line, in a box with equal x and y extents, on a
    few shared points, or in mirror-image pairs around a centre (equal
    distances on both sides, the larger id on the left); and n = 1."""
    kind = draw(st.sampled_from(("vertical", "horizontal", "sloped", "box",
                                 "shared", "mirror", "single")))
    if kind == "single":
        centres = [(draw(sweep_coords), draw(sweep_coords))]
    elif kind == "mirror":
        cx, cy = draw(sweep_coords), draw(sweep_coords)
        offsets = draw(st.lists(st.tuples(sweep_coords, sweep_coords),
                                min_size=1, max_size=4))
        centres = [(cx, cy)]
        for dx, dy in offsets:
            centres += [(cx + dx, cy + dy), (cx - dx, cy - dy)]
    else:
        us = draw(st.lists(sweep_coords, min_size=2, max_size=9))
        if kind == "vertical":
            centres = [(F(1, 2), u) for u in us]
        elif kind == "horizontal":
            centres = [(u, F(-3)) for u in us]
        elif kind == "sloped":
            slope = draw(st.sampled_from((F(1), F(-1), F(2, 3), F(-5, 2))))
            centres = [(u, slope * u + 1) for u in us]
        elif kind == "box":
            vs = draw(st.lists(sweep_coords, min_size=len(us),
                               max_size=len(us)))
            centres = [(F(-12), F(-12)), (F(12), F(12))] + list(zip(us, vs))
        else:
            pool = list(zip(us, reversed(us)))
            centres = draw(st.lists(st.sampled_from(pool), min_size=2,
                                    max_size=9))
    ids = list(range(1, len(centres) + 1))
    if kind == "mirror":
        ids.reverse()  # the later image of each pair gets the smaller id
    # halves on a grid of thirds and halves: tangencies are common
    radii = [F(draw(st.integers(1, 16)), 2) for _ in centres]
    return Instance([Disk(d, Point(x, y), r)
                     for d, (x, y), r in zip(ids, centres, radii)])


@st.composite
def sweep_reads(draw):
    """An instance and an interleaving of reads: prefixes of random
    length, strict and relaxed reaches, full orders and reads bounded by a
    squared distance, of random disks, with pickle round trips in
    between.  Bounds sit on, just below or just above a squared distance
    or a squared axis gap, or anywhere up to past the largest distance."""
    inst = draw(sweep_instances())
    n = inst.n
    ids = range(1, n + 1)
    d2s = sorted({v for i in ids for j in ids for v in (
        inst._d2(i, j), (inst._x[i] - inst._x[j]) ** 2,
        (inst._y[i] - inst._y[j]) ** 2)})
    bounds = st.one_of(
        st.builds(lambda v, e: max(v + e, 0), st.sampled_from(d2s),
                  st.sampled_from((-1, 0, 1))),
        st.integers(0, d2s[-1] + 1))
    op = st.one_of(
        st.tuples(st.just("prefix"), st.integers(1, n), st.integers(0, n),
                  st.just(0)),
        st.tuples(st.just("bounded"), st.integers(1, n), st.integers(0, n),
                  bounds),
        st.tuples(st.sampled_from(("reach", "relaxed", "full")),
                  st.integers(1, n), st.just(0), st.just(0)),
        st.tuples(st.just("pickle"), st.just(1), st.just(0), st.just(0)))
    return inst, draw(st.lists(op, min_size=1, max_size=3 * n + 3))


def check_cold_bounded_read(disks, i, bound):
    """On a fresh walk, a read bounded by ``bound`` alone visits exactly
    the axis positions at squared gap below ``bound`` and releases exactly
    the pairs below the squared gap of the nearest position it left
    unvisited (below ``bound`` when it visited them all)."""
    inst = Instance(disks)
    pairs = inst._walk(i, 0, bound)
    lo, hi = inst._walks[i][2:4]
    coords, p = inst._coords, inst._rank[i]
    gap2 = {q: (c - coords[p]) ** 2 for q, c in enumerate(coords) if q != p}
    visited = set(range(lo + 1, hi)) - {p}
    assert visited == {q for q, g2 in gap2.items() if g2 < bound}
    stop = min((g2 for q, g2 in gap2.items() if q not in visited),
               default=bound)
    assert pairs == sorted((inst._d2(i, j), j) for j in range(1, inst.n + 1)
                           if j != i and inst._d2(i, j) < stop)


class TestSweepWalk:
    @settings(max_examples=300, deadline=None)
    @given(sweep_reads())
    def test_reads_match_full_sort_reference(self, case):
        inst, reads = case
        scale = inst._scale
        for kind, i, k, bound in reads:
            if kind == "prefix":
                assert prefix(inst, i, k) == \
                    ref_neighbors(inst, i)[:k]
            elif kind == "bounded":
                pairs = inst._walk(i, k, bound)
                assert tuple(j for _, j in pairs) == \
                    ref_neighbors(inst, i)[:len(pairs)]
                assert len(pairs) >= min(k, inst.n - 1)
                assert len(pairs) >= sum(inst._d2(i, j) < bound for j in
                                         range(1, inst.n + 1) if j != i)
                check_cold_bounded_read(inst.disks, i, bound)
            elif kind == "reach":
                assert tuple(F(t, scale) for t in inst._reach(i)) == \
                    ref_reach(inst, i)
            elif kind == "relaxed":
                walk = inst._reach(i, strict=False)
                assert F(walk[-1], scale) == ref_relaxed_bound(inst, i)
                taken = prefix(inst, i, len(walk) - 1)
                assert set(taken) == {
                    j for j in range(1, inst.n + 1) if j != i and
                    ref_dist2(inst, i, j) <= ref_relaxed_bound(inst, i) ** 2}
            elif kind == "full":
                assert inst.neighbor_sequence(i) == ref_neighbors(inst, i)
            else:
                again = pickle.loads(pickle.dumps(inst))
                assert again == inst
                inst = again
        for i in range(1, inst.n + 1):
            assert reach(inst, i) == ref_reach(inst, i)
            assert F(inst._reach(i, strict=False)[-1], scale) == \
                ref_relaxed_bound(inst, i)
            pairs = inst._walk(i, inst.n)
            assert [j for _, j in pairs] == list(ref_neighbors(inst, i))
            assert all(d2 == inst._d2(i, j) for d2, j in pairs)

    def test_reach_walks_once_per_round(self, monkeypatch):
        # every reach of a dense unit line: one walk call per growth
        # round of each aggregate (29,900 calls when it asked per pair)
        calls = 0
        walk = Instance._walk

        def counted(self, *args):
            nonlocal calls
            calls += 1
            return walk(self, *args)

        monkeypatch.setattr(Instance, "_walk", counted)
        inst = mk(*[(x, 0, F(3, 2)) for x in range(200)])
        for i in range(1, inst.n + 1):
            assert len(inst._reach(i)) == inst.n  # it takes every disk
        assert calls < 2000

    def test_pickle_resumes_partial_walk(self):
        inst = mk(*[(x, 2 * x, 1) for x in (5, -3, 0, 4, -1, 2, -4, 1)])
        assert prefix(inst, 3, 2) == (5, 8)  # a tie, by id
        assert len(inst._walks[3][0]) < inst.n - 1  # the walk is partial
        again = pickle.loads(pickle.dumps(inst))
        assert again._walks[3][0] == inst._walks[3][0]
        for i in range(1, inst.n + 1):
            assert again.neighbor_sequence(i) == ref_neighbors(inst, i)
            assert reach(again, i) == ref_reach(inst, i)


def reference_check_disjoint(instance, groups, mode, violations):
    """The all-pairs disjointness check: every selected pair, ascending."""
    selected = list(groups)
    for a in range(len(selected)):
        for b in range(a + 1, len(selected)):
            i, j = selected[a], selected[b]
            if not centre_disjoint(instance._d2(i, j), groups[i][1],
                                   groups[j][1], mode):
                violations.append(
                    f"selected disks {i} and {j} are not centre-disjoint "
                    f"({mode.value} rule)"
                )


def disjointness_cases(count):
    """Seeded ``(rows, target)`` pairs with n = 1..14: quarter-grid centres
    in the plane or on a line of direction (3, 4), centres shared from a
    small pool, or each disk a sum of earlier radii away from an earlier
    centre; radii k/4, so aggregates often equal a centre distance.  The
    target selects every disk, a random set with random members, or
    disks that each take a short prefix of their neighbour sequence."""
    rng = random.Random(1313)

    def quarter(lo, hi):
        return F(rng.randint(4 * lo, 4 * hi), 4)

    def radius():
        return F(rng.randint(1, 12), 4)

    for k in range(count):
        n = rng.randint(1, 14)
        kind = k % 4
        if kind == 0:
            rows = [(quarter(-3, 3), quarter(-3, 3), radius())
                    for _ in range(n)]
        elif kind == 1:
            steps = [quarter(-2, 2) for _ in range(n)]
            rows = [(3 * s, 4 * s, radius()) for s in steps]
        elif kind == 2:
            pool = [(quarter(-2, 2), quarter(-2, 2))
                    for _ in range(max(1, n // 3))]
            rows = [rng.choice(pool) + (radius(),) for _ in range(n)]
        else:
            rows = [(quarter(-2, 2), quarter(-2, 2), radius())]
            while len(rows) < n:
                x, y, r = rng.choice(rows)
                gap = r + sum(row[2] for row in rng.sample(
                    rows, rng.randint(0, min(2, len(rows)))))
                dx, dy = rng.choice(((1, 0), (0, -1), (F(3, 5), F(4, 5))))
                rows.append((x + gap * dx, y + gap * dy, radius()))
        style = rng.randrange(3)
        if style == 0:
            target = list(range(1, n + 1))
        elif style == 1:
            chosen = [i for i in range(1, n + 1) if rng.random() < 0.5] \
                or [rng.randint(1, n)]
            target = [i if i in chosen else rng.choice(chosen)
                      for i in range(1, n + 1)]
        else:
            inst = mk(*rows)
            target = [0] * (n + 1)
            for s in rng.sample(range(1, n + 1), n):
                if target[s]:
                    continue
                target[s] = s
                for j in inst.neighbor_sequence(s)[:rng.randint(0, 3)]:
                    if target[j]:
                        break
                    target[j] = s
            target = target[1:]
        yield rows, tuple(target)


class TestLocalDisjointness:
    def test_matches_all_pairs_reference(self, monkeypatch):
        # both verifiers report what they report with the all-pairs
        # check, in the same order; each run order is rotated so that
        # every (rule, mode) also runs first, on a cold instance
        runs = [(mode, verify) for mode in (MAX, SUM)
                for verify in (verify_proper, verify_uproper)]
        cases = [(mk(*rows).disks, Assignment(target))
                 for rows, target in disjointness_cases(4000)]
        with monkeypatch.context() as patched:
            patched.setattr(core, "_check_disjoint",
                            reference_check_disjoint)
            expected = []
            for disks, phi in cases:
                inst = Instance(disks)
                expected.append({run: run[1](inst, phi, run[0]).violations
                                 for run in runs})
        failing = tangent = 0
        for k, ((disks, phi), want) in enumerate(zip(cases, expected)):
            inst = Instance(disks)
            for mode, verify in runs[k % 4:] + runs[:k % 4]:
                assert verify(inst, phi, mode).violations == \
                    want[mode, verify], (disks, phi.target, mode)
            groups = _merge_groups(inst, phi)
            for mode in (MAX, SUM):
                failing += any("centre-disjoint" in v
                               for v in want[mode, verify_proper])
                tangent += any(
                    inst._d2(i, j) == (max(a, b) if mode is MAX else a + b)
                    ** 2 for i, (_, a) in groups.items()
                    for j, (_, b) in groups.items() if i < j)
        # the corpus must hold failing pairs and exact contact
        assert failing >= 2000 and tangent >= 1000, (failing, tangent)


class TestClosePairs:
    def test_matches_definition(self):
        # every pair within the walk limit of its disk of larger
        # (aggregate, id), a**2 under MAX and (2a)**2 under SUM, reported
        # once by that disk; each pair that fails the rule is among them
        for rows, target in disjointness_cases(600):
            inst = mk(*rows)
            agg = {i: a for i, (_, a) in
                   _merge_groups(inst, Assignment(target)).items()}
            for mode, scale in ((MAX, 1), (SUM, 2)):
                got = _close_pairs(inst, agg, mode)
                assert sorted(got) == sorted(
                    (i, j, inst._d2(i, j)) for i in agg for j in agg
                    if (agg[j], j) < (agg[i], i) and
                    inst._d2(i, j) < (scale * agg[i]) ** 2)
                close = {frozenset((i, j)) for i, j, _ in got}
                assert all(frozenset((i, j)) in close
                           for i in agg for j in agg if i < j and
                           not centre_disjoint(inst._d2(i, j), agg[i],
                                               agg[j], mode))


class TestRuleImplication:
    @settings(max_examples=200, deadline=None)
    @given(kernel_cases())
    def test_strict_acceptance_implies_relaxed(self, case):
        # a strict prefix is walked in the same (distance, id) order, and
        # strictly inside implies within; disjointness is the same rule
        inst, target = case
        phi = Assignment(target)
        for mode in (MAX, SUM):
            if verify_proper(inst, phi, mode).ok:
                assert verify_uproper(inst, phi, mode).ok


class TestNoFloat:
    def test_library_source_has_no_float(self):
        """No float or complex literal and no use of the name ``float``
        anywhere in the package; Fraction ``/`` is exact and allowed."""
        found = []
        for path in sorted(Path(diskmerge.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Constant) and \
                        isinstance(node.value, (float, complex)) or \
                        isinstance(node, ast.Name) and node.id == "float":
                    found.append(f"{path.name}:{node.lineno}")
        assert found == []


class TestPackage:
    def test_public_names_are_the_submodule_objects(self):
        for name in diskmerge.__all__:
            home = importlib.import_module(
                f"diskmerge.{diskmerge._HOME[name]}")
            assert getattr(diskmerge, name) is getattr(home, name)
        assert set(diskmerge.__all__) <= set(dir(diskmerge))
        with pytest.raises(AttributeError):
            diskmerge.no_such_name

    def test_submodules_load_on_first_use(self):
        src = str(Path(diskmerge.__file__).resolve().parents[1])
        code = ("import sys, diskmerge\n"
                "loaded = lambda: sorted(m for m in sys.modules\n"
                "                        if m.startswith('diskmerge.'))\n"
                "print(loaded())\n"
                "diskmerge.solve_exact_rmcmd\n"
                "print(loaded())\n")
        out = subprocess.run([sys.executable, "-c", code],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.splitlines() == [
            "[]", "['diskmerge.core', 'diskmerge.solvers']"]
