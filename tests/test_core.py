"""Verifier and primitive-type behaviour."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from diskmerge.core import (Assignment, Disk, DisjointnessMode, FormatError,
                            Instance, Point, _relaxed_walk, aggregate_radius,
                            cardinality, centre_disjoint, format_rational,
                            parse_rational, verify_proper, verify_uproper)

MAX = DisjointnessMode.MAX
SUM = DisjointnessMode.SUM


def mk(*rows):
    return Instance([Disk(i + 1, Point(F(x), F(y)), F(r))
                     for i, (x, y, r) in enumerate(rows)])


rationals = st.fractions(max_denominator=1000)


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

    def test_neighbor_sequence_orders_by_distance_then_id(self):
        inst = mk((0, 0, 1), (3, 0, 1), (-3, 0, 1), (1, 0, 1))
        assert inst.neighbor_sequence(1) == (4, 2, 3)

    def test_prefix_aggregate_strictly_increasing(self):
        inst = mk((0, 0, 2), (1, 0, 1), (2, 0, F(1, 2)))
        vals = list(inst.reach(1))
        assert len(vals) == 3
        assert vals == sorted(set(vals))
        assert vals[0] == 2 and vals[-1] == F(7, 2)

    def test_reach_stops_at_first_out_of_reach(self):
        # prefixes 0..2 are feasible; the disk at 9 is out of reach
        inst = mk((0, 0, 2), (F(3, 2), 0, 1), (F(5, 2), 0, 1), (9, 0, 1))
        assert inst.reach(1) == (2, 3, 4)


class TestAssignment:
    def test_rejects_non_idempotent(self):
        inst = mk((0, 0, 1), (1, 0, 1), (5, 0, 1))
        # 1 -> 2 but 2 -> 3: a merge chain, not an assignment
        report = verify_proper(inst, Assignment((2, 3, 3)))
        assert not report.ok
        assert any("idempotent" in v for v in report.violations)

    def test_selected_and_merged(self):
        a = Assignment((1, 1, 3))
        assert a.selected() == (1, 3)
        assert a.merged_into(1) == (2,)
        assert cardinality(a) == 2


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


class TestAggregateRadius:
    def test_sums_merged_radii(self):
        inst = mk((0, 0, 2), (1, 0, 1), (F(5, 2), 0, F(1, 2)))
        a = Assignment((1, 1, 1))
        assert aggregate_radius(inst, a, 1) == F(7, 2)


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
            reach = inst.reach(i)
            assert reach == ref_reach(inst, i)
            assert all(type(v) is F for v in reach)
            for j in range(1, n + 1):
                d2 = inst.dist2(i, j)
                assert type(d2) is F and d2 == ref_dist2(inst, i, j)
            members = [j for j in range(1, n + 1)
                       if j != i and target[j - 1] == i]
            assert _relaxed_walk(inst, i, members)[1] == \
                ref_relaxed_out(inst, i, members)
        phi = Assignment(target)
        for mode in (MAX, SUM):
            for verify, strict in ((verify_proper, True),
                                   (verify_uproper, False)):
                expected = ref_violations(inst, target, mode, strict)
                report = verify(inst, phi, mode)
                assert report.violations == expected
                assert report.ok == (not expected)
