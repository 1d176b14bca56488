"""Gadgets, the SAT reduction, and the transform-style reductions."""

import hashlib
from fractions import Fraction as F
from itertools import product

import pytest

from diskmerge.core import (Assignment, Disk, FormatError, Instance, Point,
                            verify_proper, verify_uproper)
from diskmerge.fixtures import (FORMULA_FIXTURES, single_negative_clause,
                                three_clause_formula)
from diskmerge.formula import grid_embed
from diskmerge.gadgets import GadgetKind, Pose, build_gadget, pose_at
from diskmerge.reduction import (ReductionError, assemble,
                                 build_assignment_from_sat,
                                 extract_sat_assignment, port_harness,
                                 reduce_sat)
from diskmerge.serialization import serialize_instance
from diskmerge.solvers import (enumerate_proper_assignments,
                               solve_exact_mcmd, solve_exact_rmcmd)
from diskmerge.transforms import (PartitionInput, equalize_radii,
                                  reduce_partition)


class TestPose:
    def test_rejects_non_orthogonal_matrix(self):
        with pytest.raises(FormatError):
            Pose((1, 1, 0, 1))
        with pytest.raises(FormatError):
            Pose((2, 0, 0, 1))

    def test_apply_rotation(self):
        pose = pose_at(10, 0, (0, -1, 1, 0))
        assert pose.apply(Point(F(1), F(0))) == Point(F(10), F(1))


class TestGadgets:
    def test_ports_are_lattice_points(self):
        for kind in GadgetKind:
            g = build_gadget(kind, Pose())
            for _, p in g.ports:
                assert p.x.denominator == 1 and p.y.denominator == 1

    def test_drop_ports(self):
        g = build_gadget(GadgetKind.COPY6, Pose(), drop_ports=("out_n",))
        names = [n for n, _ in g.ports]
        assert "out_n" not in names and "out_s" in names

    def test_disjunction_selector_per_port(self):
        g = build_gadget(GadgetKind.DISJUNCTION, Pose(), drop_ports=("w",))
        selectors = [n for n, _, _ in g.sdisks]
        assert sorted(selectors) == ["s_e", "s_s"]


class TestAssemble:
    def test_shared_port_deduplicated(self):
        a = build_gadget(GadgetKind.INPUT, Pose())
        b = build_gadget(GadgetKind.COPY4, pose_at(0, 0))
        asm = assemble([a, b])
        assert asm.mdisk_ids[(0, "port")] == asm.mdisk_ids[(1, "a")]

    def test_epsilon_positive_and_small(self):
        a = build_gadget(GadgetKind.INPUT, Pose())
        b = build_gadget(GadgetKind.COPY4, pose_at(0, 0))
        asm = assemble([a, b])
        assert 0 < asm.epsilon < F(1, 4)

    def test_overlapping_gadgets_rejected(self):
        a = build_gadget(GadgetKind.INPUT, Pose())
        b = build_gadget(GadgetKind.INPUT, pose_at(F(1, 10), 0))
        with pytest.raises(ReductionError):
            assemble([a, b])


def port_states(kind):
    g = build_gadget(kind, Pose())
    asm = port_harness(g)
    ids = {name: asm.mdisk_ids[(0, name)] for name, _ in g.ports}
    own = {did for (gi, _), did in
           list(asm.sdisk_ids.items()) + list(asm.mdisk_ids.items())
           if gi == 0}
    states = set()
    for a in enumerate_proper_assignments(asm.instance):
        states.add(frozenset(
            n for n, did in ids.items()
            if a.target[did - 1] in own and a.target[did - 1] != did))
    return states


class TestGadgetBehaviour:
    def test_copy_transfers_exactly_one_port(self):
        assert port_states(GadgetKind.COPY4) == \
            {frozenset({"a"}), frozenset({"b"})}

    def test_not_takes_both_or_neither(self):
        assert port_states(GadgetKind.NOT) == \
            {frozenset(), frozenset({"a", "b"})}

    def test_disjunction_takes_any_nonempty_subset(self):
        states = port_states(GadgetKind.DISJUNCTION)
        assert frozenset() not in states
        assert all(len(s) >= 1 for s in states)
        assert len(states) == 7


class TestReduceSat:
    def test_artifact_structure(self):
        f, rep = three_clause_formula()
        art = reduce_sat(f, grid_embed(f, rep))
        assert sorted(art.port_map) == [1, 2, 3, 4]
        assert art.instance.n == len(set(
            d.id for d in art.instance.disks))
        assert art.epsilon > 0

    def test_unsatisfying_valuation_rejected(self):
        f, rep = single_negative_clause()
        art = reduce_sat(f, grid_embed(f, rep))
        bad = {v: 1 for v in range(1, f.num_variables + 1)}
        assert not f.is_satisfied(bad)
        with pytest.raises(ReductionError):
            build_assignment_from_sat(art, bad)

    def test_satisfying_valuation_round_trips(self):
        f, rep = single_negative_clause()
        art = reduce_sat(f, grid_embed(f, rep))
        good = {v: 0 for v in range(1, f.num_variables + 1)}
        a = build_assignment_from_sat(art, good)
        assert verify_proper(art.instance, a).ok
        assert extract_sat_assignment(art, a) == good

    def test_metadata_shape(self):
        f, rep = single_negative_clause()
        art = reduce_sat(f, grid_embed(f, rep))
        meta = art.metadata()
        assert meta["kind"] == "sat-reduction"
        assert len(meta["gadgets"]) == len(art.gadgets)


# Epsilon and the sha256 of the instance document (metadata included, as
# `reduce sat` writes it) for every formula fixture, and the epsilon of
# every gadget's port harness, recorded from the Fraction-only assemble.
# The integer kernel must reproduce them exactly.
SAT_PINS = {
    "three_clause": ("289/4854800", "876a5deb058c5efab27a887b9f017e83"
                     "a5cba55e391334d4815855290adedd4d"),
    "single_positive": ("11/16125", "1e651bad9f9e232b26885a19f07e824f"
                        "6af6c03edc8df18a4b4205dd06555588"),
    "single_negative": ("289/911600", "3b49941a945c227e62cd6e82d92650310"
                        "bf0be583537b7b70216a4a1499695d8"),
    "nested_positive": ("11/50625", "37defcccf0689bb4557835d605c1ef1b3"
                        "84ac5284a768b716e821054ec0fdddc"),
    "mixed_polarity": ("289/1462800", "44453d2bdfd11279a2da151e34713f77"
                       "c0433d380b907a876bf6e85c048a8969"),
    "unit_clause": ("11/3375", "aac5b5cd53c768b75e568c2ced80de87"
                    "c45849be7e7c79aa85315583ceddee63"),
    "variables_only": ("3/400", "14a8726c6e2cc5211510a4bfe45a68ce"
                       "4efd4eab6f53a9ebdea230031c1bd4c3"),
}
HARNESS_EPSILON = {
    GadgetKind.INPUT: F(3, 200),
    GadgetKind.COPY4: F(11, 2250),
    GadgetKind.COPY6: F(9, 2000),
    GadgetKind.DISJUNCTION: F(9, 1400),
    GadgetKind.NOT: F(1, 240),
}


class TestReductionPinned:
    def test_every_fixture_pinned(self):
        assert set(SAT_PINS) == set(FORMULA_FIXTURES)
        assert set(HARNESS_EPSILON) == set(GadgetKind)

    @pytest.mark.parametrize("name", sorted(SAT_PINS))
    def test_reduce_sat_bytes(self, name):
        f, rep = FORMULA_FIXTURES[name]()
        art = reduce_sat(f, rep)
        text = serialize_instance(art.instance, art.metadata())
        assert (str(art.epsilon),
                hashlib.sha256(text.encode()).hexdigest()) == SAT_PINS[name]

    @pytest.mark.parametrize("kind", list(GadgetKind))
    def test_port_harness_epsilon(self, kind):
        asm = port_harness(build_gadget(kind, Pose()))
        assert asm.epsilon == HARNESS_EPSILON[kind]


class TestReducePartition:
    def test_construction_coordinates(self):
        inst = reduce_partition(PartitionInput((F(1), F(1))))
        s = 2
        assert inst.n == 6
        assert inst.center(1) == Point(F(0), F(0))
        assert inst.radius(1) == 2 * s
        assert inst.center(2) == Point(F(3 * s), F(0))
        assert inst.center(3) == Point(F(0), F(5 * s, 2) + F(1, 2))
        assert inst.radius(3) == s
        assert inst.center(5) == Point(F(3 * s, 2), F(0))
        assert inst.radius(5) == 1

    def test_input_validation(self):
        with pytest.raises(FormatError):
            PartitionInput(())
        with pytest.raises(FormatError):
            PartitionInput((F(1),), e=F(3, 2))
        with pytest.raises(FormatError):
            PartitionInput((F(0),))

    def test_balanced_sets_reach_four(self):
        inst = reduce_partition(PartitionInput((F(1), F(1))))
        assert solve_exact_rmcmd(inst).cardinality == 4

    def test_unbalanced_sets_fall_short(self):
        # e below 1/2 keeps the reduction sound for odd totals
        inst = reduce_partition(PartitionInput((F(1), F(2)), e=F(1, 3)))
        assert solve_exact_rmcmd(inst).cardinality < 4


class TestEqualizeRadii:
    def test_splits_into_concentric_unit_disks(self):
        inst = Instance([Disk(1, Point(F(0), F(0)), F(3)),
                         Disk(2, Point(F(9), F(0)), F(1))])
        eq = equalize_radii(inst, F(1))
        assert eq.instance.n == 4
        assert all(d.radius == 1 for d in eq.instance.disks)
        assert sorted(eq.origin.values()) == [1, 1, 1, 2]

    def test_rejects_non_multiple(self):
        inst = Instance([Disk(1, Point(F(0), F(0)), F(3, 2))])
        with pytest.raises(FormatError):
            equalize_radii(inst, F(1))

    def test_preserves_optimum(self):
        inst = Instance([Disk(1, Point(F(0), F(0)), F(2)),
                         Disk(2, Point(F(3), F(0)), F(1)),
                         Disk(3, Point(F(8), F(0)), F(1))])
        eq = equalize_radii(inst, F(1))
        assert solve_exact_rmcmd(inst).cardinality == \
            solve_exact_rmcmd(eq.instance).cardinality

    def test_relaxed_optimum_counterexample(self):
        # equalize_radii does not preserve the relaxed optimum: the two
        # copies of disk 3 (split ids 3 and 4) merge into different
        # targets (2 and 5), which the unsplit disk 3 cannot do
        inst = Instance([Disk(1, Point(F(3, 4), F(-1, 2)), F(1)),
                         Disk(2, Point(F(1, 2), F(1, 4)), F(1)),
                         Disk(3, Point(F(-3, 4), F(-1, 2)), F(2)),
                         Disk(4, Point(F(-7, 4), F(-7, 4)), F(2))])
        eq = equalize_radii(inst, F(1)).instance
        assert solve_exact_rmcmd(inst).cardinality == 1
        relaxed = solve_exact_rmcmd(eq)
        assert relaxed.cardinality == 2
        assert relaxed.assignment == Assignment((2, 2, 2, 5, 5, 5))
        assert verify_uproper(eq, relaxed.assignment).ok
        assert solve_exact_mcmd(inst).cardinality == 1
        assert solve_exact_mcmd(eq).cardinality == 1
