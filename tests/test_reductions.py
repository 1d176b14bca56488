"""Gadgets, the SAT reduction, and the transform-style reductions."""

import hashlib
import random
from fractions import Fraction as F
from itertools import product
from math import lcm

import pytest

from diskmerge.core import (Assignment, Disk, DisjointnessMode, FormatError,
                            Instance, Point, verify_proper, verify_uproper)
from diskmerge.fixtures import (FORMULA_FIXTURES, chain_formula,
                                equalize_relaxed_rise_instance,
                                single_negative_clause, three_clause_formula)
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


PARTITION_INEXACT = [
    ((1.5, 1), F(1, 2)), ((1.0, 1), F(1, 2)), ((F(3, 2), 1), F(1, 2)),
    ((True, 1), F(1, 2)), (("1", 1), F(1, 2)), ((1, 1), 0.5),
    ((1, 1), True), ((1, 1), "1/2")]
# each value of that table that is no exact number, once: 1.5, 1.0,
# True, "1", 0.5 and "1/2"
INEXACT = list({(type(v), v): v for values, e in PARTITION_INEXACT
                for v in (*values, e) if type(v) not in (int, F)}.values())


def reference_apply(pose, p):
    """Pose.apply in Fraction arithmetic: M·p + offset."""
    a, b, c, d = pose.matrix
    return Point(a * p.x + b * p.y + pose.offset.x,
                 c * p.x + d * p.y + pose.offset.y)


SIGNED_PERMUTATIONS = [(1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1),
                       (0, 1, -1, 0), (1, 0, 0, -1), (-1, 0, 0, 1),
                       (0, 1, 1, 0), (0, -1, -1, 0)]
OFFSETS = [(0, 0), (3, -2), (-17, 40), (F(1, 10), 0), (F(-7, 3), F(5, 4)),
           (F(11, 120), F(-1, 7)), (F(10 ** 30 + 1, 10 ** 29), 2)]

def _P(x, y):
    return Point(F(x), F(y))


# every gadget's local frame (selectors, markers, ports) in Fractions, with
# the Input gadget's absorber, written out apart from the int frames of
# diskmerge.gadgets so that a slip in those tables shows
FRACTION_FRAMES = {
    GadgetKind.INPUT: (
        (("main", _P(F(-11, 20), 0), F(29, 50)),
         ("absorber", _P(F(11, 20), 0), F(29, 50))),
        (("int", _P(F(-3, 10), 0)), ("absint", _P(F(3, 10), 0))),
        (("port", _P(0, 0)),)),
    GadgetKind.COPY4: (
        (("sa", _P(F(3, 10), 0), F(1, 3)), ("sb", _P(F(7, 10), 0), F(1, 3))),
        (("block", _P(F(1, 2), 0)), ("tail", _P(F(1, 2), F(1, 4)))),
        (("a", _P(0, 0)), ("b", _P(1, 0)))),
    GadgetKind.COPY6: (
        (("s_in", _P(F(-9, 10), F(1, 2)), F(11, 20)),
         ("s_out", _P(F(1, 8), 0), F(21, 20))),
        (("block", _P(F(-1, 2), F(1, 4))), ("tail", _P(F(-1, 2), F(5, 6)))),
        (("in", _P(-1, 0)), ("out_e", _P(1, 0)), ("out_n", _P(0, 1)),
         ("out_s", _P(0, -1)))),
    GadgetKind.NOT: (
        (("s_pass", _P(F(9, 20), F(1, 5)), F(31, 50)),
         ("s_idle", _P(F(9, 20), F(-1, 2)), F(14, 25))),
        (("block", _P(F(9, 20), 0)), ("tail", _P(F(9, 10), F(-1, 5)))),
        (("a", _P(0, 0)), ("b", _P(1, 0)))),
    GadgetKind.DISJUNCTION: (
        (("s_w", _P(F(-11, 20), 0), F(14, 25)),
         ("s_s", _P(0, F(-11, 20)), F(14, 25)),
         ("s_e", _P(F(11, 20), 0), F(14, 25))),
        (("core", _P(0, 0)),),
        (("w", _P(-1, 0)), ("s", _P(0, -1)), ("e", _P(1, 0)))),
}


class TestPose:
    def test_signed_permutations(self):
        """The eight matrices are exactly those Pose accepts in -1..1."""
        accepted = []
        for m in product((-1, 0, 1), repeat=4):
            try:
                Pose(m)
            except FormatError:
                continue
            accepted.append(m)
        assert sorted(accepted) == sorted(SIGNED_PERMUTATIONS)

    def test_rejects_non_orthogonal_matrix(self):
        with pytest.raises(FormatError):
            Pose((1, 1, 0, 1))
        with pytest.raises(FormatError):
            Pose((2, 0, 0, 1))

    @pytest.mark.parametrize("value", INEXACT)
    def test_rejects_inexact_offset(self, value):
        with pytest.raises(FormatError):
            pose_at(value, 0)
        with pytest.raises(FormatError):
            pose_at(0, value, (0, -1, 1, 0))
        with pytest.raises(FormatError):
            Pose(offset=Point(F(0), value))

    @pytest.mark.parametrize("matrix", [(True, 0, 0, True), (1.0, 0, 0, 1),
                                        (F(1), 0, 0, 1), (0, -1, 1.0, 0)])
    def test_rejects_non_int_matrix(self, matrix):
        with pytest.raises(FormatError):
            Pose(matrix)

    def test_apply_rotation(self):
        pose = pose_at(10, 0, (0, -1, 1, 0))
        assert pose.apply(Point(F(1), F(0))) == Point(F(10), F(1))

    @pytest.mark.parametrize("kind", list(GadgetKind))
    def test_matches_fraction_formula(self, kind):
        """Every signed permutation at integer and rational offsets: each
        posed frame point and each built gadget equal the Fraction
        formula applied to the gadget's frame as it was first written."""
        sdisks, mdisks, ports = FRACTION_FRAMES[kind]
        points = [p for _, p, _ in sdisks] + [p for _, p in mdisks + ports]
        for matrix in SIGNED_PERMUTATIONS:
            for ox, oy in OFFSETS:
                pose = pose_at(ox, oy, matrix)
                for p in points:
                    assert pose.apply(p) == reference_apply(pose, p)
                g = build_gadget(kind, pose,
                                 with_absorber=kind is GadgetKind.INPUT)
                assert g.sdisks == tuple(
                    (n, reference_apply(pose, p), r) for n, p, r in sdisks)
                assert g.mdisks == tuple(
                    (n, reference_apply(pose, p)) for n, p in mdisks)
                assert g.ports == tuple(
                    (n, reference_apply(pose, p)) for n, p in ports)
                for q in (c for _, c, _ in g.sdisks):
                    assert type(q.x) is F and type(q.y) is F


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
        with pytest.raises(ReductionError, match="overlaps a foreign disk"):
            assemble([a, b])

    def test_port_shared_by_three_rejected(self):
        gadgets = [build_gadget(GadgetKind.INPUT, Pose()),
                   build_gadget(GadgetKind.COPY4, pose_at(0, 0)),
                   build_gadget(GadgetKind.NOT, pose_at(0, 0))]
        with pytest.raises(ReductionError,
                           match="shared by more than two gadgets"):
            assemble(gadgets)

    def test_no_gadgets_rejected(self):
        with pytest.raises(ReductionError, match="no marker disks"):
            assemble([])


def _common_scale(values):
    """``L``, the lcm of the denominators of ``values``."""
    return lcm(*{v.denominator for v in values})


def _scaled(value, scale):
    """``value * scale`` as an int, for ``scale`` a multiple of its
    denominator."""
    return value.numerator * (scale // value.denominator)


def reference_assemble(gadgets):
    """The all-pairs ``assemble``: every selector pair, and every selector
    against every marker centre and every other selector."""
    sdisk_list = []
    owners = {}
    for gi, g in enumerate(gadgets):
        for name, p, r in g.sdisks:
            sdisk_list.append((gi, name, p, r))
        for name, p in list(g.mdisks) + list(g.ports):
            owners.setdefault(p, []).append((gi, name))

    if any(len(v) > 2 for v in owners.values()):
        raise ReductionError("a port is shared by more than two gadgets")
    marker_centers = list(owners)
    k = len(marker_centers)
    if k == 0:
        raise ReductionError("no marker disks")

    centres = [c for _, _, c, _ in sdisk_list] + marker_centers
    L = _common_scale([r for *_, r in sdisk_list]
                      + [v for p in centres for v in (p.x, p.y)])
    sel = [(_scaled(c.x, L), _scaled(c.y, L), _scaled(r, L))
           for _, _, c, r in sdisk_list]
    mk = [(_scaled(p.x, L), _scaled(p.y, L)) for p in marker_centers]
    own_markers = [set() for _ in gadgets]
    for m, p in enumerate(marker_centers):
        for gi, _ in owners[p]:
            own_markers[gi].add(m)

    for i, (x1, y1, r1) in enumerate(sel):
        for j in range(i + 1, len(sel)):
            x2, y2, r2 = sel[j]
            m = max(r1, r2)
            if (x1 - x2) ** 2 + (y1 - y2) ** 2 < m * m:
                raise ReductionError("selectors too close")

    min_term = None
    for i, (gi, name, _, _) in enumerate(sdisk_list):
        x, y, r = sel[i]
        r2 = r * r
        den = L * (2 * r + L)
        others = [(q, m in own_markers[gi]) for m, q in enumerate(mk)]
        others += [(s[:2], False) for j, s in enumerate(sel) if j != i]
        for (qx, qy), is_own in others:
            d2 = (qx - x) ** 2 + (qy - y) ** 2
            if d2 <= r2:
                if is_own:
                    continue
                raise ReductionError("selector overlaps a foreign disk")
            num = d2 - r2
            if min_term is None or num * min_term[1] < min_term[0] * den:
                min_term = (num, den)

    m2 = None
    for i, (x1, y1) in enumerate(mk):
        for x2, y2 in mk[i + 1:]:
            d2 = (x1 - x2) ** 2 + (y1 - y2) ** 2
            if m2 is None or d2 < m2:
                m2 = d2

    eps = F(1, 4 * k)
    if min_term is not None:
        eps = min(eps, F(min_term[0], min_term[1] * k))
    if m2 is not None:
        eps = min(eps, min(F(m2, L * L), F(1)) / (2 * k))

    disks = []
    point_id = {}
    for g in gadgets:
        for _, p, r in g.sdisks:
            disks.append(Disk(len(disks) + 1, p, r))
        for _, p in list(g.mdisks) + list(g.ports):
            if p not in point_id:
                disks.append(Disk(len(disks) + 1, p, eps))
                point_id[p] = len(disks)
    return eps, Instance(disks)


_SIGNED_PERMUTATIONS = [(a, b, c, d) for a, b, c, d in
                        product((-1, 0, 1), repeat=4)
                        if abs(a) + abs(b) == 1 and abs(c) + abs(d) == 1
                        and a * c + b * d == 0]


def random_gadget(rng):
    """A random gadget kind, signed-permutation pose matrix and set of
    options, as a function from an offset to the gadget placed there."""
    kind = rng.choice(list(GadgetKind))
    matrix = rng.choice(_SIGNED_PERMUTATIONS)
    options = {}
    if kind is GadgetKind.INPUT:
        options["with_absorber"] = rng.random() < 0.5
    elif kind is GadgetKind.COPY6:
        options["drop_ports"] = [n for n in ("out_e", "out_n", "out_s")
                                 if rng.random() < 0.3]
    elif kind is GadgetKind.DISJUNCTION:
        options["drop_ports"] = rng.sample(["w", "s", "e"], rng.randint(0, 2))
    return lambda offset: build_gadget(kind, Pose(matrix, offset), **options)


def random_layout(rng):
    """One to four random gadgets at offsets with denominators 1..10.  In
    every third layout the last gadget instead puts one of its disks
    exactly on the base circle of a selector of an earlier gadget."""
    gadgets = []
    for _ in range(rng.randint(1, 4)):
        den = rng.randint(1, 10)
        offset = Point(F(rng.randint(-4 * den, 4 * den), den),
                       F(rng.randint(-4 * den, 4 * den), den))
        gadgets.append(random_gadget(rng)(offset))
    if len(gadgets) > 1 and rng.random() < 1 / 3:
        _, c, r = rng.choice([s for g in gadgets[:-1] for s in g.sdisks])
        place = random_gadget(rng)
        origin = place(Point(F(0), F(0)))
        q = rng.choice([p for _, p, _ in origin.sdisks] +
                       [p for _, p in origin.mdisks + origin.ports])
        dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
        gadgets[-1] = place(Point(c.x + dx * r - q.x, c.y + dy * r - q.y))
    return gadgets


def _assemble_or_none(assembler, gadgets):
    try:
        return assembler(gadgets)
    except ReductionError:
        return None


class TestChainFormula:
    @pytest.mark.parametrize("num_variables,disks",
                             [(10, 380), (20, 800), (80, 3320)])
    def test_disk_count(self, num_variables, disks):
        f, rep = chain_formula(num_variables)
        assert reduce_sat(f, rep).instance.n == disks
        odd = {v: v % 2 for v in range(1, num_variables + 1)}
        assert f.is_satisfied(odd)


class TestAssembleReference:
    def test_random_layouts_match_all_pairs(self):
        rng = random.Random(1200)
        rejected = 0
        for _ in range(400):
            gadgets = random_layout(rng)
            want = _assemble_or_none(reference_assemble, gadgets)
            got = _assemble_or_none(assemble, gadgets)
            if want is None:
                rejected += 1
                assert got is None
            else:
                assert got is not None
                assert (got.epsilon, got.instance) == want
        assert 100 <= rejected <= 300

    def test_chain_formula_matches_all_pairs(self):
        f, rep = chain_formula(20)
        art = reduce_sat(f, rep)
        assert art.instance.n >= 800
        assert (art.epsilon, art.instance) == \
            reference_assemble(art.gadgets)


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

    def test_extract_rejects_unverified_assignment(self):
        f, rep = FORMULA_FIXTURES["unit_clause"]()
        art = reduce_sat(f, rep)
        identity = Assignment(tuple(range(1, art.instance.n + 1)))
        with pytest.raises(FormatError) as info:
            extract_sat_assignment(art, identity)
        assert str(info.value) == (
            "assignment fails verification: selected disks 1 and 2 are "
            "not centre-disjoint (max rule)")

    def test_metadata_shape(self):
        f, rep = single_negative_clause()
        art = reduce_sat(f, grid_embed(f, rep))
        meta = art.metadata()
        assert meta["kind"] == "sat-reduction"
        assert len(meta["gadgets"]) == len(art.gadgets)

    @pytest.mark.parametrize("kind", [GadgetKind.COPY4, GadgetKind.NOT])
    def test_harness_accepts_under_max_only(self, kind):
        # the reduction holds under MAX only: under SUM neighbouring
        # selectors are closer than the sum of their radii
        inst = port_harness(build_gadget(kind, Pose())).instance
        assert [len(list(enumerate_proper_assignments(inst, mode)))
                for mode in DisjointnessMode] == [2, 0]

    def test_sum_rule_accepts_nothing_satisfiable(self):
        f, rep = FORMULA_FIXTURES["unit_clause"]()
        inst = reduce_sat(f, rep).instance
        assert [len(list(enumerate_proper_assignments(inst, mode)))
                for mode in DisjointnessMode] == [1, 0]


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
    "nested_negative": ("289/2862000", "1cc0c02dfab744a670c5e2581a970442"
                        "749e48a2b83d129a21c69a6266bbbaa0"),
    "mixed_polarity": ("289/1462800", "44453d2bdfd11279a2da151e34713f77"
                       "c0433d380b907a876bf6e85c048a8969"),
    "unit_clause": ("11/3375", "aac5b5cd53c768b75e568c2ced80de87"
                    "c45849be7e7c79aa85315583ceddee63"),
    "negative_unit_clause": ("289/190800", "705465d40765224bd0f331fd44eba654"
                             "4130093c1338f9d4da50a1dcc80b9758"),
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


def verifier_cases(name, draws=3):
    """The instance of formula fixture ``name`` and, by label, the target
    tuples of its assignment for the first satisfying valuation and of
    seeded mutations of it: a member moved to another selected disk, a
    member un-merged, a selected disk merged into its nearest neighbour,
    two members of a group swapped for nearby non-members, so that the
    member set keeps its size but is no neighbour-sequence prefix, and a
    group grown by the next non-selected disks of its sequence, so that
    it stays a prefix but can pass out of reach."""
    formula, rep = FORMULA_FIXTURES[name]()
    art = reduce_sat(formula, rep)
    inst = art.instance
    values = next(val for bits in product((0, 1),
                                          repeat=formula.num_variables)
                  if formula.is_satisfied(
                      val := {v + 1: b for v, b in enumerate(bits)}))
    built = build_assignment_from_sat(art, values).target
    selected = [i for i, t in enumerate(built, 1) if t == i]
    members = [j for j, t in enumerate(built, 1) if t != j]
    rng = random.Random(name)
    cases = {"built": built}
    for k in range(draws):
        target = list(built)
        j = rng.choice(members)
        target[j - 1] = rng.choice([s for s in selected if s != built[j - 1]])
        cases[f"moved-{k}"] = tuple(target)

        target = list(built)
        j = rng.choice(members)
        target[j - 1] = j
        cases[f"unmerged-{k}"] = tuple(target)

        target = list(built)
        s = rng.choice(selected)
        target[s - 1] = inst.neighbor_sequence(s)[0]
        cases[f"nearest-{k}"] = tuple(target)

        target = list(built)
        s = rng.choice([s for s in selected if s in built[:s - 1] + built[s:]])
        group = [j for j in members if built[j - 1] == s]
        seq = inst.neighbor_sequence(s)
        outside = [j for j in seq[:2 * len(group) + 4]
                   if j not in group and built[j - 1] != j]
        for j, k2 in zip(rng.sample(group, min(2, len(group))),
                         rng.sample(outside, min(2, len(outside)))):
            target[j - 1], target[k2 - 1] = built[k2 - 1], s
        cases[f"swapped-{k}"] = tuple(target)

        target = list(built)
        s = rng.choice(selected)
        seq = inst.neighbor_sequence(s)
        m = sum(t == s for t in built) - 1
        for j in seq[m:m + 3]:
            if built[j - 1] == j:
                break
            target[j - 1] = s
        cases[f"grown-{k}"] = tuple(target)
    return inst, cases


# sha256 of every verdict (ok, cardinality, violations) of verify_proper
# and verify_uproper, under MAX and SUM, on verifier_cases(name), recorded
# before the strict verifier read each group's walk once
VERIFIER_PINS = {
    "mixed_polarity": "b26819bac94919744a4b7d084b63fd6a"
        "af4bfe72b15240e4a914311643f0b601",
    "negative_unit_clause": "df57fbfde3b196cbcfe22e5c63dd1253"
        "6a771a1693dd6ae035772e32194527ed",
    "nested_negative": "d3d6ce24c5b7187ec2e9347c37cbabbb"
        "ed3dc4a9d4229c5a02173c9226573627",
    "nested_positive": "7e51ceb5dd317b3785e87af1c2586b83"
        "c51d5e4a8ab965008332b4713c0146ab",
    "single_negative": "5ee87ea9fe64b26fe706ed99f7dc3086"
        "2b2c98e85d037044feedeb8276912077",
    "single_positive": "721d6ac1741c998e3e695bb118f54ab9"
        "32bea9e57e69acf257761a497371273a",
    "three_clause": "741af9b17627c4968ef23ecd1a676ceb"
        "e415233ee0b4d25492c89bf46b55ae02",
    "unit_clause": "b70a80a148cd1ad4ab009d7374c18ae4"
        "16ef79f7bd198880ebfe125d8aad0cb0",
    "variables_only": "85b929297b28683de42ba52c90c181f7"
        "f58c9caea3cdc985740527953499083b",
}


class TestVerifierPinned:
    def test_every_fixture_pinned(self):
        assert set(VERIFIER_PINS) == set(FORMULA_FIXTURES)

    @pytest.mark.parametrize("name", sorted(VERIFIER_PINS))
    def test_verdicts(self, name):
        inst, cases = verifier_cases(name)
        verdicts = []
        for label, target in cases.items():
            for verify in (verify_proper, verify_uproper):
                for mode in DisjointnessMode:
                    report = verify(inst, Assignment(target), mode)
                    verdicts.append((label, verify.__name__, mode.value,
                                     report.ok, report.cardinality,
                                     report.violations))
        assert cases["built"] and verdicts[0][3]
        digest = hashlib.sha256(repr(verdicts).encode()).hexdigest()
        assert digest == VERIFIER_PINS[name]


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

    @pytest.mark.parametrize("values,e", PARTITION_INEXACT)
    def test_rejects_inexact_input(self, values, e):
        # a float value would make every coordinate a float; a bool or a
        # non-integral value is not a partition value
        with pytest.raises(FormatError):
            PartitionInput(values, e)

    def test_integral_fractions_and_ints_agree(self):
        assert reduce_partition(PartitionInput((F(3), F(1)), F(1, 3))) == \
            reduce_partition(PartitionInput((3, 1), F(1, 3)))

    def test_balanced_sets_reach_four(self):
        inst = reduce_partition(PartitionInput((F(1), F(1))))
        assert solve_exact_rmcmd(inst).cardinality == 4

    def test_unbalanced_sets_fall_short(self):
        # e below 1/2 keeps the reduction sound for odd totals
        inst = reduce_partition(PartitionInput((F(1), F(2)), e=F(1, 3)))
        assert solve_exact_rmcmd(inst).cardinality < 4


class TestEqualizeRadii:
    @pytest.mark.parametrize("r", INEXACT)
    def test_rejects_inexact_radius(self, r):
        inst = Instance([Disk(1, Point(F(0), F(0)), F(1))])
        with pytest.raises(FormatError):
            equalize_radii(inst, r)

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

    def test_strict_kept_relaxed_never_lowered(self):
        # the property that does hold on dense bases (centres on a quarter
        # grid, most pairs overlapping): the strict optimum is unchanged,
        # and the relaxed one never drops, since the copies of a selected
        # disk can all merge into one of them at distance 0
        rng = random.Random(1500)
        for _ in range(1000):
            while True:
                n = rng.randint(2, 4)
                disks = [Disk(i + 1, Point(F(rng.randint(-2 * n, 2 * n), 4),
                                           F(rng.randint(-2 * n, 2 * n), 4)),
                              F(rng.choice((1, 2, 3)))) for i in range(n)]
                if sum(d.radius for d in disks) <= 7:
                    break
            inst = Instance(disks)
            eq = equalize_radii(inst, F(1)).instance
            a, b = solve_exact_mcmd(inst), solve_exact_mcmd(eq)
            assert (a.status, a.cardinality) == (b.status, b.cardinality)
            a, b = solve_exact_rmcmd(inst), solve_exact_rmcmd(eq)
            assert b.cardinality >= a.cardinality

    def test_relaxed_optimum_counterexample(self):
        # equalize_radii does not preserve the relaxed optimum: the two
        # copies of disk 3 (split ids 3 and 4) merge into different
        # targets (2 and 5), which the unsplit disk 3 cannot do
        inst = equalize_relaxed_rise_instance()
        eq = equalize_radii(inst, F(1)).instance
        assert solve_exact_rmcmd(inst).cardinality == 1
        relaxed = solve_exact_rmcmd(eq)
        assert relaxed.cardinality == 2
        assert relaxed.assignment == Assignment((2, 2, 2, 5, 5, 5))
        assert verify_uproper(eq, relaxed.assignment).ok
        assert solve_exact_mcmd(inst).cardinality == 1
        assert solve_exact_mcmd(eq).cardinality == 1
