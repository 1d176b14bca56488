"""Satisfiability-to-disk-merging reduction.

``reduce_sat`` turns a monotone planar formula with a rectilinear
drawing into a disk instance whose strict merge assignments encode
satisfying assignments.  The layout scales grid columns by 2 and rows
by 3: a crossing gadget sits at every leg column of the variable row,
copy gadgets relay along legs and clause rows, a negation gadget heads
every below-axis leg, and each clause row carries up to two corner
crossings plus one disjunction gadget.

``build_assignment_from_sat`` and ``extract_sat_assignment`` convert
between satisfying variable values and merge assignments.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (Assignment, DisjointnessMode, FormatError, Instance,
                   format_rational, verify_proper)
from .formula import MonotoneFormula, RectilinearRep, grid_embed
from .gadgets import _DEN, Gadget, GadgetKind, Pose, build_gadget, pose_at

F = Fraction

class ReductionError(FormatError):
    pass


@dataclass
class Assembly:
    """Gadgets compiled into one instance: shared ports deduplicated,
    ids assigned, and a common marker-disk radius epsilon chosen."""

    instance: Instance
    gadgets: tuple[Gadget, ...]
    sdisk_ids: dict[tuple[int, str], int]
    mdisk_ids: dict[tuple[int, str], int]
    epsilon: Fraction


def assemble(gadgets: Sequence[Gadget]) -> Assembly:
    """Assign ids, validate gadget separation, and choose epsilon.

    Epsilon is small enough that no selector's aggregate radius can
    reach a disk outside its base radius and that marker disks cannot
    absorb anything, so gadget behaviour stays local.  A ReductionError
    means the layout violates the required separations: a port shared by
    more than two gadgets, or a selector whose base radius reaches a
    disk other than its own gadget's markers.

    One pass over the gadgets gives the final ids: per gadget, its
    selectors first, then the marker centres no earlier gadget placed.
    The checks read the neighbour walks of these disks with every marker
    at radius 1, which leaves ``L`` as it is: each selector reads every
    disk within its base radius and then its first disk beyond it, and
    each marker reads only the disks nearer than the closest pair of
    markers found so far.  The returned instance has the same disks with
    the markers at radius epsilon.  Both are scaled from the same int
    columns, and no Disk is built.
    """
    # the numerators and denominators of every disk's x, y and r, in id
    # order: ints only, so no object per disk stays alive
    cols = xn, xd, yn, yd, rn, rd = [], [], [], [], [], []
    sdisk_ids: dict[tuple[int, str], int] = {}
    mdisk_ids: dict[tuple[int, str], int] = {}
    # marker centres keyed by their lowest-terms pairs, which hash as ints;
    # equal rationals have equal lowest terms
    point_id: dict[tuple[tuple[int, int], tuple[int, int]], int] = {}
    own_markers: list[set[int]] = []

    def add(x: tuple[int, int], y: tuple[int, int],
            r: tuple[int, int]) -> int:
        """Append one disk; returns its id."""
        xn.append(x[0])
        xd.append(x[1])
        yn.append(y[0])
        yd.append(y[1])
        rn.append(r[0])
        rd.append(r[1])
        return len(xn)

    for gi, g in enumerate(gadgets):
        sdisks, mdisks, ports = g.frame
        terms = g.pose._terms
        for name, p, r in sdisks:
            sdisk_ids[(gi, name)] = add(*terms(*p, _DEN),
                                        r.as_integer_ratio())
        own = set()
        for name, p, *_ in mdisks + ports:
            key = terms(*p, _DEN)
            pid = point_id.get(key)
            if pid is None:
                pid = point_id[key] = add(*key, (1, 1))
            mdisk_ids[(gi, name)] = pid
            own.add(pid)
        own_markers.append(own)

    if any(c > 2 for c in Counter(mdisk_ids.values()).values()):
        raise ReductionError("a port is shared by more than two gadgets")
    markers = list(point_id.values())
    del point_id  # its key tuples would stay alive through the walks
    k = len(markers)
    if k == 0:
        raise ReductionError("no marker disks")

    ids = list(range(1, len(xn) + 1))
    layout = Instance._from_columns(ids, *cols)
    L, rs = layout._scale, layout._r

    # clearance from each selector to everything it must never absorb:
    # the least (d2 - r^2) / (2r + 1), kept as a numerator/denominator
    # pair of ints (both scaled by L^2) and compared by cross-multiplying;
    # for one selector it is the term of its nearest disk beyond r
    min_term: Optional[tuple[int, int]] = None
    for (gi, name), i in sdisk_ids.items():
        r2 = rs[i] * rs[i]
        pairs = layout._walk(i, 0, r2 + 1)
        inside = bisect_left(pairs, (r2 + 1,))  # the disks at d2 <= r2
        for _, j in pairs[:inside]:
            if j not in own_markers[gi]:
                raise ReductionError(f"selector {gi}:{name} overlaps a "
                                     f"foreign disk at {layout.center(j)}")
        if inside < layout.n - 1:  # the nearest disk beyond r
            d2 = layout._walk(i, inside + 1)[inside][0]
            num, den = d2 - r2, L * (2 * rs[i] + L)
            if min_term is None or num * min_term[1] < min_term[0] * den:
                min_term = (num, den)

    # the least squared distance between two marker centres
    m2 = None
    if k > 1:
        is_marker = set(markers)
        m2 = layout._d2(markers[0], markers[1])
        for m in markers:
            for d2, j in layout._walk(m, 0, m2):
                if d2 >= m2:
                    break
                if j in is_marker:
                    m2 = d2
                    break

    eps = F(1, 4 * k)
    if min_term is not None:
        eps = min(eps, F(min_term[0], min_term[1] * k))
    if m2 is not None:
        eps = min(eps, min(F(m2, L * L), F(1)) / (2 * k))

    for m in markers:
        rn[m - 1], rd[m - 1] = eps.as_integer_ratio()
    return Assembly(Instance._from_columns(ids, *cols), tuple(gadgets),
                    sdisk_ids, mdisk_ids, eps)


def port_harness(gadget: Gadget) -> Assembly:
    """The gadget plus one free input gadget facing each of its ports.

    The harness inputs give every port a neighbour that may or may not
    absorb it, so enumerating all strict assignments of the returned
    instance reveals exactly which port combinations the gadget
    permits.  Gadget index 0 is the gadget under test.  Each input is
    turned so that its local +x points back into the gadget; its disks
    all lie on its local x axis.
    """
    a, b, c, d = gadget.pose.matrix
    gs = [gadget]
    for name, p, (dx, dy) in gadget.frame[2]:
        gx, gy = a * dx + b * dy, c * dx + d * dy
        gs.append(build_gadget(GadgetKind.INPUT,
                               Pose((-gx, gy, -gy, -gx), gadget._point(p)),
                               role=f"harness {name}"))
    return assemble(gs)


@dataclass
class ReductionArtifact(Assembly):
    """The assembled reduction of a drawn formula.

    ``port_map`` sends each variable to the id of its input gadget's
    port.  ``roles`` has one entry per gadget: a disjunction has
    ``(clause index, arms)`` with one ``(port, variable, positive)`` per
    arm, and every other gadget ``(variable, positive, side)``.  The
    gadget's state is :func:`_leg_truth` of its variable and polarity;
    ``side`` is the port a copy takes when that is true, and ``None`` for
    the other kinds.  Inputs, crossings and negations carry
    ``positive=True``: they read the variable itself.
    """

    port_map: dict[int, int]
    roles: tuple[tuple, ...]

    def metadata(self) -> dict:
        return {
            "kind": "sat-reduction",
            "epsilon": format_rational(self.epsilon),
            "gadgets": [{"kind": g.kind.value, "role": g.role}
                        for g in self.gadgets],
            "ports": {str(v): pid for v, pid in sorted(self.port_map.items())},
        }


def reduce_sat(formula: MonotoneFormula, rep: RectilinearRep
               ) -> ReductionArtifact:
    """The disk instance of ``formula`` drawn as ``rep``, with its gadgets
    and the roles that read variable values off them.

    The reduction holds under the MAX disjointness rule only: the
    instance has an assignment that :func:`~diskmerge.core.verify_proper`
    accepts under ``DisjointnessMode.MAX`` exactly when the formula is
    satisfiable, and :func:`build_assignment_from_sat` and
    :func:`extract_sat_assignment` convert between the two under that
    rule.  Under SUM, neighbouring selectors lie closer than the sum of
    their base radii, and the strict verifier accepts no assignment of
    any gadget's port harness: ``solve --mode sum`` finds none for a
    satisfiable formula either.
    """
    embedded = grid_embed(formula, rep)
    rows = embedded.clause_rows
    # segments are disjoint and hold their own variable's legs, so a
    # variable's legs are the leg columns inside its segment
    clause_at = {col: ci for ci, cols in enumerate(embedded.legs)
                 for col in cols}

    gadgets: list[Gadget] = []
    roles: list[tuple] = []
    input_index: dict[int, int] = {}

    def add(kind: GadgetKind, pose: Pose, label: str, role: tuple,
            **options) -> None:
        gadgets.append(build_gadget(kind, pose, role=label, **options))
        roles.append(role)

    var_order = sorted(range(1, formula.num_variables + 1),
                       key=lambda v: embedded.variable_segments[v - 1])
    for var in var_order:
        lo, hi = embedded.variable_segments[var - 1]
        legs = [col for col in range(lo, hi + 1) if col in clause_at]
        first = legs[0] if legs else lo
        input_index[var] = len(gadgets)
        add(GadgetKind.INPUT, pose_at(2 * first - 1, 0), f"input v{var}",
            (var, True, None), with_absorber=not legs)
        for col in legs:
            drop = {"out_s" if rows[clause_at[col]] > 0 else "out_n"}
            if col == legs[-1]:
                drop.add("out_e")
            add(GadgetKind.COPY6, pose_at(2 * col, 0), f"crossing v{var}",
                (var, True, None), drop_ports=drop)

    for ci, cl in enumerate(formula.clauses):
        row = rows[ci]
        positive = row > 0
        y = 3 * row
        cols = sorted(zip(embedded.legs[ci], cl.literals))
        # pose matrices (a, b, c, d), for [[a, b], [c, d]], are built from
        # two signs: sy is +1 above the axis and -1 below, sx is -1 on the
        # left of the clause row and +1 on the right
        sy = 1 if positive else -1

        # vertical chains from the variable row to the clause row; below
        # the axis each starts with a negation gadget, mirrored on the
        # leftmost leg so its tail marker stays clear of the left corner's
        # input selector when the clause row is adjacent
        for li, (col, var) in enumerate(cols):
            if not positive:
                sx = -1 if li == 0 and len(cols) > 1 else 1
                add(GadgetKind.NOT, pose_at(2 * col, -1, (0, sx, -1, 0)),
                    f"not v{var} c{ci}", (var, True, None))
            for j in range(1 if positive else 2, 3 * abs(row) - 1):
                add(GadgetKind.COPY4,
                    pose_at(2 * col, sy * j, (0, -sy, sy, 0)),
                    f"leg v{var} c{ci}", (var, positive, "a"))

        # clause row: corners send their "in" arm toward the axis and their
        # "out_s" arm toward the disjunction on the middle leg (a unit
        # clause's only leg), with copies between
        def add_corner(col: int, var: int, sx: int) -> None:
            add(GadgetKind.COPY6, pose_at(2 * col, y, (0, sx, sy, 0)),
                f"corner c{ci} v{var}", (var, positive, None),
                drop_ports={"out_e", "out_n"})

        def add_row_copies(col_from: int, col_to: int, var: int,
                           side: str) -> None:
            for x0 in range(2 * col_from + 1, 2 * col_to - 1):
                add(GadgetKind.COPY4, pose_at(x0, y), f"row c{ci}",
                    (var, positive, side))

        arms = ("s",) if len(cols) == 1 else ("w", "s", "e")[:len(cols)]
        mid = cols[len(cols) > 1][0]
        if len(cols) > 1:
            add_corner(*cols[0], -1)
            add_row_copies(cols[0][0], mid, cols[0][1], "a")
        add(GadgetKind.DISJUNCTION, pose_at(2 * mid, y, (1, 0, 0, sy)),
            f"clause c{ci}",
            (ci, tuple((arm, var, positive)
                       for arm, (_, var) in zip(arms, cols))),
            drop_ports={"w", "s", "e"} - set(arms))
        if len(cols) > 2:
            add_row_copies(mid, cols[2][0], cols[2][1], "b")
            add_corner(*cols[2], 1)

    assembly = assemble(gadgets)
    port_map = {var: assembly.mdisk_ids[(input_index[var], "port")]
                for var in range(1, formula.num_variables + 1)}
    return ReductionArtifact(**vars(assembly), port_map=port_map,
                             roles=tuple(roles))


def _leg_truth(values: dict[int, int], var: int, positive: bool) -> bool:
    """Signal a leg delivers to its clause row."""
    return values[var] == 1 if positive else values[var] == 0


def build_assignment_from_sat(artifact: ReductionArtifact,
                              values: dict[int, int]) -> Assignment:
    """Merge assignment induced by satisfying variable values.

    Raises ReductionError if the values do not satisfy the formula
    (propagation reaches a disjunction none of whose ports arrive
    merged in).
    """
    n = artifact.instance.n
    target = [0] * (n + 1)

    for sid in artifact.sdisk_ids.values():
        target[sid] = sid

    def merge(gi: int, sname: str, members: Sequence[str]) -> None:
        sid = artifact.sdisk_ids[(gi, sname)]
        for m in members:
            mid = artifact.mdisk_ids[(gi, m)]
            if target[mid] != 0:
                raise ReductionError(
                    f"marker {mid} absorbed twice (gadget {gi})")
            target[mid] = sid

    for gi, (g, role) in enumerate(zip(artifact.gadgets, artifact.roles)):
        if g.kind is GadgetKind.DISJUNCTION:
            ci, arms = role
            true_arms = [arm for arm, var, positive in arms
                         if _leg_truth(values, var, positive)]
            if not true_arms:
                raise ReductionError(
                    f"clause {ci} unsatisfied: no port arrives merged in")
            for i, arm in enumerate(true_arms):
                merge(gi, "s_" + arm, [arm] + (["core"] if i == 0 else []))
            continue
        var, positive, side = role
        state = _leg_truth(values, var, positive)
        if g.kind is GadgetKind.INPUT:
            merge(gi, "main", ["int"] + ([] if state else ["port"]))
            if (gi, "absorber") in artifact.sdisk_ids:
                merge(gi, "absorber", ["absint"] + (["port"] if state else []))
        elif g.kind is GadgetKind.COPY6:  # crossings and corners
            if state:
                merge(gi, "s_in", ["block", "in", "tail"])
            else:
                outs = [nm for nm, *_ in g.frame[2] if nm != "in"]
                merge(gi, "s_out", ["block"] + outs + ["tail"])
        elif g.kind is GadgetKind.COPY4:
            if not state:
                side = "b" if side == "a" else "a"
            merge(gi, "s" + side, ["block", side, "tail"])
        elif state:  # NOT: both ports or neither
            merge(gi, "s_pass", ["block", "a", "b", "tail"])
        else:
            merge(gi, "s_idle", ["block", "tail"])

    if any(t == 0 for t in target[1:]):
        missing = [i for i in range(1, n + 1) if target[i] == 0]
        raise AssertionError(f"disks left unassigned: {missing}")
    assignment = Assignment(tuple(target[1:]))
    report = verify_proper(artifact.instance, assignment, DisjointnessMode.MAX)
    if not report.ok:  # pragma: no cover - internal consistency guard
        raise AssertionError(
            f"constructed assignment fails verification: "
            f"{report.violations[:3]}")
    return assignment


def extract_sat_assignment(artifact: ReductionArtifact,
                           assignment: Assignment) -> dict[int, int]:
    """Read variable values off a verified strict merge assignment."""
    report = verify_proper(artifact.instance, assignment,
                           DisjointnessMode.MAX)
    if not report.ok:
        raise FormatError(
            f"assignment fails verification: {report.violations[0]}")
    values: dict[int, int] = {}
    for gi, (g, role) in enumerate(zip(artifact.gadgets, artifact.roles)):
        if g.kind is GadgetKind.INPUT:
            main = artifact.sdisk_ids[(gi, "main")]
            port = artifact.mdisk_ids[(gi, "port")]
            values[role[0]] = 0 if assignment(port) == main else 1
    return values
