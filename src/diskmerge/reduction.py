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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .core import (Assignment, Disk, DisjointnessMode, FormatError, Instance,
                   Point, _common_scale, _scaled, verify_proper)
from .formula import MonotoneFormula, RectilinearRep, grid_embed
from .gadgets import Gadget, GadgetKind, Pose, build_gadget, pose_at

F = Fraction

# pose matrices, column-vector convention (a, b, c, d) for [[a, b], [c, d]]
_ID = (1, 0, 0, 1)
_ROT_CCW = (0, -1, 1, 0)     # +x -> +y: upward legs
_ROT_CW = (0, 1, -1, 0)      # +x -> -y: downward legs
_MIRROR_Y = (1, 0, 0, -1)
_CORNER = {
    # (side of the clause row, above axis) -> matrix sending the "in"
    # arm toward the axis and the "out_s" arm toward the disjunction
    ("left", True): (0, -1, 1, 0),
    ("right", True): (0, 1, 1, 0),
    ("left", False): (0, -1, -1, 0),
    ("right", False): (0, 1, -1, 0),
}


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
    means the layout violates the required separations.
    """
    sdisk_list: list[tuple[int, str, Point, Fraction]] = []
    owners: dict[Point, list[tuple[int, str]]] = {}
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

    # exact comparisons on ints: every coordinate and radius times L
    centres = [c for _, _, c, _ in sdisk_list] + marker_centers
    L = _common_scale([r for *_, r in sdisk_list]
                      + [v for p in centres for v in (p.x, p.y)])
    sel = [(_scaled(c.x, L), _scaled(c.y, L), _scaled(r, L))
           for _, _, c, r in sdisk_list]
    mk = [(_scaled(p.x, L), _scaled(p.y, L)) for p in marker_centers]
    own_markers: list[set[int]] = [set() for _ in gadgets]
    for m, p in enumerate(marker_centers):
        for gi, _ in owners[p]:
            own_markers[gi].add(m)

    # selected selectors must stay centre-disjoint
    for i, (x1, y1, r1) in enumerate(sel):
        for j in range(i + 1, len(sel)):
            x2, y2, r2 = sel[j]
            m = max(r1, r2)
            if (x1 - x2) ** 2 + (y1 - y2) ** 2 < m * m:
                gi, n1 = sdisk_list[i][:2]
                gj, n2 = sdisk_list[j][:2]
                raise ReductionError(
                    f"selectors {gi}:{n1} and {gj}:{n2} too close")

    # clearance from each selector to everything it must never absorb:
    # the least (d2 - r^2) / (2r + 1), kept as a numerator/denominator
    # pair of ints (both scaled by L^2) and compared by cross-multiplying
    min_term: Optional[tuple[int, int]] = None
    for i, (gi, name, _, _) in enumerate(sdisk_list):
        x, y, r = sel[i]
        r2 = r * r
        den = L * (2 * r + L)
        others = [(q, marker_centers[m], m in own_markers[gi])
                  for m, q in enumerate(mk)]
        others += [(s[:2], sdisk_list[j][2], False)
                   for j, s in enumerate(sel) if j != i]
        for (qx, qy), p, is_own in others:
            d2 = (qx - x) ** 2 + (qy - y) ** 2
            if d2 <= r2:
                if is_own:  # own marker within the base radius
                    continue
                raise ReductionError(
                    f"selector {gi}:{name} overlaps a foreign disk at {p}")
            num = d2 - r2
            if min_term is None or num * min_term[1] < min_term[0] * den:
                min_term = (num, den)

    m2 = None
    for i, (x1, y1) in enumerate(mk):
        for x2, y2 in mk[i + 1:]:
            d2 = (x1 - x2) ** 2 + (y1 - y2) ** 2
            if d2 == 0:
                raise ReductionError("distinct markers share a centre")
            if m2 is None or d2 < m2:
                m2 = d2

    eps = F(1, 4 * k)
    if min_term is not None:
        eps = min(eps, F(min_term[0], min_term[1] * k))
    if m2 is not None:
        eps = min(eps, min(F(m2, L * L), F(1)) / (2 * k))

    # ids: per gadget, selectors first, then new marker centres
    disks: list[Disk] = []
    sdisk_ids: dict[tuple[int, str], int] = {}
    mdisk_ids: dict[tuple[int, str], int] = {}
    point_id: dict[Point, int] = {}
    for gi, g in enumerate(gadgets):
        for name, p, r in g.sdisks:
            disks.append(Disk(len(disks) + 1, p, r))
            sdisk_ids[(gi, name)] = len(disks)
        for name, p in list(g.mdisks) + list(g.ports):
            if p not in point_id:
                disks.append(Disk(len(disks) + 1, p, eps))
                point_id[p] = len(disks)
            mdisk_ids[(gi, name)] = point_id[p]

    return Assembly(Instance(disks), tuple(gadgets), sdisk_ids,
                    mdisk_ids, eps)


# outward direction of each port in a gadget's local frame, used to
# attach free input gadgets when testing a gadget in isolation
_PORT_DIRECTION = {
    GadgetKind.INPUT: {"port": (1, 0)},
    GadgetKind.COPY4: {"a": (-1, 0), "b": (1, 0)},
    GadgetKind.NOT: {"a": (-1, 0), "b": (1, 0)},
    GadgetKind.COPY6: {"in": (-1, 0), "out_e": (1, 0),
                       "out_n": (0, 1), "out_s": (0, -1)},
    GadgetKind.DISJUNCTION: {"w": (-1, 0), "s": (0, -1), "e": (1, 0)},
}
_HARNESS_MATRIX = {
    (-1, 0): _ID,
    (1, 0): (-1, 0, 0, 1),
    (0, 1): (0, 1, -1, 0),
    (0, -1): (0, -1, 1, 0),
}


def port_harness(gadget: Gadget) -> Assembly:
    """The gadget plus one free input gadget facing each of its ports.

    The harness inputs give every port a neighbour that may or may not
    absorb it, so enumerating all strict assignments of the returned
    instance reveals exactly which port combinations the gadget
    permits.  Gadget index 0 is the gadget under test.
    """
    a, b, c, d = gadget.pose.matrix
    gs = [gadget]
    for name, p in gadget.ports:
        dx, dy = _PORT_DIRECTION[gadget.kind][name]
        gdir = (a * dx + b * dy, c * dx + d * dy)
        gs.append(build_gadget(GadgetKind.INPUT,
                               Pose(_HARNESS_MATRIX[gdir], p),
                               role=f"harness {name}"))
    return assemble(gs)


@dataclass
class ReductionArtifact:
    instance: Instance
    formula: MonotoneFormula
    rep: RectilinearRep            # the embedded drawing actually used
    assembly: Assembly
    port_map: dict[int, int]       # variable -> its input gadget's port id
    roles: tuple[tuple, ...]       # per gadget, see _build_assignment

    @property
    def epsilon(self) -> Fraction:
        return self.assembly.epsilon

    @property
    def gadgets(self) -> tuple[Gadget, ...]:
        return self.assembly.gadgets

    def metadata(self) -> dict:
        return {
            "kind": "sat-reduction",
            "epsilon": f"{self.epsilon.numerator}/{self.epsilon.denominator}",
            "gadgets": [{"kind": g.kind.value, "role": g.role}
                        for g in self.gadgets],
            "ports": {str(v): pid for v, pid in sorted(self.port_map.items())},
        }


def reduce_sat(formula: MonotoneFormula, rep: RectilinearRep
               ) -> ReductionArtifact:
    embedded = grid_embed(formula, rep)
    rows = embedded.clause_rows

    # legs per variable: (column, clause index), left to right
    legs_of_var: dict[int, list[tuple[int, int]]] = {
        v: [] for v in range(1, formula.num_variables + 1)}
    for ci, (cl, cols) in enumerate(zip(formula.clauses, embedded.legs)):
        for var, col in zip(cl.literals, cols):
            legs_of_var[var].append((col, ci))
    for legs in legs_of_var.values():
        legs.sort()

    gadgets: list[Gadget] = []
    roles: list[tuple] = []
    input_index: dict[int, int] = {}

    def add(g: Gadget, role: tuple) -> None:
        gadgets.append(g)
        roles.append(role)

    var_order = sorted(range(1, formula.num_variables + 1),
                       key=lambda v: embedded.variable_segments[v - 1])
    for var in var_order:
        legs = legs_of_var[var]
        first_col = legs[0][0] if legs else embedded.variable_segments[var - 1][0]
        input_index[var] = len(gadgets)
        add(build_gadget(GadgetKind.INPUT,
                         pose_at(2 * first_col - 1, 0),
                         with_absorber=not legs,
                         role=f"input v{var}"),
            ("input", var))
        for idx, (col, ci) in enumerate(legs):
            positive = rows[ci] > 0
            drop = {"out_s" if positive else "out_n"}
            if idx == len(legs) - 1:
                drop.add("out_e")
            add(build_gadget(GadgetKind.COPY6, pose_at(2 * col, 0),
                             drop_ports=drop, role=f"crossing v{var}"),
                ("crossing", var))

    for ci, cl in enumerate(formula.clauses):
        row = rows[ci]
        positive = row > 0
        height = abs(row)
        y = 3 * row
        cols = sorted(zip(embedded.legs[ci], cl.literals))

        # vertical chains from the variable row up/down to the clause row
        for li, (col, var) in enumerate(cols):
            if positive:
                for j in range(1, 3 * height - 1):
                    add(build_gadget(GadgetKind.COPY4,
                                     pose_at(2 * col, j, _ROT_CCW),
                                     role=f"leg v{var} c{ci}"),
                        ("vcopy", var, positive, "a"))
            else:
                # the negation gadget is mirrored on the leftmost leg so
                # its tail marker stays clear of the left corner's
                # input selector when the clause row is adjacent
                not_matrix = (0, -1, -1, 0) if li == 0 and len(cols) > 1 \
                    else _ROT_CW
                add(build_gadget(GadgetKind.NOT,
                                 pose_at(2 * col, -1, not_matrix),
                                 role=f"not v{var} c{ci}"),
                    ("not", var))
                for j in range(2, 3 * height - 1):
                    add(build_gadget(GadgetKind.COPY4,
                                     pose_at(2 * col, -j, _ROT_CW),
                                     role=f"leg v{var} c{ci}"),
                        ("vcopy", var, positive, "a"))

        # clause row: corners feed copies toward the disjunction
        def add_corner(col: int, var: int, side: str) -> None:
            add(build_gadget(GadgetKind.COPY6,
                             pose_at(2 * col, y, _CORNER[(side, positive)]),
                             drop_ports={"out_e", "out_n"},
                             role=f"corner c{ci} v{var}"),
                ("corner", var, positive))

        def add_hcopies(col_from: int, col_to: int, var: int,
                        source: str) -> None:
            for x0 in range(2 * col_from + 1, 2 * col_to - 1):
                add(build_gadget(GadgetKind.COPY4, pose_at(x0, y),
                                 role=f"row c{ci}"),
                    ("hcopy", var, positive, source))

        disj_matrix = _ID if positive else _MIRROR_Y
        if len(cols) == 1:
            (c1, v1), = cols
            add(build_gadget(GadgetKind.DISJUNCTION,
                             pose_at(2 * c1, y, disj_matrix),
                             drop_ports={"w", "e"}, role=f"clause c{ci}"),
                ("disj", ci, (("s", v1, positive),)))
        elif len(cols) == 2:
            (c1, v1), (c2, v2) = cols
            add_corner(c1, v1, "left")
            add_hcopies(c1, c2, v1, "a")
            add(build_gadget(GadgetKind.DISJUNCTION,
                             pose_at(2 * c2, y, disj_matrix),
                             drop_ports={"e"}, role=f"clause c{ci}"),
                ("disj", ci, (("w", v1, positive), ("s", v2, positive))))
        else:
            (c1, v1), (c2, v2), (c3, v3) = cols
            add_corner(c1, v1, "left")
            add_hcopies(c1, c2, v1, "a")
            add(build_gadget(GadgetKind.DISJUNCTION,
                             pose_at(2 * c2, y, disj_matrix),
                             role=f"clause c{ci}"),
                ("disj", ci, (("w", v1, positive), ("s", v2, positive),
                              ("e", v3, positive))))
            add_hcopies(c2, c3, v3, "b")
            add_corner(c3, v3, "right")

    assembly = assemble(gadgets)
    port_map = {var: assembly.mdisk_ids[(input_index[var], "port")]
                for var in range(1, formula.num_variables + 1)}
    return ReductionArtifact(assembly.instance, formula, embedded,
                             assembly, port_map, tuple(roles))


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
    asm = artifact.assembly
    n = asm.instance.n
    target = [0] * (n + 1)

    for key, sid in asm.sdisk_ids.items():
        target[sid] = sid

    def merge(gi: int, sname: str, members: Sequence[str]) -> None:
        sid = asm.sdisk_ids[(gi, sname)]
        for m in members:
            mid = asm.mdisk_ids[(gi, m)]
            if target[mid] != 0:
                raise ReductionError(
                    f"marker {mid} absorbed twice (gadget {gi})")
            target[mid] = sid

    for gi, role in enumerate(artifact.roles):
        kind = role[0]
        g = asm.gadgets[gi]
        if kind == "input":
            var = role[1]
            taken = values[var] == 0
            merge(gi, "main", ["int"] + (["port"] if taken else []))
            if (gi, "absorber") in asm.sdisk_ids:
                merge(gi, "absorber",
                      ["absint"] + ([] if taken else ["port"]))
        elif kind == "crossing":
            var = role[1]
            if values[var] == 1:
                merge(gi, "s_in", ["block", "in", "tail"])
            else:
                outs = [nm for nm, _ in g.ports if nm != "in"]
                merge(gi, "s_out", ["block"] + outs + ["tail"])
        elif kind == "vcopy" or kind == "hcopy":
            _, var, positive, source = role
            t = _leg_truth(values, var, positive)
            side = source if t else ("b" if source == "a" else "a")
            merge(gi, "sa" if side == "a" else "sb",
                  ["block", side, "tail"])
        elif kind == "not":
            var = role[1]
            if values[var] == 1:
                merge(gi, "s_pass", ["block", "a", "b", "tail"])
            else:
                merge(gi, "s_idle", ["block", "tail"])
        elif kind == "corner":
            _, var, positive = role
            if _leg_truth(values, var, positive):
                merge(gi, "s_in", ["block", "in", "tail"])
            else:
                merge(gi, "s_out", ["block", "out_s", "tail"])
        elif kind == "disj":
            _, ci, arms = role
            true_arms = [arm for arm, var, positive in arms
                         if _leg_truth(values, var, positive)]
            if not true_arms:
                raise ReductionError(
                    f"clause {ci} unsatisfied: no port arrives merged in")
            for i, arm in enumerate(true_arms):
                members = [arm] + (["core"] if i == 0 else [])
                merge(gi, "s_" + arm, members)
        else:  # pragma: no cover - exhaustive by construction
            raise AssertionError(kind)

    if any(t == 0 for t in target[1:]):
        missing = [i for i in range(1, n + 1) if target[i] == 0]
        raise AssertionError(f"disks left unassigned: {missing}")
    assignment = Assignment(tuple(target[1:]))
    report = verify_proper(asm.instance, assignment, DisjointnessMode.MAX)
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
    asm = artifact.assembly
    values: dict[int, int] = {}
    for gi, role in enumerate(artifact.roles):
        if role[0] != "input":
            continue
        var = role[1]
        main = asm.sdisk_ids[(gi, "main")]
        port = asm.mdisk_ids[(gi, "port")]
        values[var] = 0 if assignment(port) == main else 1
    return values
