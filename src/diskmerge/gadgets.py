"""Gadget geometry for the satisfiability reduction.

Each gadget is a cluster of selector disks ("sdisks") and tiny marker
disks ("mdisks") whose merge options encode a logical constraint.  Port
mdisks sit on lattice anchor points and are shared with the adjacent
gadget; the gadget either absorbs a port into one of its sdisks or
leaves it to the neighbour.  The achievable combinations are:

* INPUT      — absorbs its port or not (free choice; two states).
* COPY4      — absorbs exactly one of its two ports.
* COPY6      — absorbs its "in" port, or all of its out ports (never a
               mixture); out ports may be dropped individually.
* NOT        — absorbs both ports or neither.
* DISJUNCTION — absorbs any non-empty subset of its ports.

All coordinates are exact rationals on a unit-scale local frame; poses
map them onto the global layout (ports stay on lattice points because
pose matrices are signed permutations with integer translations).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .core import FormatError, Point

F = Fraction


class GadgetKind(Enum):
    INPUT = "input"
    COPY4 = "copy4"
    COPY6 = "copy6"
    DISJUNCTION = "disjunction"
    NOT = "not"


@dataclass(frozen=True)
class Pose:
    """Orthogonal lattice transform: x ↦ M·x + t with M a signed
    permutation matrix (rotations by multiples of 90°, optional
    mirror)."""

    matrix: tuple[int, int, int, int] = (1, 0, 0, 1)
    offset: Point = Point(F(0), F(0))

    def __post_init__(self):
        a, b, c, d = self.matrix
        # columns must be unit vectors and orthogonal
        if sorted((abs(a), abs(c))) != [0, 1] or \
                sorted((abs(b), abs(d))) != [0, 1] or a * b + c * d != 0:
            raise FormatError(f"not an orthogonal lattice matrix: "
                              f"{self.matrix}")

    def apply(self, p: Point) -> Point:
        a, b, c, d = self.matrix
        return Point(a * p.x + b * p.y + self.offset.x,
                     c * p.x + d * p.y + self.offset.y)


def pose_at(x, y, matrix=(1, 0, 0, 1)) -> Pose:
    return Pose(matrix, Point(F(x), F(y)))


# local frames; ports are the lattice-anchored shared mdisks
_SDISKS = {
    GadgetKind.INPUT: (("main", Point(F(-11, 20), F(0)), F(29, 50)),),
    GadgetKind.COPY4: (("sa", Point(F(3, 10), F(0)), F(1, 3)),
                       ("sb", Point(F(7, 10), F(0)), F(1, 3))),
    GadgetKind.COPY6: (("s_in", Point(F(-9, 10), F(1, 2)), F(11, 20)),
                       ("s_out", Point(F(1, 8), F(0)), F(21, 20))),
    GadgetKind.NOT: (("s_pass", Point(F(9, 20), F(1, 5)), F(31, 50)),
                     ("s_idle", Point(F(9, 20), F(-1, 2)), F(14, 25))),
    GadgetKind.DISJUNCTION: (("s_w", Point(F(-11, 20), F(0)), F(14, 25)),
                             ("s_s", Point(F(0), F(-11, 20)), F(14, 25)),
                             ("s_e", Point(F(11, 20), F(0)), F(14, 25))),
}

_MDISKS = {
    GadgetKind.INPUT: (("int", Point(F(-3, 10), F(0))),),
    GadgetKind.COPY4: (("block", Point(F(1, 2), F(0))),
                       ("tail", Point(F(1, 2), F(1, 4)))),
    GadgetKind.COPY6: (("block", Point(F(-1, 2), F(1, 4))),
                       ("tail", Point(F(-1, 2), F(5, 6)))),
    GadgetKind.NOT: (("block", Point(F(9, 20), F(0))),
                     ("tail", Point(F(9, 10), F(-1, 5)))),
    GadgetKind.DISJUNCTION: (("core", Point(F(0), F(0))),),
}

_PORTS = {
    GadgetKind.INPUT: (("port", Point(F(0), F(0))),),
    GadgetKind.COPY4: (("a", Point(F(0), F(0))), ("b", Point(F(1), F(0)))),
    GadgetKind.COPY6: (("in", Point(F(-1), F(0))),
                       ("out_e", Point(F(1), F(0))),
                       ("out_n", Point(F(0), F(1))),
                       ("out_s", Point(F(0), F(-1)))),
    GadgetKind.NOT: (("a", Point(F(0), F(0))), ("b", Point(F(1), F(0)))),
    GadgetKind.DISJUNCTION: (("w", Point(F(-1), F(0))),
                             ("s", Point(F(0), F(-1))),
                             ("e", Point(F(1), F(0)))),
}

# ports that may be omitted (unused arms of crossings and small clauses)
_DROPPABLE = {
    GadgetKind.COPY6: {"out_e", "out_n", "out_s"},
    GadgetKind.DISJUNCTION: {"w", "s", "e"},
}

# absorber half of the Input gadget, added when its port has no
# neighbouring gadget so that "not absorbed by main" stays realizable
_INPUT_ABSORBER_SDISK = ("absorber", Point(F(11, 20), F(0)), F(29, 50))
_INPUT_ABSORBER_MDISK = ("absint", Point(F(3, 10), F(0)))


@dataclass(frozen=True)
class Gadget:
    kind: GadgetKind
    pose: Pose
    sdisks: tuple[tuple[str, Point, Fraction], ...]
    mdisks: tuple[tuple[str, Point], ...]
    ports: tuple[tuple[str, Point], ...]
    role: str = ""


def build_gadget(kind: GadgetKind, pose: Pose,
                 drop_ports: Iterable[str] = (),
                 with_absorber: bool = False,
                 role: str = "") -> Gadget:
    drop = set(drop_ports)
    allowed = _DROPPABLE.get(kind, set())
    if not drop <= allowed:
        raise FormatError(f"cannot drop ports {sorted(drop - allowed)} "
                          f"of {kind.value}")
    port_names = [n for n, _ in _PORTS[kind] if n not in drop]
    if kind is GadgetKind.DISJUNCTION and not port_names:
        raise FormatError("disjunction needs at least one port")

    sdisks = list(_SDISKS[kind])
    mdisks = list(_MDISKS[kind])
    if kind is GadgetKind.DISJUNCTION:
        # one selector per remaining arm
        sdisks = [s for s in sdisks if s[0][2:] in port_names]
    if with_absorber:
        if kind is not GadgetKind.INPUT:
            raise FormatError("only the input gadget takes an absorber")
        sdisks.append(_INPUT_ABSORBER_SDISK)
        mdisks.append(_INPUT_ABSORBER_MDISK)

    return Gadget(
        kind=kind,
        pose=pose,
        sdisks=tuple((n, pose.apply(p), r) for n, p, r in sdisks),
        mdisks=tuple((n, pose.apply(p)) for n, p in mdisks),
        ports=tuple((n, pose.apply(p)) for n, p in _PORTS[kind]
                    if n not in drop),
        role=role,
    )
