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

Each gadget's local frame is stored once, as ints over one common
denominator (``_DEN``, 120); radii are exact Fractions.  A pose maps a
frame onto the global layout: a signed permutation matrix and an exact
rational offset.  It does the arithmetic in ints and makes one Fraction
per coordinate.  Ports stay on lattice points whenever the offset is an
integer point, as every pose of :func:`~diskmerge.reduction.reduce_sat`
is.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .core import FormatError, Point, _common_scale, _scaled

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
        den = _common_scale((p.x, p.y))
        return self._place(_scaled(p.x, den), _scaled(p.y, den), den)

    def _place(self, x: int, y: int, den: int) -> Point:
        """:meth:`apply` to the point ``(x / den, y / den)``: the matrix
        acts on the ints, and the offset joins over the common
        denominator, so each coordinate is one ``Fraction(int, int)``."""
        a, b, c, d = self.matrix
        ox, oy = self.offset.x, self.offset.y
        qx, qy = ox.denominator, oy.denominator
        return Point(F((a * x + b * y) * qx + ox.numerator * den, den * qx),
                     F((c * x + d * y) * qy + oy.numerator * den, den * qy))


def pose_at(x, y, matrix=(1, 0, 0, 1)) -> Pose:
    return Pose(matrix, Point(F(x), F(y)))


# local frames, every coordinate an int in units of 1/_DEN; radii are
# not moved by a pose and stay Fractions.  Ports are the lattice-anchored
# shared mdisks.
_DEN = 120

_SDISKS = {
    GadgetKind.INPUT: (("main", (-66, 0), F(29, 50)),),
    GadgetKind.COPY4: (("sa", (36, 0), F(1, 3)),
                       ("sb", (84, 0), F(1, 3))),
    GadgetKind.COPY6: (("s_in", (-108, 60), F(11, 20)),
                       ("s_out", (15, 0), F(21, 20))),
    GadgetKind.NOT: (("s_pass", (54, 24), F(31, 50)),
                     ("s_idle", (54, -60), F(14, 25))),
    GadgetKind.DISJUNCTION: (("s_w", (-66, 0), F(14, 25)),
                             ("s_s", (0, -66), F(14, 25)),
                             ("s_e", (66, 0), F(14, 25))),
}

_MDISKS = {
    GadgetKind.INPUT: (("int", (-36, 0)),),
    GadgetKind.COPY4: (("block", (60, 0)), ("tail", (60, 30))),
    GadgetKind.COPY6: (("block", (-60, 30)), ("tail", (-60, 100))),
    GadgetKind.NOT: (("block", (54, 0)), ("tail", (108, -24))),
    GadgetKind.DISJUNCTION: (("core", (0, 0)),),
}

_PORTS = {
    GadgetKind.INPUT: (("port", (0, 0)),),
    GadgetKind.COPY4: (("a", (0, 0)), ("b", (120, 0))),
    GadgetKind.COPY6: (("in", (-120, 0)), ("out_e", (120, 0)),
                       ("out_n", (0, 120)), ("out_s", (0, -120))),
    GadgetKind.NOT: (("a", (0, 0)), ("b", (120, 0))),
    GadgetKind.DISJUNCTION: (("w", (-120, 0)), ("s", (0, -120)),
                             ("e", (120, 0))),
}

# ports that may be omitted (unused arms of crossings and small clauses)
_DROPPABLE = {
    GadgetKind.COPY6: {"out_e", "out_n", "out_s"},
    GadgetKind.DISJUNCTION: {"w", "s", "e"},
}

# absorber half of the Input gadget, added when its port has no
# neighbouring gadget so that "not absorbed by main" stays realizable
_INPUT_ABSORBER_SDISK = ("absorber", (66, 0), F(29, 50))
_INPUT_ABSORBER_MDISK = ("absint", (36, 0))


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

    place = pose._place
    return Gadget(
        kind=kind,
        pose=pose,
        sdisks=tuple((n, place(*p, _DEN), r) for n, p, r in sdisks),
        mdisks=tuple((n, place(*p, _DEN)) for n, p in mdisks),
        ports=tuple((n, place(*p, _DEN)) for n, p in _PORTS[kind]
                    if n not in drop),
        role=role,
    )
