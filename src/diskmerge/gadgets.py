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
denominator (``_DEN``, 120); radii are exact Fractions.  A gadget keeps
its frame and its pose; a pose maps the frame onto the global layout: a
signed permutation matrix and an exact rational offset.  It does the
arithmetic in ints and gives each coordinate as a lowest-terms ``(num,
den)`` pair (``Pose._terms``), which :func:`~diskmerge.reduction.assemble`
reads as it is; that is the one placement, and a gadget keeps no placed
point.  Ports stay on lattice points whenever the offset is an integer
point, as every pose of :func:`~diskmerge.reduction.reduce_sat` is.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterable

from .core import _EXACT, FormatError, Point

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
    mirror) of ints and t a point of exact numbers."""

    matrix: tuple[int, int, int, int] = (1, 0, 0, 1)
    offset: Point = Point(F(0), F(0))

    def __post_init__(self):
        a, b, c, d = self.matrix
        if any(type(v) is not int for v in self.matrix) or \
                type(self.offset.x) not in _EXACT or \
                type(self.offset.y) not in _EXACT:
            raise FormatError(f"not an int matrix and an exact offset: "
                              f"{self.matrix}, {self.offset}")
        # columns must be unit vectors and orthogonal
        if sorted((abs(a), abs(c))) != [0, 1] or \
                sorted((abs(b), abs(d))) != [0, 1] or a * b + c * d != 0:
            raise FormatError(f"not an orthogonal lattice matrix: "
                              f"{self.matrix}")

    def _terms(self, x: int, y: int, den: int
               ) -> tuple[tuple[int, int], tuple[int, int]]:
        """The pose applied to the point ``(x / den, y / den)``, as the
        lowest-terms ``(num, den)`` pair of each coordinate: the matrix
        acts on the ints, and the offset joins over the common
        denominator."""
        a, b, c, d = self.matrix
        ox, oy = self.offset.x, self.offset.y
        qx, qy = ox.denominator, oy.denominator
        nx, dx = (a * x + b * y) * qx + ox.numerator * den, den * qx
        ny, dy = (c * x + d * y) * qy + oy.numerator * den, den * qy
        gx, gy = gcd(nx, dx), gcd(ny, dy)
        return (nx // gx, dx // gx), (ny // gy, dy // gy)


def pose_at(x, y, matrix=(1, 0, 0, 1)) -> Pose:
    """The pose of ``matrix`` with offset ``(x, y)``, two exact numbers."""
    return Pose(matrix, Point(x, y))


# local frames, every coordinate an int in units of 1/_DEN; radii are
# not moved by a pose and stay Fractions.  Ports are the lattice-anchored
# shared mdisks, each with its outward direction (a unit vector of the
# frame), which a port harness faces an input gadget along.
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
    GadgetKind.INPUT: (("port", (0, 0), (1, 0)),),
    GadgetKind.COPY4: (("a", (0, 0), (-1, 0)), ("b", (120, 0), (1, 0))),
    GadgetKind.COPY6: (("in", (-120, 0), (-1, 0)),
                       ("out_e", (120, 0), (1, 0)),
                       ("out_n", (0, 120), (0, 1)),
                       ("out_s", (0, -120), (0, -1))),
    GadgetKind.NOT: (("a", (0, 0), (-1, 0)), ("b", (120, 0), (1, 0))),
    GadgetKind.DISJUNCTION: (("w", (-120, 0), (-1, 0)),
                             ("s", (0, -120), (0, -1)),
                             ("e", (120, 0), (1, 0))),
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
    """A gadget kind placed by a pose.  ``frame`` is what the gadget kept
    of its kind's local tables: ``(selectors, markers, ports)``, points as
    int pairs over ``_DEN`` and ports with their outward direction."""

    kind: GadgetKind
    pose: Pose
    frame: tuple[tuple, tuple, tuple]
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
    ports = tuple(p for p in _PORTS[kind] if p[0] not in drop)
    if kind is GadgetKind.DISJUNCTION and not ports:
        raise FormatError("disjunction needs at least one port")

    sdisks = _SDISKS[kind]
    mdisks = _MDISKS[kind]
    if kind is GadgetKind.DISJUNCTION:
        # one selector per remaining arm
        sdisks = tuple(s for s in sdisks if s[0][2:] not in drop)
    if with_absorber:
        if kind is not GadgetKind.INPUT:
            raise FormatError("only the input gadget takes an absorber")
        sdisks += (_INPUT_ABSORBER_SDISK,)
        mdisks += (_INPUT_ABSORBER_MDISK,)
    return Gadget(kind, pose, (sdisks, mdisks, ports), role)
