"""Instance transforms: equal-radius splitting and the number-partition
reduction."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Disk, FormatError, Instance, Point

F = Fraction


@dataclass(frozen=True)
class EqualizedInstance:
    """Result of equalize_radii: every disk has radius r; origin maps
    each new id to the id of the disk it replaces."""

    instance: Instance
    radius: Fraction
    origin: dict[int, int]


def equalize_radii(instance: Instance, r: Fraction) -> EqualizedInstance:
    """Replace each disk of radius k*r by k concentric disks of radius r.

    Every radius must be a positive integer multiple of r.  Total
    radius per original centre is preserved exactly; the concentric
    copies pairwise overlap, so any centre-disjoint selection keeps at
    most one of them.

    The relaxed optimum is not preserved in general, because the copies
    of one disk may merge into different targets.  The disks
    ((3/4, -1/2), 1), ((1/2, 1/4), 1), ((-3/4, -1/2), 2) and
    ((-7/4, -7/4), 2) have relaxed optimum 1; after splitting with r = 1
    it is 2, with the two copies of the third disk merged into the
    second disk and into a copy of the fourth.  The strict optimum is 1
    before and after.
    """
    if r <= 0:
        raise FormatError("target radius must be positive")
    disks: list[Disk] = []
    origin: dict[int, int] = {}
    for d in instance.disks:
        k = d.radius / r
        if k.denominator != 1:
            raise FormatError(
                f"disk {d.id} radius {d.radius} is not a multiple of {r}")
        for _ in range(k.numerator):
            disks.append(Disk(len(disks) + 1, d.center, r))
            origin[len(disks)] = d.id
    return EqualizedInstance(Instance(disks), r, origin)


@dataclass(frozen=True)
class PartitionInput:
    values: tuple[int, ...]
    e: Fraction = F(1, 2)

    def __post_init__(self):
        if not self.values or any(v <= 0 for v in self.values):
            raise FormatError("values must be positive integers")
        if not 0 < self.e < 1:
            raise FormatError("e must satisfy 0 < e < 1")


def reduce_partition(inp: PartitionInput) -> Instance:
    """Disk instance whose best relaxed cardinality is 4 exactly when
    the values split into two halves of equal sum.

    With s the total of the values: two anchor disks of radius 2s at
    distance 3s, two receiver disks of radius s above them, and one
    disk of radius a_i per value at the midpoint of the anchors.

    The equivalence needs e < 1 - frac(s/2): any e < 1 works when s is
    even, but odd totals (which can never split evenly) require
    e < 1/2, otherwise a lopsided split whose aggregate exactly touches
    a receiver centre still counts as centre-disjoint.

    With h = 5s/2 + e the receivers' height, the relaxed optimum (MAX
    rule) is always 1 or 4, for every value set and every e:

    - No anchor selected: no value disk (reach at most s < 3s/2) or
      receiver (reach s < h) can reach an anchor centre, so this case
      is impossible.
    - Exactly one anchor selected: to absorb the other anchor at
      distance 3s its reach must first grow to 3s, so its aggregate
      radius ends at least 5s.  That covers both receiver centres and
      every value centre, so all of them merge into it: optimum 1.
    - Both anchors selected: a receiver can only join an anchor whose
      aggregate reaches h, and that aggregate (at least h + s > 3s)
      would cover the other anchor's centre.  So both receivers stay
      selected, which needs each anchor's absorbed sum x_i <= s/2 + e;
      for e in range that is a balanced split: optimum 4.

    Unbalanced values with e in range therefore give optimum 1.
    """
    s = F(sum(inp.values))
    h = F(5, 2) * s + inp.e
    disks = [
        Disk(1, Point(F(0), F(0)), 2 * s),
        Disk(2, Point(3 * s, F(0)), 2 * s),
        Disk(3, Point(F(0), h), s),
        Disk(4, Point(3 * s, h), s),
    ]
    for a in inp.values:
        disks.append(Disk(len(disks) + 1, Point(3 * s / 2, F(0)), F(a)))
    return Instance(disks)
