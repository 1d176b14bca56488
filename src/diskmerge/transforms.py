"""Instance transforms: equal-radius splitting and the number-partition
reduction."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import _EXACT, Disk, FormatError, Instance, Point

F = Fraction

_MAX_DISKS = 10 ** 6  # the most disks equalize_radii makes


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

    ``r`` must be an exact number (an int or a Fraction).  A result of
    more than ``_MAX_DISKS`` (10**6) disks is refused before it is built.

    The relaxed optimum is not preserved in general, because the copies
    of one disk may merge into different targets.  The disks
    ((3/4, -1/2), 1), ((1/2, 1/4), 1), ((-3/4, -1/2), 2) and
    ((-7/4, -7/4), 2) have relaxed optimum 1; after splitting with r = 1
    it is 2, with the two copies of the third disk merged into the
    second disk and into a copy of the fourth.  The strict optimum is 1
    before and after.
    """
    if type(r) not in _EXACT:
        raise FormatError(f"target radius must be an exact rational, "
                          f"got {r!r}")
    if r <= 0:
        raise FormatError("target radius must be positive")
    # disk i of radius R_i / L is k copies of radius p/q when
    # R_i * q = k * L * p; centres go to the copies in lowest terms
    p, q = r.numerator, r.denominator
    L = instance._scale
    step = L * p
    counts = []
    for i in range(1, instance.n + 1):
        k, rest = divmod(instance._r[i] * q, step)
        if rest:
            raise FormatError(f"disk {i} radius {Fraction(instance._r[i], L)}"
                              f" is not a multiple of {r}")
        counts.append(k)
    m = sum(counts)
    if m > _MAX_DISKS:
        raise FormatError(f"equal radius {r} makes {m} disks, more than "
                          f"{_MAX_DISKS}")
    xn, xd, yn, yd = [], [], [], []
    origin: dict[int, int] = {}
    for i, k in enumerate(counts, start=1):
        x, y = instance._x[i], instance._y[i]
        gx, gy = gcd(x, L), gcd(y, L)
        xn += [x // gx] * k
        xd += [L // gx] * k
        yn += [y // gy] * k
        yd += [L // gy] * k
        for _ in range(k):
            origin[len(origin) + 1] = i
    ids = list(range(1, m + 1))
    return EqualizedInstance(
        Instance._from_columns(ids, xn, xd, yn, yd, [p] * m, [q] * m),
        r, origin)


@dataclass(frozen=True)
class PartitionInput:
    """The values to split, each a positive int or an integral Fraction,
    and ``e`` of the receivers' height ``5s/2 + e``, an int or a
    Fraction (see :func:`reduce_partition`)."""

    values: tuple[int, ...]
    e: Fraction = F(1, 2)

    def __post_init__(self):
        if not self.values or not all(
                type(v) in _EXACT and v.denominator == 1 and v > 0
                for v in self.values):
            raise FormatError("values must be positive integers")
        if type(self.e) not in _EXACT:
            raise FormatError(f"e must be an exact rational, got {self.e!r}")
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
