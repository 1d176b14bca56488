"""Monotone planar formulas and their rectilinear drawings.

A monotone formula has clauses whose literals are either all positive or
all negative.  A rectilinear representation draws variables as disjoint
horizontal segments on the x axis, positive clauses as horizontal
segments above it, negative clauses below, and clause-variable edges as
vertical legs; the drawing must be crossing-free.  ``grid_embed``
normalizes such a drawing onto a compact integer grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .core import FormatError


class Polarity(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


@dataclass(frozen=True)
class Clause:
    polarity: Polarity
    literals: tuple[int, ...]

    def __post_init__(self):
        if any(type(v) is not int for v in self.literals):
            raise FormatError(f"clause literals must be ints, got "
                              f"{self.literals}")
        if not 1 <= len(self.literals) <= 3:
            raise FormatError("clause needs 1..3 literals")
        if len(set(self.literals)) != len(self.literals):
            raise FormatError("clause literals must be distinct")


@dataclass(frozen=True)
class MonotoneFormula:
    num_variables: int
    clauses: tuple[Clause, ...]

    def __post_init__(self):
        if type(self.num_variables) is not int:
            raise FormatError(f"variable count must be an int, got "
                              f"{self.num_variables!r}")
        if self.num_variables < 0:
            raise FormatError("negative variable count")
        for cl in self.clauses:
            for v in cl.literals:
                if not 1 <= v <= self.num_variables:
                    raise FormatError(f"literal {v} out of range")

    def is_satisfied(self, values: dict[int, int]) -> bool:
        for cl in self.clauses:
            want = 1 if cl.polarity is Polarity.POSITIVE else 0
            if not any(values[v] == want for v in cl.literals):
                return False
        return True


@dataclass(frozen=True)
class RectilinearRep:
    """Grid drawing: per-variable x-interval, per-clause row, and one
    column per (clause, literal) leg, aligned with the clause's literal
    order."""

    variable_segments: tuple[tuple[int, int], ...]
    clause_rows: tuple[int, ...]
    legs: tuple[tuple[int, ...], ...]


def validate_rep(formula: MonotoneFormula, rep: RectilinearRep) -> None:
    """Raise FormatError unless rep is a crossing-free drawing of formula.

    Every segment end, row and leg column must be an int.  Besides the
    shape checks, every leg must lie in its variable's segment and all
    leg columns must be distinct.  The one crossing rule is then: no leg
    on a clause's side of the axis whose row is at least as far from the
    axis lies strictly inside that clause's span.  Two clauses on one row
    cannot overlap without breaking it, since a leg of one that lies in
    the other's span cannot share a column with either end of that span,
    and so lies strictly inside.  The error names the first clause that a
    leg crosses and the first such leg, in clause order; a range max over
    the legs sorted by side and column finds that clause in O((legs +
    clauses) log legs).
    """
    if len(rep.variable_segments) != formula.num_variables:
        raise FormatError("one segment per variable required")
    if len(rep.clause_rows) != len(formula.clauses) or \
            len(rep.legs) != len(formula.clauses):
        raise FormatError("one row and leg list per clause required")

    for lo, hi in rep.variable_segments:
        if type(lo) is not int or type(hi) is not int or lo > hi:
            raise FormatError(f"bad variable segment ({lo},{hi})")
    segs = sorted(rep.variable_segments)
    for (_, hi), (lo, _) in zip(segs, segs[1:]):
        if lo <= hi:
            raise FormatError("variable segments overlap")

    all_legs: list[tuple[int, int, int]] = []  # (column, row, clause idx)
    for ci, (cl, row, cols) in enumerate(
            zip(formula.clauses, rep.clause_rows, rep.legs)):
        if type(row) is not int or any(type(c) is not int for c in cols):
            raise FormatError(f"clause {ci}: row and leg columns must be "
                              f"ints, got {row!r}, {cols}")
        if len(cols) != len(cl.literals):
            raise FormatError(f"clause {ci}: one leg per literal required")
        if (row > 0) != (cl.polarity is Polarity.POSITIVE) or row == 0:
            raise FormatError(f"clause {ci}: row {row} contradicts polarity")
        for var, col in zip(cl.literals, cols):
            lo, hi = rep.variable_segments[var - 1]
            if not lo <= col <= hi:
                raise FormatError(
                    f"clause {ci}: leg column {col} outside variable {var}")
            all_legs.append((col, row, ci))

    cols_seen = [c for c, _, _ in all_legs]
    if len(set(cols_seen)) != len(cols_seen):
        raise FormatError("leg columns must be distinct")

    ci = _first_crossed_clause(rep)
    if ci is not None:  # word it as the first leg in clause order
        row, cols = rep.clause_rows[ci], rep.legs[ci]
        lo, hi = min(cols), max(cols)
        lci = next(lci for col, lrow, lci in all_legs
                   if lci != ci and lrow * row > 0 and abs(lrow) >= abs(row)
                   and lo < col < hi)
        raise FormatError(f"leg of clause {lci} crosses clause {ci}")


def _range_max(values: list[int]):
    """``query(i, j)``, the max of ``values[i:j]`` (0 when empty), from a
    sparse table: level ``k`` holds the max of each run of ``2**k``."""
    levels = [values]
    while 2 ** len(levels) <= len(values):
        prev, half = levels[-1], 2 ** (len(levels) - 1)
        levels.append([max(a, b) for a, b in zip(prev, prev[half:])])

    def query(i: int, j: int) -> int:
        if i >= j:
            return 0
        k = (j - i).bit_length() - 1
        return max(levels[k][i], levels[k][j - 2 ** k])
    return query


def _first_crossed_clause(rep: RectilinearRep) -> Optional[int]:
    """The least index of a clause that a leg crosses under
    :func:`validate_rep`'s rule, or ``None``; leg columns must be
    distinct.  With the legs sorted by side of the axis, then column, the
    foreign legs strictly inside a clause's span on its side are at most
    two runs (its own middle leg splits them), and a range max of their
    ``|row|`` decides, in O((legs + clauses) log legs)."""
    order = sorted((row > 0, col, abs(row))
                   for row, cols in zip(rep.clause_rows, rep.legs)
                   for col in cols)
    pos = {col: k for k, (_, col, _) in enumerate(order)}
    query = _range_max([depth for _, _, depth in order])
    for ci, (row, cols) in enumerate(zip(rep.clause_rows, rep.legs)):
        ends = sorted(pos[col] for col in cols)
        if max((query(a + 1, b) for a, b in zip(ends, ends[1:])),
               default=0) >= abs(row):
            return ci
    return None


def grid_embed(formula: MonotoneFormula, rep: RectilinearRep
               ) -> RectilinearRep:
    """Compress a valid drawing onto consecutive integer rows/columns.

    Rows above the axis become 1..k (below: -1..-k) preserving order.
    Columns start at 1 and go to the variables left to right: a variable
    with m legs puts them, left to right, on the next m columns, which
    its segment spans, and one spacer column follows; a legless variable
    takes one column.  The result uses at most len(legs) + num_variables
    columns and (number of distinct clause rows) + 1 rows.
    """
    validate_rep(formula, rep)

    pos_rows = sorted({r for r in rep.clause_rows if r > 0})
    neg_rows = sorted({r for r in rep.clause_rows if r < 0}, reverse=True)
    row_map = {r: i + 1 for i, r in enumerate(pos_rows)}
    row_map.update({r: -(i + 1) for i, r in enumerate(neg_rows)})

    var_order = sorted(range(1, formula.num_variables + 1),
                       key=lambda v: rep.variable_segments[v - 1])
    legs_of_var: dict[int, list[int]] = {v: [] for v in var_order}
    for cl, cols in zip(formula.clauses, rep.legs):
        for var, col in zip(cl.literals, cols):
            legs_of_var[var].append(col)

    col_map: dict[int, int] = {}
    segments = list(rep.variable_segments)
    next_col = 1
    for v in var_order:
        cols = sorted(legs_of_var[v])
        col_map.update(zip(cols, range(next_col, next_col + len(cols))))
        segments[v - 1] = (next_col, next_col + max(len(cols) - 1, 0))
        next_col += len(cols) + 1

    new_rows = tuple(row_map[r] for r in rep.clause_rows)
    new_legs = tuple(tuple(col_map[c] for c in cols) for cols in rep.legs)
    out = RectilinearRep(tuple(segments), new_rows, new_legs)
    validate_rep(formula, out)
    return out

