"""Built-in example instances and formulas used by the tests and the
benchmark."""

from __future__ import annotations

from fractions import Fraction

from .core import Disk, Instance, Point
from .formula import Clause, MonotoneFormula, Polarity, RectilinearRep

F = Fraction


def chain_merge_instance() -> Instance:
    """Five collinear disks where the best strict assignment keeps four:
    the big pair absorbs the middle disk while the two small outliers
    stay selected."""
    return Instance([
        Disk(1, Point(F(0), F(0)), F(2)),
        Disk(2, Point(F(3), F(0)), F(7, 4)),
        Disk(3, Point(F(3, 2), F(0)), F(1)),
        Disk(4, Point(F(-11, 5), F(0)), F(1, 2)),
        Disk(5, Point(F(-29, 10), F(0)), F(1, 2)),
    ])


def relaxed_only_instance() -> Instance:
    """Five collinear disks with no strict assignment at all, while the
    relaxed rule still allows merging the outliers inward."""
    return Instance([
        Disk(1, Point(F(0), F(0)), F(6)),
        Disk(2, Point(F(10), F(0)), F(6)),
        Disk(3, Point(F(5), F(0)), F(1)),
        Disk(4, Point(F(-11, 2), F(0)), F(1)),
        Disk(5, Point(F(31, 2), F(0)), F(1)),
    ])


def equalize_relaxed_rise_instance() -> Instance:
    """Four disks whose relaxed optimum rises from 1 to 2 under
    ``equalize_radii(..., 1)``: the two copies of disk 3 merge into disk
    2 and into a copy of disk 4.  The strict optimum is 1 before and
    after."""
    return Instance([
        Disk(1, Point(F(3, 4), F(-1, 2)), F(1)),
        Disk(2, Point(F(1, 2), F(1, 4)), F(1)),
        Disk(3, Point(F(-3, 4), F(-1, 2)), F(2)),
        Disk(4, Point(F(-7, 4), F(-7, 4)), F(2)),
    ])


def _f(num_variables, clauses) -> MonotoneFormula:
    return MonotoneFormula(num_variables, tuple(
        Clause(pol, tuple(lits)) for pol, lits in clauses))


def three_clause_formula() -> tuple[MonotoneFormula, RectilinearRep]:
    """Three clauses over four variables with nine legs: two nested
    positive clauses and one negative clause."""
    formula = _f(4, [
        (Polarity.POSITIVE, (1, 2, 3)),
        (Polarity.POSITIVE, (1, 3, 4)),
        (Polarity.NEGATIVE, (1, 2, 4)),
    ])
    rep = RectilinearRep(
        variable_segments=((0, 9), (10, 19), (20, 29), (30, 39)),
        clause_rows=(1, 2, -1),
        legs=((5, 15, 25), (2, 27, 35), (7, 17, 37)),
    )
    return formula, rep


def single_positive_clause() -> tuple[MonotoneFormula, RectilinearRep]:
    formula = _f(3, [(Polarity.POSITIVE, (1, 2, 3))])
    rep = RectilinearRep(((0, 0), (2, 2), (4, 4)), (1,), ((0, 2, 4),))
    return formula, rep


def single_negative_clause() -> tuple[MonotoneFormula, RectilinearRep]:
    formula = _f(3, [(Polarity.NEGATIVE, (1, 2, 3))])
    rep = RectilinearRep(((0, 0), (2, 2), (4, 4)), (-1,), ((0, 2, 4),))
    return formula, rep


def nested_positive_pair() -> tuple[MonotoneFormula, RectilinearRep]:
    formula = _f(4, [
        (Polarity.POSITIVE, (1, 2, 3)),
        (Polarity.POSITIVE, (1, 3, 4)),
    ])
    rep = RectilinearRep(
        variable_segments=((0, 9), (10, 19), (20, 29), (30, 39)),
        clause_rows=(1, 2),
        legs=((5, 15, 25), (2, 27, 35)),
    )
    return formula, rep


def nested_negative_pair() -> tuple[MonotoneFormula, RectilinearRep]:
    """``nested_positive_pair`` mirrored below the axis: the outer clause
    sits on row -2, so its legs pass the inner clause's row."""
    formula = _f(4, [
        (Polarity.NEGATIVE, (1, 2, 3)),
        (Polarity.NEGATIVE, (1, 3, 4)),
    ])
    rep = RectilinearRep(
        variable_segments=((0, 9), (10, 19), (20, 29), (30, 39)),
        clause_rows=(-1, -2),
        legs=((5, 15, 25), (2, 27, 35)),
    )
    return formula, rep


def mixed_polarity_pair() -> tuple[MonotoneFormula, RectilinearRep]:
    formula = _f(3, [
        (Polarity.POSITIVE, (1, 2)),
        (Polarity.NEGATIVE, (1, 3)),
    ])
    rep = RectilinearRep(((0, 1), (2, 2), (4, 4)), (1, -1),
                         ((0, 2), (1, 4)))
    return formula, rep


def unit_clause_formula() -> tuple[MonotoneFormula, RectilinearRep]:
    formula = _f(1, [(Polarity.POSITIVE, (1,))])
    rep = RectilinearRep(((0, 0),), (1,), ((0,),))
    return formula, rep


def negative_unit_clause() -> tuple[MonotoneFormula, RectilinearRep]:
    """One negative one-literal clause: a mirrored disjunction whose only
    leg starts with a negation gadget."""
    formula = _f(1, [(Polarity.NEGATIVE, (1,))])
    rep = RectilinearRep(((0, 0),), (-1,), ((0,),))
    return formula, rep


def variables_only_formula() -> tuple[MonotoneFormula, RectilinearRep]:
    formula = _f(2, [])
    rep = RectilinearRep(((0, 0), (2, 2)), (), ())
    return formula, rep


def chain_formula(num_variables: int
                  ) -> tuple[MonotoneFormula, RectilinearRep]:
    """A path of ``V = num_variables`` variables, drawn at any length:
    variable v on segment (10(v-1), 10(v-1)+9); clause k = (k, k+1) for
    k = 1..V-1, positive on row 1 when k is odd and negative on row -1
    when k is even, with legs at columns 10k-4 and 10k+3.  Setting the
    odd variables true satisfies it.  From V = 2 on, ``reduce_sat``
    makes 42V - 40 disks of it (100,760 at V = 2,400)."""
    V = num_variables
    formula = _f(V, [(Polarity.POSITIVE if k % 2 else Polarity.NEGATIVE,
                      (k, k + 1)) for k in range(1, V)])
    rep = RectilinearRep(
        tuple((10 * (v - 1), 10 * (v - 1) + 9) for v in range(1, V + 1)),
        tuple(1 if k % 2 else -1 for k in range(1, V)),
        tuple((10 * k - 4, 10 * k + 3) for k in range(1, V)))
    return formula, rep


FORMULA_FIXTURES = {
    "three_clause": three_clause_formula,
    "single_positive": single_positive_clause,
    "single_negative": single_negative_clause,
    "nested_positive": nested_positive_pair,
    "nested_negative": nested_negative_pair,
    "mixed_polarity": mixed_polarity_pair,
    "unit_clause": unit_clause_formula,
    "negative_unit_clause": negative_unit_clause,
    "variables_only": variables_only_formula,
}
