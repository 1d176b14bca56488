"""Monotone formulas, rectilinear drawings, and grid embedding."""

import random
from fractions import Fraction as F

import pytest

from diskmerge.core import FormatError
from diskmerge.fixtures import (FORMULA_FIXTURES, chain_formula,
                                three_clause_formula, unit_clause_formula)
from diskmerge.formula import (Clause, MonotoneFormula, Polarity,
                               RectilinearRep, grid_embed, validate_rep)
from diskmerge.reduction import reduce_sat

POS = Polarity.POSITIVE
NEG = Polarity.NEGATIVE


def reference_validate_rep(formula, rep):
    """validate_rep with the crossing check as one loop over every
    (clause, leg) pair: the first failing clause, then its first leg in
    clause order, words the error."""
    if len(rep.variable_segments) != formula.num_variables:
        raise FormatError("one segment per variable required")
    if len(rep.clause_rows) != len(formula.clauses) or \
            len(rep.legs) != len(formula.clauses):
        raise FormatError("one row and leg list per clause required")

    for lo, hi in rep.variable_segments:
        if lo > hi:
            raise FormatError(f"bad variable segment ({lo},{hi})")
    segs = sorted(rep.variable_segments)
    for (_, hi), (lo, _) in zip(segs, segs[1:]):
        if lo <= hi:
            raise FormatError("variable segments overlap")

    all_legs = []  # (column, row, clause idx)
    for ci, (cl, row, cols) in enumerate(
            zip(formula.clauses, rep.clause_rows, rep.legs)):
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

    for ci, (row, cols) in enumerate(zip(rep.clause_rows, rep.legs)):
        lo, hi = min(cols), max(cols)
        for col, lrow, lci in all_legs:
            if lci != ci and lrow * row > 0 and abs(lrow) >= abs(row) \
                    and lo < col < hi:
                raise FormatError(f"leg of clause {lci} crosses clause {ci}")


def random_drawing(rng):
    """A drawing of 2-8 variables and 1-7 clauses of 1-3 literals on rows
    up to 3 deep on either side, with distinct leg columns.  Some are
    crossing-free, many cross, and a few break a shape rule."""
    nv = rng.randint(2, 8)
    segments, col = [], 0
    for _ in range(nv):
        width = rng.randint(0, 4)
        segments.append((col, col + width))
        col += width + rng.randint(1, 2)
    free = {v: list(range(lo, hi + 1))
            for v, (lo, hi) in enumerate(segments, start=1)}
    clauses, rows, legs = [], [], []
    for _ in range(rng.randint(1, 7)):
        lits = [v for v in rng.sample(range(1, nv + 1), min(nv, rng.randint(1, 3)))
                if free[v]]
        if not lits:
            continue
        positive = rng.random() < 0.5
        depth = rng.randint(1, 3)
        rows.append(depth if positive else -depth)
        clauses.append(Clause(POS if positive else NEG, tuple(lits)))
        legs.append(tuple(free[v].pop(rng.randrange(len(free[v])))
                          for v in lits))
    if rng.random() < 0.05 and rows:  # a row on the wrong side
        rows[0] = -rows[0]
    return (MonotoneFormula(nv, tuple(clauses)),
            RectilinearRep(tuple(segments), tuple(rows), tuple(legs)))


def verdict(check, formula, rep):
    try:
        check(formula, rep)
    except FormatError as exc:
        return str(exc)
    return None


class TestFormula:
    def test_clause_literal_count(self):
        with pytest.raises(FormatError):
            Clause(POS, ())
        with pytest.raises(FormatError):
            Clause(POS, (1, 2, 3, 4))
        with pytest.raises(FormatError):
            Clause(POS, (1, 1))

    @pytest.mark.parametrize("value", [1.0, True, F(1), "1"])
    def test_literals_and_count_must_be_ints(self, value):
        with pytest.raises(FormatError, match="literals must be ints"):
            Clause(POS, (value,))
        with pytest.raises(FormatError, match="variable count must be"):
            MonotoneFormula(value, ())

    def test_literal_range(self):
        with pytest.raises(FormatError):
            MonotoneFormula(2, (Clause(POS, (3,)),))

    def test_satisfaction(self):
        f = MonotoneFormula(2, (Clause(POS, (1, 2)), Clause(NEG, (1,))))
        assert f.is_satisfied({1: 0, 2: 1})
        assert not f.is_satisfied({1: 1, 2: 0})
        assert not f.is_satisfied({1: 0, 2: 0})


class TestValidateRep:
    def test_fixture_reps_valid(self):
        for fn in FORMULA_FIXTURES.values():
            validate_rep(*fn())

    @pytest.mark.parametrize("segments,rows,legs", [
        (((0, 0.0),), (1,), ((0.0,),)), (((0, 0.0),), (1,), ((0,),)),
        (((F(0), 0),), (1,), ((0,),)), (((0, 0),), (1,), ((0.0,),)),
        (((0, 0),), (1.0,), ((0,),)), (((0, 0),), (True,), ((0,),))])
    def test_values_must_be_ints(self, segments, rows, legs):
        # a unit clause drawn with float ends reduced to 15 disks
        f, _ = unit_clause_formula()
        rep = RectilinearRep(segments, rows, legs)
        with pytest.raises(FormatError):
            validate_rep(f, rep)
        with pytest.raises(FormatError):
            reduce_sat(f, rep)

    def test_overlapping_variable_segments(self):
        f = MonotoneFormula(2, (Clause(POS, (1, 2)),))
        rep = RectilinearRep(((0, 5), (4, 9)), (1,), ((1, 6),))
        with pytest.raises(FormatError):
            validate_rep(f, rep)

    def test_leg_outside_variable_segment(self):
        f = MonotoneFormula(2, (Clause(POS, (1, 2)),))
        rep = RectilinearRep(((0, 3), (5, 9)), (1,), ((4, 6),))
        with pytest.raises(FormatError):
            validate_rep(f, rep)

    def test_row_polarity_mismatch(self):
        f = MonotoneFormula(1, (Clause(NEG, (1,)),))
        rep = RectilinearRep(((0, 2),), (1,), ((1,),))
        with pytest.raises(FormatError):
            validate_rep(f, rep)

    def test_crossing_detected(self):
        # clause 2's leg must pass through clause 1's horizontal span
        f = MonotoneFormula(3, (Clause(POS, (1, 3)), Clause(POS, (2,))))
        rep = RectilinearRep(((0, 2), (4, 6), (8, 10)), (1, 2),
                             ((1, 9), (5,)))
        with pytest.raises(FormatError):
            validate_rep(f, rep)

    def test_same_row_overlap_detected(self):
        f = MonotoneFormula(3, (Clause(POS, (1, 3)), Clause(POS, (2,))))
        rep = RectilinearRep(((0, 2), (4, 6), (8, 10)), (1, 1),
                             ((1, 9), (5,)))
        with pytest.raises(FormatError, match="crosses clause"):
            validate_rep(f, rep)


class TestGridEmbed:
    def test_embeds_all_fixtures(self):
        for fn in FORMULA_FIXTURES.values():
            f, rep = fn()
            out = grid_embed(f, rep)
            validate_rep(f, out)

    def test_idempotent(self):
        for fn in FORMULA_FIXTURES.values():
            f, rep = fn()
            out = grid_embed(f, rep)
            assert grid_embed(f, out) == out

    def test_rows_compressed_to_consecutive(self):
        f, rep = three_clause_formula()
        out = grid_embed(f, rep)
        above = sorted(r for r in out.clause_rows if r > 0)
        below = sorted((-r for r in out.clause_rows if r < 0))
        assert above == list(range(1, len(above) + 1))
        assert below == list(range(1, len(below) + 1))

    def test_preserves_leg_order(self):
        f, rep = three_clause_formula()
        out = grid_embed(f, rep)
        for before, after in zip(rep.legs, out.legs):
            ranks = sorted(range(len(before)), key=lambda k: before[k])
            assert sorted(range(len(after)), key=lambda k: after[k]) == ranks


class TestCrossingReference:
    def test_random_drawings_match_all_pairs(self):
        rng = random.Random(1900)
        crossing = valid = 0
        for _ in range(3000):
            f, rep = random_drawing(rng)
            want = verdict(reference_validate_rep, f, rep)
            assert verdict(validate_rep, f, rep) == want
            if want is None:
                valid += 1
                assert verdict(validate_rep, f, grid_embed(f, rep)) is None
            crossing += want is not None and "crosses" in want
        assert valid >= 300 and crossing >= 1000

    def test_fixtures_and_chain_match_all_pairs(self):
        drawings = [fn() for fn in FORMULA_FIXTURES.values()]
        f, rep = chain_formula(20)
        drawings += [(f, rep), (f, grid_embed(f, rep))]
        for f, rep in drawings:
            assert verdict(reference_validate_rep, f, rep) is None
            assert verdict(validate_rep, f, rep) is None

    def test_stretched_chains_match_all_pairs(self):
        """chain_formula(20) with three clauses stretched to a farther
        variable and moved to a random depth: the first crossed clause is
        often far from clause 0."""
        rng = random.Random(1901)
        f, rep = chain_formula(20)
        outcomes = set()
        for _ in range(200):
            clauses, rows = list(f.clauses), list(rep.clause_rows)
            legs = list(rep.legs)
            for ci in rng.sample(range(len(clauses)), 3):
                cl = clauses[ci]
                far = rng.randint(cl.literals[1], 20)
                clauses[ci] = Clause(cl.polarity, (cl.literals[0], far))
                # between the far variable's own legs, at 10 far - 7 and - 4
                legs[ci] = (legs[ci][0], 10 * far - rng.randint(5, 6))
                depth = rng.randint(1, 3)
                rows[ci] = depth if cl.polarity is POS else -depth
            g = MonotoneFormula(f.num_variables, tuple(clauses))
            r = RectilinearRep(rep.variable_segments, tuple(rows),
                               tuple(legs))
            want = verdict(reference_validate_rep, g, r)
            assert verdict(validate_rep, g, r) == want
            outcomes.add(want if want is None else want.split()[-1])
        assert None in outcomes and len(outcomes) >= 10
