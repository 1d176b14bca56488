"""Monotone formulas, rectilinear drawings, and grid embedding."""

import pytest

from diskmerge.core import FormatError
from diskmerge.fixtures import FORMULA_FIXTURES, three_clause_formula
from diskmerge.formula import (Clause, MonotoneFormula, Polarity,
                               RectilinearRep, grid_embed, validate_rep)

POS = Polarity.POSITIVE
NEG = Polarity.NEGATIVE


class TestFormula:
    def test_clause_literal_count(self):
        with pytest.raises(FormatError):
            Clause(POS, ())
        with pytest.raises(FormatError):
            Clause(POS, (1, 2, 3, 4))
        with pytest.raises(FormatError):
            Clause(POS, (1, 1))

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
