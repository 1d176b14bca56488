"""Serialization round trips and SVG rendering."""

import functools
import hashlib
import re
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from diskmerge.core import (Assignment, Disk, FormatError, Instance, Point)
from diskmerge.fixtures import (FORMULA_FIXTURES, chain_merge_instance,
                                three_clause_formula)
from diskmerge.reduction import build_assignment_from_sat, reduce_sat
from diskmerge.serialization import (instance_metadata, parse_assignment,
                                     parse_formula, parse_instance,
                                     parse_rep, serialize_assignment,
                                     serialize_formula, serialize_instance,
                                     serialize_rep)
from diskmerge.svg import _fmt, render_svg

rationals = st.fractions(max_denominator=10 ** 6)
positive_rationals = rationals.filter(lambda q: q > 0)


@st.composite
def instances(draw):
    rows = draw(st.lists(st.tuples(rationals, rationals, positive_rationals),
                         max_size=6))
    return Instance([Disk(i + 1, Point(x, y), r)
                     for i, (x, y, r) in enumerate(rows)])


class TestInstanceDocuments:
    @settings(max_examples=100)
    @given(instances())
    def test_round_trip_byte_exact(self, inst):
        text = serialize_instance(inst)
        again = serialize_instance(parse_instance(text))
        assert text == again

    def test_parse_example(self):
        text = '{"version":1,"disks":[{"id":1,"x":"0","y":"0","r":"1"}]}'
        inst = parse_instance(text)
        assert inst.n == 1 and inst.radius(1) == 1

    def test_exact_rationals(self):
        text = '{"version":1,"disks":[{"id":1,"x":"1/3","y":"0","r":"1"}]}'
        assert parse_instance(text).center(1).x == F(1, 3)

    def test_canonical_lowest_terms(self):
        inst = Instance([Disk(1, Point(F(2, 4), F(0)), F(3, 1))])
        text = serialize_instance(inst)
        assert '"x":"1/2"' in text and '"r":"3"' in text

    @pytest.mark.parametrize("text", [
        "not json",
        '{"disks":[]}',                                # missing version
        '{"version":2,"disks":[]}',                    # wrong version
        '{"version":1}',                               # missing disks
        '{"version":1,"disks":[{"id":1,"x":"0","y":"0","r":"0"}]}',
        '{"version":1,"disks":[{"id":2,"x":"0","y":"0","r":"1"}]}',
        '{"version":1,"disks":[{"id":1,"x":0.5,"y":"0","r":"1"}]}',
        '{"version":1,"disks":[{"id":1,"y":"0","r":"1"}]}',
        # a repeated key is rejected, not resolved to its last value
        '{"version":1,"disks":[{"id":1,"x":"0","x":"5","y":"0","r":"1"}]}',
        '{"version":1,"disks":[],"disks":[{"id":1,"x":"0","y":"0","r":"1"}]}',
        # ASCII digits only, and nothing after the last one
        '{"version":1,"disks":[{"id":1,"x":"1\\n","y":"0","r":"1"}]}',
        '{"version":1,"disks":[{"id":1,"x":"0","y":"\u0663","r":"1"}]}',
        '{"version":1,"disks":[{"id":1,"x":"0","y":"0","r":"1/\u0662"}]}',
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            parse_instance(text)

    def test_metadata_round_trip(self):
        inst = Instance([Disk(1, Point(F(0), F(0)), F(1))])
        text = serialize_instance(inst, {"kind": "demo"})
        assert instance_metadata(text) == {"kind": "demo"}
        assert parse_instance(text).n == 1


class TestAssignmentDocuments:
    def test_round_trip(self):
        a = Assignment((1, 1, 3, 3))
        text = serialize_assignment(a)
        assert parse_assignment(text) == a
        assert serialize_assignment(parse_assignment(text)) == text

    @settings(max_examples=100)
    @given(st.integers(0, 12).flatmap(lambda n: st.lists(
        st.integers(1, max(n, 1)), min_size=n, max_size=n)))
    def test_canonical_text_is_fixed_point(self, target):
        # any total map, idempotent or not, e.g. 1 -> 2 -> 3
        phi = Assignment(target)
        text = serialize_assignment(phi)
        assert parse_assignment(text) == phi
        assert serialize_assignment(parse_assignment(text)) == text

    @pytest.mark.parametrize("text", [
        '{"version":1}',
        '{"version":1,"target":{"1":"1","3":"3"}}',   # gapped ids
        '{"version":1,"target":{"1":"x"}}',
        '{"version":1,"target":{"1":1.9}}',
        '{"version":1,"target":{"1":true}}',
        '{"version":1,"target":{" 1":"1"}}',
        '{"version":1,"target":{"1":"1","01":"1"}}',
        '{"version":1,"target":{"1":"1","2":"1","2":"2"}}',
        '{"version":1,"version":1,"target":{"1":"1"}}',
    ])
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            parse_assignment(text)

    def test_accepts_int_targets(self):
        text = '{"version":1,"target":{"1":1,"2":"1"}}'
        assert parse_assignment(text) == Assignment((1, 1))


class TestFormulaDocuments:
    def test_round_trip(self):
        f, rep = three_clause_formula()
        assert parse_formula(serialize_formula(f)) == f
        assert parse_rep(serialize_rep(rep)) == rep

    @pytest.mark.parametrize("name", sorted(FORMULA_FIXTURES))
    def test_canonical_text_is_fixed_point(self, name):
        f, rep = FORMULA_FIXTURES[name]()
        text = serialize_formula(f)
        assert parse_formula(text) == f
        assert serialize_formula(parse_formula(text)) == text
        text = serialize_rep(rep)
        assert parse_rep(text) == rep
        assert serialize_rep(parse_rep(text)) == text

    def test_rejects_bad_polarity(self):
        text = ('{"version":1,"variables":1,'
                '"clauses":[{"polarity":"up","literals":[1]}]}')
        with pytest.raises(FormatError):
            parse_formula(text)


class TestRenderSvg:
    def test_single_disk_one_circle(self):
        inst = Instance([Disk(1, Point(F(0), F(0)), F(1))])
        svg = render_svg(inst)
        assert svg.count("<circle") == 1

    def test_empty_instance_valid_svg(self):
        svg = render_svg(Instance(()))
        assert svg.startswith("<?xml") and "</svg>" in svg
        assert "<circle" not in svg

    def test_chain_fixture_with_assignment(self):
        # 4 selected disks, one of which absorbs the middle disk:
        # 5 base circles, 1 aggregate circle, 1 merge segment
        inst = chain_merge_instance()
        a = Assignment((1, 2, 2, 4, 5))
        svg = render_svg(inst, a)
        assert svg.count("<circle") == 6
        assert svg.count("<line") == 1

    def test_rejects_invalid_assignment(self):
        inst = Instance([Disk(1, Point(F(0), F(0)), F(1)),
                         Disk(2, Point(F(9), F(0)), F(1))])
        with pytest.raises(FormatError):
            render_svg(inst, Assignment((1, 1)))

    def test_deterministic(self):
        inst = chain_merge_instance()
        a = Assignment((1, 2, 2, 4, 5))
        assert render_svg(inst, a) == render_svg(inst, a)

    def test_no_floats_in_output(self):
        inst = Instance([Disk(1, Point(F(1, 3), F(2, 7)), F(5, 11))])
        svg = render_svg(inst)
        assert re.search(r"\d[eE][-+]?\d", svg) is None


def _first_satisfying(formula):
    for bits in product((0, 1), repeat=formula.num_variables):
        values = {v + 1: b for v, b in enumerate(bits)}
        if formula.is_satisfied(values):
            return values
    raise AssertionError("fixture formula is unsatisfiable")


@functools.cache
def _svg_cases():
    """name -> (instance, assignment or None)."""
    cases = {}
    for name, fn in sorted(FORMULA_FIXTURES.items()):
        formula, rep = fn()
        art = reduce_sat(formula, rep)
        cases[f"sat-{name}"] = (art.instance, build_assignment_from_sat(
            art, _first_satisfying(formula)))
    negative = Instance([Disk(1, Point(F(-7, 3), F(-1, 2)), F(5, 6)),
                         Disk(2, Point(F(-3), F(-1, 2)), F(1, 4)),
                         Disk(3, Point(F(2, 5), F(-11, 7)), F(3, 8))])
    cases["negative"] = (negative, Assignment((1, 1, 3)))
    cases["chain-no-assignment"] = (chain_merge_instance(), None)
    cases["empty"] = (Instance(()), None)
    return cases


# sha256 of render_svg's output for each case of _svg_cases
SVG_PINS = {
    "chain-no-assignment":
        "bc10f212cd36cc2213a91dd6ccdf23f879d110f83fac6012d745cb2be61b3587",
    "empty":
        "da7a76152c109bddaebf29c33426f3fbb59929578e34304429f9bdbea0398d57",
    "negative":
        "81f79c0aa816305f241a7cc2b79b7a909c571b3a18ba2ae885990ad5e861b553",
    "sat-negative_unit_clause":
        "05d8525d7881bcdd151e9f82b8921dcfc59bd83498173b221989f6c33f932d52",
    "sat-mixed_polarity":
        "255a75891fb14a7165226275201c0ba55dc7b38eb400504589729baddf3d7ec8",
    "sat-nested_negative":
        "016d168a185333972d3a7babb34c339ee815fcbaf6303590f5db7279068e5ef1",
    "sat-nested_positive":
        "d24637ba7d7a1eb01b520bba5de07b4e806b7403483257b20f02b04076b48117",
    "sat-single_negative":
        "5ece903f74171c40335f228c492ebed2f21df6366e41af860ce3eb72836cdef0",
    "sat-single_positive":
        "29e023b4c8a2d51be23a2488b8e947a62756c535d64f608cbf0ba8ceed70c9d7",
    "sat-three_clause":
        "27c23dc056a9c78855f09dc5cc6410c4ae33c1fc3a239945c3ce36ae2c55432b",
    "sat-unit_clause":
        "dedf347609b359c264c260a61d2866c5cd4a333e62f4192802c3d1e9a74aec5a",
    "sat-variables_only":
        "c9123d2751c24f47bf343752e451075b1d22fb9a0f222ac0ab8696672ddde5e6",
}


class TestSvgPinned:
    def test_every_case_pinned(self):
        assert set(SVG_PINS) == set(_svg_cases())

    @pytest.mark.parametrize("name", sorted(SVG_PINS))
    def test_render_svg_bytes(self, name):
        inst, assignment = _svg_cases()[name]
        svg = render_svg(inst, assignment)
        assert hashlib.sha256(svg.encode()).hexdigest() == SVG_PINS[name]


def fraction_fmt(value: F) -> str:
    """The Fraction formatting that ``_fmt`` replaces: round the exact
    rational to 4 decimals (half to even) and print it from integers."""
    rounded = round(value * 10 ** 4)
    sign = "-" if rounded < 0 else ""
    whole, frac = divmod(abs(rounded), 10 ** 4)
    return f"{sign}{whole}.{frac:04d}"


@st.composite
def fmt_operands(draw):
    """``(num, den)`` of the form ``(X - M) * s.numerator`` over
    ``s.denominator * L`` for a rational scale ``s`` (render_svg's is 40),
    or an exact tie ``k + 1/2`` at the 4th decimal over an arbitrary
    common factor."""
    if draw(st.booleans()):
        k = draw(st.integers(-10 ** 7, 10 ** 7))
        factor = draw(st.integers(1, 10 ** 6))
        return (2 * k + 1) * factor, 2 * 10 ** 4 * factor
    offset = draw(st.integers(-10 ** 9, 10 ** 9))
    scale = draw(st.fractions(min_value=F(1, 1000), max_value=1000,
                              max_denominator=1000))
    big = draw(st.integers(1, 10 ** 6))
    return offset * scale.numerator, scale.denominator * big


class TestFmt:
    @settings(max_examples=500)
    @given(fmt_operands())
    def test_matches_fraction_rounding(self, operands):
        num, den = operands
        assert _fmt(num, den) == fraction_fmt(F(num, den))

    @pytest.mark.parametrize("num,den,text", [
        (1, 20000, "0.0000"), (3, 20000, "0.0002"), (-1, 20000, "0.0000"),
        (-3, 20000, "-0.0002"), (7, 3, "2.3333"), (-7, 3, "-2.3333"),
        (5, 1, "5.0000"), (0, 9, "0.0000")])
    def test_half_to_even(self, num, den, text):
        assert _fmt(num, den) == text == fraction_fmt(F(num, den))
