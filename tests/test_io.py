"""Serialization round trips and SVG rendering."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from diskmerge.core import (Assignment, Disk, FormatError, Instance, Point)
from diskmerge.fixtures import (chain_merge_instance, three_clause_formula)
from diskmerge.serialization import (instance_metadata, parse_assignment,
                                     parse_formula, parse_instance,
                                     parse_rep, serialize_assignment,
                                     serialize_formula, serialize_instance,
                                     serialize_rep)
from diskmerge.svg import RenderOptions, render_svg

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
        opts = RenderOptions(labels=False)
        assert render_svg(inst, a, opts) == render_svg(inst, a, opts)

    def test_no_floats_in_output(self):
        inst = Instance([Disk(1, Point(F(1, 3), F(2, 7)), F(5, 11))])
        svg = render_svg(inst)
        assert re.search(r"\d[eE][-+]?\d", svg) is None
