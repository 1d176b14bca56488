"""Serialization round trips and SVG rendering."""

import fractions
import functools
import hashlib
import json
import pickle
import re
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from diskmerge.core import (Assignment, Disk, FormatError, Instance, Point,
                            parse_rational, verify_proper, verify_uproper)
from diskmerge.fixtures import (FORMULA_FIXTURES, chain_merge_instance,
                                three_clause_formula)
from diskmerge.gadgets import GadgetKind, build_gadget, pose_at
from diskmerge.reduction import (ReductionError, assemble,
                                 build_assignment_from_sat, reduce_sat)
from diskmerge.serialization import (_load, _require, _unique_keys,
                                     instance_metadata, parse_assignment,
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


MALFORMED_INSTANCES = [
    "not json",
    '{"disks":[]}',                                # missing version
    '{"version":2,"disks":[]}',                    # wrong version
    '{"version":true,"disks":[]}',                 # equal to 1, not 1
    '{"version":1.0,"disks":[]}',
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
]


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

    @pytest.mark.parametrize("text", MALFORMED_INSTANCES)
    def test_rejects_malformed(self, text):
        with pytest.raises(FormatError):
            parse_instance(text)

    def test_metadata_round_trip(self):
        inst = Instance([Disk(1, Point(F(0), F(0)), F(1))])
        text = serialize_instance(inst, {"kind": "demo"})
        assert instance_metadata(text) == {"kind": "demo"}
        assert parse_instance(text).n == 1


def reference_parse_instance(text):
    """parse_instance as written with a Fraction per value: each value
    through parse_rational into a Disk, then Instance(disks)."""
    doc = _require(_load(text), "instance")
    raw = doc.get("disks")
    if not isinstance(raw, list):
        raise FormatError("instance document needs a 'disks' list")
    disks = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise FormatError("each disk must be an object")
        try:
            disk_id = entry["id"]
            x = parse_rational(entry["x"])
            y = parse_rational(entry["y"])
            r = parse_rational(entry["r"])
        except KeyError as exc:
            raise FormatError(f"disk missing field {exc}") from exc
        if not isinstance(disk_id, int) or isinstance(disk_id, bool):
            raise FormatError(f"disk id must be an integer, got {disk_id!r}")
        disks.append(Disk(disk_id, Point(x, y), r))
    return Instance(disks)


def parse_instance_outcome(parse, text):
    """The parsed instance, its hash, its disks with each value's exact
    terms and its canonical text, or the FormatError message."""
    try:
        inst = parse(text)
    except FormatError as exc:
        return "error", str(exc)
    terms = [(type(v), v.numerator, v.denominator) for d in inst.disks
             for v in (d.center.x, d.center.y, d.radius)]
    return inst, hash(inst), inst.disks, terms, serialize_instance(inst)


def _doc(*disks):
    return json.dumps({"version": 1, "disks": [
        dict(zip(("id", "x", "y", "r"), d)) for d in disks]})


PARSE_CASES = MALFORMED_INSTANCES + [
    '{"version":1,"disks":[{"id":1,"x":"0","y":"0","r":"1"}]}',
    "[" * 100_000 + "]" * 100_000,
    '{"version":1,"disks":[{"id":1,"x":"' + "1" * 5000 +
    '","y":"0","r":"1"}]}',
    '{"version":1,"disks":[{"id":1,"x":"1/' + "7" * 5000 +
    '","y":"0","r":"1"}]}',
    '{"version":1,"disks":[{"id":' + "1" * 5000 +
    ',"x":"0","y":"0","r":"1"}]}',
    _doc((1, "+3", "-0", "007"), (2, "-007/010", "0/7", "2/4")),
    _doc((1, "3/0", "0", "1")),
    _doc((1, "0", "0", "-2/4")),
    _doc((1, "1/2", "1/3", "1/6"), (2, "5/4", "-7/9", "10/15")),
    # JSON integers, and a coordinate past the float range
    _doc((1, 3, -4, 2), (2, 10 ** 400, 0, 1)),
    # ids out of order, with a gap, shuffled with a gap, repeated
    _doc((3, "1", "0", "1"), (1, "0", "0", "1"), (2, "5", "0", "1/2")),
    _doc((1, "0", "0", "1"), (2, "1", "0", "1"), (4, "2", "0", "1")),
    _doc((4, "0", "0", "1"), (1, "1", "0", "1"), (2, "2", "0", "1")),
    _doc((2, "0", "0", "1"), (1, "1", "0", "1"), (2, "2", "0", "1")),
    # bad ids and radii together: the ids are checked first
    _doc((2, "0", "0", "0")),
    _doc((1, "0", "0", "1"), (2, "0", "0", "-1"), (3, "0", "0", "0")),
    # values that are not rational strings or ints
    _doc((1, True, "0", "1")), _doc((1, "0", None, "1")),
    _doc((1, "0", "0", [1])), _doc((1, {"p": 1}, "0", "1")),
    _doc((1, "0", "0", 1.0)), _doc((True, "0", "0", "1")),
    # values equal to an int read before them: each is checked anew
    _doc((1, 1, True, "1")), _doc((1, 1, 1.0, "1")),
    _doc(("1", "0", "0", "1")), _doc((1.0, "0", "0", "1")),
    _doc((1, "1.5", "0", "1")), _doc((1, " 1", "0", "1")),
    _doc((1, "1/-2", "0", "1")), _doc((1, "", "0", "1")),
    # a bad value before a missing field, and the other way round
    '{"version":1,"disks":[{"id":1,"x":"a","r":"1"}]}',
    '{"version":1,"disks":[{"id":1,"y":"a","r":"1"}]}',
    '{"version":1,"disks":[{"x":"a","y":"0","r":"1"}]}',
    '{"version":1,"disks":[{"id":1,"x":"0","y":"0","r":"1"},5]}',
    '{"version":1,"disks":{"id":1}}',
    "[]", '{"version":1,"disks":[],"metadata":[]}',
]


def spellings(signs, low):
    """Canonical and non-canonical spellings of rationals at least
    ``low`` in absolute value, with a sign from ``signs``, and JSON
    ints."""
    return st.one_of(
        st.fractions(min_value=low, max_value=50, max_denominator=60).map(
            lambda q: f"{q.numerator}/{q.denominator}"),
        st.builds(lambda sign, zeros, num, den: f"{sign}{'0' * zeros}{num}"
                  + (f"/{'0' * zeros}{den}" if den else ""),
                  st.sampled_from(signs), st.integers(0, 2),
                  st.integers(low, 99), st.integers(0, 12)),
        st.integers(low, 10 ** 6).flatmap(
            lambda v: st.sampled_from([v] + [-v] * ("-" in signs))),
        st.sampled_from(("+3", "007", "2/4")
                        + ("-0", "-007/010") * ("-" in signs)))


coordinates = spellings(("", "+", "-"), 0)
radii = spellings(("", "+"), 1)
# values the parser rejects, or radii it rejects
bad_values = st.sampled_from(("3/0", "1.5", "1e3", " 1", "1 ", "1/", "/2",
                              "-1", "0", "0/5", "\u0663", True, None, 0.5,
                              [1], {"p": 1}))


@st.composite
def instance_documents(draw):
    """A document of up to 6 disks with ids 1..n in a random order and
    values in any spelling; one in two has one fault: a gap, repeat or
    non-int among the ids, a field missing or a bad value."""
    n = draw(st.integers(0, 6))
    ids = draw(st.permutations(range(1, n + 1)))
    disks = [{"id": i, "x": draw(coordinates), "y": draw(coordinates),
              "r": draw(radii)} for i in ids]
    if n and draw(st.booleans()):
        entry = draw(st.sampled_from(disks))
        fault = draw(st.sampled_from(("id", "missing", "value")))
        if fault == "id":
            entry["id"] = draw(st.sampled_from((0, n + 1, n, "1", True)))
        elif fault == "missing":
            del entry[draw(st.sampled_from(("id", "x", "y", "r")))]
        else:
            entry[draw(st.sampled_from(("x", "y", "r")))] = draw(bad_values)
    return json.dumps({"version": 1, "disks": disks})


class TestParseReference:
    @pytest.mark.parametrize("k", range(len(PARSE_CASES)))
    def test_matches_fraction_parse(self, k):
        text = PARSE_CASES[k]
        assert parse_instance_outcome(parse_instance, text) == \
            parse_instance_outcome(reference_parse_instance, text)

    @settings(max_examples=400, deadline=None)
    @given(instance_documents())
    def test_matches_fraction_parse_on_documents(self, text):
        assert parse_instance_outcome(parse_instance, text) == \
            parse_instance_outcome(reference_parse_instance, text)

    def test_some_cases_parse(self):
        ok = [text for text in PARSE_CASES
              if parse_instance_outcome(parse_instance, text)[0] != "error"]
        assert len(ok) == 6

    @pytest.mark.parametrize("order, message", [
        ((4, 1, 2), "disk ids must be exactly 1..n, but id 3 is missing"),
        ((3, 1, 3), "disk ids must be exactly 1..n, but id 2 is missing"),
        ((2, 3, 4), "disk ids must be exactly 1..n, but id 1 is missing"),
    ])
    def test_id_message_lists_sorted_ids(self, order, message):
        text = _doc(*((i, str(i), "0", "1") for i in order))
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            parse_instance(text)

    def test_non_canonical_spellings(self):
        inst = parse_instance(
            _doc((2, "+3", "-0", "2/4"), (1, "007/010", 1, "1")))
        assert inst.disks == (Disk(1, Point(F(7, 10), F(1)), F(1)),
                              Disk(2, Point(F(3), F(0)), F(1, 2)))
        assert serialize_instance(inst) == (
            '{"disks":[{"id":1,"r":"1","x":"7/10","y":"1"},'
            '{"id":2,"r":"1/2","x":"3","y":"0"}],"version":1}\n')


@pytest.fixture
def fractions_made(monkeypatch):
    """The argument tuple of each Fraction constructed from here on."""
    made = []
    new = fractions.Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(fractions.Fraction, "__new__", counting)
    return made


@functools.cache
def _reduction_documents():
    """An instance and an assignment document of a reduction."""
    formula, rep = FORMULA_FIXTURES["single_positive"]()
    art = reduce_sat(formula, rep)
    phi = build_assignment_from_sat(art, _first_satisfying(formula))
    return (serialize_instance(art.instance, art.metadata()),
            serialize_assignment(phi))


class TestScaledInts:
    def test_hot_path_makes_no_fraction(self, fractions_made):
        text, atext = _reduction_documents()
        phi = parse_assignment(atext)
        meta = instance_metadata(text)
        fractions_made.clear()
        inst = parse_instance(text)
        assert verify_proper(inst, phi).ok and verify_uproper(inst, phi).ok
        svg = render_svg(inst, phi)
        assert serialize_instance(inst, meta) == text
        assert fractions_made == [] and inst._disks is None
        assert svg == render_svg(reference_parse_instance(text), phi)

    def test_disks_built_once_on_first_read(self, fractions_made):
        inst = parse_instance(_reduction_documents()[0])
        assert inst._disks is None
        fractions_made.clear()
        disks = inst.disks
        assert len(fractions_made) == 3 * inst.n
        assert inst.disks is disks and len(fractions_made) == 3 * inst.n
        assert disks == reference_parse_instance(
            _reduction_documents()[0]).disks

    def test_one_read_leaves_disks_unbuilt(self, fractions_made):
        inst = parse_instance(_doc((1, "1/3", "0", "1"), (2, "5", "-7/2",
                                                         "2/4")))
        half, centre = F(1, 2), Point(F(1, 3), F(0))
        fractions_made.clear()
        assert (inst.radius(2), inst.center(1)) == (half, centre)
        assert len(fractions_made) == 3 and inst._disks is None

    def test_unbuilt_view_survives_pickle(self):
        text = _reduction_documents()[0]
        inst = parse_instance(text)
        inst.neighbor_sequence(1)
        copy = pickle.loads(pickle.dumps(inst))
        assert copy._disks is None
        assert copy == inst and hash(copy) == hash(inst)
        assert copy.neighbor_sequence(1) == inst.neighbor_sequence(1)
        assert copy.disks == reference_parse_instance(text).disks
        assert serialize_instance(copy, instance_metadata(text)) == text

    def test_equality_compares_the_scale(self):
        # both scale to x = r = 1, over L = 2 and L = 3
        half = Instance([Disk(1, Point(F(1, 2), F(0)), F(1, 2))])
        third = Instance([Disk(1, Point(F(1, 3), F(0)), F(1, 3))])
        assert (half._x, half._r) == (third._x, third._r)
        assert half != third
        assert half == parse_instance(serialize_instance(half))
        assert len({half, third, parse_instance(serialize_instance(half))}) \
            == 2

    def test_assemble_error_builds_no_disks(self, fractions_made):
        gadgets = [build_gadget(GadgetKind.COPY4, pose_at(0, 0))
                   for _ in range(2)]
        fractions_made.clear()
        with pytest.raises(ReductionError, match=re.escape(
                "selector 0:sa overlaps a foreign disk at "
                "Point(x=Fraction(3, 10), y=Fraction(0, 1))")):
            assemble(gadgets)
        assert len(fractions_made) == 2  # the centre in the message

    def test_reduce_sat_makes_no_fraction_per_point(self, fractions_made):
        """Only each gadget's pose offset (two per gadget) and epsilon's
        arithmetic make Fractions; placed points stay ints."""
        formula, rep = three_clause_formula()
        fractions_made.clear()
        art = reduce_sat(formula, rep)
        assert len(fractions_made) <= 2 * len(art.gadgets) + 8


def reference_unique_keys(pairs):
    """The key-by-key loop that _unique_keys replaces."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f"malformed document: duplicate key {key!r}")
        obj[key] = value
    return obj


class TestUniqueKeys:
    @pytest.mark.parametrize("pairs", [
        [], [("a", 1)], [("a", 1), ("b", [2])],
        [("a", 1), ("a", 2)], [("a", 1), ("b", 2), ("b", 3), ("a", 4)],
        [("a", 1), ("b", 2), ("c", 3), ("a", 4), ("c", 5)],
        [("x", None), ("y", 1), ("z", 2), ("y", 1)],
    ])
    def test_matches_key_by_key_loop(self, pairs):
        outcomes = []
        for build in (_unique_keys, reference_unique_keys):
            try:
                obj = build(pairs)
                outcomes.append((obj, list(obj)))
            except FormatError as exc:
                outcomes.append(str(exc))
        assert outcomes[0] == outcomes[1]


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
        '{"version":true,"target":{"1":"1"}}',
        '{"version":1.0,"target":{"1":"1"}}',
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
