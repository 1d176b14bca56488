"""Fuzz of ``cli.run``: every document and every command line ends in
exit 0, 1 or 2, and exit 1 in exactly one ``error:`` line on stderr, never
in an escaped exception."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from diskmerge.cli import run
from diskmerge.fixtures import FORMULA_FIXTURES
from diskmerge.serialization import serialize_formula, serialize_rep

# strings that int() or Fraction() would coerce, or that break a parser
TRICKY = ["1\n", "٣", "1/٢", " 1", "1_0", "01", "+1", "-0", "",
          "1/0", "1e3", "NaN", "0.5"]
RATIONALS = ["0", "1", "-1", "2", "1/2", "-3/4", "5/3"]
RADII = ["1", "1/2", "3/4", "2"]

scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-10, 10),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.sampled_from(TRICKY + RATIONALS),
    st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=4))
junk = st.one_of(scalars, st.lists(scalars, max_size=3),
                 st.dictionaries(st.sampled_from(["1", "2", "x"]), scalars,
                                 max_size=2))


def _slots(node):
    """Every (container, key) pair inside a JSON value."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in list(items):
        yield node, key
        yield from _slots(value)


@st.composite
def corrupted(draw, doc):
    """The bytes of a valid document with up to two of its values replaced
    by junk or, in objects, deleted; or, one time in five, raw bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=40))
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(junk)
    return json.dumps(doc).encode()


@st.composite
def instance_docs(draw):
    n = draw(st.integers(0, 5))
    ys = st.just("0") if draw(st.booleans()) else st.sampled_from(RATIONALS)
    return {"version": 1, "disks": [
        {"id": i, "x": draw(st.sampled_from(RATIONALS)), "y": draw(ys),
         "r": draw(st.sampled_from(RADII))} for i in range(1, n + 1)]}


@st.composite
def assignment_docs(draw, n):
    return {"version": 1, "target": {
        str(i): draw(st.integers(1, n)) for i in range(1, n + 1)}}


@st.composite
def instance_and_assignment(draw):
    inst = draw(instance_docs())
    n = len(inst["disks"]) if draw(st.integers(0, 3)) else draw(
        st.integers(0, 5))
    return [inst, draw(assignment_docs(n))]


@st.composite
def formula_and_rep(draw):
    """A fixture formula with its own drawing, or, one time in four, with
    another fixture's drawing."""
    names = st.sampled_from(sorted(FORMULA_FIXTURES))
    f, rep = FORMULA_FIXTURES[draw(names)]()
    if draw(st.integers(0, 3)) == 0:
        rep = FORMULA_FIXTURES[draw(names)]()[1]
    return [json.loads(serialize_formula(f)), json.loads(serialize_rep(rep))]


COMMANDS = {
    "solve-exact": (["solve", "--exact"], instance_docs().map(lambda d: [d])),
    "solve-relaxed": (["solve", "--exact", "--relaxed", "--mode", "sum"],
                      instance_docs().map(lambda d: [d])),
    "solve-collinear": (["solve", "--collinear"],
                        instance_docs().map(lambda d: [d])),
    "verify": (["verify"], instance_and_assignment()),
    "verify-relaxed": (["verify", "--relaxed", "--mode", "sum"],
                       instance_and_assignment()),
    "render": (["render"], instance_and_assignment()),
    "equalize": (["equalize"], instance_docs().map(lambda d: [d])),
    "reduce-sat": (["reduce", "sat"], formula_and_rep()),
}
WRITES_FILE = {"render", "equalize", "reduce-sat"}

# tokens an edit may insert: unknown, ambiguous or misplaced flags, flags
# without their value, and extra positionals; "{dir}" is the work
# directory, so that a token read as ``-o``'s value names a file there
INSERTED = ["--bogus", "-z", "--m", "--mode", "--mode=cube", "--max-n=-1",
            "--max-n", "--relaxed", "--exact", "--collinear", "--r=1",
            "-o", "-h", "--", "-", "{dir}/missing.json", "{dir}/extra\nline",
            "{dir}/doc0.json"]
edits = st.lists(st.one_of(
    st.tuples(st.sampled_from(["drop", "dup"]), st.integers(0, 15)),
    st.tuples(st.just("insert"), st.integers(0, 15),
              st.sampled_from(INSERTED))), max_size=2)


def edited(args, changes, workdir):
    """``args`` with each edit applied: drop or duplicate the token at a
    position, or insert a token there (positions wrap around)."""
    args = list(args)
    for op, at, *token in changes:
        if op == "insert":
            args.insert(at % (len(args) + 1),
                        token[0].replace("{dir}", str(workdir)))
        elif args:
            at %= len(args)
            if op == "drop":
                del args[at]
            else:
                args.insert(at, args[at])
    return args


@st.composite
def invocations(draw):
    name = draw(st.sampled_from(sorted(COMMANDS)))
    argv, valid = COMMANDS[name]
    if name == "equalize":
        argv = argv + ["--r=" + draw(st.sampled_from(TRICKY + RADII))]
    docs = [draw(corrupted(doc)) for doc in draw(valid)]
    return name, argv, docs, draw(edits) if draw(st.booleans()) else []


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_input_exits_cleanly(workdir, invocation):
    name, argv, docs, changes = invocation
    paths = []
    for k, doc in enumerate(docs):
        path = workdir / f"doc{k}.json"
        path.write_bytes(doc)
        paths.append(str(path))
    out = ["-o", str(workdir / "out")] if name in WRITES_FILE else []
    args = edited(argv + paths + out, changes, workdir)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = run(args)
    assert code in (0, 1, 2)
    if code == 1:
        err = stderr.getvalue()
        assert err.startswith("error: ") and err.count("\n") == 1, err
