"""JSON document format for instances and assignments.

Rationals are stored as strings ("3", "-1/2") so values survive round
trips exactly; floats are never produced or accepted.  Serialization is
canonical: keys sorted, rationals in lowest terms, fixed separators, so
equal objects always yield byte-identical text.
"""

from __future__ import annotations

import json
import re
from typing import Any, Optional

from .core import (Assignment, Disk, FormatError, Instance, Point,
                   format_rational, parse_rational)
from .formula import Clause, MonotoneFormula, Polarity, RectilinearRep

DOCUMENT_VERSION = 1

_INT_RE = re.compile(r"0|-?[1-9][0-9]*")


def _dump(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True) + "\n"


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object, rejecting a repeated key rather than keeping the last."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f"malformed document: duplicate key {key!r}")
        obj[key] = value
    return obj


def _load(text: str) -> Any:
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed document: {exc}") from exc
    except RecursionError:
        raise FormatError("malformed document: nested too deeply") from None


def _require(doc: Any, kind: str) -> dict:
    if not isinstance(doc, dict):
        raise FormatError(f"{kind} document must be an object")
    version = doc.get("version")
    if version != DOCUMENT_VERSION:
        raise FormatError(f"unsupported {kind} document version {version!r}")
    return doc


def parse_instance(text: str) -> Instance:
    """Parse an instance document; metadata, if any, is discarded."""
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


def instance_metadata(text: str) -> dict:
    """Return the metadata object of an instance document ({} if absent)."""
    doc = _require(_load(text), "instance")
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise FormatError("metadata must be an object")
    return meta


def serialize_instance(instance: Instance,
                       metadata: Optional[dict] = None) -> str:
    disks = [{"id": d.id,
              "x": format_rational(d.center.x),
              "y": format_rational(d.center.y),
              "r": format_rational(d.radius)}
             for d in instance.disks]
    doc: dict[str, Any] = {"version": DOCUMENT_VERSION, "disks": disks}
    if metadata:
        doc["metadata"] = metadata
    return _dump(doc)


def _parse_id(value: Any) -> Optional[int]:
    """An int, or the canonical decimal string of one; ``None`` for values
    such as ``1.9``, ``true``, ``" 1"`` or ``"01"`` that ``int()`` would
    coerce."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INT_RE.fullmatch(value):
        try:
            return int(value)
        except ValueError:  # more digits than int() converts
            pass
    return None


def parse_assignment(text: str) -> Assignment:
    doc = _require(_load(text), "assignment")
    raw = doc.get("target")
    if not isinstance(raw, dict):
        raise FormatError("assignment document needs a 'target' map")
    mapping: dict[int, int] = {}
    for key, val in raw.items():
        src, dst = _parse_id(key), _parse_id(val)
        if src is None or dst is None:
            raise FormatError(f"bad target entry {key!r}: {val!r}")
        mapping[src] = dst
    n = len(mapping)
    if sorted(mapping) != list(range(1, n + 1)):
        raise FormatError("assignment target must map ids 1..n")
    return Assignment(tuple(mapping[i] for i in range(1, n + 1)))


def serialize_assignment(assignment: Assignment) -> str:
    target = {str(i): str(t) for i, t in enumerate(assignment.target, start=1)}
    return _dump({"version": DOCUMENT_VERSION, "target": target})


def _int_list(raw: Any, what: str) -> list[int]:
    if not isinstance(raw, list) or \
            any(not isinstance(v, int) or isinstance(v, bool) for v in raw):
        raise FormatError(f"{what} must be a list of integers")
    return raw


def parse_formula(text: str) -> MonotoneFormula:
    doc = _require(_load(text), "formula")
    nvars = doc.get("variables")
    if not isinstance(nvars, int) or isinstance(nvars, bool):
        raise FormatError("formula document needs integer 'variables'")
    raw = doc.get("clauses")
    if not isinstance(raw, list):
        raise FormatError("formula document needs a 'clauses' list")
    clauses = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise FormatError("each clause must be an object")
        try:
            pol = Polarity(entry.get("polarity"))
        except ValueError:
            raise FormatError(
                f"bad clause polarity {entry.get('polarity')!r}") from None
        lits = _int_list(entry.get("literals"), "clause literals")
        clauses.append(Clause(pol, tuple(lits)))
    return MonotoneFormula(nvars, tuple(clauses))


def serialize_formula(formula: MonotoneFormula) -> str:
    clauses = [{"polarity": cl.polarity.value, "literals": list(cl.literals)}
               for cl in formula.clauses]
    return _dump({"version": DOCUMENT_VERSION,
                  "variables": formula.num_variables, "clauses": clauses})


def parse_rep(text: str) -> RectilinearRep:
    doc = _require(_load(text), "drawing")
    raw_segs = doc.get("segments")
    if not isinstance(raw_segs, list):
        raise FormatError("drawing document needs a 'segments' list")
    segs = []
    for entry in raw_segs:
        pair = _int_list(entry, "variable segment")
        if len(pair) != 2:
            raise FormatError("each variable segment needs [lo, hi]")
        segs.append((pair[0], pair[1]))
    rows = _int_list(doc.get("rows"), "clause rows")
    raw_legs = doc.get("legs")
    if not isinstance(raw_legs, list):
        raise FormatError("drawing document needs a 'legs' list")
    legs = tuple(tuple(_int_list(entry, "leg columns"))
                 for entry in raw_legs)
    return RectilinearRep(tuple(segs), tuple(rows), legs)


def serialize_rep(rep: RectilinearRep) -> str:
    return _dump({"version": DOCUMENT_VERSION,
                  "segments": [list(s) for s in rep.variable_segments],
                  "rows": list(rep.clause_rows),
                  "legs": [list(l) for l in rep.legs]})
