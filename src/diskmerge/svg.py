"""Deterministic SVG rendering of disk configurations.

Coordinates stay exact: every printed number is a rational built from the
instance's scaled ints (see :class:`~diskmerge.core.Instance`) and the
render scale, and it is printed with a fixed number of decimals by integer
arithmetic alone, so identical inputs always produce byte-identical
output.  The y axis is flipped so that positive y points up.
"""

from __future__ import annotations

from typing import Optional

from .core import (Assignment, DisjointnessMode, FormatError, Instance,
                   _verify)

_DECIMALS = 4
_UNIT = 10 ** _DECIMALS
_SCALE = 40  # pixels per unit length


def _fmt(num: int, den: int) -> str:
    """``num / den`` (``den > 0``) with ``_DECIMALS`` decimals, rounded
    half to even as ``round`` rounds a Fraction; no float ever."""
    q, rem = divmod(num * _UNIT, den)
    if 2 * rem > den or 2 * rem == den and q % 2:
        q += 1
    sign = "-" if q < 0 else ""
    whole, frac = divmod(abs(q), _UNIT)
    return f"{sign}{whole}.{frac:0{_DECIMALS}d}"


def render_svg(instance: Instance,
               assignment: Optional[Assignment] = None,
               mode: DisjointnessMode = DisjointnessMode.MAX) -> str:
    """Render the instance (and optionally an assignment, verified under
    the relaxed rule in ``mode``) as SVG, with every disk labelled by its
    id."""
    aggs: dict[int, int] = {}  # selected disk -> aggregate radius (1/L)
    if assignment is not None:
        report, groups = _verify(instance, assignment, mode, False)
        if not report.ok:
            raise FormatError(
                f"assignment fails verification: {report.violations[0]}")
        aggs = {i: a for i, (_, a) in groups.items()}

    # lengths in units of 1/L, printed as length * _SCALE / L; the
    # margin is 1
    L = margin = instance._scale
    xs, ys, rs = instance._x, instance._y, instance._r
    ids = range(1, instance.n + 1)
    if instance.n == 0:
        min_x = min_y = -margin
        max_x = max_y = margin
    else:
        spans = [(i, rs[i]) for i in ids] + list(aggs.items())
        min_x = min(xs[i] - r for i, r in spans) - margin
        max_x = max(xs[i] + r for i, r in spans) + margin
        min_y = min(ys[i] - r for i, r in spans) - margin
        max_y = max(ys[i] + r for i, r in spans) + margin

    text: dict[int, str] = {}  # each distinct scaled length formatted once

    def length(v: int) -> str:
        out = text.get(v)
        if out is None:
            out = text[v] = _fmt(v * _SCALE, L)
        return out

    # each centre is looked up once, for its line ends, circles and
    # label; index 0 is unused
    px = [""] + [length(xs[i] - min_x) for i in ids]
    py = [""] + [length(max_y - ys[i]) for i in ids]  # flip: +y is up

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{length(max_x - min_x)}" height="{length(max_y - min_y)}">',
    ]

    # merge segments below circles so they do not obscure outlines
    if assignment is not None:
        for i in ids:
            t = assignment(i)
            if t == i:
                continue
            lines.append(
                f'<line x1="{px[i]}" y1="{py[i]}" '
                f'x2="{px[t]}" y2="{py[t]}" '
                f'stroke="#888888" stroke-width="1" '
                f'stroke-dasharray="4 3"/>')

    for i in ids:
        selected = assignment is not None and assignment(i) == i
        stroke = "#000000" if assignment is None or selected else "#999999"
        lines.append(
            f'<circle cx="{px[i]}" cy="{py[i]}" '
            f'r="{length(rs[i])}" fill="none" '
            f'stroke="{stroke}" stroke-width="1.5"/>')

    for i, agg in aggs.items():
        if agg == rs[i]:
            continue  # nothing merged in; base circle already drawn
        lines.append(
            f'<circle cx="{px[i]}" cy="{py[i]}" '
            f'r="{length(agg)}" fill="none" '
            f'stroke="#cc0000" stroke-width="1" '
            f'stroke-dasharray="6 4"/>')

    for i in ids:
        lines.append(
            f'<text x="{px[i]}" y="{py[i]}" '
            f'font-size="10" text-anchor="middle" '
            f'dominant-baseline="middle">{i}</text>')

    lines += ["</svg>", ""]  # the empty line ends the text with "\n"
    return "\n".join(lines)
