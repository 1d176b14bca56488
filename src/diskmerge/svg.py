"""Deterministic SVG rendering of disk configurations.

Coordinates are exact rationals until the final formatting step, where
they are printed with a fixed number of decimals, so identical inputs
always produce byte-identical output.  The y axis is flipped so that
positive y points up.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (Assignment, DisjointnessMode, FormatError, Instance,
                   _merge_groups, verify_uproper)

_MARGIN = Fraction(1)
_DECIMALS = 4


@dataclass(frozen=True)
class RenderOptions:
    scale: Fraction = Fraction(40)
    labels: bool = True
    mode: DisjointnessMode = DisjointnessMode.MAX


def _fmt(value: Fraction) -> str:
    # round the exact rational and print from integers; no float ever
    rounded = round(value * 10 ** _DECIMALS)
    sign = "-" if rounded < 0 else ""
    rounded = abs(rounded)
    whole, frac = divmod(rounded, 10 ** _DECIMALS)
    return f"{sign}{whole}.{frac:0{_DECIMALS}d}"


def render_svg(instance: Instance,
               assignment: Optional[Assignment] = None,
               options: Optional[RenderOptions] = None) -> str:
    """Render the instance (and optionally a verified assignment) as SVG."""
    opts = options or RenderOptions()
    aggs: dict[int, Fraction] = {}  # selected disk -> aggregate radius
    if assignment is not None:
        report = verify_uproper(instance, assignment, opts.mode)
        if not report.ok:
            raise FormatError(
                f"assignment fails verification: {report.violations[0]}")
        aggs = {i: Fraction(a, instance._scale) for i, (_, a)
                in _merge_groups(instance, assignment).items()}

    s = opts.scale
    if instance.n == 0:
        width = height = 2 * _MARGIN * s
        min_x = min_y = -_MARGIN
        max_y = _MARGIN
    else:
        min_x = min(d.center.x - d.radius for d in instance.disks) - _MARGIN
        max_x = max(d.center.x + d.radius for d in instance.disks) + _MARGIN
        min_y = min(d.center.y - d.radius for d in instance.disks) - _MARGIN
        max_y = max(d.center.y + d.radius for d in instance.disks) + _MARGIN
        for i, agg in aggs.items():
            c = instance.center(i)
            min_x = min(min_x, c.x - agg - _MARGIN)
            max_x = max(max_x, c.x + agg + _MARGIN)
            min_y = min(min_y, c.y - agg - _MARGIN)
            max_y = max(max_y, c.y + agg + _MARGIN)
        width = (max_x - min_x) * s
        height = (max_y - min_y) * s

    def px(x: Fraction) -> str:
        return _fmt((x - min_x) * s)

    def py(y: Fraction) -> str:
        return _fmt((max_y - y) * s)  # flip: positive y is up

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}">',
    ]

    # merge segments below circles so they do not obscure outlines
    if assignment is not None:
        for i in range(1, instance.n + 1):
            t = assignment(i)
            if t == i:
                continue
            a, b = instance.center(i), instance.center(t)
            lines.append(
                f'<line x1="{px(a.x)}" y1="{py(a.y)}" '
                f'x2="{px(b.x)}" y2="{py(b.y)}" '
                f'stroke="#888888" stroke-width="1" '
                f'stroke-dasharray="4 3"/>')

    for d in instance.disks:
        selected = assignment is not None and assignment(d.id) == d.id
        stroke = "#000000" if assignment is None or selected else "#999999"
        lines.append(
            f'<circle cx="{px(d.center.x)}" cy="{py(d.center.y)}" '
            f'r="{_fmt(d.radius * s)}" fill="none" '
            f'stroke="{stroke}" stroke-width="1.5"/>')

    for i, agg in aggs.items():
        if agg == instance.radius(i):
            continue  # nothing merged in; base circle already drawn
        c = instance.center(i)
        lines.append(
            f'<circle cx="{px(c.x)}" cy="{py(c.y)}" '
            f'r="{_fmt(agg * s)}" fill="none" '
            f'stroke="#cc0000" stroke-width="1" '
            f'stroke-dasharray="6 4"/>')

    if opts.labels:
        for d in instance.disks:
            lines.append(
                f'<text x="{px(d.center.x)}" y="{py(d.center.y)}" '
                f'font-size="10" text-anchor="middle" '
                f'dominant-baseline="middle">{d.id}</text>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
