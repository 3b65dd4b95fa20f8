"""Tabular experiment reports and their CSV / JSON / SVG renderings.

CSV is the canonical format: metadata rides in leading ``#`` comment lines,
floats carry 17 significant digits so byte-level determinism is checkable,
and the generation timestamp is isolated in the single ``# generated:``
line.  Every format is rendered whole and then written by ``_write``, which
rewrites an existing report in place rather than truncating it first.  The
SVG writer is a small hand-rolled polyline plotter (one y column against
one x column, linear or log axes, one polyline per group of rows) so plots
stay deterministic and dependency-free.
"""

from __future__ import annotations

import json
import math
import os
import stat
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone

__all__ = [
    "ExperimentReport",
    "PlotSpec",
    "UnknownColumnError",
    "emit_csv",
    "emit_json",
    "emit_svg",
]


class UnknownColumnError(ValueError):
    """Plot specification names a column the report does not have."""


@dataclass
class ExperimentReport:
    """Rectangular named-column rows plus config echo metadata."""

    experiment: str
    columns: tuple[str, ...]
    rows: list[tuple]
    config_lines: tuple[str, ...]
    tool_version: str
    generated: str = field(
        default_factory=lambda: datetime.now(timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ")
    )

    def __post_init__(self) -> None:
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("column names must be unique")
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("rows must match the column count")


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write(path, text: str) -> None:
    """Write ``text`` to ``path`` as ``open(path, "w")`` would, but over the
    old bytes, then cut the file at the end of ``text``.

    Truncating a file that holds data first costs several times more than
    writing over it on some file systems (ext4 mounted with ``discard``).
    The final bytes, encoding, symlink-following and the mode of a new file
    (0o666 & ~umask) are those of ``open(path, "w")``; an existing file
    keeps its mode, owner and hard links.  Neither form is atomic or
    fsyncs, and a failed write can leave old bytes past the new ones.
    """
    with open(path, "w", opener=lambda name, flags:
              os.open(name, flags & ~os.O_TRUNC, 0o666)) as handle:
        handle.write(text)
        # a pipe or a device, such as /dev/null behind a symlink, has no
        # length to cut
        if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
            handle.truncate()


def emit_csv(report: ExperimentReport, path) -> None:
    """Write the report as CSV with a commented metadata header."""
    lines = [f"# experiment: {report.experiment}",
             f"# tool_version: {report.tool_version}"]
    lines.extend(f"# config: {line}" for line in report.config_lines)
    lines.append(f"# generated: {report.generated}")
    lines.append(",".join(report.columns))
    lines += [",".join(map(_format_cell, row)) for row in report.rows]
    _write(path, "\n".join(lines) + "\n")


def emit_json(report: ExperimentReport, path) -> None:
    """Write the report as JSON mirroring rows and metadata."""
    payload = {
        "experiment": report.experiment,
        "tool_version": report.tool_version,
        "config": list(report.config_lines),
        "generated": report.generated,
        "columns": list(report.columns),
        "rows": [list(row) for row in report.rows],
    }
    _write(path, json.dumps(payload, indent=2) + "\n")


@dataclass(frozen=True)
class PlotSpec:
    """Draw column ``y`` against ``x``: one polyline per ``group_by`` value."""

    x: str
    y: str
    logx: bool = False
    logy: bool = False
    group_by: tuple[str, ...] = ()


_SVG_W, _SVG_H = 640, 480
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 30, 40, 50
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#17becf", "#7f7f7f")


def _usable(value, log: bool) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and (value > 0.0 or not log))


def _series(report: ExperimentReport, spec: PlotSpec) -> list:
    for name in (spec.x, spec.y, *spec.group_by):
        if name not in report.columns:
            raise UnknownColumnError(f"no column named {name!r}")
    xi, yi = report.columns.index(spec.x), report.columns.index(spec.y)
    gidx = [report.columns.index(g) for g in spec.group_by]
    groups: dict[tuple, list[tuple[float, float]]] = {} if gidx else {(): []}
    for row in report.rows:
        pts = groups.setdefault(tuple(row[i] for i in gidx), [])
        if _usable(row[xi], spec.logx) and _usable(row[yi], spec.logy):
            pts.append((float(row[xi]), float(row[yi])))
    return [(" ".join(str(part) for part in key) if gidx else spec.y, pts)
            for key, pts in groups.items()]


def _axis(values: list[float], log: bool, p0: float, span: float):
    """Padded (lo, hi) of values and the map lo -> p0, hi -> p0 + span."""
    lo, hi = (min(values), max(values)) if values else (1.0, 1.0)
    if log:
        lo, hi = (lo / 10.0, hi * 10.0) if lo == hi else (lo / 1.2, hi * 1.2)
    else:
        pad = (abs(lo) * 0.1 or 1.0) if lo == hi else (hi - lo) * 0.05
        # at least a few ulps, so that _ticks steps by more than half an ulp
        pad = max(pad, 8 * math.ulp(max(abs(lo), abs(hi))))
        lo, hi = lo - pad, hi + pad
    # the padded ends stay finite, and positive on a log axis
    lo = max(lo, math.ulp(0.0) if log else -sys.float_info.max)
    hi = min(hi, sys.float_info.max)
    g = math.log10 if log else float
    # halving keeps g(hi) - g(lo) finite and, for normal doubles, is exact
    g_lo, width = g(lo) / 2, g(hi) / 2 - g(lo) / 2
    return lo, hi, lambda v: p0 + (g(v) / 2 - g_lo) / width * span


def _ticks(lo: float, hi: float, log: bool) -> list[float]:
    if log:
        lo_e, hi_e = math.floor(math.log10(lo)), math.ceil(math.log10(hi))
        step = max(1, (hi_e - lo_e) // 5)
        # 10**e is 0 below e = -323 and overflows above e = 308
        return [10.0**e for e in range(lo_e, hi_e + 1, step)
                if -323 <= e <= 308]
    raw = (hi / 2 - lo / 2) / 2.5  # (hi - lo) / 5 without overflow
    mag = max(10.0 ** math.floor(math.log10(raw)), math.ulp(0.0))
    step = min(s * mag for s in (1, 2, 5, 10) if s * mag >= raw)
    out = []
    t = math.ceil(lo / step) * step
    # a finite end, so that a t that overflows ends the loop
    end = min(hi + 1e-12 * step, sys.float_info.max)
    while t <= end:
        out.append(t)
        t += step
    return out


def _line(x1, y1, x2, y2, stroke: str = 'stroke="black"') -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" {stroke}/>'


def _text(x, y, size: int, body: str, anchor: str = "middle",
          transform: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{transform}>{body}</text>')


def emit_svg(report: ExperimentReport, spec: PlotSpec, path) -> None:
    """Write a polyline plot of the named columns."""
    series = _series(report, spec)
    points = [pt for _, pts in series for pt in pts]
    x_axis_y = _SVG_H - _MARGIN_B
    x_lo, x_hi, x_px = _axis([p[0] for p in points], spec.logx, _MARGIN_L,
                             _SVG_W - _MARGIN_L - _MARGIN_R)
    y_lo, y_hi, y_px = _axis([p[1] for p in points], spec.logy, x_axis_y,
                             -(_SVG_H - _MARGIN_T - _MARGIN_B))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        _text(f"{_SVG_W / 2:.1f}", 24, 16, report.experiment),
        # axes
        _line(_MARGIN_L, x_axis_y, _SVG_W - _MARGIN_R, x_axis_y),
        _line(_MARGIN_L, _MARGIN_T, _MARGIN_L, x_axis_y),
    ]
    for t in _ticks(x_lo, x_hi, spec.logx):
        px = f"{x_px(t):.1f}"
        parts += [_line(px, x_axis_y, px, x_axis_y + 5),
                  _text(px, x_axis_y + 18, 11, f"{t:.4g}")]
    for t in _ticks(y_lo, y_hi, spec.logy):
        py = y_px(t)
        parts += [_line(_MARGIN_L - 5, f"{py:.1f}", _MARGIN_L, f"{py:.1f}"),
                  _text(_MARGIN_L - 8, f"{py + 4:.1f}", 11, f"{t:.4g}",
                        "end")]
    # axis labels
    mid_y = f"{(_MARGIN_T + x_axis_y) / 2:.1f}"
    parts += [_text(f"{(_MARGIN_L + _SVG_W - _MARGIN_R) / 2:.1f}",
                    _SVG_H - 12, 13,
                    f'{spec.x}{" (log)" if spec.logx else ""}'),
              _text(16, mid_y, 13, f'{spec.y}{" (log)" if spec.logy else ""}',
                    transform=f"rotate(-90 16 {mid_y})")]
    # polylines + legend
    for i, (label, pts) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        if pts:
            coords = " ".join(f"{x_px(x):.2f},{y_px(y):.2f}" for x, y in pts)
            parts.append(f'<polyline points="{coords}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        legend_y = _MARGIN_T + 14 * i + 4
        parts += [_line(_SVG_W - _MARGIN_R - 130, legend_y,
                        _SVG_W - _MARGIN_R - 110, legend_y,
                        f'stroke="{color}" stroke-width="2"'),
                  _text(_SVG_W - _MARGIN_R - 105, legend_y + 4, 11, label,
                        anchor="")]
    parts.append("</svg>")
    _write(path, "\n".join(parts) + "\n")
