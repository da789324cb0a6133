"""Bit-exact serialization: CSV tables, JSON, and dependency-free SVG plots.

Floats are printed with 17 significant digits so every value round-trips
exactly; CSV uses comma separators, '.' decimals, a header row, and LF line
endings.  SVG output embeds no timestamps and is generated directly
(polyline traces, run-length-merged rectangle rasters), so repeated runs of
the same configuration produce byte-identical files.  Files are written
atomically (temp file in the target directory, then rename).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .classify import ThresholdResult
from .solver import TimeSeries

__all__ = [
    "fmt",
    "atomic_write",
    "json_text",
    "write_json",
    "timeseries_csv",
    "snapshots_csv",
    "threshold_csv",
    "sweep_csv",
    "svg_front_plot",
    "svg_heatmap",
]


def fmt(x: float) -> str:
    return "%.17g" % float(x)


def atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_json(path: str | Path, payload: dict) -> None:
    atomic_write(path, json_text(payload))


def timeseries_csv(series: TimeSeries) -> str:
    # one % per row; % formats a NumPy float from its double, as fmt does
    row = "%.17g,%.17g,%.17g,%.17g,%.17g"
    columns = zip(series.t, series.g, series.h, series.sup_u, series.sup_v)
    return "\n".join(["t,g,h,sup_u,sup_v", *map(row.__mod__, columns)]) + "\n"


def snapshots_csv(series: TimeSeries) -> str:
    lines = ["t,x,u,v"]
    for snap in series.snapshots:
        row = fmt(snap.t) + ",%.17g,%.17g,%.17g"
        lines.extend(map(row.__mod__, zip(snap.x, snap.u, snap.v)))
    return "\n".join(lines) + "\n"


def threshold_csv(result: ThresholdResult) -> str:
    """Each probe with the bracket it was made in, then the final bracket and its midpoint."""
    lines = ["step,lo,hi,probe,verdict"]
    for i, ((probe, verdict), (lo, hi)) in enumerate(zip(result.history, result.brackets)):
        lines.append("%d,%.17g,%.17g,%.17g,%s" % (i, lo, hi, probe, verdict))
    lines.append("result,%.17g,%.17g,%.17g," % (*result.bracket, result.value))
    return "\n".join(lines) + "\n"


def sweep_csv(rows) -> str:
    row = "%.17g,%.17g,%.17g,%s,%.17g,%.17g"
    header = "value,lambda_infinity,lambda_h0,verdict,final_h,final_sup_u"
    return "\n".join([header, *map(row.__mod__, rows)]) + "\n"


# ---------------------------------------------------------------------------
# SVG

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 64, 16, 24, 44
HEATMAP_COLUMNS = 256


def _px(x: float) -> str:
    return "%.2f" % x


def _axis_map(vals_min: float, vals_max: float, lo_px: float, hi_px: float):
    span = vals_max - vals_min
    if span == 0.0:
        span = 1.0
    scale = (hi_px - lo_px) / span
    return lambda v: lo_px + (v - vals_min) * scale


def _frame(title: str) -> list[str]:
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_ML}" y="16" font-family="monospace" font-size="12">{title}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" height="{_H - _MT - _MB}" '
        'fill="none" stroke="black" stroke-width="1"/>',
    ]


def _polyline(xs, ys, color: str) -> str:
    pts = " ".join(f"{_px(x)},{_px(y)}" for x, y in zip(xs, ys))
    return f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'


def _tick_labels(tmin, tmax, ymin, ymax) -> list[str]:
    end = ' text-anchor="end"'
    ticks = [
        (_ML, _H - _MB + 16, "", tmin),
        (_W - _MR, _H - _MB + 16, end, tmax),
        (_ML - 6, _H - _MB, end, ymin),
        (_ML - 6, _MT + 10, end, ymax),
    ]
    return [
        f'<text x="{x}" y="{y}"{anchor} font-family="monospace" font-size="10">{value:.6g}</text>'
        for x, y, anchor, value in ticks
    ]


def svg_front_plot(series: TimeSeries, title: str = "front traces g(t), h(t)") -> str:
    stride = max(1, series.t.size // 2000)
    t = series.t[::stride]
    g = series.g[::stride]
    h = series.h[::stride]
    ymin, ymax = float(np.min(g)), float(np.max(h))
    fx = _axis_map(float(t[0]), float(t[-1]), _ML, _W - _MR)
    fy = _axis_map(ymin, ymax, _H - _MB, _MT)  # inverted: larger values up
    parts = _frame(title)
    parts.append(_polyline([fx(v) for v in t], [fy(v) for v in h], "#b02020"))
    parts.append(_polyline([fx(v) for v in t], [fy(v) for v in g], "#2040b0"))
    parts.extend(_tick_labels(float(t[0]), float(t[-1]), ymin, ymax))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _colormap() -> list[str]:
    """Fixed 256-entry ramp, dark blue through teal to warm yellow."""
    anchors = [(13, 8, 64), (48, 62, 140), (38, 130, 142), (83, 197, 105), (253, 231, 37)]
    table = []
    segs = len(anchors) - 1
    for i in range(256):
        pos = i / 255.0 * segs
        j = min(int(pos), segs - 1)
        frac = pos - j
        rgb = tuple(
            round(anchors[j][k] + frac * (anchors[j + 1][k] - anchors[j][k])) for k in range(3)
        )
        table.append("#%02x%02x%02x" % rgb)
    return table


_CMAP = _colormap()


def svg_heatmap(series: TimeSeries, title: str | None = None) -> str:
    """Raster of the density u over (t, x) built from the stored snapshots.

    Each snapshot becomes one row of HEATMAP_COLUMNS pixels; profiles are
    resampled onto a fixed x range covering the full front excursion, with
    zero outside the moving interval.  Adjacent same-color cells are merged
    into one rectangle.
    """
    snaps = series.snapshots
    if not snaps:
        raise ValueError("heatmap needs at least one snapshot")
    xmin = min(float(s.x[0]) for s in snaps)
    xmax = max(float(s.x[-1]) for s in snaps)
    xs = np.linspace(xmin, xmax, HEATMAP_COLUMNS)
    rows = []
    vmax = 0.0
    for s in snaps:
        resampled = np.interp(xs, s.x, s.u, left=0.0, right=0.0)
        # outside the current interval the density is identically zero
        resampled[(xs < s.x[0]) | (xs > s.x[-1])] = 0.0
        vmax = max(vmax, float(np.max(resampled)))
        rows.append(resampled)
    vmax = vmax or 1.0

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB
    cell_w = plot_w / HEATMAP_COLUMNS
    cell_h = plot_h / len(rows)
    parts = _frame(title or "u(t, x)")
    for i, row in enumerate(rows):
        # time increases upward from the bottom edge
        y = _MT + plot_h - (i + 1) * cell_h
        idx = np.minimum((row / vmax * 255.0).astype(int), 255)
        starts = np.flatnonzero(np.diff(idx, prepend=-1)).tolist()  # the runs of one color
        for j, k in zip(starts, starts[1:] + [HEATMAP_COLUMNS]):
            parts.append(
                f'<rect x="{_px(_ML + j * cell_w)}" y="{_px(y)}" '
                f'width="{_px((k - j) * cell_w)}" height="{_px(cell_h)}" '
                f'fill="{_CMAP[idx[j]]}"/>'
            )
    parts.extend(
        _tick_labels(xmin, xmax, float(snaps[0].t), float(snaps[-1].t))
    )
    parts.append(
        f'<text x="{_W - _MR}" y="16" text-anchor="end" font-family="monospace" '
        f'font-size="10">max u = {vmax:.6g}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
