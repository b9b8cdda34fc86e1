"""Report and sweep emission: JSON, flat CSV, and hand-rolled SVG plots."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .evaluate import METRICS, MetricsReport, SweepResult


def emit_report(report: MetricsReport, out_dir) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jpath = out_dir / "report.json"
    jpath.write_text(json.dumps(asdict(report), sort_keys=True, indent=1))
    cpath = out_dir / "report.csv"
    with open(cpath, "w") as f:
        f.write("subject,metric,value\n")
        for sid in sorted(report.per_subject):
            for metric in sorted(report.per_subject[sid]):
                f.write(f"{sid},{metric},{report.per_subject[sid][metric]}\n")
        for metric in sorted(report.mean):
            f.write(f"mean,{metric},{report.mean[metric]}\n")
            f.write(f"sem,{metric},{report.sem[metric]}\n")
    return [jpath, cpath]


def emit_sweep(sweep: SweepResult, out_dir, name: str = "sweep") -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jpath = out_dir / f"{name}.json"
    jpath.write_text(json.dumps(asdict(sweep), sort_keys=True, indent=1))
    is_time = sweep.kind == "time"
    cpath = out_dir / f"{name}.csv"
    with open(cpath, "w") as f:
        f.write("delta,window_end,model,metric,value\n" if is_time else "duration_s,window_samples,metric,value\n")
        for p in sweep.points:
            for model, mean in _model_means(sweep, p).items():
                row = f"{p['delta']},{p['window_end']},{model}" if is_time else f"{p['duration_s']},{p['window_samples']}"
                for metric in METRICS:
                    f.write(f"{row},{metric},{mean[metric]}\n")
    spath = out_dir / f"{name}.svg"
    spath.write_text(_sweep_svg(sweep))
    return [jpath, cpath, spath]


def _model_means(sweep: SweepResult, point: dict) -> dict[str, dict[str, float]]:
    """Per-metric means at a sweep point by model; a duration sweep's one model counts as general."""
    if sweep.kind == "time":
        return {m: point[m]["mean"] for m in ("general", "specialized") if point[m] is not None}
    return {"general": point["mean"]}


# ---------------------------------------------------------------------------
# svg


_PANEL_W, _PANEL_H, _MARGIN = 240, 180, 40
_COLORS = {"general": "#3366cc", "specialized": "#dd8833"}


def _polyline(xs, ys, x0, y0, xmin, xmax, ymin, ymax, color) -> str:
    span_x = (xmax - xmin) or 1.0
    span_y = (ymax - ymin) or 1.0
    pts = []
    for x, y in zip(xs, ys):
        px = x0 + (x - xmin) / span_x * (_PANEL_W - 2 * _MARGIN)
        py = y0 + (_PANEL_H - 2 * _MARGIN) * (1.0 - (y - ymin) / span_y)
        pts.append(f"{px:.2f},{py:.2f}")
    return f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{" ".join(pts)}" />'


def _sweep_svg(sweep: SweepResult) -> str:
    if sweep.kind == "time":
        x_of = lambda p: p["window_end"]
        x_label = "window end (s)"
    else:
        x_of = lambda p: p["duration_s"]
        x_label = "duration (s)"
    xs = [x_of(p) for p in sweep.points]
    means = [_model_means(sweep, p) for p in sweep.points]
    xmin, xmax = min(xs), max(xs)
    width = len(METRICS) * _PANEL_W
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{_PANEL_H}" '
        f'viewBox="0 0 {width} {_PANEL_H}">'
    ]
    for i, metric in enumerate(METRICS):
        x0 = i * _PANEL_W + _MARGIN
        y0 = _MARGIN
        series = {}
        for model in ("general", "specialized"):
            pts = [(x, m[model][metric]) for x, m in zip(xs, means) if model in m]
            if pts:
                series[model] = pts
        ys = [y for pts in series.values() for _, y in pts]
        ymin, ymax = (min(ys), max(ys)) if ys else (0.0, 1.0)
        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{_PANEL_W - 2 * _MARGIN}" height="{_PANEL_H - 2 * _MARGIN}" '
            f'fill="none" stroke="#999" stroke-width="0.5" />'
        )
        if sweep.kind == "time" and xmin < 3.0:
            # stimulus-on interval [0, 3] s on the window-end axis
            sx0 = x0 + max(0.0, (0.0 - xmin)) / ((xmax - xmin) or 1) * (_PANEL_W - 2 * _MARGIN)
            sx1 = x0 + max(0.0, min(3.0, xmax) - xmin) / ((xmax - xmin) or 1) * (_PANEL_W - 2 * _MARGIN)
            if sx1 > sx0:
                parts.append(
                    f'<rect x="{sx0:.2f}" y="{y0}" width="{sx1 - sx0:.2f}" height="{_PANEL_H - 2 * _MARGIN}" '
                    f'fill="#cccccc" fill-opacity="0.4" stroke="none" />'
                )
        for model, pts in series.items():
            parts.append(
                _polyline([p[0] for p in pts], [p[1] for p in pts], x0, y0, xmin, xmax, ymin, ymax, _COLORS[model])
            )
        parts.append(
            f'<text x="{x0 + (_PANEL_W - 2 * _MARGIN) / 2:.1f}" y="{_PANEL_H - 8}" font-size="9" '
            f'text-anchor="middle">{metric} vs {x_label}</text>'
        )
        parts.append(f'<text x="{x0}" y="{y0 - 6}" font-size="8">{ymin:.3g}..{ymax:.3g}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
