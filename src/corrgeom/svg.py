"""Minimal SVG rendering for measure series and detected events.

Dependency-free on purpose: results only need to be displayed, not explored.
Each measure series is min-max normalized onto a shared canvas (the measures
carry different units), polylines break at gaps, and events are marked with
circles at their timestamps and values.
"""

from __future__ import annotations

from .events import EventList, MeasureSeries

PALETTE = ("#c0392b", "#2471a3", "#1e8449", "#8e44ad")

WIDTH = 960
HEIGHT = 340
MARGIN = 48


def _scale_x(t: float, t0: float, t1: float) -> float:
    span = (t1 - t0) or 1.0
    return MARGIN + (t - t0) / span * (WIDTH - 2 * MARGIN)


def _scale_y(v: float, lo: float, hi: float) -> float:
    span = (hi - lo) or 1.0
    return HEIGHT - MARGIN - (v - lo) / span * (HEIGHT - 2 * MARGIN)


def render_measures_svg(
    series: list[MeasureSeries],
    events: dict[str, EventList] | None = None,
) -> str:
    """SVG document: one normalized polyline per series, markers per event."""
    if not series:
        raise ValueError("nothing to render")
    events = events or {}
    t0 = min(float(s.timestamps[0]) for s in series)
    t1 = max(float(s.timestamps[-1]) for s in series)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
        f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#888"/>',
    ]
    n_ticks = 6
    for i in range(n_ticks):
        t = t0 + (t1 - t0) * i / (n_ticks - 1)
        x = _scale_x(t, t0, t1)
        parts.append(
            f'<text x="{x:.1f}" y="{HEIGHT - MARGIN + 16}" font-size="11" '
            f'text-anchor="middle" fill="#444">{t:.0f}</text>'
        )
    for idx, s in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        valid = s.values[~s.gaps]
        lo = float(valid.min()) if valid.size else 0.0
        hi = float(valid.max()) if valid.size else 1.0
        for seg_lo, seg_hi in s.segments():
            pts = " ".join(
                f"{_scale_x(float(s.timestamps[i]), t0, t1):.2f},"
                f"{_scale_y(float(s.values[i]), lo, hi):.2f}"
                for i in range(seg_lo, seg_hi)
            )
            parts.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.2"/>'
            )
        parts.append(
            f'<text x="{MARGIN + 6}" y="{MARGIN - 8 + 14 * idx}" font-size="12" '
            f'fill="{color}">{s.kind} (normalized)</text>'
        )
        ev = events.get(s.kind)
        if ev is not None:
            for e in ev.events:
                x = _scale_x(float(e.timestamp), t0, t1)
                y = _scale_y(e.value, lo, hi)
                parts.append(
                    f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="none" '
                    f'stroke="{color}" stroke-width="1.5"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
