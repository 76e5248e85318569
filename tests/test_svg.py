"""The SVG overlay parses, with one polyline per gap-free segment and one
circle per event."""

import xml.etree.ElementTree as ET

import numpy as np

from corrgeom import TimeSeries, TimeSeriesSet, detect_minima, sliding_measures
from corrgeom.svg import render_measures_svg
from corrgeom.testkit import (
    BENCHMARK_MIN_PROMINENCE,
    BENCHMARK_MIN_SEPARATION,
    BENCHMARK_WINDOW,
    coupling_benchmark,
    simulate,
)

SVG = "{http://www.w3.org/2000/svg}"


def test_svg_has_a_polyline_per_segment_and_a_circle_per_event():
    data = simulate(coupling_benchmark(0))
    values = data.series[1].values.copy()
    values[250:290] = values[250]  # 40 > K samples held: one gap run per measure
    series = list(data.series)
    series[1] = TimeSeries(series[1].id, 0, 1, values)
    measures = sliding_measures(TimeSeriesSet(tuple(series)), BENCHMARK_WINDOW)
    events = {
        s.kind: detect_minima(s, BENCHMARK_MIN_PROMINENCE[s.kind], BENCHMARK_MIN_SEPARATION)
        for s in measures
    }
    root = ET.fromstring(render_measures_svg(measures, events))
    assert root.tag == f"{SVG}svg"
    assert [len(s.segments()) for s in measures] == [2, 2]
    assert len(root.findall(f"{SVG}polyline")) == 4
    n_events = sum(len(ev) for ev in events.values())
    assert n_events > 0
    assert len(root.findall(f"{SVG}circle")) == n_events
    for line in root.findall(f"{SVG}polyline"):
        points = np.array([p.split(",") for p in line.get("points").split()], dtype=float)
        assert np.isfinite(points).all()
