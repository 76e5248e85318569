"""Independent recomputation of corrgeom's outputs, and the checks that use it.

The oracle route shares no code with the program's window pipeline.
Correlations come from ``np.corrcoef`` on the raw window, not from centred
unit vectors. Distances are ``arccos|rho|`` (``arccos rho`` for the spherical
kind). The diameter is a max over the upper triangle. The largest triangle is
the scalar ``spherical_triangle_area`` over every triple. A window gaps when
any of its rows is constant. Events are ``detect_minima`` run on the oracle
series.

Gap flags and timestamps must agree exactly. Values must agree within
``TOL``; a prominence is a difference of two values, so it gets ``2 * TOL``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass

import numpy as np

from corrgeom.events import MeasureSeries, compare_event_sets, detect_minima
from corrgeom.measures import spherical_triangle_area

TOL = 1e-12
DIAMETER = "diameter"
MAX_TRIANGLE = "max_triangle_area"


@dataclass(frozen=True)
class OracleSeries:
    """Measure values of every window of one input, by the oracle route."""

    ticks: np.ndarray
    gaps: np.ndarray
    values: dict[str, np.ndarray]

    def series(self, kind: str, window: int) -> MeasureSeries:
        return MeasureSeries(kind, window, 1, self.ticks, self.values[kind], self.gaps)


def _window_rhos(matrix: np.ndarray, window: int):
    """Yield (index, rho) per window; rho is None when a row is constant."""
    for m in range(matrix.shape[1] - window + 1):
        seg = matrix[:, m : m + window]
        if np.any(seg.max(axis=1) == seg.min(axis=1)):
            yield m, None
        else:
            yield m, np.clip(np.corrcoef(seg), -1.0, 1.0)


def measures(data, window: int, kinds) -> OracleSeries:
    """Oracle diameter and max-triangle series for a TimeSeriesSet."""
    matrix = data.matrix()
    n, length = matrix.shape
    count = length - window + 1
    gaps = np.zeros(count, dtype=bool)
    values = {kind: np.zeros(count) for kind in kinds}
    upper = np.triu_indices(n, 1)
    triples = list(itertools.combinations(range(n), 3))
    for m, rho in _window_rhos(matrix, window):
        if rho is None:
            gaps[m] = True
            continue
        dist = np.arccos(np.abs(rho))
        if DIAMETER in kinds:
            values[DIAMETER][m] = dist[upper].max()
        if MAX_TRIANGLE in kinds:
            d = dist.tolist()
            values[MAX_TRIANGLE][m] = max(
                spherical_triangle_area(d[i][j], d[i][k], d[j][k]) for i, j, k in triples
            )
    ticks = np.array([data.tick(m) for m in range(count)], dtype=int)
    return OracleSeries(ticks, gaps, values)


def _margins(dist: np.ndarray) -> np.ndarray:
    """d(i,j) + d(j,k) - d(i,k) over ordered triples of distinct points."""
    n = dist.shape[0]
    margins = dist[:, :, None] + dist[None, :, :] - dist[:, None, :]
    idx = np.arange(n)
    same = (
        (idx[:, None, None] == idx[None, :, None])
        | (idx[None, :, None] == idx[None, None, :])
        | (idx[:, None, None] == idx[None, None, :])
    )
    return np.where(same, np.inf, margins)


def _distances(rho: np.ndarray, kind: str) -> np.ndarray:
    dist = np.arccos(rho) if kind == "spherical" else np.arccos(np.abs(rho))
    np.fill_diagonal(dist, 0.0)
    return dist


@dataclass(frozen=True)
class OracleValidation:
    """What ``corrgeom validate`` must report for one input."""

    windows: int
    checked: int
    worst_margin: float
    rhos: dict[int, np.ndarray]  # window tick -> correlation matrix

    def margin_at(self, tick: int, kind: str, triple: tuple[int, int, int]) -> float:
        margins = _margins(_distances(self.rhos[tick], kind))
        return float(min(margins[p] for p in itertools.permutations(triple)))


def validation(data, window: int) -> OracleValidation:
    matrix = data.matrix()
    rhos = {}
    worst = math.inf
    for m, rho in _window_rhos(matrix, window):
        if rho is None:
            continue
        rhos[data.tick(m)] = rho
        for kind in ("spherical", "projective"):
            worst = min(worst, float(_margins(_distances(rho, kind)).min()))
    return OracleValidation(matrix.shape[1] - window + 1, 2 * len(rhos), worst, rhos)


# ---------------------------------------------------------------------------
# Checks of one call's outputs. Each returns a list of problems; empty is good.
# ---------------------------------------------------------------------------


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol


def _json(files: dict[str, bytes], name: str):
    if name not in files:
        raise KeyError(f"missing output {name}")
    return json.loads(files[name])


def check_manifest(files, input_bytes: bytes, data, window: int) -> list[str]:
    manifest = _json(files, "manifest.json")
    want = {
        "input_sha256": hashlib.sha256(input_bytes).hexdigest(),
        "series_ids": list(data.ids),
        "series_length": data.length,
        "n_windows": data.length - window + 1,
    }
    return [
        f"manifest {key}={manifest.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if manifest.get(key) != value
    ]


def _compare_events(got: dict, want: dict) -> list[str]:
    kind = want["measure_kind"]
    problems = [
        f"events_{kind}: {key}={got.get(key)!r}, expected {want[key]!r}"
        for key in ("measure_kind", "window", "stride", "min_prominence", "min_separation")
        if got.get(key) != want[key]
    ]
    got_ts = [e["timestamp"] for e in got.get("events", [])]
    want_ts = [e["timestamp"] for e in want["events"]]
    if got_ts != want_ts:
        return problems + [f"events_{kind}: timestamps {got_ts} != oracle {want_ts}"]
    for g, w in zip(got["events"], want["events"]):
        if (g["left_base"], g["right_base"]) != (w["left_base"], w["right_base"]):
            problems.append(f"events_{kind}@{w['timestamp']}: bases differ from oracle")
        if not _close(g["value"], w["value"]):
            problems.append(
                f"events_{kind}@{w['timestamp']}: value {g['value']!r} vs oracle {w['value']!r}"
            )
        if not _close(g["prominence"], w["prominence"], 2 * TOL):
            problems.append(
                f"events_{kind}@{w['timestamp']}: prominence {g['prominence']!r} "
                f"vs oracle {w['prominence']!r}"
            )
    return problems


def check_events(files, oracle: OracleSeries, kinds, window, prominence, separation,
                 svg: bool) -> list[str]:
    """Outputs of ``corrgeom events``: one events file per kind, the pairwise
    comparison, and the overlay SVG when it was asked for."""
    problems = []
    want = {}
    for kind in kinds:
        want[kind] = detect_minima(oracle.series(kind, window), prominence, separation)
        problems += _compare_events(_json(files, f"events_{kind}.json"), want[kind].to_dict())
    comparisons = [
        compare_event_sets(want[a], want[b], window).to_dict()
        for a, b in itertools.combinations(kinds, 2)
    ]
    if _json(files, "comparison.json") != {"comparisons": comparisons}:
        problems.append("comparison.json differs from the oracle's event matching")
    if svg:
        problems += _check_svg(files, oracle, kinds, want)
    return problems


def _check_svg(files, oracle: OracleSeries, kinds, want) -> list[str]:
    if "overlay.svg" not in files:
        return ["missing output overlay.svg"]
    try:
        root = ET.fromstring(files["overlay.svg"])
    except ET.ParseError as exc:
        return [f"overlay.svg is not well-formed: {exc}"]
    ns = "{http://www.w3.org/2000/svg}"
    valid = ~oracle.gaps
    segments = int(valid[0]) + int(np.count_nonzero(valid[1:] & ~valid[:-1]))
    problems = []
    polylines = len(root.findall(f"{ns}polyline"))
    if polylines != len(kinds) * segments:
        problems.append(f"overlay.svg has {polylines} polylines, expected {len(kinds) * segments}")
    circles = len(root.findall(f"{ns}circle"))
    expected = sum(len(ev) for ev in want.values())
    if circles != expected:
        problems.append(f"overlay.svg marks {circles} events, expected {expected}")
    return problems


def _rows(files, name: str) -> list[list[str]]:
    if name not in files:
        raise KeyError(f"missing output {name}")
    return list(csv.reader(io.StringIO(files[name].decode())))


def check_analyze(files, oracle: OracleSeries, kinds) -> list[str]:
    """Outputs of ``corrgeom analyze``: one measure CSV per kind and the
    overlay CSV, which must repeat the measure CSVs' cells exactly."""
    problems = []
    cells = {}
    for kind in kinds:
        rows = _rows(files, f"measure_{kind}.csv")
        if rows[0] != ["timestamp", "value", "gap"] or len(rows) - 1 != oracle.ticks.size:
            problems.append(f"measure_{kind}.csv: bad header or {len(rows) - 1} rows")
            continue
        bad = 0
        for row, tick, gap, value in zip(rows[1:], oracle.ticks, oracle.gaps, oracle.values[kind]):
            ok = int(row[0]) == tick and int(row[2]) == int(gap)
            ok = ok and (row[1] == "" if gap else _close(float(row[1]), float(value)))
            bad += not ok
        if bad:
            problems.append(f"measure_{kind}.csv: {bad} rows disagree with the oracle")
        cells[kind] = [row[1] for row in rows[1:]]
    overlay = _rows(files, "overlay.csv")
    if overlay[0] != ["timestamp", *kinds]:
        problems.append(f"overlay.csv header {overlay[0]}")
    elif cells and any(
        [row[j + 1] for row in overlay[1:]] != cells.get(kind) for j, kind in enumerate(kinds)
    ):
        problems.append("overlay.csv disagrees with the measure CSVs")
    return problems


_VALIDATE_LINE = re.compile(
    r"^(pass|FAIL): checked (\d+) distance matrices over (\d+) windows; "
    r"worst triangle margin (\S+) at \((-?\d+), '(\w+)', \((\d+), (\d+), (\d+)\)\)$"
)


def check_validate(stdout: str, oracle: OracleValidation) -> list[str]:
    """The summary line of ``corrgeom validate``. Its margin is printed with
    seven significant digits, so it must agree to half a unit in the last."""
    lines = stdout.strip().splitlines()
    match = _VALIDATE_LINE.match(lines[-1]) if lines else None
    if match is None:
        return [f"unparsable validate output {stdout!r}"]
    status, checked, windows, margin, tick, kind, *triple = match.groups()
    problems = []
    if status != "pass":
        problems.append("validate reported a violation")
    if (int(checked), int(windows)) != (oracle.checked, oracle.windows):
        problems.append(
            f"validate checked {checked} over {windows} windows, oracle "
            f"{oracle.checked} over {oracle.windows}"
        )
    margin = float(margin)
    if not _close(margin, oracle.worst_margin, 5.000001e-7 * abs(oracle.worst_margin) + TOL):
        problems.append(f"worst margin {margin!r} vs oracle {oracle.worst_margin!r}")
    elif int(tick) not in oracle.rhos or not _close(
        oracle.margin_at(int(tick), kind, tuple(int(i) for i in triple)), oracle.worst_margin
    ):
        problems.append(f"worst margin is not at window {tick} {kind} {tuple(triple)}")
    return problems


# ---------------------------------------------------------------------------
# Planted-episode scoring
# ---------------------------------------------------------------------------


def score_episodes(episodes, timestamps) -> tuple[int, int, int, int]:
    """(episodes hit, episodes, events inside an episode, events).

    An event is a hit when its window start lies in [start, end) of a
    planted episode; episodes and timestamps are sample indices here.
    """
    inside = [any(s <= t < e for s, e, _ in episodes) for t in timestamps]
    hit = sum(any(s <= t < e for t in timestamps) for s, e, _ in episodes)
    return hit, len(episodes), sum(inside), len(timestamps)
