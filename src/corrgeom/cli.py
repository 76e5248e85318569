"""Command-line entry point: analyze, events, validate, simulate.

Exit codes: 0 success, 1 validation failure, 2 usage or input error.
Outputs are deterministic: the same input and configuration produce
byte-identical CSV and JSON files. The log level comes from the
CORRGEOM_LOG_LEVEL environment variable; everything else is flags or the
--config file (flags win), whose keys are limited to the settings the
subcommand has flags for.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CorrGeomError, TooFewPointsError
from .events import (
    MEASURE_KINDS,
    MeasureSeries,
    compare_event_sets,
    correlation_chunks,
    detect_minima,
    sliding_measures,
)
from .metric import PROJECTIVE, SPHERICAL, _axiom_stats, angular_distances, verify_metric_axioms
from .series import TimeSeriesSet, read_timeseries_csv, write_timeseries_csv
from .svg import render_measures_svg

log = logging.getLogger("corrgeom")

CONFIG_SCHEMA_VERSION = 1
FORMATS = ("svg",)


@dataclass
class RunConfig:
    """Resolved settings for one CLI run. Defaults are package conventions,
    not values from any reference analysis; in particular window=21 is just
    a sensible starting point and should be tuned to the data."""

    input: str | None = None
    window: int = 21
    stride: int = 1
    measures: tuple[str, ...] = ("diameter", "max_triangle_area")
    min_prominence: float = 0.05
    min_separation: int | None = None  # defaults to window when unset
    match_window: int | None = None  # defaults to window when unset
    out: str = "corrgeom_out"
    formats: tuple[str, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.window < 2:
            raise ValueError("window must be >= 2")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not self.min_prominence >= 0:  # also rejects NaN
            raise ValueError("min-prominence must be >= 0")
        if self.min_separation is not None and self.min_separation < 0:
            raise ValueError("min-separation must be >= 0")
        if self.match_window is not None and self.match_window < 0:
            raise ValueError("match-window must be >= 0")
        if not self.measures:
            raise ValueError("at least one measure kind is required")
        for kind in self.measures:
            if kind not in MEASURE_KINDS:
                raise ValueError(
                    f"unknown measure {kind!r}; choose from {', '.join(MEASURE_KINDS)}"
                )
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise ValueError(f"unknown format {fmt!r}; choose from {', '.join(FORMATS)}")

    @property
    def separation(self) -> int:
        return self.window if self.min_separation is None else self.min_separation

    @property
    def matching(self) -> int:
        return self.window if self.match_window is None else self.match_window

    def to_dict(self) -> dict:
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            "input": self.input,
            "window": self.window,
            "stride": self.stride,
            "measures": list(self.measures),
            "min_prominence": self.min_prominence,
            "min_separation": self.separation,
            "match_window": self.matching,
            "out": self.out,
            "formats": list(self.formats),
            "seed": self.seed,
        }


def _load_config_file(path: str, known: set[str]) -> dict:
    """The settings of a JSON config file; a key outside ``known`` (the
    settings the subcommand has flags for) is an error."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    version = raw.pop("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ValueError(
            f"config schema_version {version} not supported (expected {CONFIG_SCHEMA_VERSION})"
        )
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key in ("measures", "formats"):
        if key in raw:
            raw[key] = tuple(raw[key])
    return raw


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    settings: dict = {}
    if getattr(args, "config", None):
        flags = {"formats" if dest == "format" else dest for dest in vars(args)}
        known = {f.name for f in fields(RunConfig)} & flags
        settings.update(_load_config_file(args.config, known))
    overrides = {
        "input": getattr(args, "input", None),
        "window": getattr(args, "window", None),
        "stride": getattr(args, "stride", None),
        "measures": tuple(args.measures.split(",")) if getattr(args, "measures", None) else None,
        "min_prominence": getattr(args, "min_prominence", None),
        "min_separation": getattr(args, "min_separation", None),
        "match_window": getattr(args, "match_window", None),
        "out": getattr(args, "out", None),
        "formats": tuple(args.format.split(",")) if getattr(args, "format", None) else None,
        "seed": getattr(args, "seed", None),
    }
    settings.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**settings)


class _OutputTracker:
    """Writes a run's outputs under temporary names in the out directory and
    renames them into place only once all are written, so a run that fails
    partway leaves the directory's earlier files untouched."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.written: list[Path] = []

    @staticmethod
    def _temporary(path: Path) -> Path:
        return path.with_name(f".{path.name}.{os.getpid()}.tmp")

    def write_text(self, name: str, text: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        self._temporary(path).write_text(text)
        self.written.append(path)
        return path

    def commit(self) -> None:
        for path in self.written:
            self._temporary(path).replace(path)

    def discard_all(self) -> None:
        for path in self.written:
            try:
                self._temporary(path).unlink()
            except OSError:
                pass


def _read_input(config: RunConfig) -> TimeSeriesSet:
    if not config.input:
        raise CorrGeomError("an --input CSV is required")
    return read_timeseries_csv(config.input)


def _measure_csv_text(series: MeasureSeries) -> str:
    import io

    buf = io.StringIO()
    series.to_csv(buf)
    return buf.getvalue()


def _overlay_csv_text(series_list: list[MeasureSeries]) -> str:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["timestamp", *[s.kind for s in series_list]])
    base = series_list[0].timestamps
    for i, t in enumerate(base):
        row = [int(t)]
        for s in series_list:
            row.append("" if s.gaps[i] else repr(float(s.values[i])))
        writer.writerow(row)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _manifest(config: RunConfig, data: TimeSeriesSet, n_windows: int) -> dict:
    digest = hashlib.sha256(Path(config.input).read_bytes()).hexdigest()
    return {
        "library_version": __version__,
        "config": config.to_dict(),
        "input_sha256": digest,
        "series_ids": list(data.ids),
        "series_length": data.length,
        "n_windows": n_windows,
    }


def cmd_analyze(config: RunConfig) -> int:
    data = _read_input(config)
    series_list = sliding_measures(data, config.window, config.stride, config.measures)
    tracker = _OutputTracker(Path(config.out))
    try:
        for s in series_list:
            tracker.write_text(f"measure_{s.kind}.csv", _measure_csv_text(s))
        tracker.write_text("overlay.csv", _overlay_csv_text(series_list))
        if "svg" in config.formats:
            tracker.write_text("overlay.svg", render_measures_svg(series_list))
        tracker.write_text(
            "manifest.json", _json_text(_manifest(config, data, len(series_list[0])))
        )
        tracker.commit()
    except Exception:
        tracker.discard_all()
        raise
    for path in tracker.written:
        log.info("wrote %s", path)
        print(path)
    return 0


def cmd_events(config: RunConfig) -> int:
    data = _read_input(config)
    series_list = sliding_measures(data, config.window, config.stride, config.measures)
    event_lists = {
        s.kind: detect_minima(s, config.min_prominence, config.separation)
        for s in series_list
    }
    tracker = _OutputTracker(Path(config.out))
    try:
        for kind, ev in event_lists.items():
            tracker.write_text(f"events_{kind}.json", _json_text(ev.to_dict()))
        comparisons = []
        kinds = list(event_lists)
        for i in range(len(kinds)):
            for j in range(i + 1, len(kinds)):
                rep = compare_event_sets(
                    event_lists[kinds[i]], event_lists[kinds[j]], config.matching
                )
                comparisons.append(rep.to_dict())
        tracker.write_text("comparison.json", _json_text({"comparisons": comparisons}))
        if "svg" in config.formats:
            tracker.write_text(
                "overlay.svg", render_measures_svg(series_list, event_lists)
            )
        tracker.write_text(
            "manifest.json", _json_text(_manifest(config, data, len(series_list[0])))
        )
        tracker.commit()
    except Exception:
        tracker.discard_all()
        raise
    for path in tracker.written:
        log.info("wrote %s", path)
        print(path)
    return 0


def cmd_validate(config: RunConfig) -> int:
    """Check the metric axioms once per kind (spherical, projective) on every
    window that has no constant series, through analyze's window engine. Each
    failing matrix prints a VIOLATION line on stderr and makes the exit 1; the
    worst margin is the first smallest in window order, spherical first."""
    data = _read_input(config)
    if len(data) < 2:
        raise TooFewPointsError("validate needs at least 2 series")
    count = (data.length - config.window) // config.stride + 1
    if count < 1:
        raise CorrGeomError(
            f"window {config.window} exceeds series length {data.length}"
        )
    n = len(data)
    worst_margin = float("inf")
    worst = None
    failures = 0
    checked = 0
    for ms, rho in correlation_chunks(data, config.window, config.stride):
        per_kind = [
            (kind, _axiom_stats(angular_distances(rho, kind))) for kind in (SPHERICAL, PROJECTIVE)
        ]
        for w, m in enumerate(ms):
            tick = data.tick(int(m) * config.stride)
            for kind, stats in per_kind:
                checked += 1
                if stats.min_margin[w] < worst_margin:
                    worst_margin = float(stats.min_margin[w])
                    triple = sorted(int(i) for i in np.unravel_index(stats.worst[w], (n, n, n)))
                    worst = (tick, kind, tuple(triple))
                if not stats.passed[w]:
                    failures += 1
                    report = verify_metric_axioms(angular_distances(rho[w], kind))
                    print(
                        f"VIOLATION window@{tick} {kind}: {report.summary()}",
                        file=sys.stderr,
                    )
    status = "pass" if failures == 0 else "FAIL"
    print(
        f"{status}: checked {checked} distance matrices over {count} windows; "
        f"worst triangle margin {worst_margin:.6e} at {worst}"
    )
    return 0 if failures == 0 else 1


def _parse_episodes(text: str) -> tuple[tuple[int, int, float], ...]:
    episodes = []
    if text:
        for chunk in text.split(","):
            parts = chunk.split(":")
            if len(parts) != 3:
                raise ValueError(
                    f"bad episode {chunk!r}; expected start:end:strength"
                )
            episodes.append((int(parts[0]), int(parts[1]), float(parts[2])))
    return tuple(episodes)


def cmd_simulate(args: argparse.Namespace) -> int:
    from .testkit import SyntheticSpec, simulate

    try:
        spec = SyntheticSpec(
            n_series=args.series,
            length=args.length,
            episodes=_parse_episodes(args.episodes),
            noise_sigma=args.noise_sigma,
            rng_seed=args.seed,
        )
    except ValueError as exc:
        raise CorrGeomError(str(exc)) from exc
    data = simulate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_timeseries_csv(data, out)
    truth = {
        "n_series": spec.n_series,
        "length": spec.length,
        "episodes": [list(e) for e in spec.episodes],
        "noise_sigma": spec.noise_sigma,
        "rng_seed": spec.rng_seed,
    }
    sidecar = out.with_suffix(".truth.json")
    sidecar.write_text(_json_text(truth))
    print(out)
    print(sidecar)
    return 0


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="input CSV (header row; tick/date column first)")
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--window", type=int, help="summation window length K (default 21)")
    parser.add_argument("--stride", type=int, help="hop between windows (default 1)")
    parser.add_argument("--out", help="output directory (default corrgeom_out)")


def _add_measure_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="seed echoed into the manifest")
    parser.add_argument(
        "--measures",
        help=f"comma-separated measure kinds from: {', '.join(MEASURE_KINDS)}",
    )
    parser.add_argument("--format", help="extra outputs besides the CSV and JSON files: svg")


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-prominence", type=float, dest="min_prominence",
                        help="minimum prominence for a detected minimum")
    parser.add_argument("--min-separation", type=int, dest="min_separation",
                        help="minimum tick separation between events (default: window)")
    parser.add_argument("--match-window", type=int, dest="match_window",
                        help="tick window for matching events across measures (default: window)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrgeom",
        description="Joint-correlation geometry of time series: sliding spread "
        "measures on the sphere and their minima.",
    )
    parser.add_argument("--version", action="version", version=f"corrgeom {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="compute sliding measure series")
    _add_input_flags(p_analyze)
    _add_measure_flags(p_analyze)

    p_events = sub.add_parser("events", help="detect minima and compare measures")
    _add_input_flags(p_events)
    _add_measure_flags(p_events)
    _add_detector_flags(p_events)

    p_validate = sub.add_parser("validate", help="verify metric axioms on every window")
    _add_input_flags(p_validate)

    p_sim = sub.add_parser("simulate", help="generate synthetic series with planted episodes")
    p_sim.add_argument("--series", type=int, default=4, help="number of series")
    p_sim.add_argument("--length", type=int, default=500, help="samples per series")
    p_sim.add_argument(
        "--episodes",
        default="",
        help="planted couplings as start:end:strength[,start:end:strength...]",
    )
    p_sim.add_argument("--noise-sigma", type=float, default=0.1, dest="noise_sigma")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=os.environ.get("CORRGEOM_LOG_LEVEL", "WARNING"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        config = _resolve_config(args)
        if args.command == "analyze":
            return cmd_analyze(config)
        if args.command == "events":
            return cmd_events(config)
        if args.command == "validate":
            return cmd_validate(config)
        parser.error(f"unknown command {args.command!r}")
        return 2
    except (CorrGeomError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
