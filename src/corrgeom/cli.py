"""Command-line entry point: analyze, events, validate, simulate.

Exit codes: 0 success, 1 validation failure, 2 usage or input error.
Outputs are deterministic: the same input and configuration produce
byte-identical CSV and JSON files. The log level comes from the
CORRGEOM_LOG_LEVEL environment variable; everything else is flags or the
--config file. A config key is a setting the subcommand has a flag for, and
its value is read as the text of that flag (a list joined with commas), by
the same parser and its checks; a null value leaves the setting unset, and
flags given on the command line win.

CORRGEOM_LOG_LEVEL takes one of the names CRITICAL, FATAL, ERROR, WARN,
WARNING (the default), INFO, DEBUG or NOTSET; any other value exits 2 with
``error: Unknown level: '<value>'``. At INFO, DEBUG or NOTSET, analyze and
events write one line per output file to stderr, in the order written:

    INFO:corrgeom:wrote <path>

That is the line and the level rule of the standard logging module under
logging.basicConfig, which the CLI does not import, to keep start-up short.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import combinations
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
from .metric import (
    PROJECTIVE,
    SPHERICAL,
    TRIANGLE_TOL,
    _min_triangle_margins,
    angular_distances,
    verify_metric_axioms,
)
from .series import Frozen, TimeSeriesSet, read_timeseries_csv, write_timeseries_csv
from .svg import render_measures_svg

CONFIG_SCHEMA_VERSION = 1
FORMATS = ("svg",)
# Windows per triangle-margin scan of validate: consecutive engine chunks are
# joined until they hold at least this many, 2 * VALIDATE_BATCH matrices with
# both kinds. The scan's numpy loops are as long as the stack is tall. On the
# validate_n32 benchmark input (n = 32, K = 101, 700 windows in chunks of 10;
# 2-vCPU sandbox, medians of 9) the distances and scans of the whole run took
# 124 ms in stacks of 10 windows, 84 at 20, 61 at 40 and 51 at 80; 80 raised
# the benchmark's peak RSS by 0.3-0.5 MB and its wall time no further.
VALIDATE_BATCH = 40

# The level names CORRGEOM_LOG_LEVEL accepts, with their logging values. A
# level of INFO or below writes one line per output file.
_LOG_LEVELS = {"CRITICAL": 50, "FATAL": 50, "ERROR": 40, "WARN": 30, "WARNING": 30,
              "INFO": 20, "DEBUG": 10, "NOTSET": 0}


def _log_level() -> int:
    name = os.environ.get("CORRGEOM_LOG_LEVEL", "WARNING")
    if name not in _LOG_LEVELS:
        raise ValueError(f"Unknown level: {name!r}")
    return _LOG_LEVELS[name]


class RunConfig(Frozen):
    """Resolved settings for one CLI run; each argument is the dest of its
    flag. Defaults are package conventions, not values from any reference
    analysis; in particular window=21 is just a sensible starting point and
    should be tuned to the data. The measure kinds are checked by
    sliding_measures."""

    def __init__(
        self,
        input: str | None = None,
        window: int = 21,
        stride: int = 1,
        measures: tuple[str, ...] = MEASURE_KINDS,
        min_prominence: float = 0.05,
        min_separation: int | None = None,  # defaults to window when unset
        match_window: int | None = None,  # defaults to window when unset
        out: str = "corrgeom_out",
        formats: tuple[str, ...] = (),
        seed: int = 0,
    ):
        if window < 2:
            raise ValueError("window must be >= 2")
        if stride < 1:
            raise ValueError("stride must be >= 1")
        if not min_prominence >= 0:  # also rejects NaN
            raise ValueError("min-prominence must be >= 0")
        if min_separation is not None and min_separation < 0:
            raise ValueError("min-separation must be >= 0")
        if match_window is not None and match_window < 0:
            raise ValueError("match-window must be >= 0")
        for fmt in formats:
            if fmt not in FORMATS:
                raise ValueError(f"unknown format {fmt!r}; choose from {', '.join(FORMATS)}")
        self._set(input=input, window=window, stride=stride, measures=measures,
                  min_prominence=min_prominence, min_separation=min_separation,
                  match_window=match_window, out=out, formats=formats, seed=seed)

    @property
    def separation(self) -> int:
        return self.window if self.min_separation is None else self.min_separation

    @property
    def matching(self) -> int:
        return self.window if self.match_window is None else self.match_window

    def to_dict(self) -> dict:
        return {
            "schema_version": CONFIG_SCHEMA_VERSION,
            **vars(self),
            "min_separation": self.separation,
            "match_window": self.matching,
        }


_SETTINGS = frozenset(vars(RunConfig()))
# The one setting whose flag is not its name with "-" for "_".
_FLAG_NAMES = {"formats": "--format"}


def _config_flags(path: str, known: set[str]) -> list[str]:
    """The settings of a JSON config file as flag text, ``--window=21``: a
    list is joined with commas and any other value goes through str(). The
    ``=`` form keeps a value that starts with "-" from reading as a flag. A
    key whose value is null is left out, as if absent. A key outside
    ``known`` (the settings the subcommand has flags for) is an error."""
    import json

    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    raw = {key: value for key, value in raw.items() if value is not None}
    version = raw.pop("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ValueError(
            f"config schema_version {version} not supported (expected {CONFIG_SCHEMA_VERSION})"
        )
    unknown = set(raw) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return [
        f"{_FLAG_NAMES.get(key, '--' + key.replace('_', '-'))}="
        + (",".join(map(str, value)) if isinstance(value, list) else str(value))
        for key, value in raw.items()
    ]


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    return RunConfig(**{k: v for k, v in vars(args).items() if k in _SETTINGS and v is not None})


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


def _csv_texts(series_list: list[MeasureSeries]) -> dict[str, str]:
    """analyze's CSV files, {name: text}: measure_<kind>.csv per series, with
    rows of (timestamp, value, gap), and overlay.csv, with rows of (timestamp,
    each series' value). A gap's value is empty. Every series shares its
    timestamps, and each value is formatted once for both files."""
    ticks = [str(t) for t in series_list[0].timestamps.tolist()]
    gaps = [s.gaps.tolist() for s in series_list]
    cells = [
        ["" if g else repr(v) for v, g in zip(s.values.tolist(), flags)]
        for s, flags in zip(series_list, gaps)
    ]
    files = {
        f"measure_{s.kind}.csv": "timestamp,value,gap\n"
        + "".join(f"{t},{c},{int(g)}\n" for t, c, g in zip(ticks, column, flags))
        for s, column, flags in zip(series_list, cells, gaps)
    }
    header = ",".join(["timestamp", *(s.kind for s in series_list)])
    rows = "".join(",".join(row) + "\n" for row in zip(ticks, *cells))
    files["overlay.csv"] = f"{header}\n{rows}"
    return files


def _json_text(payload: dict) -> str:
    import json  # here and in _config_flags: validate without --config needs no JSON

    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _manifest(config: RunConfig, data: TimeSeriesSet, n_windows: int) -> dict:
    import hashlib  # here, not at the top: validate writes no manifest

    digest = hashlib.sha256(Path(config.input).read_bytes()).hexdigest()
    return {
        "library_version": __version__,
        "config": config.to_dict(),
        "input_sha256": digest,
        "series_ids": list(data.ids),
        "series_length": data.length,
        "n_windows": n_windows,
    }


def _write_outputs(
    config: RunConfig, data: TimeSeriesSet, n_windows: int, files: dict[str, str]
) -> int:
    """Write ``files`` ({name: text}) and manifest.json into the out directory,
    all or none, then log and print each path."""
    files = {**files, "manifest.json": _json_text(_manifest(config, data, n_windows))}
    tracker = _OutputTracker(Path(config.out))
    try:
        for name, text in files.items():
            tracker.write_text(name, text)
        tracker.commit()
    except Exception:
        tracker.discard_all()
        raise
    log_info = _log_level() <= _LOG_LEVELS["INFO"]
    for path in tracker.written:
        if log_info:
            print(f"INFO:corrgeom:wrote {path}", file=sys.stderr)
        print(path)
    return 0


def cmd_analyze(config: RunConfig) -> int:
    data = _read_input(config)
    series_list = sliding_measures(data, config.window, config.stride, config.measures)
    files = _csv_texts(series_list)
    if "svg" in config.formats:
        files["overlay.svg"] = render_measures_svg(series_list)
    return _write_outputs(config, data, len(series_list[0]), files)


def cmd_events(config: RunConfig) -> int:
    data = _read_input(config)
    series_list = sliding_measures(data, config.window, config.stride, config.measures)
    event_lists = {
        s.kind: detect_minima(s, config.min_prominence, config.separation)
        for s in series_list
    }
    files = {f"events_{kind}.json": _json_text(ev.to_dict()) for kind, ev in event_lists.items()}
    comparisons = [
        compare_event_sets(a, b, config.matching).to_dict()
        for a, b in combinations(event_lists.values(), 2)
    ]
    files["comparison.json"] = _json_text({"comparisons": comparisons})
    if "svg" in config.formats:
        files["overlay.svg"] = render_measures_svg(series_list, event_lists)
    return _write_outputs(config, data, len(series_list[0]), files)


def _batched(chunks, size: int):
    """Chunks of arrays whose first axis is their windows, such as validate's
    (ms, distances), joined in order into runs of at least ``size`` windows;
    the last run may hold fewer."""
    held, windows = [], 0
    for chunk in chunks:
        held.append(chunk)
        windows += len(chunk[0])
        if windows >= size:
            batch = tuple(np.concatenate(parts) for parts in zip(*held))
            held, windows = [], 0  # not held while the caller scans the batch
            yield batch
    if held:
        yield tuple(np.concatenate(parts) for parts in zip(*held))


def cmd_validate(config: RunConfig) -> int:
    """Check the triangle inequality once per kind (spherical, projective) on
    every window that has no constant series, through analyze's window
    engine. Each chunk's correlations and unit rows become its (m, 2, n, n)
    distances, spherical then projective per window, before consecutive
    chunks are joined into batches of at least VALIDATE_BATCH windows, so a
    batch holds no unit rows. Each batch's distances are one (2M, n, n)
    stack, whose triangle margins one scan, metric._min_triangle_margins,
    reduces to each matrix's minimum. A matrix fails when that minimum is
    below -TRIANGLE_TOL or NaN. Symmetry, the diagonal and the sign of the
    entries are not rechecked, because they cannot fail: angular_distances
    makes every stack exactly symmetric and finite, with a +0.0 diagonal and
    entries in [0, pi], by construction, and that is the scan's precondition.

    Each failing matrix, in window order, prints a VIOLATION line on stderr,
    the summary of its verify_metric_axioms report, and makes the exit 1.
    The worst margin is the first smallest in window order, spherical first,
    a NaN never; a copy of its matrix is kept, and its triple is located
    once, after the last batch, by verify_metric_axioms. Fewer than 3 series
    have no triangle to check, and exit 2; correlation_chunks rejects a
    window longer than the series."""
    data = _read_input(config)
    n = len(data)
    if n < 3:
        raise TooFewPointsError("validate needs at least 3 series")
    kinds = (SPHERICAL, PROJECTIVE)
    worst_margin = float("inf")
    worst = worst_matrix = None
    failures = checked = 0
    distances = (
        (ms, np.stack([angular_distances(rho, units, kind) for kind in kinds], axis=1))
        for ms, rho, units in correlation_chunks(data, config.window, config.stride)
    )
    for ms, dist in _batched(distances, VALIDATE_BATCH):
        dist = dist.reshape(-1, n, n)  # matrix 2w + k is window w's kinds[k]
        margins = _min_triangle_margins(dist)
        checked += len(dist)
        failed = ~(margins >= -TRIANGLE_TOL)  # a NaN fails
        margins = np.fmin(margins, np.inf)  # a NaN becomes +inf
        if margins.size and margins.min() < worst_margin:
            at = int(margins.argmin())
            worst_margin = float(margins[at])
            worst = (data.tick(int(ms[at // 2]) * config.stride), kinds[at % 2])
            worst_matrix = dist[at].copy()
        for at in np.flatnonzero(failed):
            failures += 1
            tick = data.tick(int(ms[at // 2]) * config.stride)
            report = verify_metric_axioms(dist[at])
            print(f"VIOLATION window@{tick} {kinds[at % 2]}: {report.summary()}", file=sys.stderr)
    if worst is not None:
        worst += (verify_metric_axioms(worst_matrix).worst_triple,)
    status = "pass" if failures == 0 else "FAIL"
    count = (data.length - config.window) // config.stride + 1
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


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(text.split(",")) if text else ()


def _add_measure_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, help="seed echoed into the manifest")
    parser.add_argument(
        "--measures",
        type=_comma_list,
        help=f"comma-separated measure kinds from: {', '.join(MEASURE_KINDS)} (default: "
        'all; "" names none, which is an error)',
    )
    parser.add_argument("--format", dest="formats", type=_comma_list, metavar="FORMAT",
                        help="extra outputs besides the CSV and JSON files: svg")


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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _log_level()  # an unknown level name fails before any work
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.config:
            # The command-line flags come after the config file's, so they win.
            flags = _config_flags(args.config, vars(args).keys() & _SETTINGS)
            args = parser.parse_args([args.command, *flags, *argv[1:]])
        command = {"analyze": cmd_analyze, "events": cmd_events, "validate": cmd_validate}
        return command[args.command](_resolve_config(args))
    except (CorrGeomError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
