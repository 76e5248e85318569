"""Command-line entry point: analyze, events, validate, simulate.

Exit codes: 0 success, 1 validation failure, 2 usage or input error.
Outputs are deterministic: the same input and configuration produce
byte-identical CSV and JSON files on one BLAS kernel. The Gram's GEMM
sums in the kernel's own order, so two kernels can differ in a value's
last bit: the goldens under tests/golden hold the bits of OpenBLAS's
Haswell, Zen and SkylakeX kernels, and older kernels (Sandybridge,
Prescott) change last bits. The log level comes from the
CORRGEOM_LOG_LEVEL environment variable; everything else is flags or the
--config file. Each setting is one flag, which holds its default, and the
parsed namespace is the run's settings. A flag's type is the one check on
its value: a number is read by series.parse_number and held to the flag's
lower bound and below +inf, and a bad value exits 2 through argparse,
naming the flag, before any input is read. (sliding_measures checks the
measure kinds, and SyntheticSpec simulate's ranges.) The manifest.json of
analyze and events records the subcommand's settings as its config block,
and as input_sha256 the hash of the input's bytes. Every command opens
--input once, in _read_input, as UTF-8 with newline=""; analyze and events
feed each line's bytes to the hash as the CSV reader takes the line, so a
pipe's bytes are hashed as well as a file's. A config key is a setting the
subcommand has a flag for, and its value is read as the text of that flag
(a list joined with commas), by the same parser and its types; a null value
leaves the setting unset, and flags given on the command line win.

CORRGEOM_LOG_LEVEL takes one of the names CRITICAL, FATAL, ERROR, WARN,
WARNING (the default), INFO, DEBUG or NOTSET; any other value exits 2 with
``error: Unknown level: '<value>'``. At INFO, DEBUG or NOTSET, analyze,
events and simulate write one line per output file to stderr, in the order
written:

    INFO:corrgeom:wrote <path>

That is the line and the level rule of the standard logging module under
logging.basicConfig, which the CLI does not import, to keep start-up short.

analyze, events and simulate write their files all or none, through
_write_outputs: a failed run, an interrupted one included, removes every
temporary file, every file it added and every directory it made. A file
is handed to it as its text or, for simulate's CSV, as a function that
writes the file to its open handle, so that CSV is never held as one text.

A process runs the CLI through entry(), the ``corrgeom`` command and
``python -m corrgeom.cli`` alike: it freezes every object the garbage
collector tracks, then exits with main's code. The frozen objects are the
modules, functions and classes that the imports of numpy and this package
made, which live until exit anyway, so freezing them is safe; the
interpreter's full collections at exit then skip them, which takes about
20 ms off a short call on a 2-vCPU Xeon. main itself has no process-wide
effect, so tests and in-process callers run it as they would any function.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from itertools import combinations
from pathlib import Path
from typing import Callable, TextIO

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
    _first_min_triple,
    _min_triangle_margins,
)
from .series import TimeSeriesSet, parse_number, read_timeseries_csv, write_timeseries_csv
from .svg import render_measures_svg

CONFIG_SCHEMA_VERSION = 1
FORMATS = ("svg",)
# The fewest windows per triangle-margin scan of validate: validate asks
# correlation_chunks for both kinds of distances in chunks of at least this
# many windows, so a chunk is one stack of 2 * VALIDATE_BATCH matrices. The
# scan's numpy loops are as long as the stack is tall. On the validate_n32
# benchmark input (n = 32, K = 101, 700 windows, 10 to a chunk by
# CHUNK_ELEMENTS; 2-vCPU Xeon, one BLAS thread), with each next chunk built
# in the read-ahead worker, an in-process validate call, its CSV read
# included, took 76 ms in chunks of 20 windows, 61 at 40 and 64 at 80
# (medians of 10 alternating rounds, each the median of 7 calls); 80 was
# faster than 40 in 5 of the 10 rounds, and it raised the process's own peak
# RSS from 35.9 to 40.9 MB (33.4 at 20).
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


# The one setting whose flag is not its name with "-" for "_".
_FLAG_NAMES = {"formats": "--format"}


def _settings(args: argparse.Namespace) -> dict:
    """The run's settings: every dest of the subcommand's flags but
    --config's, each holding its value or its flag's default."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "config")}


def _config_flags(path: str, known: set[str]) -> list[str]:
    """The settings of a JSON config file as flag text, ``--window=21``: a
    list is joined with commas and any other value goes through str(). The
    ``=`` form keeps a value that starts with "-" from reading as a flag. A
    key whose value is null is left out, as if absent. A key outside
    ``known`` (the settings the subcommand has flags for) is an error."""
    import json

    raw = json.loads(Path(path).read_bytes())  # JSON is UTF-8, -16 or -32, never the locale's
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


def _hashed(lines, digest):
    """Yield ``lines``, feeding each one's UTF-8 bytes to ``digest`` as it is
    taken. A line of a UTF-8 file opened with newline="" encodes back to
    exactly its own bytes, so the digest is fed the bytes the reader took."""
    for line in lines:
        digest.update(line.encode())
        yield line


def _read_input(args: argparse.Namespace, digest=None) -> TimeSeriesSet:
    """The --input CSV's series, read once, as UTF-8 with newline="", for
    every command. With a hashlib ``digest``, each line the read takes is fed
    to the digest as it is taken, so the hash is of the bytes analysed, a
    pipe's too."""
    if not args.input:
        raise CorrGeomError("an --input CSV is required")
    with open(args.input, encoding="utf-8", newline="") as fh:
        return read_timeseries_csv(fh if digest is None else _hashed(fh, digest))


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


def _manifest(args: argparse.Namespace, data: TimeSeriesSet, n_windows: int, digest) -> dict:
    """The run's manifest.json object. ``digest`` is the sha256 that
    _read_input fed each input line's bytes as the reader took it, so
    input_sha256 is the hash of the bytes analysed; the input is not opened
    again."""
    return {
        "library_version": __version__,
        "config": {"schema_version": CONFIG_SCHEMA_VERSION, **_settings(args)},
        "input_sha256": digest.hexdigest(),
        "series_ids": list(data.ids),
        "series_length": data.length,
        "n_windows": n_windows,
    }


def _write_outputs(out: str | Path, files: dict[str, str | Callable[[TextIO], object]]) -> int:
    """Write ``files`` into the directory ``out``, all or none, in their
    order, then log and print each path. ``files`` maps each name to its
    text, or to a function that writes the file to the open text handle it
    is given. ``out`` and any missing parents are made; each file is written
    as UTF-8 to a temporary ``.<name>.<pid>.tmp`` beside it, and the
    temporary files are renamed into place only once all are written. On any
    exception, a KeyboardInterrupt or a MemoryError included, every
    temporary file, every file this call renamed to a path that did not
    exist before it, and every directory it made (deepest first, if empty)
    is removed and the exception raised again, so a failed write leaves the
    directory's earlier files as they were and a fresh ``out`` not there at
    all. A rename that fails leaves each earlier file replaced before it with
    this call's bytes, and the rest with the earlier run's."""
    out = Path(out)
    made = [d for d in (out, *out.parents) if not d.exists()]
    paths = [out / name for name in files]
    new = [path for path in paths if not path.exists()]
    # Named before any write, so that a partial file is removed too.
    temporary = [path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in paths]
    try:
        out.mkdir(parents=True, exist_ok=True)
        for tmp, content in zip(temporary, files.values()):
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(content) if isinstance(content, str) else content(fh)
        for tmp, path in zip(temporary, paths):
            tmp.replace(path)
    except BaseException:
        for undo in [*(tmp.unlink for tmp in temporary), *(path.unlink for path in new),
                     *(d.rmdir for d in made)]:
            try:
                undo()
            except OSError:  # a file not written, renamed or made, or a directory not empty
                pass
        raise
    log_info = _log_level() <= _LOG_LEVELS["INFO"]
    for path in paths:
        if log_info:
            print(f"INFO:corrgeom:wrote {path}", file=sys.stderr)
        print(path)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    import hashlib  # here, not at the top: validate writes no manifest

    digest = hashlib.sha256()
    data = _read_input(args, digest)
    series_list = sliding_measures(data, args.window, args.stride, args.measures)
    files = _csv_texts(series_list)
    if "svg" in args.formats:
        files["overlay.svg"] = render_measures_svg(series_list)
    files["manifest.json"] = _json_text(_manifest(args, data, len(series_list[0]), digest))
    return _write_outputs(args.out, files)


def cmd_events(args: argparse.Namespace) -> int:
    import hashlib  # here, not at the top: validate writes no manifest

    digest = hashlib.sha256()
    data = _read_input(args, digest)
    # Unset, both are one window: K samples, which span K * step ticks.
    if args.min_separation is None:
        args.min_separation = args.window * data.step
    if args.match_window is None:
        args.match_window = args.window * data.step
    series_list = sliding_measures(data, args.window, args.stride, args.measures)
    event_lists = {
        s.kind: detect_minima(s, args.min_prominence, args.min_separation) for s in series_list
    }
    files = {f"events_{kind}.json": _json_text(ev.to_dict()) for kind, ev in event_lists.items()}
    comparisons = [
        compare_event_sets(a, b, args.match_window).to_dict()
        for a, b in combinations(event_lists.values(), 2)
    ]
    files["comparison.json"] = _json_text({"comparisons": comparisons})
    if "svg" in args.formats:
        files["overlay.svg"] = render_measures_svg(series_list, event_lists)
    files["manifest.json"] = _json_text(_manifest(args, data, len(series_list[0]), digest))
    return _write_outputs(args.out, files)


def _read_ahead(chunks):
    """Yield the items of the iterator ``chunks`` in order, each one built by
    one worker thread while the caller holds the item before it.

    The worker takes the next item only when asked, and it is asked when
    the caller receives an item, so at most one item is built ahead of the
    one the caller holds. An exception raised by ``chunks`` is raised here,
    the same object. However the caller stops, at the end, on an exception
    or by closing this generator, the worker is stopped and joined before
    control returns, so no thread outlives the loop. numpy releases the GIL
    inside its array loops and BLAS calls, so the two threads overlap where
    a second CPU is free; on one CPU they take turns."""
    import queue
    import threading

    asks, items = queue.SimpleQueue(), queue.SimpleQueue()

    def work():
        while asks.get():
            try:
                items.put((next(chunks), None))
            except BaseException as exc:  # StopIteration too; the caller raises the rest
                items.put((None, exc))

    # A daemon, so that a generator never closed cannot hold up the exit.
    worker = threading.Thread(target=work, name="corrgeom-read-ahead", daemon=True)
    worker.start()
    try:
        asks.put(True)
        while True:
            item, exc = items.get()
            if isinstance(exc, StopIteration):
                return
            if exc is not None:
                raise exc
            asks.put(True)
            yield item
    finally:
        asks.put(False)
        worker.join()


def cmd_validate(args: argparse.Namespace) -> int:
    """Check the triangle inequality once per kind (spherical, projective) on
    every window that has no constant series, through analyze's window
    engine, which hands out chunks (ms, dist) of at least VALIDATE_BATCH
    windows: dist is the chunk's (2M, n, n) stack of distances, spherical then
    projective per window. The next chunk is built in one worker thread,
    through _read_ahead, while this thread scans the current one, so one
    extra chunk is held. One scan, metric._min_triangle_margins, reduces
    each matrix's triangle margins to their minimum. A matrix fails when that
    minimum is below -TRIANGLE_TOL or NaN. Symmetry, the diagonal and the
    sign of the entries are not rechecked, because they cannot fail:
    metric.angular_distances, in the engine, makes every stack exactly
    symmetric and finite, with a +0.0 diagonal and entries in [0, pi], by
    construction, and that is the scan's precondition.

    Each failing matrix, in window order, prints a line on stderr and makes
    the exit 1:

        VIOLATION window@<tick> <kind>: min_triangle_margin=<margin> at (i, j, k)

    with the margin in %.3e and the triple that metric._first_min_triple
    locates for it. The worst margin is the first smallest in window order,
    spherical first, a NaN never; a copy of its matrix is kept, and its
    triple is located once, after the last chunk. Fewer than 3 series have
    no triangle to check, and exit 2; correlation_chunks rejects a window
    longer than the series."""
    data = _read_input(args)
    if len(data) < 3:
        raise TooFewPointsError("validate needs at least 3 series")
    kinds = (SPHERICAL, PROJECTIVE)
    worst_margin = float("inf")
    worst = worst_matrix = None
    failures = checked = 0
    chunks = correlation_chunks(data, args.window, kinds, args.stride, VALIDATE_BATCH)
    for ms, dist in _read_ahead(chunks):  # matrix 2w + k is window ms[w]'s kinds[k]
        lows = _min_triangle_margins(dist)
        checked += len(dist)
        failed = ~(lows >= -TRIANGLE_TOL)  # a NaN fails
        margins = np.fmin(lows, np.inf)  # a NaN becomes +inf
        if margins.size and margins.min() < worst_margin:
            at = int(margins.argmin())
            worst_margin = float(margins[at])
            worst = (data.tick(int(ms[at // 2]) * args.stride), kinds[at % 2])
            worst_matrix = dist[at].copy()
        for at in np.flatnonzero(failed):
            failures += 1
            tick = data.tick(int(ms[at // 2]) * args.stride)
            triple = _first_min_triple(dist[at], lows[at])
            print(f"VIOLATION window@{tick} {kinds[at % 2]}: "
                  f"min_triangle_margin={lows[at]:.3e} at {triple}", file=sys.stderr)
    if worst is not None:
        worst += (_first_min_triple(worst_matrix, worst_margin),)
    status = "pass" if failures == 0 else "FAIL"
    count = (data.length - args.window) // args.stride + 1
    print(
        f"{status}: checked {checked} distance matrices over {count} windows; "
        f"worst triangle margin {worst_margin:.6e} at {worst}"
    )
    return 0 if failures == 0 else 1


def _parse_episodes(text: str) -> tuple[tuple[int, int, float], ...]:
    episodes = []
    for chunk in text.split(",") if text else ():
        try:
            start, end, strength = chunk.split(":")
            episodes.append((parse_number(start, int), parse_number(end, int),
                             parse_number(strength, float)))
        except ValueError:
            raise ValueError(f"bad episode {chunk!r}; expected start:end:strength") from None
    return tuple(episodes)


def cmd_simulate(args: argparse.Namespace) -> int:
    """Write the series of the spec the flags give to the CSV --out, and the
    spec to the .truth.json sidecar beside it, all or none. The series are
    generated before any path is touched, so a bad spec writes nothing.
    write_timeseries_csv then writes the CSV row by row into _write_outputs'
    temporary file, and no text of the whole CSV is made."""
    from .testkit import SyntheticSpec, simulate

    spec = SyntheticSpec(
        n_series=args.series,
        length=args.length,
        episodes=_parse_episodes(args.episodes),
        noise_sigma=args.noise_sigma,
        rng_seed=args.seed,
    )
    data = simulate(spec)
    out = Path(args.out)
    files = {out.name: lambda fh: write_timeseries_csv(data, fh),
             out.with_suffix(".truth.json").name: _json_text(vars(spec))}
    return _write_outputs(out.parent, files)


def _number(kind: type, low: int | None = None):
    """A numeric flag's type: parse_number's ``kind`` of the text, which must
    be at least ``low`` and finite when ``low`` is given (a NaN is not at
    least ``low``; +inf, which would be written to JSON as the non-token
    Infinity, is not finite). It carries the kind's ``__name__``, which
    argparse's message for text that does not parse names: ``argument
    --window: invalid int value: '2_1'``."""

    def parse(text: str) -> int | float:
        value = parse_number(text, kind)
        if low is not None and not value >= low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        if low is not None and value == float("inf"):
            raise argparse.ArgumentTypeError("must be finite")
        return value

    parse.__name__ = kind.__name__
    return parse


# The defaults are package conventions, not values from a reference analysis:
# window 21 is a starting point, to be tuned to the data.
def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="input CSV (header row; tick/date column first)")
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--window", type=_number(int, 2), default=21,
                        help="summation window length K (default: %(default)s)")
    parser.add_argument("--stride", type=_number(int, 1), default=1,
                        help="hop between windows (default: %(default)s)")
    parser.add_argument("--out", default="corrgeom_out",
                        help="output directory (default: %(default)s)")


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(text.split(",")) if text else ()


def _formats(text: str) -> tuple[str, ...]:
    for fmt in _comma_list(text):
        if fmt not in FORMATS:
            choices = ", ".join(FORMATS)
            raise argparse.ArgumentTypeError(f"unknown format {fmt!r}; choose from {choices}")
    return _comma_list(text)


def _add_measure_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--measures",
        type=_comma_list,
        default=",".join(MEASURE_KINDS),  # a text default goes through the type too
        help='comma-separated measure kinds (default: %(default)s; "" names none, which is '
        "an error)",
    )
    parser.add_argument("--format", dest="formats", type=_formats, default=(),
                        metavar="FORMAT", help="extra outputs besides the CSV and JSON files: "
                        f"{', '.join(FORMATS)} (default: none)")


def _add_detector_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-prominence", type=_number(float, 0), default=0.05,
                        help="minimum prominence for a detected minimum (default: %(default)s)")
    parser.add_argument("--min-separation", type=_number(int, 0),
                        help="minimum tick separation between events (default: one window, "
                        "K times the tick step)")
    parser.add_argument("--match-window", type=_number(int, 0),
                        help="tick window for matching events across measures (default: one "
                        "window, K times the tick step)")


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

    p_validate = sub.add_parser("validate", help="check the triangle inequality on every window")
    _add_input_flags(p_validate)

    p_sim = sub.add_parser("simulate", help="generate synthetic series with planted episodes")
    p_sim.add_argument("--series", type=_number(int), default=4,
                       help="number of series (default: %(default)s)")
    p_sim.add_argument("--length", type=_number(int), default=500,
                       help="samples per series (default: %(default)s)")
    p_sim.add_argument(
        "--episodes",
        default="",
        help="planted couplings as start:end:strength[,start:end:strength...] (default: none)",
    )
    p_sim.add_argument("--noise-sigma", type=_number(float), default=0.1,
                       help="noise standard deviation (default: %(default)s)")
    p_sim.add_argument("--seed", type=_number(int), default=0,
                       help="generator seed (default: %(default)s)")
    p_sim.add_argument("--out", required=True, help="output CSV path; the spec is written "
                       "beside it, to a .truth.json sidecar (sim.csv: sim.truth.json)")
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
            flags = _config_flags(args.config, _settings(args).keys())
            args = parser.parse_args([args.command, *flags, *argv[1:]])
        command = {"analyze": cmd_analyze, "events": cmd_events, "validate": cmd_validate}
        return command[args.command](args)
    except (CorrGeomError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    """Run main in this process and exit with its code, after gc.freeze().

    gc.freeze() moves every object the collector tracks now, the modules,
    functions and classes made at import (about 20,000), into a permanent
    generation that no collection walks, so the full collections of the
    interpreter's exit do not walk them again. That is safe because those
    objects live until exit anyway, and anything main makes stays
    collectable, with its finalizers run as before. Every output file is
    closed by _write_outputs' with blocks before main returns, and
    finalization still flushes stdout and stderr, so a failed flush still
    makes the exit status 120. main has no process-wide effect; only this
    entry freezes."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
