"""corrgeom benchmark: times the CLI as a user runs it and checks every output.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It generates its inputs from ``--seed``
with ``corrgeom.testkit`` (untimed), then runs a closed loop with one client:
one ``python -m corrgeom.cli`` call at a time, each started when the last
has exited and each just after a run of the fixed ``reference.py`` task,
until every job of the workload has run once and ``--seconds`` have passed.
Every output is compared byte for byte with the first call on the same input
and checked against an independent recomputation (``oracle.py``). With
``--trace 1`` the same jobs run in-process instead, alternating plain and
traced calls, and the result holds per-layer figures.

The last line of standard output is the result: a JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
holds the run's context (versions, source digest, seed, BLAS threads), and
the full record is written to ``.bench_out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(".bench_out")  # relative to ROOT, so printed output paths are stable
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE = Path(__file__).resolve().with_name("reference.py")
# The reference task's median wall time on a quiet 2-vCPU Intel Xeon 2.1 GHz
# VM. Times are reported as (time / reference time) * REFERENCE_S: seconds
# at that machine's quiet speed.
REFERENCE_S = 1.3
SETUP_REPEATS = 4
SETUP_EVERY = 2  # calls between set-up samples
CALL_TIMEOUT_S = 150.0
CLI_DEFAULT_PROMINENCE = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    n: int
    length: int
    window: int
    measures: tuple[str, ...] = ()
    datasets: int = 1  # planted inputs per run; planted_small only
    hold: int = 0  # samples one series is held constant, to force gaps


PLANTED = "planted_small"
WORKLOADS = {
    w.name: w
    for w in (
        Workload(PLANTED, "events", 4, 500, 21, ("diameter", "max_triangle_area"), datasets=4),
        Workload("triangles_n16", "events", 16, 600, 21, ("diameter", "max_triangle_area"), hold=42),
        Workload("wide_n64", "analyze", 64, 300, 101, ("diameter",)),
        Workload("validate_n32", "validate", 32, 800, 101),
    )
}


@dataclass(frozen=True)
class Input:
    path: Path
    data: object  # corrgeom.series.TimeSeriesSet
    episodes: tuple


@dataclass
class Job:
    """One CLI invocation, repeated on the same input within a run."""

    input: Input
    argv: list[str]
    out: Path
    kinds: tuple[str, ...]
    prominence: float | None = None  # events only
    separation: int | None = None  # events only
    first: tuple | None = None  # (files, stdout) of the first successful call


def pin_blas() -> None:
    """One BLAS thread unless the caller chose otherwise: the closed loop has
    one client, and on a small shared machine extra threads only add noise."""
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")


def import_corrgeom():
    """Import corrgeom from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import corrgeom.cli

    if Path(corrgeom.cli.__file__).resolve().parent != (SRC / "corrgeom").resolve():
        raise RuntimeError(f"corrgeom imported from {corrgeom.cli.__file__}, not {SRC}")
    return corrgeom.cli


# ---------------------------------------------------------------------------
# Inputs and jobs
# ---------------------------------------------------------------------------


def planted_datasets(seed: int, count: int) -> list[tuple]:
    """(TimeSeriesSet, episodes) for coupling_benchmark on seeds derived from seed."""
    from corrgeom.testkit import coupling_benchmark, simulate

    specs = [coupling_benchmark(seed * count + d) for d in range(count)]
    return [(simulate(spec), spec.episodes) for spec in specs]


def synthetic(w: Workload, seed: int):
    """(TimeSeriesSet, episodes): one planted episode over [L/4, L/2) and,
    when ``w.hold`` is set, one series held constant from L/2."""
    from corrgeom.series import TimeSeries, TimeSeriesSet
    from corrgeom.testkit import SyntheticSpec, simulate

    episodes = ((w.length // 4, w.length // 2, 0.9),)
    data = simulate(SyntheticSpec(w.n, w.length, episodes, 0.1, seed))
    if w.hold:
        # One series sticks at its current value, as a stalled sensor would.
        j, t = w.n // 2, w.length // 2
        values = data.series[j].values.copy()
        values[t : t + w.hold] = values[t]
        series = list(data.series)
        series[j] = TimeSeries(series[j].id, series[j].start, series[j].step, values)
        data = TimeSeriesSet(tuple(series))
    return data, episodes


def make_jobs(w: Workload, seed: int, workdir: Path) -> list[Job]:
    from corrgeom.series import write_timeseries_csv
    from corrgeom.testkit import BENCHMARK_MIN_PROMINENCE, BENCHMARK_MIN_SEPARATION

    if w.name == PLANTED:
        made = planted_datasets(seed, w.datasets)
    else:
        made = [synthetic(w, seed)]
    inputs = []
    for d, (data, episodes) in enumerate(made):
        path = workdir / f"input{d}.csv"
        write_timeseries_csv(data, path)
        inputs.append(Input(path, data, episodes))

    jobs = []
    common = ["--window", str(w.window)]
    for inp in inputs:
        if w.name == PLANTED:
            for kind in w.measures:
                prom = BENCHMARK_MIN_PROMINENCE[kind]
                argv = [w.command, "--input", str(inp.path), *common, "--measures", kind,
                        "--min-prominence", str(prom),
                        "--min-separation", str(BENCHMARK_MIN_SEPARATION), "--format", "svg"]
                jobs.append(Job(inp, argv, workdir / f"job{len(jobs)}", (kind,),
                                prom, BENCHMARK_MIN_SEPARATION))
        elif w.command == "analyze":
            argv = [w.command, "--input", str(inp.path), *common, "--measures", ",".join(w.measures)]
            jobs.append(Job(inp, argv, workdir / "job0", w.measures))
        elif w.command == "events":  # the CLI's default measures, prominence and separation
            argv = [w.command, "--input", str(inp.path), *common]
            jobs.append(Job(inp, argv, workdir / "job0", w.measures,
                            CLI_DEFAULT_PROMINENCE, w.window))
        else:
            argv = [w.command, "--input", str(inp.path), *common]
            jobs.append(Job(inp, argv, workdir / "job0", ()))
    return jobs


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


class Ledger:
    """The outcome of every call.

    A call fails if it exits non-zero, if its outputs differ byte for byte
    from the first call of its job, or if that first call's outputs disagree
    with the oracle. The oracle check runs after the timed loop.
    """

    def __init__(self):
        self.calls: list[tuple[Job, str | None]] = []

    def record(self, job: Job, returncode: int, stdout: str) -> None:
        files = (
            {p.name: p.read_bytes() for p in sorted(job.out.iterdir())}
            if job.out.is_dir()
            else {}
        )
        problem = None
        if returncode != 0:
            problem = f"exit code {returncode}"
        elif job.first is None:
            job.first = (files, stdout)
        elif job.first != (files, stdout):
            problem = "outputs differ from the first call on the same input"
        self.calls.append((job, problem))

    def finish(self, w: Workload) -> list[str]:
        """Problems of every failed call; their count is the failure count."""
        oracles: dict = {}
        verdicts: dict[int, str | None] = {}
        for job, _ in self.calls:
            if job.first is not None and id(job) not in verdicts:
                problems = check_job(w, job, oracles)
                verdicts[id(job)] = "; ".join(problems) if problems else None
        failures = []
        for job, problem in self.calls:
            problem = problem or verdicts.get(id(job))
            if problem:
                failures.append(f"{job.out.name} ({job.argv[0]}): {problem}")
        return failures


def check_job(w: Workload, job: Job, oracles: dict) -> list[str]:
    """Oracle check of a job's first outputs; ``oracles`` caches the
    recomputation per input, shared by the jobs of one run."""
    import oracle

    files, stdout = job.first
    inp = job.input
    if id(inp) not in oracles:
        if w.command == "validate":
            oracles[id(inp)] = oracle.validation(inp.data, w.window)
        else:
            oracles[id(inp)] = oracle.measures(inp.data, w.window, w.measures)
    want = oracles[id(inp)]
    try:
        if w.command == "validate":
            return oracle.check_validate(stdout, want)
        problems = oracle.check_manifest(files, inp.path.read_bytes(), inp.data, w.window)
        if w.command == "analyze":
            return problems + oracle.check_analyze(files, want, job.kinds)
        return problems + oracle.check_events(
            files, want, job.kinds, w.window, job.prominence, job.separation,
            svg=w.name == PLANTED,
        )
    except (KeyError, ValueError, IndexError, TypeError, UnicodeDecodeError) as exc:
        return [f"unreadable output: {exc!r}"]


def quality(w: Workload, seed: int, jobs: list[Job]) -> tuple[float, float, list[str]]:
    """Recall and precision of planted-episode detection over both measures.

    On planted_small they are scored from the CLI's own events files and must
    equal an in-process recomputation exactly; other workloads run no event
    detection on planted data, so they report the in-process figures for the
    same planted datasets.
    """
    import oracle
    from corrgeom.events import detect_minima, sliding_measures
    from corrgeom.testkit import BENCHMARK_MIN_PROMINENCE, BENCHMARK_MIN_SEPARATION

    planted = WORKLOADS[PLANTED] if w.name != PLANTED else w
    kinds = planted.measures
    in_process = []
    for data, episodes in planted_datasets(seed, planted.datasets):
        for series in sliding_measures(data, planted.window, 1, kinds):
            ev = detect_minima(
                series, BENCHMARK_MIN_PROMINENCE[series.kind], BENCHMARK_MIN_SEPARATION
            )
            in_process.append(oracle.score_episodes(episodes, ev.timestamps()))
    problems = []
    tally = in_process
    if w.name == PLANTED:
        from_cli = []
        for job in jobs:
            try:
                ev = json.loads(job.first[0][f"events_{job.kinds[0]}.json"])
                stamps = [e["timestamp"] for e in ev["events"]]
            except (TypeError, KeyError, ValueError) as exc:
                return 0.0, 0.0, [f"no events to score from {job.out.name}: {exc!r}"]
            from_cli.append(oracle.score_episodes(job.input.episodes, stamps))
        if from_cli != in_process:
            problems.append(f"CLI episode scores {from_cli} != in-process {in_process}")
        tally = from_cli
    hit, episodes, inside, events = (sum(col) for col in zip(*tally))
    return hit / episodes, (inside / events if events else 0.0), problems


# ---------------------------------------------------------------------------
# Calls
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn(argv: list[str], env: dict, stdout_path: Path) -> tuple[int, float, float]:
    """Run one child; return (exit code, wall seconds, peak RSS in MB).

    Peak RSS is the child's own, from the rusage os.wait4 returns.
    """
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli_call(job: Job, env: dict, stdout_path: Path) -> tuple[int, float, float, str]:
    """One ``python -m corrgeom.cli`` call into a fresh output directory."""
    shutil.rmtree(job.out, ignore_errors=True)
    rc, wall, peak = spawn(
        [sys.executable, "-m", "corrgeom.cli", *job.argv, "--out", str(job.out)],
        env, stdout_path,
    )
    return rc, wall, peak, stdout_path.read_text()


def closed_loop(items: list, seconds: float, call) -> None:
    """Round-robin over items, one call at a time, until every item has
    been called once and ``seconds`` have passed."""
    start = time.perf_counter()
    i = 0
    while i < len(items) or time.perf_counter() - start < seconds:
        call(items[i % len(items)])
        i += 1


def run_untraced(w: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    jobs = make_jobs(w, seed, workdir)
    env = child_env()
    stdout_path = workdir / "stdout.txt"
    ledger = Ledger()
    setup, setup_refs, walls, refs, rss = [], [], [], [], []

    def reference() -> float:
        rc, wall, _ = spawn([sys.executable, str(REFERENCE)], env, stdout_path)
        if rc != 0:
            raise RuntimeError(f"reference task failed with exit code {rc}")
        return wall

    def set_up(ref: float) -> None:
        rc, wall, _ = spawn([sys.executable, "-c", "import corrgeom.cli"], env, stdout_path)
        if rc != 0:
            raise RuntimeError(f"import corrgeom.cli failed with exit code {rc}")
        setup.append(wall)
        setup_refs.append(ref)

    def call(job: Job) -> None:
        ref = reference()
        # Set-up samples are spread over the run, each next to a reference.
        if len(setup) < SETUP_REPEATS and len(walls) % SETUP_EVERY == 0:
            set_up(ref)
        rc, wall, peak, stdout = cli_call(job, env, stdout_path)
        refs.append(ref)
        walls.append(wall)
        rss.append(peak)
        ledger.record(job, rc, stdout)

    closed_loop(jobs, seconds, call)
    while len(setup) < SETUP_REPEATS:
        set_up(reference())
    failures = ledger.finish(w)
    recall, precision, problems = quality(w, seed, jobs)
    attempted = len(ledger.calls)
    metrics = {
        "wall_s": (REFERENCE_S * statistics.median(w / r for w, r in zip(walls, refs)), "s"),
        "setup_s": (REFERENCE_S * statistics.median(s / r for s, r in zip(setup, setup_refs)), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
        "success_rate": ((attempted - len(failures)) / attempted, "ratio"),
        "event_recall": (recall, "ratio"),
        "event_precision": (precision, "ratio"),
    }
    return {
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "metrics": metrics,
        "raw_medians_s": {"wall": statistics.median(walls), "setup": statistics.median(setup),
                          "reference": statistics.median(refs + setup_refs)},
        "samples": {"wall_s": walls, "reference_s": refs, "setup_s": setup,
                    "setup_reference_s": setup_refs, "peak_rss_mb": rss},
    }


def run_traced(w: Workload, seed: int, seconds: float, workdir: Path, import_s: float) -> dict:
    import corrgeom.cli as cli
    from spans import Recorder

    jobs = make_jobs(w, seed, workdir)
    recorder = Recorder()
    ledger = Ledger()
    plain, traced = [], []

    def timed_main(job: Job) -> tuple[int, float, str]:
        shutil.rmtree(job.out, ignore_errors=True)
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main([*job.argv, "--out", str(job.out)])
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, time.perf_counter() - start, buf.getvalue()

    last_call = 0  # index of the last traced call's first span

    def round_of_pairs(round_jobs: list[Job]) -> None:
        # Whole rounds, so that per-call figures weigh every job equally.
        nonlocal last_call
        for job in round_jobs:
            rc, wall, stdout = timed_main(job)
            plain.append(wall)
            ledger.record(job, rc, stdout)
            last_call = len(recorder.spans)
            with recorder.patch(), recorder.span("cli.main"):
                rc, wall, stdout = timed_main(job)
            traced.append(wall)
            ledger.record(job, rc, stdout)

    closed_loop([jobs], seconds, round_of_pairs)
    failures = ledger.finish(w)
    overhead = statistics.median(t - p for t, p in zip(traced, plain))
    summary = recorder.summary()
    return {
        "attempted": len(ledger.calls),
        "failures": failures,
        "problems": [],
        "metrics": layer_metrics(summary, recorder.counters, len(traced), import_s, overhead),
        "samples": {"plain_wall_s": plain, "traced_wall_s": traced},
        "trace": {
            "traced_calls": len(traced),
            "spans": summary,
            "counters": recorder.counters,
            "computed": ["measures.triangles"],
            "absent": recorder.absent,
            # [name, start, end, parent]; parent indexes the full span list.
            "last_call_first_index": last_call,
            "last_call_spans": recorder.spans[last_call:],
        },
    }


def layer_metrics(summary: dict, counters: dict, calls: int, import_s: float,
                  overhead_s: float) -> dict:
    """Per-layer figures per traced call. ``_s`` is the total time inside the
    named calls, children included, except ``events.loop_self_s``, which is
    the self time of ``sliding_measures``: the per-window loop and the
    objects it builds."""

    def total(name):
        return summary.get(name, {}).get("total_s", 0.0) / calls

    def count(name):
        return summary.get(name, {}).get("calls", 0) / calls

    windows = counters["events.windows"]
    gaps = counters["events.gap_windows"]
    metrics = {
        "cli.import_s": (import_s, "s"),
        "cli.write_s": (total("cli.write"), "s"),
        "cli.bytes_written": (counters["cli.bytes_written"] / calls, "bytes"),
        "series.read_csv_s": (total("series.read_csv"), "s"),
        "series.window_units_s": (total("series.window_units"), "s"),
        "series.window_units_calls": (count("series.window_units"), "count"),
        "correlation.gram_s": (total("correlation.gram"), "s"),
        "correlation.matrix_s": (total("correlation.matrix"), "s"),
        "metric.distance_matrix_s": (total("metric.distance_matrix"), "s"),
        "metric.distance_matrix_calls": (count("metric.distance_matrix"), "count"),
        "metric.axiom_check_s": (total("metric.axiom_check"), "s"),
        "metric.axiom_check_calls": (count("metric.axiom_check"), "count"),
        "measures.diameter_s": (total("measures.diameter"), "s"),
        "measures.max_triangle_s": (total("measures.max_triangle"), "s"),
        "measures.triangles": (counters["measures.triangles"] / calls, "count"),
        "events.sliding_measures_s": (total("events.sliding_measures"), "s"),
        "events.loop_self_s": (
            summary.get("events.sliding_measures", {}).get("self_s", 0.0) / calls, "s"
        ),
        "events.gap_windows": (gaps / calls, "count"),
        "events.window_yield": ((windows - gaps) / windows if windows else 0.0, "ratio"),
        "events.detect_minima_s": (total("events.detect_minima"), "s"),
        "events.compare_s": (total("events.compare"), "s"),
        "svg.render_s": (total("svg.render"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return metrics


# ---------------------------------------------------------------------------
# Context and entry point
# ---------------------------------------------------------------------------


def git_sha() -> str | None:
    """HEAD of this checkout if it is a git repository; never a parent's."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def context(w: Workload, seed: int, seconds: float, trace: int) -> dict:
    import numpy
    import scipy

    return {
        "workload": w.name,
        "workload_spec": dataclasses.asdict(w),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, one client, one call at a time",
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def run(w: Workload, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run; returns the full record (see ``main`` for the result)."""
    pin_blas()
    # The first import in this process, before numpy: a user's call pays it
    # too, on top of interpreter start.
    start = time.perf_counter()
    import_corrgeom()
    import_s = time.perf_counter() - start
    workdir = OUT / f"{w.name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            record = run_traced(w, seed, seconds, workdir, import_s)
        else:
            record = run_untraced(w, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["context"] = context(w, seed, seconds, trace)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "corrgeom" / "cli.py").is_file():
        print(f"error: no corrgeom sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    record = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record) + "\n")
    for line in record["failures"] + record["problems"]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": not record["failures"] and not record["problems"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }
    print(json.dumps({"context": record["context"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
