"""Quick self-test of the benchmark at tiny sizes.

    python3 bench/selftest.py

Run it from the root of a checkout; it takes about two minutes. It runs every
workload at tiny sizes, untraced and traced, and checks that each run is
correct and emits exactly the metric names and units BENCHMARK.json lists.
It then corrupts output files of real CLI calls and checks that each such
call is counted as a failure: once where the oracle must catch it (the first
call of a job) and once where the byte-for-byte comparison must (a later
call). Exits non-zero on any failure.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import sys
from pathlib import Path

import run

TINY = {
    "planted_small": dict(datasets=1),
    "triangles_n16": dict(n=5, length=120, hold=30),
    "wide_n64": dict(n=6, length=150, window=31),
    "validate_n32": dict(n=5, length=150, window=31),
}

# Where each workload's output is corrupted: an output file, or None for stdout.
CORRUPT = {
    "planted_small": "overlay.svg",
    "triangles_n16": "events_max_triangle_area.json",
    "wide_n64": "measure_diameter.csv",
    "validate_n32": None,
}


def tiny(name: str) -> run.Workload:
    return dataclasses.replace(run.WORKLOADS[name], **TINY[name])


def bump_digit(text: str, start: int = 0) -> str:
    """Change the fifth decimal of the first number at or after ``start``:
    a relative change near 1e-5, far outside the oracle's tolerance."""
    match = re.compile(r"\d\.\d{5}").search(text, start)
    if match is None:
        raise ValueError("no number to corrupt")
    i = match.end() - 1
    return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1 :]


def corrupt(job: run.Job, target: str | None, stdout: str) -> str:
    """Corrupt ``target`` in the job's output directory; return the stdout to record."""
    if target is None:
        return bump_digit(stdout, stdout.index("margin"))
    path = job.out / target
    text = path.read_text()
    if target.endswith(".svg"):
        text = re.sub(r"<circle [^>]*/>\n", "", text, count=1)
    elif target.endswith(".json"):
        text = bump_digit(text, text.index('"value"'))
    else:
        text = bump_digit(text, text.index("\n"))
    path.write_text(text)
    return stdout


def check_metric_names(spec: dict) -> list[str]:
    errors = []
    unknown = {w["name"] for w in spec["workloads"]} - set(run.WORKLOADS)
    if unknown:
        errors.append(f"BENCHMARK.json workloads {sorted(unknown)} are not in run.WORKLOADS")
    want = {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }
    for name in TINY:
        for trace in (0, 1):
            record = run.run(tiny(name), seed=0, seconds=0.0, trace=trace)
            got = {k: unit for k, (_, unit) in record["metrics"].items()}
            if got != want[trace]:
                errors.append(f"{name} trace={trace}: metrics {sorted(got.items())}")
            errors += [f"{name} trace={trace}: {p}" for p in record["failures"] + record["problems"]]
            print(f"ok {name} trace={trace}: {len(got)} metrics, {record['attempted']} calls")
    return errors


def check_corruption_counts() -> list[str]:
    errors = []
    env = run.child_env()
    for name, target in CORRUPT.items():
        w = tiny(name)
        for corrupt_call in (0, 1):
            workdir = run.OUT / f"selftest-{name}-{corrupt_call}"
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            job = run.make_jobs(w, 0, workdir)[0]
            ledger = run.Ledger()
            for i in range(corrupt_call + 1):
                rc, _, _, stdout = run.cli_call(job, env, workdir / "stdout.txt")
                if i == corrupt_call:
                    stdout = corrupt(job, target, stdout)
                ledger.record(job, rc, stdout)
            failures = ledger.finish(w)
            shutil.rmtree(workdir, ignore_errors=True)
            caught_by = "oracle" if corrupt_call == 0 else "byte comparison"
            if len(failures) != 1:
                errors.append(f"{name}: corrupted {target or 'stdout'} not caught by {caught_by}")
            else:
                print(f"ok {name}: corrupted {target or 'stdout'} caught by {caught_by}: {failures[0]}")
    return errors


def main() -> int:
    if not (run.SRC / "corrgeom" / "cli.py").is_file():
        print("error: run from the root of a corrgeom checkout", file=sys.stderr)
        return 2
    run.pin_blas()
    run.import_corrgeom()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    errors = check_metric_names(spec) + check_corruption_counts()
    for line in errors:
        print(f"FAIL {line}", file=sys.stderr)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
