"""The command-line entry point, called through cli.main(argv)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import corrgeom
from corrgeom import TimeSeries, TimeSeriesSet, cli, write_timeseries_csv
from corrgeom.testkit import coupling_benchmark, simulate


def write_csv(tmp_path, columns):
    path = tmp_path / "input.csv"
    data = TimeSeriesSet(tuple(TimeSeries(f"s{i}", 0, 1, c) for i, c in enumerate(columns)))
    write_timeseries_csv(data, path)
    return str(path)


def test_validate_reports_metric_violations(tmp_path, capsys):
    # Four near-copies of one series: correlations within ~1e-16 of 1, where
    # arccos amplifies rounding past the triangle tolerance.
    x = np.sin(np.arange(60) / 3)
    rng = np.random.default_rng(0)
    path = write_csv(tmp_path, [x + 1e-8 * rng.normal(size=60) for _ in range(4)])
    assert cli.main(["validate", "--input", path, "--window", "21"]) == 1
    out, err = capsys.readouterr()
    assert "VIOLATION window@" in err
    assert out.startswith("FAIL: checked 80 distance matrices over 40 windows")


def test_validate_rejects_a_single_series(tmp_path, capsys):
    path = write_csv(tmp_path, [np.sin(np.arange(60) / 3)])
    assert cli.main(["validate", "--input", path, "--window", "21"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: validate needs at least 2 series\n"


def test_format_accepts_only_svg(tmp_path, capsys):
    path = write_csv(tmp_path, [np.sin(np.arange(60) / s) for s in (2, 3, 5)])
    assert cli.FORMATS == ("svg",)
    argv = ["analyze", "--input", path, "--out", str(tmp_path / "out"), "--format", "csv"]
    assert cli.main(argv) == 2
    assert "unknown format 'csv'" in capsys.readouterr().err


def test_events_outputs_are_byte_identical(tmp_path, capsys):
    path = tmp_path / "input.csv"
    write_timeseries_csv(simulate(coupling_benchmark(0)), path)
    out = tmp_path / "out"
    argv = ["events", "--input", str(path), "--out", str(out), "--format", "svg"]
    runs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert set(runs[0]) == {
        "comparison.json",
        "events_diameter.json",
        "events_max_triangle_area.json",
        "manifest.json",
        "overlay.svg",
    }
    assert runs[0] == runs[1]


def test_import_loads_no_scipy():
    code = "import sys, corrgeom.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = dict(os.environ, PYTHONPATH=str(Path(corrgeom.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
