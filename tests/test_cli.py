"""The command-line entry point, called through cli.main(argv)."""

import csv
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corrgeom
from corrgeom import TimeSeries, TimeSeriesSet, cli, write_timeseries_csv
from corrgeom.testkit import SyntheticSpec, coupling_benchmark, simulate

# Stored analyze and events outputs on benchmark_csv, default settings, and
# validate outputs on benchmark_csv and near_copies_csv at K=21.
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_TOL = 1e-12


def benchmark_csv(tmp_path):
    path = tmp_path / "input.csv"
    write_timeseries_csv(simulate(coupling_benchmark(0)), path)
    return str(path)


def run_python(code):
    """stdout of ``code`` run in a fresh interpreter that imports this corrgeom."""
    env = dict(os.environ, PYTHONPATH=str(Path(corrgeom.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def write_csv(tmp_path, columns):
    path = tmp_path / "input.csv"
    data = TimeSeriesSet(tuple(TimeSeries(f"s{i}", 0, 1, c) for i, c in enumerate(columns)))
    write_timeseries_csv(data, path)
    return str(path)


def near_copies_csv(tmp_path):
    """Four near-copies of one series: correlations within ~1e-16 of 1, where
    arccos amplifies rounding past the triangle tolerance from window 1 on."""
    x = np.sin(np.arange(60) / 3)
    rng = np.random.default_rng(0)
    return write_csv(tmp_path, [x + 1e-8 * rng.normal(size=60) for _ in range(4)])


def test_validate_reports_metric_violations(tmp_path, capsys):
    path = near_copies_csv(tmp_path)
    assert cli.main(["validate", "--input", path, "--window", "21"]) == 1
    out, err = capsys.readouterr()
    assert "VIOLATION window@" in err
    assert out.startswith("FAIL: checked 80 distance matrices over 40 windows")


@pytest.mark.parametrize(
    "name, write_input, code",
    [
        pytest.param("benchmark", benchmark_csv, 0, id="benchmark"),
        pytest.param("near_copies", near_copies_csv, 1, id="near_copies"),
    ],
)
def test_validate_matches_the_golden_files(tmp_path, capsys, name, write_input, code):
    argv = ["validate", "--input", write_input(tmp_path), "--window", "21"]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == (GOLDEN / "validate" / f"{name}.stdout").read_text()
    violations = GOLDEN / "validate" / f"{name}.violations"
    want = violations.read_text().splitlines() if violations.exists() else []
    assert [line.split(":")[0] for line in err.splitlines()] == want


@pytest.mark.parametrize("command", ["analyze", "events"])
def test_a_metric_failure_names_its_window(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--input", near_copies_csv(tmp_path), "--window", "21", "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: window@1: distance matrix fails the metric axioms (FAIL: n=4 "
        "min_triangle_margin=-1.490e-08 symmetry=0.000e+00 diag=0.000e+00 "
        "min_entry=0.000e+00 violations=4)\n"
    )
    assert not out.exists()


def test_a_unit_row_failure_names_its_window(tmp_path, capsys):
    # Deviations near 1e-160 square to subnormals, so the computed norm is off
    # by more than NORM_TOL and the scaled rows fail the unit-norm check.
    rng = np.random.default_rng(0)
    path = write_csv(tmp_path, [1e-160 * rng.normal(size=40) for _ in range(3)])
    argv = ["analyze", "--input", path, "--window", "21", "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: window@0: components of 's0' are not unit length")
    assert not (tmp_path / "out").exists()


def huge_values_csv(tmp_path):
    """Three 40-sample series, one of them +-1e308: its window sums overflow,
    so its centred row is not finite."""
    rng = np.random.default_rng(0)
    columns = [rng.normal(size=40) for _ in range(3)]
    columns[1] = 1e308 * np.sign(rng.normal(size=40))
    return write_csv(tmp_path, columns)


def test_a_non_finite_unit_row_names_its_window(tmp_path, capsys):
    argv = ["analyze", "--input", huge_values_csv(tmp_path), "--window", "21"]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: window@0: components of 's1' are not finite\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "events", "validate"])
def test_overflowing_sums_print_the_error_and_no_numpy_warning(tmp_path, command):
    argv = [command, "--input", huge_values_csv(tmp_path), "--window", "21"]
    if command != "validate":
        argv += ["--out", str(tmp_path / "out")]
    env = dict(os.environ, PYTHONPATH=str(Path(corrgeom.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "corrgeom.cli", *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: window@0: components of 's1' are not finite\n"


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("validate", "--measures", "diameter"),
        ("validate", "--min-prominence", "3"),
        ("validate", "--min-separation", "5"),
        ("validate", "--match-window", "5"),
        ("validate", "--format", "svg"),
        ("validate", "--seed", "4"),
        ("analyze", "--min-prominence", "3"),
        ("analyze", "--min-separation", "5"),
        ("analyze", "--match-window", "5"),
    ],
)
def test_a_flag_the_command_does_not_use_exits_2(tmp_path, capsys, command, flag, value):
    out = tmp_path / "out"
    argv = [command, "--input", benchmark_csv(tmp_path), "--out", str(out), flag, value]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, settings",
    [
        ("validate", {"measures": ["diameter"]}),
        ("validate", {"seed": 4}),
        ("validate", {"formats": ["svg"]}),
        ("analyze", {"min_prominence": 3}),
        ("analyze", {"match_window": 5}),
    ],
    ids=["validate-measures", "validate-seed", "validate-formats", "analyze-min_prominence",
         "analyze-match_window"],
)
def test_a_config_key_the_command_does_not_use_exits_2(tmp_path, capsys, command, settings):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"window": 21, **settings}))
    out = tmp_path / "out"
    argv = [command, "--input", benchmark_csv(tmp_path), "--config", str(config), "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: unknown config keys: {sorted(settings)}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, settings",
    [
        ("validate", {"window": 21, "stride": 2}),
        ("analyze", {"measures": ["diameter"], "seed": 4}),
        ("events", {"measures": ["diameter"], "min_prominence": 0.1, "match_window": 5}),
    ],
    ids=["validate", "analyze", "events"],
)
def test_a_config_key_the_command_has_a_flag_for_is_used(tmp_path, capsys, command, settings):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    out = tmp_path / "out"
    argv = [command, "--input", benchmark_csv(tmp_path), "--out", str(out)]
    flags = []
    for key, value in settings.items():
        value = ",".join(value) if isinstance(value, list) else str(value)
        flags += ["--" + key.replace("_", "-"), value]
    runs = []
    for extra in (["--config", str(config)], flags, []):
        assert cli.main([*argv, *extra]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
        runs.append((capsys.readouterr().out, files))
    assert runs[0] == runs[1] != runs[2]


def test_simulate_writes_the_generated_series(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--series", "3", "--length", "80", "--episodes", "10:40:0.9",
            "--seed", "4", "--out", str(out)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"{out}\n{out.with_suffix('.truth.json')}\n"
    want = simulate(SyntheticSpec(3, 80, ((10, 40, 0.9),), 0.1, 4))
    assert np.array_equal(corrgeom.read_timeseries_csv(out).matrix(), want.matrix())


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
    out = tmp_path / "out"
    argv = ["events", "--input", benchmark_csv(tmp_path), "--out", str(out), "--format", "svg"]
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
    assert run_python(code) == "[]\n"


@pytest.mark.parametrize(
    "flag, value",
    [("--match-window", "-5"), ("--min-separation", "-5"), ("--min-prominence", "nan")],
)
def test_bad_detector_settings_exit_2_before_any_window(tmp_path, capsys, monkeypatch, flag, value):
    def fail(*args):
        raise AssertionError("windows computed")

    monkeypatch.setattr(cli, "sliding_measures", fail)
    argv = ["events", "--input", benchmark_csv(tmp_path), "--out", str(tmp_path / "out"), flag, value]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {flag[2:]} must be >= 0\n"
    assert not (tmp_path / "out").exists()


def test_events_logs_each_written_file(tmp_path, caplog):
    out = tmp_path / "out"
    with caplog.at_level(logging.INFO, logger="corrgeom"):
        assert cli.main(["events", "--input", benchmark_csv(tmp_path), "--out", str(out)]) == 0
    written = [r.getMessage() for r in caplog.records if r.name == "corrgeom"]
    assert written == [
        f"wrote {out / name}"
        for name in (
            "events_diameter.json",
            "events_max_triangle_area.json",
            "comparison.json",
            "manifest.json",
        )
    ]


def test_failed_run_removes_its_partial_output(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise ValueError("render failed")

    monkeypatch.setattr(cli, "render_measures_svg", fail)
    out = tmp_path / "out"
    argv = ["events", "--input", benchmark_csv(tmp_path), "--out", str(out), "--format", "svg"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: render failed\n"
    assert list(out.iterdir()) == []


def scipy_modules_after_run(tmp_path, command):
    """The scipy modules, and corrgeom.testkit, loaded by one CLI run in a
    fresh interpreter."""
    code = (
        "import json, sys\n"
        "from corrgeom import cli\n"
        f"assert cli.main([{command!r}, '--input', {benchmark_csv(tmp_path)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.startswith('scipy') or m == 'corrgeom.testkit')))\n"
    )
    return json.loads(run_python(code).splitlines()[-1])


def test_events_run_loads_no_scipy(tmp_path):
    assert scipy_modules_after_run(tmp_path, "events") == []
    assert (tmp_path / "out" / "events_diameter.json").exists()


@pytest.mark.parametrize("command", ["analyze", "validate"])
def test_run_loads_no_scipy(tmp_path, command):
    assert scipy_modules_after_run(tmp_path, command) == []
    assert (tmp_path / "out" / "manifest.json").exists() == (command == "analyze")


def test_failed_run_keeps_the_earlier_runs_files(tmp_path, capsys, monkeypatch):
    out = tmp_path / "out"
    argv = ["events", "--input", benchmark_csv(tmp_path), "--out", str(out), "--format", "svg"]
    assert cli.main(argv) == 0
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert len(before) == 5

    def fail(*args):
        raise ValueError("render failed")

    monkeypatch.setattr(cli, "render_measures_svg", fail)
    capsys.readouterr()
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: render failed\n"
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def assert_csv_matches(got, want):
    """Same header, timestamps and gap flags; floats within GOLDEN_TOL."""
    got_rows = list(csv.reader(got.open()))
    want_rows = list(csv.reader(want.open()))
    assert got_rows[0] == want_rows[0]
    assert len(got_rows) == len(want_rows)
    exact = [column in ("timestamp", "gap") for column in want_rows[0]]
    for g, w in zip(got_rows[1:], want_rows[1:]):
        assert len(g) == len(w)
        for x, y, is_exact in zip(g, w, exact):
            if is_exact or not y:
                assert x == y
            else:
                assert abs(float(x) - float(y)) <= GOLDEN_TOL


def assert_json_matches(got, want):
    """Equal after parsing, except event values and prominences, which may
    differ by GOLDEN_TOL."""
    got, want = json.loads(got.read_text()), json.loads(want.read_text())
    got_events, want_events = got.pop("events", []), want.pop("events", [])
    assert got == want
    assert len(got_events) == len(want_events)
    for g, w in zip(got_events, want_events):
        assert set(g) == set(w)
        for key in ("timestamp", "left_base", "right_base"):
            assert g[key] == w[key]
        for key in ("value", "prominence"):
            assert abs(g[key] - w[key]) <= GOLDEN_TOL


@pytest.mark.parametrize("command", ["analyze", "events"])
def test_outputs_match_the_golden_files(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert cli.main([command, "--input", benchmark_csv(tmp_path), "--out", str(out)]) == 0
    golden = sorted((GOLDEN / command).iterdir())
    assert {p.name for p in out.iterdir()} == {p.name for p in golden} | {"manifest.json"}
    for want in golden:
        match = assert_csv_matches if want.suffix == ".csv" else assert_json_matches
        match(out / want.name, want)
