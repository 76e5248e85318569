"""The command-line entry point, called through cli.main(argv)."""

import argparse
import csv
import errno
import hashlib
import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import corrgeom
from corrgeom import (
    TimeSeries,
    TimeSeriesSet,
    cli,
    write_timeseries_csv,
)
from corrgeom.events import CHUNK_ELEMENTS, MEASURE_KINDS, _windows_per_chunk
from corrgeom import events, metric
from corrgeom.metric import PROJECTIVE, SPHERICAL
from corrgeom.testkit import SyntheticSpec, coupling_benchmark, simulate
import oracles
from oracles import WindowSpec, verify_metric_axioms, window_correlations, window_measures

# Stored analyze and events outputs on benchmark_csv, default settings, and
# validate outputs on benchmark_csv and, with arccos_distances, near_copies_csv
# at K=21.
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


def near_copies_csv(tmp_path, eps=1e-8, length=60, negate=()):
    """Four near-copies of one series, sin(t/3) + eps * noise, the columns in
    ``negate`` negated: correlations within ~1e-16 of +-1 at eps = 1e-8."""
    x = np.sin(np.arange(length) / 3)
    rng = np.random.default_rng(0)
    columns = [x + eps * rng.normal(size=length) for _ in range(4)]
    return write_csv(tmp_path, [-c if i in negate else c for i, c in enumerate(columns)])


def arccos_distances(rho, units, kind):
    """Angular distances from arccos alone, as angular_distances computed them
    before it took entries near |rho| = 1 from the chord. On near-copies
    their rounding breaks the triangle inequality by more than TRIANGLE_TOL,
    so validate run with them has failing windows to report."""
    entries = np.arccos(rho if kind == SPHERICAL else np.abs(rho))
    idx = np.arange(entries.shape[-1])
    entries[..., idx, idx] = 0.0
    return entries


def test_validate_reports_metric_violations(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(events, "angular_distances", arccos_distances)
    path = near_copies_csv(tmp_path)
    assert cli.main(["validate", "--input", path, "--window", "21"]) == 1
    out, err = capsys.readouterr()
    assert "VIOLATION window@" in err
    assert out.startswith("FAIL: checked 80 distance matrices over 40 windows")


def test_a_nan_distance_fails_its_matrix_and_is_never_the_worst(tmp_path, capsys, monkeypatch):
    # The spherical matrix of each chunk's first window (windows 0 and 390)
    # gets a NaN distance: a NaN margin, which fails but is never the worst.
    def nan_distances(rho, units, kind):
        entries = metric.angular_distances(rho, units, kind)
        if kind == SPHERICAL:
            entries[0, 0, 1] = entries[0, 1, 0] = np.nan
        return entries

    monkeypatch.setattr(events, "angular_distances", nan_distances)
    assert cli.main(["validate", "--input", benchmark_csv(tmp_path), "--window", "21"]) == 1
    out, err = capsys.readouterr()
    assert [line.split(":")[0] for line in err.splitlines()] == [
        "VIOLATION window@0 spherical", "VIOLATION window@390 spherical"
    ]
    golden = (GOLDEN / "validate" / "benchmark.stdout").read_text()
    assert out == golden.replace("pass:", "FAIL:")


@pytest.mark.parametrize(
    "name, write_input, code",
    [
        pytest.param("benchmark", benchmark_csv, 0, id="benchmark"),
        pytest.param("near_copies", near_copies_csv, 1, id="near_copies"),
    ],
)
def test_validate_matches_the_golden_files(tmp_path, capsys, monkeypatch, name, write_input, code):
    # The near-copies golden holds the report of arccos-only distances, which
    # fail; the engine's own distances pass on that input.
    if name == "near_copies":
        monkeypatch.setattr(events, "angular_distances", arccos_distances)
    argv = ["validate", "--input", write_input(tmp_path), "--window", "21"]
    assert cli.main(argv) == code
    out, err = capsys.readouterr()
    assert out == (GOLDEN / "validate" / f"{name}.stdout").read_text()
    violations = GOLDEN / "validate" / f"{name}.violations"
    want = violations.read_text().splitlines() if violations.exists() else []
    assert [line.split(":")[0] for line in err.splitlines()] == want


@pytest.mark.parametrize("negate", [(), (1,)], ids=["copies", "negated"])
@pytest.mark.parametrize("eps", [1e-8, 1e-10])
def test_near_copies_give_measures_events_and_a_passing_validate(tmp_path, capsys, eps, negate):
    path = near_copies_csv(tmp_path, eps, length=200, negate=negate)
    out = tmp_path / "out"
    argv = ["--input", path, "--window", "21", "--out", str(out)]
    assert cli.main(["analyze", *argv]) == 0
    gaps, want = window_measures(corrgeom.read_timeseries_csv(path), 21)
    for kind in MEASURE_KINDS:
        rows = list(csv.DictReader((out / f"measure_{kind}.csv").read_text().splitlines()))
        assert [int(row["gap"]) for row in rows] == gaps.astype(int).tolist()
        values = np.array([float(row["value"]) for row in rows])
        assert np.abs(values - want[kind]).max() <= GOLDEN_TOL
    assert cli.main(["events", *argv]) == 0
    assert cli.main(["validate", *argv[:4]]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "pass: checked 360 distance matrices over 180 windows"
    )


def run_commands(capsys, path, out):
    """Each file that analyze and events --format svg write under ``out``
    ({"<command>/<name>": bytes}, manifests left out) and validate's stdout,
    asserting that all three exit 0 with nothing on stderr."""
    files = {}
    for command in ("analyze", "events"):
        argv = [command, "--input", path, "--out", str(out / command), "--format", "svg"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        for p in sorted((out / command).iterdir()):
            if p.name != "manifest.json":
                files[f"{command}/{p.name}"] = p.read_bytes()
    assert cli.main(["validate", "--input", path]) == 0
    validate_out, err = capsys.readouterr()
    assert err == ""
    return files, validate_out


def scaled_csv(tmp_path, name, data, scale):
    """``data`` with every sample times ``scale``, written to tmp_path / name."""
    path = tmp_path / name
    series = tuple(TimeSeries(s.id, s.start, s.step, scale * s.values) for s in data.series)
    write_timeseries_csv(TimeSeriesSet(series), path)
    return str(path)


def assert_no_gaps(out):
    for kind in MEASURE_KINDS:
        rows = csv.DictReader((out / "analyze" / f"measure_{kind}.csv").read_text().splitlines())
        assert {row["gap"] for row in rows} == {"0"}


@pytest.mark.parametrize(
    "scale, exact",
    [(2.0**-600, True), (2.0**1000, True), (1e-160, False), (1e-300, False), (1e300, False)],
    ids=["2^-600", "2^1000", "1e-160", "1e-300", "1e300"],
)
def test_a_series_in_any_units_gives_the_unit_scale_results(tmp_path, capsys, scale, exact):
    # Samples near 2^-600, 1e-160 or 1e-300 square to zero or subnormals, and
    # near 2^1000 or 1e300 they square to inf. series._window_units scales
    # each window row by a power of two first, which is exact, so a power of
    # two changes no byte of any output, and any other scale changes values
    # by rounding only.
    data = simulate(coupling_benchmark(0))
    want, want_validate = run_commands(capsys, scaled_csv(tmp_path, "unit.csv", data, 1.0),
                                       tmp_path / "unit")
    out = tmp_path / "scaled"
    got, got_validate = run_commands(capsys, scaled_csv(tmp_path, "scaled.csv", data, scale), out)
    assert_no_gaps(out)
    assert set(got) == set(want)
    if exact:
        assert got == want
        assert got_validate == want_validate
        return
    for name in want:
        if name.endswith(".csv"):
            assert_csv_matches(out / name, tmp_path / "unit" / name)
        elif name.endswith(".json"):
            assert_json_matches(out / name, tmp_path / "unit" / name)
    assert got_validate.startswith("pass: checked 960 distance matrices over 480 windows")


def test_windows_that_mix_scales_give_the_per_window_measures(tmp_path, capsys):
    # 300 samples of unit scale, then 100 of scale 1e-160, whose squares are
    # subnormal: the windows from 300 on see only tiny samples, and those
    # before it both scales. None is a gap, every window has the per-window
    # reference's measures, and the tiny windows those of the same samples
    # at unit scale.
    rng = np.random.default_rng(0)
    columns = [np.r_[rng.normal(size=300), 1e-160 * rng.normal(size=100)] for _ in range(3)]
    path = write_csv(tmp_path, columns)
    out = tmp_path / "out"
    run_commands(capsys, path, out)
    assert_no_gaps(out)
    data = corrgeom.read_timeseries_csv(path)
    gaps, want = window_measures(data, 21)
    assert not gaps.any()
    tail = TimeSeriesSet(tuple(TimeSeries(s.id, 0, 1, 1e160 * s.values[300:]) for s in data.series))
    tail = window_measures(tail, 21)[1]
    for kind in MEASURE_KINDS:
        rows = csv.DictReader((out / "analyze" / f"measure_{kind}.csv").read_text().splitlines())
        values = np.array([float(row["value"]) for row in rows])
        assert np.abs(values - want[kind]).max() <= GOLDEN_TOL
        assert np.abs(values[300:] - tail[kind]).max() <= GOLDEN_TOL


@pytest.mark.parametrize(
    "text, message",
    [
        pytest.param(
            "t,a,b\n0,1,2\n1," + "9" * 140_000 + ",3\n",
            "unreadable CSV at data row 2",
            id="long-cell",
        ),
        pytest.param(
            't,a,b\n0,"1",2\n1,' + "x" * 140_000 + ",3\n",
            "unreadable CSV at data row 2",
            id="long-cell-and-quotes",
        ),
        pytest.param(
            "t,a," + "b" * 140_000 + "\n0,1,2\n", "unreadable CSV in the header row", id="long-name"
        ),
    ],
)
def test_a_cell_past_the_csv_field_limit_exits_2(tmp_path, capsys, text, message):
    path = tmp_path / "input.csv"
    path.write_text(text)
    assert cli.main(["validate", "--input", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}: field larger than field limit (131072)\n"


def huge_values_csv(tmp_path, magnitude=1e308):
    """Three 40-sample series, one of them +-``magnitude``: at 1e308 its
    window sums and squares would overflow without the power-of-two scaling
    of series._window_units."""
    rng = np.random.default_rng(0)
    columns = [rng.normal(size=40) for _ in range(3)]
    columns[1] = magnitude * np.sign(rng.normal(size=40))
    return write_csv(tmp_path, columns)


@pytest.mark.parametrize("command", ["analyze", "events", "validate"])
def test_huge_values_run_with_no_numpy_warning(tmp_path, command):
    # A child process, so a numpy warning would reach stderr whatever the
    # warning filters of the test run. The +-1e308 series has the measures of
    # the +-1 series, to rounding.
    runs = []
    for magnitude in (1e308, 1.0):
        out = tmp_path / f"out{magnitude}"
        argv = [command, "--input", huge_values_csv(tmp_path, magnitude), "--window", "21"]
        if command != "validate":
            argv += ["--out", str(out)]
        env = dict(os.environ, PYTHONPATH=str(Path(corrgeom.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-m", "corrgeom.cli", *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0
        assert done.stderr == ""
        runs.append((out, done.stdout))
    (huge, huge_stdout), (unit, unit_stdout) = runs
    if command == "validate":
        assert huge_stdout.startswith("pass: checked 40 distance matrices over 20 windows")
        return
    for want in sorted(unit.iterdir()):
        if want.suffix == ".csv":
            assert_csv_matches(huge / want.name, want)
        elif want.name != "manifest.json":
            assert_json_matches(huge / want.name, want)


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("validate", "--measures", "diameter"),
        ("validate", "--min-prominence", "3"),
        ("validate", "--min-separation", "5"),
        ("validate", "--match-window", "5"),
        ("validate", "--format", "svg"),
        ("validate", "--seed", "4"),
        ("analyze", "--seed", "4"),
        ("events", "--seed", "4"),
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
        ("analyze", {"seed": 4}),
        ("events", {"seed": 4}),
    ],
    ids=["validate-measures", "validate-seed", "validate-formats", "analyze-min_prominence",
         "analyze-match_window", "analyze-seed", "events-seed"],
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
        ("analyze", {"measures": ["diameter"], "stride": 2}),
        ("events", {"measures": ["diameter"], "min_prominence": 0.1, "match_window": 5}),
        ("events", {"min_prominence": 1, "min_separation": 5}),
        ("analyze", {"measures": "diameter"}),
    ],
    ids=["validate", "analyze", "events", "events-int-prominence", "analyze-measures-text"],
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


@pytest.mark.parametrize(
    "settings, flag",
    [({"window": 21.5}, "--window"), ({"window": True}, "--window")],
    ids=["float-window", "true-window"],
)
def test_a_config_value_its_flag_rejects_exits_2(tmp_path, capsys, settings, flag):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(settings))
    out = tmp_path / "out"
    argv = ["analyze", "--input", benchmark_csv(tmp_path), "--config", str(config), "--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert f"argument {flag}: invalid int value" in capsys.readouterr().err
    assert not out.exists()


def numeric_flags():
    """(command, flag, dest, low, has_config) for each flag of each subcommand
    of build_parser() whose type argparse names int or float; ``low`` is the
    bound that cli._number's type closes over, None where it has none."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (command, action.option_strings[0], action.dest,
         inspect.getclosurevars(action.type).nonlocals["low"],
         "config" in {a.dest for a in parser._actions})
        for command, parser in sub.choices.items()
        for action in parser._actions
        if getattr(action.type, "__name__", None) in ("int", "float")
    ]


NUMERIC_FLAGS = numeric_flags()


def test_each_numeric_flag_takes_its_bound():
    bounds = {flag: low for _, flag, _, low, _ in NUMERIC_FLAGS}
    assert {"--window", "--seed", "--min-prominence", "--noise-sigma"} <= bounds.keys()
    assert [bounds[flag] for flag in ("--window", "--stride", "--min-separation")] == [2, 1, 0]
    parser = cli.build_parser()
    for command, flag, dest, low, _ in NUMERIC_FLAGS:
        if low is not None:
            args = parser.parse_args([command, f"{flag}={low}", "--out", "x"])
            assert getattr(args, dest) == low


@pytest.mark.parametrize(
    "command, flag, dest, value, source",
    [
        (command, flag, dest, value, source)
        for command, flag, dest, low, has_config in NUMERIC_FLAGS
        for value in ["2_1", "٢١", *([] if low is None else [str(low - 1)])]
        for source in (["flag", "config"] if has_config else ["flag"])
    ],
)
def test_a_bad_numeric_flag_value_exits_2_before_any_input_is_read(
    tmp_path, capsys, monkeypatch, command, flag, dest, value, source
):
    # 2_1 and the Arabic-Indic digits 21 are what int() and float() read as 21.
    def fail(*args):
        raise AssertionError("input read")

    monkeypatch.setattr(cli, "read_timeseries_csv", fail)
    out = tmp_path / "out"
    if command == "simulate":
        argv = [command, "--out", str(out / "sim.csv")]
    else:
        argv = [command, "--input", str(tmp_path / "input.csv"), "--out", str(out)]
    if source == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({dest: value}))
        argv += ["--config", str(config)]
    else:
        argv.append(f"{flag}={value}")  # the = form reads "-1" as a value
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert f"error: argument {flag}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key", [("analyze", "stride"), ("events", "min_separation"), ("events", "measures")]
)
def test_a_null_config_value_leaves_its_setting_unset(tmp_path, capsys, command, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: None}))
    out = tmp_path / "out"
    argv = [command, "--input", benchmark_csv(tmp_path), "--out", str(out)]
    runs = []
    for extra in (["--config", str(config)], []):
        assert cli.main([*argv, *extra]) == 0
        runs.append((capsys.readouterr().out, {p.name: p.read_bytes() for p in out.iterdir()}))
    assert runs[0] == runs[1]


def test_a_null_input_in_the_config_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"input": None}))
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: an --input CSV is required\n"
    assert not out.exists()


def test_a_null_out_in_the_config_writes_to_the_default_directory(tmp_path, capsys, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": None}))
    monkeypatch.chdir(tmp_path)
    assert cli.main(["analyze", "--input", benchmark_csv(tmp_path), "--config", str(config)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == str(Path("corrgeom_out", "manifest.json"))
    assert not (tmp_path / "None").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_an_empty_measure_list_exits_2(tmp_path, capsys, source):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"measures": []}))
    extra = ["--measures", ""] if source == "flag" else ["--config", str(config)]
    out = tmp_path / "out"
    argv = ["analyze", "--input", benchmark_csv(tmp_path), "--out", str(out), *extra]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: at least one measure kind is required\n"
    assert not out.exists()


def run_cli(argv, level):
    """A ``python -m corrgeom.cli`` child process with CORRGEOM_LOG_LEVEL set
    to ``level``, or unset when it is None."""
    env = dict(os.environ, PYTHONPATH=str(Path(corrgeom.__file__).parents[1]))
    env.pop("CORRGEOM_LOG_LEVEL", None)
    if level is not None:
        env["CORRGEOM_LOG_LEVEL"] = level
    return subprocess.run([sys.executable, "-m", "corrgeom.cli", *argv], env=env,
                          capture_output=True, text=True)


def test_an_unknown_log_level_exits_2(tmp_path):
    done = run_cli(["validate", "--input", benchmark_csv(tmp_path)], "info")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: Unknown level: 'info'\n"


def test_simulate_writes_the_generated_series(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    argv = ["simulate", "--series", "3", "--length", "80", "--episodes", "10:40:0.9",
            "--seed", "4", "--out", str(out)]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == f"{out}\n{out.with_suffix('.truth.json')}\n"
    want = simulate(SyntheticSpec(3, 80, ((10, 40, 0.9),), 0.1, 4))
    assert np.array_equal(corrgeom.read_timeseries_csv(out).matrix(), want.matrix())
    write_timeseries_csv(want, tmp_path / "want.csv")
    assert out.read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert out.with_suffix(".truth.json").read_text(encoding="utf-8") == (
        '{\n  "episodes": [\n    [\n      10,\n      40,\n      0.9\n    ]\n  ],\n'
        '  "length": 80,\n  "n_series": 3,\n  "noise_sigma": 0.1,\n  "rng_seed": 4\n}\n'
    )


def test_simulate_with_a_directory_at_its_sidecar_path_exits_2_and_writes_nothing(
    tmp_path, capsys
):
    (tmp_path / "x.truth.json").mkdir()
    before = tree(tmp_path)
    assert cli.main(["simulate", "--out", str(tmp_path / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert tree(tmp_path) == before  # no x.csv and no temporary file


@pytest.mark.parametrize(
    "episode", ["10:20.5:0.5", "10:20:strong", "10:20", "1_0:2_0:0.5", "١٠:20:0.5"]
)
def test_simulate_rejects_a_bad_episode(tmp_path, capsys, episode):
    out = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--episodes", f"0:5:0.5,{episode}", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: bad episode {episode!r}; expected start:end:strength\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "0"])
def test_simulate_rejects_a_noise_sigma_that_is_not_finite_and_positive(tmp_path, capsys, value):
    out = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--noise-sigma", value, "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: noise_sigma must be finite and > 0, got {float(value)}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("first", [9_200_000_000_000_000_000, 10**19])
@pytest.mark.parametrize("command", ["analyze", "events", "validate"])
def test_ticks_past_2_63_exit_2_and_write_nothing(tmp_path, capsys, command, first):
    # Written by hand: no TimeSeries holds these ticks, so write_timeseries_csv cannot.
    rng = np.random.default_rng(0)
    path = tmp_path / "input.csv"
    path.write_text("tick,a,b,c\n" + "".join(
        f"{first + i * 10**15}," + ",".join(map(repr, rng.normal(size=3).tolist())) + "\n"
        for i in range(60)
    ))
    out = tmp_path / "out"
    argv = [command, "--input", str(path), "--window", "21"]
    argv += [] if command == "validate" else ["--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", (
        f"error: series 'a' has ticks from {first} to {first + 59 * 10**15}, "
        "outside the signed 64-bit range [-2^63, 2^63)\n"
    ))
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "events"])
def test_a_repeated_measure_kind_exits_2_and_writes_nothing(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = [command, "--input", benchmark_csv(tmp_path), "--measures", "diameter,diameter",
            "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: measure kind 'diameter' is given more than once\n"
    assert not out.exists()


@pytest.mark.parametrize("n", [1, 2])
def test_validate_rejects_fewer_than_three_series(tmp_path, capsys, n):
    path = write_csv(tmp_path, [np.sin(np.arange(60) / s) for s in range(3, 3 + n)])
    assert cli.main(["validate", "--input", path, "--window", "21"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: validate needs at least 3 series\n"


def test_validate_checks_no_matrix_where_a_series_is_constant(tmp_path, capsys):
    # Every window gaps, so the one chunk holds no matrix.
    path = write_csv(tmp_path, [np.sin(np.arange(60) / 2), np.sin(np.arange(60) / 3), np.ones(60)])
    assert cli.main(["validate", "--input", path, "--window", "21"]) == 0
    assert capsys.readouterr() == (
        "pass: checked 0 distance matrices over 40 windows; worst triangle margin inf at None\n",
        "",
    )


@pytest.mark.parametrize("length", [21, 22], ids=["1-window", "2-windows"])
def test_events_on_fewer_than_three_windows_finds_no_event(tmp_path, capsys, length):
    path = write_csv(tmp_path, [np.sin(np.arange(length) / s) for s in (2, 3, 5)])
    out = tmp_path / "out"
    argv = ["events", "--input", path, "--window", "21", "--out", str(out), "--format", "svg"]
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    for kind in MEASURE_KINDS:
        assert json.loads((out / f"events_{kind}.json").read_text())["events"] == []
    assert (out / "overlay.svg").exists()


@pytest.mark.parametrize("command", ["analyze", "events", "validate"])
def test_a_window_longer_than_the_series_exits_2_and_one_as_long_runs_once(
    tmp_path, capsys, command
):
    path = write_csv(tmp_path, [np.sin(np.arange(30) / s) for s in (2, 3, 5)])
    out = tmp_path / "out"
    argv = [command, "--input", path, "--window", "31"]
    argv += [] if command == "validate" else ["--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", "error: window 31 exceeds series length 30\n")
    assert not out.exists()

    argv[argv.index("31")] = "30"
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    if command == "validate":
        assert stdout.startswith("pass: checked 2 distance matrices over 1 windows;")
    else:
        assert json.loads((out / "manifest.json").read_text())["n_windows"] == 1


def test_a_week_date_column_exits_2(tmp_path, capsys):
    # date.fromisoformat reads week dates from Python 3.11 on, but not on 3.10.
    rng = np.random.default_rng(0)
    lines = ["date,a,b,c"] + [
        f"2020-W{week:02}-{day}," + ",".join(map(str, rng.normal(size=3)))
        for week in range(1, 5)
        for day in range(1, 8)
    ]
    path = tmp_path / "input.csv"
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["validate", "--input", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: first column must be all integers or all ISO dates; "
        "got '2020-W01-1' at data row 1\n"
    )


def test_format_accepts_only_svg(tmp_path, capsys):
    path = write_csv(tmp_path, [np.sin(np.arange(60) / s) for s in (2, 3, 5)])
    assert cli.FORMATS == ("svg",)
    argv = ["analyze", "--input", path, "--out", str(tmp_path / "out"), "--format", "csv"]
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert "argument --format: unknown format 'csv'" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "command, defaults",
    [
        ("analyze", ["K (default: 21)", "windows (default: 1)", "(default: corrgeom_out)",
                     "(default: diameter,max_triangle_area;",
                     "svg (default: none)"]),
        ("events", ["K (default: 21)", "windows (default: 1)", "(default: corrgeom_out)",
                    "(default: diameter,max_triangle_area;",
                    "svg (default: none)", "minimum (default: 0.05)",
                    "events (default: one window, K times the tick step)",
                    "measures (default: one window, K times the tick step)"]),
        ("validate", ["K (default: 21)", "windows (default: 1)", "(default: corrgeom_out)"]),
        ("simulate", ["series (default: 4)", "series (default: 500)",
                      "strength...] (default: none)", "deviation (default: 0.1)",
                      "seed (default: 0)"]),
    ],
)
def test_help_shows_each_default(capsys, command, defaults):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # argparse wraps the help lines
    for default in defaults:
        assert default in text
    assert text.count("(default:") == len(defaults)


@pytest.mark.parametrize("command", ["analyze", "events"])
def test_the_manifest_config_holds_the_commands_own_settings(tmp_path, capsys, command):
    # Each command's own settings, with events' separation and match window
    # resolved to ticks; analyze has no detector settings, and rejects them
    # as flags. The input's hash is taken in 1 MiB blocks: the second input,
    # 1.3 MB, takes two.
    big = tmp_path / "big.csv"
    write_timeseries_csv(simulate(SyntheticSpec(4, 16_000, (), 0.1, 0)), big)
    assert big.stat().st_size > 1 << 20
    for path in (benchmark_csv(tmp_path), str(big)):
        out = tmp_path / f"out_{Path(path).stem}"
        assert cli.main([command, "--input", path, "--out", str(out)]) == 0
        want = {"schema_version": 1, "input": path, "window": 21, "stride": 1,
                "measures": list(MEASURE_KINDS), "out": str(out), "formats": []}
        if command == "events":
            want.update(min_prominence=0.05, min_separation=21, match_window=21)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"] == want
        assert manifest["input_sha256"] == hashlib.sha256(Path(path).read_bytes()).hexdigest()


# Event keys that hold ticks, or lists or pairs of ticks.
TICK_KEYS = {"timestamp", "left_base", "right_base", "min_separation", "match_window",
             "a_only", "b_only", "matched"}


def ticks_times(scale, obj, key=None):
    """An events or comparison JSON object with every tick times ``scale``."""
    if isinstance(obj, dict):
        return {k: ticks_times(scale, v, k) for k, v in obj.items()}
    if isinstance(obj, list):
        return [ticks_times(scale, v, key) for v in obj]
    return scale * obj if key in TICK_KEYS else obj


def test_events_on_ticks_of_step_100_are_the_step_1_events_times_100(tmp_path, capsys):
    # Unset, the separation and the match window span one window, K * step
    # ticks. Taken as K ticks, they would span a hundredth of a window here,
    # and give 36 diameter events and 11 matches in place of 10 and 9.
    data = simulate(SyntheticSpec(4, 400, ((100, 180, 0.9),), 0.1, 3))
    runs = []
    for step in (1, 100):
        path = tmp_path / f"step{step}.csv"
        series = tuple(TimeSeries(s.id, 0, step, s.values) for s in data.series)
        write_timeseries_csv(TimeSeriesSet(series), path)
        out = tmp_path / f"out{step}"
        assert cli.main(["events", "--input", str(path), "--out", str(out)]) == 0
        runs.append({p.name: json.loads(p.read_text()) for p in sorted(out.glob("*.json"))})
        assert runs[-1].pop("manifest.json")["config"]["min_separation"] == 21 * step
    unit, scaled = runs
    assert [len(unit[f"events_{kind}.json"]["events"]) for kind in MEASURE_KINDS] == [10, 10]
    assert unit["comparison.json"]["comparisons"][0]["n_matched"] == 9
    assert scaled == ticks_times(100, unit)


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
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: must be >= 0\n")
    assert not (tmp_path / "out").exists()


LOG_LEVELS = [("INFO", True), ("DEBUG", True), ("NOTSET", True), ("WARNING", False),
              ("ERROR", False), (None, False)]
LOG_LEVEL_IDS = ["INFO", "DEBUG", "NOTSET", "WARNING", "ERROR", "unset"]


@pytest.mark.parametrize(
    "command, level, logged",
    [(command, *case) for command in ("events", "simulate") for case in LOG_LEVELS],
    ids=[*LOG_LEVEL_IDS, *(f"simulate-{i}" for i in LOG_LEVEL_IDS)],
)
def test_events_logs_each_written_file_at_info_and_below(tmp_path, command, level, logged):
    # The lines logging.basicConfig's handler wrote for log.info("wrote %s", path).
    out = tmp_path / "out"
    if command == "events":
        argv = ["events", "--input", benchmark_csv(tmp_path), "--out", str(out)]
        names = ("events_diameter.json", "events_max_triangle_area.json", "comparison.json",
                 "manifest.json")
    else:
        argv, names = ["simulate", "--out", str(out / "sim.csv")], ("sim.csv", "sim.truth.json")
    done = run_cli(argv, level)
    assert done.returncode == 0
    assert done.stdout == "".join(f"{out / name}\n" for name in names)
    want = "".join(f"INFO:corrgeom:wrote {out / name}\n" for name in names)
    assert done.stderr == (want if logged else "")


# Modules that neither `import corrgeom.cli` nor a validate run may load: each
# adds milliseconds to every call's start-up. Checked by name, not by timing.
START_UP_FREE = "{'logging', 'hashlib', 'json', 'corrgeom.testkit'}"


def test_import_loads_no_logging_hashlib_or_json():
    code = f"import sys, corrgeom.cli; print(sorted({START_UP_FREE} & set(sys.modules)))"
    assert run_python(code) == "[]\n"


def test_validate_loads_no_logging_hashlib_or_json(tmp_path):
    code = (
        "import sys\n"
        "from corrgeom import cli\n"
        f"rc = cli.main(['validate', '--input', {benchmark_csv(tmp_path)!r}, '--window', '21',"
        f" '--out', {str(tmp_path / 'out')!r}])\n"
        f"print(rc, sorted({START_UP_FREE} & set(sys.modules)))\n"
    )
    assert run_python(code).splitlines()[-1] == "0 []"


def test_failed_run_removes_its_partial_output(tmp_path, capsys, monkeypatch):
    def fail(*args):
        raise ValueError("render failed")

    monkeypatch.setattr(cli, "render_measures_svg", fail)
    out = tmp_path / "out"
    argv = ["events", "--input", benchmark_csv(tmp_path), "--out", str(out), "--format", "svg"]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: render failed\n"
    assert not out.exists()


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


def tree(root):
    """Every path under ``root``, with a file's bytes."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def writer_argv(tmp_path, command, out):
    """The argv of an analyze or simulate run that writes into the directory ``out``."""
    if command == "simulate":
        return ["simulate", "--out", str(out / "sim.csv")]
    return ["analyze", "--input", benchmark_csv(tmp_path), "--out", str(out)]


# Flags that make each writer_argv command write other bytes.
OTHER_BYTES = {"analyze": ["--window", "31"], "simulate": ["--seed", "1"]}

# The writer-failure cases: an --out that holds an earlier run's files, or
# one whose parents are missing, for each command; analyze's keep their ids.
WRITER_CASES = pytest.mark.parametrize(
    "command, fresh",
    [("analyze", False), ("analyze", True), ("simulate", False), ("simulate", True)],
    ids=["existing_out", "fresh_out", "simulate-existing_out", "simulate-fresh_out"],
)


@WRITER_CASES
def test_a_write_that_fails_partway_keeps_the_earlier_runs_files(
    tmp_path, capsys, monkeypatch, command, fresh
):
    # A fresh --out has missing parents, which the failed run must not leave behind.
    out = tmp_path / "fresh" / "a" / "out" if fresh else tmp_path / "out"
    argv = writer_argv(tmp_path, command, out)
    if not fresh:
        assert cli.main(argv) == 0
    before = tree(tmp_path)
    written = []
    disk_full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def disk_full_on_second_file(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if mode == "w":  # an output file; the manifest reads --input with "rb"
            written.append(path)
            if len(written) == 2:
                write = fh.write

                def write_10_characters(text):
                    write(text[:10])
                    raise disk_full

                fh.write = write_10_characters
        return fh

    monkeypatch.setattr(cli, "open", disk_full_on_second_file, raising=False)
    capsys.readouterr()
    assert cli.main([*argv, *OTHER_BYTES[command]]) == 2
    assert capsys.readouterr().err == f"error: {disk_full}\n"
    assert len(written) == 2
    assert tree(tmp_path) == before  # no .tmp file or new directory left


def test_a_text_is_written_without_an_encoded_copy_of_it_whole(tmp_path, capsys):
    # 16 MiB of ASCII: encoded in one piece it raised the traced peak by as much.
    text = "0123456789abcde\n" * (1 << 20)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        assert cli._write_outputs(tmp_path, {"big.txt": text}) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - held < 4 << 20
    assert (tmp_path / "big.txt").read_bytes() == text.encode()
    assert capsys.readouterr().out == f"{tmp_path / 'big.txt'}\n"


@WRITER_CASES
def test_a_rename_that_fails_leaves_no_temporary_file(
    tmp_path, capsys, monkeypatch, command, fresh
):
    # A fresh --out has missing parents: the failed run must leave neither
    # them nor the file it renamed into place before the failure.
    out = tmp_path / "fresh" / "a" / "out" if fresh else tmp_path / "out"
    want = tmp_path / "want"
    argv = writer_argv(tmp_path, command, out)
    assert cli.main([*writer_argv(tmp_path, command, want), *OTHER_BYTES[command]]) == 0
    if not fresh:
        assert cli.main(argv) == 0
    before = tree(tmp_path)
    replace, renamed = Path.replace, []
    denied = OSError(errno.EACCES, os.strerror(errno.EACCES))

    def denied_on_second_file(path, target):
        renamed.append(Path(target).name)
        if len(renamed) == 2:
            raise denied
        return replace(path, target)

    monkeypatch.setattr(Path, "replace", denied_on_second_file)
    capsys.readouterr()
    assert cli.main([*argv, *OTHER_BYTES[command]]) == 2
    assert capsys.readouterr().err == f"error: {denied}\n"
    assert len(renamed) == 2
    if fresh:
        assert tree(tmp_path) == before
        return
    first = out / renamed[0]
    assert before[first] != (want / first.name).read_bytes()
    # The file renamed before the failure holds this run's bytes, the rest the earlier run's.
    assert tree(tmp_path) == {**before, first: (want / first.name).read_bytes()}


def ascii_locale_env():
    """The environment of a child process that runs the package under an
    ASCII locale. Without PYTHONUTF8=0 and PYTHONCOERCECLOCALE=0, Python
    reads and writes files as UTF-8 in the C locale."""
    return dict(os.environ, PYTHONPATH=str(Path(corrgeom.__file__).parents[1]), LC_ALL="C",
                PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")


def test_a_utf8_csv_reads_and_writes_under_an_ascii_locale(tmp_path):
    path = tmp_path / "input.csv"
    columns = [np.sin(np.arange(60) / s) for s in (2, 3, 5)]
    ids = ["Zürich", "b", "c"]
    data = TimeSeriesSet(tuple(TimeSeries(name, 0, 1, c) for name, c in zip(ids, columns)))
    write_timeseries_csv(data, path)
    assert path.read_bytes().startswith("tick,Zürich,b,c\n".encode())
    env = ascii_locale_env()
    copy = (
        "import sys\nfrom corrgeom import read_timeseries_csv, write_timeseries_csv\n"
        "write_timeseries_csv(read_timeseries_csv(sys.argv[1]), sys.argv[2])\n"
    )
    out = tmp_path / "out"
    for argv in (["-m", "corrgeom.cli", "analyze", "--input", str(path), "--out", str(out)],
                 ["-c", copy, str(path), str(tmp_path / "copy.csv")]):
        done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
    assert json.loads((out / "manifest.json").read_text())["series_ids"] == ids
    assert (tmp_path / "copy.csv").read_bytes() == path.read_bytes()


def test_a_utf8_config_reads_under_an_ascii_locale(tmp_path):
    config = tmp_path / "cm.json"
    config.write_bytes(json.dumps({"measures": ["Zürich"]}, ensure_ascii=False).encode())
    argv = ["-m", "corrgeom.cli", "analyze", "--input", benchmark_csv(tmp_path),
            "--config", str(config), "--out", str(tmp_path / "out")]
    done = subprocess.run([sys.executable, *argv], env=ascii_locale_env(), capture_output=True,
                          text=True)
    assert done.returncode == 2
    assert "unknown measure 'Z\\xfcrich'" in done.stderr, done.stderr


def assert_csv_matches(got, want):
    """Same header, timestamps and gap flags; floats within GOLDEN_TOL."""
    got_rows = list(csv.reader(got.read_text().splitlines()))
    want_rows = list(csv.reader(want.read_text().splitlines()))
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


def validate_reference(data, window, stride=1):
    """validate's outcome window by window through verify_metric_axioms on
    arccos_distances: the min margin of each (window, kind), the worst
    margin, its (tick, kind, triple) and (window, kind, VIOLATION line) of
    each failing matrix, all from the single-window route."""
    count = (data.length - window) // stride + 1
    margins, worst_margin, worst, violations = {}, math.inf, None, []
    for m in range(count):
        rho = window_correlations(data, WindowSpec(m * stride, window))
        tick = data.tick(m * stride)
        for kind in (SPHERICAL, PROJECTIVE):
            report = verify_metric_axioms(arccos_distances(rho, None, kind))
            margins[m, kind] = report.min_triangle_margin
            if report.min_triangle_margin < worst_margin:
                worst_margin, worst = report.min_triangle_margin, (tick, kind, report.worst_triple)
            if not report.passed:
                line = (f"VIOLATION window@{tick} {kind}: min_triangle_margin="
                        f"{report.min_triangle_margin:.3e} at {report.worst_triple}\n")
                violations.append((m, kind, line))
    return margins, worst_margin, worst, violations


def validate_fail_stdout(count, worst_margin, worst):
    return (
        f"FAIL: checked {2 * count} distance matrices over {count} windows; "
        f"worst triangle margin {worst_margin:.6e} at {worst}\n"
    )


@pytest.mark.parametrize("signs", [(1, 1, 1, 1), (1, -1, 1, -1)], ids=["copies", "negated"])
def test_validate_across_chunks_matches_a_per_window_reference(
    tmp_path, capsys, monkeypatch, signs
):
    # validate runs on arccos_distances, which fail on near-copies. Eight
    # series, four of them near-copies of one sine, times ``signs``, over
    # samples [40, 120) and [400, 480): their windows fail the triangle check
    # in both kinds, in the first and the last of three chunks. With no sign
    # flipped, both kinds tie on the worst margin and spherical is reported;
    # with two flipped, every failing triple has a negative correlation, so the
    # kinds' margins differ and the report must name the right one.
    length, window = 500, 21
    rng = np.random.default_rng(3)
    columns = rng.normal(size=(8, length))
    t = np.arange(length)
    for lo, hi in ((40, 120), (400, 480)):
        copies = np.sin(t[lo:hi] / 3) + 1e-8 * rng.normal(size=(4, hi - lo))
        columns[:4, lo:hi] = np.array(signs)[:, None] * copies
    path = write_csv(tmp_path, columns)
    data = corrgeom.read_timeseries_csv(path)
    count = length - window + 1
    size = _windows_per_chunk(8, window)
    assert count > 2 * size

    monkeypatch.setattr(events, "angular_distances", arccos_distances)
    margins, worst_margin, worst, violations = validate_reference(data, window)
    failing = {(m // size, kind) for m, kind, _ in violations}
    assert failing == {(c, k) for c in (0, 2) for k in (SPHERICAL, PROJECTIVE)}
    if min(signs) > 0:
        assert worst[1] == SPHERICAL and margins[worst[0], PROJECTIVE] == worst_margin
    else:
        assert margins[worst[0], SPHERICAL] != margins[worst[0], PROJECTIVE]

    assert cli.main(["validate", "--input", path, "--window", str(window)]) == 1
    out, err = capsys.readouterr()
    assert err == "".join(line for _, _, line in violations)
    assert out == validate_fail_stdout(count, worst_margin, worst)


def test_validate_across_batches_reports_the_earliest_of_tied_windows(
    tmp_path, capsys, monkeypatch
):
    # validate runs on arccos_distances, which fail on near-copies. Sixteen
    # series repeating every 135 samples, so at stride 3 window m + 45
    # is window m sample for sample, and its margins equal window m's. Four of
    # them are near-copies of one sine over the first 130 samples of each
    # period, so windows of every period fail, and the worst margin is tied
    # between windows 45 apart: in different batches of VALIDATE_BATCH = 40
    # windows, and the last batch is partial.
    n, window, stride, period, count = 16, 101, 3, 135, 130
    rng = np.random.default_rng(5)
    base = rng.normal(size=(n, period))
    base[:4, :130] = np.sin(np.arange(130) / 3) + 1e-8 * rng.normal(size=(4, 130))
    length = window + stride * (count - 1)
    path = write_csv(tmp_path, base[:, np.arange(length) % period])
    data = corrgeom.read_timeseries_csv(path)
    size = _windows_per_chunk(n, window)
    batch = max(cli.VALIDATE_BATCH, size)  # windows per validate chunk
    assert size < cli.VALIDATE_BATCH and count % batch != 0

    monkeypatch.setattr(events, "angular_distances", arccos_distances)
    margins, worst_margin, worst, violations = validate_reference(data, window, stride)
    tied = [m for m in range(count) if margins[m, SPHERICAL] == worst_margin]
    assert len({m // batch for m in tied}) > 1 and worst[0] == data.tick(tied[0] * stride)
    assert len({m // batch for m, _, _ in violations}) > 1

    argv = ["validate", "--input", path, "--window", str(window), "--stride", str(stride)]
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "".join(line for _, _, line in violations)
    assert out == validate_fail_stdout(count, worst_margin, worst)


def test_validate_scans_once_per_batch_and_locates_once(tmp_path, capsys, monkeypatch):
    # n = 32, K = 101: the engine's chunks hold 10 windows, and validate's
    # VALIDATE_BATCH = 40, so 200 windows are 5 chunks, one unit-row pass, one
    # scan and one distance call per kind each. The worst matrix's triple is
    # located once, and no n^3 margins are built.
    n, window, length = 32, 101, 300
    path = tmp_path / "input.csv"
    write_timeseries_csv(simulate(SyntheticSpec(n, length, (), 0.1, 11)), path)
    argv = ["validate", "--input", str(path), "--window", str(window)]
    assert cli.main(argv) == 0
    want = capsys.readouterr()

    calls = {"scan": 0, "locate": 0, "margins": 0, "distances": 0, "units": 0}

    def counted(name, function):
        def call(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return call

    scan = counted("scan", metric._min_triangle_margins)
    monkeypatch.setattr(metric, "_min_triangle_margins", scan)
    monkeypatch.setattr(cli, "_min_triangle_margins", scan)
    locate = counted("locate", metric._first_min_triple)
    monkeypatch.setattr(metric, "_first_min_triple", locate)
    monkeypatch.setattr(cli, "_first_min_triple", locate)
    monkeypatch.setattr(oracles, "_triangle_margins", counted("margins", oracles._triangle_margins))
    monkeypatch.setattr(events, "angular_distances", counted("distances", events.angular_distances))
    monkeypatch.setattr(events, "_window_units", counted("units", events._window_units))
    assert cli.main(argv) == 0
    assert capsys.readouterr() == want
    assert _windows_per_chunk(n, window) == 10 and cli.VALIDATE_BATCH == 40
    assert calls == {"scan": 5, "locate": 1, "margins": 0, "distances": 10, "units": 5}


@pytest.mark.parametrize(
    "distances, stride, batch, chunk_elements",
    [
        pytest.param(None, stride, batch, chunk, id=f"stride{stride}-batch{batch}-chunk{chunk}")
        for stride in (1, 3)
        for batch in (1, 3, 40, 10_000)
        for chunk in (1, CHUNK_ELEMENTS)
    ]
    + [pytest.param(arccos_distances, 1, 3, 1, id="arccos-stride1-batch3-chunk1")],
)
def test_validate_output_does_not_depend_on_the_batching(
    tmp_path, capsys, monkeypatch, distances, stride, batch, chunk_elements
):
    # Five series, four of them near-copies of one sine over samples [10, 60),
    # which arccos_distances fail, and the fifth held over [70, 100), which
    # gaps windows 70 to 79. Every batching of the windows, from one window
    # per chunk and per batch to one batch of the whole run, reports the same.
    length, window = 120, 21
    rng = np.random.default_rng(7)
    columns = rng.normal(size=(5, length))
    columns[:4, 10:60] = np.sin(np.arange(50) / 3) + 1e-8 * rng.normal(size=(4, 50))
    columns[4, 70:100] = columns[4, 70]
    argv = ["validate", "--input", write_csv(tmp_path, columns), "--window", str(window),
            "--stride", str(stride)]
    if distances is not None:
        monkeypatch.setattr(events, "angular_distances", distances)
    code = cli.main(argv)
    want = capsys.readouterr()
    count = (length - window) // stride + 1
    assert f"checked {2 * count} distance" not in want.out  # some windows gap
    assert ("VIOLATION window@" in want.err) == (distances is not None)

    monkeypatch.setattr(cli, "VALIDATE_BATCH", batch)
    monkeypatch.setattr(events, "CHUNK_ELEMENTS", chunk_elements)
    assert cli.main(argv) == code
    assert capsys.readouterr() == want
