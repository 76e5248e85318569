import csv
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrgeom import (
    DuplicateIdError,
    IngestError,
    TimeSeries,
    TimeSeriesSet,
    read_timeseries_csv,
    write_timeseries_csv,
)
from corrgeom import series
from corrgeom.series import _parse_value, _window_units
from oracles import (
    CenteredUnitVector,
    WindowSpec,
    ZeroVarianceError,
    _one_window_units,
    window_correlations,
    window_vector,
)


def ts(sid, values, start=0, step=1):
    return TimeSeries(sid, start, step, values)


class TestTimeSeriesValidation:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN or Inf"):
            ts("a", [1.0, float("nan")])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            ts("a", [1.0, float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ts("a", [])

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            TimeSeries("a", 0, 0, [1.0, 2.0])

    def test_set_requires_alignment(self):
        with pytest.raises(ValueError, match="not aligned"):
            TimeSeriesSet((ts("a", [1, 2, 3]), ts("b", [1, 2], start=1)))

    def test_set_rejects_duplicate_ids(self):
        with pytest.raises(DuplicateIdError):
            TimeSeriesSet((ts("a", [1, 2]), ts("a", [3, 4])))

    @pytest.mark.parametrize(
        "start, step",
        [(9_200_000_000_000_000_000, 10**15), (10**19, 10**15), (-(2**63) - 1, 1)],
        ids=["last-past-2^63", "first-past-2^63", "first-below-minus-2^63"],
    )
    def test_rejects_ticks_outside_int64(self, start, step):
        with pytest.raises(ValueError, match=r"series 'a' has ticks .* \[-2\^63, 2\^63\)"):
            ts("a", np.arange(60.0), start=start, step=step)

    def test_accepts_ticks_up_to_the_int64_limits(self):
        last = ts("a", np.arange(60.0), start=2**63 - 1 - 59 * 10**15, step=10**15)
        assert last.tick(59) == 2**63 - 1
        assert ts("a", np.arange(60.0), start=-(2**63), step=2**58).tick(0) == -(2**63)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: ts("a", [1.0, 2.0]), "id"),
        (lambda: TimeSeriesSet((ts("a", [1.0, 2.0]),)), "ids"),
        (lambda: WindowSpec(0, 2), "size"),
    ],
    ids=["TimeSeries", "TimeSeriesSet", "WindowSpec"],
)
def test_a_value_object_is_read_only(make, field):
    obj = make()
    before = getattr(obj, field)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(obj, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.new_field = 1
    assert getattr(obj, field) is before


def test_a_set_rebuilds_its_series_from_its_matrix_rows():
    data = TimeSeriesSet(
        (ts("a", [1.0, 2.0, 4.0], start=5, step=3), ts("b", [0.5, 0.0, -1.0], start=5, step=3))
    )
    for i, s in enumerate(data.series):
        assert (s.id, s.start, s.step) == (data.ids[i], 5, 3)
        assert np.array_equal(s.values, data.matrix()[i])
        assert not s.values.flags.writeable
    assert data.series[0] is not data.series[0]  # new objects on each access
    assert repr(data) == "TimeSeriesSet(ids=('a', 'b'), start=5, step=3)"


# Each single fault of a series set, as (ids, start, step, rows), with the
# class and text every route raises. The per-series faults are raised by the
# TimeSeries of the faulty series, the rest by the set.
ROWS = [[1.0, 2.0, 4.0, 3.0], [0.5, 0.0, -1.0, 2.0], [3.0, 1.0, 1.0, 0.0]]
NAN, INF = float("nan"), float("inf")
SET_FAULTS = {
    "no-series": ((), 0, 1, np.empty((0, 4)), ValueError,
                  "a TimeSeriesSet needs at least one series"),
    "repeated-id": (("a", "b", "a"), 0, 1, ROWS, DuplicateIdError, "duplicate series id 'a'"),
}
SERIES_FAULTS = {
    "empty-id": (("a", "", "c"), 0, 1, ROWS, ValueError, "series id must be a nonempty string"),
    "step-0": (("a", "b", "c"), 0, 0, ROWS, ValueError, "step must be a positive integer, got 0"),
    "step-1.5": (("a", "b", "c"), 0, 1.5, ROWS, ValueError,
                 "step must be a positive integer, got 1.5"),
    "no-values": (("a", "b", "c"), 0, 1, [[], [], []], ValueError,
                  "values must be a nonempty 1-d sequence"),
    **{
        f"{name}-in-row-{j}": (
            ("a", "b", "c"), 0, 1, [[bad, *r[1:]] if i == j else r for i, r in enumerate(ROWS)],
            ValueError, f"series {'abc'[j]!r} contains NaN or Inf",
        )
        for name, bad in (("nan", NAN), ("inf", INF)) for j in range(3)
    },
    "ticks-past-2^63": (("a", "b", "c"), 2**63 - 3, 1, ROWS, ValueError,
                        "series 'a' has ticks from 9223372036854775805 to 9223372036854775808, "
                        "outside the signed 64-bit range [-2^63, 2^63)"),
    "ticks-below-minus-2^63": (("a", "b", "c"), -(2**63) - 1, 1, ROWS, ValueError,
                               "series 'a' has ticks from -9223372036854775809 to "
                               "-9223372036854775806, outside the signed 64-bit range "
                               "[-2^63, 2^63)"),
}
ROUTES = {
    "TimeSeries": lambda ids, start, step, rows: [
        TimeSeries(sid, start, step, row) for sid, row in zip(ids, rows)
    ],
    "TimeSeriesSet(series)": lambda ids, start, step, rows: TimeSeriesSet(
        tuple(TimeSeries(sid, start, step, row) for sid, row in zip(ids, rows))
    ),
    "from_matrix": lambda ids, start, step, rows: TimeSeriesSet.from_matrix(
        ids, start, step, np.array(rows, dtype=float)
    ),
}


@pytest.mark.parametrize(
    "fault, route",
    [(fault, route) for fault in SERIES_FAULTS for route in ROUTES]
    + [(fault, route) for fault in SET_FAULTS for route in ROUTES if route != "TimeSeries"],
)
def test_every_route_raises_a_fault_in_the_same_words(fault, route):
    ids, start, step, rows, kind, text = {**SERIES_FAULTS, **SET_FAULTS}[fault]
    with pytest.raises(Exception) as info:
        ROUTES[route](ids, start, step, rows)
    assert (type(info.value), str(info.value)) == (kind, text)


def test_from_matrix_rejects_a_row_count_that_is_not_the_id_count():
    with pytest.raises(ValueError, match=r"^2 series ids for 3 rows of values$"):
        TimeSeriesSet.from_matrix(("a", "b"), 0, 1, np.ones((3, 4)))


def test_from_matrix_holds_a_readonly_c_contiguous_copy():
    values = np.arange(12.0).reshape(3, 4)
    data = TimeSeriesSet.from_matrix(["a", "b", "c"], 5, 3, values)
    transposed = TimeSeriesSet.from_matrix(["a", "b", "c", "d"], 0, 1, values.T)
    values[0, 0] = -1.0  # a later write by the caller does not reach the set
    assert data.matrix()[0, 0] == 0.0
    assert np.array_equal(transposed.matrix(), np.arange(12.0).reshape(3, 4).T)
    for m in (data.matrix(), transposed.matrix()):
        assert m.flags.c_contiguous and not m.flags.writeable and m.dtype == float
    assert (data.ids, len(data), data.length, data.tick(2)) == (("a", "b", "c"), 3, 4, 11)
    assert repr(data) == "TimeSeriesSet(ids=('a', 'b', 'c'), start=5, step=3)"
    one = TimeSeries("a", 0, 1, [1.0, 2.0])
    assert repr(one) == "TimeSeries(id='a', start=0, step=1, values=array([1., 2.]))"
    assert not one.values.flags.writeable


def test_the_read_and_generate_paths_build_no_per_series_object(monkeypatch, tmp_path):
    from corrgeom.testkit import coupling_benchmark, simulate

    plain = tmp_path / "plain.csv"
    write_timeseries_csv(simulate(coupling_benchmark(0)), plain)
    lines = plain.read_text().splitlines(keepends=True)
    quoted = tmp_path / "quoted.csv"  # quotes send the body through the row loop
    quoted.write_text(lines[0].replace("s2", '"s2"') + "".join(lines[1:]))

    def refuse(self, *args):
        raise AssertionError("a TimeSeries was built")

    monkeypatch.setattr(series.TimeSeries, "__init__", refuse)
    for path in (plain, quoted):
        assert read_timeseries_csv(path).ids == ("s1", "s2", "s3", "s4")
    assert simulate(coupling_benchmark(0)).matrix().shape == (4, 500)


def test_from_matrix_makes_one_copy():
    # One (16, 20,000) copy, 2.56 MB, plus its 0.32 MB finite mask.
    values = np.random.default_rng(0).normal(size=(16, 20_000))
    tracemalloc.start()
    try:
        data = TimeSeriesSet.from_matrix([f"s{i}" for i in range(16)], 0, 1, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(data.matrix(), values)
    assert peak < 1.3 * values.nbytes


class TestWindowSpec:
    def test_rejects_short_window(self):
        with pytest.raises(ValueError):
            WindowSpec(0, 1)

    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            WindowSpec(0, 2, 0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            WindowSpec(-1, 2)


class TestWindowVector:
    def test_two_point_centering(self):
        v = window_vector(ts("a", [0.0, 2.0]), WindowSpec(0, 2))
        assert np.allclose(v.components, [-1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)

    def test_constant_window_raises(self):
        with pytest.raises(ZeroVarianceError, match="'a'"):
            window_vector(ts("a", [5.0, 5.0, 5.0]), WindowSpec(0, 3))

    def test_hand_evaluated_triple(self):
        v = window_vector(ts("a", [1.0, 2.0, 3.0]), WindowSpec(0, 3))
        assert np.allclose(v.components, [-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)], atol=1e-15)

    def test_window_start_is_a_tick(self):
        v = window_vector(ts("a", np.arange(10.0), start=100, step=5), WindowSpec(2, 3))
        assert v.window_start == 110
        assert v.source_id == "a"

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="does not fit"):
            window_vector(ts("a", [1.0, 2.0, 3.0]), WindowSpec(2, 3))

    def test_mean_zero_norm_one_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(2, 80))
            scale = 10.0 ** rng.uniform(-6, 8)
            offset = rng.uniform(-1e9, 1e9)
            vals = rng.normal(size=k) * scale + offset
            if np.ptp(vals) == 0.0:
                continue
            v = window_vector(ts("a", vals), WindowSpec(0, k))
            assert abs(float(v.components.sum())) <= 1e-12 * k
            assert abs(float(np.linalg.norm(v.components)) - 1.0) <= 1e-12

    def test_positive_affine_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            vals = rng.normal(size=24)
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(-100.0, 100.0))
            w = WindowSpec(0, 24)
            v1 = window_vector(ts("x", vals), w)
            v2 = window_vector(ts("x", a * vals + b), w)
            assert np.abs(v1.components - v2.components).max() <= 1e-10

    def test_sign_equivariance_exact(self):
        rng = np.random.default_rng(13)
        vals = rng.normal(size=30)
        w = WindowSpec(3, 20)
        v = window_vector(ts("x", vals), w)
        vneg = window_vector(ts("x", -vals), w)
        assert np.array_equal(vneg.components, -v.components)


def unscaled_window_units(seg):
    """series._window_units without its first step, the scaling of each row
    by a power of two."""
    seg -= seg.mean(axis=-1, keepdims=True)
    seg -= seg.mean(axis=-1, keepdims=True)
    norms = np.linalg.norm(seg, axis=-1)
    seg /= np.where(norms == 0.0, 1.0, norms)[..., None]
    return seg, norms


def abs_exponent_window_units(seg):
    """series._window_units with the scale exponent taken from the largest
    entry of np.abs(seg), the stack-sized temporary it no longer makes."""
    np.ldexp(seg, -np.frexp(np.abs(seg).max(axis=-1))[1][..., None], out=seg)
    return unscaled_window_units(seg)


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e308, -1e308, 1.0, -3.5]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 4), window=st.integers(2, 6))
def test_the_scale_exponent_from_the_row_extremes_is_that_of_the_largest_magnitude(
    data, n, window
):
    # Rows of signed zeros, subnormals and +-1e308: the larger of a row's
    # maximum and negated minimum has the frexp exponent of its largest |x|,
    # so the unit rows and norms are byte for byte those of the abs form.
    entries = data.draw(st.lists(st.sampled_from(EXTREMES), min_size=n * window,
                                 max_size=n * window))
    rows = np.array(entries).reshape(n, window)
    want, want_norms = abs_exponent_window_units(rows.copy())
    got, norms = _window_units(rows.copy())
    assert got.tobytes() == want.tobytes()
    assert norms.tobytes() == want_norms.tobytes()


class TestWindowedUnitMatrix:
    def test_rows_match_window_vector(self):
        rng = np.random.default_rng(17)
        data = TimeSeriesSet(
            tuple(ts(f"s{i}", rng.normal(size=40) * 10.0**i + 1e8 * i) for i in range(5))
        )
        w = WindowSpec(7, 21)
        units = _one_window_units(data.matrix(), data.ids, w)
        for row, s in zip(units, data.series):
            assert np.array_equal(row, window_vector(s, w).components)

    def test_names_first_constant_series(self):
        data = TimeSeriesSet(
            (ts("a", [1.0, 2.0, 4.0, 3.0]), ts("b", [5.0, 5.0, 5.0, 1.0]), ts("c", [2.0] * 4))
        )
        with pytest.raises(ZeroVarianceError, match=r"series 'b' is constant on window \[0, 3\)"):
            window_correlations(data, WindowSpec(0, 3))
        with pytest.raises(ZeroVarianceError, match="'c'"):
            window_correlations(data, WindowSpec(1, 3))

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 4),
        window=st.integers(2, 4000),
        log_scale=st.floats(-100.0, 100.0),
        offset=st.floats(-1e8, 1e8),
        held=st.booleans(),
    )
    def test_scaling_by_a_power_of_two_changes_no_unit_row_in_the_normal_range(
        self, seed, n, window, log_scale, offset, held
    ):
        # Samples offset + 10^log_scale * noise: their sums, squares and
        # centred values stay in the normal range with or without the scaling,
        # so the unit rows and the norms' zeros are those of the kernel
        # without it, byte for byte. ``held`` makes the first row constant.
        rows = offset + 10.0**log_scale * np.random.default_rng(seed).normal(size=(n, window))
        if held:
            rows[0] = rows[0, 0]
        want, want_norms = unscaled_window_units(rows.copy())
        got, norms = _window_units(rows.copy())
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(norms == 0.0, want_norms == 0.0)

    def test_a_series_of_huge_values_has_the_unit_rows_of_its_unit_copy(self):
        # Windows of 21 of a +-1e308 series: their sums overflow in the
        # kernel without the scaling, whose rows are then not finite. With
        # it, no operation overflows, and the rows are those of the +-1
        # series, to rounding.
        signs = np.sign(np.random.default_rng(0).normal(size=40))
        windows = np.lib.stride_tricks.sliding_window_view(signs, 21)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(unscaled_window_units(1e308 * windows)[0]).all()
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            huge, norms = _window_units(1e308 * windows)
            unit = _window_units(windows.copy())[0]
        assert (norms > 0.0).all()
        assert np.abs(huge - unit).max() <= 1e-15

    def test_centered_unit_vector_invariants(self):
        with pytest.raises(ValueError, match="'x' do not sum to zero"):
            CenteredUnitVector(np.array([0.6, 0.8]), "x", 0)
        with pytest.raises(ValueError, match="'x' are not unit length"):
            CenteredUnitVector(np.array([-0.5, 0.5]), "x", 0)


class TestCsv:
    def test_round_trip_exact(self):
        rng = np.random.default_rng(3)
        original = TimeSeriesSet(
            tuple(ts(f"s{i}", rng.normal(size=17), start=40, step=2) for i in range(3))
        )
        buf = io.StringIO()
        write_timeseries_csv(original, buf)
        back = read_timeseries_csv(io.StringIO(buf.getvalue()))
        assert back.ids == original.ids
        assert back.start == 40 and back.step == 2
        assert np.array_equal(back.matrix(), original.matrix())

    def test_iso_dates_map_to_row_order_ticks(self):
        text = "date,a,b\n2020-01-01,1.0,2.0\n2020-02-01,3.0,4.0\n2020-03-01,5.0,6.0\n"
        out = read_timeseries_csv(io.StringIO(text))
        assert out.start == 0 and out.step == 1 and out.length == 3

    def test_dates_must_increase(self):
        text = "date,a\n2020-01-01,1.0\n2020-01-01,2.0\n"
        with pytest.raises(IngestError, match="strictly increasing"):
            read_timeseries_csv(io.StringIO(text))

    def test_missing_cell_rejected(self):
        text = "tick,a,b\n0,1.0,2.0\n1,,3.0\n"
        with pytest.raises(IngestError, match="missing value"):
            read_timeseries_csv(io.StringIO(text))

    def test_bad_number_rejected(self):
        with pytest.raises(IngestError, match="bad number"):
            read_timeseries_csv(io.StringIO("tick,a\n0,oops\n"))

    def test_nan_cell_rejected(self):
        with pytest.raises(IngestError, match="non-finite"):
            read_timeseries_csv(io.StringIO("tick,a\n0,nan\n"))

    def test_thousands_separator_rejected(self):
        with pytest.raises(IngestError, match="decimal point only"):
            read_timeseries_csv(io.StringIO('tick,a\n0,"1,5"\n'))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(DuplicateIdError):
            read_timeseries_csv(io.StringIO("tick,a,a\n0,1.0,2.0\n"))

    def test_nonuniform_ticks_rejected(self):
        text = "tick,a\n0,1.0\n1,2.0\n3,3.0\n"
        with pytest.raises(IngestError, match="non-uniform"):
            read_timeseries_csv(io.StringIO(text))

    def test_integer_ticks_respected(self):
        text = "tick,a\n10,1.0\n20,2.0\n30,3.0\n"
        out = read_timeseries_csv(io.StringIO(text))
        assert out.start == 10 and out.step == 10

    def test_header_mandatory(self):
        with pytest.raises(IngestError, match="header|empty"):
            read_timeseries_csv(io.StringIO(""))

    def test_no_data_rows_rejected(self):
        with pytest.raises(IngestError, match="no data rows"):
            read_timeseries_csv(io.StringIO("tick,a\n"))


# Cells the row-at-a-time parse of read_timeseries_csv accepts, and cells it
# hands to _parse_value for the error.
CELLS = [
    " 1.5", "2.25 ", "\t-3\t", "\u00a04.5\u2003", "1e-3", "-2.5E+10", "1_000.25", "+7",
    "-0", ".5", "5.", "1e-320", "",  "  ", "1,5", "oops", "0x10", "1__0", "nan", "-inf",
    "1e400", "Infinity",
]


def assert_cell_reads_as_parse_value(cell):
    # Column b, the second cell of data row 2, after cells that parse.
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([["tick", "a", "b"], [0, 1, 2], [1, 3, cell]])
    try:
        want = _parse_value(cell, 2, "b")
    except IngestError as exc:
        with pytest.raises(IngestError) as got:
            read_timeseries_csv(io.StringIO(buf.getvalue()))
        assert str(got.value) == str(exc)
    else:
        got = read_timeseries_csv(io.StringIO(buf.getvalue())).matrix()[1, 1]
        assert np.float64(want).tobytes() == got.tobytes()


@pytest.mark.parametrize("cell", CELLS)
def test_a_cell_parses_exactly_as_parse_value_does(cell):
    assert_cell_reads_as_parse_value(cell)


def read_by_rows(monkeypatch):
    """Send every file through the row-at-a-time parse."""
    monkeypatch.setattr(series, "_loadtxt_body", lambda lines, ncol: None)


@pytest.mark.parametrize("cell", CELLS)
def test_a_cell_parses_the_same_through_the_row_loop(cell, monkeypatch):
    read_by_rows(monkeypatch)
    assert_cell_reads_as_parse_value(cell)


# Digits, signs, points, exponents, underscores, ASCII and Unicode spaces and
# digits, and the words float() reads as non-finite.
CELL_TOKENS = list("0123456789+-.eE_ \t\v\f\u00a0\u2003\u3000\u0663\uff11") + [
    "nan", "inf", "Infinity",
]


@settings(max_examples=500, deadline=None)
@given(tokens=st.lists(st.sampled_from(CELL_TOKENS), max_size=8))
def test_what_the_loadtxt_parse_accepts_float_reads_the_same(tokens):
    cell = "".join(tokens)
    parsed = series._loadtxt_body(["tick,a\n", f"0,{cell}\n"], 2)
    if parsed is not None:
        assert parsed[0] == ["0"]
        assert np.float64(float(cell)).tobytes() == parsed[1][0, 0].tobytes()
        assert np.float64(_parse_value(cell, 1, "a")).tobytes() == parsed[1][0, 0].tobytes()


@pytest.mark.parametrize(
    "text, want",
    [
        pytest.param("tick,a,b\n0,1,2\n\n1,3,4\n", "data row 2 has 0 cells, expected 3",
                     id="blank-line"),
        pytest.param('tick,a,b\n0,"1.5",2\n1,3,4\n', [[1.5, 3.0], [2.0, 4.0]], id="quoted-cell"),
        pytest.param('tick,"a",b\n0,1,2\n1,3,4\n', [[1.0, 3.0], [2.0, 4.0]], id="quoted-name"),
        pytest.param("tick,a,b\r\n0,1,2\r\n1,3,4\r\n", [[1.0, 3.0], [2.0, 4.0]], id="crlf"),
        pytest.param("tick,a,b\n0,1,2,5\n1,3,4\n", "data row 1 has 4 cells, expected 3",
                     id="extra-column"),
        pytest.param("tick,a,b\n0,1,2\n1,3,4,\n", "data row 2 has 4 cells, expected 3",
                     id="trailing-comma"),
        pytest.param("tick,a,b\n0,1,2\n \t,3,4\n", "missing tick at data row 2", id="blank-tick"),
        pytest.param("tick,a,b\n0,1,2\n1,3,4", [[1.0, 3.0], [2.0, 4.0]], id="no-final-newline"),
        # Underscores and non-ASCII digits, which float() and int() read.
        *[
            pytest.param(f"tick,a,b\n0,1,2\n1,3,{cell}\n",
                         f"bad number {cell!r} at data row 2, column 'b'", id=f"value-{name}")
            for cell, name in (("1_0", "1_0"), ("0_5", "0_5"), ("\u0661\u0662", "arabic-indic"),
                               ("\uff11", "fullwidth"))
        ],
        pytest.param("tick,a\n0_0,1\n1_0,2\n",
                     "first column must be all integers or all ISO dates; got '0_0' at data row 1",
                     id="tick-0_0"),
        pytest.param("tick,a\n0,1\n1_0,2\n",
                     "mixed tick column: invalid literal for int() with base 10: '1_0'",
                     id="tick-1_0"),
        pytest.param("tick,a\n\u0660,1\n\u0661,2\n",
                     "first column must be all integers or all ISO dates; got '\u0660' at data "
                     "row 1", id="tick-arabic-indic-first"),
        pytest.param("tick,a\n0,1\n\u0661,2\n",
                     "mixed tick column: invalid literal for int() with base 10: '\u0661'",
                     id="tick-arabic-indic"),
        # Week dates, short fields, non-ASCII digits and times: only YYYY-MM-DD
        # is a date, on 3.10 and 3.11 alike.
        *[
            pytest.param(f"tick,a\n{tick},1\n2020-01-02,2\n",
                         "first column must be all integers or all ISO dates; got "
                         f"{tick!r} at data row 1", id=f"tick-{name}")
            for tick, name in (("2020-W01-1", "week-date"), ("2020-1-01", "short-month"),
                               ("\uff12020-01-01", "fullwidth-digit"),
                               ("2020-01-01T00", "time"))
        ],
    ],
)
@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_file_reads_the_same_on_both_paths(text, want, ending, monkeypatch):
    # Every line of the case ends in ``ending``: the same matrix or error text.
    text = re.sub(r"\r?\n", ending, text)

    def read():
        try:
            return read_timeseries_csv(io.StringIO(text, newline="")).matrix().tolist()
        except IngestError as exc:
            return str(exc)

    assert read() == want
    read_by_rows(monkeypatch)
    assert read() == want


def generated_csv(length):
    """The CSV text of 16 generated series of ``length`` samples, LF endings."""
    from corrgeom.testkit import SyntheticSpec, simulate

    buf = io.StringIO()
    write_timeseries_csv(simulate(SyntheticSpec(16, length, (), 0.1, 0)), buf)
    return buf.getvalue()


def quote_header(text):
    header, body = text.split("\n", 1)
    return ",".join(f'"{name}"' for name in header.split(",")) + "\n" + body


# Copies of a generated LF CSV that np.loadtxt parses as it is: every line in
# CRLF or CR, or the header alone quoted.
UNQUOTED_BODIES = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "quoted-header": quote_header,
}


@pytest.mark.parametrize("copy", UNQUOTED_BODIES)
def test_an_unquoted_body_takes_the_array_parse_whatever_its_endings(copy, monkeypatch):
    text = generated_csv(500)
    plain = read_timeseries_csv(io.StringIO(text, newline=""))

    def row_loop(*args):
        raise AssertionError("the row loop read an unquoted body")

    monkeypatch.setattr(series, "_read_rows", row_loop)
    got = read_timeseries_csv(io.StringIO(UNQUOTED_BODIES[copy](text), newline=""))
    assert (got.ids, got.start, got.step) == (plain.ids, plain.start, plain.step)
    assert got.matrix().tobytes() == plain.matrix().tobytes()


def test_a_body_with_one_quoted_cell_takes_the_row_loop(monkeypatch):
    text = generated_csv(500)
    plain = read_timeseries_csv(io.StringIO(text, newline=""))
    calls = []
    row_loop = series._read_rows
    monkeypatch.setattr(series, "_read_rows", lambda *args: calls.append(1) or row_loop(*args))
    # The second cell of the last data row, quoted.
    head, last = text.rstrip("\n").rsplit("\n", 1)
    tick, cell, rest = last.split(",", 2)
    got = read_timeseries_csv(io.StringIO(f'{head}\n{tick},"{cell}",{rest}\n', newline=""))
    assert calls == [1]
    assert got.matrix().tobytes() == plain.matrix().tobytes()


def test_the_first_bad_cell_of_a_row_raises():
    text = "tick,a,b,c\n0,1,2,3\n1,inf,oops,\n"
    with pytest.raises(IngestError, match=r"^non-finite value 'inf' at data row 2, column 'a'$"):
        read_timeseries_csv(io.StringIO(text))


def test_a_read_holds_the_values_once(tmp_path):
    # 16 series of 20,000 samples, a 6.4 MB file for a 2.56 MB matrix. After
    # the read only the matrix is held; when each series also kept its column
    # it was twice that. Measured peaks: 4.66 times the matrix with the lines
    # dropped after the parse and checked one at a time, 7.15 times with the
    # lines kept and joined into one more string.
    path = tmp_path / "wide.csv"
    rng = np.random.default_rng(0)
    write_timeseries_csv(
        TimeSeriesSet(tuple(ts(f"s{i}", rng.normal(size=20_000)) for i in range(16))), path
    )
    tracemalloc.start()
    try:
        data = read_timeseries_csv(path)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1.25 * data.matrix().nbytes
    assert peak < 5.5 * data.matrix().nbytes


def test_a_crlf_read_peaks_as_an_lf_read_does():
    # 16 series of 20,000 samples, a 2.56 MB matrix. When any carriage
    # return sent the body through the row loop, the CRLF copy's traced peak
    # was 22.46 MiB against the LF copy's 11.36 MiB, 1.98 times; both now
    # take the array parse, and it is 11.38 MiB.
    text = generated_csv(20_000)
    peaks = []
    for copy in (text, text.replace("\n", "\r\n")):
        source = io.StringIO(copy, newline="")
        tracemalloc.start()
        try:
            read_timeseries_csv(source)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
