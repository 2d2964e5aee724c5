import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from circdmd import (
    ConfigError,
    DataError,
    ParseError,
    RangeError,
    ShapeError,
    SpeedMatrix,
    load_matrix,
    save_matrix,
    split,
)


def test_load_simple_rows(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("60,62,61\n55,54,53\n")
    m = load_matrix(path, layout="rows", delta_t=1 / 12)
    assert m.n_sensors == 2
    assert m.n_time == 3
    assert np.array_equal(m.values, [[60, 62, 61], [55, 54, 53]])
    assert m.delta_t == 1 / 12
    assert m.sensor_ids == ("s0001", "s0002")


def test_load_header_cols(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    m = load_matrix(path, layout="cols", delta_t=0.5)
    assert m.n_sensors == 2
    assert m.n_time == 2
    assert m.sensor_ids == ("a", "b")
    # column a of the file becomes row 0
    assert np.array_equal(m.values, [[1, 3], [2, 4]])


def test_load_nan_cell_reports_coordinate(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,nan\n")
    with pytest.raises(DataError) as err:
        load_matrix(path, layout="rows", delta_t=1.0)
    assert (2, 2) in err.value.coordinates


def test_load_non_numeric_cell(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ParseError) as err:
        load_matrix(path, layout="rows", delta_t=1.0)
    assert (err.value.row, err.value.col) == (2, 2)


def test_load_ragged_rows(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ShapeError):
        load_matrix(path, layout="rows", delta_t=1.0)


def test_load_inf_rejected(tmp_path):
    path = tmp_path / "inf.csv"
    path.write_text("1,inf\n2,3\n")
    with pytest.raises(DataError) as err:
        load_matrix(path, layout="rows", delta_t=1.0)
    assert (1, 2) in err.value.coordinates


def test_speed_matrix_validation():
    with pytest.raises(ConfigError):
        SpeedMatrix(values=np.ones((2, 3)), delta_t=0.0)
    with pytest.raises(DataError):
        SpeedMatrix(values=np.array([[1.0, np.nan]]), delta_t=1.0)
    with pytest.raises(ShapeError):
        SpeedMatrix(values=np.ones((2, 3)), delta_t=1.0, sensor_ids=("only-one",))


def test_values_immutable():
    m = SpeedMatrix(values=np.ones((2, 3)), delta_t=1.0)
    with pytest.raises(ValueError):
        m.values[0, 0] = 2.0


def test_split_two_weeks_and_one():
    # 21 days of daily columns: first 14 train, last 7 test
    data = SpeedMatrix(values=np.arange(42.0).reshape(2, 21), delta_t=24.0)
    ds = split(data, 14)
    assert ds.train.n_time == 14
    assert ds.test.n_time == 7
    assert ds.train.sensor_ids == data.sensor_ids
    assert ds.train.delta_t == data.delta_t


def test_split_boundary_and_errors():
    data = SpeedMatrix(values=np.array([[1.0, 2.0]]), delta_t=1.0)
    ds = split(data, 1)
    assert ds.train.n_time == 1
    assert ds.test.n_time == 1
    with pytest.raises(RangeError):
        split(data, 2)
    with pytest.raises(RangeError):
        split(data, 0)


def test_split_concatenation_restores_source():
    rng = np.random.default_rng(3)
    data = SpeedMatrix(values=rng.normal(size=(4, 17)), delta_t=1.0)
    for k in (1, 5, 16):
        ds = split(data, k)
        rebuilt = np.hstack([ds.train.values, ds.test.values])
        assert np.array_equal(rebuilt, data.values)


@pytest.mark.parametrize("layout", ["rows", "cols"])
def test_save_load_round_trip_bit_exact(tmp_path, layout):
    rng = np.random.default_rng(11)
    values = rng.normal(scale=100.0, size=(5, 9))
    values[0, 0] = 1 / 3  # not exactly representable in decimal
    m = SpeedMatrix(values=values, delta_t=1 / 12)
    path = tmp_path / "rt.csv"
    save_matrix(m, path, layout=layout)
    back = load_matrix(path, layout=layout, delta_t=1 / 12)
    assert np.array_equal(back.values, m.values)
    if layout == "cols":
        assert back.sensor_ids == m.sensor_ids


# -- CSV text: the bytes csv.writer wrote with f"{v:.17g}" cells, and errors
# named exactly as the cell-by-cell reader named them --------------------

SPECIAL = [-0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
finite = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))


def _csv_writer_text(values, header=None):
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    if header is not None:
        writer.writerow(header)
    for row in values:
        writer.writerow([f"{v:.17g}" for v in row])
    return out.getvalue()


@settings(max_examples=60, deadline=None, database=None)
@given(
    values=arrays(float, st.tuples(st.integers(1, 4), st.integers(1, 6)), elements=finite),
    layout=st.sampled_from(["rows", "cols"]),
)
def test_save_matrix_writes_csv_writer_text_and_loads_bit_exact(tmp_path_factory, values, layout):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    m = SpeedMatrix(values=values, delta_t=1.0)
    save_matrix(m, path, layout=layout)
    if layout == "rows":
        expected = _csv_writer_text(values)
    else:
        expected = _csv_writer_text(values.T, header=m.sensor_ids)
    with open(path, newline="") as fh:
        assert fh.read() == expected
    if values.shape[1] < 2:  # a single time column is not an ingestible matrix
        with pytest.raises(ShapeError, match="T >= 2"):
            load_matrix(path, layout=layout)
        return
    back = load_matrix(path, layout=layout)
    assert np.array_equal(back.values.view(np.uint64), values.view(np.uint64))
    assert back.sensor_ids == m.sensor_ids


@pytest.mark.parametrize("shape", [(700, 30), (3, 9000)])  # many rows a block; one
def test_save_matrix_text_across_write_blocks(tmp_path, shape):
    values = np.random.default_rng(5).normal(scale=50.0, size=shape)
    path = tmp_path / "wide.csv"
    save_matrix(SpeedMatrix(values=values, delta_t=1.0), path)
    with open(path, newline="") as fh:
        assert fh.read() == _csv_writer_text(values)


def test_save_matrix_quotes_sensor_ids_like_csv_writer(tmp_path):
    values = np.arange(6.0).reshape(3, 2) / 7
    m = SpeedMatrix(values=values, delta_t=1.0, sensor_ids=("a,b", 'say "hi"', "s3"))
    path = tmp_path / "ids.csv"
    save_matrix(m, path, layout="cols")
    with open(path, newline="") as fh:
        assert fh.read() == _csv_writer_text(values.T, header=m.sensor_ids)
    back = load_matrix(path, layout="cols")
    assert back.sensor_ids == m.sensor_ids
    assert np.array_equal(back.values, values)


@pytest.mark.parametrize(
    "text, coordinates",
    [
        ("1,-inf\n2,3\n", [(1, 2)]),
        ("1,2\n1e400,NaN\n", [(2, 1), (2, 2)]),
        # the row is counted among non-blank rows, after the header
        ("a,b\n\n1,2\n\n3,inf\n", [(3, 2)]),
    ],
)
def test_load_rejects_non_finite_cells(tmp_path, text, coordinates):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError) as err:
        load_matrix(path)
    assert err.value.coordinates == coordinates


@pytest.mark.parametrize(
    "text, row, col, value",
    [
        ("1,2,3\n4,,6\n", 2, 2, ""),
        ("a,b\n\n1,2\n\n3, x \n", 3, 2, "x"),
        ("1,2\n3,x\n1,2,3\n", 2, 2, "x"),  # before the ragged row below it
    ],
)
def test_load_parse_error_coordinates(tmp_path, text, row, col, value):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_matrix(path)
    assert (err.value.row, err.value.col, err.value.value) == (row, col, value)


@pytest.mark.parametrize(
    "text, message",
    [
        ("1,2,3\n4,5\n", "row 2 has 2 cells, expected 3"),
        ("a,b,c\n\n1,2,3\n\n4,5\n", "row 3 has 2 cells, expected 3"),
        ("1,2\n1,2,3\nx,1\n", "row 2 has 3 cells, expected 2"),  # before the bad cell
    ],
)
def test_load_ragged_row_message(tmp_path, text, message):
    path = tmp_path / "ragged.csv"
    path.write_text(text)
    with pytest.raises(ShapeError) as err:
        load_matrix(path)
    assert str(err.value) == f"{path}: {message}"


def test_load_accepts_what_float_accepts(tmp_path):
    path = tmp_path / "odd.csv"
    path.write_text(" 7 ,1_000,+.5\n-0,1e-320,1E3\n")
    m = load_matrix(path)
    assert np.array_equal(m.values, [[7.0, 1000.0, 0.5], [-0.0, 1e-320, 1000.0]])
    assert np.signbit(m.values[1, 0])


# -- the bulk parser (np.loadtxt) against the csv.reader path it falls back to

EXACT_FORMATS = ["{:.17g}", "{!r}", " {:.17g} "]  # text that reads back bit-exactly
CELL_FORMATS = EXACT_FORMATS + ["{:.6e}", "{:.3f}", "{:+.10G}"]


@settings(max_examples=60, deadline=None, database=None)
@given(
    values=arrays(float, st.tuples(st.integers(2, 4), st.integers(2, 6)), elements=finite),
    cell=st.sampled_from(CELL_FORMATS),
    newline=st.sampled_from(["\n", "\r\n"]),
    header=st.booleans(),
    blank=st.booleans(),
)
def test_load_bulk_path_matches_the_csv_reader_path(
    tmp_path_factory, values, cell, newline, header, blank
):
    from unittest import mock

    from circdmd import datamodel

    lines = [",".join(cell.format(float(v)) for v in row) for row in values]
    if header:
        lines.insert(0, ",".join(f"id{j}" for j in range(values.shape[1])))
    if blank:  # before the first row and between every two
        lines = [part for line in lines for part in ("", line)]
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_bytes((newline.join(lines) + newline).encode())
    want = datamodel._read_cells(path, 2 if header else 1)
    with mock.patch.object(datamodel, "_read_cells", side_effect=AssertionError("fell back")):
        if not np.isfinite(want).all():  # a cell rounded up past the largest float
            with pytest.raises(DataError):
                load_matrix(path)
            return
        got = load_matrix(path, layout="cols" if header else "rows")
    if header:  # the cols layout: the header's ids, and the file transposed
        assert got.sensor_ids == tuple(f"id{j}" for j in range(values.shape[1]))
    got = got.values.T if header else got.values
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if cell in EXACT_FORMATS:
        assert np.array_equal(got.view(np.uint64), values.view(np.uint64))


@pytest.mark.parametrize(
    "text, row, col, value",
    [("1,2\n3,#\n", 2, 2, "#"), ("a,b\n1,2\n#3,4\n", 3, 1, "#3")],
)
def test_load_hash_cell_is_a_parse_error(tmp_path, text, row, col, value):
    # no comment syntax: a "#" cell is a cell that is not a number
    path = tmp_path / "hash.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        load_matrix(path)
    assert (err.value.row, err.value.col, err.value.value) == (row, col, value)


def test_load_crlf_and_blank_lines_with_a_cols_header(tmp_path):
    path = tmp_path / "crlf.csv"
    path.write_bytes(b"\r\na,b\r\n\r\n1,2\r\n\r\n3,4\r\n\r\n")
    m = load_matrix(path, layout="cols")
    assert m.sensor_ids == ("a", "b")
    assert np.array_equal(m.values, [[1, 3], [2, 4]])
    # a whitespace-only line is blank too, on the csv.reader path
    path.write_bytes(b"1,2\r\n   \r\n3,4\r\n")
    assert np.array_equal(load_matrix(path).values, [[1, 2], [3, 4]])
