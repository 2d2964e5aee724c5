"""Ingestion and validation of sensor-by-time speed matrices.

The canonical in-memory layout is sensors along rows and time along
columns. CSV files may store either orientation; the loader transposes
as requested. All values must be finite after ingestion; missing-value
imputation is deliberately out of scope and happens upstream.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, ParseError, RangeError, ShapeError

LAYOUT_ROWS = "rows"
LAYOUT_COLS = "cols"


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, order="C", copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SpeedMatrix:
    """Real N x T matrix of sensor readings on a uniform time grid.

    Parameters
    ----------
    values : ndarray, shape (N, T)
        One row per sensor, one column per timestamp.
    delta_t : float
        Sampling interval in hours (e.g. 1/12 for 5-minute data).
    sensor_ids : sequence of str, optional
        One identifier per row; synthesized as "s0001", ... when absent.
    start_timestamp : str, optional
        Calendar anchor of column 0. Metadata only; algorithms work on
        column indices and ``delta_t``.
    """

    values: np.ndarray
    delta_t: float
    sensor_ids: tuple = ()
    start_timestamp: Optional[str] = None

    def __post_init__(self):
        values = _readonly(self.values)
        object.__setattr__(self, "values", values)
        if values.ndim != 2:
            raise ShapeError(f"expected a 2-D matrix, got ndim={values.ndim}")
        n, t = values.shape
        # T == 1 is tolerated so split() can hand out single-column pieces;
        # ingestion enforces T >= 2.
        if n < 1 or t < 1:
            raise ShapeError(f"need N >= 1 and T >= 1, got {n} x {t}")
        if not np.isfinite(values).all():
            bad = [(int(i), int(j)) for i, j in zip(*np.nonzero(~np.isfinite(values)))]
            raise DataError("non-finite entries", coordinates=bad)
        if not (isinstance(self.delta_t, (int, float)) and self.delta_t > 0):
            raise ConfigError(f"delta_t must be positive, got {self.delta_t}")
        if self.sensor_ids:
            ids = tuple(str(s) for s in self.sensor_ids)
            if len(ids) != n:
                raise ShapeError(f"{len(ids)} sensor ids for {n} sensors")
        else:
            ids = tuple(f"s{i + 1:04d}" for i in range(n))
        object.__setattr__(self, "sensor_ids", ids)

    @property
    def n_sensors(self) -> int:
        return self.values.shape[0]

    @property
    def n_time(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class Dataset:
    """A train/test split of one source matrix along the time axis."""

    train: SpeedMatrix
    test: SpeedMatrix
    split_index: int


def _parse_cell(cell: str, row: int, col: int) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ParseError(row, col, cell) from None


def load_matrix(path, layout: str = LAYOUT_ROWS, delta_t: float = 1.0) -> SpeedMatrix:
    """Load a CSV file into a validated SpeedMatrix.

    The file is plain comma-separated numerics with an optional header
    row. A header is detected when any cell of the first row fails to
    parse as a number; with ``layout="cols"`` the header supplies the
    sensor ids, with ``layout="rows"`` it is consumed and ignored.
    Row/column coordinates in errors are 1-based file positions.
    """
    if layout not in (LAYOUT_ROWS, LAYOUT_COLS):
        raise ConfigError(f"layout must be 'rows' or 'cols', got {layout!r}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        rows = (r for r in reader if r and any(c.strip() for c in r))
        first = next(rows, None)
        if first is None:
            raise ShapeError(f"{path}: empty file")
        header, skip = None, 0
        if any(not _is_number(c) for c in first):
            header, skip = [c.strip() for c in first], reader.line_num
            if next(rows, None) is None:
                raise ShapeError(f"{path}: header without data rows")

    offset = 2 if header is not None else 1
    try:
        # "#" is a cell like any other, and a bad one an error: never a comment
        data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=skip)
    except ValueError:  # ragged rows, blank cells, text float() alone reads
        data = _read_cells(path, offset)

    bad = [(int(i) + offset, int(j) + 1) for i, j in zip(*np.nonzero(~np.isfinite(data)))]
    if bad:
        raise DataError(f"{path}: non-finite values", coordinates=bad)

    if layout == LAYOUT_COLS:
        data = data.T
        ids = tuple(header) if header else ()
    else:
        ids = ()
    if data.shape[1] < 2:
        raise ShapeError(f"{path}: ingested matrix needs T >= 2, got T={data.shape[1]}")
    return SpeedMatrix(values=data, delta_t=delta_t, sensor_ids=ids)


def _read_cells(path, offset: int) -> np.ndarray:
    """The data rows of ``path`` through ``csv.reader``, blank rows skipped
    and the header (``offset`` 2) dropped: each cell as ``float`` reads
    it, and the first ragged row or bad cell named by its file position."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r and any(c.strip() for c in r)][offset - 1 :]
    try:
        return np.array(rows, dtype=float)
    except ValueError:  # cell by cell, to name the first ragged row or bad cell
        width = len(rows[0])
        data = np.empty((len(rows), width), dtype=float)
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ShapeError(
                    f"{path}: row {i + offset} has {len(row)} cells, expected {width}"
                )
            for j, cell in enumerate(row):
                data[i, j] = _parse_cell(cell.strip(), i + offset, j + 1)
        return data


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def save_matrix(matrix: SpeedMatrix, path, layout: str = LAYOUT_ROWS) -> None:
    """Write a SpeedMatrix as CSV.

    Values are formatted with 17 significant digits so that float64
    contents survive a save/load round trip bit-exactly. The ``cols``
    layout writes the sensor ids as a header row; the ``rows`` layout
    writes no header.
    """
    if layout not in (LAYOUT_ROWS, LAYOUT_COLS):
        raise ConfigError(f"layout must be 'rows' or 'cols', got {layout!r}")
    if layout == LAYOUT_ROWS:
        _write_csv(path, matrix.values)
    else:
        _write_csv(path, matrix.values.T, header=matrix.sensor_ids)


# Rows go out in blocks of about this many cells (a row at least): a
# block's floats and text take a few hundred kB, and at 1 << 16 the heap
# they left behind already raised the peak RSS of a later fit by 3 MB.
_BLOCK_CELLS = 1 << 13


def _write_csv(path, values: np.ndarray, cells="%.17g", header=None) -> None:
    """Write a 2-D array as CSV, rows ending in CRLF as ``csv.writer`` ends them.

    ``cells`` is one %-format for every cell or a list of one per
    column; "%.17g" is the text of ``f"{v:.17g}"``, which reads back
    bit-exactly. Each block of rows is formatted by a single ``%``.
    ``header``, if given, is a first row of strings.
    """
    n_rows, width = values.shape
    line = ",".join([cells] * width if isinstance(cells, str) else cells) + "\r\n"
    step = max(1, _BLOCK_CELLS // max(1, width))
    with open(path, "w", newline="") as fh:
        if header is not None:
            csv.writer(fh).writerow(header)
        for start in range(0, n_rows, step):
            block = values[start : start + step]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def split(data: SpeedMatrix, split_index: int) -> Dataset:
    """Split along the time axis: train gets columns [0, k), test [k, T)."""
    t = data.n_time
    if not 1 <= split_index < t:
        raise RangeError(f"split_index must satisfy 1 <= k < {t}, got {split_index}")
    train = SpeedMatrix(
        values=data.values[:, :split_index],
        delta_t=data.delta_t,
        sensor_ids=data.sensor_ids,
        start_timestamp=data.start_timestamp,
    )
    test = SpeedMatrix(
        values=data.values[:, split_index:],
        delta_t=data.delta_t,
        sensor_ids=data.sensor_ids,
        start_timestamp=None,
    )
    return Dataset(train=train, test=test, split_index=split_index)
