"""Ingestion and validation of sensor-by-time speed matrices.

The canonical in-memory layout is sensors along rows and time along
columns. CSV files may store either orientation; the loader transposes
as requested. All values must be finite after ingestion; missing-value
imputation is deliberately out of scope and happens upstream.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, ParseError, RangeError, ShapeError

LAYOUT_ROWS = "rows"
LAYOUT_COLS = "cols"


def _check_finite(values: np.ndarray, message: str, offset=(0, 0)) -> None:
    """Raise a DataError with ``message`` unless every entry of the 2-D
    ``values`` is finite. It names the first ten cells that are not, as
    (row, column) pairs shifted by ``offset`` to give file positions, and
    how many there are when there are more."""
    if not np.isfinite(values).all():
        bad = np.argwhere(~np.isfinite(values)) + offset
        if len(bad) > 10:
            message = f"{message} ({len(bad)} cells, the first 10 named)"
        raise DataError(message, coordinates=[(int(i), int(j)) for i, j in bad[:10]])


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float, order="C", copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SpeedMatrix:
    """Real N x T matrix of sensor readings on a uniform time grid.

    Columns carry no calendar time: algorithms work on column indices
    and ``delta_t``.

    Parameters
    ----------
    values : ndarray, shape (N, T)
        One row per sensor, one column per timestamp.
    delta_t : float
        Sampling interval in hours (e.g. 1/12 for 5-minute data).
    sensor_ids : sequence of str, optional
        One identifier per row; synthesized as "s0001", ... when absent.
    """

    values: np.ndarray
    delta_t: float
    sensor_ids: tuple = ()

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
        _check_finite(values, "non-finite entries")
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

    _check_finite(data, f"{path}: non-finite values", (offset, 1))

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
# block's arrays peak at 1.4 MB in ``_g17_block``, and at 1 << 16 cells the
# heap that per-cell floats and text left behind raised the peak RSS of a
# later fit by 3 MB.
_BLOCK_CELLS = 1 << 13


def _write_csv(path, values: np.ndarray, cells="%.17g", header=None) -> None:
    """Write a 2-D array as CSV, rows ending in CRLF as ``csv.writer`` ends them.

    ``cells`` is one %-format for every cell or a list of one per
    column; "%.17g" is the text of ``f"{v:.17g}"``, which reads back
    bit-exactly. Float64 "%.17g" cells are formatted by
    :func:`_g17_block` in array arithmetic; any other block by a single
    ``%``. ``header``, if given, is a first row of strings.
    """
    n_rows, width = values.shape
    line = ",".join([cells] * width if isinstance(cells, str) else cells) + "\r\n"
    step = max(1, _BLOCK_CELLS // max(1, width))
    exact = cells == "%.17g" and values.dtype == np.float64 and width > 0
    with open(path, "wb") as fh:
        if header is not None:
            row = io.StringIO()
            csv.writer(row).writerow(header)
            fh.write(row.getvalue().encode())
        for start in range(0, n_rows, step):
            block = values[start : start + step]
            if exact:
                fh.write(_g17_block(block))
            else:
                fh.write((line * len(block) % tuple(block.ravel().tolist())).encode())


# -- "%.17g" in array arithmetic ---------------------------------------------
#
# A cell v with 1e-4 <= |v| < 1e16 prints in fixed notation: its 17
# significant digits D, 10**16 <= D < 10**17, are |v| * 10**k rounded half
# to even with k = 16 - X, X = floor(log10 |v|) in -4..15, and 10**k is an
# exact double (k <= 22). Dekker's product gives |v| * 10**k = p + e
# exactly (Dekker 1971, Numer. Math. 18). Then p >= 2**53 is an even
# integer, so D = p + rint(e). Trailing zeros of the fraction go, and with
# them the point. Zero is "0" and "-0". Any other cell (exponent notation,
# NaN, inf) takes Python's own formatting.

_SPLIT = 134217729.0  # 2**27 + 1: Veltkamp's split into 26- and 27-bit halves
_POW10 = 10.0 ** np.arange(23)
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# "0000".."9999" as one uint32 each, so a 4-digit group is one gather,
# and the trailing zeros of each group (4 for "0000")
_DIGITS4 = np.frombuffer("".join(f"{i:04d}" for i in range(10**4)).encode(), np.uint32)
_TRAILING4 = np.array(
    [4] + [len(f"{i}") - len(f"{i}".rstrip("0")) for i in range(1, 10**4)], dtype=np.int8
)

# A cell's text is laid out in a row of _WIDTH bytes: column 0 the sign,
# columns 1-22 the body (at most "0.000" and 17 digits), column 24 "," or
# CR, column 25 LF; a cell in Python's formatting takes columns 0-23.
# ``_digit_rows`` puts digit j of D at column 7 + j of a row of the same
# width, and a body column c takes the byte at c + m of it for one shift
# m: for X >= 0, m = 6 up to the point and 5 past it; for X < 0, m = 5 + X,
# which also brings the zeros ahead of the digits.
_WIDTH = 28
_SEPARATOR = 24


def _layout_tables():
    """By X + 4: the columns each shift m fills (0xFF), and the bytes
    that do not come from the digits. By body length: the columns kept."""
    takes = np.zeros((7, 20, _WIDTH), dtype=np.uint8)
    fixed = np.zeros((20, _WIDTH), dtype=np.uint8)
    fixed[:, [0, _SEPARATOR, _SEPARATOR + 1]] = np.frombuffer(b"-,\n", np.uint8)
    for x in range(-4, 16):
        point = max(x, 0) + 2
        fixed[x + 4, point] = ord(".")
        if x >= 0:
            takes[6, x + 4, 1:point] = 0xFF
            takes[5, x + 4, point + 1 : 23] = 0xFF
        else:
            takes[5 + x, x + 4, [1, *range(3, 23)]] = 0xFF
    keep = np.zeros((23, _WIDTH), dtype=bool)
    keep[:, _SEPARATOR] = True
    for n in range(23):
        keep[n, 1 : n + 1] = True
    return takes, fixed, keep


_TAKES, _FIXED, _KEEP = _layout_tables()


def _g17_block(block: np.ndarray) -> bytes:
    """The CSV bytes of a float64 block of rows with ``f"{v:.17g}"`` cells."""
    width = block.shape[1]
    v = block.ravel()
    a = np.abs(v)
    zero = a == 0
    other = ~((a >= 1e-4) & (a < 1e16) | zero)  # NaN fails both tests
    a[zero | other] = 1.0  # X = 0
    d, x = _digits17(a)
    d[zero] = 0
    digits, trailing = _digit_rows(d)
    integer = np.maximum(x, 0) + 1
    fraction = np.maximum(16 - x - trailing, 0)
    body = integer + (fraction > 0) * (fraction + 1)

    code = x + 4
    n = v.size
    text = _FIXED.take(code, axis=0)
    flat = text.reshape(-1)
    present = np.bincount(code, minlength=20) > 0
    for m in np.flatnonzero(_TAKES[:, present].any(axis=(1, 2))):
        shifted = digits.reshape(-1)[m : m + n * _WIDTH]
        flat |= shifted & _TAKES[m].take(code, axis=0).reshape(-1)
    keep = _KEEP.take(body, axis=0)
    keep[:, 0] = np.signbit(v)
    keep[width - 1 :: width, _SEPARATOR + 1] = True
    text[width - 1 :: width, _SEPARATOR] = ord("\r")
    if other.any():  # at most 24 bytes: "-2.2250738585072014e-308"
        at = np.flatnonzero(other)
        cells = [f"{c:.17g}" for c in v[at].tolist()]
        chars = np.array(cells, dtype=f"S{_SEPARATOR}").view(np.uint8)
        text[at, :_SEPARATOR] = chars.reshape(-1, _SEPARATOR)
        keep[at, :_SEPARATOR] = np.arange(_SEPARATOR) < np.array([len(c) for c in cells])[:, None]
    return text[keep].tobytes()


def _digits17(a: np.ndarray):
    """(D, X) for positive ``a``: D = a * 10**(16 - X) rounded half to
    even, with X chosen so that 10**16 <= D < 10**17.

    log10 may put X one off next to a power of ten; such a cell is
    redone with X moved toward the right one. The tests are on the
    exact product p + e, not on p alone: the double below 0.1 times
    10**17 is 9999999999999999.17, whose p is 1e16.
    """
    x = np.floor(np.log10(a)).astype(np.int64)
    p, e = _times_pow10(a, 16 - x)
    d = p.astype(np.int64) + np.rint(e).astype(np.int64)
    while True:
        low = (p < 1e16) | ((p == 1e16) & (e < 0))  # a * 10**k < 10**16
        high = d >= 10**17  # rounds to 18 digits: only when X is too small
        redo = np.flatnonzero(low | high)
        if redo.size == 0:
            return d, x
        x[redo] += np.where(high[redo], 1, -1)
        p[redo], e[redo] = _times_pow10(a[redo], 16 - x[redo])
        d[redo] = p[redo].astype(np.int64) + np.rint(e[redo]).astype(np.int64)


def _times_pow10(a: np.ndarray, k: np.ndarray):
    """(p, e) with p = fl(a * 10**k) and p + e = a * 10**k exactly (Dekker)."""
    b, b_hi, b_lo = _POW10.take(k), _POW10_HI.take(k), _POW10_LO.take(k)
    c = a * _SPLIT
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p = a * b
    e = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return p, e


def _digit_rows(d: np.ndarray):
    """The 17 digits of each D as ASCII at columns 7-23 of a row of
    _WIDTH bytes, "0" elsewhere (one zero row more, so that a row may be
    read shifted), and the number of trailing zeros of each D."""
    high = d // 10**8
    low = d - high * 10**8
    lead = high // 10**8
    middle = high - lead * 10**8
    g1 = middle // 10**4
    g2 = middle - g1 * 10**4
    g3 = low // 10**4
    g4 = low - g3 * 10**4
    words = np.full((d.size + 1, _WIDTH // 4), _DIGITS4[0])
    for j, group in enumerate((lead, g1, g2, g3, g4), start=1):
        words[:-1, j] = _DIGITS4.take(group)
    t = _TRAILING4
    trailing = t.take(g4) + (g4 == 0) * (
        t.take(g3) + (g3 == 0) * (t.take(g2) + (g2 == 0) * t.take(g1)))
    return words.view(np.uint8), trailing


def split(data: SpeedMatrix, split_index: int) -> Dataset:
    """Split along the time axis: train gets columns [0, k), test [k, T)."""
    t = data.n_time
    if not 1 <= split_index < t:
        raise RangeError(f"split_index must satisfy 1 <= k < {t}, got {split_index}")
    train = SpeedMatrix(
        values=data.values[:, :split_index],
        delta_t=data.delta_t,
        sensor_ids=data.sensor_ids,
    )
    test = SpeedMatrix(
        values=data.values[:, split_index:],
        delta_t=data.delta_t,
        sensor_ids=data.sensor_ids,
    )
    return Dataset(train=train, test=test, split_index=split_index)
