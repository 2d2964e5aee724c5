"""Delay embeddings: circular shifts, anti-circulant and Hankel stacking.

Conventions, fixed once for the whole package:

* ``circshift(x, L)`` rotates the columns of ``x`` so that the column
  at position j moves to position j + L (mod T); ``circshift(X, -1)``
  therefore has columns (x2, ..., xT, x1).
* The anti-circulant embedding stacks tau shifted copies, block i being
  ``circshift(X, -i)``; its first block starts at x2.
* The right permutation reorders columns so block i starts at x_i; the
  permuted matrix is the snapshot sequence (c_1, ..., c_T).
* The inverse embedding averages the tau shifted copies back; composed
  with the forward embedding it is exact (not just approximate).
* :class:`DelayStack` is either stack as an operator: every block is a
  rotated (anti-circulant) or sliced (Hankel) copy of X, so its products
  and both of its Gram matrices reduce to N x T work and the (N*tau)-row
  matrix is never formed. The dense functions are its oracles.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from ._linalg import dot
from .datamodel import SpeedMatrix
from .errors import ConfigError, DataError, KindError, RangeError, ShapeError

ANTI_CIRCULANT = "anti-circulant"
HANKEL = "hankel"


@dataclass(frozen=True)
class EmbeddedMatrix:
    """A stacked delay embedding of an N x T matrix.

    ``values`` has N*tau rows; anti-circulant embeddings keep all T
    columns, Hankel embeddings keep T - tau + 1.
    """

    values: np.ndarray
    kind: str
    tau: int
    source_n: int
    source_t: int

    def block(self, i: int) -> np.ndarray:
        """Rows of shift block i (1-based, each block has N rows)."""
        if not 1 <= i <= self.tau:
            raise RangeError(f"block index {i} outside 1..{self.tau}")
        n = self.source_n
        return self.values[(i - 1) * n : i * n, :]


def circshift(x: np.ndarray, shift: int) -> np.ndarray:
    """Rotate columns by ``shift`` positions (reduced modulo the width)."""
    x = np.asarray(x)
    if x.ndim != 2:
        raise ShapeError(f"circshift expects a 2-D matrix, got ndim={x.ndim}")
    return np.roll(x, shift, axis=1)


def anti_circulant(x: SpeedMatrix, tau: int) -> EmbeddedMatrix:
    """Stack tau circularly shifted copies of the data into an (N*tau) x T matrix.

    Block i (1-based) equals ``circshift(X, -i)``, so the first block's
    leading column is x2 and the last block's is x_{tau+1}.
    """
    n, t = x.values.shape
    if not 1 <= tau <= t:
        raise RangeError(f"tau must satisfy 1 <= tau <= {t}, got {tau}")
    blocks = [circshift(x.values, -i) for i in range(1, tau + 1)]
    return EmbeddedMatrix(
        values=np.vstack(blocks), kind=ANTI_CIRCULANT, tau=tau, source_n=n, source_t=t
    )


def apply_right_permutation(c: EmbeddedMatrix) -> EmbeddedMatrix:
    """Reorder columns to snapshot order: the last column of C becomes first.

    The permutation (c2, ..., cT, c1) -> (c1, ..., cT) is a rotation of
    the columns by one. The result's block i starts at x_i, so column t
    is the snapshot c_t.
    """
    if c.kind != ANTI_CIRCULANT:
        raise KindError(f"right permutation applies to anti-circulant matrices, got {c.kind}")
    return EmbeddedMatrix(
        values=circshift(c.values, 1),
        kind=c.kind,
        tau=c.tau,
        source_n=c.source_n,
        source_t=c.source_t,
    )


class DelayStack:
    """A delay stack of ``x`` with tau blocks, kept as ``x`` alone.

    Block i (0-based) is the ``width`` columns of ``x`` that start at
    column ``i + offset``. With ``wrap`` the columns are read modulo T
    and ``width = T``: offset 0 is the snapshot-ordered source
    ``apply_right_permutation(anti_circulant(X, tau))`` and offset 1 the
    target ``anti_circulant(X, tau)``. Without ``wrap``, ``width = T -
    tau``: offsets 0 and 1 are the Hankel stack ``hankel(X, tau)``
    without its last and without its first column, and tau = 1 is plain
    DMD's pair. ``stack @ y`` and ``z @ stack`` return what the dense
    stack would; ``gram()`` and ``stack_gram()`` return the upper
    triangles of its time-side and stack-side Gram matrices, the
    triangle the eigensolve reads.
    """

    __array_ufunc__ = None  # so that ndarray @ stack calls __rmatmul__

    def __init__(self, x: np.ndarray, tau: int, offset: int, wrap: bool):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.size == 0:
            raise ShapeError(f"expected a non-empty 2-D matrix, got shape {x.shape}")
        t = x.shape[1]
        max_tau = t if wrap else t - 1
        if not 1 <= tau <= max_tau:
            raise RangeError(f"tau must satisfy 1 <= tau <= {max_tau}, got {tau}")
        if offset not in (0, 1):
            raise RangeError(f"offset must be 0 or 1, got {offset}")
        if not np.isfinite(x).all():
            bad = [(int(i), int(j)) for i, j in zip(*np.nonzero(~np.isfinite(x)))]
            raise DataError("non-finite matrix entries", coordinates=bad[:10])
        self.x = x
        self.tau = tau
        self.width = t if wrap else t - tau
        self.starts = np.arange(offset, offset + tau) % t  # each block's first column

    @property
    def shape(self):
        return (self.x.shape[0] * self.tau, self.width)

    def _pieces(self, start):
        """(x columns, block columns) slices tiling the block that starts
        at column ``start``: one run of x, and for a circular block that
        passes column T - 1, its continuation from column 0."""
        head = min(self.width, self.x.shape[1] - start)
        yield slice(start, start + head), slice(0, head)
        if head < self.width:
            yield slice(0, self.width - head), slice(head, self.width)

    def __matmul__(self, y):
        # a C-ordered operand, whose row slices BLAS reads without a copy:
        # an F-ordered one (an eigensolver's vectors) would be copied per block
        y = np.ascontiguousarray(y)
        n, xt = self.x.shape[0], _columns_as_rows(self.x, self.starts, self.width)
        out = np.zeros((n * self.tau,) + y.shape[1:], dtype=np.result_type(y, self.x))
        for i, start in enumerate(self.starts):
            for cols, rows in self._pieces(start):
                out[i * n : (i + 1) * n] += dot(xt[cols].T, y[rows])
        return out

    def __rmatmul__(self, z):
        z = np.asarray(z)
        n, xt = self.x.shape[0], _columns_as_rows(self.x, self.starts, self.width)
        out = np.zeros(z.shape[:-1] + (self.width,), dtype=np.result_type(z, self.x))
        for i, start in enumerate(self.starts):
            for cols, rows in self._pieces(start):
                out[..., rows] += dot(z[..., i * n : (i + 1) * n], xt[cols].T)
        return out

    def column(self, j: int) -> np.ndarray:
        """Column j: block i holds x_{i+offset+j}, 0-based and wrapped."""
        return self.x[:, (self.starts + j) % self.x.shape[1]].ravel(order="F")

    def gram(self) -> np.ndarray:
        """The upper triangle of the width x width ``S.T @ S``: G[j, l] =
        sum over shifts s of K[j+s, l+s] for l >= j, and 0 below the
        diagonal (see :func:`_window_gram`)."""
        return _window_gram(self.x, self.tau, self.width, (int(self.starts[0]),))

    def stack_gram(self) -> np.ndarray:
        """The upper block triangle of the (N*tau) x (N*tau) ``S @ S.T``,
        from lagged N x N products of x, and 0 in the blocks below the
        block diagonal (see :func:`_block_gram`)."""
        return _block_gram(self.x, self.starts, self.width)


def _columns_as_rows(x: np.ndarray, starts, width: int) -> np.ndarray:
    """x.T, whose row j is column j of x, for the products of the stack
    whose blocks of ``width`` columns start at ``starts``: a C-ordered
    copy, so that every run of columns is a Fortran-ordered view that
    BLAS reads without a copy, unless the stack's one block is x itself,
    which BLAS reads as it is."""
    whole = len(starts) == 1 and starts[0] == 0 and width == x.shape[1]
    return x.T if whole else np.ascontiguousarray(x.T)


def _window_gram(x: np.ndarray, tau: int, width: int, leads) -> np.ndarray:
    """The upper triangle of the sum, over the stacks of x with tau blocks
    of ``width`` columns whose first blocks start at the columns
    ``leads``, of their time-side Gram matrices ``S.T @ S``: G[j, l] =
    sum over leads and shifts s of K[j+s, l+s], l >= j, with s = lead ..
    lead + tau - 1. The strict lower triangle is left unwritten (see
    :func:`_triangle`).

    The sum runs along the diagonals of K = X.T X, wrapped modulo T
    for a circular stack (width T); a Hankel stack's indices never pass
    T - 1. With D[i, d] = K[i, i+d], a stack's row j of G from its
    diagonal on is the window sum w_j = sum_s D[j+s], and w_{j+1}
    differs from w_j by one row of D entering and one leaving. The
    window is summed afresh every tau rows, so rounding cannot build up
    over more updates than the window has terms. Each stack keeps its
    own window, and the windows of row j are added to G in the order of
    ``leads``: the same bits as summing the stacks' separate Gram
    matrices.

    ``dsyrk`` writes the upper triangle of K's W x W block from column
    ``low`` on into the triangle (low is 0 for a circular stack and the
    first lead for a Hankel one), so D's row i starts in its row i -
    low. Where the row runs past the block it goes on in ``strip``, K's
    rows against the columns after the block: a Hankel stack's last
    columns of x, formed by one product, or a circular stack's first
    ones again, copied from the block's first rows. The strip's columns
    also hold the first rows of D that a circular stack's last windows
    read again. Row j of G is written over the block's row j, which no
    later window reads, save as the row that leaves the next window of
    a stack that leads at ``low``: that one is copied first. A one-block
    stack that leads at ``low`` has the block itself for its Gram.
    """
    t = x.shape[1]
    w = width
    low = 0 if w == t else min(leads)
    g = _triangle(w)
    # dsyrk fills the lower triangle of g.T, which is g's upper triangle
    blas.dsyrk(1.0, x[:, low : low + w].T, lower=1, c=g.T, overwrite_c=1)
    if tau == 1 and tuple(leads) == (low,):
        return g
    if w == t:  # strip[i, c] = K[c, i] for i > c, read off the block's upper triangle
        strip = g[: max(leads) + tau - 1].T.copy()
    else:  # strip[i, c] = K[low + i, low + w + c]
        strip = dot(x[:, low:].T, x[:, low + w :])

    joined = np.empty(w)  # a row of D that is read from two runs
    left = np.empty(w)  # D's row that leaves the next window of a stack leading at low
    sums = np.empty((len(leads), w))  # each stack's window

    def row(i, size):
        """D's row i, its first ``size`` cells."""
        r = i - low
        if r >= t:  # a circular stack's last windows wrap round to D's row r - T
            r -= t
            return np.concatenate((strip[r:, r], strip[r, :r]), out=joined)[:size]
        head = g[r, r : r + size] if r < w else strip[r, :0]
        if len(head) == size:
            return head
        start = max(r - w, 0)
        tail = strip[r, start : start + size - len(head)]
        return np.concatenate((head, tail), out=joined[:size])

    windows = list(sums)
    for j in range(w):
        size = w - j  # window j reaches D's columns 0 .. w - j - 1
        for k, lead in enumerate(leads):
            first = j + lead
            windows[k] = windows[k][:size]
            if j % tau == 0:
                # added row by row in order: the bits of a sum over axis 0
                windows[k][:] = row(first, size)
                for i in range(first + 1, first + tau):
                    windows[k] += row(i, size)
            else:
                windows[k] += row(first + tau - 1, size)
                windows[k] -= left[:size] if lead == low else row(first - 1, size)
        if low in leads:
            left[:size] = g[j, j:]
        out = g[j, j:]
        out[:] = windows[0]
        for window in windows[1:]:
            out += window
    return g


def _triangle(n: int, dtype=np.float64) -> np.ndarray:
    """An n x n array of zeros (float64, or ``dtype``) for a Gram matrix
    of which only the upper triangle is written, the triangle LAPACK
    reads of its Fortran-ordered transpose.

    It lies on private anonymous memory in 4 KB pages, so a page
    becomes resident only when it is first written, and the pages that
    hold nothing but the strict lower triangle never do. numpy would
    ask for 2 MB transparent huge pages for an array of 4 MB or more,
    and one huge page spans rows of both triangles: a triangle written
    there makes the whole array resident. The memory is unmapped when
    the last view of it is freed. Where ``mmap`` has no ``MAP_PRIVATE``
    (Windows), its default anonymous mapping serves. A mapping the
    system refuses is a ConfigError that names the Gram and its size.
    """
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    size = n * n * np.dtype(dtype).itemsize
    try:
        pages = mmap.mmap(-1, size, **private)
    except OSError as exc:
        raise ConfigError(
            f"cannot map the {n} x {n} Gram matrix ({size} bytes): {exc.strerror}"
        ) from None
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(pages, dtype=dtype).reshape(n, n)


# The float32 copy of a Gram is made this many bytes of float64 rows at a
# time, so that the rounding error's temporary stays well under 1 MB.
_ROUND_BYTES = 1 << 18


def _single_triangle(g: np.ndarray):
    """(f, error): the float32 rounding of the upper triangle of the
    float64 Gram ``g``, in a :func:`_triangle` of its own, and the
    Frobenius norm of its rounding error over the whole symmetric matrix
    the triangle stands for (each cell off the diagonal counted twice).

    The rows are rounded a block of about 256 KB at a time. Where ``g``
    is a mapping of its own (a :func:`_triangle`), the pages of the rows
    already rounded are released as the copy goes (``MADV_DONTNEED``):
    a float32 row is half the float64 row it replaces, so the two
    triangles together never hold more pages than ``g`` alone. ``g``'s
    values are then lost (on Linux its released pages read as zeros).
    """
    n = len(g)
    f = _triangle(n, np.float32)
    pages = g
    while isinstance(pages, np.ndarray):
        pages = pages.base
    pages = pages.obj if isinstance(pages, memoryview) else pages
    release = (isinstance(pages, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED")
               and g.flags.c_contiguous and len(pages) == g.nbytes)
    step = max(1, _ROUND_BYTES // (8 * n))
    squares = 0.0
    released = 0
    for j in range(0, n, step):
        rows = slice(j, min(j + step, n))
        b = rows.stop - j
        f[rows, j:] = g[rows, j:]
        error = f[rows, j:].astype(np.float64)
        error -= g[rows, j:]
        error[:, :b][np.tril_indices(b, -1)] = 0.0  # below the diagonal: not the triangle's
        np.square(error, out=error)
        squares += 2.0 * error.sum() - np.trace(error)
        if release:
            done = rows.stop * n * 8 // mmap.PAGESIZE * mmap.PAGESIZE
            if done > released:
                pages.madvise(mmap.MADV_DONTNEED, released, done - released)
                released = done
    return f, float(np.sqrt(squares))


def _block_gram(x: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """The upper block triangle of ``S @ S.T`` for the stack S of the L
    blocks B_a = x[:, s_a : s_a + width], s_a = starts[a] = starts[0] +
    a, columns read modulo T. The blocks below the block diagonal are
    left unwritten (see :func:`_triangle`).

    Block (a, a + m) is B_a B_{a+m}.T. The first block on each block
    diagonal m is one N x width x N product, and each later one is its
    predecessor plus the column pair that enters the window minus the
    pair that leaves it:
    H[a+1, a+1+m] = H[a, a+m] + x_{s_a+W} x_{s_a+m+W}.T - x_{s_a} x_{s_a+m}.T.
    A running sum thus adds at most L - 1 terms. A circular stack has
    width T, so the two pairs are the same columns and cancel exactly:
    its block diagonals are constant. The first row of blocks sums over
    a window starting at s_0, or at column 0 when the window is a whole
    cycle; scipy's BLAS forms it, so the thread pools of numpy's and
    scipy's BLAS do not contend before the eigensolve.
    """
    n, t = x.shape
    blocks = len(starts)
    first = 0 if width == t else int(starts[0])
    xt = _columns_as_rows(x, starts, width)
    g = _triangle(blocks * n).reshape(blocks, n, blocks, n)
    for m in range(blocks):
        # column first + j meets column first + m + j, which may wrap
        head = min(width, t - first - m)
        lag = dot(xt[first : first + head].T, xt[first + m : first + m + head])
        if head < width:
            lag += dot(xt[first + head : first + width].T, xt[: width - head])
        g[0, :, m, :] = lag
    enter = x[:, (starts[:-1] + width) % t]
    leave = x[:, starts[:-1]]
    for a in range(1, blocks):
        row = g[a, :, a:, :]
        row[...] = g[a - 1, :, a - 1 : blocks - 1, :]
        row += enter[:, a - 1, None, None] * enter[:, a - 1 :].T
        row -= leave[:, a - 1, None, None] * leave[:, a - 1 :].T
    return g.reshape(blocks * n, blocks * n)


def hankel(x: SpeedMatrix, tau: int) -> EmbeddedMatrix:
    """Stack tau forward-shifted windows into an (N*tau) x (T-tau+1) matrix.

    Block i holds columns x_i ... x_{T-tau+i}; no wrap-around occurs.
    """
    n, t = x.values.shape
    if not 1 <= tau <= t:
        raise RangeError(f"tau must satisfy 1 <= tau <= {t}, got {tau}")
    width = t - tau + 1
    blocks = [x.values[:, i : i + width] for i in range(tau)]
    return EmbeddedMatrix(
        values=np.vstack(blocks), kind=HANKEL, tau=tau, source_n=n, source_t=t
    )


def inverse_anti_circulant(c: np.ndarray, n: int, tau: int) -> np.ndarray:
    """Collapse an anti-circulant stack back to N rows by averaging.

    Input blocks are expected in the unpermuted layout produced by
    :func:`anti_circulant` (block i = ``circshift(X, -i)``); rotating
    block i back by +i and averaging recovers X exactly:
    ``inverse_anti_circulant(anti_circulant(X, tau).values, N, tau) == X``.
    """
    c = np.asarray(c)
    if c.ndim != 2 or c.shape[0] != n * tau:
        raise ShapeError(
            f"expected {n * tau} rows for n={n}, tau={tau}, got shape {c.shape}"
        )
    acc = np.zeros((n, c.shape[1]), dtype=c.dtype)
    for i in range(1, tau + 1):
        acc += np.roll(c[(i - 1) * n : i * n, :], i, axis=1)
    return acc / tau


def collapse_snapshot_reconstruction(c: np.ndarray, n: int, tau: int) -> np.ndarray:
    """Averaging inverse for matrices in snapshot (permuted) layout.

    Reconstructions are produced column-by-column as snapshots
    (c_1, c_2, ...), i.e. block i of column t estimates x_{t+i-1}.
    Rotating block i back by i-1 and averaging yields the N-row
    estimate; the shift is circular over the full window, so forecast
    windows reuse the same rule.
    """
    c = np.asarray(c)
    if c.ndim != 2 or c.shape[0] != n * tau:
        raise ShapeError(
            f"expected {n * tau} rows for n={n}, tau={tau}, got shape {c.shape}"
        )
    acc = np.zeros((n, c.shape[1]), dtype=c.dtype)
    for i in range(1, tau + 1):
        acc += np.roll(c[(i - 1) * n : i * n, :], i - 1, axis=1)
    return acc / tau


def inverse_hankel(h: np.ndarray, n: int, tau: int) -> np.ndarray:
    """Collapse a Hankel stack by averaging every delayed copy of each time.

    Block i of column j estimates x_{i+j-1}; all available copies of a
    timestamp (between 1 and tau of them) are averaged. The output has
    (columns + tau - 1) timestamps.
    """
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != n * tau:
        raise ShapeError(
            f"expected {n * tau} rows for n={n}, tau={tau}, got shape {h.shape}"
        )
    width = h.shape[1]
    out_t = width + tau - 1
    acc = np.zeros((n, out_t), dtype=h.dtype)
    count = np.zeros(out_t)
    for i in range(tau):
        acc[:, i : i + width] += h[i * n : (i + 1) * n, :]
        count[i : i + width] += 1
    return acc / count
