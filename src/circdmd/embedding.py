"""Delay embeddings: circular shifts, anti-circulant and Hankel stacking.

Conventions, fixed once for the whole package:

* A shift by L is ``np.roll(x, L, axis=1)``: the column at position j
  moves to position j + L (mod T), so a shift by -1 has columns
  (x2, ..., xT, x1).
* The anti-circulant embedding stacks tau shifted copies, block i being
  ``np.roll(X, -i, axis=1)``; its first block starts at x2.
* The right permutation reorders columns so block i starts at x_i; the
  permuted matrix is the snapshot sequence (c_1, ..., c_T).
* The inverse embedding averages the tau shifted copies back; composed
  with the forward embedding it is exact (not just approximate).
* :class:`DelayStack` is either stack as an operator: every block is a
  rotated (anti-circulant) or sliced (Hankel) copy of X, so its products
  and both of its Gram matrices reduce to N x T work and the (N*tau)-row
  matrix is never formed. The dense functions are its oracles.
* A Gram is its upper triangle alone, in row panels packed on one
  mapping of its own (:class:`_Panels`); LAPACK's n x n layout is made
  from them only for the eigensolve.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from ._linalg import dot
from .datamodel import SpeedMatrix, _check_finite
from .errors import ConfigError, KindError, RangeError, ShapeError

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


def anti_circulant(x: SpeedMatrix, tau: int) -> EmbeddedMatrix:
    """Stack tau circularly shifted copies of the data into an (N*tau) x T matrix.

    Block i (1-based) equals ``np.roll(X, -i, axis=1)``, so the first block's
    leading column is x2 and the last block's is x_{tau+1}.
    """
    t = x.values.shape[1]
    if not 1 <= tau <= t:
        raise RangeError(f"tau must satisfy 1 <= tau <= {t}, got {tau}")
    blocks = [np.roll(x.values, -i, axis=1) for i in range(1, tau + 1)]
    return EmbeddedMatrix(values=np.vstack(blocks), kind=ANTI_CIRCULANT, tau=tau)


def apply_right_permutation(c: EmbeddedMatrix) -> EmbeddedMatrix:
    """Reorder columns to snapshot order: the last column of C becomes first.

    The permutation (c2, ..., cT, c1) -> (c1, ..., cT) is a rotation of
    the columns by one. The result's block i starts at x_i, so column t
    is the snapshot c_t.
    """
    if c.kind != ANTI_CIRCULANT:
        raise KindError(f"right permutation applies to anti-circulant matrices, got {c.kind}")
    return EmbeddedMatrix(values=np.roll(c.values, 1, axis=1), kind=c.kind, tau=c.tau)


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
    triangles of its time-side and stack-side Gram matrices in row
    panels (:class:`_Panels`).
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
        _check_finite(x, "non-finite matrix entries")
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

    def gram(self) -> _Panels:
        """The upper triangle of the width x width ``S.T @ S`` in row
        panels: G[j, l] = sum over shifts s of K[j+s, l+s] for l >= j
        (see :func:`_window_gram`)."""
        return _window_gram(self.x, self.tau, self.width, int(self.starts[0]))

    def stack_gram(self) -> _Panels:
        """The upper block triangle of the (N*tau) x (N*tau) ``S @ S.T``,
        from lagged N x N products of x, in row panels of one block row
        each (see :func:`_block_gram`)."""
        return _block_gram(self.x, self.starts, self.width)


def _columns_as_rows(x: np.ndarray, starts, width: int) -> np.ndarray:
    """x.T, whose row j is column j of x, for the products of the stack
    whose blocks of ``width`` columns start at ``starts``: a C-ordered
    copy, so that every run of columns is a Fortran-ordered view that
    BLAS reads without a copy, unless the stack's one block is x itself,
    which BLAS reads as it is."""
    whole = len(starts) == 1 and starts[0] == 0 and width == x.shape[1]
    return x.T if whole else np.ascontiguousarray(x.T)


# A time-side Gram is written in row panels of this many rows: the
# panels hold 63.5 cells a row past the triangle, and a product with
# them takes two dgemm calls a panel.
_PANEL_ROWS = 128

# The window kernel forms the rows of X.T X that a circular stack's first
# windows read again this many at a time, h T cells (under 1 MB below T =
# 4096), from copies of x's columns of about this many cells (128 KB).
_FORMED_ROWS = 32
_COPY_CELLS = 1 << 14

# LAPACK's copy of a Gram is made this many bytes of float64 rows at a
# time, so that the rounding error's temporary stays well under 1 MB.
_ROUND_BYTES = 1 << 18


class _Panels:
    """The upper triangle of a symmetric n x n matrix G in row panels,
    the layout every Gram kernel writes.

    Panel p is the C-ordered h x (n - s) array G[s : s + h, s:], with s
    = ``starts[p]`` and h = min(height, n - s), and the strict lower
    triangle of its leading h x h block is 0. The panels lie one after
    another on one mapping of their own (:func:`_mapping`), which thus
    holds the triangle and h^2 / 2 cells a panel, all of it written: 67.1
    MB at n = 4032 and h = 128, where the upper triangle of an n x n
    array touches 79.6 MB of 4 KB pages. Each panel is contiguous, so
    BLAS-3 writes and reads it in place, as in Gustavson, Wasniewski,
    Dongarra & Langou's rectangular full packed format (ACM TOMS 37(2),
    2010). LAPACK's n x n layout is made only where LAPACK reads it
    (:meth:`lapack`).
    """

    def __init__(self, n: int, height: int):
        self.shape = (n, n)
        self.starts = range(0, n, height)
        cells = [min(height, n - s) * (n - s) for s in self.starts]
        self._ends = [8 * int(end) for end in np.cumsum(cells)]  # each panel's last byte + 1
        self._pages = _mapping(n, self._ends[-1])
        self.panels = [
            np.frombuffer(self._pages, count=c, offset=end - 8 * c).reshape(-1, n - s)
            for s, c, end in zip(self.starts, cells, self._ends)
        ]
        # G[r, l] is cell _row_at[r] + l of the mapping, for l from r's panel's start on
        self._cells = np.frombuffer(self._pages)
        self._row_at = np.concatenate([
            np.arange(end // 8 - c, end // 8, n - s) - s
            for s, c, end in zip(self.starts, cells, self._ends)
        ])

    def __len__(self):
        return self.shape[0]

    def rows(self) -> list:
        """Views of every row of the triangle, G[j, j:]."""
        return [panel[i, i:] for panel in self.panels for i in range(len(panel))]

    def update(self, rows: np.ndarray, alpha: float = 1.0, beta: float = 0.0,
               pages: mmap.mmap | None = None) -> None:
        """G = beta G + alpha R R.T for the C-ordered n x N ``rows`` R: one
        ``dgemm`` a panel, G[s : s + h, s:] from R's row slices, which BLAS
        reads without a copy. The product fills each panel's leading block,
        whose strict lower triangle is then set to 0 again. Given ``pages``,
        the mapping that R fills from its start, R's rows are released
        (``MADV_DONTNEED``) once the panels that read them are formed: no
        later panel reads a row before its start. Released rows read as
        zeros."""
        release = pages is not None and hasattr(mmap, "MADV_DONTNEED")
        released = 0
        for s, panel in zip(self.starts, self.panels):
            # panel.T = alpha R[s:] R[s : s + h].T + beta panel.T, F-ordered
            blas.dgemm(alpha, rows[s:].T, rows[s : s + len(panel)].T, beta=beta,
                       c=panel.T, trans_a=1, overwrite_c=1)
            done = (s + len(panel)) * rows.strides[0] // mmap.PAGESIZE * mmap.PAGESIZE
            if release and done > released:
                pages.madvise(mmap.MADV_DONTNEED, released, done - released)
                released = done
        self.clear_below()

    def column(self, l: int, out: np.ndarray) -> np.ndarray:
        """out = G[: len(out), l], read down the rows that hold it (len(out)
        <= l + 1) in one gather."""
        return self._cells.take(self._row_at[: len(out)] + l, out=out, mode="clip")

    def clear_below(self) -> None:
        """Set the strict lower triangle of each panel's leading block to 0."""
        for panel in self.panels:
            h = len(panel)
            panel[:, :h][np.tril_indices(h, -1)] = 0.0

    def times(self, v: np.ndarray) -> np.ndarray:
        """G @ v, C-ordered, for an n x k v: two ``dgemm`` a panel, its rows
        against v's and its transpose against v's rows s .. s + h - 1. Both
        meet the diagonal, which is therefore taken off once. The panel is
        each product's first operand, which OpenBLAS packs in blocks of
        modest size: as the second it would pack h x (n - s) at once, into
        buffers that stay resident."""
        v = np.ascontiguousarray(v, dtype=np.float64)
        diagonal = np.concatenate([panel.diagonal() for panel in self.panels])
        out = np.multiply(v, -diagonal[:, None], order="C")
        for s, panel in zip(self.starts, self.panels):
            out[s : s + len(panel)] += blas.dgemm(1.0, panel.T, v[s:].T, trans_a=1, trans_b=1)
            out[s:] += blas.dgemm(1.0, panel.T, v[s : s + len(panel)].T, trans_b=1)
        return out

    def lapack(self, dtype=np.float64):
        """(a, error): G as LAPACK reads it, the upper triangle of a
        C-ordered n x n array of ``dtype`` (float64, or float32 for the
        single-precision reduction) on a mapping of its own, and
        the Frobenius norm of its rounding error over the whole symmetric
        matrix the triangle stands for (each cell off the diagonal counted
        twice), 0 in float64.

        Each row is copied from its diagonal on, so no page of ``a`` that
        holds only strict lower triangle becomes resident, and the panels'
        pages are released (``MADV_DONTNEED``) a block of about 256 KB of
        rows at a time as the copy goes. A panel row holds no more pages
        than the same row of the triangle, so the two together never hold
        many more than the triangle alone. The panels are then lost (on
        Linux their released pages read as zeros).
        """
        n = len(self)
        a = _mapped((n, n), n, dtype)
        release = hasattr(mmap, "MADV_DONTNEED")
        step = max(1, _ROUND_BYTES // (8 * n))
        squares = 0.0
        released = 0
        for s, panel, end in zip(self.starts, self.panels, self._ends):
            for i in range(0, len(panel), step):
                rows = panel[i : i + step]
                for j, row in enumerate(rows, i):
                    a[s + j, s + j :] = row[j:]
                if a.dtype != np.float64:  # the block's cells from column s + i on
                    error = rows[:, i:].astype(dtype).astype(np.float64)
                    error -= rows[:, i:]
                    np.square(error, out=error)
                    squares += 2.0 * error.sum() - np.trace(error)
                done = end - panel[i + step :].nbytes
                if done < self._ends[-1]:  # the mapping's last page goes with its last row
                    done -= done % mmap.PAGESIZE
                if release and done > released:
                    self._pages.madvise(mmap.MADV_DONTNEED, released, done - released)
                    released = done
        return a, float(np.sqrt(squares))


def _mapped(shape, n: int, dtype=np.float64) -> np.ndarray:
    """An array of zeros on a :func:`_mapping` of its own, for the n x n
    Gram: a large array on the numpy heap would stay there once freed,
    and move glibc's mmap threshold, so later allocations would find the
    heap in another state."""
    size = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.frombuffer(_mapping(n, size), dtype).reshape(shape)


def _mapping(n: int, size: int) -> mmap.mmap:
    """``size`` bytes of zeros for an n x n Gram, on private anonymous
    memory in 4 KB pages, of which a page becomes resident only when it
    is first written. numpy would ask for 2 MB transparent huge pages for
    an array of 4 MB or more, and one huge page would make rows that are
    never written resident beside the ones that are. The memory is
    unmapped when the last view of it is freed. Where ``mmap`` has no
    ``MAP_PRIVATE`` (Windows), its default anonymous mapping serves. A
    mapping the system refuses is a ConfigError that names the Gram and
    its size."""
    private = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
    try:
        pages = mmap.mmap(-1, size, **private)
    except OSError as exc:
        raise ConfigError(
            f"cannot map the {n} x {n} Gram matrix ({size} bytes): {exc.strerror}"
        ) from None
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        pages.madvise(mmap.MADV_NOHUGEPAGE)
    return pages


def _window_gram(x: np.ndarray, tau: int, width: int, lead: int) -> _Panels:
    """The upper triangle of the time-side Gram ``S.T @ S`` of the stack
    of x with tau blocks of ``width`` columns whose first block starts at
    column ``lead``: G[j, l] = sum over shifts s of K[j+s, l+s], l >= j,
    with s = lead .. lead + tau - 1, in row panels of ``_PANEL_ROWS``
    rows (see :class:`_Panels`).

    The sum runs along the diagonals of K = X.T X, wrapped modulo T
    for a circular stack (width T); a Hankel stack's indices never pass
    T - 1. With D[i, d] = K[i, i+d], row j of G from its diagonal on is
    the window sum w_j = sum_s D[j+s], and w_{j+1} differs from w_j by
    one row of D entering and one leaving. The window is summed afresh
    every tau rows of a run of windows, so rounding cannot build up over
    more updates than the window has terms.

    The panels are first the upper triangle of K's W x W block from
    column ``low`` on (low is 0 for a circular stack and the lead for a
    Hankel one), one product a panel on the block's columns as rows,
    whose rows are released as the panels that read them are formed.
    D's row i then starts in their row i - low, and row j of G is
    written over it, which no later window reads, save as the row that
    leaves the next window when the stack leads at ``low``: that one is
    copied first. A one-block stack that leads at ``low`` has the block
    itself for its Gram.

    Where a Hankel stack's row of D runs past the block it goes on in
    ``strip``, K's rows against x's columns after the block, from one
    product. A circular stack's rows wrap instead, onto K's first m =
    lead + tau - 1 rows: a row i >= T is row i - T, and a row i < T
    goes on in K[c, i], c < m, read down column i of the panels. So
    windows m .. T - 1 go first, while those rows are still K's, and
    windows 0 .. m - 1 follow. Their other rows are K's, but each one's
    last row, one of K's rows m .. 2m - 1 modulo T, was overwritten by
    the first windows: those rows are formed again from x,
    ``_FORMED_ROWS`` at a time, against a copy of a few of x's columns
    at a time, since BLAS would copy a strided x (a split's view) whole.
    Beside the panels a circular stack's Gram thus holds O(h T + N h)
    bytes for blocks of h rows, not K's m first rows. The temporaries
    that may pass 128 KB (the columns as rows, the formed rows and the
    copied columns) lie on mappings of their own (:func:`_mapped`), so
    that the numpy heap is left as it was.
    """
    n, t = x.shape
    w = width
    low = 0 if w == t else lead
    g = _Panels(w, _PANEL_ROWS)
    pages = _mapping(w, 8 * w * n)
    xt = np.frombuffer(pages).reshape(w, n)
    xt[...] = x[:, low : low + w].T
    g.update(xt, pages=pages)
    del xt, pages
    if tau == 1 and lead == low:
        return g
    k = g.rows()  # k[r] = K[low + r, low + r : low + w], which row r of G replaces
    joined = np.empty(w)  # a row of D that is read from two runs

    if w < t:  # strip[i, c] = K[low + i, low + w + c]
        strip = dot(x[:, low:].T, x[:, low + w :])

        def kept(i, size):
            """D's row i, its first ``size`` cells: from the block, then the strip."""
            r = i - low
            head = k[r][:size] if r < w else strip[r, :0]
            if len(head) == size:
                return head
            start = max(r - w, 0)
            tail = strip[r, start : start + size - len(head)]
            return np.concatenate((head, tail), out=joined[:size])

        runs = [(range(w), kept)]
    else:
        m = lead + tau - 1

        def kept(i, size):
            """D's row i, its first ``size`` cells, while K's rows i and 0 ..
            m - 1 are intact: a row i >= T is row i - T, of which the
            windows read no more than its first 2T - i cells, and a row
            i < T goes on in K[c, i] for c < m, read down column i."""
            if i >= t:
                return k[i - t][:size]
            head = k[i][:size]
            if len(head) == size:
                return head
            joined[: len(head)] = head
            g.column(i, joined[len(head) : size])
            return joined[:size]

        def formed():
            """K's rows m .. 2m - 1, modulo T, in full and in order."""
            block = _mapped((_FORMED_ROWS * t,), t)
            step = max(1, _COPY_CELLS // n)
            chunk = _mapped((n * step,), t)
            for first in range(m, 2 * m, _FORMED_ROWS):
                h = min(_FORMED_ROWS, 2 * m - first)
                rows = block[: h * t].reshape(t, h).T  # F-ordered, so each run of columns is too
                columns = x[:, np.arange(first, first + h) % t]
                for c in range(0, t, step):
                    part = chunk[: n * min(step, t - c)].reshape(n, -1)
                    part[...] = x[:, c : c + step]
                    # rows[:, c ..] = x[:, first ..].T x[:, c ..], F-ordered
                    blas.dgemm(1.0, columns.T, part.T, trans_b=1, c=rows[:, c : c + step],
                               overwrite_c=1)
                yield from rows

        entering = formed()

        def reformed(i, size):
            """D's row i, its first ``size`` cells, from the next formed row."""
            row, r = next(entering), i % t
            head = row[r : r + size]
            if len(head) == size:
                return head
            return np.concatenate((head, row[: size - len(head)]), out=joined[:size])

        runs = [(range(m, t), kept), (range(m), reformed)]

    left = np.empty(w)  # D's row that leaves the next window, if the stack leads at low
    cells = np.empty(w)  # window j's sum in its first w - j cells
    for js, last in runs:  # last(i, size) reads each window's last row
        for j in js:
            size = w - j  # window j reaches D's columns 0 .. w - j - 1
            first = j + lead
            window = cells[:size]
            if (j - js.start) % tau == 0:
                # added row by row in order: the bits of a sum over axis 0
                window[:] = 0.0
                for i in range(first, first + tau - 1):
                    window += kept(i, size)
                window += last(first + tau - 1, size)
            else:
                window += last(first + tau - 1, size)
                window -= left[:size] if lead == low else kept(first - 1, size)
            if lead == low:
                left[:size] = k[j]
            k[j][:] = window
    return g


def _block_gram(x: np.ndarray, starts: np.ndarray, width: int) -> _Panels:
    """The upper block triangle of ``S @ S.T`` for the stack S of the L
    blocks B_a = x[:, s_a : s_a + width], s_a = starts[a] = starts[0] +
    a, columns read modulo T, in row panels of N rows: panel a is the
    block row (a, a .. L - 1) (see :class:`_Panels`).

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
    g = _Panels(blocks * n, n)
    top = g.panels[0].reshape(n, blocks, n)
    for m in range(blocks):
        # column first + j meets column first + m + j, which may wrap
        head = min(width, t - first - m)
        lag = dot(xt[first : first + head].T, xt[first + m : first + m + head])
        if head < width:
            lag += dot(xt[first + head : first + width].T, xt[: width - head])
        top[:, m, :] = lag
    enter = x[:, (starts[:-1] + width) % t]
    leave = x[:, starts[:-1]]
    for a in range(1, blocks):
        row = g.panels[a].reshape(n, blocks - a, n)
        row[...] = g.panels[a - 1].reshape(n, blocks - a + 1, n)[:, : blocks - a, :]
        row += enter[:, a - 1, None, None] * enter[:, a - 1 :].T
        row -= leave[:, a - 1, None, None] * leave[:, a - 1 :].T
    g.clear_below()
    return g


def hankel(x: SpeedMatrix, tau: int) -> EmbeddedMatrix:
    """Stack tau forward-shifted windows into an (N*tau) x (T-tau+1) matrix.

    Block i holds columns x_i ... x_{T-tau+i}; no wrap-around occurs.
    """
    t = x.values.shape[1]
    if not 1 <= tau <= t:
        raise RangeError(f"tau must satisfy 1 <= tau <= {t}, got {tau}")
    width = t - tau + 1
    blocks = [x.values[:, i : i + width] for i in range(tau)]
    return EmbeddedMatrix(values=np.vstack(blocks), kind=HANKEL, tau=tau)


def inverse_anti_circulant(c: np.ndarray, n: int, tau: int) -> np.ndarray:
    """Collapse an anti-circulant stack back to N rows by averaging.

    Input blocks are expected in the unpermuted layout produced by
    :func:`anti_circulant` (block i = ``np.roll(X, -i, axis=1)``); rotating
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
