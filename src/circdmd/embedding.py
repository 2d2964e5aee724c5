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
  and time-side Gram matrix reduce to N x T work and the (N*tau)-row
  matrix is never formed. The dense functions are its oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import SpeedMatrix
from .errors import DataError, KindError, RangeError, ShapeError

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
    DMD's pair. ``stack @ y`` returns what the dense stack would;
    ``gram()`` returns its time-side Gram matrix.
    """

    def __init__(self, x: np.ndarray, tau: int, offset: int, wrap: bool):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ShapeError(f"expected a 2-D matrix, got ndim={x.ndim}")
        t = x.shape[1]
        max_tau = t if wrap else t - 1
        if not 1 <= tau <= max_tau:
            raise RangeError(f"tau must satisfy 1 <= tau <= {max_tau}, got {tau}")
        if offset not in (0, 1):
            raise RangeError(f"offset must be 0 or 1, got {offset}")
        if not np.isfinite(x).all():
            raise DataError("non-finite entries in the stacked matrix")
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
        y = np.asarray(y)
        return np.concatenate([
            sum(self.x[:, cols] @ y[rows] for cols, rows in self._pieces(start))
            for start in self.starts
        ])

    def first_column(self) -> np.ndarray:
        """Column 0: block i holds x_{i+offset}, 0-based and wrapped."""
        return self.x[:, self.starts].ravel(order="F")

    def dense(self) -> np.ndarray:
        """The (N*tau) x width stack as an array."""
        return np.concatenate([
            self.x.take(range(start, start + self.width), axis=1, mode="wrap")
            for start in self.starts
        ])

    def gram(self) -> np.ndarray:
        """width x width ``S.T @ S``: G[j, l] = sum over shifts s of K[j+s, l+s].

        The sum runs along the diagonals of K = X.T X, wrapped modulo T
        for a circular stack; a Hankel stack's indices never pass T - 1.
        With D[j, d] = K[j, j+d], row j of G is the window sum
        w_j = sum_s D[j+s] rotated right by j, and w_{j+1} differs from
        w_j by one row of D entering and one leaving. The window is
        summed afresh every tau rows, so rounding cannot build up over
        more updates than the window has terms.
        """
        t = self.x.shape[1]
        w = self.width
        d = self.x.T @ self.x
        for j in range(t):
            d[j] = np.roll(d[j], -j)  # K becomes D in place
        g = np.empty((w, w))
        for j in range(w):
            first = j + self.starts[0]
            if j % self.tau == 0:
                window = d.take(range(first, first + self.tau), axis=0, mode="wrap").sum(axis=0)
            else:
                window += d[(first + self.tau - 1) % t]
                window -= d[(first - 1) % t]
            g[j, j:] = window[: w - j]
            g[j, :j] = window[t - j :]
        return g


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
