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
* :class:`CircularStack` is the same stack as an operator: every block
  is a column rotation of X, so its products and Gram matrix reduce to
  N x T work and the (N*tau)-row matrix is never formed. The dense
  functions above are its oracles.
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


class CircularStack:
    """The (N*tau) x T anti-circulant stack of ``x``, kept as ``x`` alone.

    Block i (1-based) is ``circshift(x, -(i - 1 + offset))``. Offset 0
    is the snapshot-ordered source ``apply_right_permutation(
    anti_circulant(X, tau))``; offset 1 is the target ``anti_circulant(
    X, tau)``. ``stack @ y`` and ``z @ stack`` return what the dense
    stack would; ``gram()`` returns its Gram matrix on the smaller side.
    """

    # ``ndarray @ stack`` defers to __rmatmul__ instead of converting.
    __array_ufunc__ = None

    def __init__(self, x: np.ndarray, tau: int, offset: int = 0):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ShapeError(f"expected a 2-D matrix, got ndim={x.ndim}")
        if not 1 <= tau <= x.shape[1]:
            raise RangeError(f"tau must satisfy 1 <= tau <= {x.shape[1]}, got {tau}")
        if not np.isfinite(x).all():
            raise DataError("non-finite entries in the stacked matrix")
        self.x = x
        self.tau = tau
        self.offset = offset

    @property
    def shape(self):
        n, t = self.x.shape
        return (n * self.tau, t)

    def _shifts(self):
        """Left rotation of each block, in block order."""
        return range(self.offset, self.offset + self.tau)

    def __matmul__(self, y):
        # circshift(X, -s) @ y == X @ roll(y, s) along the rows of y
        y = np.asarray(y)
        return np.concatenate([self.x @ np.roll(y, s, axis=0) for s in self._shifts()])

    def __rmatmul__(self, z):
        # z_i @ circshift(X, -s) == circshift(z_i @ X, -s), summed over blocks i
        z = np.asarray(z)
        n = self.x.shape[0]
        out = 0
        for i, s in enumerate(self._shifts()):
            out = out + np.roll(z[..., i * n : (i + 1) * n] @ self.x, -s, axis=-1)
        return out

    def first_column(self) -> np.ndarray:
        """Column 0: block i holds x_{i+offset}, 1-based and wrapped."""
        t = self.x.shape[1]
        return self.x[:, np.remainder(self._shifts(), t)].ravel(order="F")

    def gram(self) -> np.ndarray:
        """``S.T @ S`` if T <= N*tau, else ``S @ S.T`` (the rule of snapshot_svd)."""
        n, t = self.x.shape
        return self._time_gram() if t <= n * self.tau else self._block_gram()

    def _time_gram(self) -> np.ndarray:
        """T x T Gram: G[j, l] = sum over shifts s of K[j+s, l+s], indices mod T.

        The sum runs along the wrapped diagonals of K = X.T X. With
        D[j, d] = K[j, j+d], row j of G is the window sum
        w_j = sum_s D[j+s] rotated right by j, and w_{j+1} differs from
        w_j by one row of D entering and one leaving. The window is
        summed afresh every tau rows, so rounding cannot build up over
        more updates than the window has terms.
        """
        t = self.x.shape[1]
        d = self.x.T @ self.x
        for j in range(t):
            d[j] = np.roll(d[j], -j)  # K becomes D in place
        g = np.empty((t, t))
        for j in range(t):
            first = j + self.offset
            if j % self.tau == 0:
                window = d.take(range(first, first + self.tau), axis=0, mode="wrap").sum(axis=0)
            else:
                window += d[(first + self.tau - 1) % t]
                window -= d[(first - 1) % t]
            g[j, j:] = window[: t - j]
            g[j, :j] = window[t - j :]
        return g

    def _block_gram(self) -> np.ndarray:
        """(N*tau)-square Gram: block-Toeplitz with blocks R(l) = X circshift(X, -l).T.

        Block (i, j) is R(j - i), and R(-l) = R(l).T.
        """
        n = self.x.shape[0]
        lags = [self.x @ np.roll(self.x, -lag, axis=1).T for lag in range(self.tau)]
        g = np.empty(self.shape[:1] * 2)
        for i in range(self.tau):
            for j in range(self.tau):
                block = lags[j - i] if j >= i else lags[i - j].T
                g[i * n : (i + 1) * n, j * n : (j + 1) * n] = block
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
