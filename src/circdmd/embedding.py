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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datamodel import SpeedMatrix
from .errors import KindError, RangeError, ShapeError

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
