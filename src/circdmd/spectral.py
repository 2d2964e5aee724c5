"""Core decomposition machinery shared by every variant.

The reduced SVD goes through the method of snapshots: the Gram matrix
of the smaller dimension is eigendecomposed and the long-side factor is
recovered by one projection, so the (N*tau) x (N*tau) product is never
formed. The eigensolve yields every eigenvalue, which the rank rule
needs, but eigenvectors only for the rank kept. Rank selection
combines the aspect-ratio hard threshold with a numerical-rank guard
so that exactly low-rank inputs do not drag round-off directions into
the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from ._linalg import dot
from .embedding import DelayStack
from .errors import (
    ConfigError,
    NumericalError,
    RangeError,
    RankDeficiencyError,
    ShapeError,
    SingularEigenvalueError,
)

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

RANK_AUTO = "auto"


@dataclass(frozen=True)
class ReducedSvd:
    """Rank-r factors M ~ left @ diag(singular) @ right.T."""

    left: np.ndarray
    singular: np.ndarray
    right: np.ndarray
    rank: int

    def truncate(self, rank: int) -> "ReducedSvd":
        if not 1 <= rank <= self.rank:
            raise RangeError(f"cannot truncate rank {self.rank} to {rank}")
        return ReducedSvd(
            left=self.left[:, :rank],
            singular=self.singular[:rank],
            right=self.right[:, :rank],
            rank=rank,
        )


@dataclass(frozen=True)
class SpectrumMeta:
    method: str
    tau: int
    rank: int
    gamma: float
    mode_flavor: str
    n_sensors: int
    n_time: int
    delta_t: float


@dataclass(frozen=True)
class DynamicSpectrum:
    """Eigenvalues, modes and amplitudes of one fitted decomposition.

    ``modes`` holds the one mode flavour the amplitudes were fit with,
    named by ``meta.mode_flavor``: "projected" (U W) for circ-sp,
    "exact" (target V inv(S) W) for every other method. ``_source_svd``
    is the source factorisation of a fresh fit, which the sparsity
    stage compresses its objective with; a loaded bundle has none.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    amplitudes: np.ndarray
    meta: SpectrumMeta
    sparsity: Optional[object] = field(default=None, repr=False)
    _source_svd: Optional[ReducedSvd] = field(default=None, repr=False)

    @property
    def modes_projected(self) -> np.ndarray:
        """``modes``, for spectra whose flavour is "projected"."""
        if self.meta.mode_flavor != "projected":
            raise ConfigError(
                f"spectrum holds {self.meta.mode_flavor!r} modes, not 'projected'"
            )
        return self.modes

    def dominance_order(self) -> np.ndarray:
        """Mode indices sorted by decreasing |b_i| * ||phi_i||."""
        weight = np.abs(self.amplitudes) * np.linalg.norm(self.modes, axis=0)
        return np.argsort(-weight, kind="stable")


def hard_threshold_factor(beta: float) -> float:
    """Aspect-ratio polynomial of the optimal hard threshold."""
    return 0.56 * beta**3 - 0.95 * beta**2 + 1.82 * beta + 1.43


def optimal_rank(singular_values: np.ndarray, m: int, n: int) -> int:
    """Count singular values above the median-scaled hard threshold.

    ``m`` and ``n`` are the dimensions of the matrix the values came
    from, in either order: the aspect ratio is beta = min(m, n) /
    max(m, n), as in Gavish & Donoho (2014). Never returns less than 1.
    """
    s = np.asarray(singular_values, dtype=float)
    if s.size == 0:
        raise RangeError("empty singular value vector")
    if m <= 0 or n <= 0:
        raise RangeError(f"matrix dimensions must be positive, got {m} x {n}")
    beta = min(m, n) / max(m, n)
    delta = hard_threshold_factor(beta) * float(np.median(s))
    return max(int(np.sum(s > delta)), 1)


def _check(routine: str, info: int) -> None:
    if info != 0:
        raise NumericalError(f"LAPACK {routine} failed (info = {info})")


# The back-transform applies this many Householder reflectors per call,
# so that the panel it copies is n x 64, not n x n. dormqr applies its
# reflectors in blocks of at most 64 in any case, so no blocking is lost.
_PANEL = 64


class _SymmetricEigen:
    """Every eigenvalue of a symmetric matrix, and eigenvectors on request.

    One Householder reduction to tridiagonal form (``dsytrd``) is shared,
    and ``dsterf`` gives every eigenvalue from it. The eigenvectors of
    the top ``r`` come from inverse iteration (``dstein``) on the whole
    tridiagonal at those r eigenvalues, which reorthogonalises the
    vectors of clustered eigenvalues, followed by the back-transform
    (``dormqr``), one F-contiguous panel of at most 64 reflectors at a
    time, last panel first. The matrix is reduced in place, so the
    caller must not reuse it; beside it the solve holds the n x r
    vectors and one panel, never a second n x n array.

    Only the matrix's upper triangle is read, a C-ordered array's upper
    triangle being the lower triangle of its Fortran-ordered transpose,
    which LAPACK reads; the strict lower triangle is neither read nor
    written. Every Gram is built as that triangle alone.
    """

    def __init__(self, matrix: np.ndarray):
        self.n = n = matrix.shape[0]
        work, info = lapack.dsytrd_lwork(n, lower=1)
        _check("dsytrd", info)
        # LAPACK reads the lower triangle of the Fortran-ordered matrix.T
        self._reflectors, self._diag, self._off, self._tau, info = lapack.dsytrd(
            matrix.T, lower=1, lwork=int(work), overwrite_a=1
        )
        _check("dsytrd", info)
        if n == 1:
            self._ascending = self._diag.copy()
        else:
            self._ascending, info = lapack.dsterf(self._diag, self._off)
            _check("dsterf", info)

    def values(self) -> np.ndarray:
        """All eigenvalues, in decreasing order."""
        return self._ascending[::-1]

    def top_vectors(self, r: int) -> np.ndarray:
        """Orthonormal eigenvectors of the r largest eigenvalues, largest first."""
        n = self.n
        if n == 1:
            return np.ones((1, 1))
        # one block: every eigenvalue belongs to the block of rows 1..n
        block = np.ones(n, dtype=np.int32)
        split = np.full(n, n, dtype=np.int32)
        z, info = lapack.dstein(self._diag, self._off, self._ascending[n - r :], block, split)
        _check("dstein", info)
        z = np.asfortranarray(z[:, ::-1])
        # Q = H(1) ... H(n-1) leaves row 1 alone, and reflector i acts on
        # rows i+1..n through its column below the subdiagonal (as dormtr
        # does); Q z applies the panels of Q's product right to left.
        for start in reversed(range(0, n - 1, _PANEL)):
            self._apply_panel(start, min(start + _PANEL, n - 1), z)
        return z

    def _apply_panel(self, start: int, stop: int, z: np.ndarray) -> None:
        """z[start+1:] = H(start+1) ... H(stop) z[start+1:], the reflectors
        numbered from 1, through an F-contiguous copy of their columns
        that is freed on return, before the next panel is copied."""
        panel = np.asfortranarray(self._reflectors[start + 1 :, start:stop])
        tau = self._tau[start:stop]
        _, work, info = lapack.dormqr("L", "N", panel, tau, z[start + 1 :], -1)
        _check("dormqr", info)
        z[start + 1 :], _, info = lapack.dormqr(
            "L", "N", panel, tau, z[start + 1 :], int(work[0])
        )
        _check("dormqr", info)


def _top_singular(gram: np.ndarray, rank, rows: int, cols: int):
    """The rank rule: (singular values, Gram eigenvectors) of the rank kept.

    ``gram`` (overwritten) is a Gram matrix of a rows x cols matrix,
    whose other min(rows, cols) - len(gram) singular values are known
    to be exactly zero. Auto rank is the hard threshold capped at the
    numerical rank. A Gram eigenvalue below eps * max-dim * lambda_1,
    that is a singular value below sigma_1 * sqrt(eps * max-dim),
    carries no signal: squaring into the Gram puts a floor under the
    singular values it resolves. A fixed rank must lie in 1..min(rows,
    cols) (RangeError) and above that floor (RankDeficiencyError).
    """
    eigen = _SymmetricEigen(gram)
    eigvals = np.clip(eigen.values(), 0.0, None)
    if eigvals[0] <= 0.0:
        raise RankDeficiencyError("matrix is numerically zero")
    floor = max(rows, cols) * _EPS
    num_rank = int(np.sum(eigvals > eigvals[0] * floor))
    size = min(rows, cols)
    if rank == RANK_AUTO:
        sing = np.zeros(size)
        sing[: len(eigvals)] = np.sqrt(eigvals)
        r = min(optimal_rank(sing, rows, cols), max(num_rank, 1))
    else:
        r = int(rank)
        if not 1 <= r <= size:
            raise RangeError(f"fixed rank {r} outside 1..{size}")
        if r > num_rank:
            ratio = np.sqrt(eigvals[r - 1] / eigvals[0]) if r <= len(eigvals) else 0.0
            raise RankDeficiencyError(
                f"rank {r} requested but only {num_rank} nonzero singular values: "
                f"sigma_{r}/sigma_1 = {ratio:.3g} is below the Gram's squaring "
                f"floor sqrt(eps * {max(rows, cols)}) = {np.sqrt(floor):.3g}"
            )
    return np.sqrt(eigvals[:r]), eigen.top_vectors(r)


def snapshot_svd(matrix, rank=RANK_AUTO) -> ReducedSvd:
    """Reduced SVD via eigendecomposition of the smaller Gram matrix.

    ``matrix`` is a :class:`circdmd.embedding.DelayStack`, or an ndarray,
    which is taken as a one-block circular stack (its one block is the
    ndarray itself), so every Gram is one of the stack's two. ``rank``
    is either ``"auto"`` (hard threshold capped at the numerical rank)
    or a fixed positive integer. A fixed rank that reaches into
    numerically zero singular values raises RankDeficiencyError,
    because the snapshot path cannot produce meaningful vectors for
    them. Every eigenvalue is computed, for the rank rule, but
    eigenvectors only for the ``rank`` kept.
    """
    a = matrix if isinstance(matrix, DelayStack) else DelayStack(matrix, 1, 0, wrap=True)
    return _snapshot_svd(a, rank, *a.shape)


def _snapshot_svd(a, rank, rows: int, cols: int) -> ReducedSvd:
    """:func:`snapshot_svd` of ``a``, whose rank rule reads a rows x cols
    matrix with the same nonzero singular values as ``a`` and no others."""
    gram_on_cols = a.shape[1] <= a.shape[0]
    gram = a.gram() if gram_on_cols else a.stack_gram()
    sing, vectors = _top_singular(gram, rank, rows, cols)
    del gram  # reduced in place, and no longer needed beside the products
    if gram_on_cols:
        right = vectors
        left = dot(a, right) / sing
    else:
        left = vectors
        right = dot(left.T, a).T / sing
    return ReducedSvd(left=left, singular=sing, right=right, rank=len(sing))


def projected_dynamics(target, svd_of_source: ReducedSvd) -> np.ndarray:
    """Project the regression onto the source's POD basis: U* target V inv(S).

    ``target`` is an ndarray or a structured stack; only ``target @ y``
    is formed.
    """
    u, s, v = svd_of_source.left, svd_of_source.singular, svd_of_source.right
    if target.shape != (u.shape[0], v.shape[0]):
        raise ShapeError(
            f"target shape {target.shape} does not match factors "
            f"{u.shape[0]} x {v.shape[0]}"
        )
    return dot(u.conj().T, dot(target, v / s))


def eigendecompose(a_tilde: np.ndarray):
    """Eigendecompose the reduced propagator.

    Returns (eigenvalues, eigenvectors) ordered by decreasing modulus
    with phase as tie-breaker; eigenvector columns follow their values.
    """
    a_tilde = np.asarray(a_tilde)
    if a_tilde.ndim != 2 or a_tilde.shape[0] != a_tilde.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {a_tilde.shape}")
    try:
        eigvals, eigvecs = scipy.linalg.eig(a_tilde)
    except (np.linalg.LinAlgError, ValueError) as exc:  # ValueError: not finite
        raise NumericalError(f"eigendecomposition failed: {exc}") from exc
    order = np.lexsort((np.angle(eigvals), -np.abs(eigvals)))
    return eigvals[order], eigvecs[:, order]


def dynamic_modes(target, svd: ReducedSvd, w: np.ndarray, flavor: str = "exact") -> np.ndarray:
    """Lift reduced eigenvectors to full-space modes.

    exact:     Phi = target @ V @ inv(S) @ W
    projected: Phi = U @ W

    ``target`` is an ndarray or a structured stack; only ``target @ y``
    is formed.
    """
    if flavor == "projected":
        return dot(svd.left, w)
    if flavor != "exact":
        raise RangeError(f"flavor must be 'exact' or 'projected', got {flavor!r}")
    if target.shape[1] != svd.right.shape[0]:
        raise ShapeError(
            f"target has {target.shape[1]} columns, right factor {svd.right.shape[0]} rows"
        )
    return dot(dot(target, svd.right / svd.singular), w)


def amplitudes(modes: np.ndarray, initial: np.ndarray) -> np.ndarray:
    """Least-squares fit of mode weights to the initial snapshot."""
    modes = np.asarray(modes)
    initial = np.asarray(initial)
    if modes.ndim != 2 or modes.shape[1] == 0:
        raise RankDeficiencyError("mode matrix has no columns")
    if modes.shape[0] != initial.shape[0]:
        raise ShapeError(
            f"modes have {modes.shape[0]} rows, initial vector {initial.shape[0]}"
        )
    b, *_ = scipy.linalg.lstsq(modes, initial.astype(complex), cond=1e-12,
                               lapack_driver="gelsd")
    return b


def vandermonde(eigenvalues: np.ndarray, horizon: int) -> np.ndarray:
    """Geometric progressions of each eigenvalue over ``horizon`` steps.

    Row i is (1, l_i, l_i^2, ..., l_i^(horizon-1)). Powers whose
    magnitude falls below the smallest normal float are set to exactly
    0: they lie far below the rounding of any reconstruction of ordinary
    scale, and subnormal operands make products with this matrix
    several times slower. The matrix is the column blocks of
    :func:`_power_blocks` written side by side, with the same bits as
    ``np.vander`` flushed afterwards.
    """
    if horizon < 1:
        raise RangeError(f"horizon must be >= 1, got {horizon}")
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    psi = np.empty((len(eigenvalues), horizon), dtype=complex)
    bounds = _column_blocks(*psi.shape)
    for cols, block in zip(bounds, _power_blocks(eigenvalues, bounds, horizon)):
        psi[:, cols] = block
    return psi


def _power_blocks(eigenvalues: np.ndarray, bounds, width: int):
    """Yield the powers l^c of the r x ``width`` Vandermonde matrix over
    each of ``bounds``, consecutive column slices from column 0, as one
    Fortran-ordered r x b block per slice, with the same bits as
    ``np.vander`` flushed afterwards.

    Each power is the one before it times l, the sequence of products
    ``np.vander`` takes: a block accumulates the products of [l^(s-1),
    l, l, ...] from the last power of the block before it, taken before
    powers below the smallest normal float are set to 0. So only one
    block of powers is held at a time. numpy runs an accumulation of
    one product through its vector loop, which may fuse the multiply
    and add and so round apart from the scalar loop that runs longer
    ones; ``np.vander`` takes width - 2 products in one accumulation,
    so a block's lone product is padded with one more, discarded,
    unless width is 3.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    carry = None  # l^(s-1) for a block starting at column s >= 2, not flushed
    for cols in bounds:
        b = cols.stop - cols.start
        lead = max(0, 2 - cols.start)  # l^1 is l itself, never 1 * l
        pad = int(b - lead == 1 and width != 3)
        powers = np.empty((len(eigenvalues), b + 1 + pad), dtype=complex, order="F")
        powers[:, 1:] = eigenvalues[:, None]
        if cols.start == 0:
            powers[:, 1] = 1.0
        elif lead == 0:
            powers[:, 0] = carry
        np.multiply.accumulate(powers[:, lead:], axis=1, out=powers[:, lead:])
        block = powers[:, 1 : b + 1]
        carry = block[:, -1].copy()
        block[np.abs(block) < _TINY] = 0.0
        yield block


# Wide masks, products and power blocks go in column blocks of about
# this many complex cells, so that each temporary stays near 1 MB.
_BLOCK_CELLS = 1 << 16


def _column_blocks(rows: int, cols: int) -> list:
    """Slices of consecutive column blocks that tile a rows x cols array.

    Every block is a multiple of 64 columns wide but the last, which
    takes the remainder and so is at least as wide as the others. With
    OpenBLAS, a product taken in such blocks, unless they are tiny,
    runs the same kernels per column as the whole product and gives the
    same bits.
    """
    step = max(64, _BLOCK_CELLS // max(1, rows) // 64 * 64)
    bounds = [i * step for i in range(max(1, cols // step))] + [cols]
    return [slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]


def reconstruct(spectrum: DynamicSpectrum, horizon: int) -> np.ndarray:
    """Real part of Phi @ diag(b) @ Psi over ``horizon`` columns.

    ``horizon`` is the total number of reconstructed columns; passing
    the training length reproduces history, larger values extend the
    evolution into the future.
    """
    psi = vandermonde(spectrum.eigenvalues, horizon)
    return np.real(dot(spectrum.modes * spectrum.amplitudes, psi))


def extrapolate_continuous(
    spectrum: DynamicSpectrum, t: float, delta_t: float
) -> np.ndarray:
    """Evaluate the fitted evolution at a real-valued time index.

    ``t`` is 1-based and grid-aligned at integers: t = 1 returns the
    initial snapshot and integer t matches the corresponding
    Vandermonde column. The result is that stacked snapshot: N*tau
    rows, tau delayed copies of the N sensors, not the N sensor values;
    on the grid, :func:`circdmd.variants.predict` averages the copies
    into N rows. Uses the principal branch of the complex log;
    eigenvalues at zero have no continuous-time rate.
    """
    if delta_t <= 0:
        raise RangeError(f"delta_t must be positive, got {delta_t}")
    eigs = spectrum.eigenvalues
    if np.any(eigs == 0):
        raise SingularEigenvalueError("zero eigenvalue has no logarithm")
    rates = np.log(eigs) / delta_t
    weights = np.exp(rates * (t - 1) * delta_t)
    return np.real(dot(spectrum.modes * spectrum.amplitudes, weights))
