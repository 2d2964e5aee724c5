"""Core decomposition machinery shared by every variant.

The reduced SVD goes through the method of snapshots: the Gram matrix
of the smaller dimension is eigendecomposed and the long-side factor is
recovered by one projection, so the (N*tau) x (N*tau) product is never
formed. The eigensolve yields only the eigenvalues the rank rule
reads (the largest, the median and those kept) and eigenvectors only
for the rank kept. A large Gram with an auto rank is reduced in single
precision: the float32 eigenvalues settle the rank wherever their error
bound clears the cut, and the kept vectors are then refined in float64
against the Gram formed again; the float64 reduction runs otherwise.
Rank selection combines the aspect-ratio hard threshold with a
numerical-rank guard so that exactly low-rank inputs do not drag
round-off directions into the spectrum. A delay stack's
next-snapshot matrix is the stack shifted by one column, so its forward
and backward propagators follow from its factors, with no stack product.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg
from scipy.linalg import blas, lapack

from ._linalg import dot
from .embedding import DelayStack
from .errors import (
    ConfigError,
    NumericalError,
    RangeError,
    RankDeficiencyError,
    ShapeError,
)

_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)

RANK_AUTO = "auto"


@dataclass(frozen=True)
class ReducedSvd:
    """Rank-r factors M ~ left @ diag(singular) @ right.T.

    Where the SVD took M's time-side Gram, ``left`` = M right / singular
    is formed on its first read, from ``_matrix`` (M): a circ fit, which
    reads only the right factor, never forms it.
    """

    singular: np.ndarray
    right: np.ndarray
    rank: int
    _left: Optional[np.ndarray] = field(default=None, repr=False)
    _matrix: Optional[object] = field(default=None, repr=False)

    @property
    def left(self) -> np.ndarray:
        if self._left is None:
            object.__setattr__(self, "_left", dot(self._matrix, self.right) / self.singular)
        return self._left


@dataclass(frozen=True)
class SpectrumMeta:
    method: str
    tau: int
    rank: int
    gamma: float
    n_sensors: int
    n_time: int
    delta_t: float


@dataclass(frozen=True)
class DynamicSpectrum:
    """Eigenvalues, modes and amplitudes of one fitted decomposition.

    ``modes`` holds the one mode flavour the amplitudes were fit with:
    projected (U W) for circ-sp, exact (target V inv(S) W) for every
    other method. ``_source_svd`` is the source factorisation of a fresh
    fit, which the sparsity stage compresses its objective with; a loaded
    bundle has none.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray
    amplitudes: np.ndarray
    meta: SpectrumMeta
    sparsity: Optional[object] = field(default=None, repr=False)
    _source_svd: Optional[ReducedSvd] = field(default=None, repr=False)

    @property
    def modes_projected(self) -> np.ndarray:
        """``modes``, for a circ-sp spectrum, whose modes are projected."""
        if self.meta.method != "circ-sp":
            raise ConfigError(f"a {self.meta.method} spectrum holds exact modes, not projected")
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
    delta = _hard_threshold(float(np.median(s)), m, n)
    return max(int(np.sum(s > delta)), 1)


def _hard_threshold(median: float, m: int, n: int) -> float:
    """The threshold of :func:`optimal_rank` for singular values of an
    m x n matrix whose median is ``median``."""
    if m <= 0 or n <= 0:
        raise RangeError(f"matrix dimensions must be positive, got {m} x {n}")
    beta = min(m, n) / max(m, n)
    return hard_threshold_factor(beta) * median


def _check(routine: str, info: int) -> None:
    if info != 0:
        raise NumericalError(f"LAPACK {routine} failed (info = {info})")


# The back-transform applies this many Householder reflectors per call,
# so that the panel it copies is n x 64, not n x n. dormqr applies its
# reflectors in blocks of at most 64 in any case, so no blocking is lost.
_PANEL = 64

# Bisection takes k eigenvalues in about the time dsterf takes all n when
# k is near n / 16: a request for more takes every eigenvalue instead.
_BISECT_SHARE = 16


class _SymmetricEigen:
    """Eigenvalues of a symmetric matrix on request, and the top eigenvectors.

    One Householder reduction to tridiagonal form (``dsytrd``) is
    shared. A run of k consecutive eigenvalues, in order of size, comes
    from bisection on the tridiagonal (``dstebz``, as ``dsyevx`` takes
    them), unless k exceeds n / 16, or bisection misses part of the run,
    as tied eigenvalues can make it do: then ``dsterf`` gives every
    eigenvalue, which is kept for every later request, as is each run
    bisected. A count of the eigenvalues above a value is one Sturm
    count. The eigenvectors of the top ``r`` come from inverse iteration
    (``dstein``) on the whole tridiagonal at those r eigenvalues, which
    reorthogonalises the vectors of clustered eigenvalues, followed by
    the back-transform (``dormqr``), one F-contiguous panel of at most
    64 reflectors at a time, last panel first. The matrix is reduced in
    place, so the caller must not reuse it; beside it the solve holds
    the n x r vectors and one panel, never a second n x n array. A
    float32 matrix is reduced in single precision by the same routines'
    ``s`` forms (``ssytrd``, ``sstebz``, ``sstein``, ``sormqr``), and
    its values and vectors are float32: :func:`_top_singular` reduces a
    float32 copy of a large Gram, made as the float64 panels' pages are
    released, and forms the float64 Gram again for the refinement, so
    the two are never held together.

    Only the matrix's upper triangle is read, a C-ordered array's upper
    triangle being the lower triangle of its Fortran-ordered transpose,
    which LAPACK reads; the strict lower triangle is neither read nor
    written. A Gram's row panels are copied into that triangle alone
    (:meth:`circdmd.embedding._Panels.lapack`).
    """

    def __init__(self, matrix: np.ndarray):
        self.n = n = matrix.shape[0]
        self._prefix = "s" if matrix.dtype == np.float32 else "d"
        # bisection's absolute tolerance for the most accurate eigenvalues
        # it gives (as LAPACK's dsyevx documents it): twice the smallest
        # normal number of the precision
        self._tol = 2 * float(np.finfo(matrix.dtype).tiny)
        work, = self._lapack("sytrd_lwork", n, lower=1)
        # LAPACK reads the lower triangle of the Fortran-ordered matrix.T
        self._reflectors, self._diag, self._off, self._tau = self._lapack(
            "sytrd", matrix.T, lower=1, lwork=int(work), overwrite_a=1
        )
        # every eigenvalue, ascending, once dsterf has run (at once for n = 1)
        self._ascending = self._diag.copy() if n == 1 else None
        self._runs = {}  # (low, high): the eigenvalues ranked low..high, bisected

    def _lapack(self, name: str, *args, **kwargs) -> list:
        """The outputs of LAPACK's ``name`` in the matrix's precision, but
        the last, ``info``, which must be 0."""
        routine = self._prefix + name
        *out, info = getattr(lapack, routine)(*args, **kwargs)
        _check(routine.removesuffix("_lwork"), info)
        return out

    def values(self) -> np.ndarray:
        """All eigenvalues, in decreasing order."""
        if self._ascending is None:
            self._ascending, = self._lapack("sterf", self._diag, self._off)
        return self._ascending[::-1]

    def ranked(self, low: int, high: int) -> np.ndarray:
        """The eigenvalues ranked low..high from the smallest (rank 1),
        increasing. Each run bisected is kept for any later request
        inside it."""
        for (first, last), run in self._runs.items():
            if first <= low and high <= last:
                return run[low - first : high - first + 1]
        if self._ascending is None and (high - low + 1) * _BISECT_SHARE <= self.n:
            routine = self._prefix + "stebz"
            m, w, _, _, info = getattr(lapack, routine)(
                self._diag, self._off, 2, 0.0, 0.0, low, high, self._tol, "E"
            )
            # info 2 or 3: tied eigenvalues made the Sturm counts non-monotonic
            # and part of the range was not found; LAPACK's cure is every value
            if info not in (2, 3):
                _check(routine, info)
                self._runs[low, high] = w[:m]
                return w[:m]
        return self.values()[::-1][low - 1 : high]

    def top_values(self, k: int) -> np.ndarray:
        """The k largest eigenvalues, in decreasing order."""
        return self.ranked(self.n - k + 1, self.n)[::-1]

    def count_above(self, value: float) -> int:
        """The number of eigenvalues greater than ``value``."""
        if self._ascending is not None:
            return int(np.sum(self._ascending > value))
        # Gershgorin's bound on every |eigenvalue|: dstebz counts the ones
        # in (value, bound], and a tolerance as wide as that interval ends
        # its bisection before the first step, at the two Sturm counts
        bound = np.max(np.abs(self._diag)) + 2.0 * np.max(np.abs(self._off))
        if value >= bound:
            return 0
        m, *_ = self._lapack(
            "stebz", self._diag, self._off, 1, value, bound, 0, 0, bound - value, "E"
        )
        return int(m)

    def top_vectors(self, r: int) -> np.ndarray:
        """Orthonormal eigenvectors of the r largest eigenvalues, largest first."""
        n = self.n
        if n == 1:
            return np.ones((1, 1))
        # one block: every eigenvalue belongs to the block of rows 1..n
        block = np.ones(n, dtype=np.int32)
        split = np.full(n, n, dtype=np.int32)
        z, = self._lapack("stein", self._diag, self._off, self.top_values(r)[::-1], block, split)
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
        _, work = self._lapack("ormqr", "L", "N", panel, tau, z[start + 1 :], -1)
        z[start + 1 :], _ = self._lapack(
            "ormqr", "L", "N", panel, tau, z[start + 1 :], int(work[0])
        )


def _median_singular(eigen: _SymmetricEigen, size: int, shift: float = 0.0) -> float:
    """``np.median`` of the ``size`` singular values whose squares are
    ``eigen``'s eigenvalues plus ``shift``, clipped at 0, and size - n
    zeros: the one or two middle order statistics alone."""
    pad = size - eigen.n  # the zeros, below every clipped eigenvalue
    middle = np.zeros(2 - size % 2)
    ranks = [p - pad + 1 for p in range((size - 1) // 2, size // 2 + 1) if p >= pad]
    if ranks:
        found = eigen.ranked(ranks[0], ranks[-1]) + shift
        middle[len(middle) - len(found) :] = np.sqrt(np.clip(found, 0.0, None))
    return float(np.median(middle))


def _auto_rank(eigen: _SymmetricEigen, rows: int, cols: int) -> int:
    """The auto rank of a rows x cols matrix whose Gram eigenvalues are
    ``eigen``'s (see :func:`_top_singular`)."""
    n = eigen.n
    delta = _hard_threshold(_median_singular(eigen, min(rows, cols)), rows, cols)
    top = np.clip(eigen.top_values(min(eigen.count_above(delta**2) + 1, n)), 0.0, None)
    kept = max(int(np.sum(np.sqrt(top) > delta)), 1)
    floor = max(rows, cols) * _EPS
    return min(kept, max(int(np.sum(top > top[0] * floor)), 1))


def _top_singular(gram, rank, rows: int, cols: int, again=None):
    """The rank rule: (singular values, Gram eigenvectors) of the rank kept.

    ``gram`` is the upper triangle of a Gram matrix of a rows x cols
    matrix in row panels (:class:`circdmd.embedding._Panels`), whose
    pages are released as LAPACK's copy is made; the matrix's other
    min(rows, cols) - len(gram) singular values are known to be exactly
    zero. Auto rank is the hard threshold capped at the
    numerical rank. A Gram eigenvalue below eps * max-dim * lambda_1,
    that is a singular value below sigma_1 * sqrt(eps * max-dim),
    carries no signal: squaring into the Gram puts a floor under the
    singular values it resolves. A fixed rank must lie in 1..min(rows,
    cols) (RangeError) and above that floor (RankDeficiencyError).

    The rule reads only lambda_1, the median singular value and the
    eigenvalues it keeps, so only those are computed: the median from
    its one or two order statistics, and the count above the threshold
    delta by a Sturm count at delta^2. The threshold and the floor are
    then applied to the top eigenvalues themselves, one more than the
    count, so that the rank is :func:`optimal_rank`'s of every
    eigenvalue.

    ``again``, if given, forms the same Gram again, bit for bit. An auto
    rank of a Gram of order ``_SINGLE_MIN`` or more is then decided in
    single precision (:func:`_single_start`) and its vectors refined in
    float64 (:func:`_refine`) on the Gram formed again. Where float32
    cannot certify the rank, or the refinement stalls, the float64 path
    below runs on that Gram and gives its bits.
    """
    if again is not None and rank == RANK_AUTO and len(gram) >= _SINGLE_MIN:
        start = _single_start(gram, rows, cols)
        gram = again()  # the first one's pages were released as it was rounded
        if start is not None:
            found = _refine(gram, *start)
            if found is not None:
                return found
    eigen = _SymmetricEigen(gram.lapack()[0])
    if eigen.top_values(1)[0] <= 0.0:
        raise RankDeficiencyError("matrix is numerically zero")
    n = eigen.n
    if rank == RANK_AUTO:
        r = _auto_rank(eigen, rows, cols)
        top = np.clip(eigen.top_values(r), 0.0, None)
    else:
        floor = max(rows, cols) * _EPS
        size = min(rows, cols)
        r = int(rank)
        if not 1 <= r <= size:
            raise RangeError(f"fixed rank {r} outside 1..{size}")
        top = np.clip(eigen.top_values(min(r, n)), 0.0, None)
        if r > n or top[r - 1] <= top[0] * floor:
            num_rank = eigen.count_above(top[0] * floor)
            ratio = np.sqrt(top[r - 1] / top[0]) if r <= n else 0.0
            raise RankDeficiencyError(
                f"rank {r} requested but only {num_rank} nonzero singular values: "
                f"sigma_{r}/sigma_1 = {ratio:.3g} is below the Gram's squaring "
                f"floor sqrt(eps * {max(rows, cols)}) = {np.sqrt(floor):.3g}"
            )
    return np.sqrt(top[:r]), eigen.top_vectors(r)


# An auto rank is decided in single precision for Grams of this order or
# more (see _top_singular). A fallback costs the float32 reduction on top
# of the float64 one, about 1.5 times the float64 path. On the benchmark's
# traffic-shaped inputs (2-core Xeon VM, OpenBLAS 0.3.30, fresh
# processes) the path saved 0-8 % of the eigensolve at n = 2048-2560 and
# 6-28 % at 3072-3584 where the rank stood, but fell back on 5 of the 8
# inputs tried from 3072 to 3840; at 4032 it saved 35-39 % and the rank
# stood on every seed tried (0-5).
_SINGLE_MIN = 4000

_EPS32 = float(np.finfo(np.float32).eps)

# The float32 reduction's error bound on every eigenvalue is this many
# times sqrt(n) eps32 lambda_1, besides the Gram's measured rounding:
# LAPACK's approximate bound p(n) eps ||G||_2 for a symmetric eigensolve
# (LAPACK Users' Guide, 4.7), with p(n) = sqrt(n) / 16, the growth that
# rounding errors which do not all align give (Higham & Mary 2019). At
# n = 4032 that is 3.97 eps32 lambda_1, where ssytrd and sstebz were
# measured to err by at most 1.9 eps32 lambda_1 (seeds 0-5 of the
# traffic-circ-sp Gram).
_REDUCTION_ERROR = 1.0 / 16.0

# float32 resolves a kept eigenvalue only if it is this many times its
# error bound: it is then known to 1/16 of itself.
_RESOLVE = 16.0

# The float64 refinement starts from this many float32 vectors past the
# rank. Beyond the cut the spectrum is the noise's flat bulk, so more do
# not speed it: a step shrinks the error by about the bulk's top over
# the last eigenvalue kept, whatever the count.
_OVERSAMPLE = 4

# The refinement gives up after this many steps.
_REFINE_STEPS = 30

# A refined residual at most this many times eps lambda_1 is at the
# float64 path's own level (dstein's vectors reach 0.1-4.5 of it on the
# traffic-circ-sp Gram, the refined ones 1-2 where they stop falling).
_REFINED = 16.0


def _single_start(gram, rows: int, cols: int):
    """The auto rank rule of :func:`_top_singular` in single precision,
    certified: (float32 vectors of the top r + ``_OVERSAMPLE``
    eigenvalues, the rank r, a shift for the refinement), or None where
    float32 cannot settle the rank and the float64 path must.

    ``gram``'s panels are rounded to a float32 triangle, their pages
    released as they are read
    (:meth:`circdmd.embedding._Panels.lapack`), which ``ssytrd``
    reduces. By Weyl's inequality every eigenvalue of the float32
    tridiagonal lies within ``bound`` of the float64 Gram's eigenvalue
    of the same rank: the rounding's Frobenius norm plus the reduction's
    error (``_REDUCTION_ERROR``). So the median singular value, which is
    monotone in every eigenvalue, lies between the medians of the
    float32 eigenvalues less and plus ``bound``, and delta^2 between the
    two thresholds those give. The rank r is certain when the r-th
    float32 eigenvalue lies more than ``bound`` above the higher and the
    next below the lower, and it is then capped by no floor: the float64
    squaring floor lies far below the float32 one. There is no answer
    when the cut is within the bound, or when the r-th eigenvalue is
    below ``_RESOLVE`` times the bound, the floor float32 resolves.
    """
    single, rounding = gram.lapack(np.float32)
    eigen = _SymmetricEigen(single)
    n = eigen.n
    lambda_1 = float(eigen.top_values(1)[0])
    if not lambda_1 > 0.0:
        return None
    bound = rounding + _REDUCTION_ERROR * np.sqrt(n) * _EPS32 * lambda_1
    r = _auto_rank(eigen, rows, cols)
    k = r + _OVERSAMPLE
    if k >= n:
        return None
    top = eigen.top_values(k + 1).astype(np.float64)
    size = min(rows, cols)
    low, high = (_hard_threshold(_median_singular(eigen, size, s), rows, cols)
                 for s in (-bound, bound))
    if top[r - 1] - bound <= high**2 or top[r] + bound >= low**2:
        return None  # the cut is within the bound
    if top[r - 1] <= _RESOLVE * bound:
        return None  # below the float32 floor
    # the shift centres the bulk of eigenvalues left out on 0, which
    # lowers the rate they leak in at: to half or less of the unshifted
    bulk = (max(float(eigen.ranked(1, 1)[0]), 0.0), top[k])
    return eigen.top_vectors(k), r, sum(bulk) / 2


def _refine(gram, start: np.ndarray, r: int, shift: float):
    """The top r eigenpairs (values, vectors) of the float64 Gram
    ``gram`` (its row panels, left intact), refined from the float32
    vectors ``start`` of its top k, or None if the refinement stalls.

    Each step is subspace iteration with Rayleigh-Ritz on V's span: one
    product W = G V, taken on the panels as they are (two ``dgemm`` a
    panel, see :class:`circdmd.embedding._Panels`), and the Ritz pairs
    (theta, V s) from the k x k H = V.T W. Their residuals G V s - theta
    V s are E s, with E = W - V H, so their norms come from the k x k
    E.T E. The next V is an orthonormal basis (``dgeqrf``, ``dorgqr``)
    of (G - shift) V = E + V (H - shift). An eigenvector's error outside
    the span shrinks by about (lambda_{k+1} - shift) / (lambda_i -
    shift) a step. The steps stop once the largest residual of the r
    kept falls by less than half in a step: it has reached its rounding
    floor, which must be within ``_REFINED`` eps lambda_1, or the
    refinement has stalled. Each Ritz vector takes the sign of its
    float32 start. Beside the Gram and ``start``, the steps hold a few n
    x k arrays.
    """
    v = start.astype(np.float64, order="F")
    best = np.inf
    for _ in range(_REFINE_STEPS):
        w = np.asfortranarray(gram.times(v))
        h = dot(v.T, w)
        theta, s = scipy.linalg.eigh(h)
        theta, s = theta[::-1], s[:, ::-1]
        w = blas.dgemm(-1.0, v, h, beta=1.0, c=w, overwrite_c=1)  # E
        kept = s[:, :r]
        # squared norms, which rounding may take below 0 at the floor
        residual = np.sqrt(max(np.max(np.sum(kept * dot(dot(w.T, w), kept), axis=0)), 0.0))
        if residual > best / 2:
            if residual > _REFINED * _EPS * theta[0]:
                return None
            vectors = blas.dgemm(1.0, v, kept, c=w[:, :r], overwrite_c=1)
            vectors *= np.where(np.sum(vectors * start[:, :r], axis=0) < 0.0, -1.0, 1.0)
            return np.sqrt(np.clip(theta[:r], 0.0, None)), vectors
        best = residual
        h[np.diag_indices(len(h))] -= shift
        w = blas.dgemm(1.0, v, h, beta=1.0, c=w, overwrite_c=1)
        v = _orthonormal(w)
    return None


def _orthonormal(z: np.ndarray) -> np.ndarray:
    """The Q of z = Q R, written over the F-ordered ``z``."""
    qr, tau, _, info = lapack.dgeqrf(z, overwrite_a=1)
    _check("dgeqrf", info)
    q, _, info = lapack.dorgqr(qr, tau, overwrite_a=1)
    _check("dorgqr", info)
    return q


def snapshot_svd(matrix, rank=RANK_AUTO) -> ReducedSvd:
    """Reduced SVD via eigendecomposition of the smaller Gram matrix.

    ``matrix`` is a :class:`circdmd.embedding.DelayStack`, or an ndarray,
    which is taken as a one-block circular stack (its one block is the
    ndarray itself), so every Gram is one of the stack's two. ``rank``
    is either ``"auto"`` (hard threshold capped at the numerical rank)
    or a fixed positive integer. A fixed rank that reaches into
    numerically zero singular values raises RankDeficiencyError,
    because the snapshot path cannot produce meaningful vectors for
    them. Eigenvectors are computed only for the ``rank`` kept, and
    eigenvalues only as far as the rank rule reads them.
    """
    a = matrix if isinstance(matrix, DelayStack) else DelayStack(matrix, 1, 0, wrap=True)
    return _snapshot_svd(a, rank, *a.shape)


def _snapshot_svd(a, rank, rows: int, cols: int) -> ReducedSvd:
    """:func:`snapshot_svd` of ``a``, whose rank rule reads a rows x cols
    matrix with the same nonzero singular values as ``a`` and no others."""
    gram_on_cols = a.shape[1] <= a.shape[0]
    form = a.gram if gram_on_cols else a.stack_gram
    # no reference to the Gram is kept here: its pages are released as
    # LAPACK's copy is made, and it is freed before the products
    sing, vectors = _top_singular(form(), rank, rows, cols, form)
    if gram_on_cols:
        return ReducedSvd(singular=sing, right=vectors, rank=len(sing), _matrix=a)
    right = dot(vectors.T, a).T / sing
    return ReducedSvd(singular=sing, right=right, rank=len(sing), _left=vectors)


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


def _shift_dynamics(svd: ReducedSvd, edge=None) -> np.ndarray:
    """The propagator U* T V inv(S) of a target T that is the matrix
    M = U S V* of ``svd`` shifted by one column, from the factors alone:
    U* M = S V*, so U* (M J) V inv(S) is S (V* J V) inv(S).

    ``edge`` None: the circular shift, column j of T being column j + 1
    of M modulo W, so (J V)[k] = V[k-1 mod W]. Otherwise a Hankel shift:
    column j of T is column j + 1 of M, so (J V)[k] = V[k-1] and
    (J V)[0] = 0, and the entering column ``edge``, column W - 1 of T,
    adds (U* edge)(V[W-1] inv(S)). O(W r^2) work, and O(rows r) for
    U* edge.
    """
    s, v = svd.singular, svd.right
    shifted = dot(v[1:].T, v[:-1])
    if edge is None:
        shifted += np.outer(v[0], v[-1])
    else:
        shifted += np.outer(dot(edge, svd.left) / s, v[-1])
    return s[:, None] * shifted / s


def _backward_dynamics(svd: ReducedSvd, edge) -> np.ndarray:
    """The least-squares propagator (U* M)(U* T)^+ that takes the Hankel
    shift T of :func:`_shift_dynamics` back to M = U S V* of ``svd``, in
    M's POD coordinates: U* M = S V*, and U* T is its shift with U* ``edge``
    last. One W x r least squares (``gelsd``) for the transpose, O(W r^2)."""
    source = svd.singular * svd.right  # (U* M)*, W x r
    target = np.vstack([source[1:], dot(edge, svd.left)])
    transposed, *_ = scipy.linalg.lstsq(target, source, cond=1e-12, lapack_driver="gelsd")
    return transposed.T


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
