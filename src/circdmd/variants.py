"""End-to-end decompositions: dmd, hankel, fb-hankel, tls-hankel, circ, circ-sp.

Each variant differs only in how the snapshot pair (source, target) is
built and, for circ-sp, in how amplitudes are selected. The circular
variants regress the shifted stack on its snapshot-ordered permutation,
so the wrap pair (c_T -> c_1) is part of the fit; amplitudes anchor on
c_1 (the last column of the unpermuted stack). Non-circular variants
follow the plain convention and anchor on the first data column.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np
import scipy.linalg

from .datamodel import SpeedMatrix
from ._linalg import dot, inv
from .embedding import DelayStack, _block_gram, _window_gram
from .errors import (
    ConfigError,
    NumericalError,
    RangeError,
    ShapeError,
    SingularBackwardError,
)
from .sparsity import build_quadratic, gamma_path
from .spectral import (
    RANK_AUTO,
    _snapshot_svd,
    _top_singular,
    DynamicSpectrum,
    ReducedSvd,
    SpectrumMeta,
    _column_blocks,
    _power_blocks,
    amplitudes,
    dynamic_modes,
    eigendecompose,
    projected_dynamics,
    snapshot_svd,
    vandermonde,
)

METHODS = ("dmd", "hankel", "fb-hankel", "tls-hankel", "circ", "circ-sp")
_CIRC_METHODS = ("circ", "circ-sp")


@dataclass
class VariantConfig:
    """Method selection plus the shared hyper-parameters.

    ``rank`` is "auto" (hard threshold) or a fixed integer. ``gamma``
    applies to circ-sp only; gamma = 0 collapses it to circ. ``tau`` is
    forced to 1 for plain dmd.
    """

    method: str
    tau: Optional[int] = None
    rank: Union[int, str] = RANK_AUTO
    gamma: float = 0.0
    tls_rank: Optional[int] = None
    admm_rho: float = 1.0
    admm_max_iter: int = 10000

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose one of {METHODS}")
        if self.method == "dmd":
            if self.tau not in (None, 1):
                warnings.warn("method 'dmd' forces tau = 1", stacklevel=2)
            self.tau = 1
        elif self.tau is None:
            raise ConfigError(f"method {self.method!r} requires a delay length tau")
        if self.tau < 1:
            raise RangeError(f"tau must be >= 1, got {self.tau}")
        if self.gamma < 0:
            raise RangeError(f"gamma must be >= 0, got {self.gamma}")
        if self.gamma > 0 and self.method != "circ-sp":
            raise ConfigError("gamma applies to method 'circ-sp' only")
        self.gamma = float(self.gamma)


def _spectrum(
    data: SpeedMatrix,
    config: VariantConfig,
    svd: ReducedSvd,
    a_tilde: np.ndarray,
    target: np.ndarray,
    initial: np.ndarray,
) -> DynamicSpectrum:
    """The stage every fit shares once it has a reduced propagator.

    Eigendecomposes ``a_tilde``, lifts the eigenvectors to the one mode
    flavour the method reads (projected for circ-sp, whose amplitude
    selection optimizes over them; exact otherwise) and fits their
    amplitudes to ``initial``.
    """
    flavor = "projected" if config.method == "circ-sp" else "exact"
    eigs, w = eigendecompose(a_tilde)
    modes = dynamic_modes(target, svd, w, flavor)
    meta = SpectrumMeta(
        method=config.method,
        tau=config.tau,
        rank=svd.rank,
        gamma=config.gamma,
        mode_flavor=flavor,
        n_sensors=data.n_sensors,
        n_time=data.n_time,
        delta_t=data.delta_t,
    )
    return DynamicSpectrum(
        eigenvalues=eigs,
        modes=modes,
        amplitudes=amplitudes(modes, initial),
        meta=meta,
        _source_svd=svd,
    )


def _regress(data, config, source, target, initial) -> DynamicSpectrum:
    """Regress ``target`` on ``source`` in the source's POD basis."""
    svd = snapshot_svd(source, config.rank)
    return _spectrum(data, config, svd, projected_dynamics(target, svd), target, initial)


def _snapshot_pair(data: SpeedMatrix, config: VariantConfig):
    """(source, target, initial): each snapshot of the delay stack and its
    successor. Circular methods pair the last snapshot with the first
    too; dmd is the Hankel stack with tau = 1."""
    wrap = config.method in _CIRC_METHODS
    source = DelayStack(data.values, config.tau, 0, wrap)
    target = DelayStack(data.values, config.tau, 1, wrap)
    return source, target, source.first_column()


def _sparsify(base: DynamicSpectrum, config: VariantConfig, gammas) -> list:
    """Select ``base``'s amplitudes at each penalty over its n_time columns."""
    psi = vandermonde(base.eigenvalues, base.meta.n_time)
    form = build_quadratic(base.modes_projected, psi, base._source_svd)
    solutions = gamma_path(
        form, gammas, rho=config.admm_rho, max_iter=config.admm_max_iter
    )
    return [
        (
            solution.gamma,
            replace(
                base,
                amplitudes=solution.amplitudes_polished,
                meta=replace(base.meta, gamma=solution.gamma),
                sparsity=solution,
            ),
            solution,
        )
        for solution in solutions
    ]


def fit(data: SpeedMatrix, config: VariantConfig) -> DynamicSpectrum:
    """Fit the configured decomposition and return its spectrum."""
    method = config.method
    if method == "fb-hankel":
        return fit_forward_backward(data, config)
    if method == "tls-hankel":
        return fit_total_least_squares(data, config)
    spectrum = _regress(data, config, *_snapshot_pair(data, config))
    if method == "circ-sp":
        [(_, spectrum, _)] = _sparsify(spectrum, config, [config.gamma])
    return spectrum


def fit_gamma_path(data: SpeedMatrix, config: VariantConfig, gammas):
    """Fit the circular decomposition once, then sweep the sparsity penalty.

    Returns one (gamma, spectrum, solution) triple per penalty; each
    spectrum shares the eigenstructure of the base fit but carries the
    polished amplitudes of its own penalty level. Only the circular
    methods have a sparsity stage; any other method raises ConfigError.
    """
    if config.method not in _CIRC_METHODS:
        raise ConfigError(
            f"a gamma path needs method {' or '.join(_CIRC_METHODS)}, got {config.method!r}"
        )
    base_config = replace(config, method="circ-sp", gamma=0.0)
    base = _regress(data, base_config, *_snapshot_pair(data, base_config))
    return _sparsify(base, config, gammas)


def forward_backward_combine(a_forward: np.ndarray, a_backward: np.ndarray) -> np.ndarray:
    """Principal square root of A_f inv(A_b) with per-eigenvalue sign repair.

    The square root leaves each eigenvalue's sign free; each is chosen
    to be nearest the matching diagonal entry of the forward propagator
    expressed in the root's eigenbasis, which minimizes the distance to
    A_f and recovers it exactly on clean data.
    """
    a_forward = np.asarray(a_forward, dtype=complex)
    a_backward = np.asarray(a_backward, dtype=complex)
    if a_forward.shape != a_backward.shape:
        raise ShapeError(
            f"propagator shapes differ: {a_forward.shape} vs {a_backward.shape}"
        )
    singular = scipy.linalg.svdvals(a_backward)
    with np.errstate(divide="ignore", invalid="ignore"):
        condition = singular[0] / singular[-1]
    if condition > 1.0 / np.finfo(float).eps:
        raise SingularBackwardError("backward propagator is numerically singular")
    product = dot(a_forward, inv(a_backward))
    eigvals, eigvecs = scipy.linalg.eig(product)
    try:
        eigvecs_inv = inv(eigvecs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"defective propagator product: {exc}") from exc
    roots = np.sqrt(eigvals.astype(complex))
    reference = np.diag(dot(dot(eigvecs_inv, a_forward), eigvecs))
    flip = np.abs(-roots - reference) < np.abs(roots - reference)
    roots = np.where(flip, -roots, roots)
    return dot(eigvecs * roots, eigvecs_inv)


def fit_forward_backward(data: SpeedMatrix, config: VariantConfig) -> DynamicSpectrum:
    """Debias by averaging forward and inverse-backward dynamics.

    Both legs are truncated to a common rank (the smaller of the two
    auto/fixed ranks) so the propagators conform before combining. The
    sign of a singular pair is arbitrary, so each backward POD vector is
    flipped to point the way of its forward counterpart: the two
    propagators then act in the same coordinates.
    """
    source, target, initial = _snapshot_pair(data, config)
    svd1 = snapshot_svd(source, config.rank)
    svd2 = snapshot_svd(target, config.rank)
    r = min(svd1.rank, svd2.rank)
    svd1 = svd1.truncate(r)
    svd2 = svd2.truncate(r)
    flip = np.where(np.sum(svd1.left * svd2.left, axis=0) < 0, -1.0, 1.0)
    svd2 = replace(svd2, left=svd2.left * flip, right=svd2.right * flip)
    a_forward = projected_dynamics(target, svd1)
    a_backward = projected_dynamics(source, svd2)
    a_tilde = forward_backward_combine(a_forward, a_backward)
    return _spectrum(data, config, svd1, a_tilde, target, initial)


def fit_total_least_squares(data: SpeedMatrix, config: VariantConfig) -> DynamicSpectrum:
    """Debias by projecting both snapshot matrices onto the leading right
    singular vectors V of their vertical stack [S; T], then running the
    plain pipeline on the projected pair (Hemati, Rowley, Deem &
    Cattafesta 2017).

    Neither the 2N*tau-row stack nor an N*tau x W projection is formed.
    Target block i is source block i + 1, so [S; T] has only the
    N*(tau+1) distinct rows B_i = X[:, i:i+W], i = 0..tau, each taken
    m_i times (once at either end, twice in between): V and its singular
    values come from the rows sqrt(m_i) B_i when they are fewer than W,
    and from the time-side Gram S.T S + T.T T otherwise. The projected
    pair (S V) V.T, (T V) V.T is the pair (S V, T V) rotated by the
    orthonormal V.T, so the regression runs in those k coordinates: the
    same propagator, exact modes and initial snapshot. Both rank rules
    read the dense matrices' shapes, whose singular values past the ones
    computed here are exactly zero.
    """
    source, target, _ = _snapshot_pair(data, config)
    x, tau, w = data.values, config.tau, source.width
    n = x.shape[0]
    z_rank = config.tls_rank if config.tls_rank is not None else RANK_AUTO
    if z_rank != RANK_AUTO and z_rank > w:
        raise RangeError(f"tls rank {z_rank} exceeds column count {w}")
    if n * (tau + 1) < w:
        # the Gram of the rows sqrt(m_i) B_i, from the blocks' lagged
        # products: block i is in S for i < tau and in T for i > 0
        copies = np.full(tau + 1, 2.0)
        copies[[0, -1]] = 1.0
        scale = np.repeat(np.sqrt(copies), n)
        gram = _block_gram(x, np.arange(tau + 1), w)
        gram *= scale
        gram *= scale[:, None]
        sing, u = _top_singular(gram, z_rank, 2 * n * tau, w)
        del gram
        # V = rows.T U / sigma, so B V = diag(1/sqrt(m)) U diag(sigma), and
        # V's first row reads the rows' first column, sqrt(m_i) x[:, i]
        coords = u * sing / scale[:, None]
        source_v, target_v = coords[: n * tau], coords[n:]
        first_v = dot(scale * x[:, : tau + 1].ravel(order="F"), u) / sing
    else:
        # one W x W array: the target's window sums go into the source's Gram
        gram = _window_gram(x, tau, w, (0, 1))
        sing, v = _top_singular(gram, z_rank, 2 * n * tau, w)
        del gram
        source_v, target_v, first_v = dot(source, v), dot(target, v), v[0]
    svd = _snapshot_svd(DelayStack(source_v, 1, 0, wrap=True), config.rank, n * tau, w)
    return _spectrum(
        data, config, svd, projected_dynamics(target_v, svd), target_v, dot(source_v, first_v)
    )


def predict(
    spectrum: DynamicSpectrum, data_shape, horizon_columns: int
) -> np.ndarray:
    """Reconstruct history plus ``horizon_columns`` future steps in the
    original N-row space.

    Block i of reconstructed snapshot j estimates column i + j, and each
    column is the mean of its copies: tau per column for a circular
    stack, whose shifted part wraps to the front, and 1 to tau for a
    Hankel stack, which has tau - 1 fewer snapshots. The Vandermonde
    matrix is shift-invariant, so the collapse never forms the
    (N*tau)-row reconstruction nor one product per block (see
    :func:`_delay_sum`).
    """
    n, t = data_shape
    meta = spectrum.meta
    if (n, t) != (meta.n_sensors, meta.n_time):
        raise ShapeError(
            f"data shape {(n, t)} does not match fitted {(meta.n_sensors, meta.n_time)}"
        )
    if horizon_columns < 0:
        raise RangeError(f"horizon must be >= 0, got {horizon_columns}")
    if meta.method not in METHODS:
        raise ConfigError(f"unknown method {meta.method!r} in spectrum metadata")
    tau = meta.tau
    out = t + horizon_columns
    circular = meta.method in _CIRC_METHODS
    width = out if circular else out - tau + 1
    blocks = (spectrum.modes * spectrum.amplitudes).reshape(tau, n, -1)
    # block i reaches columns i .. i + width - 1: in runs of at most
    # width blocks, every run has a column that all of its blocks reach
    acc = np.zeros((n, tau - 1 + width))
    run = min(tau, width)
    for first in range(0, tau, run):
        part = blocks[first : first + run]
        acc[:, first : first + len(part) + width - 1] += _delay_sum(
            part, spectrum.eigenvalues, width
        )
    if circular:
        acc[:, : tau - 1] += acc[:, out:]
        return acc[:, :out] / tau
    column = np.arange(out)
    count = np.minimum(column, tau - 1) - np.maximum(column - width + 1, 0) + 1
    return acc / count


def _delay_sum(blocks: np.ndarray, eigenvalues: np.ndarray, width: int) -> np.ndarray:
    """Column c of the n x (L + w - 1) result is the sum over blocks i of
    Re(blocks[i] psi[:, c - i]), for the L <= w blocks (L x n x r) and
    the r x w Vandermonde matrix ``psi`` of ``eigenvalues``, w = ``width``.

    Since l^(c-i) = l^(c-L+1) l^(L-1-i), the columns c = L-1 .. w-1,
    which every block reaches, are one product M psi with
    M = sum_i blocks[i] diag(l^(L-1-i)). The last L - 1 columns take
    the suffixes of that sum, and the first L - 1 a running sum over
    the blocks. ``psi`` is never held: its columns stream from
    :func:`circdmd.spectral._power_blocks` in blocks of about
    ``_BLOCK_CELLS`` cells, the steady product taking one block at a
    time, and beside them the sum keeps M, the r x L head powers
    l^0 .. l^(L-1) and the r x (L-1) tail l^(w-L+1) .. l^(w-1): beside
    ``blocks`` and the result, O(n r + (n + r) block + r L). Every power
    is the flushed one ``vandermonde`` gives, so none is negative or
    above l^(w-1), and those flushed to 0 stay 0.
    """
    length, n, r = blocks.shape
    w = width
    result = np.empty((n, length + w - 1))
    [head] = _power_blocks(eigenvalues, [slice(0, length)], w)
    # M = sum over i of blocks[i] l^(L-1-i), added from i = L-1 down
    weighted = blocks[-1] * head[:, 0]
    for i in range(length - 2, -1, -1):
        weighted += blocks[i] * head[:, length - 1 - i]
    # the real part alone, as one real product per column block. Read as
    # floats, conj(M) holds the pairs (Re M, -Im M) side by side and a
    # Fortran-ordered block of psi the pairs (Re psi, Im psi) one above the
    # other, so their product is Re M Re psi - Im M Im psi = Re(M psi),
    # with no complex n x w temporary. The blocks are sized by the taller
    # of the r x b powers and the n x b product, so neither is large
    m_pairs = np.conj(weighted).view(float)
    steady = result[:, length - 1 : w]
    bounds = _column_blocks(max(n, r), w - length + 1)
    powers = _power_blocks(eigenvalues, bounds + [slice(w - length + 1, w)], w)
    for cols, block in zip(bounds, powers):
        steady[:, cols] = dot(m_pairs, block.T.view(float).T)
    # column w - 1 + m is reached by blocks m .. L-1 at l^(w-1+m-i), and
    # the sum over blocks m .. L-1 is M's suffix, added from L-1 down again
    if length > 1:
        tail = next(powers)  # zip stopped at the end of bounds, before it
        suffix = blocks[-1] * head[:, 0]
        for m in range(length - 1, 0, -1):
            result[:, w - 1 + m] = dot(suffix, tail[:, m - 1]).real
            suffix += blocks[m - 1] * head[:, length - m]
    # column c < L - 1 is reached by blocks 0 .. c at l^(c-i)
    running = np.zeros((n, r), dtype=complex)
    for c in range(length - 1):
        running = running * head[:, 1] + blocks[c]
        result[:, c] = np.real(running.sum(axis=1))
    return result
