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

from .datamodel import SpeedMatrix
from .embedding import CircularStack, hankel, inverse_hankel
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
    DynamicSpectrum,
    ReducedSvd,
    SpectrumMeta,
    amplitudes,
    dynamic_modes,
    eigendecompose,
    projected_dynamics,
    reconstruct,
    snapshot_svd,
    vandermonde,
)

METHODS = ("dmd", "hankel", "fb-hankel", "tls-hankel", "circ", "circ-sp")
_HANKEL_METHODS = ("hankel", "fb-hankel", "tls-hankel")
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


def _hankel_pair(data: SpeedMatrix, tau: int):
    if tau > data.n_time - 1:
        raise RangeError(
            f"hankel methods need tau <= T - 1, got tau={tau}, T={data.n_time}"
        )
    h = hankel(data, tau).values
    return h[:, :-1], h[:, 1:], h[:, 0]


def _snapshot_pair(data: SpeedMatrix, config: VariantConfig):
    """(source, target, initial) of the plain, Hankel and circular regressions."""
    if config.method == "dmd":
        x = data.values
        return x[:, :-1], x[:, 1:], x[:, 0]
    if config.method in _HANKEL_METHODS:
        return _hankel_pair(data, config.tau)
    # circ methods pair every snapshot with its successor, wrap included
    source = CircularStack(data.values, config.tau, offset=0)
    target = CircularStack(data.values, config.tau, offset=1)
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
    polished amplitudes of its own penalty level.
    """
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
    if np.linalg.cond(a_backward) > 1.0 / np.finfo(float).eps:
        raise SingularBackwardError("backward propagator is numerically singular")
    product = a_forward @ np.linalg.inv(a_backward)
    eigvals, eigvecs = np.linalg.eig(product)
    try:
        eigvecs_inv = np.linalg.inv(eigvecs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"defective propagator product: {exc}") from exc
    roots = np.sqrt(eigvals.astype(complex))
    reference = np.diag(eigvecs_inv @ a_forward @ eigvecs)
    flip = np.abs(-roots - reference) < np.abs(roots - reference)
    roots = np.where(flip, -roots, roots)
    return eigvecs @ np.diag(roots) @ eigvecs_inv


def fit_forward_backward(data: SpeedMatrix, config: VariantConfig) -> DynamicSpectrum:
    """Debias by averaging forward and inverse-backward dynamics.

    Both legs are truncated to a common rank (the smaller of the two
    auto/fixed ranks) so the propagators conform before combining. The
    sign of a singular pair is arbitrary, so each backward POD vector is
    flipped to point the way of its forward counterpart: the two
    propagators then act in the same coordinates.
    """
    source, target, initial = _hankel_pair(data, config.tau)
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
    """Debias by projecting both snapshot matrices onto the POD modes of
    their vertical stack, then running the plain pipeline on the
    projected pair."""
    source, target, _ = _hankel_pair(data, config.tau)
    stacked = np.vstack([source, target])
    z_rank = config.tls_rank if config.tls_rank is not None else RANK_AUTO
    if z_rank != RANK_AUTO and z_rank > stacked.shape[1]:
        raise RangeError(
            f"tls rank {z_rank} exceeds column count {stacked.shape[1]}"
        )
    svd_z = snapshot_svd(stacked, z_rank)
    projector = svd_z.right @ svd_z.right.conj().T
    source_bar = source @ projector
    target_bar = target @ projector
    return _regress(data, config, source_bar, target_bar, source_bar[:, 0])


def predict(
    spectrum: DynamicSpectrum, data_shape, horizon_columns: int
) -> np.ndarray:
    """Reconstruct history plus ``horizon_columns`` future steps in the
    original N-row space.

    Circular variants collapse the snapshot-ordered reconstruction by
    circular-shift averaging over the whole window, block by block, so
    the (N*tau)-row reconstruction is never formed; Hankel variants
    average all delayed copies of each timestamp; plain dmd returns its
    rows directly.
    """
    n, t = data_shape
    meta = spectrum.meta
    if (n, t) != (meta.n_sensors, meta.n_time):
        raise ShapeError(
            f"data shape {(n, t)} does not match fitted {(meta.n_sensors, meta.n_time)}"
        )
    if horizon_columns < 0:
        raise RangeError(f"horizon must be >= 0, got {horizon_columns}")
    tau = meta.tau
    if meta.method == "dmd":
        return reconstruct(spectrum, t + horizon_columns)
    if meta.method in _HANKEL_METHODS:
        width = (t - tau + 1) + horizon_columns
        rec = reconstruct(spectrum, width)
        return inverse_hankel(rec, n, tau)
    if meta.method not in _CIRC_METHODS:
        raise ConfigError(f"unknown method {meta.method!r} in spectrum metadata")
    return _collapse_circular(spectrum, n, tau, t + horizon_columns)


def _collapse_circular(spectrum: DynamicSpectrum, n: int, tau: int, width: int) -> np.ndarray:
    """``collapse_snapshot_reconstruction(reconstruct(spectrum, width), n, tau)``,
    one N-row block at a time: block i's real reconstruction, rotated
    right by i - 1 over the window, summed and averaged."""
    psi = vandermonde(spectrum.eigenvalues, width)
    weighted = spectrum.modes * spectrum.amplitudes
    acc = np.zeros((n, width))
    for i in range(tau):
        block = np.real(weighted[i * n : (i + 1) * n] @ psi)
        acc[:, i:] += block[:, : width - i]
        acc[:, :i] += block[:, width - i :]
    return acc / tau
