"""Evaluation metrics and dynamical diagnostics."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._linalg import dot
from .errors import DegenerateSeriesError, RangeError, ShapeError

STABILITY_TOL = 1e-3


@dataclass(frozen=True)
class StabilityReport:
    """Which eigenvalues sit on the unit circle, and by how much the rest miss it."""

    steady_mask: np.ndarray
    deviation_sum: float
    tolerance: float


@dataclass(frozen=True)
class PeriodReport:
    """Oscillation periods in hours for the modes that have one.

    ``included`` are indices into the original eigenvalue vector;
    eigenvalues with zero phase (infinite period) and negative phase
    (conjugate duplicates) land in ``excluded``.
    """

    periods: np.ndarray
    amplitudes_real: np.ndarray
    included: np.ndarray
    excluded: np.ndarray


def mae_rmse(truth: np.ndarray, estimate: np.ndarray):
    """Mean absolute and root-mean-square error over all entries."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        raise ShapeError(f"shape mismatch: {truth.shape} vs {estimate.shape}")
    diff = truth - estimate
    mae = float(np.mean(np.abs(diff)))
    rmse = float(np.sqrt(np.mean(diff**2)))
    return mae, rmse


def mape_per_sensor(truth: np.ndarray, estimate: np.ndarray) -> np.ndarray:
    """Mean absolute percentage error per sensor row.

    Zero truth entries are undefined, so each row averages over its
    other entries: a warning counts the entries skipped, and a row of
    zeros reads NaN.
    """
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        raise ShapeError(f"shape mismatch: {truth.shape} vs {estimate.shape}")
    zero = truth == 0.0
    if zero.any():
        warnings.warn(f"skipping {int(zero.sum())} zero truth entries in MAPE")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.abs((truth - estimate) / truth)
    ratio[zero] = 0.0
    counts = (~zero).sum(axis=1).astype(float)
    out = np.full(truth.shape[0], np.nan)
    nonempty = counts > 0
    out[nonempty] = 100.0 * ratio[nonempty].sum(axis=1) / counts[nonempty]
    return out


def predictability_groups(mape_values: np.ndarray):
    """Band each sensor by MAPE: below 5 %, 5 to 10 %, or above 10 %."""
    labels = []
    for value in np.asarray(mape_values, dtype=float):
        if np.isnan(value):
            labels.append("undefined")
        elif value < 5.0:
            labels.append("<5%")
        elif value <= 10.0:
            labels.append("5-10%")
        else:
            labels.append(">10%")
    return labels


def classify_stability(
    eigenvalues: np.ndarray, tol: float = STABILITY_TOL
) -> StabilityReport:
    """Mark eigenvalues with modulus in [1 - tol, 1 + tol] as steady."""
    if tol <= 0:
        raise RangeError(f"tolerance must be positive, got {tol}")
    moduli = np.abs(np.asarray(eigenvalues, dtype=complex))
    mask = (moduli >= 1.0 - tol) & (moduli <= 1.0 + tol)
    return StabilityReport(
        steady_mask=mask,
        deviation_sum=float(np.sum(np.abs(moduli - 1.0))),
        tolerance=float(tol),
    )


def oscillation_periods(
    eigenvalues: np.ndarray, delta_t: float, amplitudes: Optional[np.ndarray] = None
) -> PeriodReport:
    """Periods 2*pi*dt / imag(log(lambda)) for modes with positive phase.

    Zero phase means an infinite (non-oscillating) period and negative
    phase is the conjugate duplicate of a positive one; both are
    reported under ``excluded``.
    """
    if delta_t <= 0:
        raise RangeError(f"delta_t must be positive, got {delta_t}")
    eigenvalues = np.asarray(eigenvalues, dtype=complex)
    phases = np.angle(eigenvalues)
    included = np.flatnonzero(phases > 0)
    excluded = np.flatnonzero(phases <= 0)
    periods = 2.0 * np.pi * delta_t / phases[included]
    if amplitudes is not None:
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != eigenvalues.shape:
            raise ShapeError("amplitudes and eigenvalues differ in length")
        amp_real = np.real(amplitudes[included])
    else:
        amp_real = np.zeros(included.size)
    return PeriodReport(
        periods=periods, amplitudes_real=amp_real, included=included, excluded=excluded
    )


def reshape_mode(
    mode: np.ndarray, amplitude: complex, n: int, tau: int
) -> np.ndarray:
    """Unstack an amplitude-weighted mode into N x tau, block i -> column i."""
    mode = np.asarray(mode)
    if mode.shape != (n * tau,):
        raise ShapeError(f"mode length {mode.shape} does not match n*tau={n * tau}")
    return (amplitude * mode).reshape(tau, n).T


def residual_acf(residuals: np.ndarray, max_lag: int):
    """Sample autocorrelation (biased normalization) with a 3/sqrt(T) bound."""
    residuals = np.asarray(residuals, dtype=float).ravel()
    t = residuals.size
    if not 0 <= max_lag < t:
        raise RangeError(f"max_lag must satisfy 0 <= lag < {t}, got {max_lag}")
    centered = residuals - residuals.mean()
    # every lag's sum of products at once, from one real FFT zero-padded
    # past t + max_lag so that no lag wraps (numpy.fft wakes no BLAS pool)
    size = 1 << (t + max_lag - 1).bit_length()
    power = np.abs(np.fft.rfft(centered, size)) ** 2
    sums = np.fft.irfft(power, size)[: max_lag + 1]
    if not sums[0] > 0.0:
        raise DegenerateSeriesError("constant series has no autocorrelation")
    return sums / sums[0], 3.0 / np.sqrt(t)


def residual_lag_correlation(residuals: np.ndarray, lag: int):
    """Pearson correlation between sensor residuals ``lag`` steps apart.

    Entry (i, j) correlates sensor i at time t - lag with sensor j at
    time t. Zero-variance sensors get zeroed rows/columns with a
    warning. Also returns the mean absolute entry.
    """
    residuals = np.asarray(residuals, dtype=float)
    if residuals.ndim != 2:
        raise ShapeError(f"expected N x T residuals, got ndim={residuals.ndim}")
    n, t = residuals.shape
    if not 0 <= lag < t:
        raise RangeError(f"lag must satisfy 0 <= lag < {t}, got {lag}")
    past = residuals[:, : t - lag] if lag else residuals
    present = residuals[:, lag:] if lag else residuals
    past = past - past.mean(axis=1, keepdims=True)
    present = present - present.mean(axis=1, keepdims=True)
    past_norm = np.linalg.norm(past, axis=1)
    present_norm = np.linalg.norm(present, axis=1)
    degenerate = (past_norm == 0.0) | (present_norm == 0.0)
    if degenerate.any():
        warnings.warn(
            f"{int(degenerate.sum())} zero-variance sensors; correlations set to 0"
        )
    past_norm[past_norm == 0.0] = 1.0
    present_norm[present_norm == 0.0] = 1.0
    matrix = dot(past / past_norm[:, None], (present / present_norm[:, None]).T)
    matrix[degenerate, :] = 0.0
    matrix[:, degenerate] = 0.0
    return matrix, float(np.mean(np.abs(matrix)))

