import numpy as np
import pytest

from circdmd import (
    DegenerateSeriesError,
    RangeError,
    ShapeError,
    classify_stability,
    mae_rmse,
    mape_per_sensor,
    oscillation_periods,
    residual_acf,
)
from circdmd.analysis import predictability_groups, reshape_mode, residual_lag_correlation


# ----------------------------------------------------------------------
# error metrics
# ----------------------------------------------------------------------

def test_mae_rmse_perfect():
    a = np.arange(6.0).reshape(2, 3)
    assert mae_rmse(a, a) == (0.0, 0.0)


def test_mae_rmse_constant_offset():
    truth = np.zeros((3, 4))
    estimate = np.full((3, 4), -2.5)
    mae, rmse = mae_rmse(truth, estimate)
    assert mae == 2.5
    assert rmse == 2.5


def test_mae_rmse_hand_example():
    truth = np.array([[1.0, 2.0], [3.0, 4.0]])
    estimate = np.array([[1.0, 2.0], [3.0, 6.0]])
    mae, rmse = mae_rmse(truth, estimate)
    assert mae == 0.5
    assert rmse == 1.0


def test_mae_rmse_symmetry_and_order():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(4, 7))
    b = rng.normal(size=(4, 7))
    assert mae_rmse(a, b) == mae_rmse(b, a)
    mae, rmse = mae_rmse(a, b)
    assert rmse >= mae


def test_mae_rmse_shape_mismatch():
    with pytest.raises(ShapeError):
        mae_rmse(np.zeros((2, 3)), np.zeros((3, 2)))


def test_mape_perfect_and_constant():
    truth = np.full((3, 5), 100.0)
    assert np.allclose(mape_per_sensor(truth, truth), 0.0)
    estimate = np.full((3, 5), 95.0)
    assert np.allclose(mape_per_sensor(truth, estimate), 5.0)


def test_mape_zero_policy():
    # zero truth entries are skipped with a warning; a row of zeros reads NaN
    truth = np.array([[100.0, 0.0, 100.0], [0.0, 0.0, 0.0]])
    estimate = np.array([[90.0, 5.0, 110.0], [1.0, 2.0, 3.0]])
    with pytest.warns(UserWarning, match="skipping 4 zero truth entries"):
        got = mape_per_sensor(truth, estimate)
    assert np.allclose(got[0], 10.0)  # two usable entries, 10% each
    assert np.isnan(got[1])


def test_predictability_bands():
    labels = predictability_groups(np.array([2.0, 7.0, 15.0, np.nan]))
    assert labels == ["<5%", "5-10%", ">10%", "undefined"]


# ----------------------------------------------------------------------
# stability
# ----------------------------------------------------------------------

def test_classify_stability_worked_example():
    report = classify_stability(np.array([1.0, 0.5, 2.0]), tol=1e-3)
    assert report.steady_mask.tolist() == [True, False, False]
    assert abs(report.deviation_sum - 1.5) <= 1e-12


def test_classify_stability_all_unit():
    eigs = np.exp(1j * np.linspace(0, np.pi, 5))
    report = classify_stability(eigs)
    assert report.steady_mask.all()
    assert report.deviation_sum <= 1e-12


def test_classify_stability_scale_detection():
    eigs = np.exp(1j * np.linspace(0, np.pi, 5))
    report = classify_stability(1.01 * eigs, tol=1e-3)
    assert not report.steady_mask.any()


# ----------------------------------------------------------------------
# periods
# ----------------------------------------------------------------------

def test_period_quarter_rotation():
    report = oscillation_periods(np.array([1j]), delta_t=1 / 12)
    assert report.periods.shape == (1,)
    assert abs(report.periods[0] - 1.0 / 3.0) <= 1e-15


def test_period_excludes_infinite_and_negative():
    eigs = np.array([1.0, np.exp(0.4j), np.exp(-0.4j)])
    report = oscillation_periods(eigs, delta_t=1.0)
    assert list(report.included) == [1]
    assert sorted(report.excluded) == [0, 2]


def test_period_conjugate_pairs_keep_positive():
    omega = 2 * np.pi / 288  # 24 h at 5-minute sampling
    eigs = np.array([np.exp(1j * omega), np.exp(-1j * omega)])
    report = oscillation_periods(eigs, delta_t=1 / 12)
    assert report.periods.size == 1
    assert abs(report.periods[0] - 24.0) <= 1e-9


def test_period_amplitudes_passthrough():
    eigs = np.array([np.exp(0.5j), np.exp(-0.5j), 1.0])
    amps = np.array([2.0 - 1.0j, 2.0 + 1.0j, -5.0])
    report = oscillation_periods(eigs, 1.0, amplitudes=amps)
    assert np.allclose(report.amplitudes_real, [2.0])


def test_period_from_pipeline_recovers_injected():
    # periods must divide the window so the circular wrap stays consistent
    from circdmd import Component, SyntheticSpec, VariantConfig, fit, generate

    spec_data = SyntheticSpec(
        n=6,
        t=576,  # two days at 5-minute sampling
        delta_t=1 / 12,
        components=(
            Component(period=np.inf, amplitude=10.0),
            Component(period=24.0, amplitude=4.0),
            Component(period=8.0, amplitude=2.0),
        ),
        seed=5,
    )
    data = generate(spec_data)
    spectrum = fit(data, VariantConfig(method="circ", tau=96))
    report = oscillation_periods(spectrum.eigenvalues, 1 / 12)
    for target in (24.0, 8.0):
        assert np.min(np.abs(report.periods - target) / target) <= 0.01


# ----------------------------------------------------------------------
# mode reshape
# ----------------------------------------------------------------------

def test_reshape_mode_block_major():
    mode = np.arange(1.0, 7.0)
    shaped = reshape_mode(mode, 1.0, n=2, tau=3)
    assert np.array_equal(shaped, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])


def test_reshape_mode_zero_amplitude():
    shaped = reshape_mode(np.ones(6), 0.0, n=2, tau=3)
    assert np.all(shaped == 0.0)


def test_reshape_mode_round_trip():
    rng = np.random.default_rng(1)
    mode = rng.normal(size=12) + 1j * rng.normal(size=12)
    shaped = reshape_mode(mode, 1.0, n=3, tau=4)
    assert np.array_equal(shaped.T.ravel(), mode)


def test_reshape_mode_length_mismatch():
    with pytest.raises(ShapeError):
        reshape_mode(np.ones(5), 1.0, n=2, tau=3)


# ----------------------------------------------------------------------
# residual ACF
# ----------------------------------------------------------------------

def test_acf_lag_zero_is_one():
    rng = np.random.default_rng(2)
    acf, _ = residual_acf(rng.normal(size=200), 10)
    assert acf[0] == 1.0


def test_acf_white_noise_within_bound():
    rng = np.random.default_rng(3)
    acf, bound = residual_acf(rng.normal(size=10000), 100)
    assert abs(bound - 3.0 / 100.0) <= 1e-12
    inside = np.mean(np.abs(acf[1:]) < bound)
    assert inside >= 0.99


def test_acf_ar1_coefficient():
    rng = np.random.default_rng(4)
    t = 20000
    e = np.empty(t)
    e[0] = 0.0
    for k in range(1, t):
        e[k] = 0.8 * e[k - 1] + rng.standard_normal()
    acf, _ = residual_acf(e, 5)
    assert abs(acf[1] - 0.8) <= 0.05


def _acf_by_lag(series, max_lag):
    """The sample ACF as one dot product per lag: the FFT's oracle."""
    centered = series - series.mean()
    t = centered.size
    return np.array([centered[lag:] @ centered[: t - lag] for lag in range(max_lag + 1)]) / (
        centered @ centered)


@pytest.mark.parametrize("t", [2, 3, 97, 288, 2016, 4032])
def test_acf_from_the_fft_matches_the_lag_loop(t):
    # every lag up to t - 1 (no padding may wrap), and the lags analyze asks for
    rng = np.random.default_rng(t)
    series = 50.0 + 10.0 * rng.normal(size=t)
    for max_lag in sorted({0, 1, min(288, t - 1), t // 2, t - 1}):
        acf, _ = residual_acf(series, max_lag)
        assert acf.shape == (max_lag + 1,) and acf[0] == 1.0
        assert np.max(np.abs(acf - _acf_by_lag(series, max_lag))) <= 1e-14


def test_acf_constant_series():
    with pytest.raises(DegenerateSeriesError):
        residual_acf(np.full(50, 3.0), 5)


def test_acf_lag_range():
    with pytest.raises(RangeError):
        residual_acf(np.arange(10.0), 10)


# ----------------------------------------------------------------------
# residual lag correlation
# ----------------------------------------------------------------------

def test_lag_correlation_identical_series():
    base = np.sin(np.arange(50.0))
    residuals = np.vstack([base, base, base])
    matrix, mean_abs = residual_lag_correlation(residuals, 0)
    assert np.allclose(matrix, 1.0)
    assert abs(mean_abs - 1.0) <= 1e-12


def test_lag_correlation_independent_noise():
    rng = np.random.default_rng(5)
    residuals = rng.normal(size=(5, 10000))
    matrix, mean_abs = residual_lag_correlation(residuals, 3)
    assert mean_abs < 0.05
    off_diag = matrix - np.diag(np.diag(matrix))
    assert np.max(np.abs(off_diag)) < 0.1


def test_lag_correlation_decays_for_ar_residuals():
    rng = np.random.default_rng(6)
    n, t = 4, 8000
    shared = np.empty(t)
    shared[0] = 0.0
    for k in range(1, t):
        shared[k] = 0.9 * shared[k - 1] + rng.standard_normal()
    residuals = shared[None, :] + 0.3 * rng.normal(size=(n, t))
    means = []
    for lag in (1, 4, 16, 64):
        _, mean_abs = residual_lag_correlation(residuals, lag)
        means.append(mean_abs)
    assert all(b < a for a, b in zip(means, means[1:]))


def test_lag_correlation_zero_variance_sensor():
    residuals = np.vstack([np.zeros(30), np.sin(np.arange(30.0))])
    with pytest.warns(UserWarning):
        matrix, _ = residual_lag_correlation(residuals, 1)
    assert np.all(matrix[0, :] == 0.0)
    assert np.all(matrix[:, 0] == 0.0)


def test_lag_correlation_orientation():
    # sensor 1 leads sensor 0 by one step: corr(eta_{t-1}[1], eta_t[0]) high
    rng = np.random.default_rng(7)
    driver = rng.normal(size=1001)
    follower = driver[:-1]
    residuals = np.vstack([follower, driver[1:]])
    matrix, _ = residual_lag_correlation(residuals, 1)
    # row index: series at t - lag, column: series at t
    assert matrix[1, 0] > 0.99

