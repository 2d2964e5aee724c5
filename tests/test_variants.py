import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from circdmd import (
    ConfigError,
    RangeError,
    SpeedMatrix,
    VariantConfig,
    fit,
    fit_forward_backward,
    fit_gamma_path,
    fit_total_least_squares,
    forward_backward_combine,
    generate_linear_system,
    predict,
    rotation_system,
)


def eig_match_distance(a, b):
    """Largest pairwise distance under the optimal eigenvalue matching."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    assert a.size == b.size
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def periodic_data(n=3, t=48, periods=(12.0, 8.0), seed=0, mean=4.0):
    rng = np.random.default_rng(seed)
    hours = np.arange(t, dtype=float)
    values = np.full((n, t), mean)
    for period in periods:
        values += np.outer(rng.normal(size=n), np.cos(2 * np.pi * hours / period + rng.uniform()))
    return SpeedMatrix(values=values, delta_t=1.0)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        VariantConfig(method="nope", tau=3)
    with pytest.raises(ConfigError):
        VariantConfig(method="hankel")  # tau required
    with pytest.raises(ConfigError):
        VariantConfig(method="circ", tau=3, gamma=5.0)  # gamma is circ-sp only
    with pytest.warns(UserWarning):
        cfg = VariantConfig(method="dmd", tau=7)
    assert cfg.tau == 1


# ----------------------------------------------------------------------
# plain and circular fits
# ----------------------------------------------------------------------

def test_dmd_scalar_decay():
    values = 0.9 ** np.arange(30)[None, :]
    spec = fit(SpeedMatrix(values=values, delta_t=1.0), VariantConfig(method="dmd"))
    assert spec.meta.rank == 1
    assert abs(spec.eigenvalues[0] - 0.9) <= 1e-10


def test_circ_retains_generating_frequencies():
    data = periodic_data(n=4, t=60, periods=(12.0, 20.0), seed=1)
    spec = fit(data, VariantConfig(method="circ", tau=10))
    expected = {1.0}
    for period in (12.0, 20.0):
        expected.add(np.exp(2j * np.pi / period))
        expected.add(np.exp(-2j * np.pi / period))
    assert spec.eigenvalues.size == 5
    assert eig_match_distance(spec.eigenvalues, sorted(expected, key=np.angle)) <= 1e-8


def test_circ_sp_gamma_zero_equals_circ_spectrum():
    data = periodic_data(n=3, t=48, seed=2)
    base = fit(data, VariantConfig(method="circ", tau=8))
    sparse = fit(data, VariantConfig(method="circ-sp", tau=8, gamma=0.0))
    assert np.array_equal(sparse.eigenvalues, base.eigenvalues)
    # circ-sp keeps the projected modes its amplitude selection optimizes over
    assert base.meta.mode_flavor == "exact"
    assert sparse.meta.mode_flavor == "projected"
    assert sparse.modes_projected is sparse.modes
    with pytest.raises(ConfigError):
        base.modes_projected
    rec_base = predict(base, (3, 48), 0)
    rec_sparse = predict(sparse, (3, 48), 0)
    assert np.max(np.abs(rec_base - rec_sparse)) <= 1e-6


# ----------------------------------------------------------------------
# forward-backward
# ----------------------------------------------------------------------

def test_combine_scalar_square_root():
    a = forward_backward_combine(np.array([[4.0]]), np.array([[1.0]]))
    assert np.allclose(a, [[2.0]])


def test_combine_picks_branch_near_forward():
    # forward propagator with a negative eigenvalue: the root must keep it
    a_f = np.diag([-0.9, 0.5])
    a_b = np.linalg.inv(a_f)
    a = forward_backward_combine(a_f, a_b)
    assert np.max(np.abs(a - a_f)) <= 1e-12


def test_fb_matches_plain_on_clean_data():
    a_true = rotation_system([2 * np.pi / 16, 2 * np.pi / 10], seed=3)
    data = generate_linear_system(a_true, np.ones(4), 80)
    cfg = VariantConfig(method="hankel", tau=3)
    plain = fit(data, cfg)
    fb = fit_forward_backward(data, VariantConfig(method="fb-hankel", tau=3))
    assert eig_match_distance(fb.eigenvalues, plain.eigenvalues) <= 1e-6


def test_fb_is_independent_of_singular_vector_signs(monkeypatch):
    # each singular pair's sign is arbitrary; flipping the even pairs of
    # the backward leg alone must not change the combined propagator
    from dataclasses import replace

    from circdmd import variants

    data = periodic_data(n=4, t=60, seed=21)
    config = VariantConfig(method="fb-hankel", tau=6, rank=4)
    base = fit(data, config)
    svd = variants.snapshot_svd
    legs = []

    def flipped(matrix, rank):
        out = svd(matrix, rank)
        legs.append(out)
        signs = np.where(np.arange(out.rank) % 2 < len(legs) - 1, -1.0, 1.0)
        return replace(out, left=out.left * signs, right=out.right * signs)

    monkeypatch.setattr(variants, "snapshot_svd", flipped)
    again = fit(data, config)
    assert len(legs) == 2
    assert eig_match_distance(base.eigenvalues, again.eigenvalues) <= 1e-10
    assert np.max(np.abs(predict(again, (4, 60), 10) - predict(base, (4, 60), 10))) <= 1e-9


def test_fb_reachable_through_fit():
    data = periodic_data(n=2, t=40, seed=4)
    spec = fit(data, VariantConfig(method="fb-hankel", tau=4))
    assert spec.meta.method == "fb-hankel"


# ----------------------------------------------------------------------
# total least squares
# ----------------------------------------------------------------------

def test_tls_matches_plain_on_clean_data():
    a_true = rotation_system([2 * np.pi / 12], seed=5)
    data = generate_linear_system(a_true, np.array([1.0, 0.3]), 70)
    plain = fit(data, VariantConfig(method="hankel", tau=3))
    tls = fit_total_least_squares(data, VariantConfig(method="tls-hankel", tau=3))
    assert eig_match_distance(tls.eigenvalues, plain.eigenvalues) <= 1e-8


def test_tls_full_rank_projection_is_identity():
    # projecting onto all of Z's nonzero right singular directions leaves
    # the snapshot matrices untouched (the stack has duplicate delayed
    # rows, so its rank is 3 N tau - ... in general: use the observed one)
    rng = np.random.default_rng(6)
    data = SpeedMatrix(values=rng.normal(size=(2, 30)), delta_t=1.0)
    full = fit(data, VariantConfig(method="hankel", tau=2, rank=4))
    # Z stacks [X1; X2] whose middle blocks coincide: rank 6, not 8
    tls = fit_total_least_squares(
        data, VariantConfig(method="tls-hankel", tau=2, rank=4, tls_rank=6)
    )
    assert eig_match_distance(tls.eigenvalues, full.eigenvalues) <= 1e-8


def test_tls_rank_out_of_range():
    data = periodic_data(n=2, t=30, seed=7)
    with pytest.raises(RangeError):
        fit_total_least_squares(
            data, VariantConfig(method="tls-hankel", tau=2, tls_rank=100)
        )


def test_tls_beats_plain_dmd_on_noisy_ar1():
    # symmetric measurement noise biases the plain estimate toward zero;
    # the stack projection removes most of that attenuation on average
    rng = np.random.default_rng(8)
    t = 300
    plain_err = []
    tls_err = []
    for _ in range(100):
        clean = np.empty(t)
        clean[0] = 1.0
        for k in range(1, t):
            clean[k] = 0.9 * clean[k - 1] + 0.1 * rng.standard_normal()
        observed = clean + 0.2 * rng.standard_normal(t)
        data = SpeedMatrix(values=observed[None, :], delta_t=1.0)
        plain = fit(data, VariantConfig(method="dmd", rank=1))
        tls = fit_total_least_squares(
            data, VariantConfig(method="tls-hankel", tau=1, rank=1, tls_rank=1)
        )
        plain_err.append(abs(plain.eigenvalues[0] - 0.9))
        tls_err.append(abs(tls.eigenvalues[0] - 0.9))
    assert np.mean(tls_err) < np.mean(plain_err)


# ----------------------------------------------------------------------
# prediction
# ----------------------------------------------------------------------

def test_predict_zero_horizon_shapes():
    data = periodic_data(n=3, t=36, seed=9)
    for method, tau in (("dmd", None), ("hankel", 4), ("circ", 4)):
        spec = fit(data, VariantConfig(method=method, tau=tau))
        out = predict(spec, (3, 36), 0)
        assert out.shape == (3, 36)


def test_predict_periodic_forecast_one_period():
    data = periodic_data(n=3, t=48, periods=(12.0, 8.0), seed=10)
    spec = fit(data, VariantConfig(method="circ", tau=12))
    out = predict(spec, (3, 48), 24)
    forecast = out[:, 48:]
    # both periods divide 24: the forecast repeats the last cycle
    assert np.max(np.abs(forecast - data.values[:, 24:48])) <= 1e-4


def test_predict_seam_continuity():
    data = periodic_data(n=3, t=48, seed=11)
    for method, tau in (("dmd", None), ("hankel", 6), ("circ", 6)):
        spec = fit(data, VariantConfig(method=method, tau=tau))
        rec = predict(spec, (3, 48), 0)
        extended = predict(spec, (3, 48), 17)
        assert np.max(np.abs(extended[:, 47] - rec[:, 47])) <= 1e-9
        assert extended.shape == (3, 48 + 17)


def test_predict_validates_shape():
    data = periodic_data(n=3, t=36, seed=12)
    spec = fit(data, VariantConfig(method="circ", tau=4))
    from circdmd import ShapeError

    with pytest.raises(ShapeError):
        predict(spec, (4, 36), 0)


# ----------------------------------------------------------------------
# degeneracy invariants
# ----------------------------------------------------------------------

def test_hankel_tau_one_equals_dmd():
    data = periodic_data(n=3, t=40, seed=13)
    dmd = fit(data, VariantConfig(method="dmd", rank=3))
    hank = fit(data, VariantConfig(method="hankel", tau=1, rank=3))
    assert np.max(np.abs(dmd.eigenvalues - hank.eigenvalues)) <= 1e-9
    assert np.max(np.abs(dmd.modes - hank.modes)) <= 1e-9
    assert np.max(np.abs(dmd.amplitudes - hank.amplitudes)) <= 1e-9


def test_circ_tau_one_matches_dmd_on_periodic_data():
    # a T-periodic linear trajectory makes the wrap pair consistent, so the
    # rotated pairing gives the same spectrum as the plain one
    t = 48
    a_true = rotation_system([2 * np.pi * 3 / t, 2 * np.pi * 8 / t], seed=14)
    data = generate_linear_system(a_true, np.array([1.0, -0.5, 0.3, 0.8]), t)
    dmd = fit(data, VariantConfig(method="dmd", rank=4))
    circ = fit(data, VariantConfig(method="circ", tau=1, rank=4))
    assert eig_match_distance(dmd.eigenvalues, circ.eigenvalues) <= 1e-9


# ----------------------------------------------------------------------
# gamma path plumbing
# ----------------------------------------------------------------------

def test_fit_gamma_path_spectra_share_base():
    data = periodic_data(n=3, t=48, seed=15)
    cfg = VariantConfig(method="circ-sp", tau=8)
    results = fit_gamma_path(data, cfg, [0.0, 5.0, 500.0])
    gammas = [g for g, _, _ in results]
    assert gammas == [0.0, 5.0, 500.0]
    base_eigs = results[0][1].eigenvalues
    for _, spectrum, solution in results:
        assert np.array_equal(spectrum.eigenvalues, base_eigs)
        assert spectrum.meta.gamma == solution.gamma
        assert spectrum.meta.mode_flavor == "projected"
        assert solution.nonzero_count == int(np.sum(np.abs(spectrum.amplitudes) > 0))


def test_each_fit_lifts_modes_once(monkeypatch):
    from circdmd import variants

    flavors = []
    lift = variants.dynamic_modes

    def counting(target, svd, w, flavor):
        flavors.append(flavor)
        return lift(target, svd, w, flavor)

    monkeypatch.setattr(variants, "dynamic_modes", counting)
    data = periodic_data(n=3, t=48, seed=16)
    for method, tau in (("dmd", None), ("hankel", 6), ("fb-hankel", 6),
                        ("tls-hankel", 6), ("circ", 6), ("circ-sp", 6)):
        flavors.clear()
        fit(data, VariantConfig(method=method, tau=tau))
        assert flavors == ["projected" if method == "circ-sp" else "exact"]
    flavors.clear()
    fit_gamma_path(data, VariantConfig(method="circ-sp", tau=6), [0.0, 1.0])
    assert flavors == ["projected"]


# ----------------------------------------------------------------------
# structured circular path
# ----------------------------------------------------------------------

@pytest.mark.parametrize("method,tau", [("circ", 1), ("circ", 6), ("circ-sp", 6), ("circ", 48)])
def test_circular_predict_matches_dense_collapse(method, tau):
    from circdmd import collapse_snapshot_reconstruction, reconstruct

    data = periodic_data(n=3, t=48, seed=17)
    spec = fit(data, VariantConfig(method=method, tau=tau, gamma=1.0 if method == "circ-sp" else 0.0))
    for horizon in (0, 5, 60):
        dense = collapse_snapshot_reconstruction(reconstruct(spec, 48 + horizon), 3, tau)
        got = predict(spec, (3, 48), horizon)
        assert np.max(np.abs(got - dense)) <= 1e-10 * np.max(np.abs(dense))


def test_circular_fit_matches_dense_stack_regression():
    # the structured fit against the same regression on the dense stacks
    from circdmd import anti_circulant, apply_right_permutation, snapshot_svd
    from circdmd.spectral import eigendecompose, projected_dynamics

    data = periodic_data(n=4, t=30, seed=18)
    spec = fit(data, VariantConfig(method="circ", tau=5, rank=4))
    c = anti_circulant(data, 5).values
    cp = apply_right_permutation(anti_circulant(data, 5)).values
    svd = snapshot_svd(cp, rank=4)
    eigs, _ = eigendecompose(projected_dynamics(c, svd))
    assert eig_match_distance(spec.eigenvalues, eigs) <= 1e-10


def test_circular_fit_and_predict_never_form_the_stack(monkeypatch):
    import sys

    from circdmd import embedding, spectral

    def dense(*args, **kwargs):
        raise AssertionError("dense stack formed on the circular path")

    originals = [getattr(embedding, name) for name in (
        "anti_circulant", "apply_right_permutation", "collapse_snapshot_reconstruction")]
    originals.append(spectral.reconstruct)
    # replace every binding, wherever a circdmd module imported one
    for name, module in list(sys.modules.items()):
        if name == "circdmd" or name.startswith("circdmd."):
            for attr, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, attr, dense)
    data = periodic_data(n=3, t=48, seed=19)
    for method in ("circ", "circ-sp"):
        spec = fit(data, VariantConfig(method=method, tau=6))
        assert predict(spec, (3, 48), 12).shape == (3, 60)
    fit_gamma_path(data, VariantConfig(method="circ-sp", tau=6), [0.0, 1.0])
