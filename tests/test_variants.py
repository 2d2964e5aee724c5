from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from circdmd import (
    ConfigError,
    RangeError,
    RankDeficiencyError,
    SingularBackwardError,
    SpeedMatrix,
    VariantConfig,
    fit,
    fit_forward_backward,
    fit_gamma_path,
    fit_total_least_squares,
    generate,
    generate_linear_system,
    predict,
    rotation_system,
)
from circdmd.variants import forward_backward_combine
from test_embedding import _upper


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
    with pytest.warns(UserWarning) as caught:
        cfg = VariantConfig(method="dmd", tau=7)
    assert cfg.tau == 1
    # the warning names the line that built the config, not dataclasses' __init__
    assert [w.filename for w in caught] == [__file__]


@pytest.mark.parametrize("field, value", [("admm_max_iter", 0), ("admm_max_iter", -5),
                                          ("admm_max_iter", 2.5), ("admm_max_iter", True)])
def test_config_refuses_an_admm_setting_that_cannot_iterate(field, value):
    # a cap below 1 ran no iteration and kept all-zero amplitudes
    with pytest.raises(RangeError, match=field):
        VariantConfig(method="circ-sp", tau=3, gamma=10.0, **{field: value})


@pytest.mark.parametrize("rank", [0, -3, "foo", 2.5, True])
def test_config_refuses_a_bad_rank_when_it_is_built(rank):
    # 0 failed after the eigensolve, "foo" as a bare ValueError, 2.5 fit at
    # rank 2 and True at rank 1
    with pytest.raises(ConfigError, match="rank must be"):
        VariantConfig(method="circ", tau=3, rank=rank)


def test_config_takes_numpy_integers():
    config = VariantConfig(method="circ", tau=np.int64(3), rank=np.int64(2))
    assert config.rank == 2 and config.tau == 3
    assert type(config.tau) is int  # the manifest's JSON takes it


@pytest.mark.parametrize("tau", [0, -3, 2.5, np.float64(3.0), True])
def test_config_refuses_a_tau_that_is_not_a_positive_integer(tau):
    # 2.5 and 3.0 failed in the delay stack with a bare IndexError, and True fit
    # with meta.tau = True
    with pytest.raises(RangeError, match="tau must be an integer >= 1"):
        VariantConfig(method="circ", tau=tau)


def test_config_refuses_a_nan_gamma():
    # it fit circ with gamma = nan, and wrote NaN into the manifest
    for method in ("circ", "circ-sp"):
        with pytest.raises(RangeError, match="gamma must be >= 0, got nan"):
            VariantConfig(method=method, tau=3, gamma=float("nan"))


@pytest.mark.parametrize("gammas", [pytest.param([100.0, 10.0], id="unsorted"),
                                    pytest.param([-1.0], id="negative")])
def test_gamma_path_refuses_a_bad_grid_before_any_gram(gammas, monkeypatch):
    from circdmd import spectral

    calls = []
    real = spectral._top_singular

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "_top_singular", counting)
    data = periodic_data(n=3, t=48, seed=2)
    with pytest.raises(RangeError, match="gammas must be"):
        fit_gamma_path(data, VariantConfig(method="circ-sp", tau=8), gammas)
    assert calls == []
    fit_gamma_path(data, VariantConfig(method="circ-sp", tau=8), [0.0, 1.0])
    assert len(calls) == 1


@pytest.mark.parametrize("function, method", [(fit_forward_backward, "fb-hankel"),
                                              (fit_total_least_squares, "tls-hankel")])
def test_debiased_fits_refuse_another_methods_config(function, method):
    # fit_total_least_squares returned an unsparsified "circ-sp" spectrum
    data = periodic_data(n=3, t=48, seed=2)
    others = [m for m in ("dmd", "hankel", "fb-hankel", "tls-hankel", "circ", "circ-sp")
              if m != method]
    assert len(others) == 5
    for other in others:
        config = VariantConfig(method=other, tau=None if other == "dmd" else 4)
        with pytest.raises(ConfigError, match=f"{function.__name__} needs method {method}, "
                                              f"got {other!r}"):
            function(data, config)
    assert function(data, VariantConfig(method=method, tau=4)).meta.method == method


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


@pytest.mark.parametrize("a_backward", [
    pytest.param(np.zeros((2, 2)), id="zero"),  # condition 0 / 0
    pytest.param(np.diag([1.0, 0.0]), id="rank-one"),  # condition 1 / 0
    pytest.param(np.diag([1.0, 1e-17]), id="below-eps"),
])
def test_combine_refuses_a_singular_backward_propagator(a_backward):
    with pytest.raises(SingularBackwardError, match="numerically singular"):
        forward_backward_combine(np.eye(2), a_backward)


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
    # the one SVD both legs share must not change the combined propagator
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
        signs = np.where(np.arange(out.rank) % 2 == 0, -1.0, 1.0)
        return replace(out, _left=out.left * signs, right=out.right * signs)

    monkeypatch.setattr(variants, "snapshot_svd", flipped)
    again = fit(data, config)
    assert len(legs) == 1
    assert eig_match_distance(base.eigenvalues, again.eigenvalues) <= 1e-10
    assert np.max(np.abs(predict(again, (4, 60), 10) - predict(base, (4, 60), 10))) <= 1e-9


def test_fb_reduces_one_gram(monkeypatch):
    # both legs take the source's one SVD: the target has no Gram of its own
    from circdmd import spectral

    calls = []
    top = spectral._top_singular

    def counting(gram, *args):
        calls.append(gram.shape)
        return top(gram, *args)

    monkeypatch.setattr(spectral, "_top_singular", counting)
    fit(noisy_periodic(4, 60, seed=5), VariantConfig(method="fb-hankel", tau=6))
    assert calls == [(24, 24)]  # the 24 x 54 source's stack-side Gram


def test_fb_recovers_the_acceptance_week_spectrum():
    # mean, 24 h, 168 h and the faint 12 h and 6 h pairs, noiseless: both
    # propagators in one basis leave no rotation between them inside a
    # near-degenerate pair
    from test_acceptance import WEEK

    truth = [1.0]
    for component in WEEK.components:
        if np.isfinite(component.period):
            z = np.exp(2j * np.pi * WEEK.delta_t / component.period)
            truth += [z, np.conj(z)]
    spectrum = fit(generate(WEEK), VariantConfig(method="fb-hankel", tau=288))
    assert spectrum.meta.rank == 9
    assert eig_match_distance(spectrum.eigenvalues, truth) <= 1e-12


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


def test_tls_full_rank_projection_is_identity(monkeypatch):
    # projecting onto all of Z's nonzero right singular directions leaves
    # the snapshot matrices untouched (the stack has duplicate delayed
    # rows, so its rank is 3 N tau - ... in general: use the observed one)
    rng = np.random.default_rng(6)
    data = SpeedMatrix(values=rng.normal(size=(2, 30)), delta_t=1.0)
    full = fit(data, VariantConfig(method="hankel", tau=2, rank=4))
    # Z stacks [X1; X2] whose middle blocks coincide: rank 6, not 8
    tls, _ = _structured_tls(
        data, VariantConfig(method="tls-hankel", tau=2, rank=4), monkeypatch, tls_rank=6
    )
    assert eig_match_distance(tls.eigenvalues, full.eigenvalues) <= 1e-8


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
        tls = fit_total_least_squares(data, VariantConfig(method="tls-hankel", tau=1, rank=1))
        plain_err.append(abs(plain.eigenvalues[0] - 0.9))
        tls_err.append(abs(tls.eigenvalues[0] - 0.9))
    assert np.mean(tls_err) < np.mean(plain_err)


def _dense_tls(data, config, tls_rank=None):
    """The stacked-pair oracle: the SVD of the dense [S; T] at ``tls_rank``
    (None: its hard threshold), then the plain regression of (T V) V.T on
    (S V) V.T. Returns (spectrum, tls rank)."""
    from circdmd.embedding import hankel
    from circdmd.spectral import RANK_AUTO, projected_dynamics, snapshot_svd
    from circdmd.variants import _spectrum

    h = hankel(data, config.tau).values
    stacked = np.concatenate([h[:, :-1], h[:, 1:]])
    source, target = np.split(stacked, 2)
    v = snapshot_svd(stacked, RANK_AUTO if tls_rank is None else tls_rank).right
    source_bar = (source @ v) @ v.T
    target_bar = (target @ v) @ v.T
    svd = snapshot_svd(source_bar, config.rank)
    a_tilde = projected_dynamics(target_bar, svd)
    return _spectrum(data, config, svd, a_tilde, target_bar, source_bar[:, 0]), v.shape[1]


def _structured_tls(data, config, monkeypatch, tls_rank=None):
    """fit_total_least_squares, with the tls rank it kept. A fixed
    ``tls_rank`` replaces the hard threshold of [S; T], to reach the
    truncations and rank errors of the projection that the threshold
    does not pick on these inputs. Returns (spectrum, tls rank)."""
    from circdmd import variants

    kept = []
    top = variants._top_singular

    def recording(gram, rank, *args):
        sing, vectors = top(gram, rank if tls_rank is None else tls_rank, *args)
        kept.append(len(sing))
        return sing, vectors

    monkeypatch.setattr(variants, "_top_singular", recording)
    try:
        spectrum = fit_total_least_squares(data, config)
    finally:
        monkeypatch.undo()
    [k] = kept
    return spectrum, k


def noisy_periodic(n, t, seed):
    data = periodic_data(n=n, t=t, periods=(12.0, 8.0, 5.0), seed=seed)
    noise = 0.05 * np.random.default_rng(seed + 100).normal(size=(n, t))
    return SpeedMatrix(values=data.values + noise, delta_t=1.0)


@pytest.mark.parametrize("tau", [pytest.param(20, id="time-side"),
                                 pytest.param(5, id="stack-side")])
def test_circ_sp_amplitudes_come_from_the_sparsity_stage(tau):
    # the base fit leaves the projected modes' amplitudes to the sparsity
    # stage, whose polished amplitudes are the spectrum's
    from circdmd.variants import _regress, _snapshot_pair

    data = noisy_periodic(3, 60, seed=tau)
    config = VariantConfig(method="circ-sp", tau=tau, gamma=1.0)
    assert _regress(data, config, *_snapshot_pair(data, config)).amplitudes is None
    spectrum = fit(data, config)
    assert spectrum.amplitudes is spectrum.sparsity.amplitudes_polished


def test_circ_sp_fit_forms_one_stack_product(monkeypatch):
    # U = S V / sigma is the one product with the N tau-row stack: the
    # propagator comes from V's shift and the amplitudes from the sparsity stage
    from circdmd.embedding import DelayStack

    calls = []
    real = DelayStack.__matmul__

    def counting(stack, y):
        calls.append(np.shape(y))
        return real(stack, y)

    monkeypatch.setattr(DelayStack, "__matmul__", counting)
    data = noisy_periodic(4, 60, seed=3)
    spectrum = fit(data, VariantConfig(method="circ-sp", tau=20, gamma=1.0))  # 80 x 60
    assert calls == [(60, spectrum.meta.rank)]


def test_circ_fit_forms_one_stack_product(monkeypatch):
    # circ reads V and sigma alone, for the propagator and the exact modes:
    # the target stack's product for those modes is its one product, and
    # U = S V / sigma is never formed
    from circdmd.embedding import DelayStack

    calls = []
    real = DelayStack.__matmul__

    def counting(stack, y):
        calls.append(int(stack.starts[0]))
        return real(stack, y)

    monkeypatch.setattr(DelayStack, "__matmul__", counting)
    data = noisy_periodic(4, 60, seed=3)
    spectrum = fit(data, VariantConfig(method="circ", tau=20))  # 80 x 60
    assert calls == [1]  # the target, offset 1
    assert spectrum._source_svd._left is None


def test_circ_fit_with_tau_t_is_a_thresholded_dft(monkeypatch):
    # with tau = T the circular stack's time-side Gram is circulant: its
    # eigenvectors are Fourier vectors and its eigenvalues the summed
    # periodogram P[k] = sum_n |x_n^(k)|^2, so the fit keeps the bins of
    # the largest P, its eigenvalues lie on those bins, exp(2 pi i k / T),
    # and predict is their inverse DFT (Chen, Tu & Rowley 2012). A lowered
    # _SINGLE_MIN runs the float32 start, the Gram's row panels, their
    # rounding and the refinement on the panels. Horizons that are not a
    # multiple of T are left out: predict wraps a circular stack's last
    # tau - 1 columns modulo the output width, not T (ROADMAP item 10)
    from circdmd import optimal_rank, spectral

    n, t = 4, 240
    rng = np.random.default_rng(7)
    x = np.full((n, t), 55.0)
    for k, amplitude in ((10, 8.0), (20, 3.0), (30, 1.5)):
        phases = rng.uniform(0.0, 2 * np.pi, size=(n, 1))
        x += amplitude * np.cos(2 * np.pi * k * np.arange(t) / t + phases)
    x += rng.normal(size=(n, t))
    refined = []
    refine = spectral._refine

    def recording(*args):
        found = refine(*args)
        refined.append(found is not None)
        return found

    monkeypatch.setattr(spectral, "_refine", recording)
    monkeypatch.setattr(spectral, "_SINGLE_MIN", 64)
    spectrum = fit(SpeedMatrix(values=x, delta_t=1.0), VariantConfig(method="circ", tau=t))
    assert refined == [True]
    bins = np.fft.fft(x, axis=1)
    power = np.sum(np.abs(bins) ** 2, axis=0)
    order = np.argsort(power)[::-1]
    r = spectrum.meta.rank
    assert r == optimal_rank(np.sqrt(power[order]), n * t, t)
    kept = order[:r]
    sigma = spectrum._source_svd.singular
    assert np.max(np.abs(sigma**2 - power[kept]) / power[kept]) <= 1e-10
    assert eig_match_distance(spectrum.eigenvalues, np.exp(2j * np.pi * kept / t)) <= 1e-12
    filtered = np.fft.ifft(np.where(np.isin(np.arange(t), kept), bins, 0.0), axis=1).real
    for horizon in (0, t, 2 * t):
        got = predict(spectrum, (n, t), horizon)
        want = np.tile(filtered, 3)[:, : t + horizon]
        assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(x)), horizon


# N*(tau+1) against W = T - tau: the distinct rows or the time-side Gram
TLS_SHAPES = [
    pytest.param(3, 120, 8, id="rows-side"),      # 27 < 112
    pytest.param(10, 60, 20, id="time-side"),     # 210 > 40
    pytest.param(4, 29, 5, id="equal-sides"),     # 24 = 24
    pytest.param(6, 80, 1, id="tau1-rows-side"),  # 12 < 79
    pytest.param(30, 40, 1, id="tau1-time-side"), # 60 > 39
]


@pytest.mark.parametrize("n,t,tau", TLS_SHAPES)
@pytest.mark.parametrize("tls_rank,rank", [(None, "auto"), (None, 2), (4, "auto"), (4, 2)])
def test_tls_matches_dense_stacked_pair(n, t, tau, tls_rank, rank, monkeypatch):
    data = noisy_periodic(n, t, seed=n + t + tau)
    config = VariantConfig(method="tls-hankel", tau=tau, rank=rank)
    got, k = _structured_tls(data, config, monkeypatch, tls_rank)
    want, k_dense = _dense_tls(data, config, tls_rank)
    assert k == k_dense
    assert got.meta == want.meta
    assert eig_match_distance(got.eigenvalues, want.eigenvalues) <= 1e-9
    for horizon in (0, 30):
        a, b = predict(got, (n, t), horizon), predict(want, (n, t), horizon)
        assert np.max(np.abs(a - b)) <= 1e-9 * np.max(np.abs(b))


def _outcome(run):
    try:
        run()
    except (RangeError, RankDeficiencyError) as exc:
        return exc
    return None


@pytest.mark.parametrize("n,t,tau,cases", [
    # rows side: W = 36, 2 N tau = 24, N (tau+1) = 15, N tau = 12
    pytest.param(3, 40, 4, [(0, "auto"), (15, "auto"), (16, "auto"), (24, "auto"), (25, "auto"),
                            (37, "auto"), (10, 10), (10, 11), (10, 12), (10, 13)],
                 id="rows-side"),
    # time side: W = 16, 2 N tau = 48, N (tau+1) = 30, N tau = 24
    pytest.param(6, 20, 4, [(0, "auto"), (16, "auto"), (17, "auto"), (10, 10),
                            (10, 11), (10, 16), (10, 17)], id="time-side"),
])
def test_tls_rank_errors_match_dense_stacked_pair(n, t, tau, cases, monkeypatch):
    data = SpeedMatrix(values=np.random.default_rng(t).normal(size=(n, t)), delta_t=1.0)
    kinds = set()
    for tls_rank, rank in cases:
        config = VariantConfig(method="tls-hankel", tau=tau, rank=rank)
        got = _outcome(lambda: _structured_tls(data, config, monkeypatch, tls_rank))
        want = _outcome(lambda: _dense_tls(data, config, tls_rank))
        assert type(got) is type(want), (tls_rank, rank, got, want)
        if isinstance(want, RangeError):
            assert str(got) == str(want)
        kinds.add(type(want))
    assert kinds == {type(None), RangeError, RankDeficiencyError}


def test_tls_rank_past_the_distinct_rows_is_exactly_zero(monkeypatch):
    # [S; T] has 2 N tau = 24 rows but N (tau+1) = 15 distinct ones: its
    # 16th singular value is zero, not round-off, and the error says so
    data = SpeedMatrix(values=np.random.default_rng(40).normal(size=(3, 40)), delta_t=1.0)
    config = VariantConfig(method="tls-hankel", tau=4)
    with pytest.raises(RankDeficiencyError, match=(
        r"^rank 16 requested but only 15 nonzero singular values: sigma_16/sigma_1 = 0 "
        r"is below the Gram's squaring floor sqrt\(eps \* 36\) = 8\.94e-08$"
    )):
        _structured_tls(data, config, monkeypatch, tls_rank=16)


@pytest.mark.parametrize("n,t,tau", [(3, 120, 8), (2, 40, 1), (3, 24, 5)])  # 18 = W - 1
def test_tls_row_gram_matches_the_weighted_distinct_rows(n, t, tau, monkeypatch):
    # the Gram of the rows sqrt(m_i) B_i, m = 1, 2, ..., 2, 1, from lagged
    # products, against the same rows as strided windows of X
    from numpy.lib.stride_tricks import sliding_window_view

    from circdmd import variants

    grams = []
    top = variants._top_singular

    def recording(gram, *args):
        assert [len(panel) for panel in gram.panels] == [n] * (tau + 1)
        grams.append(_upper(gram))  # the eigensolve releases its pages
        return top(gram, *args)

    monkeypatch.setattr(variants, "_top_singular", recording)
    data = noisy_periodic(n, t, seed=t)
    fit_total_least_squares(data, VariantConfig(method="tls-hankel", tau=tau))
    w = t - tau
    copies = np.full(tau + 1, 2.0)
    copies[[0, -1]] = 1.0
    windows = sliding_window_view(data.values, w, axis=1).transpose(1, 0, 2)
    rows = (windows * np.sqrt(copies)[:, None, None]).reshape(-1, w)
    want = rows @ rows.T
    # only the upper triangle is held, in one panel per block row
    want = np.triu(want)
    assert np.max(np.abs(grams[0] - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n,t,tau", [(4, 600, 24), (10, 1500, 30), (6, 200, 60)])
def test_tls_peak_allocation_stays_below_the_stacked_pair(n, t, tau):
    import tracemalloc

    data = noisy_periodic(n, t, seed=n)
    config = VariantConfig(method="tls-hankel", tau=tau)
    fit_total_least_squares(data, config)  # first-call set-up out of the count
    pair_bytes = 2 * n * tau * (t - tau) * 8
    tracemalloc.start()
    try:
        fit_total_least_squares(data, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pair_bytes, (peak, pair_bytes)


def test_time_side_circ_sp_fit_peaks_near_one_gram():
    # N * tau = 800 > T = 600: the fit's Gram is T x T. It is built over
    # X.T X in its own mapping, which tracemalloc does not see, with a
    # copy of X.T X's first tau - 1 columns (a sixth of the Gram here); it
    # is eigensolved in place, and the sparsity constant is read off the
    # r x T factor. So a stray T x T array fails the bound
    import tracemalloc

    n, t, tau = 8, 600, 100
    data = noisy_periodic(n, t, seed=n)
    config = VariantConfig(method="circ-sp", tau=tau, gamma=10.0)
    fit(data, config)  # first-call set-up out of the count
    tracemalloc.start()
    try:
        spectrum = fit(data, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    r = spectrum.meta.rank
    gram_bytes = t * t * 8
    outputs = t * r * 8 + spectrum.modes.nbytes  # right factor and modes
    assert peak < 0.25 * gram_bytes + outputs, (peak, gram_bytes, outputs)


def test_time_side_tls_fit_peaks_near_one_gram():
    # N * (tau + 1) = 1240 >= W = 1170: V comes from the time-side Gram
    # S.T S + T.T T, one window sum over the tau + 1 blocks with the end
    # blocks' Grams taken off in place, in a mapping tracemalloc does not
    # see, so a stray W x W array fails the bound
    import tracemalloc

    from circdmd import variants

    n, t, tau = 40, 1200, 30
    w = t - tau
    data = noisy_periodic(n, t, seed=n)
    config = VariantConfig(method="tls-hankel", tau=tau)
    kept = []
    top = variants._top_singular

    def recording(*args):
        sing, vectors = top(*args)
        kept.append(vectors.nbytes)
        return sing, vectors

    variants._top_singular = recording
    try:
        fit(data, config)  # first-call set-up out of the count
        tracemalloc.start()
        try:
            spectrum = fit(data, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        variants._top_singular = top
    gram_bytes = w * w * 8
    outputs = kept[-1] + spectrum.modes.nbytes  # W x k right factor and modes
    assert peak < 0.5 * gram_bytes + outputs, (peak, gram_bytes, outputs)


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
        assert spectrum.modes_projected is spectrum.modes
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

# Hand-built spectra: growing modes, powers that turn subnormal (and so
# are flushed to 0) after one step, and an eigenvalue at exactly 0.
HAND_BUILT_EIGENVALUES = [
    [1.08 * np.exp(0.3j), 1.08 * np.exp(-0.3j), 1.02, 0.9 * np.exp(0.7j)],
    [1e-155 * np.exp(0.4j), 3e-160, 0.95 * np.exp(1.1j)],
    [0.0, 0.97 * np.exp(0.5j), 0.97 * np.exp(-0.5j), 1e-3],
]
PREDICT_HORIZONS = (0, 1, 5, 60)


def _hand_built(spec, seed=31):
    """Spectra shaped like ``spec``, with random modes and amplitudes and
    the eigenvalues above."""
    from circdmd.spectral import DynamicSpectrum

    rng = np.random.default_rng(seed)
    rows = spec.modes.shape[0]
    for eigenvalues in HAND_BUILT_EIGENVALUES:
        r = len(eigenvalues)
        yield DynamicSpectrum(
            eigenvalues=np.array(eigenvalues, dtype=complex),
            modes=rng.normal(size=(rows, r)) + 1j * rng.normal(size=(rows, r)),
            amplitudes=rng.normal(size=r) + 1j * rng.normal(size=r),
            meta=replace(spec.meta, rank=r),
        )


@pytest.mark.parametrize("method,tau", [("circ", 1), ("circ", 6), ("circ-sp", 6), ("circ", 48)])
def test_circular_predict_matches_dense_collapse(method, tau):
    # tau = 48 = T: out < 2 tau - 2 for every horizon but the longest
    from circdmd.spectral import reconstruct
    from circdmd.embedding import collapse_snapshot_reconstruction

    data = periodic_data(n=3, t=48, seed=17)
    fitted = fit(data, VariantConfig(method=method, tau=tau, gamma=1.0 if method == "circ-sp" else 0.0))
    for spec in [fitted, *_hand_built(fitted)]:
        for horizon in PREDICT_HORIZONS:
            dense = collapse_snapshot_reconstruction(reconstruct(spec, 48 + horizon), 3, tau)
            got = predict(spec, (3, 48), horizon)
            assert np.max(np.abs(got - dense)) <= 1e-10 * np.max(np.abs(dense))


def _predict_peak(method, n, tau, r, t, horizon):
    """(tracemalloc peak of ``predict``, spectrum) for a random spectrum
    of rank r whose modes have n * tau rows."""
    import tracemalloc

    from circdmd.spectral import DynamicSpectrum, SpectrumMeta

    rng = np.random.default_rng(41)
    rates = rng.uniform(-0.01, 0.001, r) + 1j * rng.uniform(-np.pi, np.pi, r)
    spec = DynamicSpectrum(
        eigenvalues=np.exp(rates),
        modes=rng.normal(size=(n * tau, r)) + 1j * rng.normal(size=(n * tau, r)),
        amplitudes=rng.normal(size=r) + 1j * rng.normal(size=r),
        meta=SpectrumMeta(method=method, tau=tau, rank=r, gamma=0.0, n_sensors=n, n_time=t,
                          delta_t=1.0),
    )
    predict(spec, (n, t), horizon)  # first-call set-up out of the count
    tracemalloc.start()
    try:
        predict(spec, (n, t), horizon)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, spec


@pytest.mark.parametrize("method", ["hankel", "circ"])
def test_predict_never_holds_the_vandermonde_matrix(method):
    # the powers stream in column blocks of about 1 MB, so the collapse
    # peaks below one r x (T + H) complex array (9.6 MB here)
    r, t, horizon = 200, 2000, 1000
    peak, _ = _predict_peak(method, 10, 24, r, t, horizon)
    psi_bytes = r * (t + horizon) * 16
    assert peak < psi_bytes, (peak, psi_bytes)


@pytest.mark.parametrize("method", ["hankel", "circ"])
def test_predict_never_weights_a_copy_of_the_modes(method):
    # the amplitudes weight r-vectors, never the N tau x r modes (23 MB at
    # the traffic shape), so the collapse peaks near its N x (T + H) output:
    # 10 MB where the weighted copy took it to 33 MB
    n, t, horizon = 157, 4032, 2016
    peak, spec = _predict_peak(method, n, 96, 100, t, horizon)
    out_bytes = n * (t + horizon) * 8
    assert peak < out_bytes + spec.modes.nbytes / 4, (peak, out_bytes, spec.modes.nbytes)


@pytest.mark.parametrize("method", ["hankel", "circ"])
def test_predict_in_column_blocks_matches_dense_collapse(monkeypatch, method):
    # the smallest blocks (64 columns) split every power stream and
    # steady product here into several, the last one wider
    from circdmd.spectral import reconstruct
    from circdmd.embedding import collapse_snapshot_reconstruction, inverse_hankel
    from circdmd import spectral

    data = periodic_data(n=3, t=300, seed=26)
    fitted = fit(data, VariantConfig(method=method, tau=6))
    spectra = [fitted, *_hand_built(fitted)]
    whole = [spectral.vandermonde(spec.eigenvalues, 365) for spec in spectra]
    monkeypatch.setattr(spectral, "_BLOCK_CELLS", 1)
    assert len(spectral._column_blocks(4, 300)) == 4
    for spec, psi in zip(spectra, whole):
        assert np.array_equal(spectral.vandermonde(spec.eigenvalues, 365), psi)
        for horizon in (0, 5, 65):
            if method == "circ":
                dense = collapse_snapshot_reconstruction(reconstruct(spec, 300 + horizon), 3, 6)
            else:
                dense = inverse_hankel(reconstruct(spec, 300 - 6 + 1 + horizon), 3, 6)
            got = predict(spec, (3, 300), horizon)
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


def _forbid_dense_stacks(monkeypatch):
    """Replace every binding of the dense stacking functions, and any
    ``DelayStack.dense``, with one that raises."""
    import sys

    from circdmd import embedding, spectral

    def dense(*args, **kwargs):
        raise AssertionError("dense stack formed on a structured path")

    monkeypatch.setattr(embedding.DelayStack, "dense", dense, raising=False)
    originals = [getattr(embedding, name) for name in (
        "anti_circulant", "apply_right_permutation", "collapse_snapshot_reconstruction",
        "inverse_anti_circulant", "hankel", "inverse_hankel")]
    originals.append(spectral.reconstruct)
    # replace every binding, wherever a circdmd module imported one
    for name, module in list(sys.modules.items()):
        if name == "circdmd" or name.startswith("circdmd."):
            for attr, value in list(vars(module).items()):
                if any(value is original for original in originals):
                    monkeypatch.setattr(module, attr, dense)
    return dense


def test_circular_fit_and_predict_never_form_the_stack(monkeypatch):
    _forbid_dense_stacks(monkeypatch)
    data = periodic_data(n=3, t=48, seed=19)
    for method in ("circ", "circ-sp"):
        spec = fit(data, VariantConfig(method=method, tau=6))
        assert predict(spec, (3, 48), 12).shape == (3, 60)
    fit_gamma_path(data, VariantConfig(method="circ-sp", tau=6), [0.0, 1.0])


@pytest.mark.parametrize("method,tau", [("dmd", None), ("hankel", 5), ("fb-hankel", 5)])
def test_hankel_fit_and_predict_never_form_the_stack(monkeypatch, method, tau):
    # N*tau >= T - tau puts the Gram on the time side
    _forbid_dense_stacks(monkeypatch)
    data = periodic_data(n=12, t=12, periods=(6.0, 4.0), seed=22)
    spec = fit(data, VariantConfig(method=method, tau=tau))
    assert predict(spec, (12, 12), 7).shape == (12, 19)


@pytest.mark.parametrize("method", ["dmd", "hankel", "fb-hankel", "tls-hankel", "circ", "circ-sp"])
def test_stack_side_fit_and_predict_never_form_the_stack(monkeypatch, method):
    # N*tau < W puts the Gram on the stack side: S S.T from lagged
    # N x N products of X, for every method
    from circdmd import embedding, variants

    _forbid_dense_stacks(monkeypatch)
    calls = []
    kernel = embedding._block_gram

    def recording(*args):
        calls.append(args[2])
        return kernel(*args)

    monkeypatch.setattr(embedding, "_block_gram", recording)
    monkeypatch.setattr(variants, "_block_gram", recording)
    data = periodic_data(n=3, t=200, seed=25)
    tau = None if method == "dmd" else 8
    gamma = 1.0 if method == "circ-sp" else 0.0
    spec = fit(data, VariantConfig(method=method, tau=tau, gamma=gamma))
    assert calls and all(3 * spec.meta.tau < width for width in calls)
    assert predict(spec, (3, 200), 12).shape == (3, 212)


@pytest.mark.parametrize("method,tau", [("dmd", None), ("hankel", 1), ("hankel", 6),
                                        ("fb-hankel", 6), ("tls-hankel", 6), ("hankel", 47),
                                        ("hankel", 30)])
def test_hankel_predict_matches_dense_collapse(method, tau):
    # tau = 47 = T - 1 and tau = 30: out < 2 tau - 2, no column is steady,
    # unless the horizon is the longest
    from circdmd.spectral import reconstruct
    from circdmd.embedding import inverse_hankel

    data = periodic_data(n=3, t=48, seed=23)
    fitted = fit(data, VariantConfig(method=method, tau=tau))
    tau = fitted.meta.tau
    for spec in [fitted, *_hand_built(fitted)]:
        for horizon in PREDICT_HORIZONS:
            dense = inverse_hankel(reconstruct(spec, 48 - tau + 1 + horizon), 3, tau)
            got = predict(spec, (3, 48), horizon)
            assert np.max(np.abs(got - dense)) <= 1e-10 * np.max(np.abs(dense))


@pytest.mark.parametrize("n,tau", [(4, 5), (2, 20)])  # Gram on the stack side, then the time side
def test_hankel_fit_matches_dense_stack_regression(n, tau):
    from circdmd import snapshot_svd
    from circdmd.embedding import hankel
    from circdmd.spectral import eigendecompose, projected_dynamics

    data = periodic_data(n=n, t=30, seed=24)
    spec = fit(data, VariantConfig(method="hankel", tau=tau, rank=4))
    h = hankel(data, tau).values
    svd = snapshot_svd(h[:, :-1], rank=4)
    eigs, _ = eigendecompose(projected_dynamics(h[:, 1:], svd))
    assert eig_match_distance(spec.eigenvalues, eigs) <= 1e-10
