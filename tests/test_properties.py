"""Property tests of the symmetric eigensolver and the snapshot SVD.

Each matrix is built from a known spectrum: orthogonal factors from a
QR of Gaussian noise and singular values spread geometrically from 1
down to ``kappa`` = sigma_min / sigma_max, as low as 1e-5. Tolerances
follow from the arithmetic. The reduction to tridiagonal form is
backward stable, so eigenvalues move by a small multiple of
eps * ||M||. Squaring into the Gram matrix moves sigma_i by about
eps * sigma_1**2 / sigma_i, and a subspace separated by a relative gap
g turns by about eps / g.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import subspace_angles

from circdmd import snapshot_svd
from circdmd.spectral import _SymmetricEigen

EPS = np.finfo(float).eps
FAST = settings(max_examples=40, deadline=None, database=None)

sizes = st.integers(min_value=1, max_value=30)
seeds = st.integers(min_value=0, max_value=2**32 - 1)
conditions = st.floats(min_value=-5.0, max_value=0.0)  # log10(kappa)


def _orthogonal(rng, n, k):
    q, _ = np.linalg.qr(rng.normal(size=(n, k)))
    return q


def _spectrum(rng, k, log_kappa, gap_at=None):
    """k decreasing values from 1 to 10**log_kappa, split by a factor-4 gap."""
    values = np.logspace(0.0, log_kappa, k) if k > 1 else np.ones(1)
    if gap_at is not None:
        values[gap_at:] /= 4.0
    return values


@FAST
@given(n=sizes, log_kappa=conditions, seed=seeds, negative=st.booleans())
def test_eigensolver_values_match_eigvalsh(n, log_kappa, seed, negative):
    rng = np.random.default_rng(seed)
    q = _orthogonal(rng, n, n)
    values = _spectrum(rng, n, log_kappa)
    if negative:
        values = values * rng.choice([-1.0, 1.0], size=n)
    matrix = (q * values) @ q.T
    want = np.linalg.eigvalsh(matrix)[::-1]
    got = _SymmetricEigen(matrix.copy()).values()
    assert np.max(np.abs(got - want)) <= 20 * n * EPS * np.max(np.abs(want))


@FAST
@given(n=sizes, data=st.data(), log_kappa=conditions, seed=seeds)
def test_eigensolver_top_vectors_span_eigh_top_r(n, data, log_kappa, seed):
    r = data.draw(st.integers(min_value=1, max_value=n), label="r")
    rng = np.random.default_rng(seed)
    q = _orthogonal(rng, n, n)
    values = _spectrum(rng, n, log_kappa, gap_at=r)
    matrix = (q * values) @ q.T
    vectors = _SymmetricEigen(matrix.copy()).top_vectors(r)
    assert vectors.shape == (n, r)
    assert np.max(np.abs(vectors.T @ vectors - np.eye(r))) <= 50 * n * EPS
    residual = matrix @ vectors - vectors * values[:r]
    assert np.max(np.abs(residual)) <= 50 * n * EPS
    if r < n:
        _, want = np.linalg.eigh(matrix)
        gap = (values[r - 1] - values[r]) / values[0]
        assert np.max(subspace_angles(vectors, want[:, -r:])) <= 50 * n * EPS / gap


@FAST
@given(
    rows=sizes, cols=sizes, data=st.data(), log_kappa=conditions, seed=seeds
)
def test_snapshot_svd_matches_numpy_svd(rows, cols, data, log_kappa, seed):
    k = min(rows, cols)
    r = data.draw(st.integers(min_value=1, max_value=k), label="r")
    rng = np.random.default_rng(seed)
    sigma = _spectrum(rng, k, log_kappa, gap_at=r)
    a = (_orthogonal(rng, rows, k) * sigma) @ _orthogonal(rng, cols, k).T
    svd = snapshot_svd(a, rank=r)
    want = np.linalg.svd(a, compute_uv=False)[:r]
    squaring = EPS * want[0] ** 2 / want
    assert np.all(np.abs(svd.singular - want) <= 100 * max(rows, cols) * squaring)
    floor = 100 * max(rows, cols) * EPS * (want[0] / want[-1]) ** 2
    assert np.max(np.abs(svd.right.T @ svd.right - np.eye(r))) <= floor
    assert np.max(np.abs(svd.left.T @ svd.left - np.eye(r))) <= floor
    if r < k:
        u, _, vt = np.linalg.svd(a)
        gap = (sigma[r - 1] ** 2 - sigma[r] ** 2) / sigma[0] ** 2
        bound = 100 * max(rows, cols) * EPS / gap
        assert np.max(subspace_angles(svd.right, vt[:r].T)) <= bound
        assert np.max(subspace_angles(svd.left, u[:, :r])) <= bound * (want[0] / want[-1])
