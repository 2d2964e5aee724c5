import numpy as np
import pytest

from circdmd import (
    DataError,
    KindError,
    RangeError,
    ShapeError,
    SpeedMatrix,
    anti_circulant,
    apply_right_permutation,
    circshift,
    collapse_snapshot_reconstruction,
    hankel,
    inverse_anti_circulant,
    inverse_hankel,
    snapshot_svd,
)
from circdmd.embedding import DelayStack


def _matrix(n, t, seed=0):
    rng = np.random.default_rng(seed)
    return SpeedMatrix(values=rng.normal(size=(n, t)), delta_t=1.0)


def _column_shift_oracle(x, shift):
    """Independent column rotation: new column j holds old column (j - shift) mod T."""
    t = x.shape[1]
    out = np.empty_like(x)
    for j in range(t):
        out[:, (j + shift) % t] = x[:, j]
    return out


# ----------------------------------------------------------------------
# circshift
# ----------------------------------------------------------------------

def test_circshift_identity():
    x = np.arange(12.0).reshape(3, 4)
    assert np.array_equal(circshift(x, 0), x)


def test_circshift_minus_one_rotates_left():
    x = np.array([[1.0, 2.0, 3.0]])
    assert np.array_equal(circshift(x, -1), [[2.0, 3.0, 1.0]])


def test_circshift_full_rotation():
    x = np.arange(15.0).reshape(3, 5)
    assert np.array_equal(circshift(x, 5), x)
    assert np.array_equal(circshift(x, -5), x)


def test_circshift_matches_oracle():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 9))
    for shift in (-11, -3, -1, 0, 1, 4, 10):
        assert np.array_equal(circshift(x, shift), _column_shift_oracle(x, shift))


# ----------------------------------------------------------------------
# anti-circulant embedding
# ----------------------------------------------------------------------

def test_anti_circulant_single_block():
    m = _matrix(3, 5)
    emb = anti_circulant(m, 1)
    assert np.array_equal(emb.values, circshift(m.values, -1))


def test_anti_circulant_hand_oracle():
    m = SpeedMatrix(values=np.array([[1.0, 2.0, 3.0]]), delta_t=1.0)
    emb = anti_circulant(m, 2)
    assert np.array_equal(emb.values, [[2.0, 3.0, 1.0], [3.0, 1.0, 2.0]])


def test_anti_circulant_block_layout_4x5():
    # tau = 3 on a 4 x 5 matrix: 12 x 5, block i = columns rotated left by i
    m = _matrix(4, 5, seed=2)
    emb = anti_circulant(m, 3)
    assert emb.values.shape == (12, 5)
    for i in range(1, 4):
        expected = _column_shift_oracle(m.values, -i)
        assert np.array_equal(emb.block(i), expected)


def test_anti_circulant_tau_range():
    m = _matrix(2, 6)
    with pytest.raises(RangeError):
        anti_circulant(m, 0)
    with pytest.raises(RangeError):
        anti_circulant(m, 7)


# ----------------------------------------------------------------------
# right permutation
# ----------------------------------------------------------------------

def test_permutation_brings_last_column_first():
    m = _matrix(2, 6, seed=3)
    c = anti_circulant(m, 2)
    cp = apply_right_permutation(c)
    assert np.array_equal(cp.values[:, 0], c.values[:, -1])
    assert np.array_equal(cp.values[:, 1:], c.values[:, :-1])
    # block i of CP starts at x_i
    for i in range(1, 3):
        assert np.array_equal(cp.block(i)[:, 0], m.values[:, i - 1])


def test_permutation_t2_swap():
    m = SpeedMatrix(values=np.array([[1.0, 2.0], [3.0, 4.0]]), delta_t=1.0)
    c = anti_circulant(m, 1)
    cp = apply_right_permutation(c)
    assert np.array_equal(cp.values, m.values)  # swap of the once-rotated columns


def test_permutation_twice_rotates_right_by_two():
    m = _matrix(1, 3, seed=4)
    c = anti_circulant(m, 1)
    twice = apply_right_permutation(apply_right_permutation(c))
    assert np.array_equal(twice.values, np.roll(c.values, 2, axis=1))


def test_permutation_requires_anti_circulant():
    m = _matrix(2, 5)
    with pytest.raises(KindError):
        apply_right_permutation(hankel(m, 2))


# ----------------------------------------------------------------------
# hankel embedding
# ----------------------------------------------------------------------

def test_hankel_tau_one_is_identity():
    m = _matrix(3, 6)
    assert np.array_equal(hankel(m, 1).values, m.values)


def test_hankel_hand_oracle():
    m = SpeedMatrix(values=np.array([[1.0, 2.0, 3.0, 4.0]]), delta_t=1.0)
    emb = hankel(m, 2)
    assert np.array_equal(emb.values, [[1.0, 2.0, 3.0], [2.0, 3.0, 4.0]])


def test_hankel_tau_equals_t():
    m = _matrix(2, 4)
    emb = hankel(m, 4)
    assert emb.values.shape == (8, 1)
    assert np.array_equal(emb.values[:, 0], m.values.T.ravel())


def test_hankel_overlaps_permuted_anti_circulant():
    m = _matrix(3, 9, seed=5)
    tau = 4
    h = hankel(m, tau)
    cp = apply_right_permutation(anti_circulant(m, tau))
    assert np.array_equal(cp.values[:, : 9 - tau + 1], h.values)


# ----------------------------------------------------------------------
# inverse operators
# ----------------------------------------------------------------------

def test_inverse_anti_circulant_exact_round_trip():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        t = int(rng.integers(2, 30))
        tau = int(rng.integers(1, t + 1))
        m = SpeedMatrix(values=rng.normal(size=(n, t)), delta_t=1.0)
        emb = anti_circulant(m, tau)
        back = inverse_anti_circulant(emb.values, n, tau)
        assert np.max(np.abs(back - m.values)) <= 1e-12


def test_inverse_anti_circulant_tau_one_undoes_shift():
    m = _matrix(2, 5, seed=6)
    emb = anti_circulant(m, 1)
    assert np.array_equal(inverse_anti_circulant(emb.values, 2, 1), m.values)


def test_inverse_anti_circulant_perturbation_linearity():
    # eps added to one block shows up as eps/tau at the back-shifted positions
    m = _matrix(2, 6, seed=7)
    tau = 3
    emb = anti_circulant(m, tau).values.copy()
    eps = 0.6
    block = 2
    perturbed = emb.copy()
    perturbed[(block - 1) * 2 : block * 2, :] += eps
    diff = inverse_anti_circulant(perturbed, 2, tau) - inverse_anti_circulant(emb, 2, tau)
    assert np.allclose(diff, eps / tau)


def test_inverse_anti_circulant_shape_mismatch():
    with pytest.raises(ShapeError):
        inverse_anti_circulant(np.ones((5, 4)), 2, 3)


def test_collapse_snapshot_layout_round_trip():
    # the permuted stack collapses with shifts i-1
    m = _matrix(3, 7, seed=8)
    cp = apply_right_permutation(anti_circulant(m, 4))
    back = collapse_snapshot_reconstruction(cp.values, 3, 4)
    assert np.max(np.abs(back - m.values)) <= 1e-12


def test_inverse_hankel_round_trip():
    m = _matrix(2, 8, seed=9)
    for tau in (1, 3, 8):
        emb = hankel(m, tau)
        back = inverse_hankel(emb.values, 2, tau)
        assert back.shape == m.values.shape
        assert np.max(np.abs(back - m.values)) <= 1e-12


# ----------------------------------------------------------------------
# DFT diagonalization
# ----------------------------------------------------------------------

def test_full_anti_circulant_diagonalized_by_dft():
    # N = 1, tau = T: conj-DFT on both sides recovers diag(ifft(x))
    rng = np.random.default_rng(10)
    t = 16
    x = rng.normal(size=(1, t))
    cp = apply_right_permutation(anti_circulant(SpeedMatrix(values=x, delta_t=1.0), t))
    grid = np.arange(t)
    f = np.exp(-2j * np.pi * np.outer(grid, grid) / t)
    f_inv = f.conj() / t
    theta = f_inv @ cp.values @ f_inv
    oracle = np.diag(np.fft.ifft(x[0]))
    assert np.max(np.abs(theta - oracle)) <= 1e-9


# ----------------------------------------------------------------------
# structured delay stack against the dense stacks
# ----------------------------------------------------------------------

# (n, t, tau): tau = 1, tau = T, N*tau < T (Gram on the stack side) and
# N*tau > T (Gram on the time side)
STACK_CASES = [(3, 10, 1), (2, 7, 7), (2, 20, 3), (4, 9, 5), (1, 16, 16), (5, 6, 3)]
# the same rule without wrap, where each block is T - tau columns wide:
# tau = 1 on either side, tau = T - 1, and both sides with tau > 1
HANKEL_CASES = [(3, 10, 1), (6, 5, 1), (2, 7, 6), (2, 20, 3), (4, 9, 5), (1, 16, 15)]

# existing circular cases keep their ids; Hankel cases add "-nowrap"
CASES = [
    pytest.param(*case, True, id="-".join(map(str, case))) for case in STACK_CASES
] + [
    pytest.param(*case, False, id="-".join(map(str, case)) + "-nowrap")
    for case in HANKEL_CASES
]


def _relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _dense_stack(stack):
    """The (N*tau) x width stack as an array: block i is the width
    columns of x from starts[i] on, read modulo T."""
    return np.concatenate([
        stack.x.take(range(start, start + stack.width), axis=1, mode="wrap")
        for start in stack.starts
    ])


def _dense_pair(n, t, tau, seed, wrap):
    """Oracle source (offset 0) and target (offset 1) from the dense embeddings."""
    m = _matrix(n, t, seed=seed)
    if not wrap:
        h = hankel(m, tau).values
        return m.values, {0: h[:, :-1], 1: h[:, 1:]}
    c = anti_circulant(m, tau)
    return m.values, {0: apply_right_permutation(c).values, 1: c.values}


@pytest.mark.parametrize("n,t,tau,wrap", CASES)
@pytest.mark.parametrize("offset", [0, 1])
def test_circular_stack_matches_dense_stack(n, t, tau, wrap, offset):
    x, dense = _dense_pair(n, t, tau, seed=n + t + tau, wrap=wrap)
    dense = dense[offset]
    stack = DelayStack(x, tau, offset, wrap)
    width = dense.shape[1]
    rng = np.random.default_rng(tau)
    y = rng.normal(size=(width, 3))
    assert stack.shape == dense.shape
    assert _relative(stack @ y, dense @ y) <= 1e-10
    assert _relative(stack @ y[:, 0], dense @ y[:, 0]) <= 1e-10
    assert np.array_equal(stack.first_column(), dense[:, 0])
    assert np.array_equal(_dense_stack(stack), dense)


@pytest.mark.parametrize("n,t,tau,wrap", CASES)
@pytest.mark.parametrize("offset", [0, 1])
def test_circular_stack_gram_on_the_smaller_side(n, t, tau, wrap, offset):
    # gram() is the time-side Gram; where the stack side is smaller,
    # snapshot_svd takes stack_gram() instead, so its factors are checked
    x, dense = _dense_pair(n, t, tau, seed=2 * n + t, wrap=wrap)
    dense = dense[offset]
    stack = DelayStack(x, tau, offset, wrap)
    assert _relative(stack.gram(), dense.T @ dense) <= 1e-10
    rows, cols = dense.shape
    if cols > rows:
        svd = snapshot_svd(stack, rank=rows)
        assert _relative((svd.left * svd.singular**2) @ svd.left.T, dense @ dense.T) <= 1e-10
        assert _relative((svd.left * svd.singular) @ svd.right.T, dense) <= 1e-10


# the stack cases, plus N*tau = W - 1 without and with wrap
STACK_SIDE_CASES = CASES + [
    pytest.param(3, 33, 8, False, id="3-33-8-nowrap-one-short"),  # 24 = 25 - 1
    pytest.param(3, 13, 4, True, id="3-13-4-one-short"),  # 12 = 13 - 1
]


@pytest.mark.parametrize("n,t,tau,wrap", STACK_SIDE_CASES)
@pytest.mark.parametrize("offset", [0, 1])
def test_stack_gram_and_left_product_match_dense_stack(n, t, tau, wrap, offset):
    # S S.T from lagged N x N products, and S.T U as (U.T S).T, on either side
    x, dense = _dense_pair(n, t, tau, seed=3 * n + t, wrap=wrap)
    dense = dense[offset]
    stack = DelayStack(x, tau, offset, wrap)
    u = np.random.default_rng(tau).normal(size=(dense.shape[0], 3))
    assert _relative(stack.stack_gram(), dense @ dense.T) <= 1e-12
    assert _relative((u.T @ stack).T, dense.T @ u) <= 1e-12


@pytest.mark.parametrize("wrap", [True, False])
def test_stack_side_snapshot_svd_peaks_below_one_dense_stack(monkeypatch, wrap):
    import tracemalloc

    def dense(*args, **kwargs):
        raise AssertionError("dense stack formed on the stack side")

    monkeypatch.setattr(DelayStack, "dense", dense, raising=False)
    stack = DelayStack(_matrix(4, 1200, seed=6).values, 12, 0, wrap)
    stack_bytes = stack.shape[0] * stack.shape[1] * 8
    snapshot_svd(stack, rank=2)  # first-call set-up out of the count
    tracemalloc.start()
    try:
        snapshot_svd(stack, rank=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stack_bytes, (peak, stack_bytes)


def test_circular_stack_offsets_are_the_regression_pair():
    # source is the snapshot-ordered stack, target the unpermuted one:
    # target column t is the successor of source column t, with or
    # without wrap
    x = _matrix(3, 8, seed=13).values
    for wrap in (True, False):
        source, target = DelayStack(x, 4, 0, wrap), DelayStack(x, 4, 1, wrap)
        eye = np.eye(source.shape[1])
        assert np.array_equal((source @ eye)[:, 1:], (target @ eye)[:, :-1])
        assert np.array_equal(source.first_column(), x[:, :4].T.ravel())


def test_circular_stack_validates():
    with pytest.raises(RangeError):
        DelayStack(np.ones((2, 5)), 6, 0, True)
    with pytest.raises(RangeError):
        DelayStack(np.ones((2, 5)), 0, 0, True)
    with pytest.raises(RangeError):
        DelayStack(np.ones((2, 5)), 5, 0, False)  # no column left for a successor
    with pytest.raises(RangeError):
        DelayStack(np.ones((2, 5)), 2, 2, False)
    with pytest.raises(ShapeError):
        DelayStack(np.ones(5), 1, 0, True)
    with pytest.raises(DataError):
        DelayStack(np.array([[1.0, np.nan, 2.0]]), 2, 0, True)
