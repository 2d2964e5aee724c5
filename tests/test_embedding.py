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
)
from circdmd.embedding import CircularStack


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
# structured circular stack against the dense stacks
# ----------------------------------------------------------------------

# (n, t, tau): tau = 1, tau = T, N*tau < T (Gram on the stack side) and
# N*tau > T (Gram on the time side)
STACK_CASES = [(3, 10, 1), (2, 7, 7), (2, 20, 3), (4, 9, 5), (1, 16, 16), (5, 6, 3)]


def _relative(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


def _dense_pair(n, t, tau, seed):
    m = _matrix(n, t, seed=seed)
    c = anti_circulant(m, tau)
    return m.values, {0: apply_right_permutation(c).values, 1: c.values}


@pytest.mark.parametrize("n,t,tau", STACK_CASES)
@pytest.mark.parametrize("offset", [0, 1])
def test_circular_stack_matches_dense_stack(n, t, tau, offset):
    x, dense = _dense_pair(n, t, tau, seed=n + t + tau)
    dense = dense[offset]
    stack = CircularStack(x, tau, offset)
    rng = np.random.default_rng(tau)
    y = rng.normal(size=(t, 3))
    z = rng.normal(size=(2, n * tau))
    assert stack.shape == dense.shape
    assert _relative(stack @ y, dense @ y) <= 1e-10
    assert _relative(stack @ y[:, 0], dense @ y[:, 0]) <= 1e-10
    assert _relative(z @ stack, z @ dense) <= 1e-10
    assert _relative(z[0] @ stack, z[0] @ dense) <= 1e-10
    assert np.array_equal(stack.first_column(), dense[:, 0])


@pytest.mark.parametrize("n,t,tau", STACK_CASES)
@pytest.mark.parametrize("offset", [0, 1])
def test_circular_stack_gram_on_the_smaller_side(n, t, tau, offset):
    x, dense = _dense_pair(n, t, tau, seed=2 * n + t)
    dense = dense[offset]
    gram = CircularStack(x, tau, offset).gram()
    if t <= n * tau:
        assert _relative(gram, dense.T @ dense) <= 1e-10
    else:
        assert _relative(gram, dense @ dense.T) <= 1e-10


def test_circular_stack_offsets_are_the_regression_pair():
    # source is the snapshot-ordered stack, target the unpermuted one:
    # target column t is the successor of source column t
    x = _matrix(3, 8, seed=13).values
    source, target = CircularStack(x, 4, 0), CircularStack(x, 4, 1)
    eye = np.eye(8)
    assert np.array_equal((source @ eye)[:, 1:], (target @ eye)[:, :-1])
    assert np.array_equal(source.first_column(), x[:, :4].T.ravel())


def test_circular_stack_validates():
    with pytest.raises(RangeError):
        CircularStack(np.ones((2, 5)), 6)
    with pytest.raises(RangeError):
        CircularStack(np.ones((2, 5)), 0)
    with pytest.raises(ShapeError):
        CircularStack(np.ones(5), 1)
    with pytest.raises(DataError):
        CircularStack(np.array([[1.0, np.nan, 2.0]]), 2)
