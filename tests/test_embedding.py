import os
import re

import numpy as np
import pytest
from scipy.linalg import blas

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
from circdmd import spectral
from circdmd._linalg import dot
from circdmd.embedding import DelayStack, _single_triangle, _window_gram


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


def _upper(g):
    """A Gram's upper triangle, once its strict lower triangle is seen
    to be unwritten: all zero."""
    assert not np.tril(g, -1).any()
    return np.triu(g)


def _below_blocks(size, n):
    """The cells of a size x size matrix of n x n blocks that lie in the
    blocks below its block diagonal."""
    below = np.tril(np.ones((size // n, size // n), dtype=bool), -1)
    return np.kron(below, np.ones((n, n), dtype=bool))


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
    assert np.array_equal(stack.column(0), dense[:, 0])
    assert np.array_equal(stack.column(width - 1), dense[:, -1])
    assert np.array_equal(_dense_stack(stack), dense)


@pytest.mark.parametrize("n,t,tau,wrap", CASES)
@pytest.mark.parametrize("offset", [0, 1])
def test_circular_stack_gram_on_the_smaller_side(n, t, tau, wrap, offset):
    # gram() is the time-side Gram; where the stack side is smaller,
    # snapshot_svd takes stack_gram() instead, so its factors are checked
    x, dense = _dense_pair(n, t, tau, seed=2 * n + t, wrap=wrap)
    dense = dense[offset]
    stack = DelayStack(x, tau, offset, wrap)
    assert _relative(_upper(stack.gram()), np.triu(dense.T @ dense)) <= 1e-10
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


def _syrk(x):
    """K = x.T x in full, with the bits of ``dsyrk``."""
    k = blas.dsyrk(1.0, x.T, lower=1)
    return np.tril(k) + np.tril(k, -1).T


def _kernel_k(x, width, low):
    """K's upper triangle as the window kernel forms it: ``dsyrk``'s K
    for a circular stack; for a Hankel one, ``dsyrk``'s K of its block
    of ``width`` columns from column ``low`` on, and K's rows against
    the later columns from one product."""
    k = _syrk(x)
    if width < x.shape[1]:
        block = slice(low, low + width)
        k[block, block] = _syrk(x[:, block])
        k[low:, low + width :] = dot(x[:, low:].T, x[:, low + width :])
    return k


def _d_of(k):
    """D's row i, K[i, i + d] for every d, indices read modulo T."""
    t = len(k)
    return lambda i: np.roll(k[i % t], -(i % t))


def _two_buffer_gram(stack, row):
    """The upper triangle of ``gram()`` as it was with D and G in
    separate arrays, D's row i being ``row(i)``: the same window sums
    in the same order, so the same bits."""
    w, tau = stack.width, stack.tau
    g = np.zeros((w, w))
    for j in range(w):
        first = j + stack.starts[0]
        size = w - j
        if j % tau == 0:
            window = np.array([row(i)[:size] for i in range(first, first + tau)]).sum(axis=0)
        else:
            window = window[:size] + row(first + tau - 1)[:size]
            window -= row(first - 1)[:size]
        g[j, j:] = window
    return g


def _mapping(g):
    """The buffer under the views that g is: a Gram's own mapping."""
    while isinstance(g, np.ndarray):
        g = g.base
    return g


@pytest.mark.parametrize("n,t,tau,wrap", CASES + [
    pytest.param(2, 40, 9, True, id="2-40-9-kept-rows"),
    pytest.param(3, 64, 17, False, id="3-64-17-nowrap-compacted"),
    pytest.param(1, 1, 1, True, id="1-1-1"),
])
@pytest.mark.parametrize("offset", [0, 1])
def test_gram_over_its_own_buffer_matches_the_two_buffer_gram(n, t, tau, wrap, offset):
    # G written over K's block keeps every addition of the two-buffer
    # form: the same bits from the same K, which for a Hankel stack is
    # within 1e-15 of dsyrk's. A Hankel stack's W x W Gram has a mapping
    # of its own, no T x T one
    stack = DelayStack(_matrix(n, t, seed=t + tau).values, tau, offset, wrap)
    g = stack.gram()
    assert g.shape == (stack.width, stack.width) and g.flags.c_contiguous
    assert len(_mapping(g)) == g.nbytes
    k = _kernel_k(stack.x, stack.width, int(stack.starts[0]))
    assert np.array_equal(_upper(g), _two_buffer_gram(stack, _d_of(k)))
    assert _relative(g, _two_buffer_gram(stack, _d_of(_syrk(stack.x)))) <= 1e-15


@pytest.mark.parametrize("n,t,tau,wrap", CASES + [
    pytest.param(2, 40, 9, True, id="2-40-9-kept-rows"),
    pytest.param(3, 64, 17, False, id="3-64-17-nowrap-compacted"),
    pytest.param(1, 2, 1, True, id="1-2-1"),
])
def test_pair_gram_is_the_sum_of_the_two_grams(n, t, tau, wrap):
    # the source's and target's window sums in one buffer: the same bits
    # as adding the target's Gram to the source's when both read the same
    # K, and within 1e-15 of the sum of the two Grams as each stack forms
    # them (a Hankel target's K starts one column later)
    x = _matrix(n, t, seed=t + tau).values
    source, target = DelayStack(x, tau, 0, wrap), DelayStack(x, tau, 1, wrap)
    want = source.gram()
    want += target.gram()
    g = _window_gram(x, tau, source.width, (0, 1))
    assert g.shape == want.shape and len(_mapping(g)) == g.nbytes
    d = _d_of(_kernel_k(x, source.width, 0))
    assert np.array_equal(_upper(g), _two_buffer_gram(source, d) + _two_buffer_gram(target, d))
    assert _relative(g, _upper(want)) <= 1e-15
    if wrap:  # both stacks read dsyrk's K
        assert np.array_equal(g, want)


@pytest.mark.parametrize("n,t,tau,wrap", STACK_SIDE_CASES)
@pytest.mark.parametrize("offset", [0, 1])
def test_stack_gram_and_left_product_match_dense_stack(n, t, tau, wrap, offset):
    # S S.T from lagged N x N products, and S.T U as (U.T S).T, on either side
    x, dense = _dense_pair(n, t, tau, seed=3 * n + t, wrap=wrap)
    dense = dense[offset]
    stack = DelayStack(x, tau, offset, wrap)
    u = np.random.default_rng(tau).normal(size=(dense.shape[0], 3))
    g = stack.stack_gram()
    below = _below_blocks(len(g), n)
    assert not g[below].any()  # only the upper block triangle is written
    assert _relative(g, np.where(below, 0.0, dense @ dense.T)) <= 1e-12
    assert _relative((u.T @ stack).T, dense.T @ u) <= 1e-12


def _resident(array):
    """(size, Rss) in bytes of the mapping in /proc/self/smaps that holds
    the array's data."""
    address = array.__array_interface__["data"][0]
    found = None
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            span = re.match(r"([0-9a-f]+)-([0-9a-f]+) ", line)
            if span:
                low, high = int(span[1], 16), int(span[2], 16)
                found = high - low if low <= address < high else None
            elif found is not None and line.startswith("Rss:"):
                return found, int(line.split()[1]) * 1024
    raise AssertionError("no mapping holds the array")


def _upper_triangle_pages(n, page=4096, item=8):
    """The pages an n x n array's upper triangle touches, row j spanning
    bytes item (j n + j) .. item (j + 1) n - 1 (float64, or float32 for
    ``item`` 4)."""
    rows = np.arange(n)
    touched = np.zeros(-(-item * n * n // page), dtype=bool)
    for first, last in zip(item * (rows * n + rows) // page,
                           (item * (rows + 1) * n - 1) // page):
        touched[first : last + 1] = True
    return int(touched.sum()) * page


def _resident_anonymous():
    """The process's resident anonymous memory in bytes."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("RssAnon:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no RssAnon line")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's status")
def test_single_triangle_releases_the_float64_pages_it_has_rounded():
    # the float32 copy of a Gram's upper triangle is made a block of rows at
    # a time, and the float64 rows are released as they are read: the
    # process holds the float32 triangle's pages in place of the float64
    # one's, and the rounding error is the symmetric matrix's, in full
    n = 2048
    g = DelayStack(_matrix(4, n, seed=9).values, 8, 0, True).gram()
    upper = np.triu(g)
    full = upper + np.triu(upper, 1).T
    before = _resident_anonymous()
    f, error = _single_triangle(g)
    grown = _resident_anonymous() - before
    saved = _upper_triangle_pages(n) - _upper_triangle_pages(n, item=4)
    # a copy that released nothing would grow by the float32 pages, 14.7 MB;
    # 2 MB allow for a heap page the temporaries may fault in as a huge page
    assert grown <= -saved + 2 * 2**20, (grown, saved)
    assert not g.any()  # its released pages read as zeros
    assert f.dtype == np.float32 and np.array_equal(np.triu(f), upper.astype(np.float32))
    single = np.triu(f).astype(np.float64)
    single += np.triu(single, 1).T
    assert error == pytest.approx(np.linalg.norm(single - full), rel=1e-9)
    # a matrix that is no mapping of its own is read, not released
    kept = upper.copy()
    again, same = _single_triangle(kept)
    assert np.array_equal(kept, upper) and np.array_equal(again, f) and same == error


def test_stack_products_of_f_and_c_ordered_operands_are_equal():
    # an eigensolver's vectors come F-ordered: the product copies them once
    # to C order, so either order gives the same bits
    x = _matrix(5, 300, seed=2).values
    for wrap, offset in ((True, 0), (True, 1), (False, 0), (False, 1)):
        stack = DelayStack(x, 12, offset, wrap)
        y = np.random.default_rng(offset).normal(size=(stack.shape[1], 9))
        assert np.array_equal(stack @ np.asfortranarray(y), stack @ np.ascontiguousarray(y))


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="reads Linux's smaps")
@pytest.mark.parametrize("tau", [1, 8])
def test_gram_pages_that_hold_only_its_lower_triangle_never_become_resident(tau):
    # the Gram has a mapping of its own in 4 KB pages, and neither its
    # kernel (dsyrk for one block, window sums for more) nor dsytrd writes
    # a page that holds only strict lower triangle. A row's strict lower
    # triangle fills a page only from row 512 on, so at n = 2048 the upper
    # triangle touches 72 % of the array, 8 n^2 - 4 (n - 512)^2 bytes
    n = 2048
    g = DelayStack(_matrix(4, n, seed=tau).values, tau, 0, True).gram()
    size, rss = _resident(g)
    touched = _upper_triangle_pages(n)
    assert size == len(_mapping(g)) == g.nbytes
    assert rss <= touched < 0.75 * g.nbytes, (rss, touched, g.nbytes)
    if tau > 1:
        spectral._SymmetricEigen(g)
        assert _resident(g)[1] <= touched


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
        assert np.array_equal(source.column(0), x[:, :4].T.ravel())


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
