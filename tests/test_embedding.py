import os
import re
import subprocess
import sys

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
    inverse_anti_circulant,
    snapshot_svd,
)
from circdmd.embedding import hankel
from circdmd import embedding, spectral, variants
from circdmd._linalg import dot
from circdmd.embedding import (
    DelayStack,
    _Panels,
    collapse_snapshot_reconstruction,
    inverse_hankel,
)


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
# anti-circulant embedding
# ----------------------------------------------------------------------

def test_anti_circulant_single_block():
    m = _matrix(3, 5)
    emb = anti_circulant(m, 1)
    assert np.array_equal(emb.values, _column_shift_oracle(m.values, -1))


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
        assert np.array_equal(emb.values[(i - 1) * 4 : i * 4], expected)


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
        assert np.array_equal(cp.values[(i - 1) * 2 : i * 2, 0], m.values[:, i - 1])


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


def _unpacked(g):
    """A Gram's row panels written into an n x n array of zeros."""
    dense = np.zeros(g.shape)
    for s, panel in zip(g.starts, g.panels):
        dense[s : s + len(panel), s:] = panel
    return dense


def _upper(g):
    """A Gram's upper triangle, from its row panels, once the strict
    lower triangle of each panel's leading block is seen to be 0."""
    dense = _unpacked(g)
    assert not np.tril(dense, -1).any()
    return dense


def _panel_bytes(g):
    """The bytes of a Gram's panels, which must be its whole mapping."""
    size = sum(panel.nbytes for panel in g.panels)
    assert len(g._pages) == size
    assert all(_mapping(panel) is g._pages for panel in g.panels)
    return size


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


def _panel_k(x):
    """K = x.T x in full, with the bits of the row panels' products."""
    g = _Panels(x.shape[1], embedding._PANEL_ROWS)
    g.update(np.ascontiguousarray(x.T))
    k = _upper(g)
    return k + np.triu(k, 1).T


def _kernel_k(x, width, low):
    """K's upper triangle as the window kernel forms it: the panels' K
    for a circular stack; for a Hankel one, the panels' K of its block
    of ``width`` columns from column ``low`` on, and K's rows against
    the later columns from one product."""
    k = _panel_k(x)
    if width < x.shape[1]:
        block = slice(low, low + width)
        k[block, block] = _panel_k(x[:, block])
        k[low:, low + width :] = dot(x[:, low:].T, x[:, low + width :])
    return k


def _d_of(k):
    """D's row i, K[i, i + d] for every d, indices read modulo T."""
    t = len(k)
    return lambda i: np.roll(k[i % t], -(i % t))


def _formed_d(stack):
    """D's rows m .. 2m - 1 of a circular stack, m = lead + tau - 1, as
    the window kernel forms them again for its windows 0 .. m - 1: K's
    rows from x, one product a block of at most _FORMED_ROWS rows, with
    the bits of those products (x's columns are one copy at these
    sizes)."""
    x, t = stack.x, stack.x.shape[1]
    m = int(stack.starts[0]) + stack.tau - 1
    rows = {}
    for first in range(m, 2 * m, embedding._FORMED_ROWS):
        block = range(first, min(first + embedding._FORMED_ROWS, 2 * m))
        k = blas.dgemm(1.0, x.take(block, axis=1, mode="wrap").T, x.T, trans_b=1)
        rows.update({i: np.roll(row, -(i % t)) for i, row in zip(block, k)})
    return rows.__getitem__


def _two_buffer_gram(stack, row):
    """The upper triangle of ``gram()`` as it was with D and G in
    separate arrays, D's row i being ``row(i)``: the same window sums
    in the same order, so the same bits. A circular stack's windows
    m .. T - 1 go first, then windows 0 .. m - 1, whose last rows are
    formed again (:func:`_formed_d`), each run summed afresh every tau
    windows."""
    w, tau, lead = stack.width, stack.tau, int(stack.starts[0])
    g = np.zeros((w, w))
    if w < stack.x.shape[1]:
        runs = [(range(w), row)]
    else:
        m = lead + tau - 1
        runs = [(range(m, w), row), (range(m), _formed_d(stack))]
    for js, last in runs:
        for j in js:
            first = j + lead
            size = w - j
            if (j - js.start) % tau == 0:
                rows = [row(i) for i in range(first, first + tau - 1)] + [last(first + tau - 1)]
                window = np.array([r[:size] for r in rows]).sum(axis=0)
            else:
                window = window[:size] + last(first + tau - 1)[:size]
                window -= row(first - 1)[:size]
            g[j, j:] = window
    return g


def _mapping(g):
    """The buffer under the views that g is: a Gram's own mapping."""
    while isinstance(g, np.ndarray):
        g = g.base
    return g.obj if isinstance(g, memoryview) else g


@pytest.mark.parametrize("n,t,tau,wrap", CASES + [
    pytest.param(2, 40, 9, True, id="2-40-9-kept-rows"),
    pytest.param(3, 64, 17, False, id="3-64-17-nowrap-compacted"),
    pytest.param(1, 1, 1, True, id="1-1-1"),
])
@pytest.mark.parametrize("offset", [0, 1])
def test_gram_over_its_own_buffer_matches_the_two_buffer_gram(n, t, tau, wrap, offset):
    # G written over K's block keeps every addition of the two-buffer
    # form: the same bits from the same K, and from the rows of K that a
    # circular stack forms again, which is within 1e-15 of dsyrk's. A
    # Hankel stack's W x W Gram has a mapping of its own, no T x T one:
    # its panels, in rows of at most _PANEL_ROWS
    stack = DelayStack(_matrix(n, t, seed=t + tau).values, tau, offset, wrap)
    g = stack.gram()
    w = stack.width
    assert g.shape == (w, w) and list(g.starts) == list(range(0, w, embedding._PANEL_ROWS))
    assert _panel_bytes(g) == 8 * sum(min(embedding._PANEL_ROWS, w - s) * (w - s) for s in g.starts)
    k = _kernel_k(stack.x, stack.width, int(stack.starts[0]))
    assert np.array_equal(_upper(g), _two_buffer_gram(stack, _d_of(k)))
    assert _relative(_upper(g), _two_buffer_gram(stack, _d_of(_syrk(stack.x)))) <= 1e-15


@pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="reads Linux's smaps")
@pytest.mark.parametrize("n,t,tau", [
    # the Hankel cases whose tls-hankel fit takes the time-side Gram,
    # N (tau + 1) >= W, and one whose rows from 512 on leave pages that
    # hold only strict lower triangle
    pytest.param(6, 5, 1, id="6-5-1-nowrap"),
    pytest.param(2, 7, 6, id="2-7-6-nowrap"),
    pytest.param(4, 9, 5, id="4-9-5-nowrap"),
    pytest.param(1, 16, 15, id="1-16-15-nowrap"),
    pytest.param(3, 64, 17, id="3-64-17-nowrap-compacted"),
    pytest.param(4, 1200, 300, id="4-1200-300-nowrap-paged"),
])
def test_pair_gram_is_the_sum_of_the_two_grams(n, t, tau, monkeypatch):
    # tls-hankel's S.T S + T.T T, twice the window sum over the tau + 1
    # blocks less the two end blocks' Grams, is the source's and the
    # target's Grams added, within 1e-14 of its largest entry, in row
    # panels on a mapping of its own that is the panels' bytes and no
    # more, of which no more is resident
    x = _matrix(n, t, seed=t + tau).values
    seen = []
    top = variants._top_singular

    def recording(gram, *args):
        size = _panel_bytes(gram)
        seen.append((_upper(gram), size, _resident(gram.panels[0])))
        return top(gram, *args)

    monkeypatch.setattr(variants, "_top_singular", recording)
    variants.fit(SpeedMatrix(values=x, delta_t=1.0), variants.VariantConfig("tls-hankel", tau))
    [(g, size, (mapped, rss))] = seen
    assert mapped == _pages(size) and rss <= mapped, (size, mapped, rss)
    want = _upper(DelayStack(x, tau, 0, False).gram()) + _upper(DelayStack(x, tau, 1, False).gram())
    assert _relative(g, want) <= 1e-14


@pytest.mark.parametrize("n,t,tau,wrap", [
    pytest.param(2, 301, 5, True, id="odd-order-three-panels"),
    pytest.param(2, 300, 7, False, id="odd-order-three-panels-nowrap"),  # W = 293
    pytest.param(3, 100, 4, True, id="below-one-panel"),
    pytest.param(3, 135, 7, False, id="one-whole-panel-nowrap"),  # W = 128
    pytest.param(2, 256, 9, True, id="two-whole-panels"),
] + [
    # circular stacks of odd T whose windows first read K's rows past one
    # panel, one block of formed rows or both, up to tau = T, where every
    # window wraps
    pytest.param(2, 301, tau, True, id=f"odd-order-tau-{tau}")
    for tau in (1, 2, 127, 128, 129, 300, 301)
])
@pytest.mark.parametrize("offset", [0, 1])
def test_panel_grams_and_products_match_a_dense_oracle(n, t, tau, wrap, offset):
    # both Grams in row panels, of _PANEL_ROWS rows on the time side and of
    # one block row of N on the stack side, and the product the refinement
    # takes on them, within 1e-14 of the dense stack's largest entry
    x, dense = _dense_pair(n, t, tau, seed=t + tau, wrap=wrap)
    dense = dense[offset]
    stack = DelayStack(x, tau, offset, wrap)
    w, b = stack.width, embedding._PANEL_ROWS
    rng = np.random.default_rng(t)
    for g, want, heights in (
        (stack.gram(), dense.T @ dense, [min(b, w - s) for s in range(0, w, b)]),
        (stack.stack_gram(), dense @ dense.T, [n] * tau),
    ):
        assert [len(panel) for panel in g.panels] == heights
        assert _relative(_upper(g), np.triu(want)) <= 1e-14
        v = rng.normal(size=(len(want), 5))
        assert _relative(g.times(np.asfortranarray(v)), want @ v) <= 1e-14


@pytest.mark.parametrize("n,t,tau,wrap", STACK_SIDE_CASES)
@pytest.mark.parametrize("offset", [0, 1])
def test_stack_gram_and_left_product_match_dense_stack(n, t, tau, wrap, offset):
    # S S.T from lagged N x N products, and S.T U as (U.T S).T, on either side
    x, dense = _dense_pair(n, t, tau, seed=3 * n + t, wrap=wrap)
    dense = dense[offset]
    stack = DelayStack(x, tau, offset, wrap)
    u = np.random.default_rng(tau).normal(size=(dense.shape[0], 3))
    g = stack.stack_gram()
    # one panel per block row, which holds only the upper block triangle
    assert [panel.shape for panel in g.panels] == [(n, (tau - a) * n) for a in range(tau)]
    assert _panel_bytes(g) == 8 * n * n * tau * (tau + 1) // 2
    assert _relative(_upper(g), np.triu(dense @ dense.T)) <= 1e-12
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


def _pages(size, page=4096):
    """``size`` bytes rounded up to whole pages."""
    return -(-size // page) * page


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
    # LAPACK's float32 triangle is made from the Gram's row panels a block
    # of rows at a time, and the panels' pages are released as they are
    # read: the process holds the float32 triangle's pages in place of the
    # panels', and the rounding error is the symmetric matrix's, in full.
    # The float64 triangle of the dsytrd path is made the same way, with
    # the panels' bits
    n = 2048
    x = _matrix(4, n, seed=9).values
    upper = _upper(DelayStack(x, 8, 0, True).gram())
    full = upper + np.triu(upper, 1).T
    for dtype in (np.float32, np.float64):
        g = DelayStack(x, 8, 0, True).gram()
        before = _resident_anonymous()
        a, error = g.lapack(dtype)
        grown = _resident_anonymous() - before
        item = np.dtype(dtype).itemsize
        # a copy that released nothing would grow by the whole triangle's
        # pages, 12 MB in float32 and 20 MB in float64; 2 MB allow for a
        # heap page the temporaries may fault in as a huge page
        saved = _panel_bytes(g) - _upper_triangle_pages(n, item=item)
        assert grown <= -saved + 2 * 2**20, (dtype, grown, saved)
        assert _resident(a)[1] <= _upper_triangle_pages(n, item=item)
        assert not any(panel.any() for panel in g.panels)  # released pages read as zeros
        assert a.dtype == dtype and not np.tril(a, -1).any()
        assert np.array_equal(np.triu(a), upper.astype(dtype))
        single = np.triu(a).astype(np.float64)
        single += np.triu(single, 1).T
        assert error == pytest.approx(np.linalg.norm(single - full), rel=1e-9)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's status")
def test_a_float64_path_fit_grows_by_at_most_its_lapack_triangle():
    # a fixed rank keeps the float64 dsytrd path: the Gram's row panels are
    # copied into LAPACK's n x n triangle as their pages are released, and
    # a panel row holds fewer pages than the triangle's row it becomes, so
    # the fit's peak RSS (n = T = 2048, circ, N tau = 2080) grows by the
    # triangle's pages and at most 2 MB more. A copy that kept the panels
    # would grow by 17 MB more. The child fits a 1900-column input first,
    # which puts BLAS's buffers in place, and counts the growth from the
    # RSS just before the fit, which must raise the peak. The peak is the
    # child's own VmHWM: its ru_maxrss would start from this process's
    child = """
import sys
import numpy as np
import circdmd
def status(field):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith(field))
x = np.random.default_rng(0).normal(size=(40, 2048))
config = circdmd.VariantConfig(method="circ", tau=52, rank=8)
circdmd.fit(circdmd.SpeedMatrix(values=x[:, :1900], delta_t=1.0), config)
base, before = status("VmRSS:"), status("VmHWM:")
circdmd.fit(circdmd.SpeedMatrix(values=x, delta_t=1.0), config)
assert status("VmHWM:") > before, "the fit did not raise the peak RSS"
print(status("VmHWM:") - base)
"""
    source = os.path.dirname(os.path.dirname(embedding.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    grown = int(subprocess.run([sys.executable, "-c", child], check=True, capture_output=True,
                               text=True, env=env).stdout)
    assert grown <= _upper_triangle_pages(2048) + 2 * 2**20, grown


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's status")
def test_a_circular_window_gram_grows_by_its_panels_alone():
    # a circular stack's windows read K's first lead + tau - 1 rows where
    # the panels hold them, and form the rows they read again from x a
    # block at a time, so at N = 8, T = 2048 and tau = 1024 the Gram grows
    # the peak RSS by its panels' 17 MB and at most 1 MB more; a copy of
    # those rows of K beside the panels would add 16 MB. The child forms a
    # smaller Gram first, which puts BLAS's buffers in place, and reads its
    # own VmHWM, counted from the RSS just before the Gram
    child = """
import numpy as np
from circdmd.embedding import DelayStack
def status(field):
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) * 1024 for line in status if line.startswith(field))
x = np.random.default_rng(0).normal(size=(8, 2048))
DelayStack(x[:, :1900], 950, 0, True).gram()
base, before = status("VmRSS:"), status("VmHWM:")
g = DelayStack(x, 1024, 0, True).gram()
assert status("VmHWM:") > before, "the Gram did not raise the peak RSS"
print(status("VmHWM:") - base, sum(panel.nbytes for panel in g.panels))
"""
    source = os.path.dirname(os.path.dirname(embedding.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    grown, panels = map(int, subprocess.run([sys.executable, "-c", child], check=True,
                                            capture_output=True, text=True, env=env).stdout.split())
    assert grown <= panels + 2**20, (grown, panels)


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
    # the Gram's row panels hold its upper triangle and 63.5 cells a row
    # more, on a mapping of their own that is their bytes and no more,
    # whatever the kernel (one product a panel for one block, window sums
    # for more). LAPACK's n x n copy for dsytrd writes each row from its
    # diagonal on, so neither it nor dsytrd writes a page that holds only
    # strict lower triangle: from row 512 on a row's strict lower triangle
    # fills a page, so at n = 2048 the upper triangle touches 72 % of the
    # array, 8 n^2 - 4 (n - 512)^2 bytes, where the panels take 53 %
    n = 2048
    g = DelayStack(_matrix(4, n, seed=tau).values, tau, 0, True).gram()
    size = _panel_bytes(g)
    mapped, rss = _resident(g.panels[0])
    assert size == 8 * (n * (n + 1) // 2 + (embedding._PANEL_ROWS - 1) * n // 2)
    assert mapped == _pages(size) and rss <= mapped < 0.54 * 8 * n * n, (size, rss)
    a, _ = g.lapack()
    touched = _upper_triangle_pages(n)
    assert len(_mapping(a)) == a.nbytes
    assert _resident(a)[1] <= touched < 0.75 * a.nbytes, (_resident(a), touched)
    spectral._SymmetricEigen(a)
    assert _resident(a)[1] <= touched


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
