import re
import warnings

import numpy as np
import pytest
from scipy.linalg import blas, subspace_angles

from circdmd import (
    DataError,
    NumericalError,
    RangeError,
    RankDeficiencyError,
    ShapeError,
    DynamicSpectrum,
    hard_threshold_factor,
    optimal_rank,
    snapshot_svd,
    vandermonde,
)
from circdmd import embedding, spectral
from circdmd.embedding import DelayStack
from circdmd.spectral import (
    SpectrumMeta,
    amplitudes,
    dynamic_modes,
    eigendecompose,
    projected_dynamics,
    reconstruct,
)


def _spectrum(eigs, modes, amps, delta_t=1.0):
    eigs = np.asarray(eigs, dtype=complex)
    modes = np.atleast_2d(np.asarray(modes, dtype=complex))
    meta = SpectrumMeta(
        method="circ", tau=1, rank=eigs.size, gamma=0.0,
        n_sensors=modes.shape[0], n_time=0, delta_t=delta_t,
    )
    return DynamicSpectrum(
        eigenvalues=eigs,
        modes=modes,
        amplitudes=np.asarray(amps, dtype=complex),
        meta=meta,
    )


# ----------------------------------------------------------------------
# hard threshold rank rule
# ----------------------------------------------------------------------

def test_threshold_polynomial_at_one():
    assert abs(hard_threshold_factor(1.0) - 2.86) < 1e-14


def test_optimal_rank_worked_example():
    s = np.array([10.0, 3.0, 2.0, 1.0, 0.5])
    # median 2, threshold 2.86 * 2 = 5.72: only 10 survives
    assert optimal_rank(s, 5, 5) == 1


def test_optimal_rank_clamps_to_one():
    s = np.ones(6)
    assert optimal_rank(s, 6, 6) == 1


def test_optimal_rank_flat_spectrum_any_beta():
    # polynomial >= 1.43 on (0, 1]: equal singular values always collapse
    for n in (2, 10, 100):
        assert optimal_rank(np.full(n, 3.0), 100, n) == 1


def test_optimal_rank_detects_planted_rank():
    rng = np.random.default_rng(0)
    m, n, r = 200, 50, 3
    low_rank = sum(
        np.outer(rng.normal(size=m), rng.normal(size=n)) for _ in range(r)
    )
    noisy = low_rank + 1e-6 * rng.normal(size=(m, n))
    sing = np.linalg.svd(noisy, compute_uv=False)  # independent oracle
    assert optimal_rank(sing, m, n) == 3


def test_optimal_rank_empty_or_bad_dims():
    with pytest.raises(RangeError):
        optimal_rank(np.array([]), 3, 3)
    with pytest.raises(RangeError):
        optimal_rank(np.ones(3), 0, 3)


def test_optimal_rank_symmetric_in_dimensions():
    s = np.array([9.0, 6.0, 2.0, 1.5, 1.0, 0.8, 0.5, 0.2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for m, n in ((2, 10), (8, 40), (30, 31)):
            assert optimal_rank(s, m, n) == optimal_rank(s, n, m)


# ----------------------------------------------------------------------
# the rank rule on a Gram's order statistics
# ----------------------------------------------------------------------

EPS = np.finfo(float).eps


def _gram(eigenvalues, seed=0):
    """The upper triangle of a symmetric matrix with these eigenvalues,
    the triangle every Gram is written as."""
    n = len(eigenvalues)
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
    return np.triu((q * np.asarray(eigenvalues, dtype=float)) @ q.T)


def _packed(upper):
    """An upper triangle in the row panels every Gram kernel writes."""
    g = embedding._Panels(len(upper), embedding._PANEL_ROWS)
    for s, panel in zip(g.starts, g.panels):
        panel[...] = np.triu(upper[s : s + len(panel), s:])
    return g


def _planted(n, r, seed=0):
    """r eigenvalues from 100 down to 10 above a bulk from 1 down to 0.01."""
    bulk = np.sort(np.random.default_rng(seed).uniform(0.01, 1.0, size=n - r))[::-1]
    return np.concatenate([np.geomspace(100.0, 10.0, r), bulk])


def _rank_rule_from_every_eigenvalue(gram, rank, rows, cols):
    """The rule read off all of ``values()``: (singular values kept, None),
    or (None, (numerical rank, sigma_r / sigma_1)) for a fixed rank above
    the numerical rank."""
    eigvals = np.clip(spectral._SymmetricEigen(gram.copy()).values(), 0.0, None)
    num_rank = int(np.sum(eigvals > eigvals[0] * max(rows, cols) * EPS))
    size = min(rows, cols)
    if rank == "auto":
        sing = np.zeros(size)
        sing[: len(eigvals)] = np.sqrt(eigvals)
        return np.sqrt(eigvals[: min(optimal_rank(sing, rows, cols), max(num_rank, 1))]), None
    if rank > num_rank:
        ratio = np.sqrt(eigvals[rank - 1] / eigvals[0]) if rank <= len(eigvals) else 0.0
        return None, (num_rank, ratio)
    return np.sqrt(eigvals[:rank]), None


def _counting_lapack(monkeypatch, names):
    """Count the calls of scipy's LAPACK routines ``names`` from here on."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        real = getattr(spectral.lapack, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(spectral.lapack, name, counting(name))
    return calls


_LOW_RANK = np.concatenate([[9.0, 4.0, 1.0], np.zeros(93)])

# (eigenvalues, rank, rows, cols, whether the eigenvalues read come from
# dsterf): bisection takes at most n / 16 of them at a time
RANK_RULE_CASES = {
    "planted-even": (_planted(160, 4), "auto", 400, 160, False),
    "planted-odd": (_planted(161, 4, seed=1), "auto", 161, 500, False),
    "flat": (np.ones(64), "auto", 64, 90, False),
    # the median is round-off, so most eigenvalues lie above the threshold
    "exactly-low-rank": (_LOW_RANK, "auto", 96, 300, True),
    "n-is-1": (np.array([4.0]), "auto", 7, 1, False),
    # min(rows, cols) - n padded zeros: the middle pair straddles them,
    # the middle one is the smallest eigenvalue, or the median is 0. Only
    # a bulk within 3.7 times the smallest eigenvalue lies below the
    # threshold the smallest one sets at this aspect ratio
    "padded-straddle": (_planted(64, 3), "auto", 128, 400, True),
    "padded-odd": (np.concatenate([[100.0, 50.0, 10.0], np.linspace(3.0, 1.0, 61)]),
                   "auto", 127, 400, False),
    "padded-median-zero": (_planted(64, 3), "auto", 129, 400, True),
    "fixed-at-numerical-rank": (_LOW_RANK, 3, 96, 300, False),
    "fixed-above-numerical-rank": (_LOW_RANK, 4, 96, 300, False),
    "fixed-above-gram-size": (_planted(64, 3), 65, 100, 400, True),
    # n = 320: the count kept plus one, and a fixed rank, on either side of 20
    "kept-below-n-over-16": (_planted(320, 10), "auto", 320, 640, False),
    "kept-above-n-over-16": (_planted(320, 30), "auto", 320, 640, True),
    "fixed-at-n-over-16": (_planted(320, 30), 20, 320, 640, False),
    "fixed-above-n-over-16": (_planted(320, 30), 21, 320, 640, True),
}


@pytest.mark.parametrize("case", RANK_RULE_CASES)
def test_rank_rule_reads_order_statistics_as_every_eigenvalue_gives(monkeypatch, case):
    eigenvalues, rank, rows, cols, takes_dsterf = RANK_RULE_CASES[case]
    gram = _gram(eigenvalues)
    want, error = _rank_rule_from_every_eigenvalue(gram, rank, rows, cols)
    calls = _counting_lapack(monkeypatch, ["dsterf", "dstebz"])
    if error is None:
        got, vectors = spectral._top_singular(_packed(gram), rank, rows, cols)
        assert len(got) == len(want)
        assert np.max(np.abs(got - want)) <= 1e-14 * want[0]
        assert vectors.shape == (len(eigenvalues), len(want))
    else:
        num_rank, ratio = error
        with pytest.raises(RankDeficiencyError) as raised:
            spectral._top_singular(_packed(gram), rank, rows, cols)
        assert f"only {num_rank} nonzero singular values" in str(raised.value)
        assert f"sigma_{rank}/sigma_1 = {ratio:.3g} is below" in str(raised.value)
    assert calls["dsterf"] == int(takes_dsterf), calls
    assert (calls["dstebz"] > 0) == (len(eigenvalues) >= 16), calls
    if case == "padded-odd":
        assert len(want) == 3


def test_symmetric_eigen_answers_each_request_on_its_own():
    # values, order statistics, counts and vectors agree in any order
    gram = _gram(_planted(200, 5))
    every = spectral._SymmetricEigen(gram.copy()).values()
    eigen = spectral._SymmetricEigen(gram.copy())
    vectors = eigen.top_vectors(3)
    full = gram + np.triu(gram, 1).T
    assert np.max(np.abs(full @ vectors - vectors * every[:3])) <= 1e-12 * every[0]
    assert np.max(np.abs(eigen.top_values(5) - every[:5])) <= 4 * EPS * every[0]
    assert np.max(np.abs(eigen.ranked(100, 101) - every[[100, 99]])) <= 4 * EPS * every[0]
    middle = (every[4] + every[5]) / 2
    assert eigen.count_above(middle) == 5 and eigen.count_above(every[0] * 2) == 0
    assert np.array_equal(eigen.values(), spectral._SymmetricEigen(gram.copy()).values())


def _tied(seed, transpose):
    """A 30 x 30 orthogonal matrix, Q1 Q2.T or Q1 Q2 from two QR factors of
    normal draws: its 30 singular values all tie at 1."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    q2, _ = np.linalg.qr(rng.normal(size=(30, 30)))
    return q1 @ (q2.T if transpose else q2)


@pytest.mark.parametrize("seed,transpose", [(6, True), (5, False)])
@pytest.mark.parametrize("rank", [28, 29, 30])
def test_snapshot_svd_of_tied_singular_values_matches_numpy(seed, transpose, rank):
    # bisection for lambda_1 alone finds none of the tie (dstebz info 2), so
    # the values come from dsterf, as LAPACK advises
    m = _tied(seed, transpose)
    want = np.linalg.svd(m, compute_uv=False)[:rank]
    svd = snapshot_svd(m, rank=rank)
    assert np.max(np.abs(svd.singular - want) / want) <= 1e-12


def test_ranked_takes_every_eigenvalue_where_bisection_misses_a_tie(monkeypatch):
    m = _tied(6, True)
    gram = np.triu(m.T @ m)
    calls = _counting_lapack(monkeypatch, ["dstebz", "dsterf"])
    eigen = spectral._SymmetricEigen(gram.copy())
    top = eigen.ranked(30, 30)
    assert calls == {"dstebz": 1, "dsterf": 1}
    assert abs(top[0] - np.linalg.eigvalsh(m.T @ m)[-1]) <= 1e-12
    eigen.ranked(1, 1)  # every eigenvalue is kept: no second bisection
    assert calls == {"dstebz": 1, "dsterf": 1}


def test_ranked_bisects_each_range_once(monkeypatch):
    # _single_start reads the same median order statistics at 0 and at
    # plus and minus its bound: one bisection serves all three
    gram = _gram(_planted(320, 5))
    calls = _counting_lapack(monkeypatch, ["dstebz", "dsterf"])
    eigen = spectral._SymmetricEigen(gram)
    first = eigen.ranked(160, 161)
    for _ in range(2):
        assert np.array_equal(eigen.ranked(160, 161), first)
    assert calls == {"dstebz": 1, "dsterf": 0}


# ----------------------------------------------------------------------
# snapshot SVD
# ----------------------------------------------------------------------

def test_snapshot_svd_identity():
    svd = snapshot_svd(np.eye(3), rank=3)
    assert np.allclose(svd.singular, [1.0, 1.0, 1.0])


def test_snapshot_svd_full_rank_reconstruction():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(12, 7))
    svd = snapshot_svd(a, rank=7)
    rebuilt = svd.left @ np.diag(svd.singular) @ svd.right.T
    assert np.max(np.abs(rebuilt - a)) <= 1e-9


def test_snapshot_svd_orthonormal_factors():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(40, 9))
    svd = snapshot_svd(a, rank=9)
    assert np.max(np.abs(svd.left.T @ svd.left - np.eye(9))) <= 1e-9
    assert np.max(np.abs(svd.right.T @ svd.right - np.eye(9))) <= 1e-9


def test_snapshot_svd_matches_direct_oracle_tall():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(1000, 50))
    svd = snapshot_svd(a, rank=50)
    direct = np.linalg.svd(a, compute_uv=False)
    assert np.max(np.abs(svd.singular - direct) / direct) <= 1e-8


def test_snapshot_svd_matches_direct_oracle_wide():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(30, 200))
    svd = snapshot_svd(a, rank=30)
    direct = np.linalg.svd(a, compute_uv=False)
    assert np.max(np.abs(svd.singular - direct) / direct) <= 1e-8


def test_snapshot_svd_subspace_agreement():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(60, 25))
    svd = snapshot_svd(a, rank=25)
    u, _, vt = np.linalg.svd(a, full_matrices=False)
    assert np.max(subspace_angles(svd.left, u)) <= 1e-6
    assert np.max(subspace_angles(svd.right, vt.T)) <= 1e-6


def test_snapshot_svd_rank_deficiency_error():
    rng = np.random.default_rng(6)
    col = rng.normal(size=(10, 1))
    a = np.hstack([col, 2 * col, 3 * col])  # rank 1
    with pytest.raises(RankDeficiencyError):
        snapshot_svd(a, rank=2)
    svd = snapshot_svd(a, rank=1)
    assert svd.rank == 1


def test_rank_deficiency_names_the_squaring_floor():
    # sigma_2 / sigma_1 = 1e-9 is a real direction, but its square falls
    # under eps * 20 in the Gram, so the fixed rank cannot be had
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.normal(size=(20, 2)))
    v, _ = np.linalg.qr(rng.normal(size=(10, 2)))
    a = u @ np.diag([1.0, 1e-9]) @ v.T
    floor = np.sqrt(np.finfo(float).eps * 20)
    with pytest.raises(RankDeficiencyError) as err:
        snapshot_svd(a, rank=2)
    match = re.fullmatch(
        r"rank 2 requested but only 1 nonzero singular values: sigma_2/sigma_1 = (\S+) "
        r"is below the Gram's squaring floor sqrt\(eps \* 20\) = (\S+)",
        str(err.value),
    )
    assert match, str(err.value)
    assert float(match.group(1)) < floor
    assert match.group(2) == f"{floor:.3g}" == "6.66e-08"


def test_snapshot_svd_auto_caps_at_numerical_rank():
    rng = np.random.default_rng(7)
    basis = rng.normal(size=(30, 4))
    coeffs = rng.normal(size=(4, 100))
    svd = snapshot_svd(basis @ coeffs)  # exactly rank 4
    assert svd.rank == 4


def test_snapshot_svd_rejects_non_finite_entries():
    a = np.random.default_rng(11).normal(size=(8, 5))
    a[3, 2] = np.nan
    with pytest.raises(DataError, match=r"\(3, 2\)"):
        snapshot_svd(a)
    a[3, 2] = np.inf
    with pytest.raises(DataError):
        snapshot_svd(a, rank=2)
    for empty in ((3, 0), (0, 3)):
        with pytest.raises(ShapeError, match=re.escape(str(empty))):
            snapshot_svd(np.zeros(empty))


def _layouts():
    rng = np.random.default_rng(14)
    wide = rng.normal(size=(12, 40))
    return {
        "tall": rng.normal(size=(40, 9)),
        "square": rng.normal(size=(9, 9)),
        "one-by-one": np.array([[-2.5]]),
        "c-ordered-wide": wide,
        "f-ordered": np.asfortranarray(rng.normal(size=(40, 9))),
        "strided": wide[::2, ::3],
    }


@pytest.mark.parametrize("layout", list(_layouts()))
def test_one_block_stack_gram_is_one_product_a_panel(layout):
    # an ndarray enters the SVD as a one-block circular stack, whose
    # time-side Gram is K = a.T a itself, no window sum: its contiguous
    # row panels, one dgemm each, hold the upper triangle of a lone
    # dsyrk's K within rounding, and 0 below the diagonal of each
    # panel's leading block
    a = _layouts()[layout]
    gram = DelayStack(a, 1, 0, True).gram()
    oracle = np.tril(blas.dsyrk(1.0, a.T, lower=1)).T
    dense = np.zeros(gram.shape)
    for s, panel in zip(gram.starts, gram.panels):
        assert panel.flags.c_contiguous
        dense[s : s + len(panel), s:] = panel
    assert not np.tril(dense, -1).any()
    assert np.max(np.abs(dense - oracle)) <= 1e-15 * a.shape[0] * np.max(np.abs(oracle))


@pytest.mark.parametrize("shape, kernel", [((40, 9), "_window_gram"), ((9, 40), "_block_gram")])
def test_snapshot_svd_of_an_ndarray_takes_the_stack_kernels(monkeypatch, shape, kernel):
    calls = {"_window_gram": 0, "_block_gram": 0}

    def counting(name):
        real = getattr(embedding, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        return call

    for name in calls:
        monkeypatch.setattr(embedding, name, counting(name))
    a = np.random.default_rng(15).normal(size=shape)
    svd = snapshot_svd(a, rank=3)
    assert calls == {name: int(name == kernel) for name in calls}
    assert np.allclose(svd.singular, np.linalg.svd(a, compute_uv=False)[:3], rtol=1e-12)


def _failing(real):
    def call(*args, **kwargs):
        *outputs, _ = real(*args, **kwargs)
        return (*outputs, 7)

    return call


def _split_tridiagonal_matrix():
    """Two blocks of columns on disjoint rows: the Gram's tridiagonal
    splits in two, and its top two eigenvalues, 9 and 4, lie in
    different blocks."""
    rng = np.random.default_rng(12)
    a = np.zeros((9, 6))
    for rows, cols, sigma in ((slice(0, 5), slice(0, 3), [3.0, 1.0, 0.5]),
                              (slice(5, 9), slice(3, 6), [2.0, 0.8, 0.3])):
        u, _ = np.linalg.qr(rng.normal(size=(rows.stop - rows.start, 3)))
        v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        a[rows, cols] = (u * sigma) @ v.T
    return a


@pytest.mark.parametrize("routine", ["dsytrd", "dsterf", "dstebz", "dstein", "dormqr",
                                     "ssytrd", "sstebz", "sstein", "sormqr", "dgeqrf", "dorgqr"])
def test_snapshot_svd_names_a_failing_lapack_routine(monkeypatch, routine):
    # a 6 x 6 Gram takes every eigenvalue from dsterf; at 48 x 48, rank 2
    # is within 48 / 16, so its eigenvalues come from bisection. An auto
    # rank of a Gram of order _SINGLE_MIN or more is found in single
    # precision and refined with dgeqrf and dorgqr
    rank = 2
    if routine[0] == "s" or routine in ("dgeqrf", "dorgqr"):
        monkeypatch.setattr(spectral, "_SINGLE_MIN", 64)
        matrix, rank = _low_rank_plus_noise(300, 200), "auto"
    elif routine == "dstebz":
        matrix = np.random.default_rng(16).normal(size=(80, 48))
    else:
        matrix = _split_tridiagonal_matrix()
    monkeypatch.setattr(spectral.lapack, routine, _failing(getattr(spectral.lapack, routine)))
    with pytest.raises(NumericalError, match=f"LAPACK {routine} failed"):
        snapshot_svd(matrix, rank=rank)


def test_snapshot_svd_top_vectors_across_a_split_tridiagonal():
    # inverse iteration takes the split tridiagonal as one block
    a = _split_tridiagonal_matrix()
    svd = snapshot_svd(a, rank=2)
    _, vectors = np.linalg.eigh(a.T @ a)
    # eigh's top two vectors, largest first, up to sign
    overlap = np.abs(np.sum(svd.right * vectors[:, [-1, -2]], axis=0))
    assert np.max(np.abs(overlap - 1.0)) <= 1e-12
    assert np.max(np.abs(svd.left.T @ svd.left - np.eye(2))) <= 1e-12
    assert np.max(np.abs(svd.singular - np.linalg.svd(a, compute_uv=False)[:2])) <= 1e-12


# ----------------------------------------------------------------------
# an auto rank in single precision
# ----------------------------------------------------------------------

def _low_rank_plus_noise(rows, cols, seed=0):
    """Four singular values from 400 down to 100 above a noise bulk near 16."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.normal(size=(rows, 4)))
    v, _ = np.linalg.qr(rng.normal(size=(cols, 4)))
    return (u * np.geomspace(400.0, 100.0, 4)) @ v.T + 0.5 * rng.normal(size=(rows, cols))


def _recording_refine(monkeypatch):
    """Patch spectral._refine to record whether each call gave an answer."""
    refined = []
    refine = spectral._refine

    def recording(*args):
        found = refine(*args)
        refined.append(found is not None)
        return found

    monkeypatch.setattr(spectral, "_refine", recording)
    return refined


@pytest.mark.parametrize("shape", [(300, 200), (200, 300)], ids=["time-side", "stack-side"])
def test_single_precision_path_matches_a_dense_eigh(monkeypatch, shape):
    # a float32 reduction decides the rank, and the float64 refinement
    # gives the Gram's top eigenpairs as a dense eigh does, on either side
    a = _low_rank_plus_noise(*shape)
    gram = a.T @ a if shape[1] <= shape[0] else a @ a.T
    values, vectors = np.linalg.eigh(gram)
    values, vectors = values[::-1], vectors[:, ::-1]
    double = snapshot_svd(a)
    refined = _recording_refine(monkeypatch)
    monkeypatch.setattr(spectral, "_SINGLE_MIN", 64)
    svd = snapshot_svd(a)
    assert refined == [True]
    r = svd.rank
    assert r == double.rank == 4
    assert np.max(np.abs(svd.singular**2 - values[:r]) / values[:r]) <= 1e-12
    got = svd.right if shape[1] <= shape[0] else svd.left
    assert np.max(np.abs(np.abs(np.sum(got * vectors[:, :r], axis=0)) - 1.0)) <= 1e-12
    assert np.max(np.abs(got.T @ got - np.eye(r))) <= 1e-14
    residual = np.linalg.norm(gram @ got - got * svd.singular**2, axis=0)
    assert np.max(residual) <= 16 * EPS * values[0]
    assert np.max(np.abs(svd.singular - double.singular) / double.singular) <= 1e-12


def _cut_within_the_bound():
    """An eigenvalue a hair below the threshold: rank 3 in float64, which
    float32's error bound cannot tell from 4."""
    rows, cols = 400, 128
    eigenvalues = _planted(cols, 4)
    sing = np.sqrt(eigenvalues)
    delta = spectral._hard_threshold(np.median(sing), rows, cols)
    eigenvalues[3] = delta**2 * (1 - 1e-9)
    return eigenvalues, rows, cols


def _slow_refinement():
    """A clear cut above a bulk that reaches 0.88 of the last eigenvalue
    kept: the refinement's error shrinks by about 0.7 a step, so it stalls."""
    rows, cols = 100_000, 100
    eigenvalues = np.concatenate([[10.0, 5.0, 1.0], np.linspace(0.88, 0.01, cols - 3)])
    delta = spectral._hard_threshold(np.median(np.sqrt(eigenvalues)), rows, cols)
    assert 0.9 < delta**2 < 0.95
    return eigenvalues, rows, cols


@pytest.mark.parametrize("case", ["cut-within-the-bound", "float32-floor", "stalled-refinement"])
def test_single_precision_fallbacks_give_the_float64_bits(monkeypatch, case):
    # where float32 cannot certify the rank, or the refinement stalls, the
    # float64 path runs on the Gram formed again and gives its bits
    if case == "cut-within-the-bound":
        eigenvalues, rows, cols = _cut_within_the_bound()
    elif case == "stalled-refinement":
        eigenvalues, rows, cols = _slow_refinement()
    else:  # a clear cut, which the single path takes until its floor is raised
        eigenvalues, rows, cols = _planted(128, 4), 400, 128
    gram = _gram(eigenvalues)
    want = spectral._top_singular(_packed(gram), "auto", rows, cols)
    refined = _recording_refine(monkeypatch)
    monkeypatch.setattr(spectral, "_SINGLE_MIN", 64)
    if case == "float32-floor":
        spectral._top_singular(_packed(gram), "auto", rows, cols, lambda: _packed(gram))
        assert refined == [True]
        refined.clear()
        monkeypatch.setattr(spectral, "_RESOLVE", 1e12)
    got = spectral._top_singular(_packed(gram), "auto", rows, cols, lambda: _packed(gram))
    assert refined == ([False] if case == "stalled-refinement" else [])
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    assert len(want[0]) == (3 if case == "cut-within-the-bound" else len(got[0]))


def test_single_precision_path_takes_only_an_auto_rank_with_a_gram_formed_again(monkeypatch):
    # a fixed rank, a Gram below _SINGLE_MIN, or one that cannot be formed
    # again (tls-hankel's scaled stack Gram) keeps the float64 path
    a = _low_rank_plus_noise(300, 200)
    gram = np.triu(a.T @ a)
    refined = _recording_refine(monkeypatch)
    single = []
    monkeypatch.setattr(spectral, "_single_start",
                        lambda *args: single.append(1) or None)
    snapshot_svd(a, rank=4)
    snapshot_svd(a)
    monkeypatch.setattr(spectral, "_SINGLE_MIN", 64)
    snapshot_svd(a, rank=4)
    spectral._top_singular(_packed(gram), "auto", 300, 200)
    assert single == [] and refined == []
    snapshot_svd(a)
    assert single == [1]


def test_top_vectors_allocate_no_second_square_array():
    # the vectors come out n x r and the reflectors are read one n x 64
    # panel at a time, so the solve adds far less than the n x n matrix
    import tracemalloc

    n, r = 600, 8
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2 * n, n)) * np.linspace(1.0, 0.01, n)
    gram = x.T @ x
    spectral._SymmetricEigen(gram.copy()).top_vectors(r)  # first-call set-up out of the count
    matrix = gram.copy()
    tracemalloc.start()
    try:
        vectors = spectral._SymmetricEigen(matrix).top_vectors(r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * gram.nbytes, (peak, gram.nbytes)
    assert vectors.shape == (n, r)
    residual = gram @ vectors - vectors * np.linalg.eigvalsh(gram)[: -r - 1 : -1]
    assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(gram))


# ----------------------------------------------------------------------
# projected dynamics and eigendecomposition
# ----------------------------------------------------------------------

def test_projected_dynamics_self_map_is_identity():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(20, 6))
    svd = snapshot_svd(a, rank=6)
    assert np.max(np.abs(projected_dynamics(a, svd) - np.eye(6))) <= 1e-9


def test_projected_dynamics_recovers_known_spectrum():
    rng = np.random.default_rng(9)
    a_true = np.diag([0.95, 0.7, -0.4]) + 0.05 * rng.normal(size=(3, 3))
    x = np.empty((3, 40))
    x[:, 0] = rng.normal(size=3)
    for k in range(1, 40):
        x[:, k] = a_true @ x[:, k - 1]
    source, target = x[:, :-1], x[:, 1:]
    svd = snapshot_svd(source, rank=3)
    a_tilde = projected_dynamics(target, svd)
    got = np.sort_complex(np.linalg.eigvals(a_tilde))
    want = np.sort_complex(np.linalg.eigvals(a_true))
    assert np.max(np.abs(got - want)) <= 1e-8


# (tau, wrap) for a 3 x 40 matrix: N tau >= W takes the time-side Gram,
# N tau < W the stack side
SHIFT_STACKS = [
    pytest.param(20, True, id="circular-time-side"),  # 60 x 40
    pytest.param(5, True, id="circular-stack-side"),  # 15 x 40
    pytest.param(16, False, id="hankel-time-side"),  # 48 x 24
    pytest.param(5, False, id="hankel-stack-side"),  # 15 x 35
]


@pytest.mark.parametrize("tau, wrap", SHIFT_STACKS)
def test_shift_dynamics_match_projected_dynamics(tau, wrap):
    # three oscillations (rank 6) and a little noise, fit at rank 6
    rng = np.random.default_rng(tau)
    hours = np.arange(40.0)
    x = sum(np.outer(rng.normal(size=3), np.cos(2 * np.pi * hours / period + rng.uniform()))
            for period in (12.0, 8.0, 5.0))
    x = x + 1e-3 * rng.normal(size=x.shape)
    source, target = DelayStack(x, tau, 0, wrap), DelayStack(x, tau, 1, wrap)

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    svd = snapshot_svd(source, rank=6)
    edge = None if wrap else target.column(target.width - 1)
    assert_close(spectral._shift_dynamics(svd, edge), projected_dynamics(target, svd))
    if not wrap:  # fb-hankel's backward leg, in the source's POD basis
        # the dense least squares (U* S)(U* T)^+ of the source on the target
        stack = svd.left.T @ np.vstack([x[:, i : i + 41 - tau] for i in range(tau)])
        assert_close(spectral._backward_dynamics(svd, edge),
                     stack[:, :-1] @ np.linalg.pinv(stack[:, 1:]))


def test_projected_dynamics_scalar_formula():
    rng = np.random.default_rng(10)
    source = rng.normal(size=(5, 4))
    target = rng.normal(size=(5, 4))
    svd = snapshot_svd(source, rank=1)
    a = projected_dynamics(target, svd)
    expected = (svd.left[:, 0] @ target @ svd.right[:, 0]) / svd.singular[0]
    assert abs(a[0, 0] - expected) <= 1e-12


def test_eigendecompose_diagonal():
    eigs, w = eigendecompose(np.diag([2.0, 0.5]))
    assert np.allclose(eigs, [2.0, 0.5])
    assert np.allclose(np.abs(w), np.eye(2))


def test_eigendecompose_rotation():
    theta = 0.3
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    eigs, _ = eigendecompose(rot)
    expected = np.array([np.exp(1j * theta), np.exp(-1j * theta)])
    assert np.max(np.abs(np.sort_complex(eigs) - np.sort_complex(expected))) <= 1e-12


def test_eigendecompose_reassembly():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5))
    eigs, w = eigendecompose(a)
    rebuilt = w @ np.diag(eigs) @ np.linalg.inv(w)
    assert np.max(np.abs(rebuilt - a)) <= 1e-8
    # verification of the eigenpair relation itself
    assert np.max(np.abs(a @ w - w * eigs)) <= 1e-9


def test_eigendecompose_ordering():
    eigs, _ = eigendecompose(np.diag([0.5, 2.0, -1.0]))
    assert np.all(np.diff(np.abs(eigs)) <= 1e-12)


# ----------------------------------------------------------------------
# modes and amplitudes
# ----------------------------------------------------------------------

def test_dynamic_modes_flavors_agree_up_to_scale():
    # same column spaces: exact modes are projected modes scaled by eigenvalues
    rng = np.random.default_rng(12)
    a = rng.normal(size=(30, 8))
    svd = snapshot_svd(a, rank=8)
    a_tilde = projected_dynamics(a, svd)
    eigs, w = eigendecompose(a_tilde)
    exact = dynamic_modes(a, svd, w, "exact")
    projected = dynamic_modes(a, svd, w, "projected")
    for k in range(8):
        cosine = np.abs(np.vdot(exact[:, k], projected[:, k])) / (
            np.linalg.norm(exact[:, k]) * np.linalg.norm(projected[:, k])
        )
        assert cosine >= 1 - 1e-8


def test_dynamic_modes_rank_one_direction():
    rng = np.random.default_rng(13)
    source = rng.normal(size=(10, 6))
    target = rng.normal(size=(10, 6))
    svd = snapshot_svd(source, rank=1)
    phi = dynamic_modes(target, svd, np.array([[1.0]]), "exact")
    expected = target @ svd.right[:, 0] / svd.singular[0]
    assert np.allclose(phi[:, 0], expected)


def test_dynamic_modes_parallel_to_true_eigenvectors():
    theta = 2 * np.pi / 17
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    x = np.empty((2, 60))
    x[:, 0] = [1.0, 0.2]
    for k in range(1, 60):
        x[:, k] = rot @ x[:, k - 1]
    svd = snapshot_svd(x[:, :-1], rank=2)
    a_tilde = projected_dynamics(x[:, 1:], svd)
    eigs, w = eigendecompose(a_tilde)
    phi = dynamic_modes(x[:, 1:], svd, w, "exact")
    true_eigs, true_vecs = np.linalg.eig(rot)
    for k in range(2):
        j = int(np.argmin(np.abs(true_eigs - eigs[k])))
        v = true_vecs[:, j]
        cosine = np.abs(np.vdot(phi[:, k], v)) / (np.linalg.norm(phi[:, k]) * np.linalg.norm(v))
        assert cosine >= 1 - 1e-8


def test_amplitudes_identity_modes():
    c1 = np.array([3.0, -2.0, 0.5])
    assert np.allclose(amplitudes(np.eye(3), c1), c1)


def test_amplitudes_unitary_modes():
    rng = np.random.default_rng(14)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    c1 = rng.normal(size=6)
    assert np.max(np.abs(amplitudes(q, c1) - q.conj().T @ c1)) <= 1e-12


def test_amplitudes_recover_forward_constructed():
    rng = np.random.default_rng(15)
    phi = rng.normal(size=(40, 5)) + 1j * rng.normal(size=(40, 5))
    b_true = rng.normal(size=5) + 1j * rng.normal(size=5)
    b = amplitudes(phi, phi @ b_true)
    assert np.max(np.abs(b - b_true)) <= 1e-9


def test_amplitudes_empty_modes():
    with pytest.raises(RankDeficiencyError):
        amplitudes(np.zeros((4, 0)), np.ones(4))


# ----------------------------------------------------------------------
# evolution, reconstruction, extrapolation
# ----------------------------------------------------------------------

def test_vandermonde_rows():
    assert np.allclose(vandermonde(np.array([1.0]), 4), [[1, 1, 1, 1]])
    assert np.allclose(vandermonde(np.array([1j]), 4), [[1, 1j, -1, -1j]])
    assert np.allclose(vandermonde(np.array([2.0]), 3), [[1, 2, 4]])


def test_vandermonde_flushes_subnormal_powers():
    # 0.5^k is subnormal for 1022 < k < 1075: flushed to exactly zero
    eigs = np.array([1.0, 0.5])
    psi = vandermonde(eigs, 2000)
    magnitude = np.abs(psi)
    assert not np.any((magnitude > 0) & (magnitude < np.finfo(float).tiny))
    assert psi[1, 1022] == 0.5**1022 and np.all(psi[1, 1023:] == 0)
    rng = np.random.default_rng(20)
    modes = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    spec = _spectrum(eigs, modes, [1.0 - 0.5j, 2.0 + 1j])
    unflushed = np.real((modes * spec.amplitudes) @ np.vander(eigs, 2000, increasing=True))
    assert np.array_equal(reconstruct(spec, 2000), unflushed)


# Powers that turn subnormal inside a block (0.5^k for 1022 < k < 1075,
# and the square of 1e-155), growth, unit modulus and an exact 0. The
# square of 1.08 exp(0.3i) rounds apart in numpy's vector and scalar loops.
KERNEL_EIGENVALUES = np.array([
    0.5, -0.5, 0.5 * np.exp(0.7j), 0.5j, 1.0, 1.02 * np.exp(-0.2j),
    1.08 * np.exp(0.3j), 0.999 * np.exp(2.1j), 1e-155 * np.exp(0.4j), 0.0,
], dtype=complex)


def _flushed_vander(eigenvalues, horizon):
    psi = np.vander(eigenvalues, N=horizon, increasing=True)
    psi[np.abs(psi) < np.finfo(float).tiny] = 0.0
    return psi


def _same_bits(a, b):
    bits = [np.ascontiguousarray(m).view(np.int64) for m in (a, b)]
    return a.shape == b.shape and np.array_equal(*bits)


@pytest.mark.parametrize("horizon", [1, 2, 3, 4, 63, 64, 65, 1100, 2000])
@pytest.mark.parametrize("cells", ["default", 1])
def test_vandermonde_is_np_vander_flushed_bit_for_bit(monkeypatch, cells, horizon):
    if cells != "default":
        monkeypatch.setattr(spectral, "_BLOCK_CELLS", cells)
    if horizon == 1100 and cells == 1:
        # 64-column blocks: a block starts at 1024, so the carry is subnormal
        bounds = spectral._column_blocks(len(KERNEL_EIGENVALUES), horizon)
        assert 1024 in [cols.start for cols in bounds]
    want = _flushed_vander(KERNEL_EIGENVALUES, horizon)
    assert _same_bits(vandermonde(KERNEL_EIGENVALUES, horizon), want)


@pytest.mark.parametrize("width,cuts", [
    (1100, [1]), (1100, [1, 2]), (1100, [2, 3, 1023]), (1100, [1024, 1099]),
    (1100, [64, 1030]), (3, [1]), (3, [2]), (4, [1, 2]), (4, [3]), (5, [3]),
])
def test_power_blocks_do_not_depend_on_where_the_slices_fall(width, cuts):
    # one-column blocks and one-product runs included: np.vander's own
    # product of width 3 runs numpy's vector loop, of width 4 the scalar one
    bounds = [slice(a, b) for a, b in zip([0, *cuts], [*cuts, width])]
    blocks = list(spectral._power_blocks(KERNEL_EIGENVALUES, bounds, width))
    assert all(block.flags.f_contiguous for block in blocks)
    assert _same_bits(np.hstack(blocks), _flushed_vander(KERNEL_EIGENVALUES, width))
    [head] = spectral._power_blocks(KERNEL_EIGENVALUES, [slice(0, cuts[0])], width)
    assert _same_bits(head, blocks[0])


def test_vandermonde_horizon_range():
    with pytest.raises(RangeError):
        vandermonde(np.array([1.0]), 0)


def test_reconstruct_single_constant_mode():
    spec = _spectrum([1.0], np.ones((4, 1)), [1.0])
    assert np.allclose(reconstruct(spec, 5), np.ones((4, 5)))


def test_reconstruct_conjugate_pair_is_cosine():
    omega = 0.7
    eigs = [np.exp(1j * omega), np.exp(-1j * omega)]
    modes = np.ones((3, 2), dtype=complex)
    amps = [0.5, 0.5]  # conjugate amplitudes
    spec = _spectrum(eigs, modes, amps)
    rec = reconstruct(spec, 20)
    expected = np.cos(omega * np.arange(20))
    assert np.max(np.abs(rec - expected[None, :])) <= 1e-12


def test_reconstruct_noise_free_linear_system():
    from circdmd import SpeedMatrix, VariantConfig, anti_circulant, apply_right_permutation, fit

    rng = np.random.default_rng(16)
    t = 36
    hours = np.arange(t)
    vals = (
        4.0
        + np.outer(rng.normal(size=3), np.cos(2 * np.pi * hours / 12))
        + np.outer(rng.normal(size=3), np.sin(2 * np.pi * hours / 9))
    )
    data = SpeedMatrix(values=vals, delta_t=1.0)
    spec = fit(data, VariantConfig(method="circ", tau=6))
    cp = apply_right_permutation(anti_circulant(data, 6))
    rec = reconstruct(spec, t)
    assert np.max(np.abs(rec - cp.values)) <= 1e-6


# ----------------------------------------------------------------------
# spectral invariants
# ----------------------------------------------------------------------

def test_unit_circle_eigenvalues_on_periodic_data():
    from circdmd import SpeedMatrix, VariantConfig, fit

    rng = np.random.default_rng(19)
    t, period = 48, 12
    vals = 3.0 + np.outer(rng.normal(size=4), np.cos(2 * np.pi * np.arange(t) / period))
    spec = fit(SpeedMatrix(values=vals, delta_t=1.0), VariantConfig(method="circ", tau=8))
    assert np.max(np.abs(np.abs(spec.eigenvalues) - 1.0)) <= 1e-6


def test_conjugate_closure_and_real_reconstruction():
    from circdmd import SpeedMatrix, VariantConfig, fit, vandermonde as vmd

    rng = np.random.default_rng(20)
    t = 40
    vals = 2.0 + np.outer(rng.normal(size=3), np.cos(2 * np.pi * np.arange(t) / 10 + 0.4))
    spec = fit(SpeedMatrix(values=vals, delta_t=1.0), VariantConfig(method="circ", tau=5))
    eigs = spec.eigenvalues
    # closed under conjugation
    for ev in eigs:
        assert np.min(np.abs(eigs - np.conj(ev))) <= 1e-9
    # imaginary part of the complex reconstruction is negligible
    psi = vmd(eigs, t)
    product = (spec.modes * spec.amplitudes) @ psi
    assert np.max(np.abs(product.imag)) <= 1e-9 * max(np.max(np.abs(product.real)), 1.0)
