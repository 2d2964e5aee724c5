import numpy as np
import pytest

from circdmd import (
    NumericalError,
    QuadraticForm,
    RangeError,
    admm_sparsify,
    build_quadratic,
    gamma_path,
    polish,
    snapshot_svd,
    vandermonde,
)


def _direct_loss(g, phi_pod, psi, b):
    """Independent Frobenius evaluation of the amplitude objective."""
    return float(np.linalg.norm(g - phi_pod @ np.diag(b) @ psi) ** 2)


def _random_instance(r=4, t=20, seed=0):
    """A self-consistent (modes, psi, svd) triple from a random tall matrix."""
    rng = np.random.default_rng(seed)
    target = rng.normal(size=(3 * r, t))
    svd = snapshot_svd(target, rank=r)
    eigs = np.exp(1j * rng.uniform(-np.pi, np.pi, size=r))
    w = rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r))
    w /= np.linalg.norm(w, axis=0)
    modes = svd.left @ w
    psi = vandermonde(eigs, t)
    return modes, psi, svd, w


def _diagonal_form(p_diag, q):
    p_diag = np.asarray(p_diag, dtype=float)
    q = np.asarray(q, dtype=complex)
    s = float(np.real(np.sum(np.abs(q) ** 2 / p_diag)))  # makes min J = 0
    return QuadraticForm(p=np.diag(p_diag).astype(complex), q=q, s=s)


# ----------------------------------------------------------------------
# quadratic form construction
# ----------------------------------------------------------------------

def test_build_quadratic_scalar_case():
    # constant scalar signal, single unit mode, lambda = 1:
    # p = T, |q| = T, s = T and the full fit drives J to zero
    t = 7
    svd = snapshot_svd(np.ones((1, t)), rank=1)
    psi = vandermonde(np.array([1.0 + 0j]), t)
    form = build_quadratic(svd.left.astype(complex), psi, svd)
    assert abs(form.p[0, 0] - t) <= 1e-9
    assert abs(abs(form.q[0]) - t) <= 1e-9
    assert abs(form.s - t) <= 1e-9
    b_star = form.unregularized_minimizer()
    assert abs(abs(b_star[0]) - 1.0) <= 1e-9
    assert abs(form.loss(b_star)) <= 1e-9


def test_build_quadratic_matches_direct_frobenius():
    modes, psi, svd, w = _random_instance(r=4, t=20, seed=1)
    form = build_quadratic(modes, psi, svd)
    g = svd.singular[:, None] * svd.right.T
    rng = np.random.default_rng(2)
    for _ in range(10):
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        direct = _direct_loss(g, w, psi, b)
        assert abs(form.loss(b) - direct) <= 1e-8 * max(direct, 1.0)


def test_build_quadratic_hermitian():
    modes, psi, svd, _ = _random_instance(r=5, t=30, seed=3)
    form = build_quadratic(modes, psi, svd)
    assert np.max(np.abs(form.p - form.p.conj().T)) <= 1e-10


def test_full_least_squares_is_stationary():
    modes, psi, svd, _ = _random_instance(r=4, t=25, seed=4)
    form = build_quadratic(modes, psi, svd)
    b_star = form.unregularized_minimizer()
    assert np.max(np.abs(form.gradient(b_star))) <= 1e-8


# ----------------------------------------------------------------------
# ADMM support selection
# ----------------------------------------------------------------------

def test_admm_gamma_zero_matches_unregularized():
    modes, psi, svd, _ = _random_instance(r=4, t=25, seed=5)
    form = build_quadratic(modes, psi, svd)
    solution = admm_sparsify(form, gamma=0.0)
    expected = form.unregularized_minimizer()
    assert solution.support.all()
    assert np.max(np.abs(solution.amplitudes_sparse - expected)) <= 1e-6
    assert np.max(np.abs(solution.amplitudes_polished - expected)) <= 1e-9


def test_admm_huge_gamma_empties_support():
    form = _diagonal_form([1.0, 2.0], [3.0, 1.0])
    solution = admm_sparsify(form, gamma=1000.0)
    assert solution.nonzero_count <= 1
    assert solution.loss >= form.s - 1e-9 or solution.nonzero_count == 1
    empty = admm_sparsify(form, gamma=1e6)
    assert empty.nonzero_count == 0
    assert abs(empty.loss - form.s) <= 1e-12


def test_admm_diagonal_support_transitions():
    # coordinate i leaves the support at gamma = 2 |q_i|
    form = _diagonal_form([1.0, 1.0], [3.0, 1.0])
    counts = [admm_sparsify(form, gamma=g).nonzero_count for g in (1.0, 4.0, 7.0)]
    assert counts == [2, 1, 0]


def test_admm_diagonal_solution_matches_soft_threshold_oracle():
    p_diag = np.array([2.0, 0.5, 1.0])
    q = np.array([4.0 * np.exp(0.3j), -1.0, 0.2j])
    form = _diagonal_form(p_diag, q)
    for gamma in (0.5, 1.5, 3.0):
        solution = admm_sparsify(form, gamma=gamma, eps_abs=1e-10, eps_rel=1e-8)
        # closed form: b_i = (|q_i| - gamma/2)_+ / p_ii * phase(q_i)
        mags = np.maximum(np.abs(q) - gamma / 2.0, 0.0) / p_diag
        oracle = mags * np.exp(1j * np.angle(q))
        assert np.max(np.abs(solution.amplitudes_sparse - oracle)) <= 1e-5


def test_admm_feasibility_at_convergence():
    modes, psi, svd, _ = _random_instance(r=5, t=30, seed=6)
    form = build_quadratic(modes, psi, svd)
    solution = admm_sparsify(form, gamma=0.3)
    assert solution.converged
    sol_b = solution._state[0]
    assert np.linalg.norm(sol_b - solution.amplitudes_sparse) <= 1e-4


def test_admm_parameter_validation():
    form = _diagonal_form([1.0], [1.0])
    with pytest.raises(RangeError):
        admm_sparsify(form, gamma=-1.0)
    with pytest.raises(RangeError):
        admm_sparsify(form, gamma=0.0, rho=0.0)


# ----------------------------------------------------------------------
# polishing
# ----------------------------------------------------------------------

def test_polish_full_support_is_unregularized():
    modes, psi, svd, _ = _random_instance(r=4, t=22, seed=7)
    form = build_quadratic(modes, psi, svd)
    b = polish(form, np.ones(4, dtype=bool))
    assert np.max(np.abs(b - form.unregularized_minimizer())) <= 1e-9


def test_polish_single_coordinate_diagonal():
    form = _diagonal_form([2.0, 3.0], [4.0, 9.0])
    b = polish(form, np.array([False, True]))
    assert b[0] == 0.0
    assert abs(b[1] - 3.0) <= 1e-12  # q/p = 9/3


def test_polish_beats_restricted_admm_iterate():
    rng = np.random.default_rng(8)
    modes, psi, svd, _ = _random_instance(r=5, t=40, seed=8)
    form = build_quadratic(modes, psi, svd)
    solution = admm_sparsify(form, gamma=1.0)
    support = solution.support
    if not support.any():
        pytest.skip("support collapsed entirely for this draw")
    restricted = np.where(support, solution.amplitudes_sparse, 0.0)
    assert form.loss(solution.amplitudes_polished) <= form.loss(restricted) + 1e-10


def test_polish_optimality_under_perturbation():
    modes, psi, svd, _ = _random_instance(r=5, t=30, seed=9)
    form = build_quadratic(modes, psi, svd)
    support = np.array([True, True, False, True, False])
    b = polish(form, support)
    base = form.loss(b)
    for i in np.flatnonzero(support):
        for delta in (1e-4, -1e-4, 1e-4j, -1e-4j):
            bumped = b.copy()
            bumped[i] += delta
            assert form.loss(bumped) >= base - 1e-12


def test_polish_off_support_exactly_zero():
    modes, psi, svd, _ = _random_instance(r=6, t=30, seed=10)
    form = build_quadratic(modes, psi, svd)
    support = np.array([True, False, True, False, False, True])
    b = polish(form, support)
    assert np.all(b[~support] == 0.0)


def test_polish_rejects_empty_support():
    form = _diagonal_form([1.0], [1.0])
    with pytest.raises(RangeError):
        polish(form, np.array([False]))


def test_polish_singular_kkt():
    form = QuadraticForm(
        p=np.zeros((2, 2), dtype=complex), q=np.array([1.0, 1.0], dtype=complex), s=1.0
    )
    with pytest.raises(NumericalError):
        polish(form, np.array([True, True]))


# ----------------------------------------------------------------------
# gamma path
# ----------------------------------------------------------------------

def test_gamma_path_requires_sorted():
    form = _diagonal_form([1.0], [1.0])
    with pytest.raises(RangeError):
        gamma_path(form, [1.0, 0.5])


def test_gamma_path_counts_and_losses():
    form = _diagonal_form([1.0, 1.0, 1.0], [6.0, 2.0, 0.5])
    solutions = gamma_path(form, [0.0, 2.0, 5.0, 50.0])
    counts = [s.nonzero_count for s in solutions]
    assert counts[0] == 3
    assert counts == sorted(counts, reverse=True)
    losses = [s.loss for s in solutions]
    assert all(b >= a - 1e-10 for a, b in zip(losses, losses[1:]))


def test_gamma_path_warm_start_consistency():
    # warm-started path solutions match cold solves coordinate-wise
    form = _diagonal_form([1.0, 2.0], [5.0, 3.0])
    path = gamma_path(form, [0.0, 1.0, 4.0])
    for solution in path:
        cold = admm_sparsify(form, solution.gamma)
        assert np.array_equal(cold.support, solution.support)
        assert np.max(np.abs(cold.amplitudes_polished - solution.amplitudes_polished)) <= 1e-6
