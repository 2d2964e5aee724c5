import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve

from circdmd import NumericalError, RangeError, build_quadratic, snapshot_svd, vandermonde
from circdmd.sparsity import QuadraticForm, admm_sparsify, gamma_path, polish
from circdmd import sparsity
from circdmd.sparsity import _soft_threshold


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
    b_star = np.linalg.solve(form.p, form.q)
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
    # J(b* + h) - J(b*) = h* P h at the minimiser b* = P^-1 q
    modes, psi, svd, _ = _random_instance(r=4, t=25, seed=4)
    form = build_quadratic(modes, psi, svd)
    b_star = np.linalg.solve(form.p, form.q)
    rng = np.random.default_rng(4)
    for _ in range(5):
        h = 1e-3 * (rng.normal(size=4) + 1j * rng.normal(size=4))
        rise = np.real(h.conj() @ form.p @ h)
        assert abs(form.loss(b_star + h) - form.loss(b_star) - rise) <= 1e-8 * max(form.s, 1.0)


# ----------------------------------------------------------------------
# ADMM support selection
# ----------------------------------------------------------------------

def test_admm_gamma_zero_matches_unregularized():
    modes, psi, svd, _ = _random_instance(r=4, t=25, seed=5)
    form = build_quadratic(modes, psi, svd)
    solution = admm_sparsify(form, gamma=0.0)
    expected = np.linalg.solve(form.p, form.q)
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


def test_admm_diagonal_solution_matches_soft_threshold_oracle(monkeypatch):
    monkeypatch.setattr(sparsity, "_EPS_ABS", 1e-10)
    monkeypatch.setattr(sparsity, "_EPS_REL", 1e-8)
    p_diag = np.array([2.0, 0.5, 1.0])
    q = np.array([4.0 * np.exp(0.3j), -1.0, 0.2j])
    form = _diagonal_form(p_diag, q)
    for gamma in (0.5, 1.5, 3.0):
        solution = admm_sparsify(form, gamma=gamma)
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
    with pytest.raises(RangeError, match="got nan"):  # it returned all-zero amplitudes
        admm_sparsify(form, gamma=float("nan"))


# ----------------------------------------------------------------------
# polishing
# ----------------------------------------------------------------------

def test_polish_full_support_is_unregularized():
    modes, psi, svd, _ = _random_instance(r=4, t=22, seed=7)
    form = build_quadratic(modes, psi, svd)
    b = polish(form, np.ones(4, dtype=bool))
    assert np.max(np.abs(b - np.linalg.solve(form.p, form.q))) <= 1e-9


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


@pytest.mark.parametrize("gammas", [pytest.param([-1.0], id="negative"),
                                    pytest.param([0.0, np.nan], id="nan")])
def test_gamma_path_requires_values_at_least_zero(gammas):
    form = _diagonal_form([1.0], [1.0])
    with pytest.raises(RangeError, match="gammas must be sorted ascending and >= 0"):
        gamma_path(form, gammas)


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


def _admm_through_cho_solve(form, gamma, state, rho=1.0, max_iter=10000,
                            eps_abs=1e-6, eps_rel=1e-4):
    """The ADMM loop with each b-update taken by scipy.linalg.cho_solve."""
    r = form.q.shape[0]
    lhs = cho_factor(form.p + (rho / 2.0) * np.eye(r))
    if state is None:
        b = beta = u = np.zeros(r, dtype=complex)
    else:
        b, beta, u = (np.array(x, dtype=complex) for x in state)
    converged = False
    for iterations in range(1, max_iter + 1):
        b = cho_solve(lhs, form.q + (rho / 2.0) * (beta - u))
        beta_prev = beta
        beta = _soft_threshold(b + u, gamma / rho)
        u = u + b - beta
        r_primal = np.linalg.norm(b - beta)
        r_dual = np.linalg.norm(rho * (beta - beta_prev))
        eps_pri = np.sqrt(r) * eps_abs + eps_rel * max(np.linalg.norm(b), np.linalg.norm(beta))
        eps_dual = np.sqrt(r) * eps_abs + eps_rel * np.linalg.norm(rho * u)
        if r_primal <= eps_pri and r_dual <= eps_dual:
            converged = True
            break
    return (b, beta, u), iterations, converged


def test_admm_path_is_bit_identical_to_a_cho_solve_loop():
    modes, psi, svd, _ = _random_instance(r=8, t=40, seed=3)
    form = build_quadratic(modes, psi, svd)
    scale = float(np.max(np.abs(form.q)))
    gammas = [0.0, 0.05 * scale, 0.3 * scale, 3.0 * scale]
    state = None
    counts = []
    for gamma, solution in zip(gammas, gamma_path(form, gammas)):
        state, iterations, converged = _admm_through_cho_solve(form, gamma, state)
        assert all(np.array_equal(got, want) for got, want in zip(solution._state, state))
        assert (solution.iterations, solution.converged) == (iterations, converged)
        support = np.abs(state[1]) > 0 if gamma > 0 else np.ones(8, dtype=bool)
        polished = polish(form, support) if support.any() else np.zeros(8, dtype=complex)
        assert np.array_equal(solution.amplitudes_polished, polished)
        counts.append(solution.nonzero_count)
    # the path prunes and warm-starts: not every level is all or nothing
    assert any(0 < count < 8 for count in counts), counts
