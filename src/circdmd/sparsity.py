"""Sparsity-promoting amplitude selection.

The trajectory-wide amplitude objective is compressed to an r x r
Hermitian quadratic form, minimized under an l1 penalty by ADMM
(magnitude soft-thresholding preserves phase), and the surviving
support is re-fit exactly on its own rows and columns of the form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, lapack

from ._linalg import dot, solve
from .errors import NumericalError, RangeError, ShapeError
from .spectral import ReducedSvd

# ADMM's stopping tolerances, as in Boyd et al. 2011 (Distributed
# optimization and statistical learning via ADMM), section 3.3.1. The
# values, and sqrt(r) for Boyd's sqrt(p), are those of Jovanovic, Schmid &
# Nichols 2014, though a complex b has p = 2r real coordinates.
_EPS_ABS = 1e-6
_EPS_REL = 1e-4
# ADMM's penalty rho, in the updates and in Boyd et al.'s section 3.3.1
# dual residual. It sets how fast ADMM converges, not the minimiser; 1 is
# the value Jovanovic et al. 2014 use.
_RHO = 1.0


@dataclass(frozen=True)
class QuadraticForm:
    """J(b) = b* P b - q* b - b* q + s, the reduced amplitude objective.

    Equals ||G - Phi_pod diag(b) Psi||_F^2 where G is the POD-coordinate
    representation of the target trajectory; P is Hermitian PSD.
    """

    p: np.ndarray
    q: np.ndarray
    s: float

    def loss(self, b: np.ndarray) -> float:
        b = np.asarray(b, dtype=complex)
        b_conj = b.conj()
        value = dot(b_conj, dot(self.p, b)) - dot(self.q.conj(), b) - dot(b_conj, self.q) + self.s
        return float(np.real(value))


@dataclass(frozen=True)
class SparsitySolution:
    """Outcome of one sparsity level: ADMM support plus polished refit.

    ``_state`` is the final ADMM iterate (b, beta, u), which warm-starts
    the next level of a gamma path.
    """

    gamma: float
    amplitudes_sparse: np.ndarray
    support: np.ndarray
    amplitudes_polished: np.ndarray
    nonzero_count: int
    loss: float
    iterations: int
    converged: bool
    _state: tuple = field(repr=False)


def build_quadratic(
    modes_projected: np.ndarray, psi: np.ndarray, target_svd: ReducedSvd
) -> QuadraticForm:
    """Compress the Frobenius objective into POD coordinates.

    ``psi`` is the Vandermonde matrix of the eigenvalues over the
    target's columns. With Phi_pod = U* modes (the reduced
    eigenvectors) and G = S V.T:
    P = (Phi_pod* Phi_pod) o conj(Psi Psi*), q = conj(diag(Psi G* Phi_pod)),
    s = trace(G* G) = ||G||_F^2, where o is the elementwise product.
    """
    modes_projected = np.asarray(modes_projected)
    psi = np.asarray(psi)
    if modes_projected.shape[0] != target_svd.left.shape[0]:
        raise ShapeError(
            f"modes have {modes_projected.shape[0]} rows, "
            f"left factor {target_svd.left.shape[0]}"
        )
    if modes_projected.shape[1] != psi.shape[0]:
        raise ShapeError(f"{modes_projected.shape[1]} modes but {psi.shape[0]} evolution rows")
    g = target_svd.singular[:, None] * target_svd.right.conj().T
    if g.shape[1] != psi.shape[1]:
        raise ShapeError(f"target spans {g.shape[1]} columns, evolution {psi.shape[1]}")
    phi_pod = dot(target_svd.left.conj().T, modes_projected)
    p = dot(phi_pod.conj().T, phi_pod) * np.conj(dot(psi, psi.conj().T))
    p = 0.5 * (p + p.conj().T)
    q = np.conj(np.diag(dot(dot(psi, g.conj().T), phi_pod)))
    entries = g.ravel(order="K")  # g's cells in memory order, with no copy
    s = float(np.real(dot(entries.conj(), entries)))
    return QuadraticForm(p=p, q=q, s=s)


def _soft_threshold(v: np.ndarray, kappa: float) -> np.ndarray:
    """Shrink magnitudes by kappa, preserving phase; exact zeros below kappa."""
    if kappa <= 0:
        return v.copy()
    mag = np.abs(v)
    scale = np.where(mag > kappa, 1.0 - kappa / np.maximum(mag, kappa), 0.0)
    return v * scale


def _admm_iterate(form, gamma, max_iter, state=None):
    """The ADMM loop. Each b-update is LAPACK's ``potrs`` on the Cholesky
    factor, the call ``cho_solve`` makes after checking its operands,
    which the loop's own operands need not repeat."""
    r = form.q.shape[0]
    factor, lower = cho_factor(form.p + (_RHO / 2.0) * np.eye(r))
    potrs = lapack.get_lapack_funcs("potrs", (factor,))
    if state is None:
        b = np.zeros(r, dtype=complex)
        beta = np.zeros(r, dtype=complex)
        u = np.zeros(r, dtype=complex)
    else:
        b, beta, u = (np.array(x, dtype=complex) for x in state)

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        b, info = potrs(factor, form.q + (_RHO / 2.0) * (beta - u), lower=lower)
        if info != 0:
            raise NumericalError(f"LAPACK potrs failed (info = {info})")
        beta_prev = beta
        beta = _soft_threshold(b + u, gamma / _RHO)
        u = u + b - beta
        r_primal = np.linalg.norm(b - beta)
        r_dual = np.linalg.norm(_RHO * (beta - beta_prev))
        eps_pri = np.sqrt(r) * _EPS_ABS + _EPS_REL * max(np.linalg.norm(b), np.linalg.norm(beta))
        eps_dual = np.sqrt(r) * _EPS_ABS + _EPS_REL * np.linalg.norm(_RHO * u)
        if r_primal <= eps_pri and r_dual <= eps_dual:
            converged = True
            break
    return b, beta, u, iterations, converged


def admm_sparsify(
    form: QuadraticForm, gamma: float, max_iter: int = 10000, _state=None
) -> SparsitySolution:
    """Determine the amplitude support for one penalty level.

    Splits b - beta = 0; the b-update solves the regularized normal
    system (factored once and reused), the beta-update soft-thresholds
    at gamma/rho (rho = ``_RHO``), and the scaled dual accumulates the
    gap. Stops on the combined absolute/relative residual test;
    non-convergence returns the last iterate with ``converged=False``.
    The surviving support is then polished by an exact re-fit on the
    support.
    """
    if not gamma >= 0:  # NaN too
        raise RangeError(f"gamma must be >= 0, got {gamma}")
    b, beta, u, iterations, converged = _admm_iterate(form, gamma, max_iter, _state)
    support = np.ones(beta.shape, dtype=bool) if gamma == 0 else np.abs(beta) > 0
    polished = polish(form, support) if support.any() else np.zeros_like(beta)
    return SparsitySolution(
        gamma=float(gamma),
        amplitudes_sparse=beta,
        support=support,
        amplitudes_polished=polished,
        nonzero_count=int(support.sum()),
        loss=form.loss(polished),
        iterations=iterations,
        converged=converged,
        _state=(b, beta, u),
    )


def polish(form: QuadraticForm, support: np.ndarray) -> np.ndarray:
    """Minimize J(b) with off-support amplitudes pinned to zero.

    Solves the support's own system P[S, S] b_S = q_S, the same
    minimiser as Jovanovic et al. 2014's polishing KKT system
    [P, E; E*, 0] [b; nu] = [q; 0], whose E holds the unit vectors of
    the off-support indices.
    """
    support = np.asarray(support, dtype=bool)
    r = form.q.shape[0]
    if support.shape != (r,):
        raise ShapeError(f"support length {support.shape} does not match r={r}")
    if not support.any():
        raise RangeError("support must be nonempty")
    b = np.zeros(r, dtype=complex)
    try:
        b[support] = solve(form.p[np.ix_(support, support)], form.q[support])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular support system: {exc}") from exc
    return b


def _check_gammas(gammas) -> list:
    """``gammas`` as a list; a RangeError names a grid that is not
    ascending or holds a value below 0."""
    gammas = list(gammas)
    if any(b < a for a, b in zip(gammas, gammas[1:])) or not all(g >= 0 for g in gammas):
        raise RangeError(f"gammas must be sorted ascending and >= 0, got {gammas}")
    return gammas


def gamma_path(form: QuadraticForm, gammas, max_iter: int = 10000) -> list:
    """Solve an ascending sequence of penalties with warm starts."""
    solutions = []
    state = None
    for gamma in _check_gammas(gammas):
        solution = admm_sparsify(form, gamma, max_iter=max_iter, _state=state)
        state = solution._state
        solutions.append(solution)
    return solutions
