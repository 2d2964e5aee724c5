"""Sparsity-promoting amplitude selection.

The trajectory-wide amplitude objective is compressed to an r x r
Hermitian quadratic form, minimized under an l1 penalty by ADMM
(magnitude soft-thresholding preserves phase), and the surviving
support is re-fit exactly through the equality-constrained KKT system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import NumericalError, RangeError, ShapeError
from .spectral import ReducedSvd


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
        value = b.conj() @ self.p @ b - self.q.conj() @ b - b.conj() @ self.q + self.s
        return float(np.real(value))

    def gradient(self, b: np.ndarray) -> np.ndarray:
        return 2.0 * (self.p @ b - self.q)

    def unregularized_minimizer(self) -> np.ndarray:
        return np.linalg.solve(self.p, self.q)


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
    s = trace(G* G), where o is the elementwise product.
    """
    modes_projected = np.asarray(modes_projected)
    psi = np.asarray(psi)
    if modes_projected.shape[0] != target_svd.left.shape[0]:
        raise ShapeError(
            f"modes have {modes_projected.shape[0]} rows, "
            f"left factor {target_svd.left.shape[0]}"
        )
    if modes_projected.shape[1] != psi.shape[0]:
        raise ShapeError(
            f"{modes_projected.shape[1]} modes but {psi.shape[0]} evolution rows"
        )
    g = target_svd.singular[:, None] * target_svd.right.conj().T
    if g.shape[1] != psi.shape[1]:
        raise ShapeError(
            f"target spans {g.shape[1]} columns, evolution {psi.shape[1]}"
        )
    phi_pod = target_svd.left.conj().T @ modes_projected
    p = (phi_pod.conj().T @ phi_pod) * np.conj(psi @ psi.conj().T)
    p = 0.5 * (p + p.conj().T)
    q = np.conj(np.diag(psi @ g.conj().T @ phi_pod))
    s = float(np.real(np.trace(g.conj().T @ g)))
    return QuadraticForm(p=p, q=q, s=s)


def _soft_threshold(v: np.ndarray, kappa: float) -> np.ndarray:
    """Shrink magnitudes by kappa, preserving phase; exact zeros below kappa."""
    if kappa <= 0:
        return v.copy()
    mag = np.abs(v)
    scale = np.where(mag > kappa, 1.0 - kappa / np.maximum(mag, kappa), 0.0)
    return v * scale


def _admm_iterate(form, gamma, rho, max_iter, eps_abs, eps_rel, state=None):
    r = form.q.shape[0]
    lhs = cho_factor(form.p + (rho / 2.0) * np.eye(r))
    if state is None:
        b = np.zeros(r, dtype=complex)
        beta = np.zeros(r, dtype=complex)
        u = np.zeros(r, dtype=complex)
    else:
        b, beta, u = (np.array(x, dtype=complex) for x in state)

    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        b = cho_solve(lhs, form.q + (rho / 2.0) * (beta - u))
        beta_prev = beta
        beta = _soft_threshold(b + u, gamma / rho)
        u = u + b - beta
        r_primal = np.linalg.norm(b - beta)
        r_dual = np.linalg.norm(rho * (beta - beta_prev))
        eps_pri = np.sqrt(r) * eps_abs + eps_rel * max(
            np.linalg.norm(b), np.linalg.norm(beta)
        )
        eps_dual = np.sqrt(r) * eps_abs + eps_rel * np.linalg.norm(rho * u)
        if r_primal <= eps_pri and r_dual <= eps_dual:
            converged = True
            break
    return b, beta, u, iterations, converged


def admm_sparsify(
    form: QuadraticForm,
    gamma: float,
    rho: float = 1.0,
    max_iter: int = 10000,
    eps_abs: float = 1e-6,
    eps_rel: float = 1e-4,
    _state=None,
) -> SparsitySolution:
    """Determine the amplitude support for one penalty level.

    Splits b - beta = 0; the b-update solves the regularized normal
    system (factored once and reused), the beta-update soft-thresholds
    at gamma/rho, and the scaled dual accumulates the gap. Stops on the
    combined absolute/relative residual test; non-convergence returns
    the last iterate with ``converged=False``. The surviving support is
    then polished through the KKT refit.
    """
    if gamma < 0:
        raise RangeError(f"gamma must be >= 0, got {gamma}")
    if rho <= 0:
        raise RangeError(f"rho must be positive, got {rho}")
    b, beta, u, iterations, converged = _admm_iterate(
        form, gamma, rho, max_iter, eps_abs, eps_rel, _state
    )
    support = np.ones(beta.shape, dtype=bool) if gamma == 0 else np.abs(beta) > 0
    if support.any():
        polished = polish(form, support)
    else:
        polished = np.zeros_like(beta)
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

    Solves the KKT system [P, E; E*, 0] [b; nu] = [q; 0] where E's
    columns are the unit vectors of the off-support indices.
    """
    support = np.asarray(support, dtype=bool)
    r = form.q.shape[0]
    if support.shape != (r,):
        raise ShapeError(f"support length {support.shape} does not match r={r}")
    if not support.any():
        raise RangeError("support must be nonempty")
    off = np.flatnonzero(~support)
    k = off.size
    if k == 0:
        try:
            return form.unregularized_minimizer()
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"singular KKT system: {exc}") from exc
    e = np.eye(r, dtype=complex)[:, off]
    kkt = np.block([[form.p, e], [e.conj().T, np.zeros((k, k), dtype=complex)]])
    rhs = np.concatenate([form.q, np.zeros(k, dtype=complex)])
    try:
        solution = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"singular KKT system: {exc}") from exc
    b = solution[:r]
    b[off] = 0.0
    return b


def gamma_path(
    form: QuadraticForm,
    gammas,
    rho: float = 1.0,
    max_iter: int = 10000,
    eps_abs: float = 1e-6,
    eps_rel: float = 1e-4,
) -> list:
    """Solve an ascending sequence of penalties with warm starts."""
    gammas = list(gammas)
    if any(b < a for a, b in zip(gammas, gammas[1:])):
        raise RangeError("gammas must be sorted ascending")
    solutions = []
    state = None
    for gamma in gammas:
        solution = admm_sparsify(
            form, gamma, rho=rho, max_iter=max_iter,
            eps_abs=eps_abs, eps_rel=eps_rel, _state=state,
        )
        state = solution._state
        solutions.append(solution)
    return solutions
