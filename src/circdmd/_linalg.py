"""Dense products and solves through scipy's BLAS and LAPACK.

numpy and scipy each bundle an OpenBLAS with its own thread pool. After
a call, a pool's worker threads spin for a while before they sleep, so
a numpy product right after a scipy factorisation (or the reverse) runs
beside the other pool's spinning threads. The Gram eigensolves go
through scipy, so the rest of a fit, ``predict`` or analysis pass does
too: its products and square solves by way of this module, its small
eigenproblems and least squares through ``scipy.linalg``. numpy's pool
is then never woken.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas, lapack


def dot(a, b):
    """``a @ b`` for 1-D or 2-D operands, formed by scipy's BLAS.

    Operands are taken as float64 or complex128. A C- or F-contiguous
    operand reaches BLAS without a copy, as the transpose of the other
    order; any other layout is copied. Real times complex is one real
    product on the complex operand's float view, which reads its
    (real, imaginary) pairs as twice the columns, so no complex copy of
    the real operand is made. The result is C-ordered, but complex
    times real, which is formed as the transpose of real times complex,
    is F-ordered. A structured stack (one with ``gram``, such as
    :class:`circdmd.embedding.DelayStack`, also the one-block stack an
    ndarray becomes in the SVD) forms its own products, one per block.
    """
    if hasattr(a, "gram") or hasattr(b, "gram"):
        return a @ b
    a, b = _blas_operand(a), _blas_operand(b)
    if a.ndim == 1:
        return dot(a[None, :], b)[0]
    if b.ndim == 1:
        return dot(a, b[:, None])[:, 0]
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"dot takes 1-D or 2-D operands, got ndim {a.ndim} and {b.ndim}")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dot: shapes {a.shape} and {b.shape} do not conform")
    if a.dtype == b.dtype:
        return _gemm(a, b)
    if a.dtype == np.float64:
        pairs = np.ascontiguousarray(b).view(np.float64)
        return _gemm(a, pairs).view(np.complex128)
    return dot(b.T, a.T).T


def _blas_operand(m) -> np.ndarray:
    m = np.asarray(m)
    return m.astype(np.result_type(m, np.float64), copy=False)


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C-ordered ``a @ b`` of one dtype: BLAS forms b.T @ a.T, whose
    F-ordered result is the same memory."""
    gemm = blas.zgemm if a.dtype == np.complex128 else blas.dgemm
    (p, trans_p), (q, trans_q) = _transposed(b), _transposed(a)
    return gemm(1.0, p, q, trans_a=trans_p, trans_b=trans_q).T


def _transposed(m: np.ndarray):
    """(f, trans): an F-contiguous f with op(f) = m.T, op being the
    transpose when ``trans`` is 1."""
    if m.flags.f_contiguous:
        return m, 1
    return np.ascontiguousarray(m).T, 0


def solve(a, b) -> np.ndarray:
    """``numpy.linalg.solve(a, b)`` by LAPACK ``gesv``, for 1-D or 2-D b.

    Raises LinAlgError when LU finds ``a`` exactly singular. Unlike
    ``scipy.linalg.solve``, it does not estimate the condition number,
    nor warn on an ill-conditioned ``a``.
    """
    a, b = _blas_operand(a), _blas_operand(b)
    column = b.ndim == 1
    gesv = lapack.get_lapack_funcs("gesv", (a, b))
    _, _, x, info = gesv(a, b[:, None] if column else b)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"LAPACK gesv: illegal value in argument {-info}")
    return x[:, 0] if column else x


def inv(a) -> np.ndarray:
    """``numpy.linalg.inv(a)``: :func:`solve` against the identity."""
    a = _blas_operand(a)
    return solve(a, np.eye(a.shape[0], dtype=a.dtype))
