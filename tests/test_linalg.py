"""The one route for products and solves: scipy's BLAS and LAPACK.

``circdmd._linalg.dot`` is checked against numpy's ``@``, and a source
guard keeps numpy's products and factorisations out of the modules that
run during a fit, ``predict`` or analysis pass, so numpy's BLAS thread
pool is never woken beside scipy's.
"""

import ast
import inspect
import tracemalloc

import numpy as np
import pytest

from circdmd import _linalg, analysis, embedding, sparsity, spectral, variants
from circdmd._linalg import dot, inv, solve

RTOL = 1e-13


def _operand(kind, shape, order, rng):
    values = rng.normal(size=shape)
    if kind == "complex":
        values = values + 1j * rng.normal(size=shape)
    return np.asarray(values, order=order)


def _relative(got, want):
    """Largest difference over the largest |want|; the difference itself
    when want is all zero (an empty inner dimension)."""
    diff = np.max(np.abs(got - want), initial=0.0)
    scale = np.max(np.abs(want), initial=0.0)
    return diff / scale if scale else diff


KINDS = [("real", "real"), ("complex", "complex"), ("real", "complex"), ("complex", "real")]


@pytest.mark.parametrize("kind_a,kind_b", KINDS)
@pytest.mark.parametrize("order_a", ["C", "F"])
@pytest.mark.parametrize("order_b", ["C", "F"])
@pytest.mark.parametrize("m,k,r", [(30, 17, 5), (30, 17, 1), (1, 17, 5), (4, 1, 3), (3, 0, 2)])
def test_dot_matches_numpy(kind_a, kind_b, order_a, order_b, m, k, r):
    rng = np.random.default_rng(m * 100 + k * 10 + r)
    a = _operand(kind_a, (m, k), order_a, rng)
    b = _operand(kind_b, (k, r), order_b, rng)
    want = a @ b
    got = dot(a, b)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert _relative(got, want) <= RTOL
    # 1-D on either side, and both
    assert _relative(dot(a[0], b), a[0] @ b) <= RTOL
    assert _relative(dot(a, b[:, 0]), a @ b[:, 0]) <= RTOL
    both = dot(a[0], b[:, 0])
    assert np.ndim(both) == 0 and _relative(both, a[0] @ b[:, 0]) <= RTOL


def test_dot_takes_strided_and_integer_operands():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(12, 15))[::2, ::3]
    b = (rng.normal(size=(5, 8)) + 1j * rng.normal(size=(5, 8)))[:, ::2]
    assert _relative(dot(a, b), a @ b) <= RTOL
    n = np.arange(12).reshape(3, 4)
    assert np.array_equal(dot(n, n.T), (n @ n.T).astype(float))


def test_dot_rejects_shapes_that_do_not_conform():
    with pytest.raises(ValueError, match="do not conform"):
        dot(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValueError, match="1-D or 2-D"):
        dot(np.ones((2, 2, 2)), np.ones((2, 2)))


def test_real_times_complex_allocates_little_beyond_its_output():
    # one real product on the complex operand's float view: no complex copy
    # of the tall real operand, and no real and imaginary partial products
    rng = np.random.default_rng(5)
    a = rng.normal(size=(40_000, 8))
    b = rng.normal(size=(8, 4)) + 1j * rng.normal(size=(8, 4))
    dot(a, b)  # first-call set-up out of the count
    tracemalloc.start()
    try:
        out = dot(a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.nbytes == 40_000 * 4 * 16
    assert peak < 1.1 * out.nbytes, (peak, out.nbytes)


@pytest.mark.parametrize("dtype", [float, complex])
def test_solve_and_inv_match_numpy(dtype):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 6)).astype(dtype)
    b = rng.normal(size=(6, 2)).astype(dtype)
    assert _relative(solve(a, b), np.linalg.solve(a, b)) <= 1e-12
    assert _relative(solve(a, b[:, 0]), np.linalg.solve(a, b[:, 0])) <= 1e-12
    assert _relative(inv(a), np.linalg.inv(a)) <= 1e-12


def test_solve_raises_on_a_singular_matrix_without_a_condition_warning():
    with pytest.raises(np.linalg.LinAlgError):
        solve(np.zeros((2, 2)), np.ones(2))
    # ill-conditioned but not singular: solved, as numpy does, with no warning
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    assert np.all(np.isfinite(solve(a, np.array([1.0, 2.0]))))


# ----------------------------------------------------------------------
# source guard
# ----------------------------------------------------------------------

GUARDED = (embedding, spectral, variants, sparsity, analysis)
NUMPY_PRODUCTS = {"dot", "vdot", "matmul", "einsum", "tensordot", "inner"}
NUMPY_LINALG_ALLOWED = {"norm", "LinAlgError"}


def _is_numpy(node):
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _violations(tree):
    """(function, line, what) of every numpy product or factorisation."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            what = "@"
        elif isinstance(node, ast.Attribute):
            if _is_numpy(node.value) and node.attr in NUMPY_PRODUCTS:
                what = f"np.{node.attr}"
            elif node.attr in ("dot", "matmul") and not _is_numpy(node.value):
                what = f".{node.attr}()"
            elif (isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                  and _is_numpy(node.value.value) and node.attr not in NUMPY_LINALG_ALLOWED):
                what = f"np.linalg.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {alias.name for alias in node.names}
            if node.module == "numpy" and names & (NUMPY_PRODUCTS | {"linalg"}):
                what = f"from numpy import {sorted(names)}"
            elif node.module == "numpy.linalg" and names - NUMPY_LINALG_ALLOWED:
                what = f"from numpy.linalg import {sorted(names)}"
        if what is not None:
            found.append((function, node.lineno, what))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_guard_flags_numpy_products():
    source = (
        "import numpy as np\n"
        "from numpy.linalg import eig\n"
        "def f(a, b):\n"
        "    c = a @ b\n"
        "    c @= b\n"
        "    return np.dot(a, b) + np.einsum('ij->i', a) + a.dot(b) + np.linalg.eig(a)\n"
        "def g(a):\n"
        "    return np.linalg.norm(a, axis=0)\n"
    )
    whats = [what for _, _, what in _violations(ast.parse(source))]
    assert whats == [
        "from numpy.linalg import ['eig']", "@", "@", "np.dot", "np.einsum", ".dot()",
        "np.linalg.eig",
    ]


@pytest.mark.parametrize("module", GUARDED, ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_products_and_factorisations_go_through_scipy(module):
    # every product of a pass goes through circdmd._linalg (scipy's BLAS)
    # or a scipy.linalg routine; none stays on numpy
    found = _violations(ast.parse(inspect.getsource(module)))
    assert found == [], found


def test_the_helper_is_the_guarded_modules_route():
    # the guard would pass vacuously if the modules imported nothing from it
    for module in GUARDED:
        assert getattr(module, "dot", None) is _linalg.dot, module.__name__
