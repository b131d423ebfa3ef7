"""Certified error bounds and exact-zero structure of the product nets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diagonal_pattern, pattern_of, random_operator, tridiagonal_pattern
from relusolve.arithmetic import (
    SparseMatrix,
    SparsityPattern,
    _refinement,
    mult_net,
    scalar_product_net,
    sparse_matvec_net,
    square_net,
)
from relusolve.network import evaluate, stats


def assert_product_net_size(net, terms, s):
    """A bank of `terms` product terms at refinement level s, in closed form.

    Depth: the input layer, s saw stages and the summation.  A term stores 8
    input weights, 20 in saw stage 1 (16 weights, 4 biases), 30 in each later
    stage (26 weights, 4 biases) and 8 summation weights: 30 s + 6.
    """
    assert net.depth == s + 2
    assert stats(net).weights == terms * (30 * s + 6)


def test_pattern_shape_helpers():
    pat = tridiagonal_pattern(4)
    assert pat.n == 4
    assert list(pat.indptr) == [0, 2, 5, 8, 10]
    assert list(pat.indices) == [0, 1, 0, 1, 2, 1, 2, 3, 2, 3]
    assert pat.eta == 10
    assert pat.chi_max == 3
    assert list(pat.row_of()) == [0, 0, 1, 1, 1, 2, 2, 2, 3, 3]
    # position 7 is (2, 3) and its transpose (3, 2) is position 8
    assert list(pat.transpose_positions()) == [0, 2, 1, 3, 5, 4, 6, 8, 7, 9]
    assert pat.has_full_diagonal()
    assert pat.is_symmetric()
    assert list(pat.diagonal_positions()) == [0, 3, 6, 9]
    # the arrays cannot be written through the pattern
    assert not (pat.indptr.flags.writeable or pat.indices.flags.writeable)


def test_pattern_equality_and_hash():
    a = tridiagonal_pattern(3)
    b = tridiagonal_pattern(3)
    assert a == b
    assert a != diagonal_pattern(3)


def test_pattern_validation():
    with pytest.raises(ValueError, match="at least one row"):
        pattern_of([])
    with pytest.raises(ValueError, match="no admissible columns"):
        pattern_of([(0,), ()])
    with pytest.raises(ValueError, match="out of range"):
        pattern_of([(0, 2)])
    with pytest.raises(ValueError, match="strictly increasing"):
        pattern_of([(1, 0), (0, 1)])
    with pytest.raises(ValueError, match="indptr must rise from 0"):
        SparsityPattern([1, 2], [0, 0])
    with pytest.raises(ValueError, match="indptr must rise from 0"):
        SparsityPattern([0, 1], [0, 0])
    with pytest.raises(ValueError, match="indptr must rise from 0"):
        SparsityPattern([0, 2, 1], [0, 1])


def test_pattern_asymmetric_and_gapped_diagonal():
    pat = pattern_of([(0, 1), (1,)])
    assert not pat.is_symmetric()
    gapped = pattern_of([(1,), (0,)])
    assert not gapped.has_full_diagonal()
    with pytest.raises(ValueError, match="missing a diagonal"):
        gapped.diagonal_positions()


def test_sparse_matrix_round_trip_and_symmetry():
    pat = tridiagonal_pattern(3)
    vals = [2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0]
    A = SparseMatrix(pat, vals)
    dense = A.to_dense()
    assert np.array_equal(dense, np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float))
    assert np.array_equal(A.to_csr().toarray(), dense)
    with pytest.raises(ValueError, match="expected 7 values"):
        SparseMatrix(pat, [1.0, 2.0])


@pytest.mark.parametrize("s,D", [(1, 1.0), (2, 1.0), (5, 1.0), (4, 4.0)])
def test_square_net_certificate(s, D):
    net = square_net(s, D)
    assert net.depth == s + 2
    bound = D * D * 2.0 ** (-2 * s - 2)
    xs = np.linspace(-D, D, 801)
    out = evaluate(net, xs[None, :])[0]
    # the grid can hit the exact-equality points of the interpolant, so leave
    # room for evaluation rounding
    assert np.max(np.abs(out - xs * xs)) <= bound + 1e-14 * D * D
    assert evaluate(net, [0.0])[0] == 0.0


def test_square_net_validation():
    with pytest.raises(ValueError, match="refinement level"):
        square_net(0)
    with pytest.raises(ValueError, match="domain bound"):
        square_net(2, 0.5)


@pytest.mark.parametrize("eps,D", [(1e-1, 1.0), (1e-2, 2.0)])
def test_mult_net_certificate(eps, D):
    net = mult_net(eps, D)
    assert_product_net_size(net, 1, _refinement(math.log2(1.0 / eps) + 2.0 * math.log2(D)))
    g = np.linspace(-D, D, 81)
    X, Y = np.meshgrid(g, g)
    inp = np.stack([X.ravel(), Y.ravel()])
    out = evaluate(net, inp)[0]
    assert np.max(np.abs(out - X.ravel() * Y.ravel())) <= eps


def test_mult_net_zero_lines_are_exact():
    net = mult_net(1e-2, 2.0)
    ys = np.linspace(-2.0, 2.0, 41)
    along_x = evaluate(net, np.stack([np.zeros_like(ys), ys]))[0]
    along_y = evaluate(net, np.stack([ys, np.zeros_like(ys)]))[0]
    assert np.all(along_x == 0.0)
    assert np.all(along_y == 0.0)


def test_mult_net_validation():
    with pytest.raises(ValueError, match="accuracy"):
        mult_net(1.5)
    with pytest.raises(ValueError, match="domain bound"):
        mult_net(0.1, 0.25)


@pytest.mark.parametrize("k,eps,z", [(1, 1e-2, 1.0), (3, 1e-3, 1.0), (8, 1e-2, 5.0)])
def test_scalar_product_net_certificate(k, eps, z):
    rng = np.random.default_rng(100 * k)
    net = scalar_product_net(k, eps, z)
    assert_product_net_size(net, k, _refinement(math.log2(k * z / eps)))
    for _ in range(20):
        x = rng.normal(size=k)
        x *= rng.uniform(0.1, 1.0) / np.linalg.norm(x)
        y = rng.normal(size=k)
        y *= rng.uniform(0.1, 1.0) * z / np.linalg.norm(y)
        out = evaluate(net, np.concatenate([y, x]))[0]
        assert abs(out - y @ x) <= eps


def test_scalar_product_net_validation():
    with pytest.raises(ValueError, match="length"):
        scalar_product_net(0, 0.1)
    with pytest.raises(ValueError, match="accuracy"):
        scalar_product_net(2, 0.0)
    with pytest.raises(ValueError, match="rhs bound"):
        scalar_product_net(2, 0.1, 0.5)


@pytest.mark.parametrize("scale", [1.0, 2.0, -0.5])
def test_sparse_matvec_net_certificate(scale):
    pat = tridiagonal_pattern(5)
    eps, z = 1e-3, 2.0
    net = sparse_matvec_net(pat, eps, z, scale)
    eps_row = eps / (abs(scale) * math.sqrt(pat.n))
    assert_product_net_size(net, pat.eta, _refinement(math.log2(pat.chi_max * z / eps_row)))
    rng = np.random.default_rng(17)
    for _ in range(15):
        A = random_operator(pat, rng)
        r = rng.normal(size=pat.n)
        r *= rng.uniform(0.1, 1.0) * z / np.linalg.norm(r)
        out = evaluate(net, np.concatenate([A.values, r]))
        assert np.linalg.norm(out - scale * (A.to_dense() @ r)) <= eps


def test_sparse_matvec_net_exact_zeros():
    pat = tridiagonal_pattern(4)
    net = sparse_matvec_net(pat, 1e-2, 1.0)
    rng = np.random.default_rng(23)
    A = random_operator(pat, rng)
    r = rng.normal(size=4)
    r /= 2.0 * np.linalg.norm(r)
    zero_rhs = evaluate(net, np.concatenate([A.values, np.zeros(4)]))
    zero_mat = evaluate(net, np.concatenate([np.zeros(pat.eta), r]))
    assert np.all(zero_rhs == 0.0)
    assert np.all(zero_mat == 0.0)


def test_sparse_matvec_net_validation():
    pat = diagonal_pattern(2)
    with pytest.raises(ValueError, match="accuracy"):
        sparse_matvec_net(pat, 0.0)
    with pytest.raises(ValueError, match="rhs bound"):
        sparse_matvec_net(pat, 0.1, 0.5)
    with pytest.raises(ValueError, match="scale"):
        sparse_matvec_net(pat, 0.1, 1.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.floats(-1.0, 1.0, allow_nan=False))
def test_square_net_error_bound_property(s, u):
    net = square_net(s, 1.0)
    out = evaluate(net, [u])[0]
    assert abs(out - u * u) <= 2.0 ** (-2 * s - 2) + 1e-15
