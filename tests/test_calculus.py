"""Combinator exactness and the additive/block size bounds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_affine, weights_of
from relusolve.calculus import (
    affine_net,
    identity_net,
    parallelize,
    parallelize_shared,
    pipeline,
    scale_add_net,
)
from relusolve.network import evaluate, stats


def test_identity_net_is_exact_and_has_two_k_l_weights():
    rng = np.random.default_rng(0)
    for _ in range(20):
        k = int(rng.integers(1, 8))
        L = int(rng.integers(2, 7))
        net = identity_net(k, L)
        assert net.depth == L
        assert weights_of(net) == 2 * k * L
        x = rng.normal(size=k) * 10.0
        assert np.array_equal(evaluate(net, x), x)


def test_identity_net_argument_validation():
    with pytest.raises(ValueError, match="depth at least 2"):
        identity_net(3, 1)
    with pytest.raises(ValueError, match="dimension must be positive"):
        identity_net(0, 2)


def test_affine_net_matches_csr_product_exactly():
    rng = np.random.default_rng(1)
    W = rng.normal(size=(3, 4))
    W[rng.random(W.shape) < 0.4] = 0.0
    b = rng.normal(size=3)
    net = affine_net(W, b)
    assert net.depth == 1
    x = rng.normal(size=4)
    assert np.array_equal(evaluate(net, x), net.layers[0].weight @ x + b)


def test_affine_net_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite weight"):
        affine_net(np.array([[np.inf]]))
    with pytest.raises(ValueError, match="non-finite bias"):
        affine_net(np.array([[1.0]]), bias=[np.nan])


def test_affine_net_drops_explicit_zeros():
    net = affine_net(np.array([[0.0, 2.0]]))
    assert net.layers[0].weight.nnz == 1


@pytest.mark.parametrize("alpha", [0.0, 1.0, -2.5, 0.37])
def test_scale_add_net_is_exact(alpha):
    rng = np.random.default_rng(5)
    n = 6
    net = scale_add_net(alpha, n)
    assert net.depth == 2
    assert weights_of(net) <= 8 * n
    assert weights_of(net) == (6 * n if alpha != 0.0 else 4 * n)
    for _ in range(10):
        x = rng.normal(size=n) * 4.0
        y = rng.normal(size=n) * 4.0
        assert np.array_equal(evaluate(net, np.concatenate([x, y])), alpha * x + y)


def test_scale_add_net_rejects_bad_dimension():
    with pytest.raises(ValueError, match="dimension must be positive"):
        scale_add_net(1.0, 0)


def test_concat_sparse_composes_exactly_with_additive_depth():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n_in, n_mid, n_out = rng.integers(1, 6, size=3)
        g = random_affine(rng, int(n_mid), int(n_in))
        f = random_affine(rng, int(n_out), int(n_mid))
        net = pipeline((g, f))
        assert net.depth == f.depth + g.depth
        assert weights_of(net) <= 3 * (weights_of(f) + weights_of(g))
        x = rng.normal(size=int(n_in)) * 3.0
        assert np.array_equal(evaluate(net, x), evaluate(f, evaluate(g, x)))


def test_pipeline_chains_many_stages_exactly():
    rng = np.random.default_rng(9)
    stages = [
        identity_net(3, 2),
        random_affine(rng, 4, 3),
        identity_net(4, 3),
        random_affine(rng, 2, 4),
    ]
    net = pipeline(stages)
    assert net.depth == sum(s.depth for s in stages)
    assert weights_of(net) <= 3 * sum(weights_of(s) for s in stages)
    x = rng.normal(size=3)
    want = x
    for s in stages:
        want = evaluate(s, want)
    assert np.array_equal(evaluate(net, x), want)


def test_pipeline_argument_validation():
    with pytest.raises(ValueError, match="at least one stage"):
        pipeline([])
    with pytest.raises(ValueError, match="expects 3 inputs but receives 2"):
        pipeline([identity_net(2, 2), identity_net(3, 2)])


def test_parallelize_stacks_disjoint_blocks_exactly():
    rng = np.random.default_rng(13)
    for _ in range(10):
        members = []
        for _ in range(int(rng.integers(2, 5))):
            kind = rng.integers(3)
            if kind == 0:
                members.append(identity_net(int(rng.integers(1, 4)), int(rng.integers(2, 5))))
            elif kind == 1:
                members.append(random_affine(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4))))
            else:
                members.append(scale_add_net(float(rng.normal()), int(rng.integers(1, 3))))
        net = parallelize(members)
        assert net.depth == max(m.depth for m in members)
        assert weights_of(net) <= 2 * sum(weights_of(m) for m in members) + 4 * sum(
            m.output_dim for m in members
        ) * max(m.depth for m in members)
        x = rng.normal(size=net.input_dim) * 2.0
        parts = []
        off = 0
        for m in members:
            parts.append(evaluate(m, x[off : off + m.input_dim]))
            off += m.input_dim
        assert np.array_equal(evaluate(net, x), np.concatenate(parts))


def test_parallelize_pads_depth_gap_of_one():
    net = parallelize([identity_net(2, 2), identity_net(1, 3)])
    assert net.depth == 3
    x = np.array([1.5, -2.0, 3.25])
    assert np.array_equal(evaluate(net, x), x)


def test_parallelize_shared_reads_overlapping_columns():
    double = affine_net(np.array([[2.0]]))
    triple = affine_net(np.array([[3.0]]))
    net = parallelize_shared([double, triple], [[0], [0]], 1)
    assert np.array_equal(evaluate(net, np.array([2.5])), np.array([5.0, 7.5]))


def test_parallelize_shared_argument_validation():
    with pytest.raises(ValueError, match="at least one network"):
        parallelize_shared([], [], 1)
    with pytest.raises(ValueError, match="one column map per network"):
        parallelize_shared([identity_net(1, 2)], [], 1)
    with pytest.raises(ValueError, match="length must match"):
        parallelize_shared([identity_net(2, 2)], [[0]], 2)
    with pytest.raises(ValueError, match="out of range"):
        parallelize_shared([identity_net(1, 2)], [[5]], 2)


@settings(max_examples=40, deadline=None)
@given(
    st.floats(-4.0, 4.0, allow_nan=False),
    st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_scale_add_property(alpha, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    out = evaluate(scale_add_net(alpha, n), np.concatenate([x, y]))
    assert np.array_equal(out, alpha * x + y)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(2, 5), st.integers(0, 2**32 - 1))
def test_identity_property(k, L, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=k) * 100.0
    assert np.array_equal(evaluate(identity_net(k, L), x), x)
