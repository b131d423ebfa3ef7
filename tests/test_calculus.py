"""Combinator exactness and the additive/block size bounds."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_affine, weights_of
from relusolve.calculus import (
    MERGE,
    SPLIT,
    _split_layer,
    affine_net,
    identity_net,
    kron,
    parallelize,
    parallelize_shared,
    pipeline,
    scale_add_net,
)
from relusolve.arithmetic import _READOUT, mult_net, scalar_product_net, sparse_matvec_net, square_net
from relusolve.network import Layer, ReluNetwork, evaluate, network_to_dict, stats
from relusolve.problems import gen_laplacian


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
    # a CSR weight is copied, not frozen or shared with the layer
    csr = sp.csr_matrix(W)
    weight = affine_net(csr, b).layers[0].weight
    for mine, theirs in ((csr.data, weight.data), (csr.indices, weight.indices), (csr.indptr, weight.indptr)):
        assert mine.flags.writeable and not np.shares_memory(mine, theirs)


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


def test_parallelize_pads_a_member_for_its_last_layer_plus_two_k_per_layer():
    # a member gap layers short has its last layer W (k rows) replaced by
    # kron(W, SPLIT), gap - 1 identity layers on 2k channels and
    # kron(I_k, MERGE): w(W) + 2 k gap more weights, biases included
    rng = np.random.default_rng(19)
    for _ in range(5):
        members = []
        for depth in rng.permutation(5) + 1:
            dims = rng.integers(1, 5, size=depth + 1)
            layers = [random_affine(rng, int(rows), int(cols)).layers[0]
                      for cols, rows in zip(dims, dims[1:])]
            members.append(ReluNetwork(layers))
        # increasing maps keep each row's CSR accumulation order, so the
        # stack's first layer rounds as the members' own do
        n_in = 6
        maps = [np.sort(rng.choice(n_in, size=m.input_dim, replace=False)) for m in members]
        net = parallelize_shared(members, maps, n_in)
        assert net.depth == 5
        extra = sum(stats(m).per_layer[-1] + 2 * m.output_dim * (5 - m.depth)
                    for m in members if m.depth < 5)
        assert weights_of(net) == sum(weights_of(m) for m in members) + extra
        for _ in range(3):
            x = rng.normal(size=n_in) * 3.0
            want = np.concatenate([evaluate(m, x[cmap]) for m, cmap in zip(members, maps)])
            assert np.array_equal(evaluate(net, x), want)


def test_split_layer_is_the_kronecker_product_with_split_byte_for_byte():
    # the split equals kron(W, SPLIT) with kron(b, [1, -1]), and kron equals
    # sp.kron on the pair maps and arithmetic's blocks, in every array and
    # dtype, empty rows, zeros and negative entries included
    rng = np.random.default_rng(3)
    chains = np.eye(2)
    blocks = [
        SPLIT,
        MERGE,
        np.kron([[0.25], [0.25], [1.0]], np.kron(chains, [[1.0, 1.0]])),
        np.kron(np.vstack([[0.5, -1.0, 0.0], [0.5, -1.0, 0.0], _READOUT]), chains),
        -2.5 * np.kron(_READOUT, MERGE),
    ]

    def assert_same(got, want):
        assert got.weight.shape == want.weight.shape
        for a, b in zip((got.weight.indptr, got.weight.indices, got.weight.data, got.bias),
                        (want.weight.indptr, want.weight.indices, want.weight.data, want.bias)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    for _ in range(50):
        rows, cols = (int(k) for k in rng.integers(1, 12, size=2))
        weight = sp.random(rows, cols, density=rng.uniform(0.0, 1.0), random_state=rng, format="csr")
        layer = Layer(weight, rng.normal(size=rows) * (rng.uniform(size=rows) < 0.5))
        assert_same(_split_layer(layer), Layer(sp.kron(weight, SPLIT), np.kron(layer.bias, [1.0, -1.0])))
        # signed entries and whole rows left empty
        signed = sp.csr_matrix(
            (rng.normal(size=(rows, cols)) * (rng.uniform(size=(rows, cols)) < 0.4))
            * (rng.uniform(size=(rows, 1)) < 0.6)
        )
        for block in blocks:
            assert_same(Layer(kron(signed, block)), Layer(sp.kron(signed, block)))


def test_parallelize_shared_refuses_a_map_that_reorders_a_row():
    # every row of a dense member reads all its columns, so an unsorted map
    # would make the CSR kernel accumulate a row in another order
    rng = np.random.default_rng(29)
    member = affine_net(rng.normal(size=(3, 4)), rng.normal(size=3))
    for _ in range(5):
        cmap = rng.choice(8, size=4, replace=False)
        while np.all(np.diff(cmap) > 0):
            cmap = rng.choice(8, size=4, replace=False)
        with pytest.raises(ValueError, match="reorders or duplicates"):
            parallelize_shared([member], [cmap], 8)


def test_parallelize_shared_maps_one_column_rows_in_any_order_bit_for_bit():
    # a member whose rows read one column each passes under an unsorted map,
    # also when it is padded to a deeper member's depth
    rng = np.random.default_rng(31)
    for _ in range(5):
        pick = sp.csr_matrix((rng.normal(size=6), rng.integers(0, 4, size=6), np.arange(7)), shape=(6, 4))
        members = [affine_net(pick, rng.normal(size=6)), identity_net(2, 3)]
        maps = [rng.choice(8, size=4, replace=False), rng.choice(8, size=2, replace=False)]
        net = parallelize_shared(members, maps, 8)
        for _ in range(3):
            x = rng.normal(size=8) * 3.0
            want = np.concatenate([evaluate(m, x[cmap]) for m, cmap in zip(members, maps)])
            assert np.array_equal(evaluate(net, x), want)


def test_parallelize_shared_reads_overlapping_columns():
    double = affine_net(np.array([[2.0]]))
    triple = affine_net(np.array([[3.0]]))
    net = parallelize_shared([double, triple], [[0], [0]], 1)
    assert np.array_equal(evaluate(net, np.array([2.5])), np.array([5.0, 7.5]))


def test_parallelize_shared_argument_validation():
    with pytest.raises(ValueError, match="at least one network"):
        parallelize_shared([], [], 1)
    with pytest.raises(ValueError, match="at least one network"):
        parallelize([])
    with pytest.raises(ValueError, match="one column map per network"):
        parallelize_shared([identity_net(1, 2)], [], 1)
    with pytest.raises(ValueError, match="length must match"):
        parallelize_shared([identity_net(2, 2)], [[0]], 2)
    with pytest.raises(ValueError, match="out of range"):
        parallelize_shared([identity_net(1, 2)], [[5]], 2)
    # a map that sends two member columns to one input column is refused,
    # not turned into the sum of the two weights
    with pytest.raises(ValueError, match="duplicate"):
        parallelize_shared([affine_net([[1.0, 1.0]])], [[0, 0]], 1)


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


def _dict_digest(net) -> str:
    """sha256 over network_to_dict's arrays: name, dtype, shape and bytes of each."""
    h = hashlib.sha256()
    for name, arr in sorted(network_to_dict(net).items()):
        h.update(f"{name} {arr.dtype.str} {arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def _small_pipeline():
    w = np.array([[1.0, 0.0, -2.0], [0.5, 3.0, 0.0]])
    return pipeline((affine_net(w, [0.25, 0.0]), identity_net(2, 3),
                     affine_net([[1.0, -1.0]], [1.0]), square_net(2, 2.0)))


def _small_parallel():
    members = [affine_net([[1.0, 0.0, -2.0], [0.5, 3.0, 0.0]], [0.25, 0.0]),
               mult_net(0.1, 2.0), identity_net(1, 4), scale_add_net(2.0, 1)]
    return parallelize_shared(members, [[0, 1, 2], [0, 2], [1], [0, 3]], 4)


# digests of every stored array of each net: a refactor must reproduce them,
# and a change to one is a change to the built net, made on purpose
FROZEN_NETS = {
    "square_net(1, 1)": (
        lambda: square_net(1, 1.0),
        "af06c22007b82ac544e57e00931f68735f5d0e7820672769c59da8f286381707"),
    "square_net(1, 3)": (
        lambda: square_net(1, 3.0),
        "fa23477a081c326ed4226bf5d6d4980da0af6b8d917c4fd455353df0e5497ca6"),
    "square_net(5, 1)": (
        lambda: square_net(5, 1.0),
        "21f6a0512322e703de43430bbcfa3709af4b30afd270444875c27d7dbfbea259"),
    "square_net(5, 3)": (
        lambda: square_net(5, 3.0),
        "795b783b86cb0098046432ba2937f3d26c65cf2c0a96d39f3a54cd3db423ac12"),
    "mult_net(1e-2, 4)": (
        lambda: mult_net(1e-2, 4.0),
        "84118d1dad201b676f4049d042c5f968b83b451fda6ac0ed2549cf3fd4c98539"),
    "scalar_product_net(3, 1e-3, 5)": (
        lambda: scalar_product_net(3, 1e-3, 5.0),
        "e600d9782d9d9d0988b5d1a9d901296e41505b6d0cde5915e908b31cbee1a2e8"),
    "sparse_matvec_net(lap1d 5)": (
        lambda: sparse_matvec_net(gen_laplacian(1, 5).pattern, 1e-2, 3.0, -2.5),
        "968bc50cd6b5a9bccad4684561d3828acc084648e29424df7779d535883f583d"),
    "sparse_matvec_net(lap2d 3)": (
        lambda: sparse_matvec_net(gen_laplacian(2, 3).pattern, 1e-2, 3.0, -2.5),
        "6be79d8f9a2f825fe8eecf01060b4b3fdbdd4f5c7f6b49159e98ca3b5633f585"),
    "identity_net(3, 4)": (
        lambda: identity_net(3, 4),
        "16be824e5fdcb72e436cc5b401554c5d40f375dcca080f58a021b66cb86d7023"),
    "scale_add_net(0, 3)": (
        lambda: scale_add_net(0.0, 3),
        "031993a11e36ff4422c22fde1a4868ea4f016d31110fea8db501db4c719f9a32"),
    "scale_add_net(1.5, 3)": (
        lambda: scale_add_net(1.5, 3),
        "e9d18ffcaa690fd6f97ef8c240197394cce1e7893a87de9a8ba7a402d79272a2"),
    "pipeline": (
        _small_pipeline,
        "4a582994dda6cb4555968b516794db6d918440e573b5deff24a5d2da1710a7a5"),
    "parallelize_shared": (
        _small_parallel,
        "70ac01d6ab596a0cf547bfc9aed0ed14663439b05a384a8232e555c56ea50de4"),
}


@pytest.mark.parametrize("name", list(FROZEN_NETS))
def test_arithmetic_and_calculus_nets_are_frozen(name):
    build, digest = FROZEN_NETS[name]
    assert _dict_digest(build()) == digest
