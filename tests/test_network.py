"""Representation, evaluation, and serialization round-trips."""

import hashlib
import io
import json
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from relusolve import network
from relusolve.network import (
    EvaluationFault,
    Layer,
    NetworkFormatError,
    ReluNetwork,
    evaluate,
    load_network,
    make_layer,
    network_from_dict,
    network_to_dict,
    save_network,
    stats,
)
from relusolve.problems import gen_laplacian, random_rhs, random_spd
from relusolve.solvers import SolverConfig, build_cg_net, build_richardson_net


def test_make_layer_drops_explicit_zeros():
    layer = make_layer((2, 2), [0, 1], [0, 1], [1.0, 0.0])
    assert layer.weight.nnz == 1


def test_make_layer_rejects_duplicate_positions():
    with pytest.raises(ValueError, match="duplicate"):
        make_layer((2, 2), [0, 0], [1, 1], [1.0, 2.0])


def test_make_layer_rejects_out_of_range_indices():
    with pytest.raises(ValueError, match="out of range"):
        make_layer((2, 2), [0, 2], [0, 0], [1.0, 1.0])
    with pytest.raises(ValueError, match="out of range"):
        make_layer((2, 2), [0], [-1], [1.0])


def test_make_layer_rejects_non_finite_values():
    with pytest.raises(ValueError, match="non-finite weight"):
        make_layer((1, 1), [0], [0], [np.inf])
    with pytest.raises(ValueError, match="non-finite bias"):
        make_layer((1, 1), [0], [0], [1.0], bias=[np.nan])


def test_layer_copies_a_csr_weight():
    # with an explicit zero and unsorted columns, which the layer cleans up
    W = sp.csr_matrix((np.array([2.0, 0.0, 1.0]), np.array([1, 0, 0]), np.array([0, 2, 3])), shape=(2, 2))
    layer = Layer(W)
    assert layer.weight.nnz == 2
    for mine in (W.data, W.indices, W.indptr):
        assert mine.flags.writeable
        for theirs in (layer.weight.data, layer.weight.indices, layer.weight.indptr):
            assert not np.shares_memory(mine, theirs)
    assert list(W.data) == [2.0, 0.0, 1.0] and list(W.indices) == [1, 0, 0]


def test_make_layer_mismatched_triplet_lengths():
    with pytest.raises(ValueError, match="equal length"):
        make_layer((2, 2), [0, 1], [0], [1.0, 2.0])


def test_network_needs_at_least_one_layer():
    with pytest.raises(ValueError, match="at least one layer"):
        ReluNetwork([])


def test_evaluate_known_two_layer_net():
    l1 = make_layer((2, 2), [0, 0, 1], [0, 1, 1], [1.0, -1.0, 1.0], bias=[0.0, 1.0])
    l2 = make_layer((1, 2), [0, 0], [0, 1], [1.0, 1.0], bias=[-1.0])
    net = ReluNetwork([l1, l2])
    # hidden pre-activation (5, -2) -> relu (5, 0) -> output 5 + 0 - 1
    out = evaluate(net, [2.0, -3.0])
    assert out.shape == (1,)
    assert out[0] == 4.0


def test_evaluate_no_relu_on_final_layer():
    net = ReluNetwork([make_layer((1, 1), [0], [0], [1.0])])
    assert evaluate(net, [-2.0])[0] == -2.0


def test_evaluate_batched_columns_match_single_runs():
    rng = np.random.default_rng(3)
    l1 = make_layer((3, 2), [0, 1, 2], [0, 1, 0], [1.5, -2.0, 0.5], bias=[0.1, 0.0, -0.3])
    l2 = make_layer((2, 3), [0, 0, 1], [0, 2, 1], [1.0, -1.0, 2.0])
    net = ReluNetwork([l1, l2])
    X = rng.normal(size=(2, 7))
    batched = evaluate(net, X)
    assert batched.shape == (2, 7)
    for k in range(7):
        assert np.array_equal(batched[:, k], evaluate(net, X[:, k]))


def test_evaluate_rejects_bad_inputs():
    net = ReluNetwork([make_layer((1, 2), [0], [0], [1.0])])
    with pytest.raises(ValueError, match="expects 2"):
        evaluate(net, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="vector or a matrix"):
        evaluate(net, np.zeros((2, 2, 2)))


def one_column_blocks():
    """Run every batch column as its own block."""
    return mock.patch.object(network, "_BLOCK_ENTRIES", 1)


@pytest.mark.parametrize("batch", [False, True, "blocks"])
def test_evaluate_rejects_layers_that_do_not_fit(batch, monkeypatch):
    # the CSR kernels check no shapes: a chain that does not fit cannot be
    # built, and evaluate refuses an input that does not fit layer 1
    if batch == "blocks":
        monkeypatch.setattr(network, "_BLOCK_ENTRIES", 1)
    x = np.ones((2, 4)) if batch else np.ones(2)
    with pytest.raises(ValueError, match="layer 2: weight expects 3 inputs but receives 2"):
        ReluNetwork([Layer(sp.csr_matrix((2, 3))), Layer(sp.csr_matrix((1, 3)))])
    eye = sp.eye(3, format="csr")
    for bias in ([1.0, 2.0], [0.0, 0.0, 0.0, 0.0], [5.0]):
        with pytest.raises(ValueError, match=f"bias length {len(bias)} does not match 3 rows"):
            Layer(eye, bias=bias)
    with pytest.raises(ValueError, match="bias length 3 does not match 2 rows"):
        make_layer((2, 2), [0, 1], [0, 1], [1.0, 1.0], bias=[1.0, 2.0, 3.0])
    net = ReluNetwork([Layer(eye), Layer(eye, bias=[1.0, 2.0, 3.0])])
    with pytest.raises(ValueError, match="layer 1: weight expects 3 inputs but receives 2"):
        evaluate(net, x)


def _fault_nets():
    """Networks whose first non-finite value appears in layer 2 on input 1e308."""
    # the second channel overflows and no later weight reads it
    dead = ReluNetwork([make_layer((1, 1), [0], [0], [1.0]),
                        make_layer((2, 1), [0, 1], [0, 0], [1.0, 4.0]),
                        make_layer((1, 2), [0], [0], [1.0])])
    # -inf that the ReLU would turn into 0 before the next layer reads it
    negative = ReluNetwork([make_layer((1, 1), [0], [0], [1.0]),
                            make_layer((2, 1), [0, 1], [0, 0], [1.0, -4.0]),
                            make_layer((1, 2), [0, 0], [0, 1], [1.0, 1.0])])
    # 4x - 4x on finite x: inf - inf, a NaN with no inf beside it
    nan = ReluNetwork([make_layer((2, 1), [0, 1], [0, 0], [1.0, 1.0]),
                       make_layer((1, 2), [0, 0], [0, 1], [4.0, -4.0]),
                       make_layer((1, 1), [0], [0], [1.0])])
    return [
        pytest.param(dead, id="inf-in-dead-channel"),
        pytest.param(negative, id="negative-inf"),
        pytest.param(nan, id="nan"),
    ]


@pytest.mark.parametrize("net", _fault_nets())
def test_evaluation_fault_names_the_first_non_finite_layer(net):
    with pytest.raises(EvaluationFault) as exc:
        evaluate(net, [1e308])
    assert exc.value.layer_index == 2
    # one bad column among finite ones fails the whole batch at the same layer
    with pytest.raises(EvaluationFault) as exc:
        evaluate(net, np.array([[1.0, 1e308, -2.0]]))
    assert exc.value.layer_index == 2
    assert np.isfinite(evaluate(net, np.array([[1.0, -2.0]]))).all()


def test_evaluate_passes_finite_layers_whose_sum_overflows():
    # two finite 1.5e308 rows: their sum overflows, no entry does
    net = ReluNetwork([make_layer((2, 1), [0, 1], [0, 0], [1.5, 1.5]),
                       make_layer((2, 2), [0, 1], [0, 1], [1.0, 1.0])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = evaluate(net, [1e308])
        batch = evaluate(net, np.array([[1.0, 1e308]]))
        with one_column_blocks():
            blocks = evaluate(net, np.array([[1e308, 1.0, 1e308]]))
    assert out.tolist() == [1.5e308, 1.5e308]
    assert batch.tolist() == [[1.5, 1.5e308], [1.5, 1.5e308]]
    assert blocks.tolist() == [[1.5e308, 1.5, 1.5e308]] * 2


def _doubling_net():
    """x -> 2x -> 4x over four 1x1 layers.

    On one column, 1e308 overflows at layer 2 and 6e307 at layer 3.
    """
    one = make_layer((1, 1), [0], [0], [1.0])
    two = make_layer((1, 1), [0], [0], [2.0])
    return ReluNetwork([one, two, Layer(two.weight), one])


@pytest.mark.parametrize("columns", [[6e307, 1e308], [1e308, 6e307], [6e307, 1.0, 1e308]])
def test_blocked_batch_raises_the_first_faulting_layer_over_all_blocks(columns):
    net = _doubling_net()
    x = np.array([columns])
    with pytest.raises(EvaluationFault) as whole:
        evaluate(net, x)
    with one_column_blocks(), pytest.raises(EvaluationFault) as blocks:
        evaluate(net, x)
    assert whole.value.layer_index == blocks.value.layer_index == 2
    with one_column_blocks(), pytest.raises(EvaluationFault) as later:
        evaluate(net, np.array([[1.0, 6e307]]))
    assert later.value.layer_index == 3


def test_signed_zero_and_nonzero_bias_match_reference_bytes():
    # rows without weights, rows whose terms cancel, bias +0.0, -0.0 and nonzero
    weight = sp.csr_matrix(np.array([[0.0, 0.0], [1.0, -1.0], [2.0, 0.5], [0.0, 0.0], [1.0, -1.0]]))
    for bias in ([0.0, -0.0, 0.25, -1.5, -0.0], [-0.0] * 5, [0.0, 3.0, -0.0, -0.0, 0.0]):
        net = ReluNetwork([Layer(weight, bias), Layer(sp.eye(5, format="csr"), bias)])
        x = np.array([[1.0, -2.0, 0.0, -0.0], [1.0, 3.0, -0.0, 0.0]])
        expected = _reference_evaluate(net, x)
        assert evaluate(net, x).tobytes() == expected.tobytes()
        with one_column_blocks():
            assert evaluate(net, x).tobytes() == expected.tobytes()
        for k in range(x.shape[1]):
            assert evaluate(net, x[:, k]).tobytes() == expected[:, k].tobytes()


def test_kernel_args_fold_the_bias_into_a_last_column():
    layer = make_layer((2, 2), [0, 1], [1, 0], [3.0, 4.0])
    indptr, indices, data, gain = layer.kernel_args()
    w = layer.weight
    # a bias-free layer runs its own arrays
    assert indptr is w.indptr and indices is w.indices and data is w.data
    assert gain == 4.0
    biased = make_layer((2, 2), [0, 1], [1, 0], [0.25, 4.0], bias=[0.5, -2.0])
    indptr, indices, data, gain = biased.kernel_args()
    # each bias entry is the last stored entry of its row, at column cols
    assert indptr.tolist() == [0, 2, 4]
    assert indices.tolist() == [1, 2, 0, 2]
    assert data.tolist() == [0.25, 0.5, 4.0, -2.0]
    assert gain == 6.0
    assert biased.kernel_args() is biased.kernel_args()
    assert make_layer((2, 2), [0], [0], [0.5]).kernel_args()[3] == 1.0
    assert make_layer((2, 2), [], [], []).kernel_args()[3] == 1.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_layer_rejects_non_finite_weight_or_bias(bad):
    # evaluate's bound on activations assumes finite weights and bias
    with pytest.raises(ValueError, match="non-finite weight value"):
        Layer(sp.csr_matrix([[1.0, bad]]))
    with pytest.raises(ValueError, match="non-finite bias value"):
        Layer(sp.eye(2, format="csr"), bias=[0.0, bad])


def test_layer_stores_no_explicit_zero(tmp_path):
    # a product of nonzero factors can underflow to a stored 0.0; the layer
    # drops it, so stats does not count it and the saved file loads
    weight = sp.csr_matrix((np.array([0.0, 2.0]), np.array([0, 1]), np.array([0, 2])), shape=(1, 2))
    assert weight.nnz == 2
    layer = Layer(weight)
    assert layer.weight.nnz == 1
    assert stats(ReluNetwork([layer])).weights == 1
    save_network(ReluNetwork([layer]), tmp_path / "net.npz")
    back = load_network(tmp_path / "net.npz")
    assert back.layers[0].weight.toarray().tolist() == [[0.0, 2.0]]


def test_long_chain_faults_at_the_layer_that_overflows():
    # x -> 2x, 1030 times: 2**k overflows at layer k = 1024, where the
    # bound that lets evaluate skip the screen is long exceeded
    double = make_layer((1, 1), [0], [0], [2.0])
    net = ReluNetwork([double] * 1030)
    for x, layer in (([1.0], 1024), ([0.5], 1025), ([[1.0, 0.5]], 1024), ([[0.5, 1.0]], 1024)):
        with pytest.raises(EvaluationFault) as exc:
            evaluate(net, np.array(x))
        assert exc.value.layer_index == layer
    assert evaluate(net, [2.0**-1040]).tolist() == [2.0**-10]
    # one channel of the last layer overflows, the other does not
    tail = make_layer((2, 1), [0, 1], [0, 0], [1.0, 2.0**30])
    with pytest.raises(EvaluationFault) as exc:
        evaluate(ReluNetwork([double] * 1020 + [tail]), [2.0**-20])
    assert exc.value.layer_index == 1021


def test_evaluate_raises_on_overflow():
    net = ReluNetwork([make_layer((1, 1), [0], [0], [2.0])] * 2)
    with pytest.raises(EvaluationFault) as exc:
        evaluate(net, [1e308])
    assert exc.value.layer_index == 1


def test_stats_counts_stored_entries_and_nonzero_bias():
    l1 = make_layer((2, 2), [0, 1], [0, 1], [1.0, 2.0], bias=[0.0, 3.0])
    l2 = make_layer((1, 2), [0], [1], [1.0])
    st_ = stats(ReluNetwork([l1, l2]))
    assert st_.depth == 2
    assert st_.per_layer == (3, 1)
    assert st_.weights == 4
    assert st_.max_width == 2
    assert st_.input_dim == 2 and st_.output_dim == 1


def test_stats_counts_neurons_as_summed_hidden_widths():
    # widths 2 -> 3 -> 4 -> 1: the hidden layers hold 3 + 4 neurons
    l1 = make_layer((3, 2), [0, 1, 2], [0, 1, 0], [1.0, 1.0, -1.0])
    l2 = make_layer((4, 3), [0, 1, 2, 3], [0, 1, 2, 2], [1.0, 1.0, 1.0, 2.0])
    l3 = make_layer((1, 4), [0, 0], [0, 3], [1.0, -1.0])
    assert stats(ReluNetwork([l1, l2, l3])).neurons == 7
    assert stats(ReluNetwork([l3])).neurons == 0


def test_dict_round_trip_preserves_evaluation_and_metadata():
    rng = np.random.default_rng(11)
    l1 = make_layer((3, 2), [0, 1, 2], [1, 0, 1], [0.25, -1.5, 3.0], bias=[0.0, 0.5, 0.0])
    l2 = make_layer((2, 3), [0, 1], [2, 0], [1.0, -2.0], bias=[0.125, 0.0])
    net = ReluNetwork([l1, l2], metadata={"method": "test", "m": 3})
    back = network_from_dict(network_to_dict(net))
    assert back.metadata == {"method": "test", "m": 3}
    assert stats(back) == stats(net)
    for _ in range(5):
        x = rng.normal(size=2) * 10
        assert np.array_equal(evaluate(back, x), evaluate(net, x))
    # absent metadata is no array, and decodes to None
    arrays = network_to_dict(ReluNetwork([l1, l2]))
    assert "metadata" not in arrays
    assert network_from_dict(arrays).metadata is None


def test_save_and_load_file_round_trip(tmp_path):
    net = ReluNetwork(
        [make_layer((2, 2), [0, 1], [0, 0], [1.0, -0.5], bias=[0.0, 2.0])],
        metadata={"n": 2},
    )
    # the path is used as given, whatever its extension
    path = tmp_path / "net.json"
    save_network(net, path)
    assert [p.name for p in tmp_path.iterdir()] == ["net.json"]
    back = load_network(path)
    assert back.metadata == {"n": 2}
    x = np.array([3.0, -4.0])
    assert np.array_equal(evaluate(back, x), evaluate(net, x))


def _program(net):
    """Each position's index into the distinct layer objects, by first appearance."""
    slots = {}
    return [slots.setdefault(id(layer), len(slots)) for layer in net.layers]


def assert_same_layers(back, net):
    """back holds net's sharing and, at every position, its bytes and dtypes."""
    assert _program(back) == _program(net)
    for got, want in zip(back.layers, net.layers):
        assert got.weight.shape == want.weight.shape
        for a, b in ((got.weight.data, want.weight.data), (got.weight.indices, want.weight.indices),
                     (got.weight.indptr, want.weight.indptr), (got.bias, want.bias)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_frozen_file(tmp_path, net, digest):
    """net saves to a file of the given sha256, twice alike, and loads back unchanged."""
    path = tmp_path / "net.npz"
    save_network(net, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    save_network(net, tmp_path / "again.npz")
    assert (tmp_path / "again.npz").read_bytes() == path.read_bytes()
    back = load_network(path)
    assert_same_layers(back, net)
    assert back.metadata == net.metadata


# the ids leave the digests out, so a digest regenerated on purpose keeps
# the test's name
@pytest.mark.parametrize(
    "method, build, digest",
    [
        pytest.param("richardson", build_richardson_net,
                     "f89be782d4a1119b602be29be27ee0ca6584a0130ae56500152fcfc9e9b29461",
                     id="richardson-build_richardson_net"),
        pytest.param("cg", build_cg_net,
                     "03fd8996b6674d6327f4e6904a1077df68f7af6f100b2da459e318027bdad830",
                     id="cg-build_cg_net"),
    ],
)
def test_saved_file_bytes_are_frozen(tmp_path, method, build, digest):
    fem = gen_laplacian(1, 4)
    assert_frozen_file(tmp_path, build(fem.pattern, fem.spectral, SolverConfig(method, 0.5)), digest)


@pytest.mark.parametrize(
    "method, build, digest",
    [
        pytest.param("richardson", build_richardson_net,
                     "57e6fd18f38694282c36ba2e64582118c56d67345691c49c9c5bb40a125e98ce",
                     id="richardson-build_richardson_net"),
        pytest.param("cg", build_cg_net,
                     "3852db2f980f810a1ad79b8ea65b7fe353665e62a038d5c1aef189cd6782258a",
                     id="cg-build_cg_net"),
    ],
)
def test_saved_file_bytes_are_frozen_on_a_2d_pattern(tmp_path, method, build, digest):
    # the 5-point stencil of a 3 x 3 grid: diagonal positions at no regular stride
    fem = gen_laplacian(2, 3)
    assert_frozen_file(tmp_path, build(fem.pattern, fem.spectral, SolverConfig(method, 0.5)), digest)


def _output_digest(net, fem) -> str:
    """sha256 of net's outputs on the Laplacian and on random_spd(seed 0).

    Each matrix runs one column batch: +/- its extreme eigenvectors and four
    seeded random right-hand sides, all of norm c_sc * lam.  The first column
    also runs alone as a vector.
    """
    c_sc, lam = net.metadata["c_sc"], fem.spectral.lam
    digest = hashlib.sha256()
    for A in (fem.matrix, random_spd(fem.pattern, fem.spectral, 0)):
        _, vectors = np.linalg.eigh(A.to_dense())
        extreme = vectors[:, [0, -1]]
        # eigh fixes no sign: make each vector's largest entry positive
        extreme = extreme * np.sign(extreme[np.abs(extreme).argmax(axis=0), [0, 1]])
        rhs = np.column_stack(
            [c_sc * lam * extreme, -c_sc * lam * extreme]
            + [random_rhs(fem.n, c_sc, lam, seed) for seed in range(4)]
        )
        batch = np.vstack([np.repeat(A.values[:, None], rhs.shape[1], axis=1), rhs])
        digest.update(evaluate(net, batch).tobytes())
        digest.update(evaluate(net, batch[:, 0]).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "method, build, d, N, digest",
    [
        pytest.param("richardson", build_richardson_net, 1, 4,
                     "ec9bcd57462f96e107d89ab5ae38e7b50cf52ecb632af03cbfd81fe32bc6ad4d",
                     id="richardson-build_richardson_net-1-4"),
        pytest.param("cg", build_cg_net, 1, 4,
                     "c9cfd75225f164ecb6ae33d8234524815fe698f0d80c85534a1bdd9b8e48d560",
                     id="cg-build_cg_net-1-4"),
        pytest.param("richardson", build_richardson_net, 2, 3,
                     "54857d39216611a99694b29762a71264456b1b6174757e06873e3b5449679a78",
                     id="richardson-build_richardson_net-2-3"),
        pytest.param("cg", build_cg_net, 2, 3,
                     "ce77c1b558c52144d94caf2fd8548e2356db2a9b894d5fe14b914b94f2ea0de7",
                     id="cg-build_cg_net-2-3"),
    ],
)
def test_solver_outputs_are_frozen(method, build, d, N, digest):
    # the configs of the saved-file pins; these pin the computed function,
    # not the layer layout that computes it
    fem = gen_laplacian(d, N)
    net = build(fem.pattern, fem.spectral, SolverConfig(method, 0.5))
    assert _output_digest(net, fem) == digest


def _valid_net():
    """Positions A, A, B: a shared 2x2 layer, then a 1x2 output layer.

    Its arrays: shapes [[2, 2], [1, 2]], indptr [0, 2, 3, 0, 2],
    indices [0, 1, 1, 0, 1], data [1, -0.5, 2, 1, 1], bias [0, 0.5, -1],
    program [0, 0, 1].
    """
    a = make_layer((2, 2), [0, 0, 1], [0, 1, 1], [1.0, -0.5, 2.0], bias=[0.0, 0.5])
    b = make_layer((1, 2), [0, 0], [0, 1], [1.0, 1.0], bias=[-1.0])
    return ReluNetwork([a, a, b], metadata={"n": 2})


def test_to_dict_stores_each_distinct_layer_once():
    arrays = network_to_dict(_valid_net())
    expected = {
        "shapes": [[2, 2], [1, 2]],
        "indptr": [0, 2, 3, 0, 2],
        "indices": [0, 1, 1, 0, 1],
        "data": [1.0, -0.5, 2.0, 1.0, 1.0],
        "bias": [0.0, 0.5, -1.0],
        "program": [0, 0, 1],
        "metadata": '{"n": 2}',
    }
    assert {name: arrays[name].tolist() for name in arrays} == expected
    assert [arrays[name].dtype for name in ("shapes", "indptr", "indices", "program")] == [np.int64] * 4


def _set(name, index, value):
    def edit(arrays):
        arrays[name][index] = value
    return edit


def _replace(name, value):
    def edit(arrays):
        arrays[name] = value(arrays[name]) if callable(value) else value
    return edit


def _metadata(text):
    return _replace("metadata", np.array(text))


def _expect_rejected(edit, message):
    arrays = network_to_dict(_valid_net())
    edit(arrays)
    with pytest.raises(NetworkFormatError, match=message):
        network_from_dict(arrays)


def test_from_dict_missing_fields():
    _expect_rejected(lambda arrays: arrays.pop("indices"), "missing array 'indices'")
    _expect_rejected(_replace("program", lambda a: a[:0]), "empty program")


@pytest.mark.parametrize("metadata", [3, [1, 2], "text"])
def test_from_dict_rejects_metadata_that_is_not_an_object(metadata):
    _expect_rejected(_metadata(json.dumps(metadata)), "metadata is not a JSON object")


def test_from_dict_widths_disagreement():
    # the shapes give the widths; every array must have exactly the length they need
    _expect_rejected(_replace("bias", lambda a: np.append(a, 1.0)), "lengths do not add up")
    _expect_rejected(_replace("bias", lambda a: a[:-1]), "layer 3: indptr or bias shorter")
    _expect_rejected(_replace("indptr", lambda a: a[:-1]), "layer 3: indptr or bias shorter")
    _expect_rejected(_replace("indices", lambda a: a[:-1]), "layer 3: triplet arrays must have equal")
    _expect_rejected(_replace("indices", lambda a: np.append(a, 0)), "lengths do not add up")

    def extra_weight(arrays):
        arrays["indices"] = np.append(arrays["indices"], 0)
        arrays["data"] = np.append(arrays["data"], 1.0)

    _expect_rejected(extra_weight, "lengths do not add up")


def test_from_dict_rejects_out_of_range_entries():
    _expect_rejected(_set("indices", 4, 5), r"layer 3: triplet \(0, 5\) out of range")
    # (0, 2) has the flat key 0 * 2 + 2 of (1, 0); it must not pass as a duplicate
    _expect_rejected(_replace("indices", np.array([0, 2, 0, 0, 1])),
                     r"layer 1: triplet \(0, 2\) out of range")

    def zero_outside(arrays):
        _set("indices", 4, 5)(arrays)
        _set("data", 4, 0.0)(arrays)

    _expect_rejected(zero_outside, r"layer 3: triplet \(0, 5\) out of range")
    for edit in (_set("shapes", (1, 0), -1), _replace("shapes", lambda a: np.hstack([a, a[:, :1]]))):
        _expect_rejected(edit, r"\(rows, cols\) pair")
    _expect_rejected(_replace("shapes", lambda a: a + 0.5), "'shapes' must be 2-d integer")
    _expect_rejected(_set("data", 0, np.nan), "layer 1: non-finite weight")
    _expect_rejected(_set("data", 3, -np.inf), "layer 3: non-finite weight")
    _expect_rejected(_set("bias", 2, np.inf), "layer 3: non-finite bias")


def test_from_dict_rejects_broken_shape_chain():
    # layer 3 reads 3 inputs from the 2 rows of layer 2
    _expect_rejected(_set("shapes", (1, 1), 3), "layer 3: weight expects 3 inputs but receives 2")


def test_from_dict_rejects_malformed_triplet():
    _expect_rejected(_replace("indices", lambda a: a + 0.5), "'indices' must be 1-d integer")
    _expect_rejected(_set("indptr", 0, 1), "layer 1: indptr must rise from 0")
    _expect_rejected(_set("indptr", 1, 4), "layer 1: indptr must rise from 0")
    _expect_rejected(_set("indptr", 4, 3), "layer 3: indptr must rise .* at most the 5")


# defects beyond the test_from_dict_* cases, written to a file
DEFECTS = {
    "pickled array": (_replace("program", np.array([0, 0, 1], dtype=object)),
                      "array 'program' cannot be read"),
    "float program": (_replace("program", lambda a: a.astype(float)), "'program' must be 1-d integer"),
    "integer weights": (_replace("data", lambda a: a.astype(np.int64)), "'data' must be 1-d floating"),
    "string bias": (_replace("bias", lambda a: a.astype(str)), "'bias' must be 1-d floating"),
    "flat shapes": (_replace("shapes", lambda a: a.ravel()), "'shapes' must be 2-d integer"),
    "program index past the table": (_set("program", 2, 2), "program index 2 outside the table of 2"),
    "negative program index": (_set("program", 0, -1), "program index -1 outside"),
    "unused table entry": (_replace("program", lambda a: a[:2]), "the table has 2 entries but the program uses 1"),
    "duplicate index": (_set("indices", 1, 0), "layer 1: duplicate triplet"),
    "stored zero": (_set("data", 1, 0.0), "layer 1: a stored weight is zero"),
    "metadata null": (_metadata("null"), "metadata is not a JSON object"),
    "metadata not JSON": (_metadata("{oops"), "metadata is not valid JSON"),
    "metadata nested too deep": (_metadata("[" * 100_000), "metadata is not valid JSON"),
    "metadata not text": (_replace("metadata", np.array(3)), "'metadata' must be 0-d str"),
    "metadata list of text": (_replace("metadata", np.array(['{"n": 2}'])), "'metadata' must be 0-d str"),
}


@pytest.mark.parametrize("edit, message", DEFECTS.values(), ids=DEFECTS.keys())
def test_load_rejects_defective_arrays(tmp_path, edit, message):
    path = tmp_path / "net.npz"
    save_network(_valid_net(), path)
    with np.load(path) as archive:
        arrays = dict(archive)
    edit(arrays)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
    with pytest.raises(NetworkFormatError, match=message):
        load_network(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(NetworkFormatError, match="not an .npz archive"):
        load_network(path)


def _truncated_archive(path):
    save_network(_valid_net(), path)
    path.write_bytes(path.read_bytes()[:200])


def _bare_npy(path):
    with open(path, "wb") as handle:
        np.save(handle, np.arange(3))


@pytest.mark.parametrize("write", [
    pytest.param(lambda path: path.write_text(
        '{"widths":[1,1],"layers":[{"rows":1,"cols":1,"triplets":[[0,0,1.0]],"bias":[]}]}'
    ), id="json network"),
    pytest.param(lambda path: path.write_bytes(b""), id="empty"),
    pytest.param(_bare_npy, id="bare npy"),
    pytest.param(_truncated_archive, id="truncated zip"),
])
def test_load_rejects_files_that_are_not_npz_archives(tmp_path, write):
    path = tmp_path / "net.npz"
    write(path)
    with pytest.raises(NetworkFormatError, match="not an .npz archive"):
        load_network(path)


@st.composite
def layer_stacks(draw):
    """Layers from make_layer whose shapes chain, with the input width."""
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    layers = []
    for rows, cols in zip(dims[1:], dims[:-1]):
        n_entries = draw(st.integers(1, rows * cols))
        positions = draw(
            st.lists(
                st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
                min_size=n_entries,
                max_size=n_entries,
                unique=True,
            )
        )
        vals = draw(
            st.lists(
                st.floats(-8.0, 8.0, allow_nan=False, allow_infinity=False),
                min_size=len(positions),
                max_size=len(positions),
            )
        )
        bias = draw(
            st.none()
            | st.lists(
                st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
                min_size=rows,
                max_size=rows,
            )
        )
        layers.append(
            make_layer(
                (rows, cols),
                [p[0] for p in positions],
                [p[1] for p in positions],
                vals,
                bias=bias,
            )
        )
    return layers, dims[0]


@st.composite
def shared_nets(draw):
    """A walk over a layer_stacks table: positions repeat layer objects."""
    table, width = draw(layer_stacks())
    layers = []
    inputs = width
    for _ in range(draw(st.integers(1, 8))):
        fits = [layer for layer in table if layer.cols == inputs]
        if not fits:
            break
        layers.append(draw(st.sampled_from(fits)))
        inputs = layers[-1].rows
    x = draw(
        st.lists(
            st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
            min_size=width,
            max_size=width,
        )
    )
    return ReluNetwork(layers), np.array(x)


@settings(max_examples=60, deadline=None)
@given(shared_nets())
def test_round_trip_is_lossless(case):
    net, x = case
    buffer = io.BytesIO()
    np.savez(buffer, **network_to_dict(net))
    buffer.seek(0)
    with np.load(buffer) as archive:
        back = network_from_dict(archive)
    assert len(set(map(id, back.layers))) == len(set(map(id, net.layers)))
    assert_same_layers(back, net)
    assert stats(back) == stats(net)
    assert np.array_equal(evaluate(back, x), evaluate(net, x))


def _reference_evaluate(net, x):
    """relu(W x + b) layer by layer through scipy's public sparse product."""
    x = np.asarray(x, dtype=np.float64)
    for k, layer in enumerate(net.layers):
        z = layer.weight @ x + (layer.bias if x.ndim == 1 else layer.bias[:, None])
        x = np.maximum(z, 0.0) if k < net.depth - 1 else z
    return x


# how a (width x 5) block of samples is handed to evaluate
INPUT_FORMS = {
    "vector": lambda a, k: a[:, 0],
    "batch": lambda a, k: np.ascontiguousarray(a[:, :k]),
    "fortran": lambda a, k: np.asfortranarray(a[:, :k]),
    "column-sliced": lambda a, k: a[:, 1::2],
    "list vector": lambda a, k: a[:, 0].tolist(),
    "list batch": lambda a, k: a[:, :k].tolist(),
    "integer vector": lambda a, k: np.rint(a[:, 0]).astype(np.int64),
    "integer batch": lambda a, k: np.rint(a[:, :k]).astype(np.int64).tolist(),
}


@settings(max_examples=150, deadline=None)
@given(
    layer_stacks(),
    st.data(),
    st.integers(0, 5),
    st.sampled_from(sorted(INPUT_FORMS)),
    # the default, one column per block, and blocks of 1 to 4 columns
    st.sampled_from([None, 1, 4]),
)
def test_evaluate_matches_public_sparse_product(stack, data, columns, form, block_entries):
    layers, width = stack
    net = ReluNetwork(layers)
    samples = np.array(
        data.draw(
            st.lists(
                st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
                min_size=5 * width,
                max_size=5 * width,
            )
        )
    ).reshape(width, 5)
    x = INPUT_FORMS[form](samples, columns)
    with mock.patch.object(network, "_BLOCK_ENTRIES", block_entries or network._BLOCK_ENTRIES):
        out = evaluate(net, x)
    expected = _reference_evaluate(net, x)
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()


def _reference_fault(net, x):
    """Index of the first layer of _reference_evaluate with a non-finite output."""
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, layer in enumerate(net.layers, start=1):
            z = layer.weight @ x + (layer.bias if x.ndim == 1 else layer.bias[:, None])
            if not np.isfinite(z).all():
                return k
            x = np.maximum(z, 0.0)
    return None


@settings(max_examples=150, deadline=None)
@given(
    layer_stacks(),
    st.data(),
    st.integers(0, 4),
    st.sampled_from([None, 1]),
)
def test_evaluate_faults_where_the_reference_turns_non_finite(stack, data, columns, block_entries):
    """Huge, infinite and NaN inputs: the same fault layer, or the same bytes."""
    layers, width = stack
    net = ReluNetwork(layers)
    huge = st.floats(1e300, 1e308) | st.floats(-1e308, -1e300)
    values = st.floats(-5.0, 5.0) | huge | st.sampled_from([np.inf, -np.inf, np.nan])
    shape = (width, columns) if columns else (width,)
    x = np.array(data.draw(st.lists(values, min_size=width * max(columns, 1),
                                    max_size=width * max(columns, 1)))).reshape(shape)
    expected = _reference_fault(net, x)
    with mock.patch.object(network, "_BLOCK_ENTRIES", block_entries or network._BLOCK_ENTRIES):
        if expected is None:
            assert evaluate(net, x).tobytes() == _reference_evaluate(net, x).tobytes()
        else:
            with pytest.raises(EvaluationFault) as exc:
                evaluate(net, x)
            assert exc.value.layer_index == expected
