"""Representation, evaluation, and serialization round-trips."""

import hashlib
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

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
    validate,
)
from relusolve.problems import gen_laplacian
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


@pytest.mark.parametrize("batch", [False, True])
def test_evaluate_rejects_layers_that_do_not_fit(batch):
    # Layer is permissive; evaluate must refuse before a kernel reads past a buffer
    x = np.ones((3, 4)) if batch else np.ones(3)
    broken_chain = ReluNetwork([Layer(sp.csr_matrix((2, 3))), Layer(sp.csr_matrix((1, 3)))])
    with pytest.raises(ValueError, match="layer 2: weight expects 3 inputs but receives 2"):
        evaluate(broken_chain, x)
    eye = sp.eye(3, format="csr")
    for bias in ([1.0, 2.0], [0.0, 0.0, 0.0, 0.0], [5.0]):
        net = ReluNetwork([Layer(eye), Layer(eye, bias=bias)])
        with pytest.raises(ValueError, match=f"layer 2: bias length {len(bias)} does not match 3"):
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
    assert out.tolist() == [1.5e308, 1.5e308]
    assert batch.tolist() == [[1.5, 1.5e308], [1.5, 1.5e308]]


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


def test_validate_reports_shape_chain_breaks():
    l1 = Layer(sp.csr_matrix((2, 3)))
    l2 = Layer(sp.csr_matrix((1, 3)))  # expects 3 inputs, receives 2
    defects = validate(ReluNetwork([l1, l2]))
    assert any("expects 3 inputs but receives 2" in d for d in defects)


def test_validate_reports_bias_length_and_non_finite():
    good = sp.eye(2, format="csr")
    bad_bias = Layer(good, bias=[1.0, 2.0, 3.0])
    bad_weight = Layer(sp.csr_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]])))
    defects = validate(ReluNetwork([bad_bias, bad_weight]))
    assert any("bias length 3" in d for d in defects)
    assert any("non-finite weight" in d for d in defects)


def test_validate_clean_network_returns_empty():
    net = ReluNetwork([make_layer((2, 2), [0, 1], [0, 1], [1.0, 1.0])])
    assert validate(net) == []


def test_dict_round_trip_preserves_evaluation_and_metadata():
    rng = np.random.default_rng(11)
    l1 = make_layer((3, 2), [0, 1, 2], [1, 0, 1], [0.25, -1.5, 3.0], bias=[0.0, 0.5, 0.0])
    l2 = make_layer((2, 3), [0, 1], [2, 0], [1.0, -2.0], bias=[0.125, 0.0])
    net = ReluNetwork([l1, l2], metadata={"method": "test", "m": 3})
    back = network_from_dict(network_to_dict(net))
    assert back.metadata == {"method": "test", "m": 3}
    assert back.load_defects == ()
    assert stats(back) == stats(net)
    for _ in range(5):
        x = rng.normal(size=2) * 10
        assert np.array_equal(evaluate(back, x), evaluate(net, x))


def test_save_and_load_file_round_trip(tmp_path):
    net = ReluNetwork(
        [make_layer((2, 2), [0, 1], [0, 0], [1.0, -0.5], bias=[0.0, 2.0])],
        metadata={"n": 2},
    )
    path = tmp_path / "net.json"
    save_network(net, path)
    back = load_network(path)
    assert back.metadata == {"n": 2}
    x = np.array([3.0, -4.0])
    assert np.array_equal(evaluate(back, x), evaluate(net, x))


@pytest.mark.parametrize(
    "method, build, digest",
    [
        ("richardson", build_richardson_net,
         "dfffb342444e7982ed6cd7f7a137e6d0c6272d20a4761c58819459ebaaff764f"),
        ("cg", build_cg_net,
         "731e3ec00917ef2ce8c5a097e189c17ec018c4aa939c97c8ee6de8a63c0749b9"),
    ],
)
def test_saved_file_bytes_are_frozen(tmp_path, method, build, digest):
    fem = gen_laplacian(1, 4)
    net = build(fem.pattern, fem.spectral, SolverConfig(method, 0.5))
    path = tmp_path / "net.json"
    save_network(net, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(NetworkFormatError, match="not valid JSON"):
        load_network(path)


def test_from_dict_missing_fields():
    with pytest.raises(NetworkFormatError, match="missing network field"):
        network_from_dict({"widths": [1, 1]})
    with pytest.raises(NetworkFormatError, match="no layers"):
        network_from_dict({"widths": [1], "layers": []})


def test_from_dict_widths_disagreement():
    data = {
        "widths": [2, 5],
        "layers": [{"rows": 1, "cols": 2, "triplets": [[0, 0, 1.0]], "bias": []}],
    }
    with pytest.raises(NetworkFormatError, match="disagrees"):
        network_from_dict(data)


def test_from_dict_rejects_out_of_range_entries():
    base = {"widths": [2, 1], "layers": [{"rows": 1, "cols": 2, "triplets": [], "bias": []}]}
    bad_trip = {**base, "layers": [{**base["layers"][0], "triplets": [[0, 5, 1.0]]}]}
    with pytest.raises(NetworkFormatError, match="out of range"):
        network_from_dict(bad_trip)
    bad_bias = {**base, "layers": [{**base["layers"][0], "bias": [[7, 1.0]]}]}
    with pytest.raises(NetworkFormatError, match="bias index 7"):
        network_from_dict(bad_bias)
    # (0, 2) has the flat key 0 * 2 + 2 of (1, 0); it must not pass as a duplicate
    aliased = {
        "widths": [2, 2],
        "layers": [{"rows": 2, "cols": 2, "triplets": [[1, 0, 1.0], [0, 2, 1.0]], "bias": []}],
    }
    with pytest.raises(NetworkFormatError, match=r"\(0, 2\) out of range"):
        network_from_dict(aliased)
    zero_outside = {**base, "layers": [{**base["layers"][0], "triplets": [[0, 5, 0.0]]}]}
    with pytest.raises(NetworkFormatError, match="out of range"):
        network_from_dict(zero_outside)
    for rows in (-1, 1.5):
        bad_shape = {"widths": [2, rows], "layers": [{**base["layers"][0], "rows": rows}]}
        with pytest.raises(NetworkFormatError, match="malformed entry"):
            network_from_dict(bad_shape)
    for field, value, message in (
        ("triplets", [[0, 0, float("nan")]], "non-finite weight"),
        ("triplets", [[0, 1, float("-inf")]], "non-finite weight"),
        ("bias", [[0, float("inf")]], "non-finite bias"),
    ):
        bad = {**base, "layers": [{**base["layers"][0], field: value}]}
        with pytest.raises(NetworkFormatError, match=message):
            network_from_dict(bad)


def test_from_dict_rejects_broken_shape_chain():
    # widths agree with the rows, but layer 2 reads 3 inputs from 2 rows
    data = {
        "widths": [2, 2, 1],
        "layers": [
            {"rows": 2, "cols": 2, "triplets": [[0, 0, 1.0]], "bias": []},
            {"rows": 1, "cols": 3, "triplets": [[0, 2, 1.0]], "bias": []},
        ],
    }
    with pytest.raises(NetworkFormatError, match="layer 2: weight expects 3 inputs but receives 2"):
        network_from_dict(data)


def test_from_dict_rejects_malformed_triplet():
    data = {
        "widths": [1, 1],
        "layers": [{"rows": 1, "cols": 1, "triplets": [["x"]], "bias": []}],
    }
    with pytest.raises(NetworkFormatError, match="malformed triplet"):
        network_from_dict(data)
    for triplets in ([[0.7, 0.2, 1.0]], [[0, 0, 1.0, 5.0]], [[0, 0]], [[0, 0, 1.0], [0]]):
        data["layers"][0]["triplets"] = triplets
        with pytest.raises(NetworkFormatError, match="malformed triplet"):
            network_from_dict(data)
    data["layers"][0]["triplets"] = []
    data["layers"][0]["bias"] = [[0.5, 1.0]]
    with pytest.raises(NetworkFormatError, match="malformed bias pair"):
        network_from_dict(data)


def test_from_dict_records_duplicates_and_zeros_as_defects():
    data = {
        "widths": [1, 1],
        "layers": [
            {
                "rows": 1,
                "cols": 1,
                "triplets": [[0, 0, 1.0], [0, 0, 2.0]],
                "bias": [],
            }
        ],
    }
    net = network_from_dict(data)
    assert any("duplicate triplet" in d for d in net.load_defects)
    assert net.layers[0].weight[0, 0] == 1.0  # the first occurrence is kept
    data["layers"][0]["bias"] = [[0, 3.0], [0, 4.0]]
    net = network_from_dict(data)
    assert "layer 1: duplicate bias index 0" in net.load_defects
    assert net.layers[0].bias[0] == 3.0
    data["layers"][0]["bias"] = []
    data["layers"][0]["triplets"] = [[0, 0, 0.0]]
    data["widths"] = [1, 1]
    net = network_from_dict(data)
    assert any("explicit zero" in d for d in net.load_defects)
    assert validate(net)  # load defects surface through validate


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
def small_nets(draw):
    layers, width = draw(layer_stacks())
    x = draw(
        st.lists(
            st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
            min_size=width,
            max_size=width,
        )
    )
    return ReluNetwork(layers), np.array(x)


@settings(max_examples=60, deadline=None)
@given(small_nets())
def test_round_trip_is_lossless(case):
    net, x = case
    back = network_from_dict(network_to_dict(net))
    assert back.load_defects == ()
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
)
def test_evaluate_matches_public_sparse_product(stack, data, columns, form):
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
    out = evaluate(net, x)
    expected = _reference_evaluate(net, x)
    assert out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
