"""Sparse ReLU feed-forward networks: representation, evaluation, serialization.

A network is an ordered list of affine layers (W, b).  Evaluation applies
x -> max(W x + b, 0) after every layer except the last, which stays affine.
Weight matrices are kept in canonical CSR form without explicit zeros, so the
weight count of a layer is exactly the number of stored entries plus the
number of nonzero bias components.

evaluate runs one loop over the layers.  Each layer calls scipy's compiled
CSR kernel (csr_matvec for a vector, csr_matvecs for a column batch, the
kernels W @ x ends in) with arguments the Layer prepared once, writing into
a fresh zero array.  A nonzero bias is added in place.  The output is
screened with one sum, and scanned exactly only when that sum is not finite,
so EvaluationFault names the first layer holding an inf or NaN, read later
or not.  Hidden layers then apply the ReLU in place.  The kernels check no
shapes, so a layer whose input count or bias length does not fit raises
ValueError before its kernel call.  The result is bit for bit that of
relu(W @ x + b) per layer.

On disk a network is JSON: the widths, per layer its shape, row-major
[i, j, w] triplets and [i, b] pairs for the nonzero bias, and the metadata.
A layer object repeated across positions is encoded once.  Decoding goes
through make_layer, the check the builders use.  NetworkFormatError is raised
for a missing field, a layer shape that is not two counts, an entry that is
not a list of numbers of the right length, a non-integer or out-of-range
index, a non-finite weight or bias, widths that disagree with the layers,
or a layer whose input count differs from the previous layer's rows.
Duplicate triplets, explicit zeros and duplicate bias indices are dropped
(the first occurrence is kept) and recorded in load_defects, which
validate() reports.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

__all__ = [
    "EvaluationFault",
    "Layer",
    "NetworkFormatError",
    "NetworkStats",
    "ReluNetwork",
    "evaluate",
    "load_network",
    "make_layer",
    "network_from_dict",
    "network_to_dict",
    "save_network",
    "stats",
    "validate",
]


class NetworkFormatError(ValueError):
    """A serialized network could not be decoded."""


class EvaluationFault(RuntimeError):
    """A non-finite value appeared while evaluating a network."""

    def __init__(self, layer_index: int, message: str):
        super().__init__(f"layer {layer_index}: {message}")
        self.layer_index = layer_index


class Layer:
    """One affine layer W x + b with sparse W and dense b.

    The constructor is permissive (wrong shapes and non-finite entries are
    representable) so that validate() has something to report; builders go
    through make_layer which is strict.
    """

    __slots__ = ("weight", "bias", "kernel_args")

    def __init__(self, weight, bias=None):
        w = sp.csr_matrix(weight, dtype=np.float64)
        w.sort_indices()
        self.weight = w
        if bias is None:
            b = np.zeros(w.shape[0])
        else:
            b = np.array(bias, dtype=np.float64).reshape(-1)
        self.bias = b
        # freeze the buffers; networks are immutable after construction
        for arr in (w.data, w.indices, w.indptr, b):
            arr.flags.writeable = False
        # the CSR kernel arguments of evaluate, prepared once per layer object
        # (a network repeats one object at many positions); a zero bias is None
        self.kernel_args = (*w.shape, w.indptr, w.indices, w.data, b if b.any() else None)

    @property
    def rows(self) -> int:
        return self.weight.shape[0]

    @property
    def cols(self) -> int:
        return self.weight.shape[1]


def make_layer(shape, rows, cols, vals, bias=None) -> Layer:
    """Build a layer from triplets, dropping zeros and rejecting bad entries.

    This is the one check of layer contents, for builders and for decoded
    files alike: every index lies inside shape, no position is stored twice
    once zeros are dropped, and weights and bias are finite.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    if not (len(rows) == len(cols) == len(vals)):
        raise ValueError("triplet arrays must have equal length")
    outside = (rows < 0) | (rows >= shape[0]) | (cols < 0) | (cols >= shape[1])
    if outside.any():
        k = int(np.argmax(outside))
        raise ValueError(f"triplet ({rows[k]}, {cols[k]}) out of range")
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    flat = rows * shape[1] + cols
    if len(np.unique(flat)) != len(flat):
        raise ValueError("duplicate triplet positions")
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite weight value")
    w = sp.csr_matrix((vals, (rows, cols)), shape=shape)
    if bias is not None:
        bias = np.asarray(bias, dtype=np.float64)
        if not np.all(np.isfinite(bias)):
            raise ValueError("non-finite bias value")
    return Layer(w, bias)


class ReluNetwork:
    """Immutable list of layers, with optional metadata carried to disk."""

    __slots__ = ("layers", "metadata", "load_defects")

    def __init__(self, layers, metadata=None, load_defects=()):
        layers = tuple(layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        self.layers = layers
        self.metadata = dict(metadata) if metadata is not None else None
        self.load_defects = tuple(load_defects)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].cols

    @property
    def output_dim(self) -> int:
        return self.layers[-1].rows

    @property
    def widths(self) -> tuple:
        return (self.layers[0].cols,) + tuple(layer.rows for layer in self.layers)

    def __repr__(self):
        return f"ReluNetwork(depth={self.depth}, widths={self.input_dim}->{self.output_dim})"


def evaluate(net: ReluNetwork, x) -> np.ndarray:
    """Run the network on a vector, or on a (N0 x batch) matrix of columns.

    Raises ValueError when a layer cannot read the values it receives and
    EvaluationFault at the first layer whose output is not finite.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("input must be a vector or a matrix of column samples")
    # the CSR kernels read raw row-major buffers and check no shapes
    x = np.ascontiguousarray(x)
    batch = x.shape[1:]
    last = net.depth
    # the screen's sum may overflow on finite values; that is not a fault
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, layer in enumerate(net.layers, start=1):
            rows, cols, indptr, indices, data, bias = layer.kernel_args
            if cols != x.shape[0]:
                raise ValueError(_input_mismatch(idx, cols, x.shape[0]))
            if layer.bias.shape[0] != rows:
                raise ValueError(_bias_mismatch(idx, layer))
            z = np.zeros((rows,) + batch)
            if batch:
                _sparsetools.csr_matvecs(rows, cols, batch[0], indptr, indices, data, x, z)
            else:
                _sparsetools.csr_matvec(rows, cols, indptr, indices, data, x, z)
            # the kernels sum from +0.0 and never yield -0.0, so skipping a
            # zero bias leaves every output bit as z + 0.0 would
            if bias is not None:
                z += bias[:, None] if batch else bias
            # any inf or NaN makes the sum non-finite; the exact scan runs
            # only then, so a finite layer whose sum overflows still passes
            if not math.isfinite(z.sum()) and not np.isfinite(z).all():
                raise EvaluationFault(idx, "non-finite value in layer output")
            if idx < last:
                np.maximum(z, 0.0, out=z)
            x = z
    return x


@dataclass(frozen=True)
class NetworkStats:
    depth: int
    weights: int
    per_layer: tuple
    max_width: int
    input_dim: int
    output_dim: int


def stats(net: ReluNetwork) -> NetworkStats:
    """Exact depth and stored-weight counts; zeros are never stored."""
    per_layer = tuple(
        int(layer.weight.nnz) + int(np.count_nonzero(layer.bias)) for layer in net.layers
    )
    return NetworkStats(
        depth=net.depth,
        weights=sum(per_layer),
        per_layer=per_layer,
        max_width=max(net.widths),
        input_dim=net.input_dim,
        output_dim=net.output_dim,
    )


def _input_mismatch(idx: int, cols: int, inputs: int) -> str:
    return f"layer {idx}: weight expects {cols} inputs but receives {inputs}"


def _bias_mismatch(idx: int, layer: Layer) -> str:
    return f"layer {idx}: bias length {layer.bias.shape[0]} does not match {layer.rows} rows"


def validate(net: ReluNetwork) -> list:
    """Return a list of structural defects (empty means well-formed)."""
    defects = list(net.load_defects)
    prev_rows = net.layers[0].cols
    for idx, layer in enumerate(net.layers, start=1):
        if layer.cols != prev_rows:
            defects.append(_input_mismatch(idx, layer.cols, prev_rows))
        prev_rows = layer.rows
        if layer.bias.shape[0] != layer.rows:
            defects.append(_bias_mismatch(idx, layer))
        if layer.weight.nnz and not np.all(np.isfinite(layer.weight.data)):
            defects.append(f"layer {idx}: non-finite weight entry")
        if not np.all(np.isfinite(layer.bias)):
            defects.append(f"layer {idx}: non-finite bias entry")
    return defects


def _layer_to_dict(layer: Layer) -> dict:
    # canonical CSR (sorted indices) already lists the triplets row-major
    w = layer.weight
    rows = np.repeat(np.arange(layer.rows), np.diff(w.indptr))
    nonzero = np.flatnonzero(layer.bias)
    return {
        "rows": layer.rows,
        "cols": layer.cols,
        "triplets": list(map(list, zip(rows.tolist(), w.indices.tolist(), w.data.tolist()))),
        "bias": list(map(list, zip(nonzero.tolist(), layer.bias[nonzero].tolist()))),
    }


def network_to_dict(net: ReluNetwork) -> dict:
    """JSON-ready dict; a repeated layer is encoded once and its dict shared."""
    encoded = {}
    layers = []
    for layer in net.layers:
        if id(layer) not in encoded:
            encoded[id(layer)] = _layer_to_dict(layer)
        layers.append(encoded[id(layer)])
    out = {"widths": list(net.widths), "layers": layers}
    if net.metadata is not None:
        out["metadata"] = net.metadata
    return out


def _decode_entries(items, width: int, idx: int, what: str):
    """(indices, values, first occurrence mask) of [index..., value] entries.

    Each entry must hold `width` numbers and integer indices; ranges are not checked.
    """
    try:
        table = np.array(items, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise NetworkFormatError(f"layer {idx}: malformed {what}s ({exc})") from exc
    if table.shape == (0,):
        table = table.reshape(0, width)
    if table.ndim != 2 or table.shape[1] != width:
        raise NetworkFormatError(f"layer {idx}: malformed {what}s (each needs {width} numbers)")
    index = table[:, :-1]
    bad = ~((np.floor(index) == index) & (np.abs(index) < 2.0**53)).all(axis=1)
    if bad.any():
        entry = items[int(np.argmax(bad))]
        raise NetworkFormatError(f"layer {idx}: malformed {what} {entry!r} (non-integer index)")
    index = index.astype(np.int64)
    first = np.zeros(len(table), dtype=bool)
    first[np.unique(index, axis=0, return_index=True)[1]] = True
    return index, table[:, -1], first


def _decode_layer(idx: int, entry, defects: list) -> Layer:
    try:
        shape = (int(entry["rows"]), int(entry["cols"]))
        triplets = entry["triplets"]
        bias_pairs = entry["bias"]
    except (KeyError, TypeError, ValueError) as exc:
        raise NetworkFormatError(f"layer {idx}: malformed entry ({exc})") from exc
    if min(shape) < 0 or (entry["rows"], entry["cols"]) != shape:
        raise NetworkFormatError(f"layer {idx}: malformed entry (shape is not two counts)")
    ij, vals, first = _decode_entries(triplets, 3, idx, "triplet")
    for k in np.flatnonzero(~first | (vals == 0.0)):
        kind = "explicit zero stored at" if first[k] else "duplicate triplet"
        defects.append(f"layer {idx}: {kind} ({ij[k, 0]}, {ij[k, 1]})")
    bias_index, bias_vals, bias_first = _decode_entries(bias_pairs, 2, idx, "bias pair")
    bias_index = bias_index[:, 0]
    outside = (bias_index < 0) | (bias_index >= shape[0])
    if outside.any():
        i = bias_index[np.argmax(outside)]
        raise NetworkFormatError(f"layer {idx}: bias index {i} out of range")
    defects.extend(f"layer {idx}: duplicate bias index {i}" for i in bias_index[~bias_first])
    bias = np.zeros(shape[0])
    bias[bias_index[bias_first]] = bias_vals[bias_first]
    try:
        return make_layer(shape, ij[first, 0], ij[first, 1], vals[first], bias)
    except ValueError as exc:
        raise NetworkFormatError(f"layer {idx}: {exc}") from exc


def network_from_dict(data: dict) -> ReluNetwork:
    """Decode network_to_dict output; see the module docstring for defects."""
    try:
        widths = list(data["widths"])
        raw_layers = data["layers"]
    except (KeyError, TypeError) as exc:
        raise NetworkFormatError(f"missing network field: {exc}") from exc
    if not raw_layers:
        raise NetworkFormatError("network has no layers")
    defects = []
    layers = [_decode_layer(idx, entry, defects) for idx, entry in enumerate(raw_layers, start=1)]
    for idx, (prev, layer) in enumerate(zip(layers, layers[1:]), start=2):
        if layer.cols != prev.rows:
            raise NetworkFormatError(_input_mismatch(idx, layer.cols, prev.rows))
    net = ReluNetwork(layers, metadata=data.get("metadata"), load_defects=defects)
    if list(net.widths) != widths:
        raise NetworkFormatError(
            f"widths field {widths} disagrees with layer shapes {list(net.widths)}"
        )
    return net


def atomic_write_text(path, text: str) -> None:
    """Write text to path through a temp file in the same directory + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_network(net: ReluNetwork, path) -> None:
    """Serialize to JSON, written atomically (temp file + rename)."""
    atomic_write_text(path, json.dumps(network_to_dict(net), separators=(",", ":")))


def load_network(path) -> ReluNetwork:
    with open(path, "r") as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetworkFormatError(f"not valid JSON: {exc}") from exc
    return network_from_dict(data)
