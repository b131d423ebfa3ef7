"""Sparse ReLU feed-forward networks: representation, evaluation, serialization.

A network is an ordered list of affine layers (W, b).  Evaluation applies
x -> max(W x + b, 0) after every layer except the last, which stays affine.
Weight matrices are kept in canonical CSR form without explicit zeros, so the
weight count of a layer is exactly the number of stored entries plus the
number of nonzero bias components.

evaluate runs one loop over the layers, for a vector and for a column block
alike.  Each layer calls scipy's compiled CSR kernel (csr_matvec for a
vector, csr_matvecs for a block, the kernels W @ x ends in) on the arrays of
[W | b], prepared by the layer on first use: each nonzero bias entry is the
last stored entry of its row, at column cols, and every activation carries a
trailing row of constant 1, so the kernel adds b * 1.0 after the row's
weighted terms, the rounding of z + b.  The output goes to a fresh zero
array and hidden layers then apply the ReLU in place.  A batch runs in
blocks of _BLOCK_ENTRIES // (widest layer) columns, so each layer's input
and output blocks stay in cache.

EvaluationFault names the first layer whose output holds an inf or NaN,
read later or not; over a batch, the smallest such layer over all blocks.
The loop carries a bound on the activation's magnitude: each layer
multiplies it by its largest row sum of |[W | b]|.  While the bound stays
below _FINITE_BOUND no value can overflow, so the output is finite and is
not screened.  Otherwise (always at the first layer) the output is screened
with one sum, scanned exactly only when that sum is not finite, and the
bound restarts from the ReLU output's maximum.  The kernels check no
shapes, so a layer whose input count or bias length does not fit raises
ValueError before its kernel call, unless a block faulted at an earlier
layer.  The result is bit for bit that of relu(W @ x + b) per layer.

On disk a network is JSON: the widths, per layer its shape, row-major
[i, j, w] triplets and [i, b] pairs for the nonzero bias, and the metadata.
A layer object repeated across positions is encoded once.  Decoding goes
through make_layer, the check the builders use.  NetworkFormatError is raised
for a missing field, a layer shape that is not two counts, an entry that is
not a list of numbers of the right length, a non-integer or out-of-range
index, a non-finite weight or bias, widths that disagree with the layers,
a layer whose input count differs from the previous layer's rows, or
metadata that is not a JSON object.
Duplicate triplets, explicit zeros and duplicate bias indices are dropped
(the first occurrence is kept) and recorded in load_defects, which
validate() reports.
"""

from __future__ import annotations

import json
import math
import os
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

    __slots__ = ("weight", "bias", "_kernel")

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
        self._kernel = None

    def kernel_args(self) -> tuple:
        """(indptr, indices, data, gain): the CSR arrays of [W | b] evaluate runs.

        Each nonzero bias entry is the last stored entry of its row, at
        column cols, where every activation holds a constant 1.  gain is
        the largest row sum of |[W | b]|, at least 1 (NaN for a NaN entry).
        Prepared on first use and kept, so a layer object repeated across
        positions is folded once and building or loading a network pays
        nothing; a layer without a nonzero bias runs its own arrays.
        """
        if self._kernel is None:
            w, b = self.weight, self.bias
            kernel = (w.indptr, w.indices, w.data)
            if b.any():
                has = b != 0.0
                indptr = w.indptr.copy()
                indptr[1:] += np.cumsum(has, dtype=indptr.dtype)
                ends = indptr[1:][has] - 1
                is_weight = np.ones(indptr[-1], dtype=bool)
                is_weight[ends] = False
                indices = np.empty(indptr[-1], dtype=indptr.dtype)
                indices[is_weight] = w.indices
                indices[ends] = w.shape[1]
                data = np.empty(indptr[-1])
                data[is_weight] = w.data
                data[ends] = b[has]
                kernel = (indptr, indices, data)
                for arr in kernel:
                    arr.flags.writeable = False
            indptr, _, data = kernel
            row_of = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
            row_sums = np.bincount(row_of, weights=np.abs(data), minlength=len(indptr) - 1)
            # np.max keeps a NaN, where max(1.0, nan) would drop it
            self._kernel = (*kernel, float(row_sums.max(initial=1.0)))
        return self._kernel

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


# entries of one activation block: a batch runs in blocks of this many
# entries over the widest layer's rows in columns, so that a layer's input
# and output blocks (8 bytes an entry) stay within about 1 MB of cache
_BLOCK_ENTRIES = 2**16

# a layer fed finite values of magnitude at most x, with row sums of
# |[W | b]| at most gain, computes values of magnitude at most gain * x times
# (1 + 2**-53)**(2 * terms in a row), far below 2 for any row that fits in
# memory; so when gain * x < 2**1000 no value can overflow, the output is
# finite and evaluate skips its screen
_FINITE_BOUND = 2.0**1000


def evaluate(net: ReluNetwork, x) -> np.ndarray:
    """Run the network on a vector, or on a (N0 x batch) matrix of columns.

    Raises ValueError when a layer cannot read the values it receives and
    EvaluationFault at the first layer whose output is not finite; for a
    batch, at the first such layer over all columns.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("input must be a vector or a matrix of column samples")
    if x.ndim == 1:
        out, failure = _forward(net.layers, x, net.depth)
        if failure is not None:
            raise failure[1]
        return out
    batch = x.shape[1]
    step = max(1, _BLOCK_ENTRIES // max(net.widths))
    out = np.empty((net.output_dim, batch))
    failure = None
    stop = net.depth
    # every block runs, but only up to the layer before the first failure
    # so far; the failure with the smallest layer index is the whole batch's
    for start in range(0, max(batch, 1), step):
        block, fail = _forward(net.layers, x[:, start:start + step], stop)
        if fail is not None:
            failure, stop = fail, fail[0] - 1
        elif failure is None:
            out[:, start:start + step] = block
    if failure is not None:
        raise failure[1]
    return out


def _forward(layers, x, stop):
    """Run layers[:stop] on a vector or a column block.

    Return (output, None), or (None, (index, error)) at the first layer
    that cannot read its input or whose output is not finite.  Every
    activation carries a trailing row of ones for the bias column of the
    kernel arrays; the output has none.
    """
    batch = x.shape[1:]
    n = x.shape[0]
    z = np.empty((n + 1,) + batch)
    z[:n] = x
    z[n] = 1.0
    last = len(layers)
    # bound on the magnitude of the activation's entries, ones row included;
    # unknown for the input
    bound = math.inf
    # the screen's sum may overflow on finite values; that is not a fault
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, layer in enumerate(layers[:stop], start=1):
            rows, cols = layer.weight.shape
            # the CSR kernels read raw buffers and check no shapes
            if cols != n:
                return None, (idx, ValueError(_input_mismatch(idx, cols, n)))
            if layer.bias.shape[0] != rows:
                return None, (idx, ValueError(_bias_mismatch(idx, layer)))
            indptr, indices, data, gain = layer._kernel or layer.kernel_args()
            x, n = z, rows
            hidden = idx < last
            z = np.zeros((rows + hidden,) + batch)
            if hidden:
                z[rows] = 1.0
            # the kernel adds b * 1.0 after the row's weighted terms, the
            # same rounding as z + b; it sums from +0.0 and never yields
            # -0.0, so a zero bias left out changes no output bit
            if batch:
                _sparsetools.csr_matvecs(rows, cols + 1, batch[0], indptr, indices, data, x, z)
            else:
                _sparsetools.csr_matvec(rows, cols + 1, indptr, indices, data, x, z)
            bound *= gain
            # past the bound (or when it is NaN) screen the output: any inf or
            # NaN makes the sum non-finite, and the exact scan runs only then,
            # so a finite layer whose sum overflows still passes
            screened = not bound < _FINITE_BOUND
            if screened and not math.isfinite(z.sum()) and not np.isfinite(z).all():
                fault = EvaluationFault(idx, "non-finite value in layer output")
                return None, (idx, fault)
            if hidden:
                # the ones row stays 1 under the ReLU
                np.maximum(z, 0.0, out=z)
                if screened:
                    bound = float(z.max(initial=1.0))
    return z, None


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
    metadata = data.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise NetworkFormatError(f"metadata is not a JSON object: {metadata!r:.60}")
    net = ReluNetwork(layers, metadata=metadata, load_defects=defects)
    if list(net.widths) != widths:
        raise NetworkFormatError(
            f"widths field {widths} disagrees with layer shapes {list(net.widths)}"
        )
    return net


def atomic_write_text(path, text: str) -> None:
    """Write text to path through a temp file in the same directory + rename.

    The file gets the mode open(path, "w") gives a new file: 0o666 less the
    umask (a tempfile.mkstemp file would stay 0o600).
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
