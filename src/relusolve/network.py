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
weighted terms, the rounding of z + b.  The output goes to a zero array
(for a block, one of two buffers that alternate by layer) and hidden layers
then apply the ReLU in place.  A batch runs in blocks of
_BLOCK_ENTRIES // (widest layer) columns, so each layer's input and output
blocks stay in cache.

EvaluationFault names the first layer whose output holds an inf or NaN,
read later or not; over a batch, the smallest such layer over all blocks.
The loop carries a bound on the activation's magnitude: each layer
multiplies it by its largest row sum of |[W | b]|.  While the bound stays
below _FINITE_BOUND no value can overflow, so the output is finite and is
not screened.  Otherwise (always at the first layer) the output is screened
with one sum, scanned exactly only when that sum is not finite, and the
bound restarts from the ReLU output's maximum.  The result is bit for bit
that of relu(W @ x + b) per layer.

Layers and networks are checked once, at construction: a Layer holds
finite weights and a bias of one entry per row, and a ReluNetwork's layers
chain, each reading the rows of the one before.  So the kernels, which
check no shapes, need only evaluate's check of its input.

On disk a network is an .npz archive that keeps its sharing: shapes, a
(T, 2) array, and the concatenated CSR arrays indptr, indices, data and
dense bias of its T distinct layer objects in order of first appearance;
program, the table index of each position; and metadata, JSON text in a
0-d string array.  Loading checks each table entry once, its indptr and
then make_layer, which checks index ranges and duplicates; a stored zero,
which make_layer drops, is an error.  The chain is ReluNetwork's check.
Any defect, from a file that is no .npz archive to a broken shape chain,
raises NetworkFormatError.
"""

from __future__ import annotations

import io
import json
import math
import os
import zipfile
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
]


class NetworkFormatError(ValueError):
    """A serialized network could not be decoded."""


class EvaluationFault(RuntimeError):
    """A non-finite value appeared while evaluating a network."""

    def __init__(self, layer_index: int):
        super().__init__(f"layer {layer_index}: non-finite value in layer output")
        self.layer_index = layer_index


class Layer:
    """One affine layer W x + b with sparse W and dense b.

    The constructor drops stored zeros and checks the layer's contents:
    weights and bias are finite, and the bias has one entry per row (zeros
    when None).
    make_layer builds a layer from triplets and adds its own index checks.
    """

    __slots__ = ("weight", "bias", "rows", "cols", "_kernel")

    def __init__(self, weight, bias=None):
        w = sp.csr_matrix(weight, dtype=np.float64)
        # a CSR weight keeps its arrays through the conversion; copy them so
        # the caller's stay theirs (copy=True would cost a second constructor)
        w.data, w.indices, w.indptr = w.data.copy(), w.indices.copy(), w.indptr.copy()
        if not w.data.all():
            w.eliminate_zeros()
        w.sort_indices()
        rows, cols = w.shape
        b = np.zeros(rows) if bias is None else np.array(bias, dtype=np.float64).reshape(-1)
        if not np.isfinite(w.data).all():
            raise ValueError("non-finite weight value")
        if not np.isfinite(b).all():
            raise ValueError("non-finite bias value")
        if len(b) != rows:
            raise ValueError(f"bias length {len(b)} does not match {rows} rows")
        self.weight = w
        self.bias = b
        self.rows = rows
        self.cols = cols
        # freeze the buffers; networks are immutable after construction
        for arr in (w.data, w.indices, w.indptr, b):
            arr.flags.writeable = False
        self._kernel = None

    def kernel_args(self) -> tuple:
        """(indptr, indices, data, gain): the CSR arrays of [W | b] evaluate runs.

        Each nonzero bias entry is the last stored entry of its row, at
        column cols, where every activation holds a constant 1.  gain is
        the largest row sum of |[W | b]|, at least 1.
        Prepared on first use and kept, so a layer object repeated across
        positions is folded once and building or loading a network pays
        nothing; a layer without a nonzero bias runs its own arrays.
        """
        if self._kernel is None:
            w, b = self.weight, self.bias
            kernel = (w.indptr, w.indices, w.data)
            if b.any():
                wb = sp.hstack([w, sp.csr_matrix(b[:, None])], format="csr")
                kernel = (wb.indptr, wb.indices, wb.data)
                for arr in kernel:
                    arr.flags.writeable = False
            indptr, _, data = kernel
            row_of = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
            row_sums = np.bincount(row_of, weights=np.abs(data), minlength=len(indptr) - 1)
            self._kernel = (*kernel, float(row_sums.max(initial=1.0)))
        return self._kernel


def make_layer(shape, rows, cols, vals, bias=None) -> Layer:
    """Build a layer from triplets, dropping zeros and rejecting bad entries.

    Builders and decoded files alike come through here: every index lies
    inside shape and no position is stored twice once zeros are dropped;
    Layer then checks finiteness and the bias length.
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
    return Layer(sp.csr_matrix((vals, (rows, cols)), shape=shape), bias)


def _input_mismatch(idx: int, cols: int, inputs: int) -> str:
    return f"layer {idx}: weight expects {cols} inputs but receives {inputs}"


class ReluNetwork:
    """Immutable chain of layers, each reading the previous layer's rows.

    widths holds the input count, then each layer's rows; metadata, if
    any, is carried to disk.
    """

    __slots__ = ("layers", "metadata", "widths")

    def __init__(self, layers, metadata=None):
        layers = tuple(layers)
        if not layers:
            raise ValueError("a network needs at least one layer")
        widths = [layers[0].cols]
        for idx, layer in enumerate(layers, start=1):
            if layer.cols != widths[-1]:
                raise ValueError(_input_mismatch(idx, layer.cols, widths[-1]))
            widths.append(layer.rows)
        self.layers = layers
        self.metadata = dict(metadata) if metadata is not None else None
        self.widths = tuple(widths)

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]

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

    Raises ValueError when x is not net.input_dim values or columns of them,
    and EvaluationFault at the first layer whose output is not finite; for a
    batch, at the first such layer over all columns.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError("input must be a vector or a matrix of column samples")
    # the CSR kernels read raw buffers and check no shapes
    if x.shape[0] != net.input_dim:
        raise ValueError(_input_mismatch(1, net.input_dim, x.shape[0]))
    if x.ndim == 1:
        out, fault = _forward(net.layers, x, net.depth)
    else:
        batch = x.shape[1]
        step = max(1, _BLOCK_ENTRIES // max(net.widths))
        out = np.empty((net.output_dim, batch))
        fault = None
        # every block runs, but only up to the layer before the first fault
        # so far; the smallest faulting layer over all blocks is the batch's
        for start in range(0, max(batch, 1), step):
            stop = net.depth if fault is None else fault - 1
            block, fail = _forward(net.layers, x[:, start:start + step], stop)
            if fail is not None:
                fault = fail
            elif fault is None:
                out[:, start:start + step] = block
    if fault is not None:
        raise EvaluationFault(fault)
    return out


def _forward(layers, x, stop):
    """Run layers[:stop] on a vector or a column block.

    Return (output, None), or (None, index) at the first layer whose output
    is not finite.  Every activation carries a trailing row of ones for the
    bias column of the kernel arrays; the output has none.
    """
    batch = x.shape[1:]
    n = x.shape[0]
    z = np.empty((n + 1,) + batch)
    z[:n] = x
    z[n] = 1.0
    # a block's layer outputs alternate between two buffers, grown only for a
    # layer wider than any before: a fresh large array per layer can cost more
    # than the layer when the allocator maps new pages for it
    out, spare = np.empty((0,) + batch), z
    last = len(layers)
    # bound on the magnitude of the activation's entries, ones row included;
    # unknown for the input
    bound = math.inf
    # the screen's sum may overflow on finite values; that is not a fault
    with np.errstate(over="ignore", invalid="ignore"):
        for idx, layer in enumerate(layers[:stop], start=1):
            rows, cols = layer.rows, layer.cols
            indptr, indices, data, gain = layer._kernel or layer.kernel_args()
            x = z
            hidden = idx < last
            # the kernel adds b * 1.0 after the row's weighted terms, the
            # same rounding as z + b; it sums from +0.0 and never yields
            # -0.0, so a zero bias left out changes no output bit
            if batch:
                if len(out) <= rows:
                    out = np.empty((rows + 1,) + batch)
                z = out[:rows + hidden]
                # +0.0 is all zero bytes, and a byte fill runs at memset speed
                z.view(np.uint8).fill(0)
                out, spare = spare, out
                _sparsetools.csr_matvecs(rows, cols + 1, batch[0], indptr, indices, data, x, z)
            else:
                z = np.zeros(rows + hidden)
                _sparsetools.csr_matvec(rows, cols + 1, indptr, indices, data, x, z)
            if hidden:
                z[rows] = 1.0
            bound *= gain
            # past the bound screen the output: any inf or NaN makes the sum
            # non-finite, and the exact scan runs only then, so a finite
            # layer whose sum overflows still passes
            screened = bound >= _FINITE_BOUND
            if screened and not math.isfinite(z.sum()) and not np.isfinite(z).all():
                return None, idx
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
    neurons: int


def stats(net: ReluNetwork) -> NetworkStats:
    """Exact depth, stored-weight and neuron counts; zeros are never stored.

    neurons sums the hidden widths, the rows of every layer but the last.
    """
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
        neurons=sum(net.widths[1:-1]),
    )


def network_to_dict(net: ReluNetwork) -> dict:
    """The arrays of the file: each distinct layer object once, plus the program.

    The table lists the layer objects in order of first appearance; program
    holds each position's table index, so the sharing survives a round trip.
    """
    table = list({id(layer): layer for layer in net.layers}.values())
    slot = {id(layer): k for k, layer in enumerate(table)}
    weights = [layer.weight for layer in table]
    arrays = {
        "shapes": np.array([w.shape for w in weights], dtype=np.int64),
        "indptr": np.concatenate([w.indptr for w in weights]).astype(np.int64),
        "indices": np.concatenate([w.indices for w in weights]).astype(np.int64),
        "data": np.concatenate([w.data for w in weights]),
        "bias": np.concatenate([layer.bias for layer in table]),
        "program": np.array([slot[id(layer)] for layer in net.layers], dtype=np.int64),
    }
    if net.metadata is not None:
        arrays["metadata"] = np.array(json.dumps(net.metadata))
    return arrays


def _array(mapping, name: str, kind, ndim: int) -> np.ndarray:
    """mapping[name], which must be an ndim-d array of a dtype under kind."""
    try:
        arr = np.asarray(mapping[name])
    except KeyError:
        raise NetworkFormatError(f"missing array {name!r}") from None
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise NetworkFormatError(f"array {name!r} cannot be read ({exc})") from exc
    if arr.ndim != ndim or not np.issubdtype(arr.dtype, kind):
        raise NetworkFormatError(
            f"array {name!r} must be {ndim}-d {kind.__name__}, not {arr.ndim}-d {arr.dtype}"
        )
    return arr


def network_from_dict(mapping) -> ReluNetwork:
    """Decode network_to_dict's arrays; see the module docstring for the checks."""
    shapes = _array(mapping, "shapes", np.integer, 2)
    indptr = _array(mapping, "indptr", np.integer, 1)
    indices = _array(mapping, "indices", np.integer, 1)
    data = _array(mapping, "data", np.floating, 1)
    bias = _array(mapping, "bias", np.floating, 1)
    program = _array(mapping, "program", np.integer, 1)
    if shapes.shape[1] != 2 or (shapes < 0).any():
        raise NetworkFormatError("array 'shapes' must hold a (rows, cols) pair of counts per row")
    if not len(program):
        raise NetworkFormatError("empty program: a network needs at least one layer")
    outside = (program < 0) | (program >= len(shapes))
    if outside.any():
        raise NetworkFormatError(
            f"program index {program[np.argmax(outside)]} outside the table of {len(shapes)} layers"
        )
    used, first = np.unique(program, return_index=True)
    if len(used) != len(shapes):
        raise NetworkFormatError(f"the table has {len(shapes)} entries but the program uses {len(used)}")
    table = []
    # offsets are Python ints, so no count read from the file can wrap them
    ptr_at = bias_at = entry_at = 0
    for t, (rows, cols) in enumerate(shapes.tolist()):
        where = f"layer {first[t] + 1}"
        ptr = indptr[ptr_at:ptr_at + rows + 1].astype(np.int64)
        ptr_at += rows + 1
        bias_at += rows
        if len(ptr) != rows + 1 or bias_at > len(bias):
            raise NetworkFormatError(f"{where}: indptr or bias shorter than its {rows} rows")
        nnz = int(ptr[-1])
        entry_at += nnz
        if ptr[0] != 0 or (np.diff(ptr) < 0).any() or entry_at > len(data):
            raise NetworkFormatError(
                f"{where}: indptr must rise from 0 to at most the {len(data)} stored weights"
            )
        weights = slice(entry_at - nnz, entry_at)
        try:
            layer = make_layer(
                (rows, cols),
                np.repeat(np.arange(rows), np.diff(ptr)),
                indices[weights],
                data[weights],
                bias[bias_at - rows:bias_at],
            )
        except ValueError as exc:
            raise NetworkFormatError(f"{where}: {exc}") from exc
        if layer.weight.nnz != nnz:
            raise NetworkFormatError(f"{where}: a stored weight is zero")
        table.append(layer)
    lengths = (len(indptr), len(bias), len(indices), len(data))
    if lengths != (ptr_at, bias_at, entry_at, entry_at):
        raise NetworkFormatError(
            f"array lengths do not add up: indptr, bias, indices and data have {lengths}, "
            f"the table needs {(ptr_at, bias_at, entry_at, entry_at)}"
        )
    metadata = None
    if "metadata" in mapping:
        text = _array(mapping, "metadata", np.str_, 0).item()
        try:
            metadata = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise NetworkFormatError(f"metadata is not valid JSON ({exc})") from exc
        if not isinstance(metadata, dict):
            raise NetworkFormatError(f"metadata is not a JSON object: {text:.60}")
    try:
        return ReluNetwork([table[k] for k in program.tolist()], metadata)
    except ValueError as exc:
        raise NetworkFormatError(str(exc)) from exc


def atomic_write(path, data: bytes) -> None:
    """Write data to path through a temp file in the same directory + rename.

    The file gets the mode open(path, "wb") gives a new file: 0o666 less the
    umask (a tempfile.mkstemp file would stay 0o600).
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_network(net: ReluNetwork, path) -> None:
    """Write network_to_dict's arrays as an .npz archive to path as given, atomically."""
    buffer = io.BytesIO()
    np.savez(buffer, **network_to_dict(net))
    atomic_write(path, buffer.getvalue())


def load_network(path) -> ReluNetwork:
    """Read a file save_network wrote; any defect raises NetworkFormatError."""
    with open(path, "rb") as handle:
        try:
            archive = np.load(handle, allow_pickle=False)
        except (ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise NetworkFormatError(f"not an .npz archive ({exc})") from exc
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise NetworkFormatError("not an .npz archive but a bare .npy array")
        with archive:
            return network_from_dict(archive)
