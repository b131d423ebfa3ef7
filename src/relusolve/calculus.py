"""Combinator algebra for ReLU networks.

identity_net, affine_net and scale_add_net are the exact primitives;
pipeline composes networks through split/merge junctions (f after g is
pipeline((g, f))) and parallelize stacks networks block-diagonally.

One rule, _carry, applies an exact affine layer W with k rows at depth
L >= 2: kron(W, SPLIT), L - 2 shared I_2k layers and kron(I_k, MERGE), which
store 2 w(W) + 2k(L - 1) weights (w counts weights and nonzero biases).
identity_net is the rule on I_k, scale_add_net on [alpha I, I] at depth 2,
and parallelize carries a shorter member's last layer to the common depth.

Channel convention: identity channels come in interleaved (+, -) pairs, so a
value x is carried as (relu(x), relu(-x)) in adjacent coordinates and
recombined with a (+1, -1) pair.  Keeping the pair adjacent matters: CSR
products accumulate in ascending column order, which makes the recombination
bit-exact and lets downstream constructions cancel paired terms exactly.

Every junction is the Kronecker product of a layer with one of two pair
maps, SPLIT = [[1], [-1]] and MERGE = [[1, -1]]: kron(W, SPLIT) emits row i
of W as rows 2i (+W_i) and 2i + 1 (-W_i), an adjacent pair (the bias as
kron(b, [1, -1])), kron(W, MERGE) reads each column of W from a pair, and
kron(I_k, SPLIT) and kron(I_k, MERGE) carry and recombine k values.
Entries are single products with +-1, so every weight is copied exactly.

kron is the one Kronecker tiling of the package: every junction here and
every bank, input and summation layer of arithmetic's product nets goes
through it.  Its right factor is a small dense block, so it writes the
product as a BSR matrix on the left factor's own CSR arrays, one scaled
copy of the block per stored entry, and converts that to CSR.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .network import Layer, ReluNetwork, make_layer

__all__ = [
    "affine_net",
    "identity_net",
    "kron",
    "parallelize",
    "parallelize_shared",
    "pipeline",
    "scale_add_net",
]


SPLIT = np.array([[1.0], [-1.0]])
MERGE = np.array([[1.0, -1.0]])


def kron(w, block) -> sp.csr_matrix:
    """The Kronecker product of w, with no duplicate entries, and a small dense block.

    Entry (i, j) of w becomes w_ij * block at block row i and block column
    j, as in scipy.sparse.kron.  Stored zeros of the block stay stored;
    Layer drops them.
    """
    w = sp.csr_matrix(w)
    block = np.asarray(block, dtype=np.float64)
    shape = (w.shape[0] * block.shape[0], w.shape[1] * block.shape[1])
    return sp.bsr_matrix((w.data[:, None, None] * block, w.indices, w.indptr), shape=shape).tocsr()


def _split_layer(layer: Layer) -> Layer:
    """Duplicate a layer's rows as adjacent (+, -) pairs: row 2i is +W_i, row 2i + 1 is -W_i."""
    return Layer(kron(layer.weight, SPLIT), np.kron(layer.bias, [1.0, -1.0]))


def _merge_first(layer: Layer) -> Layer:
    """Rewrite a layer to read interleaved (+, -) pairs: column j -> (2j, 2j+1)."""
    return Layer(kron(layer.weight, MERGE), layer.bias)


def _carry(layer: Layer, L: int) -> list:
    """The layers that apply one exact affine layer at depth L >= 1."""
    if L == 1:
        return [layer]
    mid = Layer(sp.identity(2 * layer.rows))
    return [_split_layer(layer)] + [mid] * (L - 2) + [_merge_first(Layer(sp.identity(layer.rows)))]


def identity_net(k: int, L: int) -> ReluNetwork:
    """Exact identity on R^k with depth L >= 2 and exactly 2*k*L weights."""
    if L < 2:
        raise ValueError("identity networks need depth at least 2")
    if k < 1:
        raise ValueError("dimension must be positive")
    return ReluNetwork(_carry(Layer(sp.identity(k)), L))


def affine_net(weight, bias=None) -> ReluNetwork:
    """Depth-1 network computing x -> W x + b exactly."""
    return ReluNetwork([Layer(weight, bias)])


def scale_add_net(alpha: float, n: int) -> ReluNetwork:
    """Depth-2 network on R^n x R^n computing (x, y) -> alpha*x + y exactly."""
    if n < 1:
        raise ValueError("dimension must be positive")
    eye = sp.identity(n)
    # Layer drops the zeros of alpha = 0
    return ReluNetwork(_carry(Layer(sp.hstack([float(alpha) * eye, eye])), 2))


def pipeline(stages) -> ReluNetwork:
    """Sparse-concatenate stages in application order (stages[0] runs first)."""
    stages = list(stages)
    if not stages:
        raise ValueError("pipeline needs at least one stage")
    for before, after in zip(stages, stages[1:]):
        if after.input_dim != before.output_dim:
            raise ValueError(
                f"stage expects {after.input_dim} inputs but receives {before.output_dim}"
            )
    layers = list(stages[0].layers)
    split_cache: dict = {}
    merge_cache: dict = {}
    for nxt in stages[1:]:
        last = layers[-1]
        if id(last) not in split_cache:
            split_cache[id(last)] = _split_layer(last)
        layers[-1] = split_cache[id(last)]
        head = nxt.layers[0]
        if id(head) not in merge_cache:
            merge_cache[id(head)] = _merge_first(head)
        layers.append(merge_cache[id(head)])
        layers.extend(nxt.layers[1:])
    return ReluNetwork(layers)


def parallelize_shared(nets, col_maps, n_in: int) -> ReluNetwork:
    """Stack networks block-diagonally over a shared input space.

    col_maps[i] maps member i's input coordinates to global input columns;
    members may read overlapping columns.  Outputs are concatenated in member
    order.  A shorter member's last layer is carried to the common depth.

    Each member computes bit for bit what it computes alone, because a map
    under which some first-layer row's cmap[cols] is not strictly increasing
    in CSR order is refused with ValueError: the CSR kernel would accumulate
    that row in another order.  Rows that read one column always pass.
    """
    nets = list(nets)
    if not nets:
        raise ValueError("parallelize needs at least one network")
    if len(col_maps) != len(nets):
        raise ValueError("need one column map per network")
    maps = []
    for net, cmap in zip(nets, col_maps):
        cmap = np.asarray(cmap, dtype=np.int64)
        if cmap.shape != (net.input_dim,):
            raise ValueError("column map length must match the member input dim")
        if len(cmap) and (cmap.min() < 0 or cmap.max() >= n_in):
            raise ValueError("column map index out of range")
        maps.append(cmap)
    target = max(net.depth for net in nets)
    padded = [list(net.layers[:-1]) + _carry(net.layers[-1], target - net.depth + 1) for net in nets]
    # the first level scatters member columns through the maps
    heads = [layers[0] for layers in padded]
    coos = [head.weight.tocoo() for head in heads]
    for i, (coo, cmap) in enumerate(zip(coos, maps)):
        # a canonical CSR layer lists each row's columns in increasing order
        reordered = (np.diff(cmap[coo.col]) <= 0) & (np.diff(coo.row) == 0)
        if reordered.any():
            raise ValueError(
                f"column map of member {i} reorders or duplicates the columns of its "
                f"first-layer row {coo.row[np.argmax(reordered)]}"
            )
    row_at = np.cumsum([0] + [head.rows for head in heads])
    first = make_layer(
        (row_at[-1], n_in),
        np.concatenate([coo.row + at for coo, at in zip(coos, row_at)]),
        np.concatenate([cmap[coo.col] for coo, cmap in zip(coos, maps)]),
        np.concatenate([coo.data for coo in coos]),
        np.concatenate([head.bias for head in heads]),
    )
    rest = [
        Layer(sp.block_diag([layer.weight for layer in level]),
              np.concatenate([layer.bias for layer in level]))
        for level in zip(*(layers[1:] for layers in padded))
    ]
    return ReluNetwork([first] + rest)


def parallelize(nets) -> ReluNetwork:
    """Stack networks with disjoint consecutive input blocks."""
    nets = list(nets)
    maps = []
    offset = 0
    for net in nets:
        maps.append(np.arange(offset, offset + net.input_dim))
        offset += net.input_dim
    return parallelize_shared(nets, maps, offset)
