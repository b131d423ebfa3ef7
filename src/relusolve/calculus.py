"""Combinator algebra for ReLU networks.

identity_net, affine_net and scale_add_net are the exact primitives;
pipeline composes networks through split/merge junctions (f after g is
pipeline((g, f))) and parallelize stacks networks block-diagonally,
depth-padding the shorter ones with identities at the output side.

Channel convention: identity channels come in interleaved (+, -) pairs, so a
value x is carried as (relu(x), relu(-x)) in adjacent coordinates and
recombined with a (+1, -1) pair.  Keeping the pair adjacent matters: CSR
products accumulate in ascending column order, which makes the recombination
bit-exact and lets downstream constructions cancel paired terms exactly.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .network import Layer, ReluNetwork, make_layer

__all__ = [
    "affine_net",
    "identity_net",
    "parallelize",
    "parallelize_shared",
    "pipeline",
    "scale_add_net",
]


def _recombine_layer(k: int) -> Layer:
    """Read k values back from their interleaved (+, -) pairs."""
    idx = np.arange(k)
    return make_layer(
        (k, 2 * k),
        np.concatenate([idx, idx]),
        np.concatenate([2 * idx, 2 * idx + 1]),
        np.concatenate([np.ones(k), -np.ones(k)]),
    )


def identity_net(k: int, L: int) -> ReluNetwork:
    """Exact identity on R^k with depth L >= 2 and exactly 2*k*L weights."""
    if L < 2:
        raise ValueError("identity networks need depth at least 2")
    if k < 1:
        raise ValueError("dimension must be positive")
    idx = np.arange(k)
    first = make_layer(
        (2 * k, k),
        np.concatenate([2 * idx, 2 * idx + 1]),
        np.concatenate([idx, idx]),
        np.concatenate([np.ones(k), -np.ones(k)]),
    )
    mid_idx = np.arange(2 * k)
    mid = make_layer((2 * k, 2 * k), mid_idx, mid_idx, np.ones(2 * k))
    return ReluNetwork([first] + [mid] * (L - 2) + [_recombine_layer(k)])


def affine_net(weight, bias=None) -> ReluNetwork:
    """Depth-1 network computing x -> W x + b exactly."""
    coo = sp.csr_matrix(weight, dtype=float).tocoo()
    return ReluNetwork([make_layer(coo.shape, coo.row, coo.col, coo.data, bias)])


def scale_add_net(alpha: float, n: int) -> ReluNetwork:
    """Depth-2 network on R^n x R^n computing (x, y) -> alpha*x + y exactly."""
    if n < 1:
        raise ValueError("dimension must be positive")
    alpha = float(alpha)
    rows, cols, vals = [], [], []
    for i in range(n):
        for sign, row in ((1.0, 2 * i), (-1.0, 2 * i + 1)):
            if alpha != 0.0:
                rows.append(row)
                cols.append(i)
                vals.append(sign * alpha)
            rows.append(row)
            cols.append(n + i)
            vals.append(sign)
    hidden = make_layer((2 * n, 2 * n), rows, cols, vals)
    return ReluNetwork([hidden, _recombine_layer(n)])


def _split_layer(layer: Layer) -> Layer:
    """Duplicate a layer's rows as interleaved (+, -) pairs."""
    coo = layer.weight.tocoo()
    rows = np.concatenate([2 * coo.row, 2 * coo.row + 1])
    cols = np.concatenate([coo.col, coo.col])
    vals = np.concatenate([coo.data, -coo.data])
    bias = np.empty(2 * layer.rows)
    bias[0::2] = layer.bias
    bias[1::2] = -layer.bias
    return make_layer((2 * layer.rows, layer.cols), rows, cols, vals, bias)


def _merge_first(layer: Layer) -> Layer:
    """Rewrite a layer to read interleaved (+, -) pairs: column j -> (2j, 2j+1)."""
    coo = layer.weight.tocoo()
    rows = np.concatenate([coo.row, coo.row])
    cols = np.concatenate([2 * coo.col, 2 * coo.col + 1])
    vals = np.concatenate([coo.data, -coo.data])
    return make_layer((layer.rows, 2 * layer.cols), rows, cols, vals, layer.bias)


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


def _extend_depth(net: ReluNetwork, target: int) -> ReluNetwork:
    """Pad a network to the target depth with an exact identity at the output."""
    gap = target - net.depth
    if gap < 0:
        raise ValueError("cannot shrink a network")
    if gap == 0:
        return net
    if gap == 1:
        layers = list(net.layers)
        layers[-1] = _split_layer(layers[-1])
        layers.append(_recombine_layer(net.output_dim))
        return ReluNetwork(layers)
    return pipeline((net, identity_net(net.output_dim, gap)))


def parallelize_shared(nets, col_maps, n_in: int) -> ReluNetwork:
    """Stack networks block-diagonally over a shared input space.

    col_maps[i] maps member i's input coordinates to global input columns;
    members may read overlapping columns.  Outputs are concatenated in member
    order.  Shorter members are identity-padded at the output side.
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
    padded = [_extend_depth(net, target) for net in nets]
    layers = []
    for level in range(target):
        rows, cols, vals, biases = [], [], [], []
        row_off = 0
        col_off = 0
        for member, cmap in zip(padded, maps):
            layer = member.layers[level]
            coo = layer.weight.tocoo()
            rows.append(coo.row + row_off)
            if level == 0:
                cols.append(cmap[coo.col])
            else:
                cols.append(coo.col + col_off)
            vals.append(coo.data)
            biases.append(layer.bias)
            row_off += layer.rows
            col_off += layer.cols
        shape = (row_off, n_in if level == 0 else col_off)
        layers.append(
            make_layer(
                shape,
                np.concatenate(rows),
                np.concatenate(cols),
                np.concatenate(vals),
                np.concatenate(biases),
            )
        )
    return ReluNetwork(layers)


def parallelize(nets) -> ReluNetwork:
    """Stack networks with disjoint consecutive input blocks."""
    nets = list(nets)
    if not nets:
        raise ValueError("parallelize needs at least one network")
    maps = []
    offset = 0
    for net in nets:
        maps.append(np.arange(offset, offset + net.input_dim))
        offset += net.input_dim
    return parallelize_shared(nets, maps, offset)
