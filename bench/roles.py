"""Per-role breakdown of a forward pass, replayed layer by layer.

Every row of every layer gets one role, read from the layer's structure
alone (position, bias, stored values and column pattern):

- rescale: the rows of the first layer; output: the rows of the last layer.
- junction: in a layer whose rows all come in adjacent (+, -) pairs (row
  2i+1 is exactly -row 2i, bias included), the negated copy rows.  This is
  the split that sparse concatenation and identity networks use to carry a
  value through a ReLU; the even rows are classified by the rules below.
- saw_stage: rows with a nonzero bias (the sawtooth stages), rows whose
  weights are not all +-1 and that read at most 4 inputs (pair-abs and stage
  rows), and rows adding an adjacent channel pair with equal signs (|u|).
- identity_carry: bias-free rows that copy one value: a single +-1 weight,
  or +1/-1 on an adjacent column pair (2j, 2j+1) that recombines a carry.
- summation: every other row (the polarized-product summations, fused step
  combinations and scale-adds).

The replay evaluates each role's rows of a layer as a one-layer network
through the public evaluate, applies ReLU on hidden layers, and scatters
the rows back; the result must equal evaluate(net, x) bit for bit, because
each CSR row is computed independently of the others.
"""

from __future__ import annotations

import time

import numpy as np

ROLES = ("rescale", "junction", "saw_stage", "summation", "identity_carry", "output")
_RESCALE, _JUNCTION, _SAW, _SUM, _CARRY, _OUTPUT = range(len(ROLES))


def _is_split(w, bias) -> bool:
    if w.shape[0] % 2:
        return False
    even, odd = w[0::2], w[1::2]
    return (
        np.array_equal(even.indptr, odd.indptr)
        and np.array_equal(even.indices, odd.indices)
        and np.array_equal(even.data, -odd.data)
        and np.array_equal(bias[0::2], -bias[1::2])
    )


def row_roles(layer, position: int, depth: int) -> np.ndarray:
    """Role index of each row of the layer at the given position."""
    rows = layer.rows
    if position == 0:
        return np.full(rows, _RESCALE)
    if position == depth - 1:
        return np.full(rows, _OUTPUT)
    w, bias = layer.weight, layer.bias
    counts = np.diff(w.indptr)
    row_of = np.repeat(np.arange(rows), counts)
    unit = np.bincount(row_of, weights=np.abs(w.data) != 1.0, minlength=rows) == 0
    pair = counts == 2
    first = w.indptr[:-1][pair]
    c0, c1 = w.indices[first], w.indices[first + 1]
    v0, v1 = w.data[first], w.data[first + 1]
    adjacent = (c0 % 2 == 0) & (c1 == c0 + 1)
    opposite = np.zeros(rows, dtype=bool)
    same = np.zeros(rows, dtype=bool)
    opposite[pair] = adjacent & (v0 == -v1)
    same[pair] = adjacent & (v0 == v1)
    roles = np.full(rows, _SUM)
    roles[(counts <= 4) & (~unit | same)] = _SAW
    roles[unit & ((counts == 1) | opposite)] = _CARRY
    roles[bias != 0.0] = _SAW
    if _is_split(w, bias):
        roles[1::2] = _JUNCTION
    return roles


class RoleReplay:
    """Role blocks of a network, built once per distinct layer object."""

    def __init__(self, network_module, net):
        self._network = network_module
        self.net = net
        depth = net.depth
        blocks = {}
        self.positions = []
        self.layers = np.zeros(len(ROLES), dtype=np.int64)
        self.nnz = np.zeros(len(ROLES), dtype=np.int64)
        for position, layer in enumerate(net.layers):
            # first and last layers are classified by position, so keep them apart
            key = (id(layer), position == 0, position == depth - 1)
            if key not in blocks:
                roles = row_roles(layer, position, depth)
                entry = []
                counts = np.diff(layer.weight.indptr)
                for role in range(len(ROLES)):
                    idx = np.flatnonzero(roles == role)
                    if len(idx):
                        sub = network_module.Layer(layer.weight[idx], layer.bias[idx])
                        entry.append(
                            (role, idx, network_module.ReluNetwork([sub]), int(counts[idx].sum()))
                        )
                blocks[key] = entry
            entry = blocks[key]
            self.positions.append((layer.rows, entry))
            for role, _, _, nnz in entry:
                self.layers[role] += 1
                self.nnz[role] += nnz

    def run(self, x):
        """Return (output, per-role seconds) of one replayed forward pass."""
        evaluate = self._network.evaluate
        seconds = np.zeros(len(ROLES))
        last = len(self.positions) - 1
        x = np.asarray(x, dtype=np.float64)
        for position, (rows, entry) in enumerate(self.positions):
            z = np.empty((rows,) + x.shape[1:])
            for role, idx, sub, _ in entry:
                t0 = time.perf_counter()
                part = evaluate(sub, x)
                if position < last:
                    np.maximum(part, 0.0, out=part)
                z[idx] = part
                seconds[role] += time.perf_counter() - t0
            x = z
        return x, seconds
