"""Approximate arithmetic subnetworks with certified error bounds.

The squaring primitive is the piecewise-linear interpolation of x^2 obtained
by subtracting scaled sawtooth compositions: f_s(u) = u - sum_t g^(t)(u)/4^t
on [0, 1], with |f_s(u) - u^2| <= 2^(-2s-2).  Products come from the
polarization identity x*y = ((x+y)^2 - (x-y)^2)/4 evaluated with both chains
at the same input scale, which keeps net(0, y) = net(x, 0) = 0 exact: the two
chains then carry bitwise-identical values, and the summation rows interleave
each +coefficient with its - partner in adjacent columns so the CSR product
(which accumulates in ascending column order) cancels them exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .network import ReluNetwork, make_layer

__all__ = [
    "SparseMatrix",
    "SparsityPattern",
    "mult_net",
    "scalar_product_net",
    "sparse_matvec_net",
    "square_net",
]


class SparsityPattern:
    """Sorted per-row column index lists chi_i for an n x n matrix."""

    __slots__ = ("rows", "n", "offsets", "_index")

    def __init__(self, rows):
        rows = tuple(tuple(int(j) for j in row) for row in rows)
        n = len(rows)
        if n < 1:
            raise ValueError("pattern needs at least one row")
        for i, row in enumerate(rows):
            if not row:
                raise ValueError(f"row {i} has no admissible columns")
            if any(not 0 <= j < n for j in row):
                raise ValueError(f"row {i} has a column index out of range")
            if any(a >= b for a, b in zip(row, row[1:])):
                raise ValueError(f"row {i} indices are not strictly increasing")
        self.rows = rows
        self.n = n
        self.offsets = np.concatenate([[0], np.cumsum([len(r) for r in rows])]).astype(np.int64)
        self._index = None

    @property
    def eta(self) -> int:
        return int(self.offsets[-1])

    @property
    def chi_max(self) -> int:
        return max(len(r) for r in self.rows)

    def row_slice(self, i: int) -> slice:
        return slice(int(self.offsets[i]), int(self.offsets[i + 1]))

    def positions(self):
        """Row-major (i, j) pairs; the p-th pair is value-vector position p."""
        for i, row in enumerate(self.rows):
            for j in row:
                yield i, j

    def index_of(self, i: int, j: int) -> int:
        if self._index is None:
            self._index = {pos: p for p, pos in enumerate(self.positions())}
        return self._index[(i, j)]

    def contains(self, i: int, j: int) -> bool:
        if self._index is None:
            self._index = {pos: p for p, pos in enumerate(self.positions())}
        return (i, j) in self._index

    def has_full_diagonal(self) -> bool:
        return all(i in row for i, row in enumerate(self.rows))

    def is_symmetric(self) -> bool:
        return all(self.contains(j, i) for i, j in self.positions())

    def diagonal_positions(self) -> np.ndarray:
        if not self.has_full_diagonal():
            raise ValueError("pattern is missing a diagonal entry")
        return np.array([self.index_of(i, i) for i in range(self.n)], dtype=np.int64)

    def __eq__(self, other):
        return isinstance(other, SparsityPattern) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"SparsityPattern(n={self.n}, eta={self.eta})"


class SparseMatrix:
    """Value vector A^v laid out row-major over a fixed SparsityPattern."""

    __slots__ = ("pattern", "values")

    def __init__(self, pattern: SparsityPattern, values):
        values = np.array(values, dtype=np.float64).reshape(-1)
        if values.shape[0] != pattern.eta:
            raise ValueError(f"expected {pattern.eta} values, got {values.shape[0]}")
        self.pattern = pattern
        self.values = values

    def to_csr(self):
        import scipy.sparse as sp

        cols = np.array([j for row in self.pattern.rows for j in row], dtype=np.int64)
        return sp.csr_matrix(
            (self.values, cols, self.pattern.offsets), shape=(self.pattern.n, self.pattern.n)
        )

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    def __repr__(self):
        return f"SparseMatrix(n={self.pattern.n}, eta={self.pattern.eta})"


def _saw_stage_layers(num_terms: int, s: int, chains: int):
    """Sawtooth stage layers shared by square_net and the product nets.

    Each term runs `chains` interleaved chains (one for square_net; two, u
    and v, for the product nets) on 4 * chains channels (n1, n2, n3, c),
    e.g. (n1u, n1v, n2u, n2v, n3u, n3v, cu, cv).  Stage 1 reads the abs
    layer where term p owns columns from 2 * chains * p on, a (+, -) pair
    per chain.
    """
    width = 4 * chains * num_terms
    bias = np.zeros((num_terms, 4, chains))
    bias[:, 1] = -0.5
    bias[:, 2] = -1.0
    bias = bias.reshape(-1)
    layers = []
    for stage in range(1, s + 1):
        rows, cols, vals = [], [], []
        q = 4.0 ** (-(stage - 1))
        for p in range(num_terms):
            out = 4 * chains * p
            for side in range(chains):
                if stage == 1:
                    src = 2 * chains * p + 2 * side
                    scols, svals = [src, src + 1], [1.0, 1.0]
                else:
                    scols = [out + side, out + chains + side, out + 2 * chains + side]
                    svals = [2.0, -4.0, 2.0]
                for kind in range(3):  # n1, n2, n3
                    rows.extend([out + chains * kind + side] * len(scols))
                    cols.extend(scols)
                    vals.extend(svals)
                # carry c_new = c - (2 n1 - 4 n2 + 2 n3)/4^(stage-1); the
                # first stage just copies |input| (f_0(u) = u)
                carry = out + 3 * chains + side
                if stage == 1:
                    rows.extend([carry] * 2)
                    cols.extend(scols)
                    vals.extend(svals)
                else:
                    rows.extend([carry] * 4)
                    cols.extend([carry] + scols)
                    vals.extend([1.0, -2.0 * q, 4.0 * q, -2.0 * q])
        in_width = 2 * chains * num_terms if stage == 1 else width
        layers.append(make_layer((width, in_width), rows, cols, vals, bias))
    return layers


def _polarized_sum_net(
    n_in: int, terms, out_groups, s: int, with_selection: bool
) -> ReluNetwork:
    """Bank of paired squaring chains with an exact summation output layer.

    Each term (a_col, a_coef, b_col, b_coef, weight) contributes
    weight * (f_s(|a+b|) - f_s(|a-b|)) ~ weight * 4ab to its output row, where
    a = a_coef * x[a_col] and b = b_coef * x[b_col].
    """
    num_terms = len(terms)
    layers = []
    if with_selection:
        # two-channel restriction: selected scalars survive ReLU as (+, -) pairs
        rows, cols, vals = [], [], []
        for p, (a_col, _, b_col, _, _) in enumerate(terms):
            base = 4 * p
            rows.extend([base, base + 1, base + 2, base + 3])
            cols.extend([a_col, a_col, b_col, b_col])
            vals.extend([1.0, -1.0, 1.0, -1.0])
        layers.append(make_layer((4 * num_terms, n_in), rows, cols, vals))
    # pair-abs layer: per term (u+, u-, v+, v-) with u = a+b, v = a-b
    rows, cols, vals = [], [], []
    for p, (a_col, a_coef, b_col, b_coef, _) in enumerate(terms):
        base = 4 * p
        if with_selection:
            a_cols, a_vals = (base, base + 1), (a_coef, -a_coef)
            b_cols, b_vals = (base + 2, base + 3), (b_coef, -b_coef)
        else:
            a_cols, a_vals = (a_col,), (a_coef,)
            b_cols, b_vals = (b_col,), (b_coef,)
        for row_off, a_sign, b_sign in ((0, 1.0, 1.0), (1, -1.0, -1.0), (2, 1.0, -1.0), (3, -1.0, 1.0)):
            r = base + row_off
            rows.extend([r] * (len(a_cols) + len(b_cols)))
            cols.extend(a_cols + b_cols)
            vals.extend([a_sign * v for v in a_vals] + [b_sign * v for v in b_vals])
    first_width = 4 * num_terms if with_selection else n_in
    layers.append(make_layer((4 * num_terms, first_width), rows, cols, vals))
    layers.extend(_saw_stage_layers(num_terms, s, chains=2))
    # summation layer; within a term the columns run n1u, n1v, n2u, n2v,
    # n3u, n3v, cu, cv so every +/- pair is adjacent and cancels first
    qf = 4.0 ** (-s)
    rows, cols, vals = [], [], []
    for r, group in enumerate(out_groups):
        for p in group:
            w = terms[p][4]
            base = 8 * p
            rows.extend([r] * 8)
            cols.extend(range(base, base + 8))
            vals.extend(
                [-2.0 * qf * w, 2.0 * qf * w, 4.0 * qf * w, -4.0 * qf * w,
                 -2.0 * qf * w, 2.0 * qf * w, w, -w]
            )
    layers.append(make_layer((len(out_groups), 8 * num_terms), rows, cols, vals))
    return ReluNetwork(layers)


def square_net(s: int, D: float = 1.0) -> ReluNetwork:
    """Approximate x -> x^2 on [-D, D] within D^2 * 2^(-2s-2); exact at 0."""
    if s < 1:
        raise ValueError("refinement level must be at least 1")
    if D < 1:
        raise ValueError("domain bound must be at least 1")
    D = float(D)
    layers = [make_layer((2, 1), [0, 1], [0, 0], [1.0 / D, -1.0 / D])]
    layers.extend(_saw_stage_layers(1, s, chains=1))
    qf = 4.0 ** (-s)
    D2 = D * D
    layers.append(
        make_layer((1, 4), [0, 0, 0, 0], [0, 1, 2, 3],
                   [-2.0 * qf * D2, 4.0 * qf * D2, -2.0 * qf * D2, D2])
    )
    return ReluNetwork(layers)


def _refinement(level_arg: float) -> int:
    return max(1, math.ceil(level_arg / 2.0))


def mult_net(eps: float, D: float = 1.0) -> ReluNetwork:
    """Approximate (x, y) -> x*y on [-D, D]^2 within eps; exact zeros."""
    if not 0 < eps < 1:
        raise ValueError("accuracy must lie in (0, 1)")
    if D < 1:
        raise ValueError("domain bound must be at least 1")
    D = float(D)
    s = _refinement(math.log2(1.0 / eps) + 2.0 * math.log2(D))
    half = 1.0 / (2.0 * D)
    terms = [(0, half, 1, half, D * D)]
    return _polarized_sum_net(2, terms, [[0]], s, with_selection=False)


def scalar_product_net(k: int, eps: float, z: float = 1.0) -> ReluNetwork:
    """Approximate (y, x) -> y.x for ||x||_2 <= 1, ||y||_2 <= z within eps.

    k parallel product chains at per-term accuracy eps/k; the y side is
    pre-scaled by 1/z and the exact summation layer multiplies back by z.
    """
    if k < 1:
        raise ValueError("length must be positive")
    if eps <= 0:
        raise ValueError("accuracy must be positive")
    if z < 1:
        raise ValueError("rhs bound must be at least 1")
    z = float(z)
    s = _refinement(math.log2(k * z / eps))
    half_z = 1.0 / (2.0 * z)
    terms = [(t, half_z, k + t, 0.5, z) for t in range(k)]
    return _polarized_sum_net(2 * k, terms, [list(range(k))], s, with_selection=False)


def sparse_matvec_net(
    pattern: SparsityPattern, eps: float, z: float = 1.0, scale: float = 1.0
) -> ReluNetwork:
    """Approximate (A^v, r) -> scale * A r for A in the pattern class.

    Admissible inputs: ||A||_2 <= 1 and ||r||_2 <= z.  Each row i is an
    explicit two-channel restriction onto (r | chi_i, row-i values) feeding a
    scalar product at per-row accuracy eps / (|scale| sqrt(n)); rows share one
    refinement level (the chi_max worst case) so the bank needs no padding.
    """
    if eps <= 0:
        raise ValueError("accuracy must be positive")
    if z < 1:
        raise ValueError("rhs bound must be at least 1")
    if scale == 0:
        raise ValueError("scale must be nonzero")
    n, eta = pattern.n, pattern.eta
    eps_row = eps / (abs(scale) * math.sqrt(n))
    s = _refinement(math.log2(pattern.chi_max * z / eps_row))
    half_z = 1.0 / (2.0 * z)
    weight = scale * z
    terms = []
    out_groups = []
    for i, row in enumerate(pattern.rows):
        group = []
        for j in row:
            group.append(len(terms))
            terms.append((eta + j, half_z, len(terms), 0.5, weight))
        out_groups.append(group)
    return _polarized_sum_net(eta + n, terms, out_groups, s, with_selection=True)
