"""Approximate arithmetic subnetworks with certified error bounds.

The squaring primitive is the piecewise-linear interpolation of x^2 obtained
by subtracting scaled sawtooth compositions: f_s(u) = u - sum_t g^(t)(u)/4^t
on [0, 1] (Yarotsky, "Error bounds for approximations with deep ReLU
networks", Neural Networks 94, 2017).  f_s interpolates the convex u^2 at the
grid points k 2^(-s), so it lies above it: 0 <= f_s(u) - u^2 <= 2^(-2s-2).
Products come from the polarization identity x*y = ((x+y)^2 - (x-y)^2)/4
evaluated with both chains at the same input scale.  Both squares err on the
same side, so a term w (f_s(|u|) - f_s(|v|)) is off by at most
|w| 2^(-2s-2): each stage divides a net's certificate by 4, and saw_levels
picks every product net's level from its level-1 certificate, the fewest
stages that fit the error allowed.  The shared scale keeps
net(0, y) = net(x, 0) = 0 exact: the two chains then carry bitwise-identical
values, and the summation rows interleave each +coefficient with its -
partner in adjacent columns so the CSR product (which accumulates in
ascending column order) cancels them exactly.

A chain keeps three kinds of channel, n1 = relu(x), n2 = relu(x - 1/2) and
the carry, and its hat is g = 2 n1 - 4 n2: Yarotsky's hat without the clamp
2 relu(x - 1).  The clamp guards nothing on a product net's admissible
domain.  Stage 1 reads |u| with |u| <= 1 there (square_net scales by 1/D,
mult_net by 1/(2D);
scalar_product_net and sparse_matvec_net take |a|, |b| <= 1/2 from
||x|| <= 1 and ||y|| <= z), and g maps [0, 1] into [0, 1], so every stage
input lies in [0, 1], where relu(x - 1) is +0.0.  The floats agree: for
x <= 1/2, g = 2x is exact; for x > 1/2, x - 1/2 is exact (Sterbenz) and
2x - 4(x - 1/2) rounds to at most 1; and a +0.0 term changes no CSR row sum.
So f_s and its float values are the clamped hat's on the domain; the two
differ only where some |u| > 1, outside every certificate.

Stage t holds its hat channels at scale 4^-t, n1 = relu(x) / 4^t and
n2 = relu(x - 1/2) / 4^t, so no layer but the stage count depends on the
level s: a level-s product net is any deeper one's first s + 1 layers plus
its last.  ReLU is positively homogeneous and 4^-t a power of two, so while
a scaled channel is a normal double it is the unscaled one times 4^-t bit
for bit and every sum rounds as before.  Only for |u| < 2^(s+1) 2^-1022
does a channel go subnormal and round; a term of weight w then moves by a
small multiple of s |w| 2^-1074, far inside every certificate.

A product net is a bank of T identical terms, one per product.  Each layer
of a term is written once, as a small dense block, and the bank's layer
tiles it with calculus.kron(sp.identity(T), block), so term p owns the p-th
diagonal block of rows and columns and no offset is computed by hand.  Two
layers are not block diagonal: the first reads each term's two inputs
through pick, whose rows 2p and 2p + 1 select term p's a and b from the
net's input, and the summation layer kron(groups, term_sum) adds the terms
of each output row.
The (+, -) pair maps are calculus.SPLIT and calculus.MERGE.

A matrix class is its SparsityPattern, stored as nothing but the CSR
structure (indptr, indices); a SparseMatrix's value vector A^v is the CSR
data array on it.  sparse_matvec_net's term p reads r at indices[p], and
its summation layer groups the terms of row i through indptr.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import scipy.sparse as sp

from .calculus import MERGE, SPLIT, kron
from .network import Layer, ReluNetwork

__all__ = [
    "SparseMatrix",
    "SparsityPattern",
    "mult_net",
    "saw_levels",
    "scalar_product_net",
    "sparse_matvec_error",
    "sparse_matvec_net",
    "sparse_matvec_net_at",
    "square_net",
]


class SparsityPattern:
    """The column sets chi_i of an n x n matrix, held as canonical CSR structure.

    indptr (n + 1 entries) and indices (eta entries) are read-only int64
    arrays: row i's columns are indices[indptr[i]:indptr[i + 1]], strictly
    increasing.  Value-vector position p is the p-th entry of this row-major
    order, so A^v is the data array of the CSR matrix.
    """

    __slots__ = ("indptr", "indices", "n")

    def __init__(self, indptr, indices):
        indptr = np.array(indptr, dtype=np.int64).reshape(-1)
        indices = np.array(indices, dtype=np.int64).reshape(-1)
        n = len(indptr) - 1
        if n < 1:
            raise ValueError("pattern needs at least one row")
        counts = np.diff(indptr)
        if indptr[0] != 0 or indptr[-1] != len(indices) or (counts < 0).any():
            raise ValueError(f"indptr must rise from 0 to the {len(indices)} indices")
        if not counts.all():
            raise ValueError(f"row {np.argmin(counts)} has no admissible columns")
        row_of = np.repeat(np.arange(n), counts)
        outside = (indices < 0) | (indices >= n)
        if outside.any():
            raise ValueError(f"row {row_of[np.argmax(outside)]} has a column index out of range")
        # a row's columns rise; the step into the next row may fall
        falls = (np.diff(indices) <= 0) & (row_of[1:] == row_of[:-1])
        if falls.any():
            raise ValueError(f"row {row_of[np.argmax(falls)]} indices are not strictly increasing")
        indptr.flags.writeable = indices.flags.writeable = False
        self.indptr = indptr
        self.indices = indices
        self.n = n

    @property
    def eta(self) -> int:
        return len(self.indices)

    @property
    def chi_max(self) -> int:
        return int(np.diff(self.indptr).max())

    def row_of(self) -> np.ndarray:
        """The row i of every position p = (i, j)."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr))

    def transpose_positions(self) -> np.ndarray:
        """The positions sorted by (j, i).

        On a symmetric pattern this lists the transpose row-major, so entry
        p is the position of (j, i) where position p is (i, j).
        """
        return np.lexsort((self.row_of(), self.indices))

    def is_symmetric(self) -> bool:
        row_of, t = self.row_of(), self.transpose_positions()
        return np.array_equal(self.indices[t], row_of) and np.array_equal(row_of[t], self.indices)

    def diagonal_positions(self) -> np.ndarray:
        positions = np.flatnonzero(self.indices == self.row_of())
        if len(positions) != self.n:
            raise ValueError("pattern is missing a diagonal entry")
        return positions

    def __eq__(self, other):
        if not isinstance(other, SparsityPattern):
            return False
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(self.indices, other.indices)

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
        pattern = self.pattern
        return sp.csr_matrix((self.values, pattern.indices, pattern.indptr), shape=(pattern.n, pattern.n))

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    def __repr__(self):
        return f"SparseMatrix(n={self.pattern.n}, eta={self.pattern.eta})"


# f_s(|u|) = c - g / 4^s from a chain's (n1, n2, c) after any stage s
_READOUT = np.array([[-2.0, 4.0, 1.0]])


def _saw_stage_layers(num_terms: int, s: int, chains: int):
    """Sawtooth stage layers shared by square_net and the product nets.

    A term runs `chains` chains (one for square_net; two, u and v, for the
    product nets) on 3 * chains channels ordered kind-major, kinds n1, n2 and
    the carry c, e.g. (n1u, n1v, n2u, n2v, cu, cv).  Stage 1 reads a (+, -)
    pair per chain: n1 and n2 get |input| / 4 before their ReLU biases
    (0, -1/8), the carry |input| (f_0(u) = u).  Stage t > 1 sets n1 and n2
    to n1 / 2 - n2 = g / 4^t before their biases (0, -2^(-2t-1)), and the
    carry to c - 2 n1 + 4 n2 = c - g / 4^(t-1).
    """
    if s < 1:
        raise ValueError("refinement level must be at least 1")
    chain, bank = np.eye(chains), sp.identity(num_terms)
    first = kron(bank, np.kron([[0.25], [0.25], [1.0]], np.kron(chain, [[1.0, 1.0]])))
    # rows and columns of one chain's (n1, n2, c); the carry row is the readout
    later = kron(bank, np.kron(np.vstack([[0.5, -1.0, 0.0], [0.5, -1.0, 0.0], _READOUT]), chain))
    return [
        Layer(first if t == 1 else later,
              np.tile(np.repeat([0.0, -0.5 * 4.0**-t, 0.0], chains), num_terms))
        for t in range(1, s + 1)
    ]


def _polarized_sum_net(n_in: int, a_cols, b_cols, coefs, weight: float, groups, s: int):
    """A bank of paired squaring chains with an exact summation output layer.

    Term p contributes weight * (f_s(|a+b|) - f_s(|a-b|)) ~ weight * 4ab to
    each output row whose groups entry in column p is 1, where
    a = coefs[0] * x[a_cols[p]] and b = coefs[1] * x[b_cols[p]].  The net is
    the input map, s saw stages and the summation: depth s + 2.
    """
    num_terms = len(a_cols)
    pick = sp.csr_matrix(
        (np.ones(2 * num_terms), np.column_stack([a_cols, b_cols]).ravel(),
         np.arange(2 * num_terms + 1)),
        shape=(2 * num_terms, n_in),
    )
    # per term (a, b) -> (u+, u-, v+, v-) with u = a+b, v = a-b
    ac, bc = coefs
    pair_abs = [[ac, bc], [-ac, -bc], [ac, -bc], [-ac, bc]]
    layers = [Layer(kron(sp.identity(num_terms), pair_abs) @ pick)]
    layers.extend(_saw_stage_layers(num_terms, s, chains=2))
    # a term sums f_s(|u|) - f_s(|v|) over its (u, v) chain pairs: the
    # columns run n1u, n1v, n2u, n2v, cu, cv, so every +/- pair is adjacent
    # and cancels first
    layers.append(Layer(kron(groups, weight * np.kron(_READOUT, MERGE))))
    return ReluNetwork(layers)


def _exact(x: float) -> int:
    """x as an exact count of 2^-1074, the spacing of the smallest doubles."""
    num, den = float(x).as_integer_ratio()
    return num << 1075 - den.bit_length()


def saw_levels(unit, budget: float) -> np.ndarray:
    """Levels s_k >= 1 with sum_k unit_k 4^(1 - s_k) <= budget, few in total.

    unit_k is net k's certified error at level 1; each saw stage divides it
    by 4.  Start at the fewest stages that bring each of the m terms to at
    most budget / m, then take stages off while the budget allows, always
    the one that adds the least: at level s a stage taken off adds
    3 unit_k 4^(1 - s), and the next one from the same net four times that,
    so no smaller addition is passed over.  A power of 4 scales a double
    exactly, so the start compares each term itself, not a logarithm, with
    budget / m, and the sum meets the budget exactly, not just in rounded
    arithmetic.
    """
    unit = np.asarray(unit, dtype=np.float64)
    if not (0 < budget < math.inf and np.isfinite(unit).all()):
        raise ValueError("levels need a finite positive accuracy and finite certificates")
    # the share budget / m rounded down and the spare budget kept exactly:
    # a share or a spare an ulp too large lets the terms overshoot the budget
    share = budget / len(unit)
    if len(unit) * _exact(share) > _exact(budget):
        share = np.nextafter(share, 0.0)
    s = np.ones_like(unit, dtype=np.int64)
    while (over := unit * 4.0 ** (1 - s) > share).any():
        s += over
    terms = (unit * 4.0 ** (1 - s)).tolist()
    spare = _exact(budget) - sum(map(_exact, terms))
    heap = [(term, k) for k, term in enumerate(terms) if s[k] > 1]
    heapq.heapify(heap)
    while heap and 3 * _exact(heap[0][0]) <= spare:
        term, k = heapq.heappop(heap)
        spare -= 3 * _exact(term)
        s[k] -= 1
        if s[k] > 1:
            heapq.heappush(heap, (4.0 * term, k))
    return s


def _bound(value: float, name: str) -> float:
    """value as a float, refused unless it is finite and at least 1."""
    if not 1 <= value < math.inf:
        raise ValueError(f"{name} must be finite and at least 1")
    return float(value)


def square_net(s: int, D: float = 1.0) -> ReluNetwork:
    """Approximate x -> x^2 on [-D, D] within D^2 * 2^(-2s-2); exact at 0."""
    D = _bound(D, "domain bound")
    layers = [Layer(SPLIT / D)]
    layers.extend(_saw_stage_layers(1, s, chains=1))
    layers.append(Layer(D * D * _READOUT))
    return ReluNetwork(layers)


def mult_net(eps: float, D: float = 1.0) -> ReluNetwork:
    """Approximate (x, y) -> x*y on [-D, D]^2 within eps; exact zeros."""
    if not 0 < eps < 1:
        raise ValueError("accuracy must lie in (0, 1)")
    D = _bound(D, "domain bound")
    # the term's weight is D^2, so level 1 errs by at most D^2 / 16
    s = saw_levels([D * D / 16.0], eps)[0]
    return _polarized_sum_net(2, [0], [1], (0.5 / D, 0.5 / D), D * D, [[1.0]], s)


def scalar_product_net(k: int, eps: float, z: float = 1.0) -> ReluNetwork:
    """Approximate (y, x) -> y.x for ||x||_2 <= 1, ||y||_2 <= z within eps.

    k parallel product chains of weight z, so level 1 errs by at most
    k z / 16; the y side is pre-scaled by 1/z and the exact summation layer
    multiplies back by z.
    """
    if k < 1:
        raise ValueError("length must be positive")
    z = _bound(z, "rhs bound")
    s = saw_levels([k * z / 16.0], eps)[0]
    terms = np.arange(k)
    return _polarized_sum_net(2 * k, terms, k + terms, (1.0 / (2.0 * z), 0.5), z, np.ones((1, k)), s)


def sparse_matvec_error(
    pattern: SparsityPattern, s: int, z: float = 1.0, scale: float = 1.0
) -> float:
    """The certified error sqrt(n) chi_max |scale| z 2^(-2s-2) of a level-s matvec net.

    A term's weight is scale * z, so it errs by at most |scale| z 2^(-2s-2);
    row i sums chi_i <= chi_max terms, and the n rows add in the 2-norm.
    """
    return math.sqrt(pattern.n) * pattern.chi_max * abs(scale) * z * 4.0 ** (-s - 1)


def _matvec_bounds(z: float, scale: float) -> float:
    """z as a float, refused with scale unless both suit a matvec net."""
    if not (scale != 0 and math.isfinite(scale)):
        raise ValueError("scale must be nonzero and finite")
    return _bound(z, "rhs bound")


def sparse_matvec_net_at(
    pattern: SparsityPattern, s: int, z: float = 1.0, scale: float = 1.0
) -> ReluNetwork:
    """The matvec net (A^v, r) -> scale * A r at refinement level s.

    Admissible inputs: ||A||_2 <= 1 and ||r||_2 <= z, where it errs by at
    most sparse_matvec_error(pattern, s, z, scale).  Term p is position
    p = (i, j): it reads r_j and A^v_p straight from the net's input and
    sums into row i; rows share one level, so the bank needs no padding.
    """
    z = _matvec_bounds(z, scale)
    n, eta = pattern.n, pattern.eta
    positions = np.arange(eta)
    groups = sp.csr_matrix((np.ones(eta), positions, pattern.indptr), shape=(n, eta))
    return _polarized_sum_net(
        eta + n, eta + pattern.indices, positions, (1.0 / (2.0 * z), 0.5), scale * z, groups, s
    )


def sparse_matvec_net(
    pattern: SparsityPattern, eps: float, z: float = 1.0, scale: float = 1.0
) -> ReluNetwork:
    """Approximate (A^v, r) -> scale * A r within eps for A in the pattern class.

    Admissible inputs: ||A||_2 <= 1 and ||r||_2 <= z.  The net is
    sparse_matvec_net_at's at the level saw_levels picks from its level-1
    certificate sparse_matvec_error.
    """
    z = _matvec_bounds(z, scale)
    s = saw_levels([sparse_matvec_error(pattern, 1, z, scale)], eps)[0]
    return sparse_matvec_net_at(pattern, s, z, scale)
