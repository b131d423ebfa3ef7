"""Shared helpers for the test suite."""

import numpy as np

from relusolve.arithmetic import SparseMatrix, SparsityPattern
from relusolve.calculus import affine_net
from relusolve.network import stats


def weights_of(net) -> int:
    return stats(net).weights


def pattern_of(rows) -> SparsityPattern:
    """The pattern whose row i has the columns rows[i]."""
    return SparsityPattern(np.cumsum([0] + [len(row) for row in rows]), [j for row in rows for j in row])


def diagonal_pattern(n: int) -> SparsityPattern:
    return pattern_of([(i,) for i in range(n)])


def tridiagonal_pattern(n: int) -> SparsityPattern:
    return pattern_of([tuple(j for j in (i - 1, i, i + 1) if 0 <= j < n) for i in range(n)])


def random_operator(pattern: SparsityPattern, rng, norm_bound: float = 1.0) -> SparseMatrix:
    """Symmetric values on a symmetric pattern, rescaled to ||A||_2 <= norm_bound."""
    # one draw per (i, j) with j >= i, row-major, mirrored onto (j, i)
    upper = np.flatnonzero(pattern.indices >= pattern.row_of())
    values = np.zeros(pattern.eta)
    values[upper] = rng.uniform(-1.0, 1.0, size=len(upper))
    values[pattern.transpose_positions()[upper]] = values[upper]
    A = SparseMatrix(pattern, values)
    s = np.linalg.norm(A.to_dense(), 2)
    if s > 0.0:
        A = SparseMatrix(pattern, values * (norm_bound * 0.999 / s))
    return A


def random_affine(rng, n_out: int, n_in: int, scale: float = 1.0):
    """Dense-ish random affine net with a sparse weight draw."""
    mask = rng.random((n_out, n_in)) < 0.7
    if not mask.any():
        mask[rng.integers(n_out), rng.integers(n_in)] = True
    W = np.where(mask, rng.uniform(-scale, scale, size=(n_out, n_in)), 0.0)
    b = rng.uniform(-scale, scale, size=n_out)
    return affine_net(W, b)
