"""Benchmark matrix generators, right-hand sides, spectral estimates, COO text I/O.

A `file:` operator has no closed-form spectrum, so `estimate_extremal_eigs`
takes its extreme eigenvalues from one dense symmetric eigensolve
(`scipy.linalg.eigvalsh`): O(n^2) memory and O(n^3) time, the same dense
matrix `verify` forms for its reference solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .arithmetic import SparseMatrix, SparsityPattern
from .network import atomic_write
from .solvers import SpectralClass

__all__ = [
    "CooFormatError",
    "FemProblem",
    "estimate_extremal_eigs",
    "gen_laplacian",
    "random_rhs",
    "random_spd",
    "read_coo",
    "write_coo",
]


class CooFormatError(ValueError):
    """A COO text file could not be parsed."""


@dataclass(frozen=True)
class FemProblem:
    """A discretized Laplacian with its exact spectral bracket."""

    dimension: int
    N: int
    pattern: SparsityPattern
    matrix: SparseMatrix
    spectral: SpectralClass

    @property
    def h(self) -> float:
        return 1.0 / (self.N + 1)

    @property
    def n(self) -> int:
        return self.N**self.dimension


def gen_laplacian(d: int, N: int) -> FemProblem:
    """1D tridiagonal (-1, 2, -1) or 2D 5-point (4, -1) Laplacian on N^d nodes.

    Spectral bounds come from the closed-form eigenvalues
    2 - 2 cos(k pi / (N+1)) and, in 2D, their pairwise sums.
    """
    if d not in (1, 2):
        raise ValueError("dimension must be 1 or 2")
    if N < 2:
        raise ValueError("need at least 2 nodes per direction")
    theta = math.pi / (N + 1)
    ext_min = 2.0 - 2.0 * math.cos(theta)
    ext_max = 2.0 - 2.0 * math.cos(N * theta)
    A = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(N, N), format="csr")
    spec = SpectralClass(ext_min, ext_max)
    if d == 2:
        # I (x) T + T (x) I, built from the stored entries only: no zeros
        A = sp.kronsum(A, A, format="csr")
        spec = SpectralClass(2.0 * ext_min, 2.0 * ext_max)
    pattern = SparsityPattern(A.indptr, A.indices)
    return FemProblem(d, N, pattern, SparseMatrix(pattern, A.data), spec)


def random_spd(pattern: SparsityPattern, spec: SpectralClass, seed: int) -> SparseMatrix:
    """Symmetric matrix on the pattern with spectrum inside [lam, Lam].

    Off-diagonal values are sampled symmetrically and rescaled so every
    Gershgorin radius stays below 0.4 (Lam - lam); diagonals are then drawn
    uniformly from the per-row admissible interval.  Deterministic in seed.
    """
    diagonal_at = pattern.diagonal_positions()
    if not pattern.is_symmetric():
        raise ValueError("pattern must be symmetric")
    rng = np.random.default_rng(seed)
    row_of = pattern.row_of()
    values = np.zeros(pattern.eta)
    width = spec.Lam - spec.lam
    # symmetric off-diagonal draw on the upper triangle, row-major
    upper = np.flatnonzero(pattern.indices > row_of)
    values[upper] = rng.uniform(-1.0, 1.0, size=len(upper))
    values[pattern.transpose_positions()[upper]] = values[upper]
    # row i's radius sums |A_ij| in column order (the diagonal is still 0)
    radius = np.bincount(row_of, weights=np.abs(values), minlength=pattern.n)
    r_max = radius.max()
    if r_max > 0.0:
        scale = 0.4 * width / r_max if width > 0.0 else 0.0
        values *= scale
        radius *= scale
    lo = spec.lam + radius
    hi = spec.Lam - radius
    diagonal = lo.copy()
    drawn = hi > lo
    diagonal[drawn] = rng.uniform(lo[drawn], hi[drawn])
    values[diagonal_at] = diagonal
    return SparseMatrix(pattern, values)


def random_rhs(n: int, c_sc: float, lam: float, seed: int) -> np.ndarray:
    """Uniformly random direction scaled so ||r||_2 = c_sc * lam exactly."""
    if not c_sc >= 1.0:
        raise ValueError("c_sc must be at least 1")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    rng = np.random.default_rng(seed)
    r = rng.normal(size=n)
    while not np.any(r):  # pragma: no cover - astronomically unlikely
        r = rng.normal(size=n)
    return r * (c_sc * lam / np.linalg.norm(r))


def estimate_extremal_eigs(A):
    """(lam_est, Lam_est): the extreme eigenvalues of the dense symmetric A.

    Each is within about n * 2**-52 * Lam of the exact value (LAPACK's
    backward error); folding that into a bracket is the caller's job.
    """
    if isinstance(A, SparseMatrix):
        if not A.pattern.is_symmetric():
            raise ValueError("matrix must be symmetric")
        dense = A.to_dense()
    else:
        dense = np.asarray(A, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1] or not np.array_equal(dense, dense.T):
        raise ValueError("matrix must be symmetric")
    w = scipy.linalg.eigvalsh(dense)
    return float(w[0]), float(w[-1])


def write_coo(path, matrix: SparseMatrix) -> None:
    """Write `n nnz` header then 1-based `i j v` lines, row-major."""
    pattern = matrix.pattern
    entries = zip((pattern.row_of() + 1).tolist(), (pattern.indices + 1).tolist(), matrix.values.tolist())
    lines = [f"{pattern.n} {pattern.eta}"] + [f"{i} {j} {v!r}" for i, j, v in entries]
    atomic_write(path, ("\n".join(lines) + "\n").encode())


def read_coo(path) -> SparseMatrix:
    """Parse the COO text format; errors carry 1-based line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    entries = {}
    header = None
    for lineno, line in enumerate(raw, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        parts = text.split()
        if header is None:
            if len(parts) != 2:
                raise CooFormatError(f"line {lineno}: expected header 'n nnz'")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise CooFormatError(f"line {lineno}: header values must be integers") from None
            if header[0] < 1 or header[1] < 0:
                raise CooFormatError(f"line {lineno}: header values out of range")
            continue
        if len(parts) != 3:
            raise CooFormatError(f"line {lineno}: expected 'i j v'")
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise CooFormatError(f"line {lineno}: malformed entry") from None
        n = header[0]
        if not (1 <= i <= n and 1 <= j <= n):
            raise CooFormatError(f"line {lineno}: index out of range for n={n}")
        if not math.isfinite(v):
            raise CooFormatError(f"line {lineno}: non-finite value")
        if (i - 1, j - 1) in entries:
            raise CooFormatError(f"line {lineno}: duplicate entry ({i}, {j})")
        entries[(i - 1, j - 1)] = v
    if header is None:
        raise CooFormatError("line 1: empty file, expected header 'n nnz'")
    n, nnz = header
    if len(entries) != nnz:
        raise CooFormatError(f"header announces {nnz} entries but file has {len(entries)}")
    # every row needs an entry; checked before anything is allocated per row
    if nnz < n:
        raise CooFormatError(f"header announces {nnz} entries for n={n}; every row needs one")
    ij = np.array(list(entries), dtype=np.int64)
    counts = np.bincount(ij[:, 0], minlength=n)
    if not counts.all():
        raise CooFormatError(f"row {np.argmin(counts) + 1} has no entries")
    order = np.lexsort((ij[:, 1], ij[:, 0]))
    pattern = SparsityPattern(np.concatenate([[0], np.cumsum(counts)]), ij[order, 1])
    return SparseMatrix(pattern, np.array(list(entries.values()))[order])
