"""Benchmark matrix generators, right-hand sides, and COO text I/O."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import SparseMatrix, SparsityPattern
from .network import atomic_write_text
from .solvers import SpectralClass

__all__ = [
    "CooFormatError",
    "EigenEstimationError",
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


class EigenEstimationError(RuntimeError):
    """Power iteration failed to converge; carries the partial estimates."""

    def __init__(self, message, lam_est, Lam_est):
        super().__init__(message)
        self.lam_est = lam_est
        self.Lam_est = Lam_est


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
    if d == 1:
        rows = [tuple(j for j in (i - 1, i, i + 1) if 0 <= j < N) for i in range(N)]
        pattern = SparsityPattern(rows)
        vals = [2.0 if i == j else -1.0 for i, row in enumerate(pattern.rows) for j in row]
        spec = SpectralClass(ext_min, ext_max)
    else:
        rows = []
        for i in range(N):
            for j in range(N):
                p = i * N + j
                cols = []
                if i > 0:
                    cols.append(p - N)
                if j > 0:
                    cols.append(p - 1)
                cols.append(p)
                if j < N - 1:
                    cols.append(p + 1)
                if i < N - 1:
                    cols.append(p + N)
                rows.append(tuple(cols))
        pattern = SparsityPattern(rows)
        vals = [4.0 if i == j else -1.0 for i, row in enumerate(pattern.rows) for j in row]
        spec = SpectralClass(2.0 * ext_min, 2.0 * ext_max)
    return FemProblem(d, N, pattern, SparseMatrix(pattern, vals), spec)


def random_spd(pattern: SparsityPattern, spec: SpectralClass, seed: int) -> SparseMatrix:
    """Symmetric matrix on the pattern with spectrum inside [lam, Lam].

    Off-diagonal values are sampled symmetrically and rescaled so every
    Gershgorin radius stays below 0.4 (Lam - lam); diagonals are then drawn
    uniformly from the per-row admissible interval.  Deterministic in seed.
    """
    if not pattern.has_full_diagonal():
        raise ValueError("pattern must contain every diagonal position")
    if not pattern.is_symmetric():
        raise ValueError("pattern must be symmetric")
    rng = np.random.default_rng(seed)
    n = pattern.n
    values = np.zeros(pattern.eta)
    radius = np.zeros(n)
    width = spec.Lam - spec.lam
    # symmetric off-diagonal draw on the upper triangle
    for i, row in enumerate(pattern.rows):
        for j in row:
            if j > i:
                v = rng.uniform(-1.0, 1.0)
                values[pattern.index_of(i, j)] = v
                values[pattern.index_of(j, i)] = v
                radius[i] += abs(v)
                radius[j] += abs(v)
    r_max = radius.max()
    if r_max > 0.0:
        scale = 0.4 * width / r_max if width > 0.0 else 0.0
        values *= scale
        radius *= scale
    for i in range(n):
        lo = spec.lam + radius[i]
        hi = spec.Lam - radius[i]
        values[pattern.index_of(i, i)] = rng.uniform(lo, hi) if hi > lo else lo
    return SparseMatrix(pattern, values)


def random_rhs(n: int, c_sc: float, lam: float, seed: int) -> np.ndarray:
    """Uniformly random direction scaled so ||r||_2 = c_sc * lam exactly."""
    if c_sc < 1.0:
        raise ValueError("c_sc must be at least 1")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    rng = np.random.default_rng(seed)
    r = rng.normal(size=n)
    while not np.any(r):  # pragma: no cover - astronomically unlikely
        r = rng.normal(size=n)
    return r * (c_sc * lam / np.linalg.norm(r))


def _power_extreme(matvec, n, tol, rng, max_iter=100_000, restarts=3):
    """Largest eigenvalue of an SPSD operator by restarted power iteration."""
    best = 0.0
    for _ in range(restarts + 1):
        v = rng.normal(size=n)
        v /= np.linalg.norm(v)
        theta = 0.0
        for _ in range(max_iter):
            w = matvec(v)
            norm_w = np.linalg.norm(w)
            if norm_w == 0.0:
                return 0.0, True
            v = w / norm_w
            w = matvec(v)
            theta = float(v @ w)
            resid = np.linalg.norm(w - theta * v)
            # residual certifies |theta - mu| <= resid for some eigenvalue mu
            if resid <= 0.01 * tol * max(abs(theta), 1e-300):
                return theta, True
        best = max(best, theta)
    return best, False


def estimate_extremal_eigs(A, tol: float = 1e-6):
    """(lam_est, Lam_est) by power iteration on A and on Lam_est I - A."""
    if isinstance(A, SparseMatrix):
        if not A.pattern.is_symmetric() or not A.is_value_symmetric():
            raise ValueError("matrix must be symmetric")
        op = A.to_csr()
    else:
        op = np.asarray(A, dtype=np.float64)
        if op.ndim != 2 or op.shape[0] != op.shape[1] or not np.array_equal(op, op.T):
            raise ValueError("matrix must be symmetric")
    n = op.shape[0]
    rng = np.random.default_rng(12345)
    Lam_est, ok_top = _power_extreme(lambda v: op @ v, n, tol, rng)
    lam_shift, ok_bot = _power_extreme(lambda v: Lam_est * v - op @ v, n, tol, rng)
    lam_est = Lam_est - lam_shift
    if not (ok_top and ok_bot):
        raise EigenEstimationError(
            f"power iteration did not reach tolerance {tol}", lam_est, Lam_est
        )
    return lam_est, Lam_est


def write_coo(path, matrix: SparseMatrix) -> None:
    """Write `n nnz` header then 1-based `i j v` lines, row-major."""
    lines = [f"{matrix.pattern.n} {matrix.pattern.eta}"]
    for p, (i, j) in enumerate(matrix.pattern.positions()):
        lines.append(f"{i + 1} {j + 1} {float(matrix.values[p])!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


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
    rows: list = [[] for _ in range(n)]
    for (i, j) in sorted(entries):
        rows[i].append(j)
    if any(not row for row in rows):
        empty = next(i for i, row in enumerate(rows) if not row)
        raise CooFormatError(f"row {empty + 1} has no entries")
    pattern = SparsityPattern([tuple(r) for r in rows])
    values = [entries[pos] for pos in pattern.positions()]
    return SparseMatrix(pattern, values)
