"""Benchmark generators, spectral estimation, and the COO text format."""

import hashlib
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relusolve
from conftest import diagonal_pattern, pattern_of, tridiagonal_pattern
from relusolve.arithmetic import SparseMatrix
from relusolve.problems import (
    CooFormatError,
    estimate_extremal_eigs,
    gen_laplacian,
    random_rhs,
    random_spd,
    read_coo,
    write_coo,
)
from relusolve.solvers import SpectralClass


def test_laplacian_1d_structure_and_spectrum():
    fem = gen_laplacian(1, 4)
    assert fem.n == 4 and fem.h == 0.2
    assert list(fem.pattern.indptr) == [0, 2, 5, 8, 10]
    assert list(fem.pattern.indices) == [0, 1, 0, 1, 2, 1, 2, 3, 2, 3]
    assert fem.pattern.eta == 10
    dense = fem.matrix.to_dense()
    assert np.array_equal(np.diag(dense), np.full(4, 2.0))
    assert abs(fem.spectral.lam - (2.0 - 2.0 * math.cos(math.pi / 5))) <= 1e-15
    eigs = np.linalg.eigvalsh(dense)
    assert abs(eigs[0] - fem.spectral.lam) <= 1e-9
    assert abs(eigs[-1] - fem.spectral.Lam) <= 1e-9


def test_laplacian_2d_structure_and_spectrum():
    fem = gen_laplacian(2, 3)
    assert fem.n == 9
    dense = fem.matrix.to_dense()
    assert np.array_equal(dense, dense.T)
    assert np.array_equal(np.diag(dense), np.full(9, 4.0))
    assert fem.pattern.chi_max == 5
    eigs = np.linalg.eigvalsh(dense)
    assert abs(eigs[0] - fem.spectral.lam) <= 1e-9
    assert abs(eigs[-1] - fem.spectral.Lam) <= 1e-9


def test_laplacian_validation():
    with pytest.raises(ValueError, match="dimension"):
        gen_laplacian(3, 4)
    with pytest.raises(ValueError, match="at least 2 nodes"):
        gen_laplacian(1, 1)


def test_laplacian_condition_number_tracks_mesh_width():
    quotients = []
    for N in (8, 16, 32):
        fem = gen_laplacian(1, N)
        quotients.append(fem.spectral.kappa * fem.h**2)
    assert max(quotients) / min(quotients) <= 1.1


def test_random_spd_lands_in_the_spectral_box():
    pattern = tridiagonal_pattern(8)
    spec = SpectralClass(1.0, 5.0)
    A = random_spd(pattern, spec, seed=7)
    dense = A.to_dense()
    assert np.array_equal(dense, dense.T)
    eigs = np.linalg.eigvalsh(dense)
    assert eigs[0] >= spec.lam - 1e-12
    assert eigs[-1] <= spec.Lam + 1e-12


def test_random_spd_determinism_and_validation():
    pattern = tridiagonal_pattern(5)
    spec = SpectralClass(1.0, 3.0)
    a = random_spd(pattern, spec, seed=3)
    b = random_spd(pattern, spec, seed=3)
    c = random_spd(pattern, spec, seed=4)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    with pytest.raises(ValueError, match="diagonal"):
        random_spd(pattern_of([(1,), (0,)]), spec, seed=0)
    with pytest.raises(ValueError, match="symmetric"):
        random_spd(pattern_of([(0, 1), (1,)]), spec, seed=0)


def test_random_spd_degenerate_box_gives_scaled_identity():
    pattern = tridiagonal_pattern(3)
    A = random_spd(pattern, SpectralClass(2.0, 2.0), seed=1)
    assert np.array_equal(A.to_dense(), 2.0 * np.eye(3))


def test_random_rhs_norm_and_determinism():
    r = random_rhs(10, 2.0, 0.25, seed=5)
    assert abs(np.linalg.norm(r) - 0.5) <= 1e-12
    assert np.array_equal(r, random_rhs(10, 2.0, 0.25, seed=5))
    with pytest.raises(ValueError, match="c_sc"):
        random_rhs(4, 0.5, 1.0, seed=0)
    with pytest.raises(ValueError, match="c_sc"):
        random_rhs(4, math.nan, 1.0, seed=0)
    with pytest.raises(ValueError, match="lam"):
        random_rhs(4, 1.0, 0.0, seed=0)


def test_estimate_extremal_eigs_known_matrices():
    lam, Lam = estimate_extremal_eigs(np.eye(4))
    assert abs(lam - 1.0) <= 1e-6 and abs(Lam - 1.0) <= 1e-6
    lam, Lam = estimate_extremal_eigs(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert abs(lam - 1.0) <= 1e-6 and abs(Lam - 4.0) <= 1e-6


def test_estimate_extremal_eigs_matches_closed_form():
    fem = gen_laplacian(1, 10)
    lam, Lam = estimate_extremal_eigs(fem.matrix)
    assert abs(lam - fem.spectral.lam) <= 1e-6 * fem.spectral.lam
    assert abs(Lam - fem.spectral.Lam) <= 1e-6 * fem.spectral.Lam


def test_estimate_extremal_eigs_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        estimate_extremal_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_estimate_extremal_eigs_checks_values_on_a_symmetric_pattern():
    pat = tridiagonal_pattern(3)
    vals = [2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0]
    lam, Lam = estimate_extremal_eigs(SparseMatrix(pat, vals))
    assert abs(lam - (2.0 - math.sqrt(2.0))) <= 1e-15 and abs(Lam - (2.0 + math.sqrt(2.0))) <= 1e-15
    vals[1] = 5.0
    with pytest.raises(ValueError, match="symmetric"):
        estimate_extremal_eigs(SparseMatrix(pat, vals))
    with pytest.raises(ValueError, match="symmetric"):
        estimate_extremal_eigs(SparseMatrix(pattern_of([(0, 1), (1,)]), [1.0, 0.0, 1.0]))


def test_coo_round_trip_is_exact(tmp_path):
    fem = gen_laplacian(1, 5)
    path = tmp_path / "a.coo"
    write_coo(path, fem.matrix)
    back = read_coo(path)
    assert back.pattern == fem.pattern
    assert np.array_equal(back.values, fem.matrix.values)


def test_coo_writer_replaces_the_file_atomically(tmp_path, monkeypatch):
    fem = gen_laplacian(1, 2)
    path = tmp_path / "a.coo"
    write_coo(path, fem.matrix)
    assert path.read_text() == "2 4\n1 1 2.0\n1 2 -1.0\n2 1 -1.0\n2 2 2.0\n"
    # the mode a plain open() gives a new file
    (tmp_path / "plain").write_text("")
    assert path.stat().st_mode == (tmp_path / "plain").stat().st_mode
    (tmp_path / "plain").unlink()

    def fail(src, dst):
        raise OSError("disk full")

    # a write that fails before the rename leaves the old file and no temp file
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        write_coo(path, gen_laplacian(1, 3).matrix)
    assert path.read_text().startswith("2 4\n")
    assert [p.name for p in tmp_path.iterdir()] == ["a.coo"]


def test_coo_accepts_comments_and_blank_lines(tmp_path):
    path = tmp_path / "ok.coo"
    path.write_text("# header comment\n\n2 3\n1 1 2.0  # diagonal\n1 2 -1.0\n2 2 2.0\n")
    A = read_coo(path)
    assert list(A.pattern.indptr) == [0, 2, 3]
    assert list(A.pattern.indices) == [0, 1, 1]
    assert np.array_equal(A.values, [2.0, -1.0, 2.0])


@pytest.mark.parametrize(
    "text,needle",
    [
        ("", "line 1: empty file"),
        ("2\n", "line 1: expected header"),
        ("x y\n", "header values must be integers"),
        ("0 1\n", "header values out of range"),
        ("2 1\n1 1\n", "line 2: expected 'i j v'"),
        ("2 1\n1 1 abc\n", "line 2: malformed entry"),
        ("2 1\n1 3 1.0\n", "line 2: index out of range"),
        ("2 1\n1 1 inf\n", "line 2: non-finite value"),
        ("2 2\n1 1 1.0\n1 1 2.0\n", "line 3: duplicate entry"),
        ("2 2\n1 1 1.0\n", "announces 2 entries but file has 1"),
        ("2 2\n1 1 1.0\n1 2 1.0\n", "row 2 has no entries"),
        ("3 2\n1 1 1.0\n2 2 1.0\n", "header announces 2 entries for n=3; every row needs one"),
    ],
)
def test_coo_error_reporting(tmp_path, text, needle):
    path = tmp_path / "bad.coo"
    path.write_text(text)
    with pytest.raises(CooFormatError) as exc:
        read_coo(path)
    assert needle in str(exc.value)


def test_coo_rejects_a_huge_header_n_before_allocating_rows(tmp_path):
    # one entry for n = 1e12 rows: building one list per row would exhaust
    # memory, so the command runs in a child with a bounded address space
    path = tmp_path / "huge.coo"
    path.write_text("1000000000000 1\n1 1 1.0\n")
    limit = 1_000_000_000

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = {**os.environ, "PYTHONPATH": str(Path(relusolve.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "relusolve.cli", "build", "--method", "cg", "--problem",
         f"file:{path}", "--out", str(tmp_path / "net.npz")],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=limit_address_space,
    )
    assert proc.returncode == 3, proc.stderr
    assert "header announces 1 entries for n=1000000000000; every row needs one" in proc.stderr


def test_coo_writer_produces_reparseable_floats(tmp_path):
    pattern = diagonal_pattern(2)
    A = SparseMatrix(pattern, [1.0 / 3.0, -2.0e-17])
    path = tmp_path / "tiny.coo"
    write_coo(path, A)
    back = read_coo(path)
    assert np.array_equal(back.values, A.values)


def _problem_digest(matrices) -> str:
    """sha256 over the int64 CSR structure and the values of each matrix, in order."""
    h = hashlib.sha256()
    for A in matrices:
        csr = A.to_csr()
        for arr in (csr.indptr.astype(np.int64), csr.indices.astype(np.int64), A.values):
            h.update(arr.tobytes())
    return h.hexdigest()


def _coo_round_trip(tmp_path, A):
    path = tmp_path / "a.coo"
    write_coo(path, A)
    return read_coo(path)


# digests of the Laplacian (bracket None) and of random_spd at seeds 0, 1
# and 2 in each bracket, as generated while patterns were stored as per-row
# tuples; no change of storage may move a value or a draw
FROZEN_PROBLEMS = {
    (1, 4): {
        None: "144151fbdc73d517f7dc3d36d19de8adca77e9a6a233116bdfad8f80ed9f0a7c",
        (1.0, 100.0): "4c433a0d46017b6ebc3b8899028b2670e1c5c10d9db5903451f0db25752e228f",
        (1.0, 5.0): "ed2728828aa1edc0dce51755f09bc92d27429bb4024744212503250bc1f8fe26",
        (2.0, 2.0): "ac4a7b00cfe508fd9803e9ff19abbde17bcb1118483cd9ed63f3809b4f795221",
    },
    (1, 16): {
        None: "fed0f1f0d634dfe2afdb2b35788116cf6d808f33a8b3a6552ffdcc6e1837f1a1",
        (1.0, 100.0): "01751e605a5b59b3d0bb0ce5252439b40c50c48cee51f26c7411702292291af2",
        (1.0, 5.0): "f337fe27189077402b4734dd1693d8831fe808f1fcec1e16bd5faef6e498e784",
        (2.0, 2.0): "735dfadea87ea687953ba9948d5b8d9cf7fdc61b3f1c7edcca3010bf86f053f8",
    },
    (2, 3): {
        None: "78e1208bf642f825e5294386adbb7365d48806cbe42cf712af3c37c6c9e79f98",
        (1.0, 100.0): "1bf601801a146d8796608783864733bb0b1d016127744aef76975f99f9d565c0",
        (1.0, 5.0): "eedb0f7f352c1aba3b19e6b5b43d38171a60b712a887387c4c94c1e9e3d613c7",
        (2.0, 2.0): "bfdb72c8f336557e242c210ebb0274cde536ca44cda48447976900b49e97a0ed",
    },
    (2, 4): {
        None: "0a2c4474117cc748caa009309ee6f74e830a1c860cdbc159e3e67becbe45e187",
        (1.0, 100.0): "7afd3cd5ee643b80f1f4b684d6862131b68db387598ae7320a21fc185c13df2c",
        (1.0, 5.0): "cc1dc225447d2e1f12c1254c7c1d832d8e0191bd30d58ce719e71ae4b210b1dd",
        (2.0, 2.0): "399a960ab913aaa6ccd960176a48e2ded1020ea009e2643b60c1ad4db5ea2238",
    },
}


@pytest.mark.parametrize("d, N", list(FROZEN_PROBLEMS))
def test_problem_generators_are_frozen(tmp_path, d, N):
    fem = gen_laplacian(d, N)
    for bracket, digest in FROZEN_PROBLEMS[d, N].items():
        if bracket is None:
            matrices = [fem.matrix]
        else:
            matrices = [random_spd(fem.pattern, SpectralClass(*bracket), seed) for seed in range(3)]
        assert _problem_digest(matrices) == digest, bracket
        assert _problem_digest([_coo_round_trip(tmp_path, A) for A in matrices]) == digest, bracket
