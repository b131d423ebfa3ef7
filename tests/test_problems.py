"""Benchmark generators, spectral estimation, and the COO text format."""

import math
import os

import numpy as np
import pytest

from conftest import diagonal_pattern, tridiagonal_pattern
from relusolve.arithmetic import SparseMatrix, SparsityPattern
from relusolve.problems import (
    CooFormatError,
    EigenEstimationError,
    _power_extreme,
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
    assert fem.pattern.rows == ((0, 1), (0, 1, 2), (1, 2, 3), (2, 3))
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
        random_spd(SparsityPattern([(1,), (0,)]), spec, seed=0)
    with pytest.raises(ValueError, match="symmetric"):
        random_spd(SparsityPattern([(0, 1), (1,)]), spec, seed=0)


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


def test_power_iteration_reports_non_convergence():
    A = np.diag([1.0, 2.0, 3.0])
    rng = np.random.default_rng(0)
    theta, ok = _power_extreme(lambda v: A @ v, 3, 1e-12, rng, max_iter=1, restarts=0)
    assert not ok
    err = EigenEstimationError("no convergence", theta, 3.0)
    assert err.lam_est == theta and err.Lam_est == 3.0


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
    assert A.pattern.rows == ((0, 1), (1,))
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
    ],
)
def test_coo_error_reporting(tmp_path, text, needle):
    path = tmp_path / "bad.coo"
    path.write_text(text)
    with pytest.raises(CooFormatError) as exc:
        read_coo(path)
    assert needle in str(exc.value)


def test_coo_writer_produces_reparseable_floats(tmp_path):
    pattern = diagonal_pattern(2)
    A = SparseMatrix(pattern, [1.0 / 3.0, -2.0e-17])
    path = tmp_path / "tiny.coo"
    write_coo(path, A)
    back = read_coo(path)
    assert np.array_equal(back.values, A.values)
