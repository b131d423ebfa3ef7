"""Frozen oracle values and cross-checks between independent reference paths."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from oracles import (
    chebyshev_eval, chebyshev_t_exact, divided_cheb_coeffs, richardson_iterate, u_series_eval
)
from relusolve.problems import gen_laplacian
from relusolve.reference import clenshaw_eval, solve_exact


def test_solve_exact_known_system():
    A = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = solve_exact(A, [3.0, 3.0])
    assert np.allclose(x, [1.0, 1.0], atol=1e-12)


def test_solve_exact_zero_rhs_and_residual_guarantee():
    fem = gen_laplacian(1, 12)
    A = fem.matrix.to_dense()
    assert np.array_equal(solve_exact(A, np.zeros(12)), np.zeros(12))
    rng = np.random.default_rng(2)
    r = rng.normal(size=12)
    x = solve_exact(fem.matrix.to_csr(), r)
    assert np.linalg.norm(r - A @ x) <= 1e-10 * np.linalg.norm(r)


def _conditioned_spd(seed, n, kappa):
    """A seeded SPD matrix with spectrum geomspace(1, kappa, n), and a rhs."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = (q * np.geomspace(1.0, kappa, n)) @ q.T
    return (A + A.T) / 2.0, rng.normal(size=n)


def test_solve_exact_refines_once_and_refuses_what_one_step_leaves():
    # found by measurement: the first Cholesky solve of this system misses
    # the 1e-10 ||r|| residual check about 4.7-fold, one refinement step
    # lands at about half of it
    A, r = _conditioned_spd(324, 6, 1e8)
    tol = 1e-10 * np.linalg.norm(r)
    first = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A), r)
    assert np.linalg.norm(r - A @ first) > tol
    assert np.linalg.norm(r - A @ solve_exact(A, r)) <= tol
    # the order-12 Hilbert matrix factors, but its refined residual stays
    # about 60-fold above the check
    with pytest.raises(ValueError, match="failed the residual check"):
        solve_exact(scipy.linalg.hilbert(12), np.ones(12))


def test_solve_exact_rejects_indefinite_matrix():
    with pytest.raises(ValueError, match="not positive definite"):
        solve_exact(np.array([[1.0, 2.0], [2.0, 1.0]]), [1.0, 1.0])


def test_richardson_iterate_frozen_scalar_case():
    # x_1 = 0.25, x_2 = 0.25 + 0.25 * (1 - 0.5)
    out = richardson_iterate(np.array([[2.0]]), [1.0], 0.25, 1)
    assert out[0] == 0.375


def test_richardson_iterate_converges_to_direct_solve():
    fem = gen_laplacian(1, 8)
    A = fem.matrix.to_dense()
    rng = np.random.default_rng(4)
    r = rng.normal(size=8)
    x = richardson_iterate(A, r, fem.spectral.omega, 400)
    assert np.linalg.norm(x - solve_exact(A, r)) <= 1e-6


def test_chebyshev_eval_frozen_values():
    assert chebyshev_eval("T", 0, 0.3) == 1.0
    assert chebyshev_eval("T", 2, 2.0) == 7.0
    assert chebyshev_eval("T", 3, 0.5) == -1.0
    assert chebyshev_eval("U", 0, 0.9) == 1.0
    assert chebyshev_eval("U", 1, 0.5) == 1.0
    assert chebyshev_eval("U", 2, 1.0) == 3.0


def test_chebyshev_eval_vector_and_validation():
    xs = np.linspace(-1, 1, 5)
    out = chebyshev_eval("T", 2, xs)
    assert out.shape == xs.shape
    assert np.allclose(out, 2 * xs * xs - 1, atol=1e-15)
    with pytest.raises(ValueError, match="kind"):
        chebyshev_eval("V", 1, 0.0)
    with pytest.raises(ValueError, match="degree"):
        chebyshev_eval("T", -1, 0.0)


def test_second_kind_growth_bound_on_unit_interval():
    xs = np.linspace(-1.0, 1.0, 501)
    for j in range(13):
        vals = chebyshev_eval("U", j, xs)
        assert np.max(np.abs(vals)) <= (j + 1) * (1.0 + 1e-12)


def test_clenshaw_frozen_scalar_case():
    # U_0 + U_1(0.5) = 1 + 1
    assert clenshaw_eval([1.0, 1.0], 0.5, 1.0) == 2.0


def test_clenshaw_matches_forward_series_scalar():
    rng = np.random.default_rng(8)
    for m in (1, 2, 5, 17, 40):
        coeffs = rng.uniform(-1, 1, size=m)
        for x in np.linspace(-1, 1, 9):
            a = clenshaw_eval(coeffs, x, 1.0)
            b = u_series_eval(coeffs, x, 1.0)
            assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def test_clenshaw_matches_forward_series_matrix():
    rng = np.random.default_rng(9)
    B = rng.normal(size=(6, 6))
    B = B + B.T
    B /= np.linalg.norm(B, 2)
    rhat = rng.normal(size=6)
    for m in (1, 3, 10, 30):
        coeffs = rng.uniform(-1, 1, size=m)
        a = clenshaw_eval(coeffs, B, rhat)
        b = u_series_eval(coeffs, B, rhat)
        assert np.linalg.norm(a - b) <= 1e-9 * max(1.0, np.linalg.norm(a))


def test_divided_cheb_coeffs_frozen_values():
    assert divided_cheb_coeffs(1, 7.3) == [1.0]
    assert divided_cheb_coeffs(2, 2.0) == [4.0, 1.0]
    assert divided_cheb_coeffs(3, 1.0) == [2.0, 2.0, 1.0]


def test_divided_cheb_coeffs_match_closed_form():
    # d_l = 2 T_{m-1-l}(x0) for l <= m-2 and d_{m-1} = 1
    for m, x0 in ((6, 1.5), (11, 1.01), (4, 10.0)):
        d = divided_cheb_coeffs(m, x0)
        assert d[m - 1] == 1.0
        for l in range(m - 1):
            want = 2.0 * chebyshev_eval("T", m - 1 - l, x0)
            assert abs(d[l] - want) <= 1e-12 * abs(want)


def test_divided_cheb_coeffs_reproduce_the_quotient():
    m, x0 = 7, 1.25
    d = divided_cheb_coeffs(m, x0)
    ws = np.linspace(-1.0, 1.0, 41)
    lhs = sum(d[l] * chebyshev_eval("U", l, ws) for l in range(m))
    rhs = (chebyshev_eval("T", m, x0) - chebyshev_eval("T", m, ws)) / (x0 - ws)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8


def test_divided_cheb_coeffs_validation():
    with pytest.raises(ValueError, match="degree"):
        divided_cheb_coeffs(0, 2.0)


def test_chebyshev_t_exact_rational_values():
    assert chebyshev_t_exact(0, Fraction(5)) == 1
    assert chebyshev_t_exact(4, Fraction(2)) == 97
    assert chebyshev_t_exact(3, Fraction(1, 2)) == -1
