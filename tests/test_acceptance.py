"""Release gate: ten quantitative end-to-end certificates at stated tolerances.

Each test is one certificate, so ``pytest -v`` prints one pass/fail line per
criterion.  The shared fixtures build the four benchmark solver networks once
(tridiagonal stiffness operator, n = 16, both methods, eps in {0.5, 0.1}) and
run the 20-sample verification that criteria 1, 2 and 10 all consume.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from conftest import diagonal_pattern, random_operator
from oracles import divided_cheb_coeffs, u_series_eval
from relusolve.arithmetic import SparseMatrix, mult_net, sparse_matvec_net
from relusolve.calculus import identity_net, parallelize, pipeline, scale_add_net
from relusolve.network import ReluNetwork, evaluate, make_layer, stats
from relusolve.problems import gen_laplacian, random_rhs
from relusolve.reference import clenshaw_eval, solve_exact
from relusolve.solvers import (
    SolverConfig,
    SpectralClass,
    audit_complexity,
    build_cg_net,
    build_richardson_net,
    cheb_plan,
    clenshaw_step_net,
    m_cg,
    m_richardson,
    rho_alpha,
    richardson_step_net,
)

EPSILONS = (0.5, 0.1)
N_SAMPLES = 20
BUILDERS = {"richardson": build_richardson_net, "cg": build_cg_net}


@pytest.fixture(scope="module")
def lap16():
    return gen_laplacian(1, 16)


@pytest.fixture(scope="module")
def solver_nets(lap16):
    nets = {}
    for method, build in BUILDERS.items():
        for eps in EPSILONS:
            cfg = SolverConfig(method=method, epsilon=eps, c_sc=1.0)
            nets[method, eps] = build(lap16.pattern, lap16.spectral, cfg)
    return nets


@pytest.fixture(scope="module")
def sample_rhs(lap16):
    cols = [random_rhs(lap16.n, 1.0, lap16.spectral.lam, seed=k) for k in range(N_SAMPLES)]
    return np.column_stack(cols)


@pytest.fixture(scope="module")
def sample_errors(lap16, solver_nets, sample_rhs):
    """Per-sample solve errors ||A^{-1} r - net(A, r)||_2 for all four nets."""
    A = lap16.matrix.to_csr()
    exact = np.column_stack([solve_exact(A, sample_rhs[:, k]) for k in range(N_SAMPLES)])
    value_block = np.repeat(lap16.matrix.values[:, None], N_SAMPLES, axis=1)
    inputs = np.vstack([value_block, sample_rhs])
    return {
        key: np.linalg.norm(evaluate(net, inputs) - exact, axis=0)
        for key, net in solver_nets.items()
    }


def test_criterion_01_richardson_end_to_end(lap16, solver_nets, sample_rhs, sample_errors):
    norms = np.linalg.norm(sample_rhs, axis=0)
    assert np.allclose(norms, lap16.spectral.lam, rtol=1e-12, atol=0.0)
    assert solver_nets["richardson", 0.5].metadata["m"] == 81
    assert solver_nets["richardson", 0.1].metadata["m"] == 175
    for eps in EPSILONS:
        errors = sample_errors["richardson", eps]
        assert errors.shape == (N_SAMPLES,)
        assert np.count_nonzero(errors > eps) == 0
        assert float(errors.max()) <= eps


def test_criterion_02_cg_end_to_end(lap16, solver_nets, sample_errors):
    assert lap16.spectral.kappa >= 100
    assert solver_nets["cg", 0.5].metadata["m"] == 12
    assert solver_nets["cg", 0.1].metadata["m"] == 20
    for eps in EPSILONS:
        errors = sample_errors["cg", eps]
        assert np.count_nonzero(errors > eps) == 0
        assert float(errors.max()) <= eps
        assert solver_nets["cg", eps].metadata["m"] < solver_nets["richardson", eps].metadata["m"]


def test_criterion_03_iteration_count_scaling():
    for kappa in (1e2, 1e3, 1e4):
        spec = SpectralClass(1.0, kappa)
        m_ric = m_richardson(0.1, 1.0, rho_alpha(spec, 1.0))
        m_che = m_cg(0.1, 1.0, rho_alpha(spec, 0.5))
        ratio = m_ric / m_che
        root = math.sqrt(kappa)
        assert root / 2.0 <= ratio <= 2.0 * root


def test_criterion_04_complexity_shape_audit():
    ratios = {("richardson", "L"): [], ("richardson", "M"): [], ("cg", "L"): [], ("cg", "M"): []}
    for n in (8, 16, 32):
        fem = gen_laplacian(1, n)
        for eps in (0.5, 0.1, 0.02):
            for method, build in BUILDERS.items():
                cfg = SolverConfig(method=method, epsilon=eps, c_sc=1.0)
                net = build(fem.pattern, fem.spectral, cfg)
                rec = audit_complexity(net, net.metadata["m"], eps, fem.n, fem.pattern.eta)
                ratios[method, "L"].append(rec.ratio_L)
                ratios[method, "M"].append(rec.ratio_M)
    for key, values in ratios.items():
        assert len(values) == 9
        assert max(values) <= 4.0 * min(values), key


def test_criterion_05_chebyshev_coefficient_identity():
    # sigma0 values 1.01, 1.5, 2, 10 via the matching condition-number classes
    classes = (
        SpectralClass(1.0, 201.0),
        SpectralClass(1.0, 5.0),
        SpectralClass(1.0, 3.0),
        SpectralClass(9.0, 11.0),
    )
    for spec in classes:
        for m in range(1, 31):
            plan = cheb_plan(m, spec)
            oracle = np.array(divided_cheb_coeffs(m, plan.sigma0))
            assert np.allclose(plan.coeffs, oracle / oracle.max(), rtol=1e-9, atol=0.0)
    assert np.array_equal(divided_cheb_coeffs(2, 2.0), [4.0, 1.0])
    plan = cheb_plan(2, SpectralClass(1.0, 3.0))
    assert plan.sigma0 == 2.0
    recovered = plan.alpha_max * np.array(plan.coeffs)
    assert np.allclose(recovered, [4.0, 1.0], rtol=1e-12, atol=0.0)


def test_criterion_06_clenshaw_dual_path():
    rng = np.random.default_rng(7)
    xs = np.linspace(-1.0, 1.0, 21)
    B = rng.standard_normal((8, 8))
    B = B + B.T
    B *= 0.95 / np.linalg.norm(B, 2)
    rhat = rng.standard_normal(8)
    rhat /= np.linalg.norm(rhat)
    for m in range(1, 61):
        coeffs = rng.uniform(0.0, 1.0, size=m)
        coeffs[rng.integers(0, m)] = 1.0
        for x in xs:
            direct = u_series_eval(coeffs, float(x), 1.0)
            assert abs(clenshaw_eval(coeffs, float(x), 1.0) - direct) <= 1e-9 * max(1.0, abs(direct))
        direct = u_series_eval(coeffs, B, rhat)
        gap = np.linalg.norm(clenshaw_eval(coeffs, B, rhat) - direct)
        assert gap <= 1e-9 * max(1.0, float(np.linalg.norm(direct)))


def _cheb_t_mp(m, x):
    if abs(x) <= 1:
        return mp.cos(m * mp.acos(x))
    value = mp.cosh(m * mp.acosh(abs(x)))
    return value if x > 0 or m % 2 == 0 else -value


def test_criterion_07_optimal_polynomial_bound():
    # the slack factor is 1 + rho^{2m} ~ 1e-29 at m = 50, below double
    # resolution, so the whole comparison runs in 60-digit arithmetic
    with mp.workdps(60):
        one = mp.mpf(1)
        for kappa_int in (10, 100):
            kappa = mp.mpf(kappa_int)
            rho = (mp.sqrt(kappa) - 1) / (mp.sqrt(kappa) + 1)
            lo = one / kappa
            sigma0 = (kappa + 1) / (kappa - 1)
            for m in (5, 20, 50):
                t_at_zero = mp.cosh(m * mp.acosh(sigma0))
                bound = 2 * rho**m
                worst = mp.mpf(0)
                for j in range(1000):
                    z = lo + (one - lo) * mp.mpf(j) / 999
                    sig = (one + lo - 2 * z) / (one - lo)
                    sig = max(-one, min(one, sig))
                    value = abs(_cheb_t_mp(m, sig)) / t_at_zero
                    worst = max(worst, value)
                assert worst > 0
                assert worst <= bound


def test_criterion_08_arithmetic_net_certificates():
    for eps, D in ((1e-2, 1.0), (1e-3, 4.0)):
        net = mult_net(eps, D)
        grid = np.linspace(-D, D, 200)
        X, Y = np.meshgrid(grid, grid)
        points = np.vstack([X.ravel(), Y.ravel()])
        out = evaluate(net, points)[0]
        assert float(np.abs(out - X.ravel() * Y.ravel()).max()) <= eps
    rng = np.random.default_rng(2024)
    patterns = (diagonal_pattern(16), gen_laplacian(1, 16).pattern, gen_laplacian(2, 4).pattern)
    for pattern in patterns:
        net = sparse_matvec_net(pattern, 1e-3, z=1.0, scale=1.0)
        inputs, exact = [], []
        for _ in range(100):
            A = random_operator(pattern, rng)
            r = rng.standard_normal(pattern.n)
            r *= rng.uniform(0.1, 1.0) / np.linalg.norm(r)
            inputs.append(np.concatenate([A.values, r]))
            exact.append(A.to_dense() @ r)
        out = evaluate(net, np.column_stack(inputs))
        gaps = np.linalg.norm(out - np.column_stack(exact), axis=0)
        assert float(gaps.max()) <= 1e-3


def _random_member(rng, n_in, n_out, depth):
    widths = [n_in] + [int(rng.integers(1, 5)) for _ in range(depth - 1)] + [n_out]
    layers = []
    for w_out, w_in in zip(widths[1:], widths[:-1]):
        mask = rng.random((w_out, w_in)) < 0.7
        if not mask.any():
            mask[0, 0] = True
        rows, cols = np.nonzero(mask)
        layers.append(
            make_layer(
                (w_out, w_in), rows, cols, rng.standard_normal(rows.size), rng.standard_normal(w_out)
            )
        )
    return ReluNetwork(layers)


def test_criterion_09_calculus_exactness_and_size_bounds():
    rng = np.random.default_rng(11)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        L = int(rng.integers(2, 10))
        net = identity_net(k, L)
        x = rng.standard_normal(k) * 10.0 ** rng.uniform(-2.0, 2.0)
        assert np.array_equal(evaluate(net, x), x)
        st = stats(net)
        assert st.depth == L and st.weights <= 2 * k * L
    for _ in range(100):
        n = int(rng.integers(1, 9))
        alpha = 0.0 if rng.random() < 0.2 else float(rng.standard_normal() * 3.0)
        net = scale_add_net(alpha, n)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        assert np.array_equal(evaluate(net, np.concatenate([x, y])), alpha * x + y)
        st = stats(net)
        assert st.depth <= 2 and st.weights <= 8 * n
    for _ in range(100):
        a, b, c = (int(rng.integers(1, 6)) for _ in range(3))
        g = _random_member(rng, a, b, int(rng.integers(1, 5)))
        f = _random_member(rng, b, c, int(rng.integers(1, 5)))
        net = pipeline((g, f))
        x = rng.standard_normal(a)
        assert np.array_equal(evaluate(net, x), evaluate(f, evaluate(g, x)))
        st, sf, sg = stats(net), stats(f), stats(g)
        assert st.depth == sf.depth + sg.depth
        assert st.weights <= 3 * (sf.weights + sg.weights)
    for _ in range(100):
        members = [
            _random_member(rng, int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(1, 6)))
            for _ in range(int(rng.integers(2, 5)))
        ]
        net = parallelize(members)
        x = rng.standard_normal(net.input_dim)
        parts, offset = [], 0
        for member in members:
            parts.append(evaluate(member, x[offset : offset + member.input_dim]))
            offset += member.input_dim
        assert np.array_equal(evaluate(net, x), np.concatenate(parts))
        st = stats(net)
        max_depth = max(stats(mem).depth for mem in members)
        total_out = sum(mem.output_dim for mem in members)
        assert st.depth == max_depth
        assert st.weights <= 2 * sum(stats(mem).weights for mem in members) + 4 * total_out * max_depth


def test_criterion_10_iteration_state_instrumentation(lap16, solver_nets, sample_rhs):
    pattern, spec = lap16.pattern, lap16.spectral
    diag = pattern.diagonal_positions()
    for eps in EPSILONS:
        meta = solver_nets["richardson", eps].metadata
        m, omega = meta["m"], meta["omega"]
        step = richardson_step_net(pattern, meta["delta"], meta["z"])
        hat = (-omega) * lap16.matrix.values
        hat[diag] += 1.0
        hat_block = np.repeat(hat[:, None], N_SAMPLES, axis=1)
        hat_dense = SparseMatrix(pattern, hat).to_dense()
        state = np.vstack([hat_block, omega * sample_rhs, np.zeros_like(sample_rhs)])
        r_exact = omega * sample_rhs
        c_exact = np.zeros_like(r_exact)
        assert float(np.linalg.norm(state, axis=0).max()) <= 3.0
        for i in range(1, m + 2):
            state = evaluate(step, state)
            r_exact, c_exact = hat_dense @ r_exact, r_exact + c_exact
            exact = np.vstack([hat_block, r_exact, c_exact])
            assert float(np.linalg.norm(state - exact, axis=0).max()) <= eps / 2.0
            assert float(np.linalg.norm(state, axis=0).max()) <= i + 3.0
    slope = 2.0 * spec.kappa / (spec.kappa - 1.0)
    for eps in EPSILONS:
        meta = solver_nets["cg", eps].metadata
        m = meta["m"]
        plan = cheb_plan(m, spec)
        assert plan.sigma0 == meta["sigma0"]
        b_vals = (-slope / spec.Lam) * lap16.matrix.values
        b_vals[diag] += plan.sigma0
        zero = np.zeros_like(sample_rhs)
        state = np.vstack(
            [np.repeat(b_vals[:, None], N_SAMPLES, axis=1), zero, zero, (1.0 / spec.Lam) * sample_rhs]
        )
        bound = 3.0 * m * m
        assert float(np.linalg.norm(state, axis=0).max()) <= bound
        for k in range(m - 1, -1, -1):
            step = clenshaw_step_net(pattern, plan.coeffs[k], meta["delta"], meta["z"])
            state = evaluate(step, state)
            assert float(np.linalg.norm(state, axis=0).max()) <= bound
