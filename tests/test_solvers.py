"""Step-count formulas, coefficient plans, step nets, and the end-to-end builders."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pattern_of, random_operator, tridiagonal_pattern
from oracles import divided_cheb_coeffs
from relusolve import solvers
from relusolve.arithmetic import SparseMatrix, sparse_matvec_error, sparse_matvec_net, sparse_matvec_net_at
from relusolve.calculus import _merge_first, _split_layer
from relusolve.network import ReluNetwork, evaluate, stats
from relusolve.problems import gen_laplacian, random_rhs, random_spd
from relusolve.reference import solve_exact
from relusolve.solvers import (
    METHODS,
    AuditRecord,
    ChebyshevPlan,
    SolverConfig,
    SpectralClass,
    _assemble,
    _clenshaw_body,
    _clenshaw_end,
    _fused_step,
    audit_complexity,
    build_cg_net,
    build_richardson_net,
    cheb_plan,
    clenshaw_step_net,
    m_cg,
    m_richardson,
    plan,
    rho_alpha,
    richardson_step_net,
)


def test_spectral_class_derived_quantities():
    spec = SpectralClass(1.0, 9.0)
    assert spec.kappa == 9.0
    assert spec.omega == 0.2
    assert rho_alpha(spec, 1.0) == 0.8
    assert rho_alpha(spec, 0.5) == 0.5
    assert rho_alpha(SpectralClass(2.0, 2.0), 1.0) == 0.0


def test_spectral_class_validation():
    with pytest.raises(ValueError):
        SpectralClass(0.0, 1.0)
    with pytest.raises(ValueError):
        SpectralClass(2.0, 1.0)
    with pytest.raises(ValueError):
        SpectralClass(1.0, math.inf)


def test_step_count_frozen_values():
    assert m_richardson(0.5, 1.0, 0.5) == 2
    assert m_richardson(0.5, 1.0, 0.8) == 7
    assert m_cg(0.5, 1.0, 0.5) == 3
    assert m_cg(0.1, 1.0, 0.5) == 6
    assert m_richardson(0.5, 1.0, 0.0) == 1
    assert m_cg(0.5, 1.0, 0.0) == 1


def test_step_count_validation():
    for fn in (m_richardson, m_cg):
        with pytest.raises(ValueError):
            fn(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            fn(0.5, 0.5, 0.5)
        with pytest.raises(ValueError, match="c_sc must be at least 1"):
            fn(0.5, math.nan, 0.5)
        with pytest.raises(ValueError):
            fn(0.5, 1.0, 1.0)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(1e-6, 0.99, allow_nan=False),
    st.floats(1.0, 50.0, allow_nan=False),
    st.floats(1e-6, 0.999, allow_nan=False),
)
def test_step_counts_suffice_for_their_error_targets(eps, c_sc, rho):
    slack = 1.0 + 1e-9
    assert rho ** m_richardson(eps, c_sc, rho) <= eps / (2.0 * c_sc) * slack
    assert rho ** m_cg(eps, c_sc, rho) <= eps / (4.0 * c_sc) * slack


def test_solver_config_validation():
    with pytest.raises(ValueError, match="method"):
        SolverConfig("jacobi", 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        SolverConfig("cg", 1.5)
    with pytest.raises(ValueError, match="c_sc"):
        SolverConfig("cg", 0.1, 0.5)
    with pytest.raises(ValueError, match="c_sc must be at least 1"):
        SolverConfig("cg", 0.1, math.nan)


@pytest.mark.parametrize("method,builder", [("richardson", build_richardson_net), ("cg", build_cg_net)])
def test_solver_config_accepts_eps_down_to_what_float64_meets(method, builder):
    # below 1e-12 a net's own rounding (about 1e-14 at unit scale) could
    # not be told from its error: refused; at 1e-12 the net still meets eps
    # on the +-extreme eigenvectors
    for eps in (9.99e-13, 1e-300):
        with pytest.raises(ValueError, match=r"epsilon must lie in \[1e-12, 1\)"):
            SolverConfig(method, eps)
    fem = gen_laplacian(1, 8)
    net = builder(fem.pattern, fem.spectral, SolverConfig(method, 1e-12))
    A = fem.matrix.to_dense()
    _, V = np.linalg.eigh(A)
    rhs = fem.spectral.lam * np.column_stack([V[:, 0], -V[:, 0], V[:, -1], -V[:, -1]])
    out = evaluate(net, np.vstack([np.repeat(fem.matrix.values[:, None], 4, axis=1), rhs]))
    assert float(np.linalg.norm(out - np.linalg.solve(A, rhs), axis=0).max()) <= 1e-12


def test_solver_config_admissible_scale_ranges():
    spec = SpectralClass(1.0, 2.0)  # kappa = 2
    SolverConfig("richardson", 0.1, 1.5).validate_against(spec)
    with pytest.raises(ValueError, match="admissible bound"):
        SolverConfig("richardson", 0.1, 1.6).validate_against(spec)
    SolverConfig("cg", 0.1, 2.0).validate_against(spec)
    with pytest.raises(ValueError, match="admissible bound"):
        SolverConfig("cg", 0.1, 2.5).validate_against(spec)


def test_cheb_plan_frozen_degree_two_case():
    # kappa = 3 puts the series center at 2, where 2 T_1 = 4
    plan = cheb_plan(2, SpectralClass(1.0, 3.0))
    assert plan.degree == 2
    assert plan.sigma0 == 2.0
    assert abs(plan.alpha_max - 4.0) <= 1e-12
    assert np.allclose(plan.coeffs, (1.0, 0.25), rtol=1e-12, atol=0.0)
    assert abs(plan.final_scale - 12.0 / 7.0) <= 1e-12


def test_cheb_plan_normalization_and_positivity():
    for m in (1, 2, 5, 30, 120):
        plan = cheb_plan(m, SpectralClass(1.0, 50.0))
        assert len(plan.coeffs) == m
        assert max(plan.coeffs) == 1.0
        assert all(0.0 < c <= 1.0 for c in plan.coeffs)
        assert plan.alpha_max >= 1.0
        assert plan.final_scale > 0.0
        assert math.isfinite(plan.final_scale)


def test_cheb_plan_matches_divided_difference_oracle():
    for m, kappa in ((1, 3.0), (4, 3.0), (9, 201.0), (13, 11.0 / 9.0)):
        plan = cheb_plan(m, SpectralClass(1.0, kappa))
        oracle = divided_cheb_coeffs(m, plan.sigma0)
        for got_bar, want in zip(plan.coeffs, oracle):
            got = got_bar * plan.alpha_max
            assert abs(got - want) <= 1e-10 * abs(want)


def test_cheb_plan_stays_finite_at_extreme_degree():
    plan = cheb_plan(500, SpectralClass(1.0, 100.0))
    assert max(plan.coeffs) == 1.0
    assert math.isfinite(plan.final_scale) and plan.final_scale > 0.0


def test_cheb_plan_rejects_unit_condition_number():
    with pytest.raises(ValueError, match="Richardson"):
        cheb_plan(3, SpectralClass(2.0, 2.0))
    with pytest.raises(ValueError, match="degree"):
        cheb_plan(0, SpectralClass(1.0, 2.0))


def _hat_operator(fem):
    """(Ahat values, dense Ahat) for the damped fixed-point operator I - omega A."""
    pattern, spec = fem.pattern, fem.spectral
    vals = -spec.omega * fem.matrix.values
    vals[pattern.diagonal_positions()] += 1.0
    dense = np.eye(pattern.n) - spec.omega * fem.matrix.to_dense()
    return vals, dense


def test_richardson_step_net_block_contract():
    fem = gen_laplacian(1, 4)
    pattern = fem.pattern
    n, eta = pattern.n, pattern.eta
    delta, z = 1e-6, 4.0
    step = richardson_step_net(pattern, delta, z)
    hat_vals, hat_dense = _hat_operator(fem)
    rng = np.random.default_rng(31)
    for _ in range(5):
        r = rng.normal(size=n)
        r *= rng.uniform(0.2, 1.0) * z / np.linalg.norm(r)
        c = rng.normal(size=n)
        out = evaluate(step, np.concatenate([hat_vals, r, c]))
        assert np.array_equal(out[:eta], hat_vals)
        assert np.linalg.norm(out[eta : eta + n] - hat_dense @ r) <= delta
        assert np.array_equal(out[eta + n :], r + c)


def test_richardson_step_net_zero_rhs_block_is_exact():
    pattern = tridiagonal_pattern(4)
    step = richardson_step_net(pattern, 1e-4, 2.0)
    A = random_operator(pattern, np.random.default_rng(5))
    c = np.random.default_rng(6).normal(size=4)
    out = evaluate(step, np.concatenate([A.values, np.zeros(4), c]))
    assert np.all(out[pattern.eta : pattern.eta + 4] == 0.0)


def test_clenshaw_step_net_block_contract():
    pattern = tridiagonal_pattern(4)
    n, eta = pattern.n, pattern.eta
    delta, z, alpha_bar = 1e-7, 5.0, 0.625
    step = clenshaw_step_net(pattern, alpha_bar, delta, z)
    rng = np.random.default_rng(41)
    B = random_operator(pattern, rng)
    for _ in range(5):
        b1 = rng.normal(size=n)
        b2 = rng.normal(size=n)
        rh = rng.normal(size=n) * 0.1
        out = evaluate(step, np.concatenate([B.values, b1, b2, rh]))
        want_mid = alpha_bar * rh + 2.0 * (B.to_dense() @ b1) - b2
        assert np.array_equal(out[:eta], B.values)
        assert np.linalg.norm(out[eta : eta + n] - want_mid) <= delta + 1e-12
        assert np.array_equal(out[eta + n : eta + 2 * n], b1)
        assert np.array_equal(out[eta + 2 * n :], rh)


def test_clenshaw_step_net_is_exact_when_matvec_vanishes():
    pattern = tridiagonal_pattern(3)
    n, eta = pattern.n, pattern.eta
    alpha_bar = 0.375
    step = clenshaw_step_net(pattern, alpha_bar, 1e-6, 3.0)
    rng = np.random.default_rng(43)
    B = random_operator(pattern, rng)
    b2 = rng.normal(size=n)
    rh = rng.normal(size=n)
    out = evaluate(step, np.concatenate([B.values, np.zeros(n), b2, rh]))
    assert np.array_equal(out[eta : eta + n], alpha_bar * rh - b2)


def test_clenshaw_step_net_rejects_unnormalized_coefficient():
    with pytest.raises(ValueError, match="normalized coefficient"):
        clenshaw_step_net(tridiagonal_pattern(3), 1.5, 1e-3, 1.0)


@pytest.mark.parametrize("dim, N", [(1, 4), (1, 16), (2, 3)])
def test_step_weights_are_closed_form_in_the_matvec_depth(dim, N):
    # beside a matvec of depth d, the eta identity channels cost 2 d eta
    # weights, Richardson's carry [I, I] 2 d n + 2n and cg's carry I_3n 6 d n;
    # d runs from 3 to 14 over these cases
    pattern = gen_laplacian(dim, N).pattern
    n, eta = pattern.n, pattern.eta
    for delta in (0.5, 1e-2, 1e-6):
        mv = sparse_matvec_net(pattern, delta, 1.0)
        d = mv.depth
        assert stats(richardson_step_net(pattern, delta, 1.0)).weights == (
            stats(mv).weights + 2 * d * (eta + n) + 2 * n
        )
        mv = sparse_matvec_net(pattern, delta, 1.0, scale=2.0)
        d = mv.depth
        assert stats(_clenshaw_body(pattern, mv)).weights == (
            stats(mv).weights + 2 * d * (eta + 3 * n)
        )


def _step_levels(meta):
    """Each step's saw level in the order the steps run, from the [level, count] runs."""
    return [s for s, count in meta["levels"] for _ in range(count)]


def _step_starts(levels):
    """The position of each step's first layer: the rescale layer, then s + 2 layers a step."""
    return (1 + np.cumsum([0] + [s + 2 for s in levels])).tolist()


@pytest.mark.parametrize("method", ["richardson", "cg"])
def test_build_shares_one_step_body(method):
    # every step runs one stack, the deepest body's first layer and saw
    # levels 1..s, as the same objects; a cg step's fused last layer is its
    # own, and Richardson steps with one end ratio share one last layer
    fem = gen_laplacian(1, 16 if method == "richardson" else 32)
    build = build_richardson_net if method == "richardson" else build_cg_net
    net = build(fem.pattern, fem.spectral, SolverConfig(method, 0.1 if method == "richardson" else 0.02))
    meta = net.metadata
    m, levels = meta["m"], _step_levels(meta)
    s_max = max(levels)
    assert len(levels) == m and len(set(levels)) > 1
    starts = _step_starts(levels)
    assert starts[-1] + 1 == net.depth
    deepest = starts[levels.index(s_max)]
    for at, s in zip(starts, levels):
        assert all(net.layers[at + t] is net.layers[deepest + t] for t in range(s + 1))
    distinct = len({id(layer) for layer in net.layers})
    if method == "richardson":
        _, Z, _, _ = _richardson_lemma(fem.pattern, fem.spectral, meta)
        ratios = _richardson_ratios(Z)
        ends = {}
        for at, s, r in zip(starts, levels, ratios):
            ends.setdefault(r, set()).add(id(net.layers[at + s + 1]))
        assert len(ends) > 1 and all(len(objects) == 1 for objects in ends.values())
        assert len(set().union(*ends.values())) == len(ends)
        # the rescale and output layers, the merged first layer, the saw
        # levels and the split end, and one split end per ratio but 1
        assert distinct <= s_max + 4 + len(set(ratios) - {1.0})
        step = richardson_step_net(fem.pattern, meta["delta"], meta["z"])
    else:
        assert distinct <= s_max + 2 + m + 2
        step = clenshaw_step_net(fem.pattern, 1.0, meta["delta"], meta["z"])
    # the recorded delta and z build the deepest body
    assert step.depth == s_max + 2


def _same_layer(a, b) -> bool:
    return a.weight.shape == b.weight.shape and all(
        np.array_equal(x, y)
        for x, y in zip((a.weight.data, a.weight.indices, a.weight.indptr, a.bias),
                        (b.weight.data, b.weight.indices, b.weight.indptr, b.bias))
    )


@pytest.mark.parametrize("dim, N", [(1, 8), (2, 4)])
def test_a_shallower_body_is_the_deepest_stack_and_its_own_end(dim, N):
    # a Clenshaw body built alone at level s equals, bit for bit, the deepest
    # body's first s + 1 layers followed by the deepest body's own last layer
    pattern = gen_laplacian(dim, N).pattern
    deepest = _clenshaw_body(pattern, sparse_matvec_net_at(pattern, 7, 1.0, 2.0))
    assert deepest.depth == 7 + 2
    for s in (1, 4, 7):
        alone = _clenshaw_body(pattern, sparse_matvec_net_at(pattern, s, 1.0, 2.0))
        layers = deepest.layers[: s + 1] + deepest.layers[-1:]
        assert len(layers) == alone.depth == s + 2
        assert all(_same_layer(got, want) for got, want in zip(layers, alone.layers))


def test_clenshaw_step_net_is_built_as_the_cg_builder_builds_its_steps():
    # the step the acceptance gate checks and the steps the network ships
    # come from one construction, _fused_step on the deepest body; inside
    # the net, pipeline reads a step's first layer through pair merges and
    # splits its last
    fem = gen_laplacian(1, 32)
    pattern, spec, config = fem.pattern, fem.spectral, SolverConfig("cg", 0.02)
    net = build_cg_net(pattern, spec, config)
    meta = net.metadata
    levels = _step_levels(meta)
    s_max = max(levels)
    starts = _step_starts(levels)
    deepest = starts[levels.index(s_max)]
    plan = cheb_plan(meta["m"], spec)
    c = plan.coeffs[-2]
    step = clenshaw_step_net(pattern, c, meta["delta"], meta["z"])
    assert step.depth == s_max + 2
    assert _same_layer(_merge_first(step.layers[0]), net.layers[deepest])
    assert all(_same_layer(got, want)
               for got, want in zip(step.layers[1 : s_max + 1], net.layers[deepest + 1 : deepest + s_max + 1]))
    body = _clenshaw_body(pattern, sparse_matvec_net_at(pattern, s_max, meta["z"], 2.0))
    end = _clenshaw_end(pattern, 1.0, c, 1.0)
    assert _same_layer(step.layers[-1], _fused_step(body, s_max, end).layers[-1])
    # and each shipped step ends in C times the body's end at the lemma's
    # ratios Z_{k+1} / Z_k, c_k / Z_k and Z_{k+2} / Z_k, to the rounding of
    # the lemma's own sums
    _, Z, scheduled, _ = _cg_lemma(pattern, spec, meta)
    for at, k in zip(starts, range(meta["m"] - 1, -1, -1)):
        s = scheduled[k]
        end = _clenshaw_end(pattern, Z[k + 1] / Z[k], plan.coeffs[k] / Z[k], Z[k + 2] / Z[k])
        want = _split_layer(_fused_step(body, s, end).layers[-1])
        got = net.layers[at + s + 1]
        assert np.array_equal(got.weight.indptr, want.weight.indptr)
        assert np.array_equal(got.weight.indices, want.weight.indices)
        assert np.allclose(got.weight.data, want.weight.data, rtol=1e-12, atol=0.0)
        assert np.allclose(got.bias, want.bias, rtol=1e-12, atol=0.0)


def test_richardson_step_net_is_the_deepest_step_the_builder_ships():
    # the acceptance gate's step, built from the recorded delta and z, is a
    # deepest step of end ratio 1 inside the net byte for byte: its first
    # layer as pipeline reads it through pair merges, its saw levels, and
    # its last layer as pipeline splits it
    fem = gen_laplacian(1, 16)
    pattern = fem.pattern
    net = build_richardson_net(pattern, fem.spectral, SolverConfig("richardson", 0.1))
    meta = net.metadata
    levels = _step_levels(meta)
    s_max = max(levels)
    starts = _step_starts(levels)
    _, Z, _, _ = _richardson_lemma(pattern, fem.spectral, meta)
    ratios = _richardson_ratios(Z)
    deepest = next(at for at, s, r in zip(starts, levels, ratios) if s == s_max and r == 1.0)
    step = richardson_step_net(pattern, meta["delta"], meta["z"])
    assert step.depth == s_max + 2
    assert _same_layer(_merge_first(step.layers[0]), net.layers[deepest])
    assert all(_same_layer(got, want)
               for got, want in zip(step.layers[1 : s_max + 1], net.layers[deepest + 1 : deepest + s_max + 1]))
    end = _split_layer(step.layers[-1])
    assert _same_layer(end, net.layers[deepest + s_max + 1])
    # every other step ends in that end with its v and c rows, each a
    # (+, -) pair, times the step's ratio Z_j / Z_{j+1}
    assert set(ratios) - {1.0}
    for at, s, r in zip(starts, levels, ratios):
        rows = np.repeat(np.concatenate([np.ones(pattern.eta), np.full(2 * pattern.n, r)]), 2)
        got = net.layers[at + s + 1]
        assert np.array_equal(got.weight.indptr, end.weight.indptr)
        assert np.array_equal(got.weight.indices, end.weight.indices)
        per_entry = np.repeat(rows, np.diff(end.weight.indptr))
        assert np.array_equal(got.weight.data, end.weight.data * per_entry)
        assert np.array_equal(got.bias, end.bias * rows)


def _bound_cases():
    """(label, pattern, matrix, class): two Laplacians and two random_spd draws."""
    for d, N in ((1, 16), (2, 4)):
        fem = gen_laplacian(d, N)
        yield f"laplacian{d}d", fem.pattern, fem.matrix, fem.spectral
    for seed, (d, N, Lam) in enumerate(((1, 16, 100.0), (2, 4, 30.0))):
        pattern, spec = gen_laplacian(d, N).pattern, SpectralClass(1.0, Lam)
        yield f"random_spd{d}d", pattern, random_spd(pattern, spec, seed), spec


BOUND_CASES = {label: case for label, *case in _bound_cases()}


@pytest.mark.parametrize("method", ["richardson", "cg"])
@pytest.mark.parametrize("label", sorted(BOUND_CASES))
def test_matvec_input_stays_within_z_at_maximal_scale(label, method):
    # c_sc at its admissible maximum and +-extreme eigenvectors of A as rhs;
    # the built net is stepped along its recorded levels, and each matvec
    # input, Richardson's v_j / Z_j and cg's b_next / Z_{k+1}, must be within 1
    pattern, A, spec = BOUND_CASES[label]
    n, eta = pattern.n, pattern.eta
    kappa, eps = spec.kappa, 0.1
    c_sc = (1.0 + kappa) / 2.0 if method == "richardson" else kappa
    build = build_richardson_net if method == "richardson" else build_cg_net
    net = build(pattern, spec, SolverConfig(method, eps, c_sc))
    meta = net.metadata
    m = meta["m"]
    _, V = np.linalg.eigh(A.to_dense())
    rhs = c_sc * spec.lam * np.column_stack([V[:, 0], -V[:, 0], V[:, -1], -V[:, -1]])
    diag = pattern.diagonal_positions()

    def gap(state, block, exact):
        rows = state[eta + block * n : eta + (block + 1) * n]
        return float(np.linalg.norm(rows - exact, axis=0).max())

    # the net runs segment by segment: the rescale layer, each step's s + 2
    # layers and the output layer; a segment's last layer emits every state
    # value as a (+, -) pair
    starts = _step_starts(_step_levels(meta))
    inputs = np.vstack([np.repeat(A.values[:, None], 4, axis=1), rhs])
    out = evaluate(ReluNetwork(net.layers[:1]), inputs)
    if method == "richardson":
        _, Z, _, errors = _richardson_lemma(pattern, spec, meta)
        weights = np.minimum(np.arange(m, 0, -1), (1.0 + kappa) / 2.0)
        # step j ends at scale Z_{j+1}, the last step at its own
        ends_at = np.append(Z[1:], Z[-1])
        # v_{k+1} is off by at most the errors Z_j E(s_j) of the matvecs so
        # far, and c_{k+1} = sum_{l<=k} v_l by the sum of its terms' bounds
        reach_v = np.cumsum(errors)
        reach_c = np.concatenate([[0.0], np.cumsum(reach_v)])
        # the exact iteration starts from the rescale's B^v = I - omega A and
        # v_0 / Z_0 = (omega / Z_0) r
        first = out[0::2]
        b_vals = (-meta["omega"]) * A.values
        b_vals[diag] += 1.0
        assert np.array_equal(first[:eta, 0], b_vals)
        B = SparseMatrix(pattern, b_vals).to_dense()
        v, c = meta["omega"] * rhs, np.zeros_like(rhs)
        assert np.allclose(Z[0] * first[eta : eta + n], v, rtol=1e-14, atol=1e-16)
        for k, (at, end) in enumerate(zip(starts, starts[1:])):
            before = out[0::2]
            assert float(np.linalg.norm(before[eta : eta + n], axis=0).max()) <= 1.0
            out = evaluate(ReluNetwork(net.layers[at:end]), np.maximum(out, 0.0))
            # the state's blocks at the step's end scale, read back exactly
            # as Z is a power of two
            state = ends_at[k] * out[0::2]
            v, c = B @ v, v + c
            assert gap(state, 0, v) <= reach_v[k]
            assert gap(state, 1, c) <= reach_c[k]
        # the output reads x = Z_{m-1} (v_m / Z_{m-1} + c_m / Z_{m-1}), off
        # by at most the lemma's weighted sum of the errors
        x = evaluate(ReluNetwork(net.layers[starts[-1] :]), np.maximum(out, 0.0))
        x_gap = float(np.linalg.norm(x - (v + c), axis=0).max())
        assert x_gap <= float(weights @ errors) * (1.0 + 1e-9)
    else:
        plan = cheb_plan(m, spec)
        _, Z, _, errors = _cg_lemma(pattern, spec, meta)
        # b_k is off by at most sum_{j>=k} (j - k + 1) Z_{j+1} E(s_j)
        reach = [sum((j - k + 1) * errors[j] for j in range(k, m)) for k in range(m)]
        b_vals = (-2.0 * kappa / (kappa - 1.0) / spec.Lam) * A.values
        b_vals[diag] += plan.sigma0
        B = SparseMatrix(pattern, b_vals).to_dense()
        rhat = (1.0 / spec.Lam) * rhs
        b_next, b_nn = np.zeros_like(rhs), np.zeros_like(rhs)
        for k, at, end in zip(range(m - 1, -1, -1), starts, starts[1:]):
            before = out[0::2]
            assert float(np.linalg.norm(before[eta : eta + n], axis=0).max()) <= 1.0
            out = evaluate(ReluNetwork(net.layers[at:end]), np.maximum(out, 0.0))
            state = out[0::2]
            b_next, b_nn = plan.coeffs[k] * rhat + 2.0 * (B @ b_next) - b_nn, b_next
            assert gap(Z[k] * state, 0, b_next) <= reach[k]
            assert np.array_equal(state[eta + n : eta + 2 * n], before[eta : eta + n])
        # the output reads x = final_scale Z_0 (b_0 / Z_0)
        x = evaluate(ReluNetwork(net.layers[starts[-1] :]), np.maximum(out, 0.0))
        x_gap = float(np.linalg.norm(x - meta["final_scale"] * b_next, axis=0).max())
        assert x_gap <= abs(meta["final_scale"]) * reach[0] * (1.0 + 1e-9)


def _richardson_lemma(pattern, spec, meta):
    """The Richardson lemma recomputed from a build's metadata.

    Returns the truncation, Z_0 .. Z_{m-1} (the power-of-two bound on v_j
    that matvec j reads v_j at, g0 rho^j plus the errors before j rounded
    up), levels[j] (the level of matvec j, in the order the steps run) and
    errors[j] = Z_j E(s_j), that matvec's error bound in v_{j+1}, with E the
    certified error of a normalized matvec.
    """
    m, eps, c_sc, kappa = meta["m"], meta["epsilon"], meta["c_sc"], meta["kappa"]
    rho = (kappa - 1.0) / (kappa + 1.0)
    truncation = rho ** (m + 1) * c_sc
    Z = []
    for j in range(m):
        drift = (eps - truncation) / min(m - j + 1, (1.0 + kappa) / 2.0)
        mant, exp = math.frexp(2.0 * c_sc / (1.0 + kappa) * rho**j + drift)
        Z.append(math.ldexp(1.0, exp - (mant == 0.5)))
    levels = _step_levels(meta)
    errors = np.array([Z[j] * sparse_matvec_error(pattern, s, 1.0, 1.0) for j, s in enumerate(levels)])
    return truncation, np.array(Z), levels, errors


def _richardson_ratios(Z):
    """Each step's end ratio Z_j / Z_{j+1}; the last step keeps its scale."""
    return (Z / np.append(Z[1:], Z[-1])).tolist()


def _cg_lemma(pattern, spec, meta):
    """The cg lemma recomputed from a build's metadata.

    Returns the truncation, Z_0 .. Z_{m+1}, levels[k] (the level of the
    matvec that makes b_k) and errors[k] = Z_{k+1} E(s_k), that matvec's
    error bound in b_k, with E the certified error of a normalized matvec.
    """
    m, eps, c_sc, kappa = meta["m"], meta["epsilon"], meta["c_sc"], meta["kappa"]
    coeffs = cheb_plan(m, spec).coeffs
    truncation = c_sc / math.cosh(m * math.acosh(meta["sigma0"]))
    S = [sum(coeffs[j] * (j - k + 1) for j in range(k, m)) for k in range(m + 2)]
    Z = [c_sc / kappa * S_k + (eps - truncation) / abs(meta["final_scale"]) for S_k in S]
    levels = _step_levels(meta)[::-1]
    errors = [Z[k + 1] * sparse_matvec_error(pattern, levels[k], 1.0, 2.0) for k in range(m)]
    return truncation, Z, levels, errors


def _budget_cases():
    """(pattern, class): criterion 04's Laplacians, laplacian2d N in {3, 4, 8}
    and the random problem's pattern and class."""
    for d, sizes in ((1, (8, 16, 32)), (2, (3, 4, 8))):
        for N in sizes:
            fem = gen_laplacian(d, N)
            yield fem.pattern, fem.spectral
    yield gen_laplacian(1, 8).pattern, SpectralClass(1.0, 100.0)


@pytest.mark.parametrize("method", ["richardson", "cg"])
def test_truncation_plus_arithmetic_budget_stays_within_eps(method):
    # the solvers lemmas, recomputed from each build's metadata: the truncation
    # plus every matvec's error times the weight it reaches x with is at
    # most eps, and the greedy schedule took off every stage it could
    build = build_richardson_net if method == "richardson" else build_cg_net
    for pattern, spec in _budget_cases():
        c_max = (1.0 + spec.kappa) / 2.0 if method == "richardson" else spec.kappa
        for eps in (0.5, 0.1, 0.02):
            for c_sc in (1.0, c_max):
                meta = build(pattern, spec, SolverConfig(method, eps, c_sc)).metadata
                m, kappa = meta["m"], meta["kappa"]
                assert meta["delta"] > 0.0 and meta["z"] == 1.0
                if method == "richardson":
                    truncation, _, levels, errors = _richardson_lemma(pattern, spec, meta)
                    terms = [min(m - j, (1.0 + kappa) / 2.0) * errors[j] for j in range(m)]
                else:
                    truncation, _, levels, errors = _cg_lemma(pattern, spec, meta)
                    terms = [abs(meta["final_scale"]) * (k + 1) * errors[k] for k in range(m)]
                assert len(levels) == m
                assert meta["delta"] == sparse_matvec_error(
                    pattern, max(levels), 1.0, 1.0 if method == "richardson" else 2.0
                )
                # the slack covers the rounding of the two sides' arithmetic
                spent = truncation + sum(terms)
                assert spent <= eps * (1.0 + 1e-9)
                # the schedule stopped: a stage fewer on any matvec would
                # quadruple its term and overspend
                assert all(
                    spent + 3.0 * term > eps * (1.0 - 1e-9)
                    for term, s in zip(terms, levels)
                    if s > 1
                )


def test_matvec_input_bound_never_exceeds_the_state_bound():
    # criterion 04's configurations: both methods' matvecs read z = 1;
    # Richardson's state bounds Z_j sit between the lemma's
    # g0 rho^j = 2 c_sc rho^j / (1 + kappa) and twice that plus eps, and cg's
    # state bounds Z_k between (c_sc/kappa) S_k and 3 m^2
    for n in (8, 16, 32):
        fem = gen_laplacian(1, n)
        spec = fem.spectral
        for eps in (0.5, 0.1, 0.02):
            meta = build_richardson_net(fem.pattern, spec, SolverConfig("richardson", eps)).metadata
            assert meta["z"] == 1.0
            _, Z, _, _ = _richardson_lemma(fem.pattern, spec, meta)
            decay = 2.0 / (1.0 + spec.kappa) * rho_alpha(spec, 1.0) ** np.arange(meta["m"])
            assert np.all(decay < Z) and np.all(Z < 2.0 * (decay + eps))
            meta = build_cg_net(fem.pattern, spec, SolverConfig("cg", eps)).metadata
            m, plan = meta["m"], cheb_plan(meta["m"], spec)
            assert meta["z"] == 1.0
            _, Z, _, _ = _cg_lemma(fem.pattern, spec, meta)
            S = [sum(plan.coeffs[j] * (j - k + 1) for j in range(k, m)) for k in range(m + 2)]
            assert len(Z) == m + 2
            assert all(S_k / spec.kappa <= Z_k <= 3 * m * m for S_k, Z_k in zip(S, Z))


@pytest.mark.parametrize("label", ["random_spd1d", "random_spd2d"])
def test_richardson_bounds_cover_the_decay_and_the_scheduled_errors(label):
    # at maximal c_sc, the computed v_j has norm at most g0 rho^j plus the
    # errors of the matvecs before j, which the schedule the greedy picked
    # keeps within budget / min(m - j + 1, (1 + kappa)/2); Z_j covers both
    pattern, _, spec = BOUND_CASES[label]
    kappa = spec.kappa
    c_sc = (1.0 + kappa) / 2.0
    for eps in (0.5, 0.1, 0.02):
        meta = build_richardson_net(pattern, spec, SolverConfig("richardson", eps, c_sc)).metadata
        _, Z, _, errors = _richardson_lemma(pattern, spec, meta)
        decay = 2.0 * c_sc / (1.0 + kappa) * rho_alpha(spec, 1.0) ** np.arange(meta["m"])
        before = np.concatenate([[0.0], np.cumsum(errors)[:-1]])
        assert np.all(Z >= decay + before)
        # each Z_j is a power of two, and steps change scale by at most 2
        assert np.array_equal(np.frexp(Z)[0], np.full(meta["m"], 0.5))
        assert set(_richardson_ratios(Z)) <= {0.5, 1.0, 2.0}


@pytest.mark.parametrize("method,builder", [("richardson", build_richardson_net), ("cg", build_cg_net)])
def test_builders_meet_the_accuracy_contract(method, builder):
    fem = gen_laplacian(1, 8)
    eps = 0.5
    net = builder(fem.pattern, fem.spectral, SolverConfig(method, eps, 1.0))
    A = fem.matrix.to_dense()
    for k in range(5):
        r = random_rhs(fem.n, 1.0, fem.spectral.lam, 90 + k)
        out = evaluate(net, np.concatenate([fem.matrix.values, r]))
        assert np.linalg.norm(out - solve_exact(A, r)) <= eps
    zero = evaluate(net, np.concatenate([fem.matrix.values, np.zeros(fem.n)]))
    assert np.all(zero == 0.0)


def test_builders_freeze_step_counts_in_metadata():
    fem = gen_laplacian(1, 8)
    ric = build_richardson_net(fem.pattern, fem.spectral, SolverConfig("richardson", 0.5))
    cg = build_cg_net(fem.pattern, fem.spectral, SolverConfig("cg", 0.5))
    assert ric.metadata["m"] == 23
    assert cg.metadata["m"] == 6
    for meta, extras in ((ric.metadata, ("omega",)), (cg.metadata, ("sigma0", "final_scale"))):
        for key in ("method", "n", "eta", "lambda", "Lambda", "epsilon", "c_sc", "m", "kappa") + extras:
            assert key in meta
    assert ric.metadata["n"] == 8 and ric.metadata["eta"] == 22


def test_builders_handle_identity_like_matrices():
    pattern = tridiagonal_pattern(4)
    vals = np.zeros(pattern.eta)
    vals[pattern.diagonal_positions()] = 1.0
    spec = SpectralClass(1.0, 2.0)
    r = np.array([1.0, 0.0, 0.0, 0.0])  # lam * e_1 with lam = 1
    for method, builder in (("richardson", build_richardson_net), ("cg", build_cg_net)):
        net = builder(pattern, spec, SolverConfig(method, 0.3))
        out = evaluate(net, np.concatenate([vals, r]))
        assert np.linalg.norm(out - r) <= 0.3


def test_builders_short_circuit_unit_condition_number():
    pattern = tridiagonal_pattern(3)
    spec = SpectralClass(2.0, 2.0)
    vals = np.zeros(pattern.eta)
    vals[pattern.diagonal_positions()] = 2.0
    r = np.array([4.0, -2.0, 6.0])
    for method, builder in (("richardson", build_richardson_net), ("cg", build_cg_net)):
        net = builder(pattern, spec, SolverConfig(method, 0.1))
        assert net.depth == 1
        assert net.metadata["m"] == 0
        assert np.array_equal(evaluate(net, np.concatenate([vals, r])), r / 2.0)


def test_builders_reject_bad_configurations():
    fem = gen_laplacian(1, 4)
    with pytest.raises(ValueError, match="must be 'richardson'"):
        build_richardson_net(fem.pattern, fem.spectral, SolverConfig("cg", 0.1))
    with pytest.raises(ValueError, match="must be 'cg'"):
        build_cg_net(fem.pattern, fem.spectral, SolverConfig("richardson", 0.1))
    gapped = pattern_of([(1,), (0,)])
    with pytest.raises(ValueError, match="diagonal"):
        build_richardson_net(gapped, fem.spectral, SolverConfig("richardson", 0.1))
    with pytest.raises(ValueError, match="admissible bound"):
        build_richardson_net(
            fem.pattern, SpectralClass(1.0, 2.0), SolverConfig("richardson", 0.1, 10.0)
        )


def test_scalar_reciprocal_instance():
    pattern = pattern_of([(0,)])
    spec = SpectralClass(0.5, 2.0)
    net = build_cg_net(pattern, spec, SolverConfig("cg", 0.05))
    for a in (0.5, 0.8, 1.3, 2.0):
        out = evaluate(net, np.array([a, 0.5 * 0.9]))
        assert abs(out[0] - 0.45 / a) <= 0.05


# an arrow: row 0 reads every column, row i > 0 only (0, i), so chi runs 2..7
ARROW = pattern_of([tuple(range(7))] + [(0, i) for i in range(1, 7)])


def _size_problem(kind, N):
    """(pattern, spectral class) of a Plan.size() case."""
    if kind == "arrow":
        # the random problem's bracket, which random_spd draws matrices inside
        return ARROW, SpectralClass(1.0, 100.0)
    if kind == "random":
        return gen_laplacian(1, N).pattern, SpectralClass(1.0, 100.0)
    if kind == "kappa1":
        return tridiagonal_pattern(N), SpectralClass(2.0, 2.0)
    fem = gen_laplacian(1 if kind == "laplacian1d" else 2, N)
    return fem.pattern, fem.spectral


SIZE_CASES = (
    # criterion 04's configs
    [("laplacian1d", N, eps, method, "1") for N in (8, 16, 32) for eps in (0.5, 0.1, 0.02)
     for method in METHODS]
    + [("laplacian2d", N, 0.1, method, "1") for N in (3, 4, 8) for method in METHODS]
    + [case for method in METHODS for case in (
        ("laplacian1d", 16, 0.1, method, "max"),
        ("laplacian2d", 4, 0.1, method, "max"),
        ("random", 16, 0.1, method, "1"),
        ("kappa1", 5, 0.1, method, "1"),
        ("arrow", 7, 0.5, method, "1"),
        ("arrow", 7, 0.1, method, "max"),
    )]
)


@pytest.mark.parametrize("kind, N, eps, method, c_sc", SIZE_CASES,
                         ids=["-".join(map(str, case)) for case in SIZE_CASES])
def test_plan_size_is_the_stats_of_the_net_it_assembles(kind, N, eps, method, c_sc):
    pattern, spec = _size_problem(kind, N)
    limit = (1.0 + spec.kappa) / 2.0 if method == "richardson" else spec.kappa
    planned = plan(pattern, spec, SolverConfig(method, eps, 1.0 if c_sc == "1" else limit))
    assert planned.size() == stats(_assemble(planned))


def test_plan_size_follows_edited_levels():
    # a plan with other levels assembles to the net its size() counts
    fem = gen_laplacian(1, 8)
    for method in METHODS:
        planned = plan(fem.pattern, fem.spectral, SolverConfig(method, 0.1))
        edited = dataclasses.replace(planned, levels=tuple(1 + k % 3 for k in range(planned.m)))
        assert edited.size() == stats(_assemble(edited))
        assert edited.size().depth == 2 + sum(s + 2 for s in edited.levels)


def test_plan_makes_no_layer(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("plan made a layer")

    for name in ("Layer", "ReluNetwork", "make_layer", "pipeline", "parallelize_shared",
                 "affine_net", "sparse_matvec_net", "sparse_matvec_net_at"):
        monkeypatch.setattr(solvers, name, refuse)
    monkeypatch.setattr(solvers, "sp", None)
    fem = gen_laplacian(1, 16)
    for method in METHODS:
        planned = plan(fem.pattern, fem.spectral, SolverConfig(method, 0.1))
        assert planned.m == len(planned.levels) == len(planned.ends) > 1
        assert plan(fem.pattern, SpectralClass(2.0, 2.0), SolverConfig(method, 0.1)).m == 0


def test_audit_complexity_frozen_arithmetic():
    from relusolve.calculus import identity_net

    rec = audit_complexity(identity_net(2, 6), m=4, eps=0.25, n=4, eta=1)
    assert isinstance(rec, AuditRecord)
    assert rec.depth == 6 and rec.weights == 24
    assert rec.denom == 24.0
    assert rec.ratio_L == 0.25
    assert rec.ratio_M == 1.0
    with pytest.raises(ValueError, match="m >= 1"):
        audit_complexity(identity_net(2, 2), m=0, eps=0.5, n=2, eta=1)
