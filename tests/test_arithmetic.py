"""Certified error bounds and exact-zero structure of the product nets."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import diagonal_pattern, pattern_of, random_operator, tridiagonal_pattern
from oracles import clamped_square
from relusolve.arithmetic import (
    SparseMatrix,
    SparsityPattern,
    mult_net,
    saw_levels,
    scalar_product_net,
    sparse_matvec_error,
    sparse_matvec_net,
    sparse_matvec_net_at,
    square_net,
)
from relusolve.network import ReluNetwork, evaluate, network_to_dict, stats


def assert_product_net_size(net, terms, s):
    """A bank of `terms` product terms at refinement level s, in closed form.

    Depth: the input layer, s saw stages and the summation.  A term stores 8
    input weights, 14 in saw stage 1 (12 weights, 2 biases), 16 in each later
    stage (14 weights, 2 biases) and 6 summation weights: 16 s + 12.  Its
    neurons are the input layer's 4 and 6 a stage, two chains of (n1, n2, c).
    """
    assert net.depth == s + 2
    assert stats(net).weights == terms * (16 * s + 12)
    assert stats(net).neurons == terms * (6 * s + 4)


def test_pattern_shape_helpers():
    pat = tridiagonal_pattern(4)
    assert pat.n == 4
    assert list(pat.indptr) == [0, 2, 5, 8, 10]
    assert list(pat.indices) == [0, 1, 0, 1, 2, 1, 2, 3, 2, 3]
    assert pat.eta == 10
    assert pat.chi_max == 3
    assert list(pat.row_of()) == [0, 0, 1, 1, 1, 2, 2, 2, 3, 3]
    # position 7 is (2, 3) and its transpose (3, 2) is position 8
    assert list(pat.transpose_positions()) == [0, 2, 1, 3, 5, 4, 6, 8, 7, 9]
    assert pat.is_symmetric()
    assert list(pat.diagonal_positions()) == [0, 3, 6, 9]
    # the arrays cannot be written through the pattern
    assert not (pat.indptr.flags.writeable or pat.indices.flags.writeable)


def test_pattern_equality_and_hash():
    a = tridiagonal_pattern(3)
    b = tridiagonal_pattern(3)
    assert a == b
    assert a != diagonal_pattern(3)


def test_pattern_validation():
    with pytest.raises(ValueError, match="at least one row"):
        pattern_of([])
    with pytest.raises(ValueError, match="no admissible columns"):
        pattern_of([(0,), ()])
    with pytest.raises(ValueError, match="out of range"):
        pattern_of([(0, 2)])
    with pytest.raises(ValueError, match="strictly increasing"):
        pattern_of([(1, 0), (0, 1)])
    with pytest.raises(ValueError, match="indptr must rise from 0"):
        SparsityPattern([1, 2], [0, 0])
    with pytest.raises(ValueError, match="indptr must rise from 0"):
        SparsityPattern([0, 1], [0, 0])
    with pytest.raises(ValueError, match="indptr must rise from 0"):
        SparsityPattern([0, 2, 1], [0, 1])


def test_pattern_asymmetric_and_gapped_diagonal():
    pat = pattern_of([(0, 1), (1,)])
    assert not pat.is_symmetric()
    gapped = pattern_of([(1,), (0,)])
    with pytest.raises(ValueError, match="missing a diagonal"):
        gapped.diagonal_positions()


def test_sparse_matrix_round_trip_and_symmetry():
    pat = tridiagonal_pattern(3)
    vals = [2.0, -1.0, -1.0, 2.0, -1.0, -1.0, 2.0]
    A = SparseMatrix(pat, vals)
    dense = A.to_dense()
    assert np.array_equal(dense, np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], dtype=float))
    assert np.array_equal(A.to_csr().toarray(), dense)
    with pytest.raises(ValueError, match="expected 7 values"):
        SparseMatrix(pat, [1.0, 2.0])


@pytest.mark.parametrize("s,D", [(1, 1.0), (2, 1.0), (5, 1.0), (4, 4.0)])
def test_square_net_certificate(s, D):
    net = square_net(s, D)
    assert net.depth == s + 2
    bound = D * D * 2.0 ** (-2 * s - 2)
    # the grid's ends x = +-D put the stage input at |u| = 1, its domain's end
    xs = np.linspace(-D, D, 801)
    out = evaluate(net, xs[None, :])[0]
    # the grid can hit the exact-equality points of the interpolant, so leave
    # room for evaluation rounding
    assert np.max(np.abs(out - xs * xs)) <= bound + 1e-14 * D * D
    assert evaluate(net, [0.0])[0] == 0.0


@pytest.mark.parametrize("s", [1, 3, 6])
@pytest.mark.parametrize("D", [1.0, 3.0])
def test_square_net_is_the_clamped_sawtooth_bit_for_bit_on_its_domain(s, D):
    # the stage input is |x| / D in [0, 1], where the clamp relu(y - 1) is
    # +0.0, so the three-kind hat rounds as the clamped one; the grid holds
    # the hat's kinks 0, 1/2, 1 in u = x / D and in x, and both neighbours
    kinks = np.array([0.0, 0.5, 1.0, 0.5 * D, D])
    kinks = np.concatenate([kinks, np.nextafter(kinks, -np.inf), np.nextafter(kinks, np.inf)])
    grid = np.concatenate([kinks, -kinks, np.linspace(-D, D, 2001)])
    grid = grid[np.abs(grid) <= D]
    out = evaluate(square_net(s, D), grid[None, :])[0]
    assert out.tobytes() == clamped_square(grid, s, D).tobytes()
    # past the domain the clamp is live and the two differ
    outside = np.array([1.5 * D, -1.5 * D])
    assert not np.array_equal(evaluate(square_net(s, D), outside[None, :])[0],
                              clamped_square(outside, s, D))


@pytest.mark.parametrize("s", [1, 3, 6, 9, 12])
@pytest.mark.parametrize("D", [1.0, 3.0])
def test_scaled_hat_channels_are_the_unscaled_ones_down_to_tiny_inputs(s, D):
    # stage t's channels are the clamped hat's times 4^-t, exact while they
    # stay normal doubles: from 1e-300 D the stage-t input 2^(t-1) |x| / D
    # keeps its channel 2^(-t-1) |x| / D above 2^-1022 for every s <= 12
    rng = np.random.default_rng(s)
    tiny = np.logspace(-300, 0) * D
    grid = np.concatenate([tiny, -tiny, rng.uniform(-D, D, 2000)])
    out = evaluate(square_net(s, D), grid[None, :])[0]
    assert out.tobytes() == clamped_square(grid, s, D).tobytes()
    # below that a channel is subnormal and the scaling may round, within
    # the certificate
    sub = np.array([np.nextafter(0.0, 1.0), 1e-320, 1e-310, 2.2e-308]) * D
    sub = np.concatenate([sub, -sub])
    out = evaluate(square_net(s, D), sub[None, :])[0]
    assert np.all(np.abs(out - sub * sub) <= D * D * 4.0 ** (-s - 1))


def test_square_net_validation():
    with pytest.raises(ValueError, match="refinement level"):
        square_net(0)
    for D in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="domain bound must be finite and at least 1"):
            square_net(2, D)


@pytest.mark.parametrize("eps,D", [(1e-1, 1.0), (1e-2, 2.0)])
def test_mult_net_certificate(eps, D):
    net = mult_net(eps, D)
    # the fewest stages s with D^2 4^(-s-1) <= eps: 4^-2 <= 0.1 and
    # 4 * 4^-5 <= 0.01 < 4 * 4^-4
    assert_product_net_size(net, 1, {1.0: 1, 2.0: 4}[D])
    # the grid's corners (+-D, +-D) put one chain at |u| = |x + y| / (2D) = 1
    g = np.linspace(-D, D, 81)
    X, Y = np.meshgrid(g, g)
    inp = np.stack([X.ravel(), Y.ravel()])
    out = evaluate(net, inp)[0]
    assert np.max(np.abs(out - X.ravel() * Y.ravel())) <= eps


def test_mult_net_zero_lines_are_exact():
    net = mult_net(1e-2, 2.0)
    ys = np.linspace(-2.0, 2.0, 41)
    along_x = evaluate(net, np.stack([np.zeros_like(ys), ys]))[0]
    along_y = evaluate(net, np.stack([ys, np.zeros_like(ys)]))[0]
    assert np.all(along_x == 0.0)
    assert np.all(along_y == 0.0)


def test_mult_net_validation():
    with pytest.raises(ValueError, match="accuracy"):
        mult_net(1.5)
    # the bound is refused before the level rule sees its certificate
    for D in (0.25, math.inf, math.nan):
        with pytest.raises(ValueError, match="domain bound must be finite and at least 1"):
            mult_net(0.1, D)


@pytest.mark.parametrize("k,eps,z", [(1, 1e-2, 1.0), (3, 1e-3, 1.0), (8, 1e-2, 5.0)])
def test_scalar_product_net_certificate(k, eps, z):
    rng = np.random.default_rng(100 * k)
    net = scalar_product_net(k, eps, z)
    # the fewest stages s with k z 4^(-s-1) <= eps: 4^-4 <= 1e-2 < 4^-3,
    # 3 * 4^-6 <= 1e-3 < 3 * 4^-5 and 40 * 4^-6 <= 1e-2 < 40 * 4^-5
    assert_product_net_size(net, k, {1: 3, 3: 5, 8: 5}[k])
    for _ in range(20):
        x = rng.normal(size=k)
        x *= rng.uniform(0.1, 1.0) / np.linalg.norm(x)
        y = rng.normal(size=k)
        y *= rng.uniform(0.1, 1.0) * z / np.linalg.norm(y)
        out = evaluate(net, np.concatenate([y, x]))[0]
        assert abs(out - y @ x) <= eps


@pytest.mark.parametrize("k,eps,z", [(1, 1e-2, 1.0), (4, 1e-3, 1.0), (5, 1e-2, 3.0)])
def test_scalar_product_net_at_the_domain_boundary(k, eps, z):
    # x = e_i and y = +-z e_i put term i's chains at |u| = |y_i / (2z) + x_i / 2| = 1
    net = scalar_product_net(k, eps, z)
    eye = np.eye(k)
    for sign in (1.0, -1.0):
        y, x = sign * z * eye, eye
        out = evaluate(net, np.vstack([y, x]))[0]
        assert np.max(np.abs(out - sign * z)) <= eps
        assert np.all(evaluate(net, np.vstack([y, 0.0 * x]))[0] == 0.0)
        assert np.all(evaluate(net, np.vstack([0.0 * y, x]))[0] == 0.0)


def test_scalar_product_net_validation():
    with pytest.raises(ValueError, match="length"):
        scalar_product_net(0, 0.1)
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="accuracy"):
            scalar_product_net(2, eps)
    for z in (0.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="rhs bound must be finite and at least 1"):
            scalar_product_net(2, 0.1, z)


@pytest.mark.parametrize("scale", [1.0, 2.0, -0.5])
def test_sparse_matvec_net_certificate(scale):
    pat = tridiagonal_pattern(5)
    eps, z = 1e-3, 2.0
    net = sparse_matvec_net(pat, eps, z, scale)
    # the fewest stages s with sqrt(5) 3 |scale| 2 4^(-s-1) <= 1e-3: that is
    # 8.2e-4 at s = 6 for scale 1, 4.1e-4 at s = 7 for scale 2 and 4.1e-4 at
    # s = 6 for scale -0.5, and 4 times as much a stage less
    assert_product_net_size(net, pat.eta, {1.0: 6, 2.0: 7, -0.5: 6}[scale])
    rng = np.random.default_rng(17)
    for _ in range(15):
        A = random_operator(pat, rng)
        r = rng.normal(size=pat.n)
        r *= rng.uniform(0.1, 1.0) * z / np.linalg.norm(r)
        out = evaluate(net, np.concatenate([A.values, r]))
        assert np.linalg.norm(out - scale * (A.to_dense() @ r)) <= eps


def _ball(rng, dim: int, count: int, radius: float) -> np.ndarray:
    """count columns drawn in the radius ball, norms from 0.1 to 1 times radius."""
    v = rng.normal(size=(dim, count))
    return v * (rng.uniform(0.1, 1.0, count) * radius / np.linalg.norm(v, axis=0))


def assert_same_bytes(got, want):
    """Two networks whose stored arrays agree in keys, dtypes and bytes."""
    got, want = network_to_dict(got), network_to_dict(want)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key].dtype == value.dtype and got[key].tobytes() == value.tobytes(), key


def _product_net_cases(rng) -> dict:
    """name -> (level t -> net, level t -> certificate, admissible inputs, exact outputs).

    Each net comes from its public constructor at an accuracy twice its
    level-t certificate, which lies strictly between the certificates of
    levels t and t - 1.
    """
    D, k, z = 2.0, 4, 2.0
    x = rng.uniform(-D, D, size=(1, 200))
    xy = rng.uniform(-D, D, size=(2, 200))
    yx = np.vstack([_ball(rng, k, 200, z), _ball(rng, k, 200, 1.0)])
    return {
        "square_net": (lambda t: square_net(t, D), lambda t: D * D * 4.0 ** (-t - 1), x, x * x),
        "mult_net": (lambda t: mult_net(2.0 * D * D * 4.0 ** (-t - 1), D),
                     lambda t: D * D * 4.0 ** (-t - 1), xy, xy[:1] * xy[1:]),
        "scalar_product_net": (lambda t: scalar_product_net(k, 2.0 * k * z * 4.0 ** (-t - 1), z),
                               lambda t: k * z * 4.0 ** (-t - 1), yx, (yx[:k] * yx[k:]).sum(axis=0)),
    }


@pytest.mark.parametrize("name", ["square_net", "mult_net", "scalar_product_net"])
def test_a_shallower_product_net_is_a_deeper_ones_first_layers_and_its_last(name):
    # saw stage t holds its hat channels at scale 4^-t, so no layer but the
    # stage count depends on the level: the level-t net is the level-6 net's
    # first t + 1 layers and its last, byte for byte, and meets its certificate
    build, certificate, inputs, exact = _product_net_cases(np.random.default_rng(29))[name]
    top = build(6)
    for t in (1, 3, 6):
        alone = build(t)
        assert alone.depth == t + 2
        assert_same_bytes(ReluNetwork(top.layers[: t + 1] + top.layers[-1:]), alone)
        errors = np.linalg.norm(np.atleast_2d(evaluate(alone, inputs) - exact), axis=0)
        assert errors.max() <= certificate(t)


@pytest.mark.parametrize("scale", [2.0, -0.5])
def test_sparse_matvec_nets_share_one_stack_and_meet_their_certificates(scale):
    # the level-s matvec is the level-6 one's first s + 1 layers and its
    # last, byte for byte; it errs by at most sparse_matvec_error and is the
    # sparse_matvec_net that twice that error asks for, which lies strictly
    # between the level's certificate and the next shallower one's
    pat, z = tridiagonal_pattern(5), 2.0
    top = sparse_matvec_net_at(pat, 6, z, scale)
    rng = np.random.default_rng(29)
    for s in (1, 3, 6):
        net = sparse_matvec_net_at(pat, s, z, scale)
        assert_product_net_size(net, pat.eta, s)
        assert_same_bytes(ReluNetwork(top.layers[: s + 1] + top.layers[-1:]), net)
        err = sparse_matvec_error(pat, s, z, scale)
        assert_same_bytes(sparse_matvec_net(pat, 2.0 * err, z, scale), net)
        mats = [random_operator(pat, rng) for _ in range(20)]
        rs = _ball(rng, pat.n, 20, z)
        out = evaluate(net, np.vstack([np.column_stack([A.values for A in mats]), rs]))
        exact = scale * np.column_stack([A.to_dense() @ r for A, r in zip(mats, rs.T)])
        assert np.linalg.norm(out - exact, axis=0).max() <= err


def test_sparse_matvec_net_exact_zeros():
    pat = tridiagonal_pattern(4)
    net = sparse_matvec_net(pat, 1e-2, 1.0)
    rng = np.random.default_rng(23)
    A = random_operator(pat, rng)
    r = rng.normal(size=4)
    r /= 2.0 * np.linalg.norm(r)
    zero_rhs = evaluate(net, np.concatenate([A.values, np.zeros(4)]))
    zero_mat = evaluate(net, np.concatenate([np.zeros(pat.eta), r]))
    assert np.all(zero_rhs == 0.0)
    assert np.all(zero_mat == 0.0)


@pytest.mark.parametrize("pattern,scale", [(tridiagonal_pattern(5), 1.0),
                                           (tridiagonal_pattern(4), -2.5),
                                           (pattern_of([(0, 2), (1,), (0, 1, 2)]), 0.5)])
def test_sparse_matvec_net_at_the_domain_boundary(pattern, scale):
    # A = +-e_i e_j^T (||A||_2 = 1) and r = +-z e_j saturate row i's term
    # (i, j) at |a| = |b| = 1/2, so one of its chains reads |u| = 1
    eps, z = 1e-3, 2.0
    net = sparse_matvec_net(pattern, eps, z, scale)
    n, eta = pattern.n, pattern.eta
    rows, cols = pattern.row_of(), pattern.indices
    for a_sign in (1.0, -1.0):
        for r_sign in (1.0, -1.0):
            mats = a_sign * np.eye(eta)
            rhs = r_sign * z * np.eye(n)[:, cols]
            out = evaluate(net, np.vstack([mats, rhs]))
            want = np.zeros((n, eta))
            want[rows, np.arange(eta)] = scale * a_sign * r_sign * z
            assert np.max(np.linalg.norm(out - want, axis=0)) <= eps
            # every other row reads A^v = 0 or r = 0 and is exactly zero
            assert np.all(out[want == 0.0] == 0.0)
            assert np.all(evaluate(net, np.vstack([mats, 0.0 * rhs])) == 0.0)
            assert np.all(evaluate(net, np.vstack([0.0 * mats, rhs])) == 0.0)


def test_sparse_matvec_net_validation():
    pat = diagonal_pattern(2)
    for eps in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="accuracy"):
            sparse_matvec_net(pat, eps)
    with pytest.raises(ValueError, match="rhs bound"):
        sparse_matvec_net(pat, 0.1, 0.5)
    for z in (math.inf, math.nan):
        with pytest.raises(ValueError, match="rhs bound"):
            sparse_matvec_net(pat, 0.1, z)
    for scale in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="scale"):
            sparse_matvec_net(pat, 0.1, 1.0, scale)
    with pytest.raises(ValueError, match="refinement level"):
        sparse_matvec_net_at(pat, 0)
    with pytest.raises(ValueError, match="rhs bound"):
        sparse_matvec_net_at(pat, 2, 0.5)
    with pytest.raises(ValueError, match="scale"):
        sparse_matvec_net_at(pat, 2, 1.0, 0.0)


def _below(x: float, ulps: int) -> float:
    for _ in range(ulps):
        x = np.nextafter(x, 0.0)
    return x


def _level_cases():
    """(name, level s -> certificate, eps -> net) over several weights each.

    Level s errs by at most its level-1 certificate times 4^(1-s), exactly:
    every certificate is one rounded product scaled by a power of 4.
    """
    pat = tridiagonal_pattern(5)
    for D in (1.0, 1.7, 3.0):
        yield (f"mult_net D={D}", lambda s, D=D: D * D * 4.0 ** (-s - 1),
               lambda eps, D=D: mult_net(eps, D))
    for k, z in ((1, 1.0), (3, 2.5), (7, 1.3)):
        yield (f"scalar_product_net k={k} z={z}", lambda s, k=k, z=z: k * z * 4.0 ** (-s - 1),
               lambda eps, k=k, z=z: scalar_product_net(k, eps, z))
    for z, scale in ((1.0, 1.0), (2.0, 2.0), (1.3, -0.5)):
        yield (f"sparse_matvec_net z={z} scale={scale}",
               lambda s, z=z, scale=scale: sparse_matvec_error(pat, s, z, scale),
               lambda eps, z=z, scale=scale: sparse_matvec_net(pat, eps, z, scale))


@pytest.mark.parametrize("case", list(_level_cases()), ids=lambda case: case[0])
def test_product_nets_take_the_fewest_stages_whose_certificate_meets_eps(case):
    # at eps equal to level s's certificate the net has s stages, and a few
    # ulps below it one more: the level is never one whose certificate
    # exceeds eps, however close eps comes to a power-of-4 boundary
    _, certificate, build = case
    for s in range(1, 13):
        eps = certificate(s)
        if eps >= 1.0:
            continue
        assert build(eps).depth == s + 2
        for ulps in (1, 2, 5):
            assert build(_below(eps, ulps)).depth == s + 3


@pytest.mark.parametrize("m", [1, 56, 175])
def test_saw_levels_start_leaves_no_term_above_its_share(m):
    # a probe unit within a few ulps of share 4^k sits beside m - 1 fillers
    # whose terms start exactly at the share budget / m, so the budget has
    # no room to take a stage off any of them and the probe keeps its start
    # level: the fewest stages that bring its term to at most the share
    share = 2.0**-5
    budget = m * share
    for k in range(8):
        fillers = share * 4.0 ** (np.arange(m - 1) % 4)
        edge = share * 4.0**k
        probes = [_below(edge, ulps) for ulps in (3, 2, 1)] + [edge]
        probes += [np.nextafter(probes[-1], np.inf)]
        probes += [np.nextafter(probes[-1], np.inf), np.nextafter(probes[-1], np.inf)]
        for unit in probes:
            levels = saw_levels(np.concatenate([[unit], fillers]), budget)
            s = levels[0]
            assert unit * 4.0 ** (1 - s) <= share
            assert s == 1 or unit * 4.0 ** (2 - s) > share
            assert list(levels[1:]) == list(1 + np.arange(m - 1) % 4)


@pytest.mark.parametrize("m", [1, 56, 175])
def test_saw_levels_meet_the_budget_exactly_at_power_of_4_edges(m):
    # units within a few ulps of budget 4^k / m, where a share budget / m
    # rounded up or a running spare rounded up lets the terms overshoot
    for budget in (0.1, 0.37, 1e-3):
        for k in range(6):
            x = _below(budget * 4.0**k / m, 4)
            for _ in range(9):
                for unit in (np.full(m, x), np.where(np.arange(m) % 2, x, 1.37 * x)):
                    levels = saw_levels(unit, budget)
                    assert levels.min() >= 1
                    total = sum(Fraction(u) / 4 ** (int(s) - 1) for u, s in zip(unit.tolist(), levels))
                    assert total <= budget
                x = np.nextafter(x, np.inf)


def test_saw_levels_validation():
    # a negative budget would step the levels up forever, and an infinite
    # certificate would step them to underflow
    for budget in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="finite positive accuracy"):
            saw_levels([1.0], budget)
    for unit in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite certificates"):
            saw_levels([1.0, unit], 0.1)
    # a finite bound whose square overflows is refused by the rule
    with pytest.raises(ValueError, match="finite certificates"):
        mult_net(0.1, 1e200)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.floats(-1.0, 1.0, allow_nan=False))
def test_square_net_error_bound_property(s, u):
    net = square_net(s, 1.0)
    out = evaluate(net, [u])[0]
    assert abs(out - u * u) <= 2.0 ** (-2 * s - 2) + 1e-15
