"""End-to-end ReLU solver networks for sparse SPD systems.

A solver net is built in two parts, plan and then assemble.
plan(pattern, spec, config) runs the checks and computes the net's
numbers without making a layer: the step count m, each step's saw level in
the order the steps run, each step's end map as data, the matvec's scale,
the numbers of the rescale and output layers, and the metadata; m == 0 is
the exact affine net of kappa == 1, the output layer alone.  Plan.size()
counts the assembled net's layers, weights and neurons from those numbers
in closed form.  _assemble(plan) makes the layers: an exact affine rescale
layer, m step networks chained by sparse concatenation, and an exact affine
output layer, and both builders are _assemble(plan(...)).  The rescale
writes B^v = b_diag I + b_scale A over the pattern and r_scale r at state
offset r_at; the output reads x_scale times the sum of the n-blocks at the
offsets x_at.  Each method's branch of plan sets only those numbers, m, the
matvec budget, each matvec's error weight in the order the steps run, its
end maps and its metadata extras: Richardson's B^v = I - omega A,
r_scale = omega / Z_0 and x = Z_{m-1} (c/Z_{m-1} + v/Z_{m-1}), with end
ratios Z_j / Z_{j+1}; cg's B^v = sigma0 I - (slope/Lam) A, r_scale = 1/Lam
and x = final_scale Z_0 (b_0 / Z_0), with end triples (w_scale, alpha,
nn_scale).  The levels come from one rule for both.

Both steps share one body: identity channels on the matrix values, a
matvec, and an exact affine carry beside them, each carried to the matvec's
depth by parallelize_shared.  The Richardson body maps (B^v, v, c) to
(B^v, B v, v + c) with the carry [I, I]; the cg-type body feeds the Clenshaw
recurrence b_k = alpha_k r + 2 B b_next - b_nextnext against the Chebyshev
coefficients of the optimal solver polynomial, with identity carries and a
combination C, each step's end map, fused into the body's last layer.
_assemble builds the deepest body once: a step at level s runs its first layer
and saw levels 1..s, then the body's own end or its end map times it:
arithmetic holds saw stage t's hat channels at scale 4^-t, exact by ReLU's
positive homogeneity while they stay normal doubles (they round by a few
2^-1074 only where |u| < 2^(s+1) 2^-1022), so one end serves every level.
Each distinct end map is fused once, so the m steps share every layer but
their ends: a Richardson end scales the v and c rows by a power of two, one
layer per ratio, and every cg end is its own.  Both networks take the
concatenation (A^v, r) of matrix values and right-hand side as input and
approximate A^{-1} r to the configured accuracy.

Each matvec is built at an accuracy for inputs of norm at most a bound; a
looser accuracy or a smaller bound means fewer sawtooth stages.  Both come
from how a matvec error reaches the output:

Lemma (Richardson).  The m steps map (v, c) to (B v, v + c) from
v_0 = omega r, c_0 = 0, and the output reads x = c + v = sum_{k<=m} v_k.
validate_against gives c_sc <= (1 + kappa)/2, so ||v_0|| = omega ||r|| <=
2 c_sc / (1 + kappa) <= 1, and spec(B) lies in [-rho, rho], rho = rho_1 < 1.
Exactly, x = (I - B^(m+1)) A^{-1} r, off by at most rho^(m+1) c_sc, so the
matvecs may spend budget = eps - rho^(m+1) c_sc.  The error e_j of matvec
j < m reaches x as P_{m-1-j}(B) e_j with P_i(B) = sum_{l<=i} B^l, and
||P_i(B)|| <= min(i + 1, 1/(1 - rho)) = min(i + 1, (1 + kappa)/2).  If
sum_j min(m - j, (1 + kappa)/2) ||e_j|| <= budget, x meets eps, and as
each error before step j has weight at least K_j = min(m - j + 1,
(1 + kappa)/2), those errors add to at most budget / K_j, whatever the
schedule.  So the computed v_j = B^j v_0 + sum_{i<j} B^(j-1-i) e_i has norm
at most 2 c_sc rho^j / (1 + kappa) + budget / K_j, in closed form, and at
most Z_j, that bound rounded up to a power of two.  Step j reads the state
(v_j / Z_j, c_j / Z_j): its matvec reads a norm at most 1, and at level s_j
errs by at most E(s_j) = E(1) 4^(1 - s_j) in v_{j+1} / Z_j, so
||e_j|| <= Z_j E(s_j), and the levels must meet
sum_j Z_j min(m - j, (1 + kappa)/2) E(s_j) <= budget.  The step's end map
multiplies the v and c rows by r_j = Z_j / Z_{j+1} (the last step keeps
Z_{m-1}), a power of two and so exact on normal doubles.  From one step to
the next the decay term shrinks by rho and the drift term budget / K_j
grows by at most 3/2, so r_j is 1/2, 1 or 2 whenever rho >= 1/2
(kappa >= 3).

Lemma (cg).  With normalized coefficients c_j, b_k = sum_{j>=k} c_j
U_{j-k}(B) rhat and x = final_scale b_0 = p(A) r, whose residual
polynomial 1 - t p(t) = T_m(sigma(t)) / T_m(sigma0) is at most
1 / T_m(sigma0) on the bracket; ||A^{-1} r|| <= c_sc, so the truncation is
at most c_sc / T_m(sigma0), and the matvecs may spend
budget = eps - c_sc / T_m(sigma0).  spec(B) lies in [-1, 1], so
||U_i(B)|| <= i + 1, and the error e_j of the matvec that makes b_j reaches
b_k as U_{j-k}(B) e_j.  Per step, then: ||rhat|| = ||r|| / Lam <=
c_sc / kappa, so exactly ||b_k|| <= (c_sc/kappa) S_k with
S_k = sum_{j>=k} c_j (j - k + 1), and the computed b_k is off by at most
sum_{j>=k} (j - k + 1) ||e_j|| <= sum_j (j + 1) ||e_j||.  If
|final_scale| sum_j (j + 1) ||e_j|| <= budget, x meets eps, and every
computed b_k has norm at most
Z_k = (c_sc/kappa) S_k + budget / |final_scale|, whatever the schedule.
The state holds b_k / Z_k, so the matvec that makes b_k reads
b_{k+1} / Z_{k+1} of norm at most 1 (b_m = b_{m+1} = 0, S_m = S_{m+1} = 0),
and the combination writes b_k / Z_k = (c_k / Z_k) rhat +
(Z_{k+1} / Z_k) 2 B (b_{k+1} / Z_{k+1}) - (Z_{k+2} / Z_k) (b_{k+2} / Z_{k+2}).
At level s_k the matvec errs by at most E(s_k) = E(1) 4^(1 - s_k) in
b_{k+1} / Z_{k+1}, so ||e_k|| <= Z_{k+1} E(s_k), and the levels must meet
sum_k |final_scale| (k + 1) Z_{k+1} E(s_k) <= budget.

Both lemmas end in sum_k w_k E(s_k) <= budget over weights w_k, with E the
certified error of a normalized matvec, so arithmetic.saw_levels, the rule
that picks every product net's level, picks the levels from the units
w_k E(1): it starts where each term is at most budget / m, then takes
stages off while the budget allows, the smallest addition first.  The
metadata records the levels in the order the steps run, and delta =
E(max s_k) and z = 1, the deepest body's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .arithmetic import (
    SparsityPattern, saw_levels, sparse_matvec_error, sparse_matvec_net, sparse_matvec_net_at
)
from .calculus import affine_net, parallelize_shared, pipeline
from .network import Layer, NetworkStats, ReluNetwork, make_layer, stats

__all__ = [
    "ChebyshevPlan",
    "Plan",
    "SolverConfig",
    "SpectralClass",
    "audit_complexity",
    "build_cg_net",
    "build_richardson_net",
    "cheb_plan",
    "clenshaw_step_net",
    "m_cg",
    "m_richardson",
    "plan",
    "rho_alpha",
    "richardson_step_net",
]

METHODS = ("richardson", "cg")

# the smallest accuracy a build accepts: a net's float64 rounding alone errs
# by about 1e-14 on a unit-scale solution, so a smaller eps cannot be met
# and only builds ever deeper nets that fail verify
EPS_MIN = 1e-12


@dataclass(frozen=True)
class SpectralClass:
    """Spectral bracket [lam, Lam] for the admissible matrix class.

    lam == Lam (condition number 1) is permitted; the builders short-circuit
    it to an exact affine solve.
    """

    lam: float
    Lam: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.Lam)):
            raise ValueError("spectral bounds must be finite")
        if not 0 < self.lam <= self.Lam:
            raise ValueError("need 0 < lam <= Lam")

    @property
    def kappa(self) -> float:
        return self.Lam / self.lam

    @property
    def omega(self) -> float:
        return 2.0 / (self.lam + self.Lam)


def rho_alpha(spec: SpectralClass, alpha: float) -> float:
    """Convergence factor (kappa^alpha - 1)/(kappa^alpha + 1)."""
    ka = spec.kappa**alpha
    return (ka - 1.0) / (ka + 1.0)


@dataclass(frozen=True)
class SolverConfig:
    method: str
    epsilon: float
    c_sc: float = 1.0

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if not EPS_MIN <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [{EPS_MIN:g}, 1)")
        if not self.c_sc >= 1.0:
            raise ValueError("c_sc must be at least 1")

    def validate_against(self, spec: SpectralClass) -> None:
        """Check the method-specific admissible c_sc range."""
        kappa = spec.kappa
        limit = (1.0 + kappa) / 2.0 if self.method == "richardson" else kappa
        if self.c_sc > limit:
            raise ValueError(
                f"c_sc={self.c_sc} exceeds the admissible bound {limit} "
                f"for method {self.method} at kappa={kappa}"
            )


def _step_count(eps: float, c_sc: float, rho: float, factor: float) -> int:
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if not c_sc >= 1.0:
        raise ValueError("c_sc must be at least 1")
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if rho == 0.0:
        return 1
    return max(1, math.ceil(abs(math.log2(eps / (factor * c_sc))) / abs(math.log2(rho))))


def m_richardson(eps: float, c_sc: float, rho1: float) -> int:
    """Step count ceil(|log2(eps/(2 c_sc))| / |log2 rho1|); 1 when rho1 = 0."""
    return _step_count(eps, c_sc, rho1, 2.0)


def m_cg(eps: float, c_sc: float, rho_half: float) -> int:
    """Step count ceil(|log2(eps/(4 c_sc))| / |log2 rho_half|); 1 when rho = 0."""
    return _step_count(eps, c_sc, rho_half, 4.0)


@dataclass(frozen=True)
class ChebyshevPlan:
    """Normalized coefficients of the degree-(m-1) cg-type solver polynomial.

    coeffs[l] = alpha_l / alpha_max with denormalized alpha_l = 2 T_{m-1-l}
    at sigma0 for l <= m-2 and alpha_{m-1} = 1; final_scale maps the
    normalized Clenshaw output b_0 back to the solution estimate;
    truncation = 1 / T_m(sigma0) bounds the residual polynomial on the bracket.
    """

    degree: int
    sigma0: float
    coeffs: tuple = field(repr=False)
    alpha_max: float
    final_scale: float
    truncation: float


def _log_cheb_t(j: int, t0: float) -> float:
    # log T_j(cosh t0) = log cosh(j t0), stable for large j*t0
    return j * t0 + math.log1p(math.exp(-2.0 * j * t0)) - math.log(2.0)


def cheb_plan(m: int, spec: SpectralClass) -> ChebyshevPlan:
    """Coefficient plan for the cg-type builder, computed in log space."""
    if m < 1:
        raise ValueError("degree must be at least 1")
    kappa = spec.kappa
    if kappa == 1.0 or not math.isfinite((kappa + 1.0) / (kappa - 1.0)):
        raise ValueError(
            "condition number too close to 1 for the Chebyshev construction; "
            "use the Richardson builder (or the exact affine short-circuit)"
        )
    sigma0 = (kappa + 1.0) / (kappa - 1.0)
    u = 2.0 / (kappa - 1.0)
    t0 = math.log1p(u + math.sqrt(u * (2.0 + u)))  # arccosh(sigma0)
    log_alpha = [math.log(2.0) + _log_cheb_t(m - 1 - l, t0) for l in range(m - 1)]
    log_alpha.append(0.0)
    log_max = max(log_alpha)
    coeffs = tuple(math.exp(la - log_max) for la in log_alpha)
    slope = 2.0 * kappa / (kappa - 1.0)
    log_t_m = _log_cheb_t(m, t0)
    return ChebyshevPlan(
        degree=m,
        sigma0=sigma0,
        coeffs=coeffs,
        alpha_max=math.exp(log_max),
        final_scale=math.exp(math.log(slope) + log_max - log_t_m),
        truncation=math.exp(-log_t_m),
    )


def _step_body(pattern: SparsityPattern, mv: ReluNetwork, carry, carry_cols):
    """Parallel step body (B^v, mv(B^v, v), carry u) on the state (B^v, v, ...).

    B^v rides exact identity channels beside the matvec net mv, which reads
    B^v and v.  The sparse matrix carry applies exactly to u, the state
    columns carry_cols; parallelize_shared carries it and the identity down
    to the matvec's depth.
    """
    n, eta = pattern.n, pattern.eta
    # build the identity member before the carry: with the carry first, the
    # layers are the same but the peak RSS of saving and loading a 2-d
    # Laplacian richardson net rose by about 3% in most runs
    members = [affine_net(sp.identity(eta)), mv, affine_net(carry)]
    maps = [range(eta), range(eta + n), carry_cols]
    return parallelize_shared(members, maps, eta + len(carry_cols))


def _richardson_body(pattern: SparsityPattern, mv: ReluNetwork) -> ReluNetwork:
    """Step body with output blocks (B^v, mv(B^v, v), v + c) on the state (B^v, v, c)."""
    n, eta = pattern.n, pattern.eta
    return _step_body(pattern, mv, sp.hstack([sp.identity(n)] * 2), range(eta, eta + 2 * n))


def richardson_step_net(pattern: SparsityPattern, delta: float, z: float) -> ReluNetwork:
    """One iteration map (A^v, r, c) -> (A^v, A r, r + c) on eta + 2n channels.

    The matrix block and r + c are carried by exact identity channels, and
    A r by a matvec at accuracy delta for ||A||_2 <= 1, ||r||_2 <= z.
    """
    return _richardson_body(pattern, sparse_matvec_net(pattern, delta, z))


def _clenshaw_body(pattern: SparsityPattern, mv: ReluNetwork) -> ReluNetwork:
    """Step body with output blocks (B^v, w = mv(B^v, b_next), rhat, b_nextnext, b_next)."""
    n, eta = pattern.n, pattern.eta
    rhat, b_nn, b_next = (np.arange(eta + k * n, eta + (k + 1) * n) for k in (2, 1, 0))
    return _step_body(pattern, mv, sp.identity(3 * n), np.concatenate([rhat, b_nn, b_next]))


def _clenshaw_end(pattern: SparsityPattern, w_scale: float, alpha: float, nn_scale: float):
    """The combination C on the Clenshaw body's blocks [B^v, w, rhat, b_nn, b_next].

    C maps them to the next state (B^v, w_scale w + alpha rhat - nn_scale b_nn,
    b_next, rhat).  Each row of C reads blocks whose end rows occupy disjoint
    columns, so every entry of C times the body's end is a single float
    multiplication, and the +/- partners of the matvec's summation still
    cancel exactly.
    """
    n, eta = pattern.n, pattern.eta
    p, i = np.arange(eta), np.arange(n)
    rows = np.concatenate([p, eta + i, eta + i, eta + i, eta + n + i, eta + 2 * n + i])
    cols = np.concatenate([p, eta + i, eta + n + i, eta + 2 * n + i, eta + 3 * n + i, eta + n + i])
    vals = np.concatenate(
        [np.ones(eta), np.full(n, w_scale), np.full(n, alpha), np.full(n, -nn_scale), np.ones(2 * n)]
    )
    return make_layer((eta + 3 * n, eta + 4 * n), rows, cols, vals).weight


def _fused_step(body: ReluNetwork, s: int, end) -> ReluNetwork:
    """The level-s step: body's first s + 1 layers, then the end map fused into body's end.

    With end None the step ends in the body's own last layer object.  The
    body's layers are shared, not copied.
    """
    last = body.layers[-1]
    if end is not None:
        last = Layer(end @ last.weight, end @ last.bias)
    return ReluNetwork(body.layers[: s + 1] + (last,))


def clenshaw_step_net(
    pattern: SparsityPattern, alpha_bar: float, delta: float, z: float
) -> ReluNetwork:
    """One Clenshaw update on the state (B^v, b_next, b_nextnext, rhat).

    Output is (B^v, alpha_bar*rhat + 2 B b_next - b_nextnext, b_next, rhat)
    with error <= delta confined to the second block, for ||b_next|| <= z: the
    doubled matvec is the only approximate piece, everything else rides
    identity channels and the exactly fused output combination.
    """
    if not 0.0 <= alpha_bar <= 1.0:
        raise ValueError("normalized coefficient must lie in [0, 1]")
    body = _clenshaw_body(pattern, sparse_matvec_net(pattern, delta, z, scale=2.0))
    return _fused_step(body, body.depth - 2, _clenshaw_end(pattern, 1.0, alpha_bar, 1.0))


@dataclass(frozen=True)
class Plan:
    """A solver net's numbers, as plan computes them; _assemble makes its layers.

    levels holds each step's saw level and ends each step's end map, in the
    order the steps run: Richardson's ratio Z_j / Z_{j+1}, or cg's
    (w_scale, alpha, nn_scale).  rescale is (b_diag, b_scale, r_scale, r_at)
    and output (x_scale, x_at), as the module docstring describes; m == 0
    stands for the kappa == 1 net, the output layer on the input with no
    rescale.  metadata keeps its key order: the JSON text is part of the
    file.
    """

    method: str
    pattern: SparsityPattern
    m: int
    levels: tuple
    ends: tuple
    mv_scale: float
    rescale: tuple
    output: tuple
    metadata: dict

    def size(self) -> NetworkStats:
        """stats() of the assembled net, in closed form.

        With E = eta, carry rows k and carry entries (Richardson's [I, I]:
        k = n, 2n entries; cg's I_3n: k = 3n, 3n entries) and the state width
        W = E + 2n (Richardson) or E + 3n (cg), the rows and weights of each
        layer as pipeline leaves it, each split or merged into its neighbours:

            rescale                  2W       2E + 4n
            a step's first layer     6E + 2k  20E + 4 entries
            saw stage 1              8E + 2k  16E + 2k
            saw stage t >= 2         8E + 2k  18E + 2k
            a step's end             2W       16E + 4k, plus 4n for cg
            output                   n        2n per block read

        A matvec term stores 8, 14, 16 a later stage and 6 weights in its
        first, first saw, later saw and summation layers (arithmetic's
        16 s + 12), and every identity or carry channel a (+, -) pair.  So a
        step at level s has s + 2 layers and L = 2 + sum_k (s_k + 2).  The
        kappa == 1 net is one layer of n rows and n weights.
        """
        n, E = self.pattern.n, self.pattern.eta
        x_at = self.output[1]
        layers = [(n, n * len(x_at))]
        if self.m:
            cg = self.method == "cg"
            k, entries, W = (3 * n, 3 * n, E + 3 * n) if cg else (n, 2 * n, E + 2 * n)
            first, saw = (6 * E + 2 * k, 20 * E + 4 * entries), 8 * E + 2 * k
            end = (2 * W, 16 * E + 4 * k + 4 * n * cg)
            layers = [(2 * W, 2 * E + 4 * n)]
            for s in self.levels:
                layers += [first, (saw, 16 * E + 2 * k)] + [(saw, 18 * E + 2 * k)] * (s - 1) + [end]
            layers.append((n, 2 * n * len(x_at)))
        rows, per_layer = zip(*layers)
        return NetworkStats(
            depth=len(rows), weights=sum(per_layer), per_layer=per_layer, max_width=max((E + n,) + rows),
            input_dim=E + n, output_dim=n, neurons=sum(rows[:-1]),
        )


def plan(pattern: SparsityPattern, spec: SpectralClass, config: SolverConfig) -> Plan:
    """The checks and every number of the solver net, as the module docstring derives them.

    The method is config.method.

    Makes no layer: Z, the error weights and the budget stay here.
    """
    method = config.method
    pattern.diagonal_positions()
    config.validate_against(spec)
    n, eta = pattern.n, pattern.eta
    meta = {
        "method": method,
        "n": n,
        "eta": eta,
        "lambda": spec.lam,
        "Lambda": spec.Lam,
        "epsilon": config.epsilon,
        "c_sc": config.c_sc,
        "m": 0,
        "kappa": spec.kappa,
    }
    if spec.kappa == 1.0:
        # kappa = 1 means A = lam * I on the spectrum, so x = r / lam exactly
        return Plan(method, pattern, 0, (), (), 1.0, None, (1.0 / spec.lam, (eta,)), meta)
    eps, c_sc, kappa = config.epsilon, config.c_sc, spec.kappa
    if method == "richardson":
        omega = spec.omega
        rho = rho_alpha(spec, 1.0)
        m = m_richardson(eps, c_sc, rho)
        budget = eps - rho ** (m + 1) * c_sc
        # the Richardson lemma above: Z_j is the power of two at or above
        # the decay 2 c_sc rho^j / (1 + kappa) plus the drift budget / K_j;
        # matvec j errs by Z_j E(s_j) in v_{j+1}, which reaches x with
        # weight min(m - j, (1 + kappa)/2)
        j = np.arange(m)
        K = np.minimum(m - j + 1, (1.0 + kappa) / 2.0)
        mant, exp = np.frexp(2.0 * c_sc / (1.0 + kappa) * rho**j + budget / K)
        Z = np.ldexp(1.0, exp - (mant == 0.5))
        weight = Z * np.minimum(m - j, (1.0 + kappa) / 2.0)
        # step j ends at scale Z_{j+1}, the last at its own
        ends, mv_scale = (Z / np.append(Z[1:], Z[-1])).tolist(), 1.0
        # state (B^v, v_j / Z_j, c_j / Z_j): B^v = I - omega A, v_0 = omega r,
        # c_0 = 0; x = Z_{m-1} (v_m / Z_{m-1} + c_m / Z_{m-1})
        rescale, output = (1.0, -omega, float(omega / Z[0]), eta), (float(Z[-1]), (eta, eta + n))
        extra = {"omega": omega}
    else:
        m = m_cg(eps, c_sc, rho_alpha(spec, 0.5))
        cheb = cheb_plan(m, spec)
        scale = abs(cheb.final_scale)
        budget = eps - c_sc * cheb.truncation
        # two cumulative sums over the reversed coefficients give every
        # S_k = sum_{j>=k} coeffs[j] (j - k + 1) in O(m), as m reaches the
        # thousands at large kappa; S_m = S_{m+1} = 0
        sums = np.cumsum(np.cumsum(cheb.coeffs[::-1]))[::-1]
        Z = c_sc / kappa * np.concatenate([sums, [0.0, 0.0]]) + budget / scale
        # the cg lemma above: the matvec that makes b_k errs by Z_{k+1} E(s_k)
        # in b_k, which reaches x with weight |final_scale| (k + 1); the
        # steps run k = m - 1 .. 0, each ending in the combination
        # (Z_{k+1} / Z_k, coeffs[k] / Z_k, Z_{k+2} / Z_k)
        weight = (scale * np.arange(1, m + 1) * Z[1 : m + 1])[::-1]
        k = np.arange(m - 1, -1, -1)
        ends = zip(
            (Z[k + 1] / Z[k]).tolist(), (np.array(cheb.coeffs)[k] / Z[k]).tolist(), (Z[k + 2] / Z[k]).tolist()
        )
        mv_scale = 2.0
        # state (B^v, b_next / Z_{k+1}, b_nextnext / Z_{k+2}, rhat):
        # B^v = sigma0 I - (slope/Lam) A, rhat = r / Lam, Clenshaw carries
        # start at zero; x = final_scale * Z_0 * (b_0 / Z_0)
        slope = 2.0 * kappa / (kappa - 1.0)
        rescale = (cheb.sigma0, -slope / spec.Lam, 1.0 / spec.Lam, eta + 2 * n)
        output = (cheb.final_scale * float(Z[0]), (eta,))
        extra = {"sigma0": cheb.sigma0, "final_scale": cheb.final_scale}
    # the lemmas' shared schedule: every matvec reads a norm at most 1
    levels = saw_levels(weight * sparse_matvec_error(pattern, 1, 1.0, mv_scale), budget).tolist()
    # each step's level in the order the steps run, as [level, count] runs
    runs = [[s, len(list(group))] for s, group in itertools.groupby(levels)]
    delta = sparse_matvec_error(pattern, max(levels), 1.0, mv_scale)
    meta.update(m=m, **extra, levels=runs, delta=delta, z=1.0)
    return Plan(method, pattern, m, tuple(levels), tuple(ends), mv_scale, rescale, output, meta)


def _assemble(plan: Plan) -> ReluNetwork:
    """The layers of a plan: the rescale layer, the steps and the output layer.

    The steps are prefixes of the deepest body, each with its end map.  The
    rescale layer leaves every state block but B^v and the rhs block at
    zero; with m == 0 the output layer reads the input.
    """
    pattern = plan.pattern
    n, eta = pattern.n, pattern.eta
    idx = np.arange(n)
    stages, width = [], eta + n
    if plan.m:
        ends = dict.fromkeys(plan.ends)
        if plan.method == "richardson":
            body_of = _richardson_body
            # a ratio scales the v and c rows; 1 keeps the body's own last layer
            maps = {r: sp.diags(np.concatenate([np.ones(eta), np.full(2 * n, r)])) for r in ends if r != 1.0}
        else:
            body_of = _clenshaw_body
            maps = {end: _clenshaw_end(pattern, *end) for end in ends}
        s_max = max(plan.levels)
        body = body_of(pattern, sparse_matvec_net_at(pattern, s_max, 1.0, plan.mv_scale))
        # each distinct end is fused once, into the deepest step; the steps
        # are prefixes of their end's deepest step, so steps with one end share it
        deepest = {end: _fused_step(body, s_max, maps.get(end)) for end in ends}
        steps = [_fused_step(deepest[end], s, None) for s, end in zip(plan.levels, plan.ends)]
        width = body.input_dim
        b_diag, b_scale, r_scale, r_at = plan.rescale
        p = np.arange(eta)
        bias = np.zeros(width)
        bias[pattern.diagonal_positions()] = b_diag
        pre = make_layer(
            (width, eta + n),
            np.concatenate([p, r_at + idx]),
            np.concatenate([p, eta + idx]),
            np.concatenate([np.full(eta, b_scale), np.full(n, r_scale)]),
            bias,
        )
        stages = [ReluNetwork([pre])] + steps
    x_scale, x_at = plan.output
    post = make_layer(
        (n, width),
        np.tile(idx, len(x_at)),
        np.concatenate([at + idx for at in x_at]),
        np.full(n * len(x_at), x_scale),
    )
    net = pipeline(stages + [ReluNetwork([post])])
    net.metadata = dict(plan.metadata)
    return net


def _build(method, pattern: SparsityPattern, spec: SpectralClass, config: SolverConfig):
    """The solver net both builders share: plan's numbers, then their layers."""
    if config.method != method:
        raise ValueError(f"config.method must be {method!r}")
    return _assemble(plan(pattern, spec, config))


def build_richardson_net(
    pattern: SparsityPattern, spec: SpectralClass, config: SolverConfig
) -> ReluNetwork:
    """Solver net for A x = r via m damped fixed-point steps.

    Input (A^v, r) of length eta + n, output of length n; for every
    symmetric A in the pattern class with spectrum in [lam, Lam] and
    ||r||_2 <= c_sc * lam the output is within epsilon of A^{-1} r.
    """
    return _build("richardson", pattern, spec, config)


def build_cg_net(
    pattern: SparsityPattern, spec: SpectralClass, config: SolverConfig
) -> ReluNetwork:
    """Solver net for A x = r via the Clenshaw chain of the cg-type polynomial.

    Same input/output contract as build_richardson_net, with the step count
    driven by rho_{1/2} instead of rho_1.
    """
    return _build("cg", pattern, spec, config)


@dataclass(frozen=True)
class AuditRecord:
    depth: int
    weights: int
    denom: float
    ratio_L: float
    ratio_M: float
    neurons: int


def audit_complexity(net, m: int, eps: float, n: int, eta: int) -> AuditRecord:
    """(depth, weights) against the m(log2(1/eps)+log2 n+log2 m) shape.

    net is a network or its NetworkStats, such as Plan.size().  ratio_L
    divides the depth by that factor, ratio_M additionally by eta; neurons
    (summed hidden widths) is reported beside them.
    """
    if m < 1:
        raise ValueError("audit needs an iterative build (m >= 1)")
    st = net if isinstance(net, NetworkStats) else stats(net)
    denom = m * (math.log2(1.0 / eps) + math.log2(n) + math.log2(m))
    return AuditRecord(
        depth=st.depth,
        weights=st.weights,
        denom=denom,
        ratio_L=st.depth / denom,
        ratio_M=st.weights / (denom * eta),
        neurons=st.neurons,
    )
