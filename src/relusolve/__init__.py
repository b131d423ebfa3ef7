"""Explicit ReLU networks that solve sparse SPD linear systems.

The package builds feed-forward ReLU networks whose forward pass maps the
concatenation (A^v, r) of a sparse matrix's value vector and a right-hand
side to an epsilon-accurate approximation of A^{-1} r, for every symmetric
positive definite A in a fixed sparsity pattern and spectral bracket.

Quick start::

    from relusolve import (SolverConfig, build_cg_net, evaluate,
                           gen_laplacian)
    import numpy as np

    fem = gen_laplacian(1, 16)
    net = build_cg_net(fem.pattern, fem.spectral, SolverConfig("cg", 0.1))
    r = np.zeros(16); r[0] = fem.spectral.lam
    x = evaluate(net, np.concatenate([fem.matrix.values, r]))
"""

from .arithmetic import (
    SparseMatrix,
    SparsityPattern,
    mult_net,
    scalar_product_net,
    sparse_matvec_net,
)
from .calculus import (
    affine_net,
    identity_net,
    parallelize_shared,
    pipeline,
)
from .network import (
    EvaluationFault,
    Layer,
    NetworkFormatError,
    NetworkStats,
    ReluNetwork,
    evaluate,
    load_network,
    make_layer,
    save_network,
    stats,
)
from .problems import (
    CooFormatError,
    FemProblem,
    estimate_extremal_eigs,
    gen_laplacian,
    random_rhs,
    random_spd,
    read_coo,
    write_coo,
)
from .reference import solve_exact
from .solvers import (
    ChebyshevPlan,
    SolverConfig,
    SpectralClass,
    audit_complexity,
    build_cg_net,
    build_richardson_net,
    cheb_plan,
    m_cg,
    m_richardson,
    rho_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "ChebyshevPlan",
    "CooFormatError",
    "EvaluationFault",
    "FemProblem",
    "Layer",
    "NetworkFormatError",
    "NetworkStats",
    "ReluNetwork",
    "SolverConfig",
    "SparseMatrix",
    "SparsityPattern",
    "SpectralClass",
    "affine_net",
    "audit_complexity",
    "build_cg_net",
    "build_richardson_net",
    "cheb_plan",
    "estimate_extremal_eigs",
    "evaluate",
    "gen_laplacian",
    "identity_net",
    "load_network",
    "m_cg",
    "m_richardson",
    "make_layer",
    "mult_net",
    "parallelize_shared",
    "pipeline",
    "random_rhs",
    "random_spd",
    "read_coo",
    "rho_alpha",
    "save_network",
    "scalar_product_net",
    "solve_exact",
    "sparse_matvec_net",
    "stats",
    "write_coo",
]
