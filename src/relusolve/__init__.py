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

Only these four names and __version__ are exported here; everything else
is imported from its submodule (network, calculus, arithmetic, solvers,
problems, reference, cli).
"""

from .network import evaluate
from .problems import gen_laplacian
from .solvers import SolverConfig, build_cg_net

__version__ = "0.1.0"

__all__ = ["SolverConfig", "build_cg_net", "evaluate", "gen_laplacian"]
