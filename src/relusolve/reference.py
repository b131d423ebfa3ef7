"""Floating-point reference implementations used to cross-check the nets.

Everything here is deliberately independent of the network constructions:
a direct factorization and Clenshaw's backward recurrence.  Tests freeze
values produced by these routines.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "clenshaw_eval",
    "solve_exact",
]


def _as_dense(A) -> np.ndarray:
    if hasattr(A, "toarray"):
        return A.toarray()
    return np.asarray(A, dtype=np.float64)


def solve_exact(A, r) -> np.ndarray:
    """Cholesky solve of A x = r with a verified residual.

    Raises ValueError when A is not positive definite or the residual cannot
    be driven below 1e-10 * ||r|| with one refinement step.
    """
    Ad = _as_dense(A)
    r = np.asarray(r, dtype=np.float64).reshape(-1)
    if not np.any(r):
        return np.zeros_like(r)
    try:
        factor = scipy.linalg.cho_factor(Ad)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError("matrix is not positive definite") from exc
    x = scipy.linalg.cho_solve(factor, r)
    tol = 1e-10 * np.linalg.norm(r)
    resid = r - Ad @ x
    if np.linalg.norm(resid) > tol:
        x = x + scipy.linalg.cho_solve(factor, resid)
        resid = r - Ad @ x
        if np.linalg.norm(resid) > tol:
            raise ValueError("direct solve failed the residual check")
    return x


def clenshaw_eval(coeffs, B, rhat):
    """Backward evaluation of sum_l coeffs[l] U_l(B) rhat.

    b_k = coeffs[k] rhat + 2 B b_{k+1} - b_{k+2}, returning b_0.  B may be a
    scalar or a square matrix; rhat a scalar or a conforming vector.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    rhat = np.asarray(rhat, dtype=np.float64)
    apply_B = (lambda v: B @ v) if B.ndim == 2 else (lambda v: B * v)
    b_next = np.zeros_like(rhat)
    b_nextnext = np.zeros_like(rhat)
    for k in range(len(coeffs) - 1, -1, -1):
        b_next, b_nextnext = coeffs[k] * rhat + 2.0 * apply_B(b_next) - b_nextnext, b_next
    return b_next
