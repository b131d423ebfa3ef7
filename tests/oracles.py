"""Independent oracles for the arithmetic, Richardson and Chebyshev tests.

square_net's function with Yarotsky's clamped hat, replayed in numpy in the
network's float order; the plain Richardson loop on a dense matrix;
Chebyshev polynomials by their three-term recurrence, the U-series by
forward evaluation (against clenshaw_eval's backward one), and the divided
coefficients cheb_plan normalizes, in exact rational arithmetic.
"""

from fractions import Fraction

import numpy as np


def _row(*terms):
    """A CSR row sum: from +0.0, adding the terms in column order."""
    total = 0.0
    for term in terms:
        total = total + term
    return total


def _relu(v):
    return np.maximum(v, 0.0)


def clamped_square(x, s: int, D: float = 1.0):
    """square_net(s, D)'s f_s, with the clamped hat 2 relu(y) - 4 relu(y - 1/2) + 2 relu(y - 1).

    Yarotsky's sawtooth on four kinds per chain (n1, n2, n3, c), each row
    summed as the network's kernel sums it: weighted terms in column order,
    then the bias.
    """
    x = np.asarray(x, dtype=np.float64)
    p, m = _relu(_row((1.0 / D) * x)), _relu(_row((-1.0 / D) * x))
    n1, n2, n3, c = (_relu(_row(p, m, bias)) for bias in (0.0, -0.5, -1.0, 0.0))
    for stage in range(2, s + 1):
        q = 4.0 ** (-(stage - 1))
        g = _row(2.0 * n1, -4.0 * n2, 2.0 * n3)
        c = _relu(_row((-2.0 * q) * n1, (4.0 * q) * n2, (-2.0 * q) * n3, c))
        n1, n2, n3 = _relu(g), _relu(g + -0.5), _relu(g + -1.0)
    qf, dd = 4.0 ** (-s), D * D
    return _row(dd * (-2.0 * qf) * n1, dd * (4.0 * qf) * n2, dd * (-2.0 * qf) * n3, dd * c)


def richardson_iterate(A, r, omega: float, m: int) -> np.ndarray:
    """m+1 damped fixed-point steps x <- x + omega (r - A x) from x = 0."""
    A = np.asarray(A, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64).reshape(-1)
    x = np.zeros_like(r)
    for _ in range(m + 1):
        x = x + omega * (r - A @ x)
    return x


def chebyshev_eval(kind: str, j: int, x):
    """Chebyshev polynomial of the first ('T') or second ('U') kind at x."""
    if kind not in ("T", "U"):
        raise ValueError("kind must be 'T' or 'U'")
    if j < 0:
        raise ValueError("degree must be nonnegative")
    x = np.asarray(x, dtype=np.float64)
    prev = np.ones_like(x)
    if j == 0:
        return prev if prev.shape else float(prev)
    cur = x if kind == "T" else 2.0 * x
    for _ in range(j - 1):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur if cur.shape else float(cur)


def u_series_eval(coeffs, B, rhat):
    """Forward evaluation of sum_l coeffs[l] U_l(B) rhat via the recurrence."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    rhat = np.asarray(rhat, dtype=np.float64)
    apply_B = (lambda v: B @ v) if B.ndim == 2 else (lambda v: B * v)
    u_prev = rhat.copy()
    total = coeffs[0] * u_prev
    if len(coeffs) == 1:
        return total
    u_cur = 2.0 * apply_B(rhat)
    total = total + coeffs[1] * u_cur
    for k in range(2, len(coeffs)):
        u_prev, u_cur = u_cur, 2.0 * apply_B(u_cur) - u_prev
        total = total + coeffs[k] * u_cur
    return total


def _cheb_t_power_coeffs(m: int):
    """Integer power-basis coefficients of T_m as Fractions, low to high."""
    prev = [Fraction(1)]
    if m == 0:
        return prev
    cur = [Fraction(0), Fraction(1)]
    for _ in range(m - 1):
        nxt = [Fraction(0)] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def divided_cheb_coeffs(m: int, x0: float):
    """U-basis coefficients of (T_m(x0) - T_m(w)) / (x0 - w), exactly.

    Computed by exact rational synthetic division in the power basis followed
    by peeling leading terms against U_j (leading coefficient 2^j).  Returns
    m floats d_0..d_{m-1} with
    (T_m(x0) - T_m(w)) / (x0 - w) = sum_l d_l U_l(w).
    """
    if m < 1:
        raise ValueError("degree must be at least 1")
    x0f = Fraction(float(x0))
    t = _cheb_t_power_coeffs(m)
    # P(w) = T_m(x0) - T_m(w); synthetic division by (w - x0) then negate
    p = [-c for c in t]
    p[0] += chebyshev_t_exact(m, x0f)
    q = [Fraction(0)] * m
    carry = p[m]
    for k in range(m - 1, -1, -1):
        q[k] = carry
        carry = p[k] + x0f * carry
    if carry != 0:
        raise AssertionError("synthetic division left a nonzero remainder")
    d = [-c for c in q]
    # convert power basis to U basis from the top degree down
    u_polys = [[Fraction(1)], [Fraction(0), Fraction(2)]]
    while len(u_polys) < m:
        a, b = u_polys[-1], u_polys[-2]
        nxt = [Fraction(0)] + [2 * c for c in a]
        for i, c in enumerate(b):
            nxt[i] -= c
        u_polys.append(nxt)
    out = [Fraction(0)] * m
    for j in range(m - 1, -1, -1):
        out[j] = d[j] / (Fraction(2) ** j)
        for i, c in enumerate(u_polys[j]):
            d[i] -= out[j] * c
    if any(c != 0 for c in d):
        raise AssertionError("U-basis peel left a nonzero remainder")
    return [float(c) for c in out]


def chebyshev_t_exact(m: int, x0: Fraction) -> Fraction:
    """T_m(x0) in exact rational arithmetic."""
    prev, cur = Fraction(1), Fraction(x0)
    if m == 0:
        return prev
    for _ in range(m - 1):
        prev, cur = cur, 2 * x0 * cur - prev
    return cur
