"""Independent reference solver for small instances of (P_1,X).

The real coefficient sets reduce to linear programs (split variables for
REAL, plain nonnegative LP for NONNEG, box LP for BOX01) and are handed to
scipy's HiGHS.  COMPLEX is a second-order cone program, solved by a dense
log-barrier Newton method written here; the same barrier engine also solves
the real sets (1-dimensional cones), which is how it is validated against
HiGHS in the tests.  Never used inside the main solve path.

The barrier engine is a feasible-start method (Boyd & Vandenberghe, *Convex
Optimization*, sec. 10.2): it starts at the least-squares solution of
A x = y and takes every Newton step in the null space of A, so each iterate
stays on {A x = y} by construction instead of only to the accuracy of a
KKT solve whose Hessian blows up like t^2 along the central path.

Every result carries its residual ||A x - y||_2, and `lp_oracle` refuses to
return a point whose residual exceeds RESIDUAL_CERT * (1 + ||y||_2): the
reported value is the objective at a point that really is feasible.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from .coeffsets import CoeffSet

ORACLE_DIM_LIMIT = 64
RESIDUAL_CERT = 1e-10
BARRIER_GAP_TOL = 1e-10   # the barrier path ends at duality gap 2N/t <= this
BARRIER_MU = 8.0          # barrier weight t grows by this factor per centering
MAX_NEWTON = 80           # Newton steps per centering


@dataclass
class OracleResult:
    value: float
    x: np.ndarray  # real representation, same layout as the main solver
    residual: float  # ||A x - y||_2 of the returned x


def lp_oracle(A, y, coeff_set, engine=None):
    """Optimal value and a solution of (P_1,X) for a dense real matrix A.

    `A` and `y` are in real representation (ambient-2 pair columns for
    COMPLEX).  Guarded to at most 64 coefficients.  `engine` forces
    "highs" or "barrier" (default: highs for LPs, barrier for COMPLEX).
    Raises RuntimeError if the returned point violates A x = y by more than
    RESIDUAL_CERT * (1 + ||y||_2).
    """
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    n_coeffs = A.shape[1] // coeff_set.ambient_dim
    if n_coeffs > ORACLE_DIM_LIMIT:
        raise ValueError(f"oracle guard: {n_coeffs} coefficients exceeds the "
                         f"desk-scale limit {ORACLE_DIM_LIMIT}")
    if engine is None:
        engine = "barrier" if coeff_set is CoeffSet.COMPLEX else "highs"
    if engine == "barrier":
        res = socp_min_l1x(A, y, coeff_set)
    else:
        res = _lp_highs(A, y, coeff_set)
    cert = RESIDUAL_CERT * (1.0 + np.linalg.norm(y))
    if res.residual > cert:
        raise RuntimeError(f"{engine} oracle: residual ||Ax - y|| "
                           f"{res.residual:.3g} exceeds the certificate "
                           f"{cert:.3g}")
    return res


def _result(A, y, value, x):
    return OracleResult(value=value, x=x,
                        residual=float(np.linalg.norm(A @ x - y)))


def _lp_highs(A, y, coeff_set):
    m, N = A.shape
    if coeff_set is CoeffSet.REAL:
        res = linprog(np.ones(2 * N), A_eq=np.hstack([A, -A]), b_eq=y,
                      bounds=(0, None), method="highs")
        _check(res)
        x = res.x[:N] - res.x[N:]
    elif coeff_set is CoeffSet.NONNEG:
        res = linprog(np.ones(N), A_eq=A, b_eq=y, bounds=(0, None),
                      method="highs")
        _check(res)
        x = res.x
    elif coeff_set is CoeffSet.BOX01:
        res = linprog(np.ones(N), A_eq=A, b_eq=y, bounds=(0, 1),
                      method="highs")
        _check(res)
        x = res.x
    else:
        raise ValueError("HiGHS path handles the real coefficient sets only")
    return _result(A, y, float(res.fun), x)


def _check(res):
    if not res.success:
        raise RuntimeError(f"LP oracle failed: {res.message}")


# ---------------------------------------------------------------------------
# dense log-barrier engine for  min sum_i s_i  s.t.  A x = y, ||x_i|| <= s_i

def socp_min_l1x(A, y, coeff_set):
    """Barrier path-following on the cone reformulation of (P_1,X).

    REAL uses 1-d cones s_i >= |x_i|; COMPLEX uses 2-d cones on the (re, im)
    pairs.  NONNEG and BOX01 add bound constraints and are not offered here
    (they go through HiGHS).

    Starts at the least-squares point and keeps x on {A x = y}: each Newton
    step is dx = Z dw with Z an orthonormal basis of null(A), computed once,
    and the reduced system is solved in (ds, dw).  Centering at barrier
    weight t stops once lambda^2 / 2 <= 1e-11 * max(1, t), where lambda is
    the Newton decrement; that bounds the centering error in sum_i s_i by
    about 1e-11, whereas an absolute stop is out of reach of roundoff once
    t is large.  The path ends when the duality gap 2N / t is at most
    BARRIER_GAP_TOL.  Returns an OracleResult whose value is sum_i ||x_i||
    at the returned x and whose residual is ||A x - y||_2.
    """
    if coeff_set is CoeffSet.COMPLEX:
        b = 2
    elif coeff_set is CoeffSet.REAL:
        b = 1
    else:
        raise ValueError("barrier engine covers REAL and COMPLEX")
    A = np.asarray(A, dtype=float)
    y = np.asarray(y, dtype=float)
    N = A.shape[1] // b

    x = np.linalg.lstsq(A, y, rcond=None)[0]
    if np.linalg.norm(A @ x - y) > 1e-8 * (1.0 + np.linalg.norm(y)):
        raise RuntimeError("barrier oracle: equality system is inconsistent")
    Z = null_space(A)
    s = np.linalg.norm(x.reshape(N, b), axis=1) + 1.0
    t = 1.0
    nu = 2.0 * N

    while True:
        s, x = _center(Z, s, x, t, N, b)
        if nu / t <= BARRIER_GAP_TOL:
            break
        t *= BARRIER_MU
    # cone slacks at the end are gap-sized; report the actual norms
    value = float(np.linalg.norm(x.reshape(N, b), axis=1).sum())
    return _result(A, y, value, x)


def _center(Z, s, x, t, N, b):
    """Newton centering at weight t, with steps restricted to x + range(Z)."""
    k = Z.shape[1]
    Zc = Z.reshape(N, b, k)

    def merit(ss, xx):
        dd = ss ** 2 - (xx.reshape(N, b) ** 2).sum(axis=1)
        if np.any(dd <= 0.0) or np.any(ss <= 0.0):
            return np.inf
        return t * ss.sum() - np.log(dd).sum()

    for _ in range(MAX_NEWTON):
        X = x.reshape(N, b)
        d = s ** 2 - (X ** 2).sum(axis=1)
        u = np.einsum("ib,ibk->ik", X, Zc)  # x_i^T Z_i, one row per cone
        g = np.concatenate([t - 2.0 * s / d, u.T @ (2.0 / d)])
        H = np.empty((N + k, N + k))
        H[:N, :N] = np.diag(4.0 * s ** 2 / d ** 2 - 2.0 / d)
        H[:N, N:] = (-4.0 * s / d ** 2)[:, None] * u
        H[N:, :N] = H[:N, N:].T
        H[N:, N:] = (u.T @ ((4.0 / d ** 2)[:, None] * u)
                     + Z.T @ (np.repeat(2.0 / d, b)[:, None] * Z))
        try:
            step_dir = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            step_dir = np.linalg.lstsq(H, -g, rcond=None)[0]
        lam2 = float(-(g @ step_dir))
        if lam2 / 2.0 <= 1e-11 * max(1.0, t):
            break
        ds, dx = step_dir[:N], Z @ step_dir[N:]

        m0 = merit(s, x)
        step = 1.0
        while step > 1e-14:
            if merit(s + step * ds, x + step * dx) <= m0 - 0.25 * step * lam2:
                break
            step *= 0.5
        s = s + step * ds
        x = x + step * dx
    return s, x
