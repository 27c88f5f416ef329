"""Equality-constrained l1 minimization over a coefficient set.

solve_p1 minimizes ||x||_{1,X} subject to A x = y and x in X^N via ADMM on
min ||z||_{1,X} + indicator(A x = y), x = z.  The x-update is the projection
onto the affine constraint set through a cached projector, x = P v + q with
P = I - pinv(A) A and q = pinv(A) y built once per solve; the z-update is
the coefficient-set prox.  Block-diagonal operators are solved as a batch of
independent per-block problems iterating in lockstep, which is the
separability of the problem made concrete: a repeated block shares one
projector, so the x-update of all B blocks is a single matrix product.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .coeffsets import CoeffSet, SignalVector, norm_l1x, prox_step
from .ensembles import MeasurementOperator

SUCCESS_THRESHOLD = 1e-3   # relative l2 error below which recovery succeeds


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-9          # relative primal/dual stopping tolerance
    feas_tol: float = 1e-7     # constraint violation of the returned point
    max_iters: int = 50000
    rho: float = 1.0           # ADMM penalty, residual-balanced during warmup
    adapt_every: int = 50
    adapt_until: int = 1000    # convergence needs an eventually fixed penalty


DEFAULT_OPTIONS = SolverOptions()


@dataclass
class SolveResult:
    x1: SignalVector
    status: SolveStatus
    primal_residual: float
    dual_residual: float
    iterations: int
    value: float


def _norm(a):
    # np.linalg.norm's Frobenius norm (same dot, same sqrt) minus its dispatch
    d = a.ravel()
    return math.sqrt(d.dot(d))


def admm_l1x(stack, y_blocks, coeff_set, opts=DEFAULT_OPTIONS, shared=False):
    """Core batched ADMM.  stack: (B, r, c) real blocks; y_blocks: (B, r).

    shared=True says every block is stack[0]: one projector then serves all
    B blocks and the x-update is one GEMM; otherwise it is a batched matmul.
    Returns (z, status, r_norm, s_norm, iterations) with z of shape (B, c).
    """
    B, _, c = stack.shape
    if shared:
        pinv = np.linalg.pinv(stack[0])
        P = np.eye(c) - pinv @ stack[0]
        q = y_blocks @ pinv.T
    else:
        pinv = np.linalg.pinv(stack)
        P = np.eye(c) - pinv @ stack
        q = np.matmul(pinv, y_blocks[:, :, None])[:, :, 0]

    feas = _norm(np.einsum("brc,bc->br", stack, q) - y_blocks)
    if feas > opts.feas_tol * (1.0 + _norm(y_blocks)):
        return np.zeros((B, c)), SolveStatus.INFEASIBLE, feas, 0.0, 0

    z, u, rho = q, np.zeros_like(q), opts.rho
    sq_dim = math.sqrt(B * c)
    r_norm = s_norm = np.inf
    it = 0
    for it in range(1, opts.max_iters + 1):
        v = z - u
        x = v @ P.T + q if shared else np.matmul(P, v[:, :, None])[:, :, 0] + q
        w = x + u
        z_old = z
        z = prox_step(w, 1.0 / rho, coeff_set)
        u = w - z
        r_norm = _norm(x - z)
        s_norm = rho * _norm(z - z_old)
        if r_norm <= opts.tol * (sq_dim + max(_norm(x), _norm(z))) and \
                s_norm <= opts.tol * (sq_dim + rho * _norm(u)):
            return z, SolveStatus.CONVERGED, r_norm, s_norm, it
        if it <= opts.adapt_until and it % opts.adapt_every == 0:
            if r_norm > 10.0 * s_norm:
                rho *= 2.0
                u /= 2.0
            elif s_norm > 10.0 * r_norm:
                rho /= 2.0
                u *= 2.0
    return z, SolveStatus.MAX_ITERS, r_norm, s_norm, it


def _polish_block(Ab, yb, zb, coeff_set, act_tol=1e-4):
    """Active-set refinement of one nearly-converged block solution.

    Pins coordinates at the pattern read off zb and least-squares the free
    ones.  Returns None when the result leaves the coefficient set or fits
    the measurements worse than zb."""
    if coeff_set is CoeffSet.COMPLEX:
        pairs = zb.reshape(-1, 2)
        free = np.linalg.norm(pairs, axis=1) > act_tol
        free_cols = np.repeat(free, 2)
        target = yb
        fixed = np.zeros_like(zb)
    elif coeff_set is CoeffSet.BOX01:
        at_one = zb > 1.0 - act_tol
        free_cols = (zb > act_tol) & ~at_one
        fixed = np.where(at_one, 1.0, 0.0)
        target = yb - Ab @ fixed
    else:
        free_cols = np.abs(zb) > act_tol
        fixed = np.zeros_like(zb)
        target = yb
    x = fixed.copy()
    if free_cols.any():
        sol, *_ = np.linalg.lstsq(Ab[:, free_cols], target, rcond=None)
        x[free_cols] = sol
    if coeff_set is CoeffSet.BOX01 and not ((x > -1e-9) & (x < 1 + 1e-9)).all():
        return None
    if coeff_set is CoeffSet.NONNEG and not (x > -1e-9).all():
        return None
    if np.linalg.norm(Ab @ x - yb) > np.linalg.norm(Ab @ zb - yb) + 1e-12:
        return None
    return np.clip(x, 0.0, 1.0) if coeff_set is CoeffSet.BOX01 else \
        np.maximum(x, 0.0) if coeff_set is CoeffSet.NONNEG else x


def _polish(stack, y_blocks, z, coeff_set):
    out = z.copy()
    for b in range(stack.shape[0]):
        cand = _polish_block(stack[b], y_blocks[b], z[b], coeff_set)
        if cand is None:
            continue
        # an infeasible z can undercut the optimum, so grant value slack in
        # proportion to the feasibility the polish repairs
        feas_z = np.linalg.norm(stack[b] @ z[b] - y_blocks[b])
        slack = 1e-9 + 1e4 * feas_z
        if norm_l1x(cand, coeff_set) <= norm_l1x(z[b], coeff_set) + slack:
            out[b] = cand
    return out


def solve_p1(A, y_real, coeff_set, opts=DEFAULT_OPTIONS):
    """Solve (P_1,X) for a MeasurementOperator (or dense real matrix) A.

    y_real is the real-representation measurement vector.  Operators are
    solved per diagonal block; a dense matrix runs as a single block.
    Solves that hit the iteration cap get an active-set polish before the
    result is reported.
    """
    if isinstance(A, MeasurementOperator):
        stack = A.real_block_stack(coeff_set)
        M_block = A.block_shape[1]
        B = stack.shape[0]
        shared = A.shared
    else:
        stack = np.asarray(A, dtype=float)[None]
        M_block = stack.shape[2] // coeff_set.ambient_dim
        B = 1
        shared = True
    y_blocks = np.asarray(y_real, dtype=float).reshape(B, stack.shape[1])

    z, status, r_norm, s_norm, iters = admm_l1x(stack, y_blocks, coeff_set,
                                                opts, shared)
    if status is SolveStatus.MAX_ITERS:
        z = _polish(stack, y_blocks, z, coeff_set)
    values = z.reshape(-1)
    x1 = SignalVector(values, coeff_set, M_block, B)

    feas = float(np.linalg.norm(
        np.einsum("brc,bc->br", stack, z) - y_blocks))
    if status is SolveStatus.CONVERGED and \
            feas > opts.feas_tol * (1.0 + np.linalg.norm(y_blocks)):
        status = SolveStatus.MAX_ITERS
    return SolveResult(x1=x1, status=status, primal_residual=feas,
                       dual_residual=s_norm, iterations=iters,
                       value=norm_l1x(values, coeff_set))


def declare_success(x0, x1, threshold=SUCCESS_THRESHOLD):
    """Reconstruction success: relative l2 error below the fixed threshold."""
    return relative_error(x0, x1) < threshold


def relative_error(x0, x1):
    """||x0 - x1|| / ||x0||; a zero reference scores 0 when x1 is zero too
    and 1 otherwise, so it succeeds only if recovered exactly."""
    v0 = x0.values if isinstance(x0, SignalVector) else np.asarray(x0, float)
    v1 = x1.values if isinstance(x1, SignalVector) else np.asarray(x1, float)
    if v0.shape != v1.shape:
        raise ValueError(f"shape mismatch: {v0.shape} vs {v1.shape}")
    n0 = np.linalg.norm(v0)
    if n0 == 0.0:
        return float(np.linalg.norm(v1) > 0.0)
    return float(np.linalg.norm(v0 - v1) / n0)
