"""Equality-constrained l1 minimization over a coefficient set.

solve_p1 minimizes ||x||_{1,X} subject to A x = y and x in X^N via ADMM on
min ||z||_{1,X} + indicator(A x = y), x = z.  The x-update is the projection
onto the affine constraint set through a cached projector, x = P v + q with
P = I - pinv(A) A and q = pinv(A) y built once per solve; the z-update is
the coefficient-set prox.  Block-diagonal operators are solved as a batch of
independent per-block problems iterating in lockstep, which is the
separability of the problem made concrete: a repeated block shares one
projector, so the x-update of all B blocks is a single matrix product.
solve_batch iterates several such problems of one shape in one loop, each
with its own step size and stop test, which shares NumPy's per-call cost
among them; solve_p1 is its one-problem case.
"""

import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from .coeffsets import CoeffSet, SignalVector, _prox, norm_l1x

SUCCESS_THRESHOLD = 1e-3   # relative l2 error below which recovery succeeds
POLISH_ACT_TOL = 1e-4      # polish: |coordinate| above which it stays free


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
    wall_time: float   # own set-up and polish plus a share of the batched loop


def _norm(a):
    # np.linalg.norm's Frobenius norm (same dot, same sqrt) minus its dispatch
    d = a.ravel()
    return math.sqrt(d.dot(d))


def state_bytes(B, c, shared):
    """Bytes admm_l1x holds per problem of B blocks of c columns: its
    projectors (one for all blocks when shared) and 16 (B, c) arrays of
    iterates, buffers and temporaries."""
    return 8 * ((1 if shared else B) * c * c + 16 * B * c)


def _setup(stack, y_blocks, shared):
    """One problem's projector P = I - pinv(A) A and offset q = pinv(A) y:
    one (c, c) P for a repeated block, else a (B, c, c) stack."""
    c = stack.shape[2]
    if shared:
        pinv = np.linalg.pinv(stack[0])
        return np.eye(c) - pinv @ stack[0], y_blocks @ pinv.T
    pinv = np.linalg.pinv(stack)
    return (np.eye(c) - pinv @ stack,
            np.matmul(pinv, y_blocks[:, :, None])[:, :, 0])


def admm_l1x(stacks, y_blocks, coeff_set, shared, opts=DEFAULT_OPTIONS):
    """Core ADMM over a batch of independent problems of one block shape.

    stacks: a sequence of (B, r, c) real block stacks; y_blocks: their
    (B, r) measurements.  shared=True says each problem's blocks are all its
    stack[0]: one projector then serves its B blocks and its x-update is one
    GEMM; otherwise it is one matrix-vector product per block.  Every
    problem carries its own rho, step 1/rho, residual norms and stop test,
    each norm is that problem's own dot, and every matrix product keeps the
    one-problem shape, so a problem's iterates do not depend on the batch
    it runs in.  A problem that stops is compacted out of the active arrays.

    Returns one (z, status, s_norm, iterations, seconds) per problem, z of
    shape (B, c).  seconds is the problem's own set-up time plus its share
    of the loop: the time between compaction events divided among the
    problems active then.
    """
    results, seconds = [None] * len(stacks), [0.0] * len(stacks)
    active, Ps, qs = [], [], []
    for k, (stack, yb) in enumerate(zip(stacks, y_blocks)):
        t0 = time.perf_counter()
        P, q = _setup(stack, yb, shared)
        feas = _norm(np.einsum("brc,bc->br", stack, q) - yb)
        if feas > opts.feas_tol * (1.0 + _norm(yb)):
            results[k] = (np.zeros_like(q), SolveStatus.INFEASIBLE, 0.0, 0)
        else:
            active.append(k)
            Ps.append(P)
            qs.append(q)
        seconds[k] = time.perf_counter() - t0
    if not active:
        return [r + (t,) for r, t in zip(results, seconds)]

    t_last = time.perf_counter()
    P, q = np.stack(Ps), np.stack(qs)
    n, B, c = q.shape
    # two sets of rows x - z, z - z_old, x, z, u per active problem, which
    # alternate as this iteration's and the last one's; set 0 is read first
    state = np.empty((2, 5, n, B, c))
    state[0, 3], state[0, 4] = q, 0.0
    rho = [opts.rho] * n
    step = np.array([1.0 / r for r in rho])[:, None, None]
    sq_dim = math.sqrt(B * c)
    tol, sqrt = opts.tol, math.sqrt
    work = _workspace(state, P, shared)
    for it in range(1, opts.max_iters + 1):
        (dxz, dz, x, z, u, x_col, z_old, u_old, PT, v, v_col, w, flat, flat_t,
         sq, sq_rows) = work[it % 2]
        np.subtract(z_old, u_old, out=v)
        if shared:
            np.matmul(v, PT, out=x)
        else:
            np.matmul(P, v_col, out=x_col)
        x += q
        np.add(x, u_old, out=w)
        _prox(w, step, coeff_set, out=z)
        np.subtract(w, z, out=u)
        np.subtract(x, z, out=dxz)
        np.subtract(z, z_old, out=dz)
        # each problem's squared norms, one BLAS dot per row and problem
        np.matmul(flat, flat_t, out=sq)
        r2, s2, x2, z2, u2 = sq_rows.tolist()
        done = []
        for j, a in enumerate(r2):
            if sqrt(a) <= tol * (sq_dim + max(sqrt(x2[j]), sqrt(z2[j]))) \
                    and rho[j] * sqrt(s2[j]) <= tol * (sq_dim + rho[j]
                                                       * sqrt(u2[j])):
                done.append(j)
        if done:
            t_last = _charge(seconds, active, t_last)
            for j in done:
                results[active[j]] = (z[j].copy(), SolveStatus.CONVERGED,
                                      rho[j] * sqrt(s2[j]), it)
            keep = [j for j in range(len(active)) if j not in done]
            if not keep:
                break
            active = [active[j] for j in keep]
            rho = [rho[j] for j in keep]
            r2, s2 = [r2[j] for j in keep], [s2[j] for j in keep]
            P, q, state = P[keep], q[keep], state[:, :, keep]
            step = step[keep]
            work = _workspace(state, P, shared)
        if it <= opts.adapt_until and it % opts.adapt_every == 0:
            factor = [1.0] * len(active)
            for j, (a, b) in enumerate(zip(r2, s2)):
                r_norm, s_norm = sqrt(a), rho[j] * sqrt(b)
                if r_norm > 10.0 * s_norm:
                    rho[j], factor[j] = rho[j] * 2.0, 0.5
                elif s_norm > 10.0 * r_norm:
                    rho[j], factor[j] = rho[j] / 2.0, 2.0
            if factor != [1.0] * len(active):
                state[it % 2, 4] *= np.array(factor)[:, None, None]
                step = np.array([1.0 / r for r in rho])[:, None, None]
    else:
        _charge(seconds, active, t_last)
        for j, k in enumerate(active):
            results[k] = (state[it % 2, 3, j].copy(), SolveStatus.MAX_ITERS,
                          rho[j] * sqrt(s2[j]), it)
    return [r + (t,) for r, t in zip(results, seconds)]


def _workspace(state, P, shared):
    """The loop's arrays for each parity of the iteration count: the five
    rows it writes (and x as columns), the last iteration's z and u, the
    transposed projectors, the v and w buffers, and each problem's rows
    flattened to (1, B*c) and (B*c, 1) matrices with their squared norms."""
    v = np.empty(state.shape[2:])
    sq = np.empty(state.shape[1:3] + (1, 1))
    common = (P.transpose(0, 2, 1) if shared else None, v, v[..., None],
              np.empty_like(v))
    work = []
    for i in (0, 1):
        rows, last = state[i], state[1 - i]
        flat = rows.reshape(rows.shape[:2] + (1, -1))
        work.append((*rows, rows[2, ..., None], last[3], last[4], *common,
                     flat, flat.transpose(0, 1, 3, 2), sq,
                     sq.reshape(sq.shape[:2])))
    return work


def _charge(seconds, active, t_last):
    """Share the loop time since t_last among the active problems."""
    now = time.perf_counter()
    share = (now - t_last) / len(active)
    for k in active:
        seconds[k] += share
    return now


def _polish_block(Ab, yb, zb, coeff_set):
    """Active-set refinement of one nearly-converged block solution.

    Pins coordinates at the pattern read off zb and least-squares the free
    ones.  Returns None when the result leaves the coefficient set or fits
    the measurements worse than zb."""
    if coeff_set is CoeffSet.COMPLEX:
        pairs = zb.reshape(-1, 2)
        free = np.linalg.norm(pairs, axis=1) > POLISH_ACT_TOL
        free_cols = np.repeat(free, 2)
        target = yb
        fixed = np.zeros_like(zb)
    elif coeff_set is CoeffSet.BOX01:
        at_one = zb > 1.0 - POLISH_ACT_TOL
        free_cols = (zb > POLISH_ACT_TOL) & ~at_one
        fixed = np.where(at_one, 1.0, 0.0)
        target = yb - Ab @ fixed
    else:
        free_cols = np.abs(zb) > POLISH_ACT_TOL
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


def solve_batch(ops, ys, coeff_set, opts=DEFAULT_OPTIONS):
    """Solve (P_1,X) for each MeasurementOperator in ops and its real
    measurement vector in ys, in one admm_l1x call.

    The operators must share one block shape and one `shared` flag.  Each
    result is the one solve_p1 gives for that problem alone; its wall_time
    is the problem's own set-up and polish time plus its share of the
    batched loop (see admm_l1x), so a batch's times sum to its solve time.
    """
    stacks = [A.real_block_stack(coeff_set) for A in ops]
    if len({s.shape for s in stacks}) > 1 or len({A.shared for A in ops}) > 1:
        raise ValueError("a batch needs one block shape and one shared flag")
    y_blocks = [np.asarray(y, dtype=float).reshape(s.shape[:2])
                for s, y in zip(stacks, ys)]
    shared = bool(ops) and ops[0].shared
    solved = admm_l1x(stacks, y_blocks, coeff_set, shared, opts)
    return [_finish(A, stack, yb, coeff_set, opts, *out)
            for A, stack, yb, out in zip(ops, stacks, y_blocks, solved)]


def _finish(A, stack, y_blocks, coeff_set, opts, z, status, s_norm, iters,
            seconds):
    """One problem's SolveResult: solves that hit the iteration cap get an
    active-set polish before the result is reported."""
    t0 = time.perf_counter()
    if status is SolveStatus.MAX_ITERS:
        z = _polish(stack, y_blocks, z, coeff_set)
    values = z.reshape(-1)
    x1 = SignalVector(values, coeff_set, A.block_shape[1], stack.shape[0])

    feas = float(np.linalg.norm(
        np.einsum("brc,bc->br", stack, z) - y_blocks))
    if status is SolveStatus.CONVERGED and \
            feas > opts.feas_tol * (1.0 + np.linalg.norm(y_blocks)):
        status = SolveStatus.MAX_ITERS
    return SolveResult(x1=x1, status=status, primal_residual=feas,
                       dual_residual=s_norm, iterations=iters,
                       value=norm_l1x(values, coeff_set),
                       wall_time=seconds + time.perf_counter() - t0)


def solve_p1(A, y_real, coeff_set, opts=DEFAULT_OPTIONS):
    """Solve (P_1,X) for the MeasurementOperator A, block by block.

    y_real is the real-representation measurement vector.  The one-problem
    case of solve_batch.
    """
    return solve_batch([A], [y_real], coeff_set, opts)[0]


def declare_success(x0, x1):
    """Reconstruction success: relative l2 error below SUCCESS_THRESHOLD."""
    return relative_error(x0, x1) < SUCCESS_THRESHOLD


def relative_error(x0, x1):
    """||x0 - x1|| / ||x0||; a zero reference scores 0 when x1 is zero too
    and 1 otherwise, so it succeeds only if recovered exactly."""
    v0 = np.asarray(x0, dtype=float)
    v1 = np.asarray(x1, dtype=float)
    if v0.shape != v1.shape:
        raise ValueError(f"shape mismatch: {v0.shape} vs {v1.shape}")
    n0 = np.linalg.norm(v0)
    if n0 == 0.0:
        return float(np.linalg.norm(v1) > 0.0)
    return float(np.linalg.norm(v0 - v1) / n0)
