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
among them; solve_p1 is its one-problem case.  The loop tests the stop
rule (Boyd et al. 2011, sec. 3.3.1) once per window of iterations, over
the iterates the window stored, in a history bounded by HISTORY_BYTES: a
problem still stops at its first passing iteration, so its iterates and
results are those of a test made every iteration.  Windows run up to 50
iterations while rho adapts and up to 250 once it is fixed (ADAPT_UNTIL),
so a long solve pays the test's per-window cost about once in 250
iterations.  At a window's end a screen (one row filled and two norms per
stored iteration) first rules out the windows where no stop can pass; the
full test (two rows, five norms) runs only where one can, and at the
window ends that adapt rho or reach the cap.  So a batch too large for
more than one iteration a window, as the grid's criterion-7 chunks are,
pays the screen nearly every iteration and the full test seldom.
max_batch bounds the problems one call takes, by BATCH_STATE_BYTES.
SolverOptions holds one setting, the iteration cap; the rest are constants.
"""

import enum
import math
import time
from dataclasses import dataclass

import numpy as np

from .coeffsets import CoeffSet, SignalVector, _prox, norm_l1x

SUCCESS_THRESHOLD = 1e-3   # relative l2 error below which recovery succeeds
POLISH_ACT_TOL = 1e-4      # polish: |coordinate| above which it stays free
# ADMM's stop rule and residual balancing (Boyd et al. 2011, sec. 3.3-3.4)
TOL = 1e-9           # relative primal/dual stopping tolerance
SCREEN_SLACK = 1e-6  # rounding slack of the stop test's screen (_screen)
FEAS_TOL = 1e-7      # constraint violation of the returned point
RHO = 1.0            # ADMM penalty, residual-balanced during warmup
ADAPT_EVERY = 50
ADAPT_UNTIL = 1000   # convergence needs an eventually fixed penalty
MAX_ITERS = 50000
# admm_l1x's window lengths, largest first, and the bound on its history of
# stored iterates: a lone small problem runs 50 iterations a window while
# rho adapts and 250 once it is fixed, while a batch whose two slots alone
# outgrow the bound runs one
WINDOWS = (250, 100, 50, 25, 10, 5, 2)
HISTORY_BYTES = 512 * 2 ** 10
# the bound on a call's state at a window of one iteration (see max_batch).
# Every iteration sweeps nearly all of it (the z - z_old rows only where
# the full stop test runs), and once it outgrows the cache the time per
# problem-iteration rises again: at the criterion-7 shape (166 kB a
# problem) 10-13 us at 25 problems, 16-18 us at 200, on a 2-core host
# (BENCH_27.json, us_per_iteration).  Within the bound a call still shares
# NumPy's per-call cost among dozens of problems at that shape and hundreds
# at the small ones, and no call holds more memory than one problem needs
# (~130 MB for one distinct-block problem at the multiblock guard).
BATCH_STATE_BYTES = 4 * 2 ** 20


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolverOptions:
    max_iters: int = MAX_ITERS

    def __post_init__(self):
        if isinstance(self.max_iters, bool) or \
                not isinstance(self.max_iters, (int, np.integer)):
            raise ValueError("max_iters must be an integer")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


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


def max_batch(B, c, shared):
    """How many problems of B blocks of c columns one admm_l1x call takes,
    at least 1: as many as keep its state under BATCH_STATE_BYTES.  A
    problem's state is its projectors (one for all blocks when shared) and
    16 (B, c) arrays, a bound on the 14 it holds at a window of one
    iteration: two history slots of five rows, q, v, w and the prox's step
    (half of one for COMPLEX, whose prox adds a half-size per-pair scale).
    A deeper window's history adds at most HISTORY_BYTES to a call."""
    state = 8 * ((1 if shared else B) * c * c + 16 * B * c)
    return max(1, BATCH_STATE_BYTES // state)


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


def admm_l1x(stacks, y_blocks, coeff_set, shared, max_iters=MAX_ITERS):
    """Core ADMM over a batch of independent problems of one block shape.

    stacks: a sequence of (B, r, c) real block stacks; y_blocks: their
    (B, r) measurements.  shared=True says each problem's blocks are all its
    stack[0]: one projector then serves its B blocks and its x-update is one
    GEMM; otherwise it is one matrix-vector product per block.  Every
    problem carries its own rho, step 1/rho, residual norms and stop test,
    each norm is that problem's own dot, and every matrix product keeps the
    one-problem shape, so a problem's iterates do not depend on the batch
    it runs in.

    The loop runs in windows of W iterations (see _window).  Inside a
    window it makes the updates alone, each iteration into its own slot of
    a history of W + 1 slots, walked forward and back by turns; at the
    window's end it tests the stop rule on every stored iteration at once,
    first by the screen (_screen), and then, where a stop can pass or the
    window end adapts rho or reaches the cap, in full (_norms).
    A problem stops at its first passing iteration, with that iteration's
    z, exactly as if it had been tested every iteration; its later
    iterates in the window are dropped.  Stopped problems are compacted out
    of the active arrays at the window's end, and rho adaptation and the
    iteration cap max_iters fall on window ends too.  Each compaction lays
    the arrays out anew (_layout), and so does the window end at
    ADAPT_UNTIL, where rho is fixed and W may lengthen.

    Returns one (z, status, s_norm, iterations, seconds) per problem, z of
    shape (B, c).  seconds is the problem's own set-up time plus its share
    of the loop: the time between compaction events (window ends) divided
    among the problems active then.
    """
    results, seconds = [None] * len(stacks), [0.0] * len(stacks)
    active, Ps, qs = [], [], []
    for k, (stack, yb) in enumerate(zip(stacks, y_blocks)):
        t0 = time.perf_counter()
        P, q = _setup(stack, yb, shared)
        feas = _norm(np.einsum("brc,bc->br", stack, q) - yb)
        if feas > FEAS_TOL * (1.0 + _norm(yb)):
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
    del Ps, qs
    n, B, c = q.shape
    # history slots of rows x - z, z - z_old, x, z, u per active problem,
    # seen forward and reversed (side 0, 1); a window runs its side's view
    # from slot `first`, the last iteration's, to slot W, the other's 0
    W, hists, steps, work = _layout(P, np.stack((q, np.zeros_like(q))), 0,
                                    shared, max_iters)
    side = first = it = 0
    h = hists[0]
    rho = np.full(n, RHO)
    # the prox's step 1/rho at the shape of its operand: v's for the real
    # sets, one entry per pair for COMPLEX
    step = _full_step(rho, (n, B, c // 2 if coeff_set.is_complex else c))
    sq_dim = math.sqrt(B * c)
    while True:
        # the window ends on the next multiple of W, whose rows slot W holds
        _update(steps[side][first:], P, q, step, coeff_set, *work)
        it += W - first
        adapts = it <= ADAPT_UNTIL and it % ADAPT_EVERY == 0
        if not (adapts or it == max_iters
                or _screen(h[first:], sq_dim)[0].any()):
            # no stop can pass: no residual is read before the next test
            side = 1 - side
            h, first = hists[side], it % W
            continue
        r, s, xn, zn, un = _norms(h[first:]).transpose(1, 0, 2)
        s = rho * s
        passed = (r <= TOL * (sq_dim + np.maximum(xn, zn))) \
            & (s <= TOL * (sq_dim + rho * un))
        done = passed.any(axis=0)
        if done.any():
            t_last = _charge(seconds, active, t_last)
            for j in np.flatnonzero(done).tolist():
                i = int(passed[:, j].argmax())
                slot = first + 1 + i
                results[active[j]] = (h[slot, 3, j].copy(),
                                      SolveStatus.CONVERGED, float(s[i, j]),
                                      it - W + slot)
            keep = np.flatnonzero(~done)
            if not keep.size:
                break
            active = [active[j] for j in keep.tolist()]
            P, q, rho, step = P[keep], q[keep], rho[keep], step[keep]
            r, s = r[:, keep], s[:, keep]
            zu = h[W, 3:][:, keep]
        elif it == ADAPT_UNTIL < max_iters:
            zu = h[W, 3:].copy()   # rho is fixed from here: longer windows
        else:
            zu, side = None, 1 - side
        if zu is not None:
            del h, hists, steps   # freed before _layout allocates anew
            W, hists, steps, work = _layout(P, zu, it, shared, max_iters)
            side = 0
        h, first = hists[side], it % W
        if it == max_iters:
            _charge(seconds, active, t_last)
            for j, k in enumerate(active):
                results[k] = (h[first, 3, j].copy(), SolveStatus.MAX_ITERS,
                              float(s[-1, j]), it)
            break
        if adapts:
            up, down = r[-1] > 10.0 * s[-1], s[-1] > 10.0 * r[-1]
            if up.any() or down.any():
                h[first, 4] *= np.where(up, 0.5, np.where(down, 2.0, 1.0)
                                        )[:, None, None]
                rho = np.where(up, rho * 2.0, np.where(down, rho / 2.0, rho))
                step = _full_step(rho, step.shape)
    return [r + (t,) for r, t in zip(results, seconds)]


def _full_step(rho, shape):
    """Each problem's step 1/rho repeated over its part of shape."""
    return np.broadcast_to((1.0 / rho)[:, None, None], shape).copy()


def _window(n, B, c, max_iters, it):
    """Iterations per window for n problems of B blocks of c columns after
    iteration `it`: the largest of WINDOWS that divides max_iters (so that
    the cap falls on a window end), that divides ADAPT_EVERY while rho still
    adapts (it < ADAPT_UNTIL, so that adaptation does too), and whose W + 1
    history slots fit in HISTORY_BYTES; else 1."""
    return next((W for W in WINDOWS if max_iters % W == 0
                 and (it >= ADAPT_UNTIL or ADAPT_EVERY % W == 0)
                 and 8 * 5 * (W + 1) * n * B * c <= HISTORY_BYTES), 1)


def _layout(P, zu, it, shared, max_iters):
    """The loop's arrays after iteration `it` for the active problems, whose
    projectors are P and whose last z and u rows are zu: the window W for
    iteration `it` and the cap max_iters, the history of W + 1 slots with
    zu in slot it % W (so that the next window ends in slot W) and its
    reversed view, per view the views each iteration writes (x, z, u and x
    as columns) and reads (the previous z and u), and _update's work
    arrays.  Entry i of a view's list writes its slot i + 1 from its slot
    i."""
    _, n, B, c = zu.shape
    W = _window(n, B, c, max_iters, it)
    hist = np.empty((W + 1, 5, n, B, c))
    hist[it % W, 3:] = zu
    hists = hist, hist[::-1]
    # each slot's x, z, u and x as columns, one set of views for both
    # sides, since slot i of the reversed view is slot W - i
    slots = list(zip(hist[:, 2], hist[:, 3], hist[:, 4],
                     hist[:, 2, ..., None]))
    steps = [[slots[i] + slots[i - 1][1:3] for i in range(1, W + 1)],
             [slots[W - i] + slots[W - i + 1][1:3] for i in range(1, W + 1)]]
    v = np.empty((n, B, c))
    return W, hists, steps, (P.transpose(0, 2, 1) if shared else None, v,
                             v[..., None], np.empty_like(v))


def _update(window, P, q, step, coeff_set, PT, v, v_col, w):
    """The ADMM updates of one window, each iteration into its own history
    slot: x by the projector (PT, the transposed one, when it is shared),
    then z by the prox and u.  step is at the prox's full shape, and v,
    dead once the projector product is taken, is the prox's scratch.  The
    ufuncs are bound to local names once a window and take their array
    out positionally, which NumPy parses faster than a keyword."""
    subtract, add, matmul = np.subtract, np.add, np.matmul
    for x, z, u, x_col, z_old, u_old in window:
        subtract(z_old, u_old, v)
        if PT is None:
            matmul(P, v_col, x_col)
        else:
            matmul(v, PT, x)
        add(x, q, x)
        add(x, u_old, w)
        _prox(w, step, coeff_set, z, v)
        subtract(w, z, u)


def _norms(window):
    """The norms of rows x - z, z - z_old, x, z, u of the iterations a
    window wrote into its slots after the first, as (slots - 1, 5, n).
    Fills the x - z and z - z_old rows first; each squared norm is one
    BLAS dot per row, problem and iteration, as for one problem alone.
    admm_l1x calls it only where _screen lets a slot pass, or where the
    window end adapts rho or reaches the cap, which read its residuals."""
    now, last = window[1:], window[:-1]
    np.subtract(now[:, 2], now[:, 3], out=now[:, 0])
    np.subtract(now[:, 3], last[:, 3], out=now[:, 1])
    return _row_norms(now)


def _screen(window, sq_dim):
    """Which iterations of a window can pass the primal stop test, as a
    mask of shape (slots - 1, n), with the ||x - z|| and ||z|| (r, zn) it
    rests on.  Fills the x - z row and takes the two rows' norms in one
    call, where _norms fills two rows and takes five norms.

    A slot passes only if r <= TOL (sqrt(Bc) + max(||x||, ||z||)), and
    ||x|| <= ||z|| + r, so only if r <= TOL (sqrt(Bc) + ||z|| + r): the
    screen tests that with r scaled by 1 - SCREEN_SLACK, as
    r (1 - SCREEN_SLACK - TOL) <= TOL (sqrt(Bc) + ||z||).  The slack covers
    rounding.  Each norm is the root of a sum of L squares, L = Bc (the
    entries of x - z rounded once more), so in any order of summation the
    screen's r and zn and _norms's r, ||x|| and ||z|| are each within a
    relative L eps of the exact norms (eps = 2**-53), and a slot that
    _norms passes meets the scaled test whenever SCREEN_SLACK >= 4 L eps:
    rows of up to 2.2e9 entries, against 8192 at the desk-scale guard
    (2 B M <= 2 MULTIBLOCK_N_LIMIT).  Entries between 1e-150 and 1e150
    neither overflow nor underflow when squared."""
    now = window[1:]
    np.subtract(now[:, 2], now[:, 3], out=now[:, 0])
    r, zn = _row_norms(now[:, ::3]).transpose(1, 0, 2)   # x - z and z
    return r * (1.0 - SCREEN_SLACK - TOL) <= TOL * (sq_dim + zn), r, zn


def _row_norms(rows):
    """The l2 norm of each problem's (B, c) row in rows, of shape (slots,
    k, n, B, c), as (slots, k, n): each squared norm is one BLAS dot, as
    for one problem alone, and all of them are one matmul call."""
    flat = rows.reshape(rows.shape[:3] + (1, -1))
    return np.sqrt(np.matmul(flat, flat.transpose(0, 1, 2, 4, 3))
                   [..., 0, 0])


def _charge(seconds, active, t_last):
    """Share the loop time since t_last among the active problems."""
    now = time.perf_counter()
    share = (now - t_last) / len(active)
    for k in active:
        seconds[k] += share
    return now


def _polish_block(Ab, yb, zb, feas_z, coeff_set):
    """Active-set refinement of one nearly-converged block solution.

    Pins coordinates at the pattern read off zb and least-squares the free
    ones.  Returns None when the result leaves the coefficient set or fits
    the measurements worse than zb, whose ||Ab zb - yb|| is feas_z."""
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
    if np.linalg.norm(Ab @ x - yb) > feas_z + 1e-12:
        return None
    return np.clip(x, 0.0, 1.0) if coeff_set is CoeffSet.BOX01 else \
        np.maximum(x, 0.0) if coeff_set is CoeffSet.NONNEG else x


def _polish(stack, y_blocks, z, coeff_set):
    out = z.copy()
    for b in range(stack.shape[0]):
        feas_z = np.linalg.norm(stack[b] @ z[b] - y_blocks[b])
        cand = _polish_block(stack[b], y_blocks[b], z[b], feas_z, coeff_set)
        if cand is None:
            continue
        # an infeasible z can undercut the optimum, so grant value slack in
        # proportion to the feasibility the polish repairs
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
    solved = admm_l1x(stacks, y_blocks, coeff_set, shared, opts.max_iters)
    return [_finish(A, stack, yb, coeff_set, *out)
            for A, stack, yb, out in zip(ops, stacks, y_blocks, solved)]


def _finish(A, stack, y_blocks, coeff_set, z, status, s_norm, iters, seconds):
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
            feas > FEAS_TOL * (1.0 + np.linalg.norm(y_blocks)):
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
