import numpy as np
import pytest

from ptlab.coeffsets import CoeffSet, norm_l1x, prox_step
from ptlab.ensembles import (ProblemSizes, dbuse, make_block_diagonal,
                             partial_dft_block, rbpft, rbuse, sample_signal,
                             sample_use)
from ptlab.oracle import RESIDUAL_CERT, lp_oracle, socp_min_l1x
from ptlab.seeds import stream
from ptlab import solver
from ptlab.solver import (ADAPT_EVERY, ADAPT_UNTIL, DEFAULT_OPTIONS, FEAS_TOL,
                          MAX_ITERS, RHO, TOL, SolverOptions, SolveStatus,
                          admm_l1x, declare_success, relative_error,
                          solve_batch, solve_p1)

ALL_SETS = (CoeffSet.BOX01, CoeffSet.NONNEG, CoeffSet.REAL, CoeffSet.COMPLEX)


def random_instance(rng, cs, M=None, m=None, ell=None):
    M = M if M is not None else int(rng.integers(4, 13))
    m = m if m is not None else int(rng.integers(2, M + 1))
    ell = ell if ell is not None else int(rng.integers(0, max(m - 1, 1)))
    A = sample_use(m, M, "complex" if cs.is_complex else "real", rng)
    x0 = sample_signal(ProblemSizes(ell, m, M, 1), cs, rng)
    return A, x0


def test_identity_recovers_anything():
    rng = stream(0, "ident")
    for cs in ALL_SETS:
        A = np.eye(6)
        op = make_block_diagonal([A], 1, repeated=True)
        x0 = sample_signal(ProblemSizes(4, 6, 6, 1), cs, rng)
        res = solve_p1(op, op.apply(x0.values, cs), cs)
        assert res.status is SolveStatus.CONVERGED
        assert relative_error(x0.values, res.x1.values) < 1e-8


def test_partial_dft_one_sparse_recovery():
    op = rbpft(4, [0, 1, 2], 1)
    x0 = np.zeros(4)
    x0[0] = 1.0
    y = op.apply(x0, CoeffSet.REAL)
    res = solve_p1(op, y, CoeffSet.REAL)
    assert relative_error(x0, res.x1.values) < 1e-6
    oracle = lp_oracle(op.dense_real(CoeffSet.REAL), y, CoeffSet.REAL)
    assert abs(res.value - oracle.value) < 1e-6


def test_partial_dft_determined_real_case():
    # complex rows of a real vector contribute two real equations each, so
    # K = {0, 1, 2} at M = 4 already determines every real 4-vector
    op = rbpft(4, [0, 1, 2], 1)
    rng = stream(1, "det")
    x0 = rng.standard_normal(4) + np.array([3.0, -3.0, 3.0, -3.0])
    y = op.apply(x0, CoeffSet.REAL)
    res = solve_p1(op, y, CoeffSet.REAL)
    assert relative_error(x0, res.x1.values) < 1e-6


def test_underdetermined_dense_failure_case():
    # 4 nonzeros against 3 real equations: a dense vector with large entries
    # is not the l1 minimizer; the returned point is optimal but wrong
    rng = stream(1, "fail")
    A = sample_use(3, 4, "real", rng)
    op = make_block_diagonal([A], 1, repeated=True)
    x0 = rng.standard_normal(4) + np.array([3.0, -3.0, 3.0, -3.0])
    y = op.apply(x0, CoeffSet.REAL)
    res = solve_p1(op, y, CoeffSet.REAL)
    assert relative_error(x0, res.x1.values) > 0.001
    assert res.value <= norm_l1x(x0, CoeffSet.REAL) + 1e-6
    oracle = lp_oracle(A, y, CoeffSet.REAL)
    assert abs(res.value - oracle.value) < 1e-6


def test_separability_of_value():
    rng = stream(2, "sep")
    B, m, M = 4, 4, 8
    blocks = [sample_use(m, M, "real", rng) for _ in range(B)]
    op = make_block_diagonal(blocks, B)
    x0 = sample_signal(ProblemSizes(2, m, M, B), CoeffSet.REAL, rng)
    y = op.apply(x0.values, CoeffSet.REAL)
    res = solve_p1(op, y, CoeffSet.REAL)
    total = 0.0
    for b in range(B):
        op_b = make_block_diagonal([blocks[b]], 1, repeated=True)
        res_b = solve_p1(op_b, y[b * m:(b + 1) * m], CoeffSet.REAL)
        total += res_b.value
    assert abs(res.value - total) < 1e-7 * (1 + total)


def test_objective_never_exceeds_reference():
    rng = stream(3, "obj")
    for cs in ALL_SETS:
        for _ in range(10):
            A, x0 = random_instance(rng, cs)
            op = make_block_diagonal([A], 1, repeated=True)
            y = op.apply(x0.values, cs)
            res = solve_p1(op, y, cs)
            assert res.value <= norm_l1x(x0.values, cs) + 1e-6


def test_scaling_invariance():
    rng = stream(4, "scale")
    A, x0 = random_instance(rng, CoeffSet.REAL, M=8, m=5, ell=2)
    op = make_block_diagonal([A], 1, repeated=True)
    y = op.apply(x0.values, CoeffSet.REAL)
    v1 = solve_p1(op, y, CoeffSet.REAL).value
    op_scaled = make_block_diagonal([3.7 * A], 1, repeated=True)
    v2 = solve_p1(op_scaled, 3.7 * y, CoeffSet.REAL).value
    assert v1 == pytest.approx(v2, rel=1e-7)


def test_infeasible_detected():
    A = np.array([[1.0, 0.0], [1.0, 0.0]])
    op = make_block_diagonal([A], 1, repeated=True)
    res = solve_p1(op, np.array([0.0, 1.0]), CoeffSet.REAL)
    assert res.status is SolveStatus.INFEASIBLE


def test_zero_signal_flows_through():
    op = rbpft(5, [0, 1, 2], 2)
    y = op.apply(np.zeros(10), CoeffSet.REAL)
    res = solve_p1(op, y, CoeffSet.REAL)
    assert res.status is SolveStatus.CONVERGED
    assert np.all(res.x1.values == 0.0)
    assert relative_error(np.zeros(10), res.x1.values) == 0.0


def test_declare_success_examples():
    x0 = np.ones(4)
    assert declare_success(x0, x0.copy())
    x1 = x0 + 0.002 * np.array([1.0, 0, 0, 0])  # rel error 0.001, not below
    assert not declare_success(x0, x0 + 0.004 * np.eye(4)[0])
    assert declare_success(x0, x0 + 0.0018 * np.eye(4)[0])  # 0.0009
    # a zero reference succeeds only when recovered exactly
    assert declare_success(np.zeros(4), np.zeros(4))
    assert not declare_success(np.zeros(4), 1e-12 * x0)
    with pytest.raises(ValueError):
        declare_success(np.zeros(4), np.zeros(3))


def test_relative_error_rejects_shape_mismatch():
    # broadcasting would score a wrong-length estimate as an exact recovery
    with pytest.raises(ValueError):
        relative_error(np.ones(4), np.ones(1))


def test_oracle_hand_examples():
    r = lp_oracle(np.array([[1.0, 1.0]]), np.array([0.5]), CoeffSet.BOX01)
    assert r.value == pytest.approx(0.5, abs=1e-9)
    y = np.array([0.3, -1.2, 0.4])
    r = lp_oracle(np.eye(3), y, CoeffSet.REAL)
    assert r.value == pytest.approx(np.abs(y).sum(), abs=1e-9)
    r = lp_oracle(np.array([[1.0, -1.0]]), np.array([1.0]), CoeffSet.NONNEG)
    assert r.value == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(r.x, [1.0, 0.0], atol=1e-7)
    # complex identity: the barrier engine with an empty null space
    z = np.array([0.3 - 1.2j, 0.4 + 0.0j, -2.0 + 0.5j])
    op = make_block_diagonal([np.eye(3, dtype=complex)], 1, repeated=True)
    x_real = np.column_stack([z.real, z.imag]).reshape(-1)
    y = op.apply(x_real, CoeffSet.COMPLEX)
    r = lp_oracle(op.dense_real(CoeffSet.COMPLEX), y, CoeffSet.COMPLEX)
    assert r.value == pytest.approx(np.abs(z).sum(), abs=1e-9)
    assert np.allclose(r.x, x_real, atol=1e-9)
    assert r.residual <= 1e-12


def test_oracle_guard():
    with pytest.raises(ValueError, match="guard"):
        lp_oracle(np.zeros((4, 100)), np.zeros(4), CoeffSet.REAL)


def test_barrier_engine_agrees_with_highs_on_real():
    rng = stream(5, "barrier")
    worst = 0.0
    for _ in range(25):
        A, x0 = random_instance(rng, CoeffSet.REAL)
        y = A @ x0.values
        v_highs = lp_oracle(A, y, CoeffSet.REAL).value
        bar = socp_min_l1x(A, y, CoeffSet.REAL)
        assert bar.residual <= RESIDUAL_CERT * (1.0 + np.linalg.norm(y))
        worst = max(worst, abs(v_highs - bar.value))
    assert worst < 1e-6


def test_solver_vs_oracle_sample():
    # a smaller version of the full acceptance sweep
    rng = stream(6, "oracle")
    for cs in ALL_SETS:
        for _ in range(8):
            A, x0 = random_instance(rng, cs)
            op = make_block_diagonal([A], 1, repeated=True)
            y = op.apply(x0.values, cs)
            res = solve_p1(op, y, cs)
            oracle = lp_oracle(op.dense_real(cs), y, cs)
            scale = 1.0 + np.linalg.norm(y)
            assert oracle.residual <= RESIDUAL_CERT * scale
            assert res.primal_residual <= FEAS_TOL * scale
            assert abs(res.value - oracle.value) < 1e-6


def criterion_9_instance(coeff_set, index):
    """Rebuild one criterion-9 instance by replaying default_rng(99) through
    the draws of test_criterion_9_solver_vs_oracle, without solving."""
    rng = np.random.default_rng(99)
    for cs in (CoeffSet.BOX01, CoeffSet.NONNEG, CoeffSet.REAL,
               CoeffSet.COMPLEX):
        for i in range(50):
            M = int(rng.integers(4, 33))
            m = int(rng.integers(2, M + 1))
            ell = int(rng.integers(0, m))
            A = sample_use(m, M, "complex" if cs.is_complex else "real", rng)
            x0 = sample_signal(ProblemSizes(ell, m, M, 1), cs, rng)
            if cs is coeff_set and i == index:
                return make_block_diagonal([A], 1, repeated=True), x0, ell
    raise IndexError(index)


def test_barrier_oracle_stays_feasible_on_pinned_complex_instance():
    # COMPLEX iteration 37 of criterion 9 (cond(A) ~ 44): a barrier path that
    # drifts off {Ax = y} ends near ||Ax - y|| = 7.6e-7 here and undercuts
    # ADMM's value by 3e-6
    op, x0, ell = criterion_9_instance(CoeffSet.COMPLEX, 37)
    assert (op.block_shape, ell) == ((15, 16), 12)
    y = op.apply(x0.values, CoeffSet.COMPLEX)
    oracle = lp_oracle(op.dense_real(CoeffSet.COMPLEX), y, CoeffSet.COMPLEX)
    assert oracle.residual <= RESIDUAL_CERT * (1.0 + np.linalg.norm(y))
    res = solve_p1(op, y, CoeffSet.COMPLEX)
    assert res.status is SolveStatus.CONVERGED
    assert abs(res.value - oracle.value) < 1e-8


def test_polish_closes_the_gap_of_a_capped_solve():
    # BOX01 iteration 1 of criterion 9 runs to the iteration cap; its ADMM
    # iterate is 6.5e-5 above the optimum, and the active-set polish brings
    # it to 1.6e-14
    op, x0, ell = criterion_9_instance(CoeffSet.BOX01, 1)
    assert (op.block_shape, ell) == ((9, 21), 5)
    y = op.apply(x0.values, CoeffSet.BOX01)
    res = solve_p1(op, y, CoeffSet.BOX01)
    assert res.status is SolveStatus.MAX_ITERS
    assert res.iterations == DEFAULT_OPTIONS.max_iters
    oracle = lp_oracle(op.dense_real(CoeffSet.BOX01), y, CoeffSet.BOX01)
    assert abs(res.value - oracle.value) < 1e-6


def test_multiblock_complex_recovery():
    rng = stream(7, "mb")
    op = dbuse(6, 8, 3, "complex", rng)
    x0 = sample_signal(ProblemSizes(2, 6, 8, 3), CoeffSet.COMPLEX, rng)
    y = op.apply(x0.values, CoeffSet.COMPLEX)
    res = solve_p1(op, y, CoeffSet.COMPLEX)
    assert res.status is SolveStatus.CONVERGED
    assert relative_error(x0.values, res.x1.values) < 1e-6


def reference_admm(stack, y_blocks, cs, opts=DEFAULT_OPTIONS):
    """The two-einsum ADMM loop the projector kernel replaced, with its
    prox, kept as the reference for the kernel's iterates."""
    def prox(v, t):
        if cs is CoeffSet.COMPLEX:
            pairs = v.reshape(v.shape[0], -1, 2)
            nrm = np.linalg.norm(pairs, axis=2, keepdims=True)
            scale = np.where(nrm > t,
                             1.0 - t / np.where(nrm > 0.0, nrm, 1.0), 0.0)
            return (pairs * scale).reshape(v.shape)
        if cs is CoeffSet.BOX01:
            return np.clip(v - t, 0.0, 1.0)
        return prox_step(v, t, cs)

    B, r, c = stack.shape
    pinv, rho = np.linalg.pinv(stack), RHO
    z = np.einsum("bcr,br->bc", pinv, y_blocks)
    feas = np.linalg.norm(np.einsum("brc,bc->br", stack, z) - y_blocks)
    if feas > FEAS_TOL * (1.0 + np.linalg.norm(y_blocks)):
        return np.zeros((B, c)), SolveStatus.INFEASIBLE, 0
    u, sq_dim = np.zeros_like(z), np.sqrt(B * c)
    for it in range(1, opts.max_iters + 1):
        v = z - u
        x = v - np.einsum("bcr,br->bc", pinv,
                          np.einsum("brc,bc->br", stack, v) - y_blocks)
        z_old, z = z, prox(x + u, 1.0 / rho)
        u = u + x - z
        r_norm = np.linalg.norm(x - z)
        s_norm = rho * np.linalg.norm(z - z_old)
        eps_pri = TOL * (sq_dim + max(np.linalg.norm(x), np.linalg.norm(z)))
        eps_dual = TOL * (sq_dim + rho * np.linalg.norm(u))
        if r_norm <= eps_pri and s_norm <= eps_dual:
            return z, SolveStatus.CONVERGED, it
        if it <= ADAPT_UNTIL and it % ADAPT_EVERY == 0:
            if r_norm > 10.0 * s_norm:
                rho, u = rho * 2.0, u / 2.0
            elif s_norm > 10.0 * r_norm:
                rho, u = rho / 2.0, u * 2.0
    return z, SolveStatus.MAX_ITERS, it


def test_kernel_matches_reference_loop():
    # the projector kernel must walk the reference loop's iterates: same
    # iteration count and status, z equal up to roundoff
    rng = stream(8, "kernel")
    cases = [(make_block_diagonal([np.array([[1.0, 0.0], [1.0, 0.0]])], 1,
                                  repeated=True),
              np.array([0.0, 1.0]), CoeffSet.REAL)]
    for cs in ALL_SETS:
        field_name = "complex" if cs.is_complex else "real"
        for op in (make_block_diagonal([sample_use(5, 8, field_name, rng)], 1,
                                       repeated=True),
                   rbuse(5, 8, 3, field_name, rng),
                   dbuse(5, 8, 3, field_name, rng)):
            x0 = sample_signal(ProblemSizes(3, 5, 8, op.num_blocks), cs, rng)
            cases.append((op, op.apply(x0.values, cs), cs))
    statuses = []
    for op, y, cs in cases:
        stack = op.real_block_stack(cs)
        z, status, iters = reference_admm(stack, y.reshape(stack.shape[:2]), cs)
        res = solve_p1(op, y, cs)
        assert (res.iterations, res.status) == (iters, status)
        assert status is not SolveStatus.MAX_ITERS   # no polish in the way
        assert np.linalg.norm(res.x1.values - z.reshape(-1)) <= \
            1e-10 * (1.0 + np.linalg.norm(z))
        statuses.append(status)
    assert statuses[0] is SolveStatus.INFEASIBLE
    assert statuses[1:] == [SolveStatus.CONVERGED] * (len(cases) - 1)


def reference_one_problem(stack, y_blocks, shared, cs, opts=DEFAULT_OPTIONS):
    """The one-problem projector kernel that admm_l1x batches, with each
    norm its own dot: (z, status, s_norm, iterations)."""
    def norm(a):
        d = a.ravel()
        return np.sqrt(d.dot(d))

    B, _, c = stack.shape
    if shared:
        pinv = np.linalg.pinv(stack[0])
        P = np.eye(c) - pinv @ stack[0]
        q = y_blocks @ pinv.T
    else:
        pinv = np.linalg.pinv(stack)
        P = np.eye(c) - pinv @ stack
        q = np.matmul(pinv, y_blocks[:, :, None])[:, :, 0]
    feas = norm(np.einsum("brc,bc->br", stack, q) - y_blocks)
    if feas > FEAS_TOL * (1.0 + norm(y_blocks)):
        return np.zeros((B, c)), SolveStatus.INFEASIBLE, 0.0, 0
    z, u, rho, sq_dim = q, np.zeros_like(q), RHO, np.sqrt(B * c)
    for it in range(1, opts.max_iters + 1):
        v = z - u
        x = v @ P.T + q if shared else np.matmul(P, v[:, :, None])[:, :, 0] + q
        w = x + u
        z_old, z = z, prox_step(w, 1.0 / rho, cs)
        u = w - z
        r_norm, s_norm = norm(x - z), rho * norm(z - z_old)
        if r_norm <= TOL * (sq_dim + max(norm(x), norm(z))) and \
                s_norm <= TOL * (sq_dim + rho * norm(u)):
            return z, SolveStatus.CONVERGED, s_norm, it
        if it <= ADAPT_UNTIL and it % ADAPT_EVERY == 0:
            if r_norm > 10.0 * s_norm:
                rho, u = rho * 2.0, u / 2.0
            elif s_norm > 10.0 * r_norm:
                rho, u = rho / 2.0, u * 2.0
    return z, SolveStatus.MAX_ITERS, s_norm, it


def test_batch_composition_does_not_change_iterates():
    # a problem's iterates, stop and residuals are its own: alone, in a
    # batch, or in batches of other membership and order, bit for bit
    rng = stream(9, "batch")
    groups = []
    for cs in ALL_SETS:
        field_name = "complex" if cs.is_complex else "real"
        for make in (lambda: rbuse(5, 8, 3, field_name, rng),
                     lambda: dbuse(5, 8, 3, field_name, rng)):
            problems = []
            for ell in (1, 2, 3, 4, 1):
                op = make()
                x0 = sample_signal(ProblemSizes(ell, 5, 8, 3), cs, rng)
                problems.append((op, op.apply(x0.values, cs)))
            groups.append((cs, problems))
    # a repeated block with two equal rows: no x meets y
    A = sample_use(5, 8, "real", rng)
    A[1] = A[0]
    op = make_block_diagonal([A], 3, repeated=True)
    y = op.apply(np.ones(24), CoeffSet.REAL) + np.eye(15)[1]
    groups[4][1].insert(2, (op, y))

    def same(a, b):
        return (np.array_equal(a.x1.values.view(np.int64),
                               b.x1.values.view(np.int64))
                and (a.iterations, a.status) == (b.iterations, b.status)
                and a.primal_residual == b.primal_residual
                and a.dual_residual == b.dual_residual)

    statuses = []
    for cs, problems in groups:
        alone = [solve_p1(op, y, cs) for op, y in problems]
        for (op, y), res in zip(problems, alone):
            stack = op.real_block_stack(cs)
            z, status, s_norm, iters = reference_one_problem(
                stack, y.reshape(stack.shape[:2]), op.shared, cs)
            assert (res.iterations, res.status) == (iters, status)
            assert np.array_equal(res.x1.values, z.reshape(-1))
            assert res.dual_residual == s_norm
            statuses.append(status)
        n = len(problems)
        for order in (range(n), range(n - 1, -1, -1), range(0, n, 2),
                      range(1, n, 2), (3, 0), (n - 1,)):
            order = list(order)
            batch = solve_batch([problems[i][0] for i in order],
                                [problems[i][1] for i in order], cs)
            assert all(same(res, alone[i]) for i, res in zip(order, batch))
    assert statuses.count(SolveStatus.INFEASIBLE) == 1
    assert statuses.count(SolveStatus.CONVERGED) == len(statuses) - 1
    with pytest.raises(ValueError, match="one block shape"):
        solve_batch([groups[0][1][0][0], groups[1][1][0][0]],
                    [groups[0][1][0][1], groups[1][1][0][1]], CoeffSet.BOX01)


def late_problem(i):
    """A BOX01 dbuse problem, 4 rows and 6 columns, B=2, drawn from stream
    (25, "late", i); the indices below were picked from a search of such
    streams for where their stops fall after ADAPT_UNTIL."""
    rng = stream(25, "late", i)
    op = dbuse(4, 6, 2, "real", rng)
    x0 = sample_signal(ProblemSizes(int(rng.integers(0, 4)), 4, 6, 2),
                       CoeffSet.BOX01, rng)
    stack = op.real_block_stack(CoeffSet.BOX01)
    y = op.apply(x0.values, CoeffSet.BOX01)
    return stack, y.reshape(stack.shape[:2])


# stops at iterations 1001, 1701, 1251, 2400 and 1250, and 3000: with cap
# 2900 (windows of 100 once rho is fixed) on first and last slots, the last
# one capped; with cap 3000 (windows of 250) on first and last slots, the
# last one on the cap's own iteration
LATE = (12460, 4884, 16444, 27132, 35220, 39140)


def test_windowed_stop_test_matches_reference(monkeypatch):
    # the stop rule runs once per window of stored iterates; every problem
    # must still stop where the every-iteration test stops it, bit for bit,
    # whatever residue mod W its stop falls on, through the cap, through
    # compactions that change W and through the longer windows once rho is
    # fixed (ADAPT_UNTIL)
    rng = stream(15, "window")
    groups = []
    for cs in ALL_SETS:
        field_name = "complex" if cs.is_complex else "real"
        for make in (rbuse, dbuse):
            group = []
            for _ in range(24):
                op = make(4, 6, 2, field_name, rng)
                x0 = sample_signal(ProblemSizes(int(rng.integers(0, 4)), 4,
                                                6, 2), cs, rng)
                stack = op.real_block_stack(cs)
                y = op.apply(x0.values, cs)
                group.append((stack, y.reshape(stack.shape[:2])))
            groups.append((cs, op.shared, group))
    late_group = [(CoeffSet.BOX01, False, [late_problem(i) for i in LATE])]
    windows = []

    def spy(*args):
        windows.append(window(*args))
        return windows[-1]

    def check(got, ref):
        z, status, s_norm, iters, _ = got
        assert (iters, status, s_norm) == (ref[3], ref[1], ref[2])
        assert np.array_equal(z.view(np.int64), ref[0].view(np.int64))

    window, bound = solver._window, solver.HISTORY_BYTES
    monkeypatch.setattr(solver, "_window", spy)
    # per cap, W while rho adapts and once it is fixed: cap 2000: 50, then
    # 250; cap 300: 50, and the cap falls on an adaptation; cap 310: 10;
    # for the late group, cap 2900: 50, then 100; cap 3000: 50, then 250
    stops = {W: set() for W in (50, 10, 100, 250)}
    for max_iters, W, late, run in ((2000, 50, 250, groups),
                                    (300, 50, None, groups),
                                    (310, 10, None, groups),
                                    (2900, 50, 100, late_group),
                                    (3000, 50, 250, late_group)):
        opts = SolverOptions(max_iters=max_iters)
        statuses, grown = set(), set()
        for cs, shared, group in run:
            expected = [reference_one_problem(stack, y, shared, cs, opts)
                        for stack, y in group]
            for e in expected:
                if e[1] is SolveStatus.CONVERGED:
                    at = late if e[3] > ADAPT_UNTIL else W
                    stops[at].add(e[3] % at)
            statuses |= {e[1] for e in expected}
            # alone: one layout, and one more at ADAPT_UNTIL
            for (stack, y), ref in zip(group, expected):
                windows.clear()
                check(admm_l1x([stack], [y], cs, shared, max_iters)[0], ref)
                assert windows == [W] + [late] * (ref[3] > ADAPT_UNTIL)
            # bounds that hold 25 and 250 iterations of one problem: the
            # batch starts at a shorter W, which grows as its problems stop
            stacks, ys = zip(*group)
            B, _, c = stacks[0].shape
            for slots in (26, 251):
                monkeypatch.setattr(solver, "HISTORY_BYTES",
                                    8 * 5 * slots * B * c)
                windows.clear()
                batch = admm_l1x(stacks, ys, cs, shared, max_iters)
                monkeypatch.setattr(solver, "HISTORY_BYTES", bound)
                for got, ref in zip(batch, expected):
                    check(got, ref)
                if slots == 26:   # from W 1 (24 problems) or 2 (6)
                    assert windows[0] <= 2 and windows == sorted(windows)
                    grown |= set(windows)
            if run is late_group:
                # 6 problems at 250 iterations of one: W 25 while rho
                # adapts and at ADAPT_UNTIL, then longer as they stop, up
                # to the late W for the last one
                assert windows[:2] == [25, 25] and windows[-1] == late
        assert len(grown) > 2
        # the late group's last problem stops on cap 3000's own iteration
        assert statuses == {SolveStatus.CONVERGED, SolveStatus.MAX_ITERS} \
            - ({SolveStatus.MAX_ITERS} if max_iters == 3000 else set())
    assert all(stops[W] == set(range(W)) for W in (50, 10))
    assert all(stops[W] >= {0, 1} for W in (100, 250))   # first, last slot
    with pytest.raises(ValueError, match="at least 1"):
        SolverOptions(max_iters=0)


def test_screen_flags_every_slot_the_stop_test_can_pass():
    # the screen may skip the full stop test only where no slot passes its
    # primal half as _norms computes it: rows at that test's boundary and
    # the screen's own, by cancellation (x = z + d), along z, at x = -z,
    # zero rows and entries near 1e-150 and 1e150, for small, COMPLEX
    # criterion-7 (24 blocks of 48) and desk-scale-guard rows
    rng = stream(27, "screen")
    slack = 1.0 / (1.0 - solver.SCREEN_SLACK)
    fractions = (0.0, 0.5, 1 - 1e-9, 1 - 1e-12, 1.0, 1 + 1e-12, 1 + 1e-9,
                 slack * (1 + 5e-10), slack * (1 + 1e-8), 2.0)
    passed_any = flagged_not_passed = 0
    for B, c in ((1, 17), (24, 48), (1, 8192)):
        sq_dim = np.sqrt(B * c)
        for scale in (1e-150, 1e-6, 1.0, 1e3, 1e150):
            rows = []   # (x, z) pairs
            z = scale * rng.standard_normal((B, c))
            bound = TOL * (sq_dim + np.linalg.norm(z))
            d = rng.standard_normal((B, c))
            for f in fractions:
                rows.append((z + f * bound * d / np.linalg.norm(d), z))
                rows.append((z * (1 + f * bound / np.linalg.norm(z)), z))
                # x = -z: r = 2 ||z|| at f times the primal test's bound
                t = f * TOL * sq_dim / (2 - TOL)
                rows.append((-t * d / np.linalg.norm(d),
                             t * d / np.linalg.norm(d)))
            rows += [(np.zeros((B, c)), np.zeros((B, c))), (-z, z),
                     (np.zeros((B, c)), z)]
            window = rng.standard_normal((2, 5, len(rows), B, c))
            for j, (x, zj) in enumerate(rows):
                window[1, 2, j], window[1, 3, j] = x, zj
            r, _, xn, zn, _ = solver._norms(window.copy())[0]
            passed = r <= TOL * (sq_dim + np.maximum(xn, zn))
            may_pass, r_s, zn_s = solver._screen(window.copy(), sq_dim)
            assert not (passed & ~may_pass[0]).any()
            assert np.array_equal(
                may_pass, r_s * (1 - solver.SCREEN_SLACK - TOL)
                <= TOL * (sq_dim + zn_s))
            assert np.all(np.abs(r_s[0] - r) <= 1e-12 * r)
            assert np.all(np.abs(zn_s[0] - zn) <= 1e-12 * zn)
            passed_any += passed.sum()
            flagged_not_passed += (may_pass[0] & ~passed).sum()
            assert not may_pass[0, -1] and not may_pass[0, -2] or \
                scale == 1e-150   # x = -z and x = 0 fail unless z is tiny
    assert passed_any and flagged_not_passed


# COMPLEX rbuse problems (6 rows, 12 columns, 4 blocks) from stream
# (27, "skip", i) that the cap of 1300 stops, found by a search of streams
SKIP = (38, 39, 40, 41)


def test_screened_window_ends_match_reference(monkeypatch):
    # at a window of one iteration, as the grid's batches run, the screen
    # skips the full stop test where no stop can pass; problems capped
    # past ADAPT_UNTIL still keep the every-iteration test's iterates,
    # alone and in a batch, because the full test runs at every adaptation
    # end and at the cap
    cs, max_iters = CoeffSet.COMPLEX, 1300
    problems = []
    for i in SKIP:
        rng = stream(27, "skip", i)
        op = rbuse(6, 12, 4, "complex", rng)
        x0 = sample_signal(ProblemSizes(int(rng.integers(1, 6)), 6, 12, 4),
                           cs, rng)
        stack = op.real_block_stack(cs)
        problems.append((stack, op.apply(x0.values, cs).reshape(
            stack.shape[:2])))
    opts = SolverOptions(max_iters=max_iters)
    expected = [reference_one_problem(stack, y, True, cs, opts)
                for stack, y in problems]
    assert {e[1] for e in expected} == {SolveStatus.MAX_ITERS}

    it, screened, tested = [0], [], []
    update, screen, norms = solver._update, solver._screen, solver._norms

    def spy_update(window, *args):
        it[0] += len(window)
        return update(window, *args)

    def spy_screen(*args):
        screened.append(it[0])
        return screen(*args)

    def spy_norms(window):
        tested.append(it[0])
        return norms(window)

    monkeypatch.setattr(solver, "_update", spy_update)
    monkeypatch.setattr(solver, "_screen", spy_screen)
    monkeypatch.setattr(solver, "_norms", spy_norms)
    forced = {*range(ADAPT_EVERY, ADAPT_UNTIL + 1, ADAPT_EVERY), max_iters}
    stacks, ys = zip(*problems)
    for k in [[i] for i in range(len(problems))] + [range(len(problems))]:
        if len(k) > 1:
            monkeypatch.setattr(solver, "HISTORY_BYTES", 0)   # W = 1
        it[0] = 0
        screened.clear()
        tested.clear()
        got = admm_l1x([stacks[i] for i in k], [ys[i] for i in k], cs, True,
                       max_iters)
        for (z, status, s_norm, iters, _), i in zip(got, k):
            ref = expected[i]
            assert (iters, status, s_norm) == (ref[3], ref[1], ref[2])
            assert np.array_equal(z.view(np.int64), ref[0].view(np.int64))
        assert forced <= set(tested)
        assert not forced & set(screened)
        assert set(screened) - set(tested)   # the skip path ran
    # at W = 1 every other window end was screened, and skipped
    assert set(screened) == set(range(1, max_iters + 1)) - forced
    assert set(tested) == forced


def test_every_window_divides_the_adaptation_period():
    # whatever the iteration, W divides the cap, so the cap falls on a
    # window end, and fits its W + 1 slots in HISTORY_BYTES (or is 1); while
    # rho adapts it also divides ADAPT_EVERY, so adaptation does too
    for max_iters in (MAX_ITERS, 3000, 2900, 2000, 310, 300, 7, 1):
        its = {*range(0, 2 * ADAPT_UNTIL + 1, 10), ADAPT_UNTIL - 1,
               ADAPT_UNTIL + 1, max_iters - 1}
        for n, B, c in ((1, 1, 17), (1, 4, 8), (1, 24, 48), (13, 2, 6),
                        (200, 24, 48)):
            for it in its:
                W = solver._window(n, B, c, max_iters, it)
                assert max_iters % W == 0
                assert W == 1 or \
                    8 * 5 * (W + 1) * n * B * c <= solver.HISTORY_BYTES
                assert it >= ADAPT_UNTIL or ADAPT_EVERY % W == 0
    # at the default cap a lone small problem's windows lengthen once rho
    # is fixed, while a lone criterion-7 problem stays at W 10
    for shape, expected in (((1, 1, 17), [50, 250]), ((1, 4, 8), [50, 250]),
                            ((1, 24, 48), [10, 10])):
        assert [solver._window(*shape, MAX_ITERS, it)
                for it in (0, ADAPT_UNTIL)] == expected


@pytest.mark.parametrize("name", ["max_iters"])
def test_options_refuse_a_count_that_is_not_an_integer(name):
    # a loop counter never equals max_iters = 2.5, so a solve that does not
    # converge would never stop
    assert getattr(SolverOptions(**{name: np.int64(50)}), name) == 50
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        SolverOptions(**{name: 2.5})


def test_options_refuse_a_bool_cap():
    # a bool is an int, but True is no iteration count: it would cap every
    # solve at one iteration
    for flag in (True, False, np.True_):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverOptions(max_iters=flag)
