import numpy as np
import pytest

from ptlab.coeffsets import CoeffSet, norm_l1x, prox_step
from ptlab.ensembles import (ProblemSizes, dbuse, make_block_diagonal,
                             partial_dft_block, rbpft, rbuse, sample_signal,
                             sample_use)
from ptlab.oracle import RESIDUAL_CERT, lp_oracle, socp_min_l1x
from ptlab.seeds import stream
from ptlab.solver import (DEFAULT_OPTIONS, SolveStatus, declare_success,
                          relative_error, solve_p1)

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
        v_highs = lp_oracle(A, y, CoeffSet.REAL, engine="highs").value
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
            assert res.primal_residual <= DEFAULT_OPTIONS.feas_tol * scale
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
    pinv, rho = np.linalg.pinv(stack), opts.rho
    z = np.einsum("bcr,br->bc", pinv, y_blocks)
    feas = np.linalg.norm(np.einsum("brc,bc->br", stack, z) - y_blocks)
    if feas > opts.feas_tol * (1.0 + np.linalg.norm(y_blocks)):
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
        eps_pri = opts.tol * (sq_dim + max(np.linalg.norm(x),
                                           np.linalg.norm(z)))
        eps_dual = opts.tol * (sq_dim + rho * np.linalg.norm(u))
        if r_norm <= eps_pri and s_norm <= eps_dual:
            return z, SolveStatus.CONVERGED, it
        if it <= opts.adapt_until and it % opts.adapt_every == 0:
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
