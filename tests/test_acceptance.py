"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  The suite takes about three and a half minutes on a 2-core host,
almost all of it in the Monte-Carlo criteria 7, 2 and 1; pytest's
`--durations=5` report (on by default, see pyproject.toml) names them.
"""

import math
import time

import numpy as np
import pytest

from ptlab.coeffsets import CoeffSet
from ptlab.ensembles import (general_position_rows, min_column_minor,
                             partial_real_dft_block, sample_signal,
                             make_block_diagonal, sample_use, ProblemSizes)
from ptlab.exactprob import Q_STAR_MULTI, critical_ell, q_sb_exact
from ptlab.experiments import ExperimentConfig, run_trials, run_phase_grid
from ptlab.inference import (Link, TestOutcome, empirical_pt, fit_quantal,
                             hypothesis_test)
from ptlab.oracle import RESIDUAL_CERT, lp_oracle
from ptlab.predict import asymptotic_pt, predict_pt
from ptlab.solver import DEFAULT_OPTIONS, solve_p1
from ptlab.verify import (check_gram_structure, check_isometry_factorization,
                          equivalence_sweep)


def report(criterion, ok, detail):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_exact_formula_agreement():
    # BOX01, fixed partial-DFT block, M=17, m=13, ell in {7..10}, S=2000:
    # success fraction within 3 binomial standard errors of the exact value
    M, m, S = 17, 13, 2000
    rows = general_position_rows(M, m, seed=7, include_dc=True)
    assert min_column_minor(partial_real_dft_block(M, rows)) > 1e-9
    details = []
    ok = True
    for i, ell in enumerate((7, 8, 9, 10)):
        config = ExperimentConfig(ensemble="rb_real_dft",
                                  coeff_set=CoeffSet.BOX01, ell=ell, m=m,
                                  M=M, B=1, S=S, master_seed=100 + i,
                                  matrix_policy="fixed",
                                  K=tuple(int(r) for r in rows))
        records = run_trials(config)
        pi = sum(r.success for r in records) / S
        q = q_sb_exact(ell, m, M)
        tol = 3.0 * math.sqrt(q * (1.0 - q) / S)
        details.append(f"ell={ell}: pi={pi:.4f} vs Q={q:.5f} (tol {tol:.4f})")
        ok &= abs(pi - q) <= tol
    report(1, ok, "; ".join(details))


def test_criterion_2_product_rule():
    # multiblock success rate vs 4th power of the single-block rate,
    # B=4, M=8, BOX01, fresh USE blocks, S=2000 each, 3 pooled SEs
    S, m, M, B = 2000, 6, 8, 4
    mb = ExperimentConfig(ensemble="dbuse", coeff_set=CoeffSet.BOX01, ell=3,
                          m=m, M=M, B=B, S=S, master_seed=41)
    sb = ExperimentConfig(ensemble="dbuse", coeff_set=CoeffSet.BOX01, ell=3,
                          m=m, M=M, B=1, S=S, master_seed=42)
    p_mb = sum(r.success for r in run_trials(mb)) / S
    p_sb = sum(r.success for r in run_trials(sb)) / S
    diff = abs(p_mb - p_sb ** B)
    pooled = math.sqrt(p_mb * (1 - p_mb) / S
                       + (B * p_sb ** (B - 1)) ** 2 * p_sb * (1 - p_sb) / S)
    report(2, diff <= 3 * pooled,
           f"p_mb={p_mb:.4f} vs p_sb^4={p_sb ** B:.4f} "
           f"(diff {diff:.4f}, 3 pooled SE {3 * pooled:.4f})")


def test_criterion_3_equivalence():
    # M=7, |K1|=3, 50 random complex sparse instances through both pipelines
    rep = equivalence_sweep(7, (0, 1, 3), instances=50, seed=0)
    ok = rep["pass"] and rep["no_decision"] == 0
    report(3, ok,
           f"max rel value gap {rep['max_value_gap_rel']:.2e} (tol 1e-6), "
           f"max solution gap {rep['max_solution_gap']:.2e} (tol 1e-4), "
           f"{rep['instances']} instances")


def test_criterion_4_gram_and_factorization():
    from ptlab.ensembles import aniso_sampler_2d
    ok = True
    details = []
    for M, K1 in ((4, (0, 2)), (4, (1, 3)), (8, (1, 4, 6)), (8, (0, 2, 5, 7))):
        g = check_gram_structure(aniso_sampler_2d(M, K1))
        ok &= g.max_offblock < 1e-10
        ok &= g.block_deviation < 1e-12
        ok &= g.block_rank == len(K1)
        ok &= g.eigvec_residuals.max() < 1e-10
        details.append(f"T={M},K1={list(K1)}: off={g.max_offblock:.1e}, "
                       f"dev={g.block_deviation:.1e}, rank={g.block_rank}")
    for M, K1 in ((4, (0, 2)), (8, (1, 4, 6))):
        f = check_isometry_factorization(M, K1)
        ok &= f.max_deviation < 1e-12
        details.append(f"factor M={M}: dev={f.max_deviation:.1e}")
    report(4, bool(ok), "; ".join(details))


def test_criterion_5_offset_scaling():
    # exact offsets at delta=3/4 regressed against gamma_M: slope within 15%
    # of sqrt(2(1-delta)), truncation error improving with M
    target = math.sqrt(2 * (1 - 0.75))
    gammas, offsets, ratios = [], [], []
    for M in (48, 96, 192, 384, 768):
        eps = critical_ell(3 * M // 4, M, M).eps_star
        gamma = math.sqrt(2 * math.log(M) / M)
        gammas.append(gamma)
        offsets.append((2 * 0.75 - 1) - eps)
        ratios.append(offsets[-1] / gamma)
    gammas = np.asarray(gammas)
    offsets = np.asarray(offsets)
    slope = float((gammas * offsets).sum() / (gammas ** 2).sum())
    ok = abs(slope / target - 1.0) <= 0.15
    ok &= abs(ratios[-1] - target) < abs(ratios[0] - target)
    report(5, bool(ok),
           f"slope {slope:.4f} vs {target:.4f} "
           f"({100 * abs(slope / target - 1):.1f}% off, tol 15%); "
           f"|ratio-target| {abs(ratios[0] - target):.4f} -> "
           f"{abs(ratios[-1] - target):.4f}")


def test_criterion_6_prediction_vs_exact():
    ok = True
    details = []
    errs_48 = {}
    for M in (48, 96, 192):
        m = 3 * M // 4
        exact = critical_ell(m, M, M).eps_star
        pred = predict_pt(m, M, M, CoeffSet.BOX01)
        err2 = abs(pred.eps_bd_second - exact)
        err1 = abs(pred.eps_bd_first - exact)
        if M == 48:
            errs_48 = {"e1": err1, "e2": err2}
        ok &= err2 <= 0.02
        details.append(f"M={M}: |pred2-exact|={err2:.4f}")
    ok &= errs_48["e2"] <= errs_48["e1"]
    details.append(f"order2 err {errs_48['e2']:.4f} <= "
                   f"order1 err {errs_48['e1']:.4f} at M=48")
    report(6, bool(ok), "; ".join(details))


def test_criterion_7_monte_carlo_displacement():
    # COMPLEX, M=B=24, delta=1/2, S=200 per sparsity cell: the CLL-fitted
    # transition sits below the asymptotic curve by at least half the
    # first-order offset and within 0.05 of the second-order prediction
    config = ExperimentConfig(ensemble="rbuse", coeff_set=CoeffSet.COMPLEX,
                              ell=0, m=12, M=24, B=24, S=200,
                              master_seed=20240501)
    table = run_phase_grid(config)
    fit = fit_quantal(table, Link.CLL)
    eps_fit = empirical_pt(fit)
    pred = predict_pt(12, 24, 24, CoeffSet.COMPLEX)
    eps_asy = pred.eps_asy
    displacement = eps_asy - eps_fit
    half_first = 0.5 * (eps_asy - pred.eps_bd_first)
    err2 = abs(eps_fit - pred.eps_bd_second)
    ok = displacement >= half_first and err2 <= 0.05
    report(7, bool(ok),
           f"fitted eps*={eps_fit:.4f} (se {fit.se_eps_star:.4f}); "
           f"displacement {displacement:.4f} >= {half_first:.4f}; "
           f"|fit - order2|={err2:.4f} (tol 0.05)")


def test_criterion_8_glm_and_test_calibration():
    # synthetic CLL data recovery
    rng = np.random.default_rng(1)
    a, b, S = 3.0, -10.0, 2000
    cells = []
    for eps in np.arange(0.05, 0.56, 0.05):
        p = 1.0 - math.exp(-math.exp(a + b * eps))
        cells.append((float(eps), S, int(rng.binomial(S, p))))
    fit = fit_quantal(cells, Link.CLL)
    recover_ok = abs(fit.eps_star - 0.3) <= 2 * fit.se_eps_star

    # boundary calibration of the accept/reject rule
    B_blocks, S_test, reps, alpha = 100, 5000, 10000, 0.05
    q_B = 1.0 - Q_STAR_MULTI ** (1.0 / B_blocks)
    sim = np.random.default_rng(2718)
    T = sim.binomial(S_test, q_B, size=reps)
    outcomes = [hypothesis_test(t / S_test, S_test, B_blocks, alpha=alpha).outcome
                for t in T]
    reject = sum(o is TestOutcome.REJECT_H0 for o in outcomes) / reps
    accept = sum(o is TestOutcome.ACCEPT_H0 for o in outcomes) / reps
    out_of_band = reject + accept
    calib_ok = 0.01 <= reject <= 0.05 and abs(out_of_band - alpha) <= 0.02
    report(8, recover_ok and calib_ok,
           f"eps*={fit.eps_star:.4f} (target 0.3, 2se={2 * fit.se_eps_star:.4f}); "
           f"reject rate {reject:.4f} in [0.01, 0.05]; "
           f"out-of-band {out_of_band:.4f} vs alpha {alpha}")


def test_criterion_9_solver_vs_oracle():
    # 200 random instances across all four coefficient sets, <= 32 coeffs;
    # values are compared only between points certified to lie on {Ax = y}
    rng = np.random.default_rng(99)
    worst = worst_oracle = worst_admm = 0.0
    count = 0
    t0 = time.time()
    for cs in (CoeffSet.BOX01, CoeffSet.NONNEG, CoeffSet.REAL,
               CoeffSet.COMPLEX):
        for _ in range(50):
            M = int(rng.integers(4, 33))
            m = int(rng.integers(2, M + 1))
            ell = int(rng.integers(0, m))
            field = "complex" if cs.is_complex else "real"
            A = sample_use(m, M, field, rng)
            op = make_block_diagonal([A], 1, repeated=True)
            x0 = sample_signal(ProblemSizes(ell, m, M, 1), cs, rng)
            y = op.apply(x0.values, cs)
            res = solve_p1(op, y, cs)
            oracle = lp_oracle(op.dense_real(cs), y, cs)
            scale = 1.0 + np.linalg.norm(y)
            worst = max(worst, abs(res.value - oracle.value))
            worst_oracle = max(worst_oracle, oracle.residual / scale)
            worst_admm = max(worst_admm, res.primal_residual / scale)
            count += 1
    feasible = (worst_oracle <= RESIDUAL_CERT
                and worst_admm <= DEFAULT_OPTIONS.feas_tol)
    report(9, worst < 1e-6 and feasible,
           f"{count} instances, worst |value gap| {worst:.2e} (tol 1e-6), "
           f"worst ||Ax-y||/(1+||y||): oracle {worst_oracle:.1e} "
           f"(cert {RESIDUAL_CERT:.0e}), ADMM {worst_admm:.1e} "
           f"(feas_tol {DEFAULT_OPTIONS.feas_tol:.0e}), "
           f"{time.time() - t0:.0f}s")
