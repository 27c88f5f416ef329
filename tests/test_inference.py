import math
import re

import numpy as np
import pytest

from ptlab.exactprob import Q_STAR_MULTI, critical_ell, q_mb_exact
from ptlab.inference import (Link, SeparationError, TestOutcome, empirical_pt,
                             fit_quantal, hypothesis_test, parse_link)


def cll_pi(eps, a, b):
    return 1.0 - np.exp(-np.exp(a + b * eps))


def synth_cells(a, b, S, link=Link.CLL, seed=0,
                eps=np.arange(0.05, 0.56, 0.05)):
    rng = np.random.default_rng(seed)
    cells = []
    for e in eps:
        if link is Link.CLL:
            p = cll_pi(e, a, b)
        else:
            from scipy.special import ndtr
            p = ndtr(a + b * e)
        cells.append((float(e), S, int(rng.binomial(S, p))))
    return cells


def test_cll_recovers_synthetic_transition():
    fit = fit_quantal(synth_cells(3.0, -10.0, 2000, seed=1), Link.CLL)
    assert fit.converged
    assert fit.b < 0
    assert abs(fit.eps_star - 0.3) <= 2 * fit.se_eps_star
    assert fit.se_eps_star < 0.01


def test_probit_recovers_synthetic_transition():
    fit = fit_quantal(synth_cells(3.0, -10.0, 2000, link=Link.PROBIT, seed=2),
                      Link.PROBIT)
    assert fit.converged
    assert abs(fit.eps_star - 0.3) <= 2 * fit.se_eps_star


def test_eps_star_is_minus_a_over_b():
    fit = fit_quantal(synth_cells(3.0, -10.0, 4000, seed=3), Link.CLL)
    assert fit.eps_star == pytest.approx(-fit.a / fit.b)
    assert empirical_pt(fit) == fit.eps_star


def test_separation_raises():
    cells = [(0.1, 100, 100), (0.2, 100, 100), (0.3, 100, 100)]
    with pytest.raises(SeparationError):
        fit_quantal(cells, Link.CLL)
    cells = [(0.1, 100, 0), (0.2, 100, 0), (0.3, 100, 0)]
    with pytest.raises(SeparationError):
        fit_quantal(cells, Link.CLL)


@pytest.mark.parametrize("bad", [(0.2, 100, 150), (0.2, 0, 0),
                                 (0.2, 100, -1)])
def test_cell_outside_its_trial_count_rejected(bad):
    # 150 successes in 100 trials once fitted to eps* 0.302, and a cell of
    # no trials to NaN
    cells = [(0.1, 100, 90), bad, (0.3, 100, 10)]
    with pytest.raises(ValueError, match=r"got \(eps, trials, successes\) "
                       + re.escape(f"= {bad}")):
        fit_quantal(cells, Link.CLL)


@pytest.mark.parametrize("bad", [(0.2, 100.9, 50), (0.2, 100.0, 50),
                                 (0.2, True, 1), (0.2, np.float64(100), 50),
                                 (0.2, 100, True), (0.2, 100, "50")])
def test_cell_with_a_trial_count_that_is_not_an_integer_rejected(bad):
    # trials 100.9 were truncated by int() and fitted as 100
    cells = [(0.1, 100, 90), bad, (0.3, 100, 10)]
    with pytest.raises(ValueError, match=r"integer count of trials.*got "
                       r"\(eps, trials, successes\) " + re.escape(f"= {bad}")):
        fit_quantal(cells, Link.CLL)


def test_cell_counts_are_never_truncated():
    # NumPy integers are counts, and successes may be an expected count
    # (q * trials), used as it is: 50.7 once fitted as 50
    cells = [(0.1, 100, 90), (0.2, 100, 50), (0.3, 100, 10)]
    fit = fit_quantal(cells, Link.CLL)
    assert fit_quantal([(0.1, np.int64(100), np.int32(90)), (0.2, 100, 50),
                        (0.3, np.uint8(100), 10)],
                       Link.CLL).eps_star == fit.eps_star
    assert fit_quantal([(0.1, 100, 90.0), (0.2, 100, np.float64(50.0)),
                        (0.3, 100, 10)], Link.CLL).eps_star == fit.eps_star
    assert fit_quantal([(0.1, 100, 90), (0.2, 100, 50.7), (0.3, 100, 10)],
                       Link.CLL).eps_star > fit.eps_star


def test_degenerate_design_rejected():
    with pytest.raises(ValueError):
        fit_quantal([(0.1, 100, 50), (0.1, 100, 55)], Link.CLL)


def test_empirical_pt_requires_negative_slope():
    fit = fit_quantal(synth_cells(-3.0, 10.0, 500, seed=4,
                                  eps=np.arange(0.05, 0.56, 0.05)), Link.CLL)
    assert fit.b > 0
    with pytest.raises(ValueError):
        empirical_pt(fit)


def test_loglik_improves_over_start():
    cells = synth_cells(3.0, -10.0, 200, seed=5)
    fit = fit_quantal(cells, Link.CLL)
    # the fitted likelihood beats the crude starting transform fit
    eps = np.array([c[0] for c in cells])
    S = np.array([c[1] for c in cells], float)
    y = np.array([c[2] for c in cells], float)
    from ptlab.inference import _link_functions, _loglik
    inv_link, link_fn = _link_functions(Link.CLL)
    p0 = np.clip(y / S, 0.5 / S, 1 - 0.5 / S)
    X = np.column_stack([np.ones_like(eps), eps])
    beta0 = np.linalg.lstsq(X, link_fn(p0), rcond=None)[0]
    assert fit.loglik >= _loglik(y, S, X @ beta0, inv_link) - 1e-9


def test_affine_reparameterization_consistency():
    cells = synth_cells(3.0, -10.0, 1000, seed=6)
    fit = fit_quantal(cells, Link.CLL)
    shifted = [(2.0 * e + 0.3, S, y) for (e, S, y) in cells]
    fit2 = fit_quantal(shifted, Link.CLL)
    assert fit2.eps_star == pytest.approx(2.0 * fit.eps_star + 0.3, abs=1e-6)


def test_fit_on_exact_formula_data():
    # success fractions taken from the exact multiblock formula at M = B = 48
    M = B = 48
    m = 36
    S = 10 ** 6
    cells = [(ell / M, S, q_mb_exact(ell, m, M, B) * S)
             for ell in range(4, 16)]
    fit = fit_quantal(cells, Link.CLL)
    exact = critical_ell(m, M, B).eps_star
    assert abs(empirical_pt(fit) - exact) <= 1.0 / M


def test_hypothesis_test_band_values():
    d = hypothesis_test(0.0045, 10000, 100, q_star=Q_STAR_MULTI, alpha=0.05)
    assert d.mu == pytest.approx(0.0045868, abs=1e-7)
    assert d.band[0] == pytest.approx(0.0032594, abs=2e-7)
    assert d.band[1] == pytest.approx(0.0059141, abs=2e-7)
    assert d.outcome is TestOutcome.NO_DECISION


def test_hypothesis_test_outcomes():
    assert hypothesis_test(0.0, 10000, 100).outcome is TestOutcome.ACCEPT_H0
    d = hypothesis_test(0.02, 10000, 100)
    assert d.outcome is TestOutcome.REJECT_H0
    mu = math.log(1 / Q_STAR_MULTI) / 100
    assert hypothesis_test(mu, 10000, 100).outcome is TestOutcome.NO_DECISION
    with pytest.raises(ValueError):
        hypothesis_test(0.1, 0, 10)
    with pytest.raises(ValueError):
        hypothesis_test(0.1, 10, 10, alpha=1.5)
    for q_star in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="q_star must lie in"):
            hypothesis_test(0.1, 10, 10, q_star=q_star)
    assert hypothesis_test(1.0, 10, 10).outcome is TestOutcome.REJECT_H0
    for y_bar in (5.0, -0.2, 1.7, float("nan")):
        with pytest.raises(ValueError, match="must lie in"):
            hypothesis_test(y_bar, 10, 10)


def test_parse_link():
    assert parse_link("CLL") is Link.CLL
    assert parse_link("probit") is Link.PROBIT
    with pytest.raises(ValueError):
        parse_link("logit")
