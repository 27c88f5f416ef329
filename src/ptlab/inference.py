"""Quantal-response fitting and the large-size accept/reject test.

Success fractions along the sparsity axis are modeled by a binomial GLM with
a probit link (single block) or complementary log-log link (multiblock,
where failure is the maximum over blocks and extreme-value theory applies).
Both links put the empirical transition at eps* = -a/b: the linear predictor
is zero there, and pi(0) is 1/2 for the probit and 1 - 1/e for the CLL.
"""

import enum
import math
from dataclasses import dataclass

import numpy as np

from .exactprob import Q_STAR_MULTI

FIT_TOL = 1e-10        # IRLS stops once no coefficient moves by more
FIT_MAX_ITERS = 100


class Link(enum.Enum):
    PROBIT = "probit"
    CLL = "cll"


def parse_link(name):
    if isinstance(name, Link):
        return name
    try:
        return Link(str(name).strip().lower())
    except ValueError:
        raise ValueError(f"unknown link {name!r}; use 'probit' or 'cll'") from None


class SeparationError(RuntimeError):
    """No cell has 0 < pi_hat < 1; the MLE is unstable so the fit aborts."""


def _link_functions(link):
    """The inverse link and the link of `link`; a probit fit loads SciPy."""
    if link is Link.PROBIT:
        from scipy.special import ndtr, ndtri
        return ndtr, ndtri
    return (lambda eta: 1.0 - np.exp(-np.exp(eta)),
            lambda p: np.log(-np.log(1.0 - p)))


def _dpi(eta, link):
    if link is Link.PROBIT:
        return np.exp(-0.5 * eta ** 2) / math.sqrt(2.0 * math.pi)
    s = np.exp(eta)
    return s * np.exp(-s)


def _d2pi(eta, link):
    if link is Link.PROBIT:
        return -eta * np.exp(-0.5 * eta ** 2) / math.sqrt(2.0 * math.pi)
    s = np.exp(eta)
    return (s - s ** 2) * np.exp(-s)


def _loglik(y, S, eta, inv_link):
    pi = np.clip(inv_link(eta), 1e-12, 1.0 - 1e-12)
    return float(np.sum(y * np.log(pi) + (S - y) * np.log(1.0 - pi)))


@dataclass
class QuantalFit:
    link: Link
    a: float
    b: float
    se_a: float
    se_b: float
    cov_ab: float
    converged: bool
    eps_star: float
    se_eps_star: float
    iterations: int
    loglik: float


def fit_quantal(table, link=Link.CLL):
    """Maximum-likelihood (a, b) for pi = invlink(a + b * eps).

    `table` is a SuccessTable at fixed (m, M, B) or an iterable of
    (eps, trials, successes) triples: trials an integer, successes an
    integer or an expected count q * trials in [0, trials].  Binomial cells
    are weighted by their trial counts.  Needs at least 3 distinct eps levels and at least one
    cell with 0 < pi_hat < 1 (otherwise SeparationError).
    """
    link = parse_link(link)
    eps, S, y = _as_cells(table)
    if len(np.unique(eps)) < 3:
        raise ValueError("need at least 3 distinct sparsity levels")
    phat = y / S
    if not np.any((phat > 0.0) & (phat < 1.0)):
        raise SeparationError("all cells are pure successes/failures")

    inv_link, link_fn = _link_functions(link)
    X = np.column_stack([np.ones_like(eps), eps])
    p0 = np.clip(phat, 0.5 / S, 1.0 - 0.5 / S)
    beta = np.linalg.lstsq(X, link_fn(p0), rcond=None)[0]
    ll = _loglik(y, S, X @ beta, inv_link)
    converged = False
    it = 0
    for it in range(1, FIT_MAX_ITERS + 1):
        eta = X @ beta
        pi = np.clip(inv_link(eta), 1e-12, 1.0 - 1e-12)
        d = _dpi(eta, link)
        w = S * d ** 2 / (pi * (1.0 - pi))
        z = eta + (phat - pi) / np.where(d != 0.0, d, 1e-300)
        XtW = X.T * w
        try:
            beta_new = np.linalg.solve(XtW @ X, XtW @ z)
        except np.linalg.LinAlgError:
            raise ValueError("degenerate design in quantal fit") from None
        # step-halve if the likelihood would drop (keeps it non-decreasing)
        step = 1.0
        ll_new = _loglik(y, S, X @ beta_new, inv_link)
        while ll_new < ll - 1e-12 and step > 1e-8:
            step *= 0.5
            beta_new = beta + step * (beta_new - beta)
            ll_new = _loglik(y, S, X @ beta_new, inv_link)
        change = float(np.max(np.abs(beta_new - beta)))
        beta, ll = beta_new, ll_new
        if change < FIT_TOL:
            converged = True
            break

    a, b = float(beta[0]), float(beta[1])
    cov = _observed_cov(X, y, S, X @ beta, link, inv_link)
    se_a, se_b = math.sqrt(max(cov[0, 0], 0.0)), math.sqrt(max(cov[1, 1], 0.0))
    if b != 0.0:
        eps_star = -a / b
        grad = np.array([-1.0 / b, a / b ** 2])
        se_eps = math.sqrt(max(float(grad @ cov @ grad), 0.0))
    else:
        eps_star, se_eps = math.nan, math.nan
    return QuantalFit(link=link, a=a, b=b, se_a=se_a, se_b=se_b,
                      cov_ab=float(cov[0, 1]), converged=converged,
                      eps_star=eps_star, se_eps_star=se_eps,
                      iterations=it, loglik=ll)


def _as_cells(table):
    rows = getattr(table, "rows", table)
    eps, S, y = [], [], []
    for r in rows:
        e, s, c = (r.ell / r.M, r.S, r.successes) if hasattr(r, "ell") else r
        # successes may be an expected count, q * trials; neither count is
        # ever truncated
        if not _is_count(s) or s < 1 or not (
                _is_count(c) or isinstance(c, (float, np.floating))) \
                or not 0 <= c <= s:
            raise ValueError(f"a cell needs an integer count of trials >= 1 "
                             f"and 0 <= successes <= trials, got (eps, "
                             f"trials, successes) = {(e, s, c)}")
        eps.append(float(e))
        S.append(int(s))
        y.append(float(c))
    order = np.argsort(eps)
    return (np.asarray(eps, float)[order], np.asarray(S, float)[order],
            np.asarray(y, float)[order])


def _is_count(k):
    """An int or a NumPy integer, but not a bool."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool)


def _observed_cov(X, y, S, eta, link, inv_link):
    pi = np.clip(inv_link(eta), 1e-12, 1.0 - 1e-12)
    d = _dpi(eta, link)
    d2 = _d2pi(eta, link)
    score_pi = y / pi - (S - y) / (1.0 - pi)
    curv = score_pi * d2 - (y / pi ** 2 + (S - y) / (1.0 - pi) ** 2) * d ** 2
    H = (X.T * curv) @ X
    try:
        return np.linalg.inv(-H)
    except np.linalg.LinAlgError:
        return np.full((2, 2), np.nan)


def empirical_pt(fit):
    """Transition location -a/b of a converged fit (needs b < 0)."""
    if not fit.converged:
        raise ValueError("empirical_pt needs a converged fit")
    if fit.b >= 0.0:
        raise ValueError("fit slope must be negative (success decreasing)")
    return -fit.a / fit.b


class TestOutcome(enum.Enum):
    __test__ = False  # not a pytest class

    REJECT_H0 = "reject_h0"
    ACCEPT_H0 = "accept_h0"
    NO_DECISION = "no_decision"


@dataclass(frozen=True)
class TestDecision:
    y_bar: float
    mu: float
    band: tuple
    outcome: TestOutcome


def hypothesis_test(y_bar, S, B, q_star=Q_STAR_MULTI, alpha=0.05):
    """Accept/reject H0 (transition not yet crossed) from the single-block
    failure fraction: mu = log(1/q*)/B, band mu +- z_{1-a/2} sqrt(mu/S)."""
    if S < 1 or B < 1:
        raise ValueError("need S >= 1 and B >= 1")
    if not (0.0 < alpha < 1.0 and 0.0 < q_star < 1.0):
        raise ValueError("alpha and q_star must lie in (0, 1)")
    if not 0.0 <= y_bar <= 1.0:
        raise ValueError(f"the failure fraction y_bar must lie in [0, 1], "
                         f"got {y_bar}")
    from scipy.special import ndtri
    mu = math.log(1.0 / q_star) / B
    half = float(ndtri(1.0 - alpha / 2.0)) * math.sqrt(mu / S)
    lo, hi = mu - half, mu + half
    if y_bar > hi:
        outcome = TestOutcome.REJECT_H0
    elif y_bar < lo:
        outcome = TestOutcome.ACCEPT_H0
    else:
        outcome = TestOutcome.NO_DECISION
    return TestDecision(y_bar=float(y_bar), mu=mu, band=(lo, hi),
                        outcome=outcome)
