"""Asymptotic phase-transition curves and finite-size offset predictions.

The asymptotic curve eps*(delta; X) is the sparsity fraction at which exact
recovery from dense Gaussian measurements transitions, in k/N units.  BOX01
has the closed form (2*delta - 1)_+; the other sets solve the descent-cone
statistical-dimension fixed point

    delta = min_tau [ eps * (ambient + tau^2)
                      + (1 - eps) * E dist^2(g, tau * subdifferential) ] / ambient.

The objective is stationary at the optimal threshold tau (Amelunxen, Lotz,
McCoy & Tropp, *Living on the edge*, 2014, sec. 4), which gives eps in
closed form: each tau > 0 is one point (eps, delta) of the curve.  Both fall
from 1 at tau = 0 toward 0 as tau grows, so one bisection on tau solves it.

Finite-size predictions displace the asymptotic curve downward by the
relative offset alpha*eta*gamma (+ beta*zeta*gamma^2 at second order) with
gamma = sqrt(2 log(B) / M).
"""

import math
from dataclasses import dataclass

from .coeffsets import CoeffSet

SQRT_2PI = math.sqrt(2.0 * math.pi)
TAU_MAX = 40.0  # the curve is within underflow of (0, 0) here

ALPHA = {CoeffSet.BOX01: 1.0, CoeffSet.NONNEG: 1.0,
         CoeffSet.REAL: 1.0, CoeffSet.COMPLEX: 2.0 / 3.0}
BETA = {CoeffSet.BOX01: 0.5, CoeffSet.NONNEG: -1.0 / 3.0,
        CoeffSet.REAL: -0.5, CoeffSet.COMPLEX: -1.0 / 3.0}


def _excess(tau, coeff_set):
    """E(tau) = E dist^2(g, tau * subdifferential at a boundary/zero
    coefficient) and its derivative E'(tau); c = Phi(-tau), p = phi(tau)."""
    c = 0.5 * math.erfc(tau / math.sqrt(2.0))
    p = math.exp(-0.5 * tau * tau) / SQRT_2PI
    if coeff_set is CoeffSet.REAL:
        return 2.0 * ((1.0 + tau * tau) * c - tau * p), 4.0 * (tau * c - p)
    if coeff_set is CoeffSet.NONNEG:
        return (1.0 + tau * tau) * c - tau * p, 2.0 * (tau * c - p)
    # COMPLEX: radial part is Rayleigh
    return (2.0 * math.exp(-0.5 * tau * tau) - 2.0 * SQRT_2PI * tau * c,
            -2.0 * SQRT_2PI * c)


def _curve_point(tau, coeff_set, eps=None):
    """(eps, delta) where tau is the optimal threshold: the eps that makes
    the objective stationary at tau (unless given) and the objective."""
    excess, slope = _excess(tau, coeff_set)
    if eps is None:
        eps = -slope / (2.0 * tau - slope)
    amb = coeff_set.ambient_dim
    return eps, (eps * (amb + tau * tau) + (1.0 - eps) * excess) / amb


def _solve_tau(coeff_set, axis, target):
    """The tau in (0, TAU_MAX] at which coordinate `axis` (0: eps,
    1: delta) of the curve falls to target, by bisection to the last bit."""
    lo, hi = 0.0, TAU_MAX
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if _curve_point(mid, coeff_set)[axis] > target:
            lo = mid
        else:
            hi = mid
    return mid


def statdim_ratio(eps, coeff_set):
    """Normalized statistical dimension of the descent cone at sparsity eps;
    recovery succeeds asymptotically iff delta exceeds this value."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    if coeff_set is CoeffSet.BOX01:
        return (1.0 + eps) / 2.0
    return _curve_point(_solve_tau(coeff_set, 0, eps), coeff_set, eps)[1]


def asymptotic_pt(delta, coeff_set):
    """eps*(delta; X) in k/N units: the curve point at delta."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if coeff_set is CoeffSet.BOX01:
        return max(2.0 * delta - 1.0, 0.0)
    if delta == 1.0:
        return 1.0
    return _curve_point(_solve_tau(coeff_set, 1, delta), coeff_set)[0]


def gamma_factor(M, B):
    """gamma = sqrt(2 log(B) / M); the small parameter of the offset."""
    if M < 2 or B < 2:
        raise ValueError("gamma_factor needs M >= 2 and B >= 2")
    return math.sqrt(2.0 * math.log(B) / M)


def eta_shape(delta, coeff_set):
    """First-order shape eta(delta; X)."""
    if coeff_set is CoeffSet.BOX01:
        if not 0.5 < delta <= 1.0:
            raise ValueError("BOX01 shape defined for delta in (1/2, 1]")
        e = 2.0 * delta - 1.0
        return math.sqrt(1.0 - e) / e
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if coeff_set is CoeffSet.NONNEG:
        e = asymptotic_pt(delta, coeff_set)
        return math.sqrt(1.0 - e) / math.sqrt(delta)
    return 1.0 / math.sqrt(delta)


def zeta_shape(delta, coeff_set):
    """Second-order shape: 1 for BOX01, eta otherwise."""
    eta = eta_shape(delta, coeff_set)  # checks delta for every set
    return 1.0 if coeff_set is CoeffSet.BOX01 else eta


@dataclass(frozen=True)
class OffsetPrediction:
    coeff_set: CoeffSet
    m: int
    M: int
    B: int
    eps_asy: float
    gamma: float
    eta: float
    zeta: float
    eps_bd_first: float
    eps_bd_second: float
    rel_offset_first: float
    rel_offset_second: float
    extrapolated: bool  # the gamma ansatz is validated at B = M only


def predict_pt(m, M, B, coeff_set):
    """Finite-size transition prediction at delta = m/M, at both orders.

    Relative offset r = alpha*eta*gamma at first order, plus
    beta*zeta*gamma^2 at second; the predicted location is eps_asy * (1 - r).
    """
    return predict_pt_delta(m / M, M, B, coeff_set)


def predict_pt_delta(delta, M, B, coeff_set):
    """predict_pt at the undersampling fraction delta (m = round(delta*M))."""
    eps_asy = asymptotic_pt(delta, coeff_set)
    gamma = gamma_factor(M, B)
    eta = eta_shape(delta, coeff_set)
    zeta = zeta_shape(delta, coeff_set)
    r1 = ALPHA[coeff_set] * eta * gamma
    r2 = r1 + BETA[coeff_set] * zeta * gamma * gamma
    return OffsetPrediction(coeff_set=coeff_set, m=int(round(delta * M)),
                            M=M, B=B, eps_asy=eps_asy, gamma=gamma, eta=eta,
                            zeta=zeta, eps_bd_first=eps_asy * (1.0 - r1),
                            eps_bd_second=eps_asy * (1.0 - r2),
                            rel_offset_first=r1, rel_offset_second=r2,
                            extrapolated=(B != M))


def general_d_offset(d, d_e, delta, N):
    """Absolute offset for anisotropic sampling of a d-dimensional grid with
    d_e exhaustive axes (BOX01 shape):

        sqrt(4 (d_e/d) (1 - delta) log(N) / N^(d_r/d)),  d_r = d - d_e.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if not 0 <= d_e <= d:
        raise ValueError("need 0 <= d_e <= d")
    side = round(N ** (1.0 / d))
    if side ** d != N:
        raise ValueError(f"N = {N} is not a perfect {d}-th power")
    if d_e == 0:
        return 0.0
    return math.sqrt(4.0 * (d_e / d) * (1.0 - delta) * math.log(N)
                     / N ** ((d - d_e) / d))


def mri_offset(dims, delta, M):
    """Offset of the complex-coefficient transition for 2D / 3D imaging grids
    with one exhaustively sampled axis."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")
    if M < 2:
        raise ValueError("need M >= 2")
    logM = math.log(M)
    if dims == 2:
        bracket = (2.0 * math.sqrt(2.0) / 3.0) * math.sqrt(logM / M) \
            - (2.0 / 3.0) * (logM / M)
    elif dims == 3:
        bracket = (2.0 * math.sqrt(2.0) / 3.0) * math.sqrt(logM) / M \
            - (2.0 / 3.0) * (logM / M ** 2)
    else:
        raise ValueError("dims must be 2 or 3")
    return bracket / math.sqrt(delta)
