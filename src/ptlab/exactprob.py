"""Exact finite-size success probabilities for the BOX01 problem.

Everything here is driven by the binomial quantity

    P(k, n) = 2^(1-n) * sum_{j=0}^{k-1} C(n-1, j),

the convention under which the single-block success probability is
Q_sb(ell, m, M) = 1 - P(M-m, M-ell) and P(n/2, n) = 1/2 exactly for even n.
Multiblock success is the B-th power of the single-block value, which gives
the finite-size transition location ell* at target probability q* (1/2 for a
single block, 1 - 1/e for multiblock).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, ndtri

Q_STAR_SINGLE = 0.5
Q_STAR_MULTI = 1.0 - 1.0 / math.e

_EXACT_N_LIMIT = 5000


def binom_tail(k, n):
    """P(k, n) = 2^(1-n) sum_{j<k} C(n-1, j).

    Exact integer arithmetic for n <= 5000 (correctly rounded to double);
    log-gamma with compensated summation beyond that, with no overflow up
    to n of order 1e6.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    if k == 0:
        return 0.0
    if k == n:
        return 1.0
    if n <= _EXACT_N_LIMIT:
        total = 0
        term = 1  # C(n-1, 0)
        for j in range(k):
            total += term
            term = term * (n - 1 - j) // (j + 1)
        return total / (1 << (n - 1))
    j = np.arange(k)
    logs = gammaln(n) - gammaln(j + 1) - gammaln(n - j) - (n - 1) * math.log(2.0)
    shift = logs.max()
    return float(min(1.0, math.exp(shift) * math.fsum(np.exp(np.sort(logs - shift)))))


def q_sb_exact(ell, m, M):
    """Exact single-block success probability Q_sb(ell, m, M) for BOX01."""
    if not 0 <= ell <= M:
        raise ValueError(f"need 0 <= ell <= M, got ell={ell}")
    if not 1 <= m <= M:
        raise ValueError(f"need 1 <= m <= M, got m={m}")
    if m == M:
        return 1.0
    if ell >= m:
        # the binomial sum saturates (M-m >= M-ell): failure is certain
        return 0.0
    return 1.0 - binom_tail(M - m, M - ell)


def q_mb_exact(ell, m, M, B):
    """Multiblock success probability Q_sb^B, computed as exp(B log Q_sb)."""
    if B < 1:
        raise ValueError("need B >= 1")
    q = q_sb_exact(ell, m, M)
    if q == 0.0:
        return 0.0
    return float(math.exp(B * math.log(q)))


@dataclass(frozen=True)
class CriticalSparsity:
    ell_star: int
    ell0: float
    q_star: float
    z_B: float
    m: int
    M: int
    B: int

    @property
    def eps_star(self):
        return self.ell_star / self.M


def default_q_star(B):
    return Q_STAR_SINGLE if B == 1 else Q_STAR_MULTI


def critical_ell(m, M, B, q_star=None):
    """Integer transition location: the largest ell with Q_mb(ell) >= q*,
    so that Q_mb(ell*) >= q* > Q_mb(ell*+1).

    Q_mb is nonincreasing in ell, located by bisection.  Raises when even
    ell = 0 fails to reach q* (no bracket inside [0, M]).
    """
    if q_star is None:
        q_star = default_q_star(B)
    if not 0.0 < q_star < 1.0:
        raise ValueError("q_star must lie in (0, 1)")
    if q_mb_exact(0, m, M, B) < q_star:
        raise ValueError(
            f"no bracket: Q_mb(0, m={m}, M={M}, B={B}) = "
            f"{q_mb_exact(0, m, M, B):.6g} already falls below q* = {q_star:.6g}")
    lo, hi = 0, M  # invariant: Q(lo) >= q*, and answer is < hi+1
    if q_mb_exact(M, m, M, B) >= q_star:
        lo = M
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if q_mb_exact(mid, m, M, B) >= q_star:
            lo = mid
        else:
            hi = mid - 1
    z = z_b(q_star, B)
    return CriticalSparsity(ell_star=lo, ell0=continuum_ell0(m, M, B, q_star),
                            q_star=q_star, z_B=z, m=m, M=M, B=B)


def z_b(q_star, B):
    """z_B = Phi^{-1}(log(1/q*)/B); natural log throughout."""
    arg = math.log(1.0 / q_star) / B
    if not 0.0 < arg < 1.0:
        raise ValueError(f"Phi^-1 argument {arg:.6g} outside (0, 1)")
    return float(ndtri(arg))


def continuum_ell0(m, M, B, q_star=None):
    """Continuum approximation to the transition location:

    ell0 = 2m - M - sqrt(z_B^4 + 8 z_B^2 (M - m))/2 - z_B^2/2.
    """
    if q_star is None:
        q_star = default_q_star(B)
    z = z_b(q_star, B)
    return float(2 * m - M
                 - 0.5 * math.sqrt(z ** 4 + 8.0 * z ** 2 * (M - m))
                 - z ** 2 / 2.0)


def normal_approx(k, n):
    """Normal approximation Phi((2k - n)/sqrt(n)) to the binomial tail."""
    if not 0 < k <= n / 2:
        raise ValueError("normal approximation stated for 0 < k <= n/2")
    from scipy.special import ndtr
    return float(ndtr((2.0 * k - n) / math.sqrt(n)))


def uspensky_gap(k, n):
    """Uspensky bound on |P - Phi|: 0.26/n + exp(-sqrt(n))."""
    if not 0 < k < n / 2:
        raise ValueError("bound stated for 0 < k < n/2")
    return 0.26 / n + math.exp(-math.sqrt(n))


def tail_decay_check(k, n, h):
    """Numerically verify P(k, n+h) <= P(k, n) * 2^-h * (1 - k/n)^-h."""
    if not 0 < k < n / 2:
        raise ValueError("decay bound stated for 0 < k < n/2")
    if h < 0:
        raise ValueError("need h >= 0")
    lhs = binom_tail(k, n + h)
    rhs = binom_tail(k, n) * 2.0 ** (-h) * (1.0 - k / n) ** (-h)
    return bool(lhs <= rhs * (1.0 + 1e-12))
