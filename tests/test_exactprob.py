import math

import pytest

import ptlab.exactprob as ep
from ptlab.exactprob import (Q_STAR_MULTI, binom_tail, continuum_ell0,
                             critical_ell, default_q_star, normal_approx,
                             q_mb_exact, q_sb_exact, tail_decay_check,
                             uspensky_gap, z_b)


def binom_row(n, kmax):
    """P(k, n) for k = 0..kmax via one cumulative big-integer pass."""
    out = [0.0]
    total, term = 0, 1
    for j in range(kmax):
        total += term
        out.append(total / (1 << (n - 1)))
        term = term * (n - 1 - j) // (j + 1)
    return out


def test_binom_tail_empty_sum():
    for n in (1, 2, 17, 100):
        assert binom_tail(0, n) == 0.0


def test_binom_tail_half_at_midpoint():
    for n in range(2, 65, 2):
        assert binom_tail(n // 2, n) == pytest.approx(0.5, abs=0.0)


def test_binom_tail_hand_value():
    assert binom_tail(1, 2) == 0.5
    assert binom_tail(3, 3) == 1.0


def test_binom_tail_validates():
    with pytest.raises(ValueError):
        binom_tail(5, 4)
    with pytest.raises(ValueError):
        binom_tail(-1, 4)
    with pytest.raises(ValueError):
        binom_tail(0, 0)


def test_binom_tail_log_path_matches_exact(monkeypatch):
    # the path binom_tail takes beyond n = 5000, run where the exact
    # integer sum is cheap
    pairs = ((3, 40), (10, 128), (64, 300), (200, 1000))
    exact = [binom_tail(k, n) for k, n in pairs]
    monkeypatch.setattr(ep, "_EXACT_N_LIMIT", 0)
    for (k, n), want in zip(pairs, exact):
        assert binom_tail(k, n) == pytest.approx(want, rel=1e-12)


def test_binom_tail_large_n_against_exact_sum():
    # beyond n = 5000 binom_tail leaves integer arithmetic
    for n in (5001, 6000):
        exact = binom_row(n, n // 2 + 1)
        for k in (1, 2, 7, 40, n // 2 - 60, n // 2 - 1, n // 2, n // 2 + 1):
            assert binom_tail(k, n) == pytest.approx(exact[k], rel=1e-12)
    n = 10 ** 6
    assert 0.0 < binom_tail(n // 2 - 1000, n) < 1.0


def test_binom_tail_monotone_in_k():
    for n in (7, 32, 129):
        row = binom_row(n, n)
        assert all(row[k] <= row[k + 1] for k in range(n))


def test_q_sb_examples():
    assert q_sb_exact(3, 6, 6) == 1.0
    assert q_sb_exact(2, 3, 4) == 0.5
    assert q_sb_exact(1, 3, 4) == 0.75


def test_q_sb_monotone_exhaustive():
    # nonincreasing in ell, nondecreasing in m, every size up to 64
    for M in range(1, 65):
        for m in range(1, M + 1):
            row = [q_sb_exact(ell, m, M) for ell in range(M + 1)]
            assert all(row[i] >= row[i + 1] - 1e-15 for i in range(M))
        for ell in range(M + 1):
            col = [q_sb_exact(ell, m, M) for m in range(1, M + 1)]
            assert all(col[i] <= col[i + 1] + 1e-15 for i in range(M - 1))


def test_q_mb_examples():
    assert q_mb_exact(2, 3, 4, 1) == q_sb_exact(2, 3, 4)
    assert q_mb_exact(2, 3, 4, 3) == pytest.approx(0.125, abs=1e-15)
    assert q_mb_exact(5, 8, 8, 17) == 1.0


def test_q_mb_power_identity():
    for (ell, m, M) in ((3, 9, 12), (2, 5, 8)):
        for b1, b2 in ((2, 3), (4, 4)):
            lhs = q_mb_exact(ell, m, M, b1 * b2)
            rhs = q_mb_exact(ell, m, M, b1) ** b2
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_critical_ell_examples():
    c = critical_ell(4, 6, 1, 0.5)
    assert c.ell_star == 2
    assert q_sb_exact(2, 4, 6) == 0.5
    c = critical_ell(5, 5, 1)
    assert c.ell_star == 5
    c = critical_ell(36, 48, 48)
    # brute-force scan oracle
    brute = max(ell for ell in range(49)
                if q_mb_exact(ell, 36, 48, 48) >= Q_STAR_MULTI)
    assert c.ell_star == brute == 9


def test_critical_ell_matches_scan_at_more_sizes():
    for (m, M, B) in ((13, 17, 1), (24, 32, 32), (12, 16, 4)):
        qs = default_q_star(B)
        got = critical_ell(m, M, B).ell_star
        brute = max(ell for ell in range(M + 1)
                    if q_mb_exact(ell, m, M, B) >= qs)
        assert got == brute


def test_critical_ell_brackets():
    c = critical_ell(36, 48, 48)
    assert q_mb_exact(c.ell_star, 36, 48, 48) >= c.q_star
    assert q_mb_exact(c.ell_star + 1, 36, 48, 48) < c.q_star


def test_critical_ell_no_bracket_reported():
    # at delta barely above 1/2 and many blocks, even ell = 0 fails
    with pytest.raises(ValueError, match="no bracket"):
        critical_ell(115, 192, 192)


def test_continuum_collapses_at_zero_z():
    # q* = exp(-B/2) makes the Phi^-1 argument exactly 1/2
    val = continuum_ell0(10, 16, 2, math.exp(-1.0))
    assert val == pytest.approx(2 * 10 - 16, abs=1e-9)


def test_continuum_192_value():
    ell0 = continuum_ell0(144, 192, 192)
    z = z_b(Q_STAR_MULTI, 192)
    assert z == pytest.approx(-2.82, abs=0.005)
    assert ell0 == pytest.approx(64.10, abs=0.05)
    offset = (2 * 0.75 - 1) - ell0 / 192
    first_order = math.sqrt(2 * (1 - 0.75)) * math.sqrt(2 * math.log(192) / 192)
    assert abs(offset - first_order) / first_order < 0.005


def test_z_b_domain_errors():
    with pytest.raises(ValueError):
        continuum_ell0(4, 8, 1, 0.2)  # log(1/q*)/B > 1


def test_normal_approx_values():
    assert normal_approx(8, 16) == pytest.approx(0.5, abs=1e-15)
    assert uspensky_gap(10, 100) == pytest.approx(0.26 / 100 + math.exp(-10.0),
                                                  rel=1e-12)


def test_uspensky_bound_with_convention_shift():
    # |P(k,n) - Phi(k,n)| <= 0.26/n + exp(-sqrt(n)) + 2^(1-n) C(n-1, k)
    for n in range(16, 257):
        row = binom_row(n, (n - 1) // 2)
        for k in range(1, (n + 1) // 2):
            gap = abs(row[k] - normal_approx(k, n))
            extra = math.comb(n - 1, k) / (1 << (n - 1))
            assert gap <= uspensky_gap(k, n) + extra


def test_tail_decay_examples():
    assert tail_decay_check(10, 40, 0)
    assert tail_decay_check(10, 40, 5)


def test_tail_decay_sweep():
    for n in range(4, 129):
        rows = {h: binom_row(n + h, (n - 1) // 2) for h in range(17)}
        for k in range(1, (n + 1) // 2):
            base = rows[0][k]
            for h in range(17):
                bound = base * 2.0 ** (-h) * (1 - k / n) ** (-h)
                assert rows[h][k] <= bound * (1 + 1e-12)


def test_offset_scaling_ratio_monotone():
    # exact offsets at delta = 3/4, B = M: the ratio offset/gamma decreases
    # monotonically and ends within 15% of sqrt(2(1-delta))
    target = math.sqrt(0.5)
    ratios = []
    for M in (48, 96, 192, 384, 768):
        c = critical_ell(3 * M // 4, M, M)
        gamma = math.sqrt(2 * math.log(M) / M)
        ratios.append(((2 * 0.75 - 1) - c.eps_star) / gamma)
    assert all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1))
    assert abs(ratios[-1] / target - 1) < 0.15
