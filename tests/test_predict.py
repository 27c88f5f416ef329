import math

import numpy as np
import pytest
from scipy.integrate import quad

from ptlab.coeffsets import CoeffSet
from ptlab.exactprob import critical_ell, q_mb_exact
from ptlab.predict import (ALPHA, BETA, _excess, asymptotic_pt, eta_shape,
                           gamma_factor, general_d_offset, mri_offset,
                           predict_pt, predict_pt_delta, statdim_ratio,
                           zeta_shape)

ALL_SETS = (CoeffSet.BOX01, CoeffSet.NONNEG, CoeffSet.REAL, CoeffSet.COMPLEX)


def test_table_constants():
    want = {CoeffSet.BOX01: (1.0, 0.5), CoeffSet.NONNEG: (1.0, -1 / 3),
            CoeffSet.REAL: (1.0, -0.5), CoeffSet.COMPLEX: (2 / 3, -1 / 3)}
    for cs, (a, b) in want.items():
        assert (ALPHA[cs], BETA[cs]) == (a, b)


# --- independent oracle: quadrature expectations + grid/refine minimization
def _gauss(z):
    return math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)


def _density(cs):
    """(k, w): E(tau) = k * int_tau^inf (z - tau)^2 w(z) dz, so that
    E'(tau) = -2k * int_tau^inf (z - tau) w(z) dz."""
    if cs is CoeffSet.REAL:
        return 2, _gauss
    if cs is CoeffSet.NONNEG:
        return 1, _gauss
    return 1, lambda r: r * math.exp(-0.5 * r * r)  # COMPLEX: radial Rayleigh


def _excess_quad(tau, cs):
    k, w = _density(cs)
    val, _ = quad(lambda z: (z - tau) ** 2 * w(z), tau, np.inf)
    return k * val


def _tail_moment(tau, cs, power):
    """k * int_tau^inf (z - tau)^power w(z) dz near roundoff.  The weight
    past tau + 40 is below the double-precision floor, and on that finite
    range quad keeps all digits where on [tau, inf) it loses 7 at tau = 4."""
    k, w = _density(cs)
    val, _ = quad(lambda z: (z - tau) ** power * w(z), tau, tau + 40.0,
                  epsabs=0.0, epsrel=1e-13, limit=200)
    return k * val


def _ratio_quad(eps, cs):
    amb = cs.ambient_dim

    def obj(tau):
        return (eps * (amb + tau ** 2) + (1 - eps) * _excess_quad(tau, cs)) / amb

    taus = np.linspace(0.0, 8.0, 161)
    best = min(taus, key=obj)
    for width in (0.1, 0.01, 0.001):
        taus = np.linspace(max(best - width, 0.0), best + width, 41)
        best = min(taus, key=obj)
    return obj(best)


def _pt_quad(delta, cs):
    lo, hi = 1e-9, 1 - 1e-9
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _ratio_quad(mid, cs) < delta:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_asymptotic_against_quadrature_oracle():
    for cs, delta in ((CoeffSet.REAL, 0.5), (CoeffSet.NONNEG, 0.5),
                      (CoeffSet.COMPLEX, 0.5), (CoeffSet.REAL, 0.25)):
        assert asymptotic_pt(delta, cs) == pytest.approx(_pt_quad(delta, cs),
                                                         abs=5e-6)


CURVE_SETS = (CoeffSet.REAL, CoeffSet.NONNEG, CoeffSet.COMPLEX)


def test_excess_closed_forms_against_quadrature():
    for cs in CURVE_SETS:
        for tau in (0.1, 0.5, 1.0, 2.0, 4.0):
            excess, slope = _excess(tau, cs)
            assert excess == pytest.approx(_tail_moment(tau, cs, 2), rel=1e-12)
            assert slope == pytest.approx(-2 * _tail_moment(tau, cs, 1),
                                          rel=1e-12)


def test_statdim_ratio_against_quadrature_oracle():
    for cs in CURVE_SETS:
        for eps in (0.05, 0.2, 0.5, 0.8):
            assert statdim_ratio(eps, cs) == pytest.approx(
                _ratio_quad(eps, cs), abs=1e-8)
    # outside [0, 1] REAL once read -800.5 at eps = -0.5, BOX01 1.25 at 1.5
    for cs in CoeffSet:
        assert statdim_ratio(0.0, cs) <= statdim_ratio(1.0, cs) == 1.0
        for eps in (-0.5, 1.5, float("nan")):
            with pytest.raises(ValueError, match=r"eps must lie in \[0, 1\]"):
                statdim_ratio(eps, cs)


def test_statdim_ratio_inverts_asymptotic_pt():
    for cs in CURVE_SETS:
        for delta in np.arange(0.02, 1.0, 0.04):
            assert statdim_ratio(asymptotic_pt(delta, cs), cs) == \
                pytest.approx(delta, abs=1e-12)


def test_asymptotic_box01_closed_form():
    assert asymptotic_pt(0.75, CoeffSet.BOX01) == 0.5
    assert asymptotic_pt(0.4, CoeffSet.BOX01) == 0.0
    # the statistical-dimension recipe reproduces the closed form
    for eps in (0.1, 0.4, 0.8):
        assert statdim_ratio(eps, CoeffSet.BOX01) == pytest.approx((1 + eps) / 2)


def test_asymptotic_spot_values():
    # frozen from the quadrature oracle above
    assert asymptotic_pt(0.5, CoeffSet.REAL) == pytest.approx(0.192845, abs=1e-5)
    assert asymptotic_pt(0.5, CoeffSet.NONNEG) == pytest.approx(0.279114, abs=1e-5)
    assert asymptotic_pt(0.5, CoeffSet.COMPLEX) == pytest.approx(0.228946, abs=1e-5)


def test_asymptotic_monotone_continuous_endpoints():
    for cs in (CoeffSet.NONNEG, CoeffSet.REAL, CoeffSet.COMPLEX):
        grid = np.arange(0.01, 1.005, 0.01)
        vals = [asymptotic_pt(d, cs) for d in grid]
        diffs = np.diff(vals)
        assert np.all(diffs > 0)
        # the curve steepens into a vertical tangent at delta = 1; away from
        # it the grid steps stay small
        assert np.max(diffs[:-5]) < 0.04
        assert np.max(diffs) < 0.15
        assert vals[0] < 0.01
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)
        assert asymptotic_pt(1.0, cs) == 1.0
    with pytest.raises(ValueError):
        asymptotic_pt(0.0, CoeffSet.REAL)
    with pytest.raises(ValueError):
        asymptotic_pt(1.5, CoeffSet.REAL)


def test_gamma_factor():
    assert gamma_factor(48, 48) == pytest.approx(math.sqrt(2 * math.log(48) / 48))
    assert gamma_factor(48, 48) == pytest.approx(0.40162, abs=5e-5)
    # halves when M quadruples at fixed B
    assert gamma_factor(64, 10) == pytest.approx(2 * gamma_factor(256, 10))
    with pytest.raises(ValueError):
        gamma_factor(48, 1)
    with pytest.raises(ValueError):
        gamma_factor(1, 48)


def test_eta_zeta_shapes():
    assert eta_shape(0.25, CoeffSet.REAL) == pytest.approx(2.0)
    assert eta_shape(0.75, CoeffSet.BOX01) == pytest.approx(2 * math.sqrt(0.5))
    assert eta_shape(1.0, CoeffSet.NONNEG) == pytest.approx(0.0, abs=1e-6)
    assert zeta_shape(0.75, CoeffSet.BOX01) == 1.0
    for cs in (CoeffSet.NONNEG, CoeffSet.REAL, CoeffSet.COMPLEX):
        assert zeta_shape(0.6, cs) == eta_shape(0.6, cs)
    with pytest.raises(ValueError):
        eta_shape(0.5, CoeffSet.BOX01)
    with pytest.raises(ValueError):
        zeta_shape(0.4, CoeffSet.BOX01)


def test_predict_complex_192_offset():
    p = predict_pt(96, 192, 192, CoeffSet.COMPLEX)
    gamma = gamma_factor(192, 192)
    want = math.sqrt(2.0) * (2 / 3 * gamma - 1 / 3 * gamma ** 2)
    assert p.rel_offset_second == pytest.approx(want, rel=1e-12)
    assert p.rel_offset_second == pytest.approx(0.19482, abs=5e-6)
    assert not p.extrapolated


def test_predict_limit_small_gamma():
    p = predict_pt(3 * 10 ** 6 // 4, 10 ** 6, 2, CoeffSet.BOX01)
    assert p.eps_bd_second == pytest.approx(p.eps_asy, rel=1e-2)
    assert p.extrapolated


def test_predict_box01_first_order_identity():
    # absolute first-order offset equals sqrt(2(1-delta)) * gamma
    for M in (48, 192):
        p = predict_pt(3 * M // 4, M, M, CoeffSet.BOX01)
        offset = p.eps_asy - p.eps_bd_first
        assert offset == pytest.approx(math.sqrt(2 * 0.25) * p.gamma, rel=1e-12)


def test_predict_order_direction_follows_beta_sign():
    # beta > 0 (BOX01) pushes the second-order prediction further down;
    # beta < 0 pulls it back up
    p = predict_pt(36, 48, 48, CoeffSet.BOX01)
    assert p.eps_bd_second < p.eps_bd_first
    for cs in (CoeffSet.NONNEG, CoeffSet.REAL, CoeffSet.COMPLEX):
        p = predict_pt(24, 48, 48, cs)
        assert p.eps_bd_second > p.eps_bd_first


def test_predict_tracks_exact_curve_at_192():
    # order-2 prediction vs the exact integer transition, delta sweep
    M = 192
    for delta in (0.7, 0.75, 0.8, 0.9):
        m = round(delta * M)
        p = predict_pt(m, M, M, CoeffSet.BOX01)
        exact = critical_ell(m, M, M).eps_star
        assert abs(p.eps_bd_second - exact) <= 0.02
    # near delta = 0.6 the finite-size transition collapses to zero
    m = round(0.6 * M)
    assert q_mb_exact(0, m, M, M) < 1 - 1 / math.e
    p = predict_pt(m, M, M, CoeffSet.BOX01)
    assert abs(p.eps_bd_second - 0.0) <= 0.02


def test_rel_offset_decreasing_in_M():
    vals = [predict_pt(M // 2, M, M, CoeffSet.COMPLEX).rel_offset_second
            for M in (48, 96, 192, 384)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_general_d_offset():
    for (M, delta) in ((48, 0.75), (192, 0.6)):
        got = general_d_offset(2, 1, delta, M * M)
        want = math.sqrt(2 * (1 - delta)) * math.sqrt(2 * math.log(M) / M)
        assert got == pytest.approx(want, rel=1e-12)
    assert general_d_offset(3, 0, 0.5, 8 ** 3) == 0.0
    offs = [general_d_offset(4, de, 0.5, 16 ** 4) for de in range(5)]
    assert all(a < b for a, b in zip(offs, offs[1:]))
    with pytest.raises(ValueError):
        general_d_offset(2, 1, 0.5, 48)  # not a perfect square
    with pytest.raises(ValueError):
        general_d_offset(2, 3, 0.5, 49)
    # delta = -1 once gave 1.44 and delta = 2 a bare math domain error
    assert general_d_offset(2, 1, 1.0, 64) == 0.0
    for delta in (-1.0, 0.0, 2.0, float("nan")):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\]"):
            general_d_offset(2, 1, delta, 64)


def test_mri_offsets():
    got = mri_offset(2, 0.5, 192)
    assert got == pytest.approx(0.19482, abs=5e-6)
    p = predict_pt_delta(0.5, 192, 192, CoeffSet.COMPLEX)
    assert got == pytest.approx(p.rel_offset_second, rel=1e-12)
    assert mri_offset(3, 0.5, 192) < mri_offset(2, 0.5, 192)
    with pytest.raises(ValueError):
        mri_offset(4, 0.5, 192)
