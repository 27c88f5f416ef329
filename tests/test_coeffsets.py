import numpy as np
import pytest

from ptlab.coeffsets import (CoeffSet, SignalVector, count_free, norm_l1x,
                             parse_coeffset, prox_step)


def sv(values, cs, M=None, B=1):
    values = np.asarray(values, dtype=float)
    if M is None:
        M = values.size // cs.ambient_dim
    return SignalVector(values, cs, M, B)


def test_ambient_dims():
    assert CoeffSet.COMPLEX.ambient_dim == 2
    for cs in (CoeffSet.BOX01, CoeffSet.NONNEG, CoeffSet.REAL):
        assert cs.ambient_dim == 1


def test_parse_aliases():
    assert parse_coeffset("C") is CoeffSet.COMPLEX
    assert parse_coeffset("r+") is CoeffSet.NONNEG
    assert parse_coeffset("[0,1]") is CoeffSet.BOX01
    assert parse_coeffset(CoeffSet.REAL) is CoeffSet.REAL
    with pytest.raises(ValueError):
        parse_coeffset("quaternion")


def test_norm_examples():
    assert norm_l1x(np.array([0.0, 0.0, 0.0]), CoeffSet.REAL) == 0.0
    assert norm_l1x(np.array([1.0, -2.0, 0.5]), CoeffSet.REAL) == 3.5
    assert norm_l1x(np.array([3.0, 4.0]), CoeffSet.COMPLEX) == 5.0


def test_norm_homogeneous_and_triangle():
    rng = np.random.default_rng(11)
    for cs in CoeffSet:
        for _ in range(250):
            x = rng.standard_normal(12)
            y = rng.standard_normal(12)
            c = rng.uniform(-3, 3)
            nx = norm_l1x(x, cs)
            assert abs(norm_l1x(c * x, cs) - abs(c) * nx) < 1e-12 * (1 + nx)
            assert norm_l1x(x + y, cs) <= nx + norm_l1x(y, cs) + 1e-12


def test_prox_examples():
    assert prox_step(np.array([2.0]), 0.5, CoeffSet.REAL)[0] == pytest.approx(1.5)
    assert prox_step(np.array([0.3]), 0.5, CoeffSet.REAL)[0] == 0.0
    assert prox_step(np.array([1.9]), 0.5, CoeffSet.BOX01)[0] == 1.0
    with pytest.raises(ValueError):
        prox_step(np.array([1.0]), 0.0, CoeffSet.REAL)


def brute_force_prox_1d(x, t, cs):
    # direct grid minimization of t*|z|_X + (z-x)^2/2 over the feasible line
    if cs is CoeffSet.BOX01:
        grid = np.arange(0.0, 1.0 + 1e-9, 1e-4)
    elif cs is CoeffSet.NONNEG:
        grid = np.arange(0.0, abs(x) + 1.0, 1e-4)
    else:
        grid = np.arange(-abs(x) - 1.0, abs(x) + 1.0, 1e-4)
    obj = t * np.abs(grid) + 0.5 * (grid - x) ** 2
    return grid[np.argmin(obj)]


def test_prox_matches_grid_search():
    rng = np.random.default_rng(3)
    for cs in (CoeffSet.REAL, CoeffSet.NONNEG, CoeffSet.BOX01):
        for _ in range(25):
            x = rng.uniform(-2, 2)
            t = rng.uniform(0.05, 1.5)
            got = prox_step(np.array([x]), t, cs)[0]
            want = brute_force_prox_1d(x, t, cs)
            assert abs(got - want) < 1e-3


def test_prox_complex_matches_radial_grid():
    rng = np.random.default_rng(4)
    for _ in range(25):
        pair = rng.standard_normal(2) * 1.5
        t = rng.uniform(0.05, 1.5)
        got = prox_step(pair, t, CoeffSet.COMPLEX)
        r = np.linalg.norm(pair)
        grid = np.arange(0.0, r + 1.0, 1e-4)
        obj = t * grid + 0.5 * (grid - r) ** 2
        r_best = grid[np.argmin(obj)]
        want = pair * (r_best / r if r > 0 else 0.0)
        assert np.linalg.norm(got - want) < 1e-3


def test_prox_real_is_odd():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(50)
    out_pos = prox_step(x, 0.3, CoeffSet.REAL)
    out_neg = prox_step(-x, 0.3, CoeffSet.REAL)
    assert np.array_equal(out_neg, -out_pos)


def test_count_free_examples():
    x = sv([0.0, 1.0, 0.5, 1.0], CoeffSet.BOX01)
    assert count_free(x).tolist() == [1]
    x = sv([0.0, 0.0, 0.0], CoeffSet.REAL)
    assert count_free(x).tolist() == [0]
    x = sv([0.0, 2.2, 0.1], CoeffSet.NONNEG)
    assert count_free(x).tolist() == [2]
    x = sv([0.0, 0.0, 1.0, 0.0, 0.0, 0.5], CoeffSet.COMPLEX, M=3, B=1)
    assert count_free(x).tolist() == [2]


def test_count_free_per_block():
    x = sv([0.0, 0.7, 1.0, 1.0], CoeffSet.BOX01, M=2, B=2)
    assert count_free(x).tolist() == [1, 0]


def test_signal_vector_shape_check():
    with pytest.raises(ValueError):
        SignalVector(np.zeros(5), CoeffSet.COMPLEX, 3, 1)


def test_membership():
    assert sv([0.0, 1.0, 0.3], CoeffSet.BOX01).is_member()
    assert not sv([0.0, 1.2, 0.3], CoeffSet.BOX01).is_member()
    assert not sv([-0.1, 0.0], CoeffSet.NONNEG).is_member()
