import numpy as np
import pytest

from ptlab.coeffsets import (CoeffSet, SignalVector, _prox, count_free,
                             norm_l1x, parse_coeffset, prox_step)


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
    for cs in CoeffSet:
        for t in (0.0, -0.5, np.nan, np.array([[[0.5]], [[np.nan]]])):
            with pytest.raises(ValueError, match="must be positive"):
                prox_step(np.ones((2, 1, 2)), t, cs)


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


def reference_complex_prox(values, t):
    """The pair soft threshold as first written, dividing by |pair| under
    np.errstate; prox_step must reproduce it bit for bit."""
    v = np.asarray(values, dtype=float)
    pairs = v.reshape(v.shape[:-1] + (v.shape[-1] // 2, 2))
    re, im = pairs[..., 0], pairs[..., 1]
    with np.errstate(divide="ignore"):
        scale = np.maximum(1.0 - t / np.sqrt(re * re + im * im), 0.0)
    return (pairs * scale[..., None]).reshape(v.shape)


def test_prox_complex_bit_equal_to_reference():
    # zero pairs (both zero signs), tiny pairs and |pair| == t exactly, with
    # one step per problem of a (K, B, c) batch and an out= buffer
    rng = np.random.default_rng(6)
    for _ in range(300):
        K, B, half = (int(k) for k in rng.integers(1, 5, size=3))
        v = rng.standard_normal((K, B, 2 * half)) * 10.0 ** rng.integers(-6, 3)
        t = np.exp(rng.standard_normal((K, 1, 1)))
        pairs = v.reshape(K, B, half, 2)
        pairs[rng.random((K, B, half)) < 0.2] = 0.0
        pairs[..., 0][rng.random((K, B, half)) < 0.1] = -0.0
        pairs[rng.random((K, B, half)) < 0.1] *= 1e-300
        at_t = rng.random((K, B, half)) < 0.1
        pairs[at_t] = 0.0
        pairs[..., 0][at_t] = np.broadcast_to(t, (K, B, half))[at_t]
        want = np.concatenate([reference_complex_prox(v[k], t[k, 0, 0])[None]
                               for k in range(K)])
        out = np.empty_like(v)
        got = prox_step(v, t, CoeffSet.COMPLEX, out=out)
        assert got is out
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    with pytest.raises(ValueError):
        prox_step(np.ones((2, 1, 2)), np.array([[[0.5]], [[0.0]]]),
                  CoeffSet.COMPLEX)


REFERENCE_PROX = {
    # the expressions prox_step's real sets were first written as
    CoeffSet.REAL: lambda v, t: np.sign(v) * np.maximum(np.abs(v) - t, 0.0),
    CoeffSet.NONNEG: lambda v, t: np.maximum(v - t, 0.0),
    CoeffSet.BOX01: lambda v, t: np.minimum(np.maximum(v - t, 0.0), 1.0),
}


def test_prox_bit_equal_to_references():
    # every set, with one step per problem of a (K, B, c) batch given at
    # full shape (one per pair for COMPLEX) or broadcast from (K, 1, 1),
    # with and without out and the work buffer; entries include +-0.0,
    # |v| == t, v == 1 + t and tiny ones, and v itself is left alone
    rng = np.random.default_rng(7)
    for cs in CoeffSet:
        amb = cs.ambient_dim
        for _ in range(150):
            K, B, p = (int(k) for k in rng.integers(1, 5, size=3))
            v = rng.standard_normal((K, B, p, amb)) \
                * 10.0 ** rng.integers(-6, 2)
            t = np.exp(rng.standard_normal((K, 1, 1)))
            tt = np.broadcast_to(t[..., None], (K, B, p, amb))
            v[rng.random((K, B, p)) < 0.15] = 0.0
            v[..., 0][rng.random((K, B, p)) < 0.1] = -0.0
            v[rng.random((K, B, p)) < 0.1] *= 1e-300
            at_t = rng.random((K, B, p)) < 0.1
            v[at_t] = 0.0
            sign = np.where(rng.random((K, B, p)) < 0.5, -1.0, 1.0)
            v[..., 0][at_t] = (sign * tt[..., 0])[at_t]
            if cs is CoeffSet.BOX01:
                at_one = rng.random((K, B, p)) < 0.1
                v[at_one] = (1.0 + tt)[at_one]
            v = v.reshape(K, B, p * amb)
            if cs.is_complex:
                want = np.concatenate([reference_complex_prox(v[k], t[k, 0, 0])
                                       [None] for k in range(K)])
            else:
                want = REFERENCE_PROX[cs](v, t)
            before = v.copy()
            for step in (t, np.broadcast_to(t, (K, B, p)).copy()):
                for out in (None, np.empty_like(v)):
                    for work in (None, np.empty_like(v)):
                        got = _prox(v, step, cs, out, work)
                        assert out is None or got is out
                        assert np.array_equal(got.view(np.int64),
                                              want.view(np.int64))
                        assert np.array_equal(v.view(np.int64),
                                              before.view(np.int64))


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
