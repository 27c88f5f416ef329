"""Coefficient ground sets and the norms / constraints they induce.

Four sets are supported: BOX01 ([0,1]), NONNEG ([0,inf)), REAL, and COMPLEX.
Complex coefficients are stored as real pairs (re, im) interleaved in a flat
real vector, so every downstream computation runs in real arithmetic.  For the
first three sets the objective is the plain l1 norm; for COMPLEX it is the
mixed l2,1 norm (sum of Euclidean norms of the pairs).
"""

import enum
from dataclasses import dataclass

import numpy as np


class CoeffSet(enum.Enum):
    BOX01 = "box01"
    NONNEG = "nonneg"
    REAL = "real"
    COMPLEX = "complex"

    @property
    def ambient_dim(self):
        """Real dimension per coefficient (2 only for COMPLEX)."""
        return 2 if self is CoeffSet.COMPLEX else 1

    @property
    def is_complex(self):
        return self is CoeffSet.COMPLEX


_ALIASES = {
    "box01": CoeffSet.BOX01, "box": CoeffSet.BOX01, "01": CoeffSet.BOX01,
    "[0,1]": CoeffSet.BOX01, "b": CoeffSet.BOX01,
    "nonneg": CoeffSet.NONNEG, "pos": CoeffSet.NONNEG, "r+": CoeffSet.NONNEG,
    "real": CoeffSet.REAL, "r": CoeffSet.REAL,
    "complex": CoeffSet.COMPLEX, "c": CoeffSet.COMPLEX,
}


def parse_coeffset(name):
    if isinstance(name, CoeffSet):
        return name
    key = str(name).strip().lower()
    if key not in _ALIASES:
        raise ValueError(f"unknown coefficient set {name!r}; "
                         f"use one of box01, nonneg, real, complex")
    return _ALIASES[key]


@dataclass(frozen=True)
class SignalVector:
    """A length M*B coefficient vector in real representation.

    `values` has length ambient_dim * M * B; for COMPLEX the entries are
    interleaved pairs (re_0, im_0, re_1, im_1, ...).  Block b occupies the
    contiguous slice of coefficients [b*M, (b+1)*M).
    """

    values: np.ndarray
    coeff_set: CoeffSet
    block_size: int
    num_blocks: int

    def __post_init__(self):
        expected = self.coeff_set.ambient_dim * self.block_size * self.num_blocks
        if self.values.shape != (expected,):
            raise ValueError(f"values must have shape ({expected},), "
                             f"got {self.values.shape}")


def norm_l1x(values, coeff_set):
    """The l1-type norm induced by the coefficient set.

    Sum of absolute values for real sets; sum of Euclidean norms of the
    (re, im) pairs for COMPLEX, of a real-representation array.
    """
    values = np.asarray(values, dtype=float)
    if coeff_set.is_complex:
        pairs = values.reshape(-1, 2)
        return float(np.hypot(pairs[:, 0], pairs[:, 1]).sum())
    return float(np.abs(values).sum())


def prox_step(values, t, coeff_set, out=None):
    """argmin_z  t*||z||_{1,X} + 0.5*||z - values||^2  with z in the set.

    Soft threshold for REAL, one-sided soft threshold for NONNEG, block soft
    threshold on pairs for COMPLEX; for BOX01 the linear-cost minimizer
    clipped to [0,1].  Works on arrays of any shape whose last axis is the
    coefficient axis; t is a step size or an array of them that broadcasts
    against values (one per problem of a batch), and out, if given, receives
    the result.
    """
    if not np.greater(t, 0.0).all():
        raise ValueError("prox step size must be positive")
    return _prox(np.asarray(values, dtype=float), t, coeff_set, out)


# _prox's per-call constants: a ufunc takes a 0-d array operand at less
# cost than a Python float, and a module name reads faster than an enum
# member through its class
_ZERO = np.array(0.0)
_ONE = np.array(1.0)
_REAL, _NONNEG, _BOX01 = CoeffSet.REAL, CoeffSet.NONNEG, CoeffSet.BOX01


def _prox(v, t, coeff_set, out=None, work=None):
    """prox_step for a float array v and steps t known to be positive.

    out, if given, receives the result, and work, if given, is scratch of
    v's shape that must not overlap v or out; with both, REAL, NONNEG and
    BOX01 allocate nothing and COMPLEX only its per-pair scale.  The
    solver passes t at full shape, v's for the real sets and one entry per
    pair for COMPLEX, so no operand is broadcast.  Each operation keeps the
    operands and order of the plain expressions, so every result is the
    same to the bit, signed zeros included.
    """
    if coeff_set is _REAL:
        # sign(v) * max(|v| - t, 0)
        d = np.abs(v, out=work)
        np.subtract(d, t, out=d)
        np.maximum(d, _ZERO, out=d)
        s = np.sign(v, out=out)
        return np.multiply(s, d, out=s)
    if coeff_set is _NONNEG:
        return np.maximum(np.subtract(v, t, out), _ZERO, out=out)
    if coeff_set is _BOX01:
        d = np.maximum(np.subtract(v, t, out), _ZERO, out=out)
        return np.minimum(d, _ONE, out=out)
    # scale each pair by 1 - t/max(|pair|, t), which is 0 for |pair| <= t,
    # worked out once per pair and written back to both of its entries
    sq = np.multiply(v, v, out=work)
    scale = sq[..., 0::2] + sq[..., 1::2]
    np.sqrt(scale, out=scale)
    np.maximum(scale, t, out=scale)
    np.divide(t, scale, out=scale)
    np.subtract(_ONE, scale, out=scale)
    sq[..., 0::2] = scale
    sq[..., 1::2] = scale
    return np.multiply(v, sq, out=out)


def count_free(x):
    """Per-block count of entries off the boundary of the coefficient set.

    Boundary is {0, 1} for BOX01 and {0} otherwise; the test is exact, which
    is valid for generated signals (boundary values are constructed exactly).
    Returns an integer array of length num_blocks.
    """
    cs = x.coeff_set
    amb = cs.ambient_dim
    per_block = x.values.reshape(x.num_blocks, x.block_size, amb)
    if cs is CoeffSet.BOX01:
        free = (per_block[:, :, 0] != 0.0) & (per_block[:, :, 0] != 1.0)
    else:
        free = np.any(per_block != 0.0, axis=2)
    return free.sum(axis=1)
