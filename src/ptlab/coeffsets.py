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

    def is_member(self):
        """Exact membership in the coefficient set."""
        if self.coeff_set is CoeffSet.BOX01:
            return bool(np.all((self.values >= 0.0) & (self.values <= 1.0)))
        if self.coeff_set is CoeffSet.NONNEG:
            return bool(np.all(self.values >= 0.0))
        return True


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


def prox_step(values, t, coeff_set):
    """argmin_z  t*||z||_{1,X} + 0.5*||z - values||^2  with z in the set.

    Soft threshold for REAL, one-sided soft threshold for NONNEG, block soft
    threshold on pairs for COMPLEX; for BOX01 the linear-cost minimizer
    clipped to [0,1].  Works on arrays of any shape whose last axis is the
    coefficient axis.
    """
    if t <= 0:
        raise ValueError("prox step size must be positive")
    v = np.asarray(values, dtype=float)
    if coeff_set is CoeffSet.REAL:
        return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)
    if coeff_set is CoeffSet.NONNEG:
        return np.maximum(v - t, 0.0)
    if coeff_set is CoeffSet.BOX01:
        return np.minimum(np.maximum(v - t, 0.0), 1.0)
    pairs = v.reshape(v.shape[:-1] + (v.shape[-1] // 2, 2))
    re, im = pairs[..., 0], pairs[..., 1]
    with np.errstate(divide="ignore"):
        scale = np.maximum(1.0 - t / np.sqrt(re * re + im * im), 0.0)
    return (pairs * scale[..., None]).reshape(v.shape)


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
