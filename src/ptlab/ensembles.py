"""Measurement operators and signal generators.

Every operator is block-diagonal and is stored as a stack of its (possibly
complex) diagonal blocks, one block when it repeats down the diagonal; the
2D samplers are the one-block case.  The solver consumes the blocks' real
representation, which depends on the coefficient set: a complex matrix
acting on real coefficients contributes two real rows (re, im) per
measurement, while acting on complex coefficients each entry a+ib becomes
the 2x2 block [[a, -b], [b, a]].

2D Fourier samplers operate on M x M arrays vectorized in C order (row
t0 of the array occupies coefficients [t0*M, (t0+1)*M)), so the anisotropic
sampler factors exactly through a repeated-block partial-DFT operator.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .coeffsets import CoeffSet, SignalVector
from .seeds import as_rng

DFT_SIGN = +1.0  # exponent sign of the forward transform
GENERAL_POSITION_TOL = 1e-9   # smallest |minor| accepted as nonsingular
GENERAL_POSITION_TRIES = 200  # draws before general_position_rows gives up


@dataclass(frozen=True)
class ProblemSizes:
    """Per-block sizes (ell, m, M) and block count B, with derived totals."""

    ell: int
    m: int
    M: int
    B: int = 1

    def __post_init__(self):
        if not (0 <= self.ell <= self.M):
            raise ValueError(f"need 0 <= ell <= M, got ell={self.ell}, M={self.M}")
        if not (1 <= self.m <= self.M):
            raise ValueError(f"need 1 <= m <= M, got m={self.m}, M={self.M}")
        if self.B < 1:
            raise ValueError("need B >= 1")

    @property
    def k(self):
        return self.B * self.ell

    @property
    def n(self):
        return self.B * self.m

    @property
    def N(self):
        return self.B * self.M

    @property
    def delta(self):
        return self.m / self.M

    @property
    def eps(self):
        return self.ell / self.M


def real_rep_matrix(block, ambient):
    """Real representation of a (possibly complex) matrix, or of each matrix
    in a (..., m, M) stack.

    ambient 1: complex rows split into interleaved (re, im) real rows.
    ambient 2: each entry a+ib becomes [[a, -b], [b, a]].
    Real input matrices pass through (ambient 1) or act pair-wise (ambient 2).
    """
    block = np.asarray(block)
    *lead, m, M = block.shape
    a = block.real.astype(float)
    b = block.imag.astype(float) if np.iscomplexobj(block) else np.zeros_like(a)
    if ambient == 1:
        if not np.iscomplexobj(block):
            return a
        out = np.empty((*lead, 2 * m, M))
        out[..., 0::2, :] = a
        out[..., 1::2, :] = b
        return out
    out = np.zeros((*lead, 2 * m, 2 * M))
    out[..., 0::2, 0::2] = a
    out[..., 0::2, 1::2] = -b
    out[..., 1::2, 0::2] = b
    out[..., 1::2, 1::2] = a
    return out


def _block_diag(stack):
    """Dense block-diagonal matrix with the (B, r, c) stack down its diagonal."""
    B, r, c = stack.shape
    out = np.zeros((B * r, B * c), dtype=stack.dtype)
    for b in range(B):
        out[b * r:(b + 1) * r, b * c:(b + 1) * c] = stack[b]
    return out


@dataclass
class MeasurementOperator:
    """An n x N linear map given by its diagonal blocks.

    `blocks` is a (k, m, M) array holding either all k = num_blocks diagonal
    blocks or, with k = 1, one block repeated down the diagonal.  `rows` and
    `cols` count coefficients (complex coefficients count once); real
    dimensions follow from the coefficient set at application time.
    """

    blocks: np.ndarray
    num_blocks: int = 1
    sample_set: list = None
    _real_stacks: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    @property
    def block_shape(self):
        return self.blocks.shape[1:]

    @property
    def rows(self):
        return self.num_blocks * self.blocks.shape[1]

    @property
    def cols(self):
        return self.num_blocks * self.blocks.shape[2]

    @property
    def is_complex(self):
        return np.iscomplexobj(self.blocks)

    @property
    def shared(self):
        """One stored block serves every diagonal position, so the solver
        needs one projector for all of them."""
        return len(self.blocks) == 1

    def real_block_stack(self, coeff_set):
        """(B, r, c) stack of real-representation blocks for the solver,
        built once per coefficient set; the cached array is read-only."""
        if coeff_set not in self._real_stacks:
            real = real_rep_matrix(self.blocks, coeff_set.ambient_dim)
            stack = np.broadcast_to(real, (self.num_blocks,) + real.shape[1:])
            stack.flags.writeable = False
            self._real_stacks[coeff_set] = stack
        return self._real_stacks[coeff_set]

    def dense_real(self, coeff_set):
        """Dense real matrix; reference path for all checks."""
        return _block_diag(self.real_block_stack(coeff_set))

    def dense_complex(self):
        """Dense complex matrix (operators with complex blocks only)."""
        if not self.is_complex:
            raise ValueError("operator has no complex representation")
        return _block_diag(np.broadcast_to(
            self.blocks, (self.num_blocks,) + self.block_shape))

    def apply(self, x_real, coeff_set):
        """Apply to a real-representation vector, returning real measurements."""
        stack = self.real_block_stack(coeff_set)
        B, r, c = stack.shape
        xb = np.asarray(x_real, dtype=float).reshape(B, c)
        return np.einsum("brc,bc->br", stack, xb).reshape(B * r)

    def adjoint(self, y_real, coeff_set):
        stack = self.real_block_stack(coeff_set)
        B, r, c = stack.shape
        yb = np.asarray(y_real, dtype=float).reshape(B, r)
        return np.einsum("brc,br->bc", stack, yb).reshape(B * c)


# ---------------------------------------------------------------------------
# block samplers

def sample_use(m, M, field_name="real", seed=None):
    """Uniform Spherical Ensemble block: columns i.i.d. uniform on the unit
    sphere of R^m or C^m (Gaussian draw normalized to unit length)."""
    if m < 1 or M < 1:
        raise ValueError("need m >= 1 and M >= 1")
    rng = as_rng(seed)
    if field_name == "complex":
        g = rng.standard_normal((m, M)) + 1j * rng.standard_normal((m, M))
    elif field_name == "real":
        g = rng.standard_normal((m, M))
    else:
        raise ValueError(f"field must be 'real' or 'complex', got {field_name!r}")
    return g / np.linalg.norm(g, axis=0, keepdims=True)


def partial_dft_block(M, K):
    """m x M partial unitary DFT block: entry (i, t) = exp(2*pi*i*K_i*t/M)/sqrt(M)."""
    K = np.asarray(list(K), dtype=int)
    if K.size == 0 or len(set(K.tolist())) != K.size:
        raise ValueError("K must be nonempty with distinct entries")
    if K.min() < 0 or K.max() >= M:
        raise ValueError(f"K entries must lie in [0, {M})")
    t = np.arange(M)
    return np.exp(DFT_SIGN * 2j * np.pi * np.outer(K, t) / M) / np.sqrt(M)


def real_dft_matrix(M):
    """Orthonormal real trigonometric DFT basis: the constant row, then
    interleaved cos/sin rows at frequencies 1..floor((M-1)/2), plus the
    alternating-sign row when M is even."""
    t = np.arange(M)
    rows = [np.ones(M) / np.sqrt(M)]
    for k in range(1, (M - 1) // 2 + 1):
        rows.append(np.sqrt(2.0 / M) * np.cos(2 * np.pi * k * t / M))
        rows.append(np.sqrt(2.0 / M) * np.sin(2 * np.pi * k * t / M))
    if M % 2 == 0:
        rows.append((-1.0) ** t / np.sqrt(M))
    return np.array(rows)


def partial_real_dft_block(M, row_indices):
    """m x M block made of selected rows of the orthonormal real DFT basis."""
    rows = np.asarray(list(row_indices), dtype=int)
    if len(set(rows.tolist())) != rows.size:
        raise ValueError("row indices must be distinct")
    if rows.min() < 0 or rows.max() >= M:
        raise ValueError(f"row indices must lie in [0, {M})")
    return real_dft_matrix(M)[rows]


def min_column_minor(block):
    """Smallest |det| over all m x m column submatrices of an m x M block.
    Zero means the columns are NOT in general position."""
    block = np.asarray(block)
    m, M = block.shape
    sub = np.stack([block[:, c]
                    for c in itertools.combinations(range(M), m)])
    dets = np.linalg.det(sub)
    return float(np.abs(dets).min())


def general_position_rows(M, m, seed=None, include_dc=True):
    """Seeded search for m real-DFT rows whose block has columns in general
    position; some structured row subsets have exactly singular minors, so
    each draw is verified before being returned.

    include_dc keeps row 0 (the constant basis vector) in every draw.  With
    that row sampled, the l1 objective of the box problem is constant along
    the operator's null space, so tied optima resolve to failures and the
    empirical success rate follows the exact section-counting formula.
    """
    rng = as_rng(seed)
    for _ in range(GENERAL_POSITION_TRIES):
        if include_dc:
            rows = np.concatenate(
                [[0], rng.choice(np.arange(1, M), size=m - 1, replace=False)])
            rows = np.sort(rows)
        else:
            rows = np.sort(rng.choice(M, size=m, replace=False))
        if min_column_minor(real_dft_matrix(M)[rows]) > GENERAL_POSITION_TOL:
            return rows
    raise RuntimeError(f"no general-position row set found for (M={M}, m={m})")


# ---------------------------------------------------------------------------
# operator constructors

def make_block_diagonal(blocks, B, repeated=False):
    """Block-diagonal operator of size (B*m) x (B*M).

    repeated=True takes exactly one block applied B times; otherwise exactly
    B blocks of identical shape are required.
    """
    blocks = [np.asarray(b) for b in blocks]
    if repeated:
        if len(blocks) != 1:
            raise ValueError("repeated operator takes exactly one block")
    else:
        if len(blocks) != B:
            raise ValueError(f"distinct operator needs exactly B={B} blocks")
        shapes = {b.shape for b in blocks}
        if len(shapes) != 1:
            raise ValueError(f"blocks must share one shape, got {shapes}")
    return MeasurementOperator(blocks=np.stack(blocks), num_blocks=B)


def aniso_sampler_2d(M, K1):
    """Anisotropic 2D Fourier sampler: exhaustive in k0, restricted to K1 in
    k1.  Maps a vectorized M x M array to the m*M selected 2D-DFT values.

    In C-order coordinates the dense matrix is kron(F_M, A1) with A1 the
    partial DFT block, so the Gram matrix is I_M (x) A1*A1.
    """
    A1 = partial_dft_block(M, K1)
    F = partial_dft_block(M, range(M))  # full unitary DFT
    dense = np.kron(F, A1)
    K1 = sorted(int(k) for k in K1)
    return MeasurementOperator(blocks=dense[None], sample_set=K1)


def iso_sampler_2d(M, n, seed=None):
    """Isotropic 2D Fourier sampler: n distinct (k0, k1) pairs drawn
    uniformly at random; evaluates the unitary 2D DFT at those pairs."""
    if not (1 <= n <= M * M):
        raise ValueError(f"need 1 <= n <= M^2 = {M*M}")
    rng = as_rng(seed)
    flat = rng.choice(M * M, size=n, replace=False)
    pairs = [(int(f) // M, int(f) % M) for f in flat]
    t = np.arange(M)
    rows = np.empty((n, M * M), dtype=complex)
    for i, (k0, k1) in enumerate(pairs):
        row = np.exp(DFT_SIGN * 2j * np.pi * (np.add.outer(k0 * t, k1 * t)) / M) / M
        rows[i] = row.reshape(-1)
    return MeasurementOperator(blocks=rows[None], sample_set=pairs)


def rbuse(m, M, B, field_name="real", seed=None):
    blk = sample_use(m, M, field_name, seed)
    return make_block_diagonal([blk], B, repeated=True)


def dbuse(m, M, B, field_name="real", seed=None):
    rng = as_rng(seed)
    blocks = [sample_use(m, M, field_name, rng) for _ in range(B)]
    return make_block_diagonal(blocks, B)


def rbpft(M, K, B):
    """Repeated-block partial complex DFT."""
    return make_block_diagonal([partial_dft_block(M, sorted(K))], B,
                               repeated=True)


def rb_real_dft(M, rows, B):
    """Repeated-block partial real (trigonometric) DFT."""
    return make_block_diagonal([partial_real_dft_block(M, sorted(rows))], B,
                               repeated=True)


# ---------------------------------------------------------------------------
# signal generation

def sample_signal(sizes, coeff_set, seed=None):
    """Regular-sparsity signal: per block, ell free positions chosen uniformly
    without replacement (independently across blocks).

    Free values: Uniform(0,1) for BOX01, half-normal for NONNEG, N(0,1) for
    REAL, standard complex Gaussian for COMPLEX.  Constrained entries are
    Bernoulli(1/2) over {0,1} for BOX01 and exactly 0 otherwise.
    """
    rng = as_rng(seed)
    ell, M, B = sizes.ell, sizes.M, sizes.B
    amb = coeff_set.ambient_dim
    vals = np.zeros((B, M, amb))
    if coeff_set is CoeffSet.BOX01:
        vals[:, :, 0] = (rng.random((B, M)) < 0.5).astype(float)
    for b in range(B):
        idx = rng.choice(M, size=ell, replace=False)
        if coeff_set is CoeffSet.BOX01:
            vals[b, idx, 0] = rng.random(ell)
        elif coeff_set is CoeffSet.NONNEG:
            vals[b, idx, 0] = np.abs(rng.standard_normal(ell))
        elif coeff_set is CoeffSet.REAL:
            vals[b, idx, 0] = rng.standard_normal(ell)
        else:
            vals[b, idx, :] = rng.standard_normal((ell, 2))
    return SignalVector(vals.reshape(-1), coeff_set, M, B)
