"""Numerical verification of the structural results behind the equivalence
between anisotropic 2D Fourier sampling and repeated-block undersampling.

All checks are dense and small on purpose; they are correctness anchors for
the rest of the package, not performance paths.
"""

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .coeffsets import CoeffSet
from .ensembles import (DFT_SIGN, ProblemSizes, aniso_sampler_2d,
                        min_column_minor, partial_dft_block, rbpft,
                        sample_signal)
from .seeds import stream
from .solver import SolveStatus, solve_p1

RANK_REL_THRESHOLD = 1e-10   # rank cut, relative to the largest singular value


# ---------------------------------------------------------------------------
# Gram structure

@dataclass
class GramReport:
    G: np.ndarray              # complex N x N Gram matrix
    max_offblock: float
    block_deviation: float     # max pairwise difference between diagonal blocks
    block_rank: int
    expected_rank: int
    eigvec_residuals: np.ndarray   # for frequencies in K1
    complement_norms: np.ndarray   # ||G^(1) V_l|| for l outside K1


def _gram(dense):
    # G[t, u] = sum_k A[k, t] * conj(A[k, u]): the conjugate of A^H A, with
    # identical block structure and spectrum, chosen so the positive-frequency
    # characters are the fixed vectors
    return dense.T @ dense.conj()


def check_gram_structure(op):
    """Dense Gram of a 2D anisotropic Fourier sampler: block-diagonal with
    identical blocks whose rank is the number of sampled frequencies.

    op must be shaped like aniso_sampler_2d(M, K1): one block of shape
    (M*|K1|, M^2) with the nonempty int list K1 as its sample_set."""
    K1 = op.sample_set
    rows, cols = op.block_shape
    M = math.isqrt(cols)
    if len(op.blocks) != 1 or op.num_blocks != 1 or \
            not isinstance(K1, list) or not K1 or \
            not all(isinstance(k, (int, np.integer)) for k in K1) or \
            M * M != cols or rows != M * len(K1):
        raise ValueError("Gram structure check needs an aniso_2d operator")
    G = _gram(op.dense_complex())
    blocks = [G[b * M:(b + 1) * M, b * M:(b + 1) * M] for b in range(M)]
    mask = np.ones_like(G, dtype=bool)
    for b in range(M):
        mask[b * M:(b + 1) * M, b * M:(b + 1) * M] = False
    max_off = float(np.abs(G[mask]).max()) if mask.any() else 0.0
    dev = max(float(np.abs(blocks[b] - blocks[0]).max())
              for b in range(M)) if M > 1 else 0.0
    sv = np.linalg.svd(blocks[0], compute_uv=False)
    rank = int((sv > 1e-10 * sv[0]).sum()) if sv[0] > 0 else 0
    res_in, res_out = eigvec_residuals(blocks[0], M, K1)
    return GramReport(G=G, max_offblock=max_off, block_deviation=dev,
                      block_rank=rank, expected_rank=len(K1),
                      eigvec_residuals=res_in, complement_norms=res_out)


def eigvec_residuals(G1, M, K1):
    """Residuals of the discrete characters against the first Gram block:
    V_l(t) = exp(sign * 2*pi*i*l*t/M) is fixed by G1 for l in K1 and
    annihilated for l outside."""
    t = np.arange(M)
    inside, outside = [], []
    for ell in range(M):
        v = np.exp(DFT_SIGN * 2j * np.pi * ell * t / M)
        gv = G1 @ v
        if ell in K1:
            inside.append(np.linalg.norm(gv - v) / np.linalg.norm(v))
        else:
            outside.append(np.linalg.norm(gv))
    return np.array(inside), np.array(outside)


# ---------------------------------------------------------------------------
# rank-deficient reduction

@dataclass
class ReducedSystem:
    A: np.ndarray
    y: np.ndarray
    rank: int
    ambiguous: bool   # a singular value fell within 10x of the threshold


def reduce_rank_deficient(G, b):
    """Full-row-rank system with the same solution set as G x = b.

    Via the SVD G = U S V^T: A = V_r^T and y = S_r^{-1} U_r^T b.  Rank
    decisions within a factor 10 of the threshold are flagged, not silently
    resolved.
    """
    G = np.asarray(G, dtype=float)
    b = np.asarray(b, dtype=float)
    U, s, Vt = np.linalg.svd(G, full_matrices=False)
    smax = s[0] if s.size else 0.0
    thr = RANK_REL_THRESHOLD * smax
    rank = int((s > thr).sum())
    ambiguous = bool(np.any((s > thr / 10.0) & (s < thr * 10.0))) if smax > 0 else False
    A = Vt[:rank]
    y = (U[:, :rank].T @ b) / s[:rank] if rank else np.zeros(0)
    return ReducedSystem(A=A, y=y, rank=rank, ambiguous=ambiguous)


# ---------------------------------------------------------------------------
# equivalence of the two solve pipelines

class EquivalenceOutcome(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NO_DECISION = "no_decision"


@dataclass
class EquivalenceReport:
    M: int
    K1: list
    val_aus: float
    val_blockdiag: float
    value_gap: float
    solution_gap: float
    status_aus: SolveStatus
    status_blockdiag: SolveStatus
    outcome: EquivalenceOutcome


VALUE_GAP_REL = 1e-6
SOLUTION_GAP_ABS = 1e-4


def check_equivalence(M, K1, x0_values, coeff_set):
    """Solve the array problem through the 2D sampler and the vector problem
    through the repeated partial-DFT block operator, and compare."""
    if M > 16:
        raise ValueError("equivalence check is desk-scale: M <= 16")
    if coeff_set not in (CoeffSet.COMPLEX, CoeffSet.BOX01):
        raise ValueError("equivalence check covers COMPLEX and BOX01")
    x0 = np.asarray(x0_values, dtype=float)
    op_aus = aniso_sampler_2d(M, K1)
    op_bd = rbpft(M, K1, M)
    res_a = solve_p1(op_aus, op_aus.apply(x0, coeff_set), coeff_set)
    res_b = solve_p1(op_bd, op_bd.apply(x0, coeff_set), coeff_set)
    gap_v = abs(res_a.value - res_b.value)
    gap_x = float(np.linalg.norm(res_a.x1.values - res_b.x1.values))
    if res_a.status is not SolveStatus.CONVERGED or \
            res_b.status is not SolveStatus.CONVERGED:
        outcome = EquivalenceOutcome.NO_DECISION
    elif gap_v <= VALUE_GAP_REL * (1.0 + abs(res_a.value)) and \
            gap_x <= SOLUTION_GAP_ABS:
        outcome = EquivalenceOutcome.PASS
    else:
        outcome = EquivalenceOutcome.FAIL
    return EquivalenceReport(M=M, K1=sorted(int(k) for k in K1),
                             val_aus=res_a.value, val_blockdiag=res_b.value,
                             value_gap=gap_v, solution_gap=gap_x,
                             status_aus=res_a.status,
                             status_blockdiag=res_b.status, outcome=outcome)


# ---------------------------------------------------------------------------
# isometry factorization

@dataclass
class FactorizationReport:
    M: int
    K1: list
    max_deviation: float       # | T A V - F_aus | entrywise
    t_isometry_dev: float
    v_l1_dev: float
    v_l2_dev: float


def dense_aniso_entrywise(M, K1):
    """Entrywise dense anisotropic sampler, straight from the definition:
    row (k0, j) evaluates the unitary 2D DFT at frequency (k0, K1[j])."""
    K1 = sorted(int(k) for k in K1)
    m = len(K1)
    out = np.empty((M * m, M * M), dtype=complex)
    for k0 in range(M):
        for j, k1 in enumerate(K1):
            row = np.empty((M, M), dtype=complex)
            for t0 in range(M):
                for t1 in range(M):
                    row[t0, t1] = np.exp(DFT_SIGN * 2j * np.pi
                                         * (k0 * t0 + k1 * t1) / M) / M
            out[k0 * m + j] = row.reshape(-1)
    return out


def check_isometry_factorization(M, K1, seed=0):
    """Verify that the 2D sampler factors as T o A o V with T, V isometries:
    V the array vectorization, A the repeated partial-DFT block operator,
    T the remaining exhaustive-axis DFT after un-vectorization."""
    if M > 32:
        raise ValueError("factorization check is desk-scale: M <= 32")
    K1 = sorted(int(k) for k in K1)
    m = len(K1)
    A1 = partial_dft_block(M, K1)
    F = partial_dft_block(M, range(M))
    A_bd = np.kron(np.eye(M), A1)
    T = np.kron(F, np.eye(m))
    V = np.eye(M * M)          # C-order vectorization is the identity map
    composed = T @ A_bd @ V
    f_aus = dense_aniso_entrywise(M, K1)
    max_dev = float(np.abs(composed - f_aus).max())

    rng = stream(seed, "factorization")
    z = rng.standard_normal(M * m) + 1j * rng.standard_normal(M * m)
    t_dev = abs(np.linalg.norm(T @ z) - np.linalg.norm(z))
    x_arr = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
    v = x_arr.reshape(-1)
    v_l1 = abs(np.abs(v).sum() - np.abs(x_arr).sum())
    v_l2 = abs(np.linalg.norm(v) - np.linalg.norm(x_arr))
    return FactorizationReport(M=M, K1=K1, max_deviation=max_dev,
                               t_isometry_dev=float(t_dev),
                               v_l1_dev=float(v_l1), v_l2_dev=float(v_l2))


# ---------------------------------------------------------------------------
# general position of partial DFT columns (prime length)

def tao_min_minor(M, m):
    """Minimum |det| over every frequency set K1 of size m and every m-column
    submatrix of the corresponding partial DFT block."""
    best = np.inf
    for K1 in itertools.combinations(range(M), m):
        best = min(best, min_column_minor(partial_dft_block(M, K1)))
    return float(best)


# ---------------------------------------------------------------------------
# suite

GRAM_CASES = [(4, (0, 2)), (4, (1, 3)), (8, (1, 4, 6)), (8, (0, 2, 5, 7))]
FACTORIZATION_CASES = [(4, (0, 2)), (8, (1, 4, 6))]
TAO_CASES = [(5, 2), (7, 3)]           # (M, m), M prime
EQUIVALENCE_CASE = (7, (0, 1, 3))      # (M, K1) of the equivalence sweep

OFFBLOCK_TOL = 1e-10
BLOCK_DEV_TOL = 1e-12
EIGVEC_TOL = 1e-10
FACTORIZATION_TOL = 1e-12
TAO_TOL = 1e-10


def run_verification_suite(seed=0, instances=50):
    """Full structural verification; returns a JSON-ready report."""
    report = {"gram": [], "factorization": [], "tao": [],
              "equivalence": None, "pass": True}

    for M, K1 in GRAM_CASES:
        g = check_gram_structure(aniso_sampler_2d(M, K1))
        ok = bool(g.max_offblock < OFFBLOCK_TOL
                  and g.block_deviation < BLOCK_DEV_TOL
                  and g.block_rank == g.expected_rank
                  and g.eigvec_residuals.max() < EIGVEC_TOL
                  and g.complement_norms.max() < EIGVEC_TOL)
        report["gram"].append({"T0": M, "T1": M, "K1": list(K1),
                               "max_offblock": g.max_offblock,
                               "block_deviation": g.block_deviation,
                               "rank": g.block_rank,
                               "expected_rank": g.expected_rank,
                               "max_eigvec_residual": float(g.eigvec_residuals.max()),
                               "max_complement_norm": float(g.complement_norms.max()),
                               "pass": ok})
        report["pass"] &= ok

    for M, K1 in FACTORIZATION_CASES:
        f = check_isometry_factorization(M, K1, seed)
        ok = bool(f.max_deviation < FACTORIZATION_TOL
                  and f.t_isometry_dev < 1e-12
                  and f.v_l1_dev == 0.0 and f.v_l2_dev == 0.0)
        report["factorization"].append({"M": M, "K1": list(K1),
                                        "max_deviation": f.max_deviation,
                                        "t_isometry_dev": f.t_isometry_dev,
                                        "pass": ok})
        report["pass"] &= ok

    for M, m in TAO_CASES:
        mm = tao_min_minor(M, m)
        ok = bool(mm > TAO_TOL)
        report["tao"].append({"M": M, "m": m, "min_minor": mm, "pass": ok})
        report["pass"] &= ok

    eq = equivalence_sweep(*EQUIVALENCE_CASE, instances, seed)
    report["equivalence"] = eq
    report["pass"] &= eq["pass"]
    report["pass"] = bool(report["pass"])
    return report


def equivalence_sweep(M, K1, instances, seed):
    """Random sparse COMPLEX instances through both pipelines; sparsity per
    block cycles through 0, 1, 2 free coefficients."""
    max_gap_v_rel = 0.0
    max_gap_x = 0.0
    undecided = 0
    worst_case = None
    for i in range(instances):
        ell = (i % 3)
        sizes = ProblemSizes(ell=ell, m=len(K1), M=M, B=M)
        x0 = sample_signal(sizes, CoeffSet.COMPLEX, stream(seed, "equiv", i))
        rep = check_equivalence(M, K1, x0.values, CoeffSet.COMPLEX)
        if rep.outcome is EquivalenceOutcome.NO_DECISION:
            undecided += 1
            continue
        rel = rep.value_gap / (1.0 + abs(rep.val_aus))
        if rel > max_gap_v_rel:
            max_gap_v_rel = rel
            worst_case = i
        max_gap_x = max(max_gap_x, rep.solution_gap)
    ok = max_gap_v_rel <= VALUE_GAP_REL and max_gap_x <= SOLUTION_GAP_ABS \
        and undecided == 0
    return {"M": M, "K1": list(K1), "instances": instances,
            "coeffset": CoeffSet.COMPLEX.value,
            "max_value_gap_rel": max_gap_v_rel,
            "max_solution_gap": max_gap_x, "no_decision": undecided,
            "worst_instance": worst_case, "pass": bool(ok)}
