import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import block_diag

from ptlab import ensembles
from ptlab.coeffsets import CoeffSet, count_free
from ptlab.ensembles import (DFT_SIGN, MeasurementOperator, ProblemSizes,
                             aniso_sampler_2d, dbuse, general_position_rows,
                             iso_sampler_2d, make_block_diagonal,
                             min_column_minor, partial_dft_block,
                             partial_real_dft_block, rb_real_dft, rbpft,
                             rbuse, real_dft_matrix, real_rep_matrix,
                             sample_signal, sample_use)
from ptlab.seeds import stream

# general_position_rows(17, 13, seed=7): the rows of criterion 1's block
CRITERION1_ROWS = [0, 1, 3, 4, 5, 6, 7, 8, 10, 11, 14, 15, 16]


def test_problem_sizes_derived():
    s = ProblemSizes(ell=3, m=6, M=8, B=4)
    assert (s.k, s.n, s.N) == (12, 24, 32)
    assert s.delta == 0.75 and s.eps == 0.375
    with pytest.raises(ValueError):
        ProblemSizes(ell=9, m=6, M=8)
    with pytest.raises(ValueError):
        ProblemSizes(ell=1, m=0, M=8)


def test_use_columns_unit_norm():
    for field in ("real", "complex"):
        blk = sample_use(8, 16, field, seed=1)
        norms = np.linalg.norm(blk, axis=0)
        assert np.abs(norms - 1.0).max() < 1e-12


def test_use_deterministic():
    a = sample_use(5, 9, "real", seed=42)
    b = sample_use(5, 9, "real", seed=42)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, sample_use(5, 9, "real", seed=43))


def test_use_column_pairs_uncorrelated():
    # spherical symmetry: E<a_i, a_j> = 0 for i != j
    rng = np.random.default_rng(7)
    vals = []
    for _ in range(650):
        blk = sample_use(8, 16, "real", rng)
        i, j = 0, 1
        gram = blk.T @ blk
        iu = np.triu_indices(16, k=1)
        vals.extend(gram[iu].tolist())
    vals = np.asarray(vals)[:10000]
    se = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean()) < 3 * se


def test_use_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sample_use(0, 4)
    with pytest.raises(ValueError):
        sample_use(2, 0)


def test_block_diagonal_degenerate_single():
    blk = sample_use(3, 5, "real", seed=0)
    op = make_block_diagonal([blk], 1, repeated=True)
    x = np.random.default_rng(0).standard_normal(5)
    assert np.allclose(op.apply(x, CoeffSet.REAL), blk @ x)


def test_block_diagonal_block_support():
    blk = sample_use(3, 5, "real", seed=0)
    op = make_block_diagonal([blk], 4, repeated=True)
    x = np.zeros(20)
    x[5:10] = 1.0  # block index 1
    y = op.apply(x, CoeffSet.REAL)
    assert np.all(y[:3] == 0) and np.all(y[6:] == 0)
    assert np.linalg.norm(y[3:6]) > 0


def test_repeated_dense_equals_kron():
    blk = sample_use(2, 4, "real", seed=3)
    op = make_block_diagonal([blk], 3, repeated=True)
    dense = op.dense_real(CoeffSet.REAL)
    assert np.abs(dense - np.kron(np.eye(3), blk)).max() < 1e-15


def test_block_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        make_block_diagonal([np.zeros((2, 3)), np.zeros((2, 4))], 2)
    with pytest.raises(ValueError):
        make_block_diagonal([np.zeros((2, 3))] * 2, 2, repeated=True)


def test_partial_dft_dc_row():
    blk = partial_dft_block(4, [0])
    assert blk.shape == (1, 4)
    assert np.abs(blk - 0.5).max() < 1e-15


def test_partial_dft_rows_orthonormal():
    blk = partial_dft_block(8, [1, 3, 6])
    gram = blk @ blk.conj().T
    assert np.abs(gram - np.eye(3)).max() < 1e-12


def test_partial_dft_prime_general_position():
    blk = partial_dft_block(7, [0, 1, 2])
    assert min_column_minor(blk) > 1e-10


def test_partial_dft_validates_indices():
    with pytest.raises(ValueError):
        partial_dft_block(4, [0, 0])
    with pytest.raises(ValueError):
        partial_dft_block(4, [4])


def test_dirichlet_column_sums():
    # summing each column over an exhaustive frequency set gives M*delta(t)
    for M in (4, 7, 8):
        full = partial_dft_block(M, range(M)) * np.sqrt(M)
        sums = full.sum(axis=0)
        want = np.zeros(M)
        want[0] = M
        assert np.abs(sums - want).max() < 1e-10


def test_real_dft_orthonormal():
    F = real_dft_matrix(17)
    assert np.abs(F @ F.T - np.eye(17)).max() < 1e-12


def test_general_position_rows_search():
    rows = general_position_rows(17, 13, seed=5)
    blk = partial_real_dft_block(17, rows)
    assert min_column_minor(blk) > 1e-9


def _all_at_once_minor(block):
    """min_column_minor as one stack of every minor and one det call."""
    m, M = block.shape
    sub = np.stack([block[:, c] for c in itertools.combinations(range(M), m)])
    return float(np.abs(np.linalg.det(sub)).min())


@pytest.mark.parametrize("block", [
    partial_real_dft_block(17, CRITERION1_ROWS),
    partial_dft_block(7, [0, 1, 3]),
    np.random.default_rng(4).standard_normal((8, 12))],
    ids=["real_dft_17x13", "dft_7x3", "random_8x12"])
def test_min_column_minor_batches_match_one_stack(block, monkeypatch):
    m, M = block.shape
    count = math.comb(M, m)
    want = _all_at_once_minor(block)
    assert min_column_minor(block) == want     # the default batch size
    minor_bytes = m * m * block.itemsize
    # one minor a batch; a last batch of one; exactly one batch; one
    # batch with room to spare
    for per_batch in (1, count - 1, count, count + 1):
        monkeypatch.setattr(ensembles, "MINOR_BATCH_BYTES",
                            per_batch * minor_bytes)
        assert min_column_minor(block) == want


def test_min_column_minor_edge_shapes():
    square = np.random.default_rng(2).standard_normal((5, 5))
    assert min_column_minor(square) == abs(np.linalg.det(square))
    singular = partial_dft_block(7, [0, 1, 3])
    singular[:, 4] = 0.0
    assert min_column_minor(singular) == 0.0
    for shape in ((4, 3), (0, 3)):
        with pytest.raises(ValueError, match="need 1 <= m <= M"):
            min_column_minor(np.ones(shape))


def test_min_column_minor_memory_bounded():
    # C(23, 17) = 100,947 minors: one stack of all of them is ~230 MB
    block = np.random.default_rng(5).standard_normal((17, 23))
    tracemalloc.start()
    try:
        min_column_minor(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


def test_general_position_rows_criterion1_pinned():
    rows = general_position_rows(17, 13, seed=7)
    assert rows.tolist() == CRITERION1_ROWS


def test_aniso_full_rows_is_unitary_2d_dft():
    M = 5
    op = aniso_sampler_2d(M, range(M))
    rng = np.random.default_rng(0)
    x = rng.standard_normal(2 * M * M)
    y = op.apply(x, CoeffSet.COMPLEX)
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-12


def test_aniso_delta_at_origin():
    M = 6
    op = aniso_sampler_2d(M, [0, 2, 5])
    x = np.zeros(2 * M * M)
    x[0] = 1.0  # delta at (0, 0), real part
    y = op.apply(x, CoeffSet.COMPLEX)
    z = y[0::2] + 1j * y[1::2]
    assert np.abs(z - 1.0 / M).max() < 1e-12


def test_aniso_gram_block_structure():
    M = 6
    op = aniso_sampler_2d(M, [1, 4])
    A = op.dense_complex()
    G = A.conj().T @ A
    mask = np.ones_like(G, dtype=bool)
    for b in range(M):
        mask[b * M:(b + 1) * M, b * M:(b + 1) * M] = False
    assert np.abs(G[mask]).max() < 1e-12


def test_aniso_factors_through_block_diag():
    # sampler output equals the exhaustive-axis DFT applied to the repeated
    # partial-DFT block operator output
    for M in (4, 7, 8):
        K1 = [0, M - 2]
        op = aniso_sampler_2d(M, K1)
        bd = rbpft(M, K1, M)
        m = len(K1)
        T = np.kron(partial_dft_block(M, range(M)), np.eye(m))
        rng = np.random.default_rng(M)
        x = rng.standard_normal(2 * M * M)
        y_op = op.apply(x, CoeffSet.COMPLEX)
        z = bd.apply(x, CoeffSet.COMPLEX)
        zc = z[0::2] + 1j * z[1::2]
        yc = T @ zc
        y_ref = np.empty_like(y_op)
        y_ref[0::2] = yc.real
        y_ref[1::2] = yc.imag
        assert np.abs(y_op - y_ref).max() < 1e-10


def test_iso_full_sampling_parseval():
    M = 4
    op = iso_sampler_2d(M, M * M, seed=0)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(2 * M * M)
    y = op.apply(x, CoeffSet.COMPLEX)
    assert abs(np.linalg.norm(y) - np.linalg.norm(x)) < 1e-12


def test_iso_pairs_distinct_and_rows_unit():
    op = iso_sampler_2d(8, 20, seed=3)
    assert len(set(op.sample_set)) == 20
    rows = op.dense_complex()
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < 1e-12
    with pytest.raises(ValueError):
        iso_sampler_2d(4, 17)


def test_real_block_stack_cached_read_only():
    ops = (rbuse(3, 5, 4, "complex", seed=1), dbuse(3, 5, 4, "real", seed=2),
           aniso_sampler_2d(4, [0, 1]))
    for op in ops:
        for cs in (CoeffSet.REAL, CoeffSet.COMPLEX):
            stack = op.real_block_stack(cs)
            assert op.real_block_stack(cs) is stack
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[0, 0, 0] = 1.0


def block_stack_cases():
    """(operator, its diagonal blocks built from the primitives, shared)."""
    def iso_rows(M, pairs):
        t = np.arange(M)
        return np.array([(np.exp(DFT_SIGN * 2j * np.pi
                                 * np.add.outer(k0 * t, k1 * t) / M) / M)
                         .reshape(-1) for k0, k1 in pairs])

    rng3, rng4 = np.random.default_rng(3), np.random.default_rng(4)
    iso = iso_sampler_2d(5, 11, seed=4)
    return [
        (rbuse(3, 6, 4, "real", seed=1), [sample_use(3, 6, "real", 1)] * 4,
         True),
        (rbuse(3, 6, 4, "complex", seed=2),
         [sample_use(3, 6, "complex", 2)] * 4, True),
        (dbuse(3, 6, 1, "real", seed=3), [sample_use(3, 6, "real", rng3)],
         True),
        (dbuse(3, 6, 3, "complex", seed=4),
         [sample_use(3, 6, "complex", rng4) for _ in range(3)], False),
        (rbpft(7, [0, 2, 3], 5), [partial_dft_block(7, [0, 2, 3])] * 5, True),
        (rb_real_dft(9, [0, 1, 4, 6], 3),
         [partial_real_dft_block(9, [0, 1, 4, 6])] * 3, True),
        (aniso_sampler_2d(5, [1, 3]),
         [np.kron(partial_dft_block(5, range(5)),
                  partial_dft_block(5, [1, 3]))], True),
        (iso, [iso_rows(5, iso.sample_set)], True),
    ]


def test_block_stack_matches_per_block_matrices():
    rng = np.random.default_rng(9)
    for op, blocks, shared in block_stack_cases():
        B = len(blocks)
        m, M = blocks[0].shape
        assert op.num_blocks == B and op.shared is shared
        assert op.block_shape == (m, M)
        assert (op.rows, op.cols) == (B * m, B * M)
        if op.is_complex:
            assert np.array_equal(op.dense_complex(), block_diag(*blocks))
        else:
            with pytest.raises(ValueError):
                op.dense_complex()
        for cs in CoeffSet:
            reals = [real_rep_matrix(b, cs.ambient_dim) for b in blocks]
            dense = op.dense_real(cs)
            assert np.array_equal(dense, block_diag(*reals))
            assert np.array_equal(op.real_block_stack(cs), np.stack(reals))
            x = rng.standard_normal(dense.shape[1])
            assert np.allclose(op.apply(x, cs), dense @ x, rtol=0, atol=1e-12)


def test_real_rep_matrix_on_stack():
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
    for arr in (stack, stack.real):
        for ambient in (1, 2):
            out = real_rep_matrix(arr, ambient)
            assert out.shape[0] == 3
            for b in range(3):
                assert np.array_equal(out[b], real_rep_matrix(arr[b], ambient))


def test_real_rep_matrix_conventions():
    A = np.array([[1 + 2j]])
    r2 = real_rep_matrix(A, 2)
    assert np.array_equal(r2, np.array([[1.0, -2.0], [2.0, 1.0]]))
    r1 = real_rep_matrix(A, 1)
    assert np.array_equal(r1, np.array([[1.0], [2.0]]))


def test_sample_signal_zero_sparsity():
    sizes = ProblemSizes(ell=0, m=2, M=6, B=3)
    x = sample_signal(sizes, CoeffSet.REAL, seed=0)
    assert np.all(x.values == 0.0)


def test_sample_signal_free_counts():
    rng = stream(123, "sig")
    for cs in CoeffSet:
        sizes = ProblemSizes(ell=3, m=4, M=9, B=5)
        x = sample_signal(sizes, cs, rng)
        assert count_free(x).tolist() == [3] * 5


def test_sample_signal_box01_interior():
    sizes = ProblemSizes(ell=7, m=7, M=7, B=2)
    x = sample_signal(sizes, CoeffSet.BOX01, seed=5)
    assert np.all((x.values > 0.0) & (x.values < 1.0))


def test_sample_signal_deterministic():
    sizes = ProblemSizes(ell=2, m=3, M=6, B=2)
    a = sample_signal(sizes, CoeffSet.COMPLEX, seed=9)
    b = sample_signal(sizes, CoeffSet.COMPLEX, seed=9)
    assert np.array_equal(a.values, b.values)
