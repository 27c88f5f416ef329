import numpy as np
import pytest

from ptlab.coeffsets import CoeffSet
from ptlab.ensembles import (MeasurementOperator, ProblemSizes,
                             aniso_sampler_2d, iso_sampler_2d,
                             make_block_diagonal, partial_dft_block, rbpft,
                             rbuse, sample_signal)
from ptlab.solver import solve_p1
from ptlab.verify import (EquivalenceOutcome, check_equivalence,
                          check_gram_structure, check_isometry_factorization,
                          dense_aniso_entrywise, reduce_rank_deficient,
                          run_verification_suite, tao_min_minor)
from ptlab.seeds import stream


def test_gram_structure_4x4():
    rep = check_gram_structure(aniso_sampler_2d(4, [0, 2]))
    assert rep.max_offblock < 1e-12
    assert rep.block_deviation < 1e-12
    assert rep.block_rank == 2
    assert rep.eigvec_residuals.max() < 1e-10
    assert rep.complement_norms.max() < 1e-10


def test_gram_full_sampling_is_identity():
    M = 4
    rep = check_gram_structure(aniso_sampler_2d(M, range(M)))
    assert np.abs(rep.G - np.eye(M * M)).max() < 1e-12
    assert rep.block_rank == M


def test_gram_rejects_non_fourier():
    with pytest.raises(ValueError):
        check_gram_structure(rbuse(2, 4, 4, "real", seed=0))
    with pytest.raises(ValueError):
        check_gram_structure(iso_sampler_2d(4, 7, seed=0))
    with pytest.raises(ValueError):
        check_gram_structure(rbpft(4, [0, 2], 4))
    # an int sample_set that does not match the block's (M*|K1|, M^2) shape
    aniso = aniso_sampler_2d(4, [0, 2])
    with pytest.raises(ValueError):
        check_gram_structure(MeasurementOperator(blocks=aniso.blocks,
                                                 sample_set=[0, 1, 2]))


def test_eigvec_residuals_8():
    rep = check_gram_structure(aniso_sampler_2d(8, [1, 4, 6]))
    inside, outside = rep.eigvec_residuals, rep.complement_norms
    assert inside.shape == (3,)
    assert inside.max() < 1e-10
    assert outside.max() < 1e-10


def test_aniso_dense_matches_entrywise_definition():
    for M, K1 in ((4, [0, 2]), (7, [0, 1, 3])):
        op = aniso_sampler_2d(M, K1)
        assert np.abs(op.dense_complex()
                      - dense_aniso_entrywise(M, K1)).max() < 1e-13


def one_block(A):
    return make_block_diagonal([A], 1, repeated=True)


def test_reduce_full_rank_keeps_value():
    rng = stream(0, "reduce")
    G = rng.standard_normal((6, 6))
    x0 = np.zeros(6)
    x0[[1, 4]] = rng.standard_normal(2)
    b = G @ x0
    red = reduce_rank_deficient(G, b)
    assert red.rank == 6 and not red.ambiguous
    v_orig = solve_p1(one_block(G), b, CoeffSet.REAL).value
    v_red = solve_p1(one_block(red.A), red.y, CoeffSet.REAL).value
    assert abs(v_orig - v_red) < 1e-8 * (1 + v_orig)


def test_reduce_duplicated_rows():
    rng = stream(1, "reduce")
    base = rng.standard_normal((3, 6))
    G = np.vstack([base, base])  # 6 x 6 with rank 3
    x0 = np.zeros(6)
    x0[2] = 1.3
    b = G @ x0
    red = reduce_rank_deficient(G, b)
    assert red.rank == 3
    assert red.A.shape == (3, 6)
    v_orig = solve_p1(one_block(base), base @ x0, CoeffSet.REAL).value
    v_red = solve_p1(one_block(red.A), red.y, CoeffSet.REAL).value
    assert abs(v_orig - v_red) < 1e-8


def test_reduce_zero_matrix():
    red = reduce_rank_deficient(np.zeros((4, 5)), np.zeros(4))
    assert red.rank == 0 and red.A.shape == (0, 5)
    # unconstrained: the optimum is the norm minimizer over the set
    res = solve_p1(one_block(np.zeros((1, 5))), np.zeros(1), CoeffSet.REAL)
    assert res.value == pytest.approx(0.0, abs=1e-12)


def test_reduce_flags_ambiguous_rank():
    G = np.diag([1.0, 1e-10, 1e-16])
    red = reduce_rank_deficient(G, np.zeros(3))
    assert red.ambiguous


def test_equivalence_fully_determined():
    M = 4
    sizes = ProblemSizes(2, M, M, M)
    x0 = sample_signal(sizes, CoeffSet.COMPLEX, seed=3)
    rep = check_equivalence(M, range(M), x0.values, CoeffSet.COMPLEX)
    assert rep.outcome is EquivalenceOutcome.PASS
    assert rep.value_gap < 1e-8 * (1 + rep.val_aus)


def test_equivalence_zero_signal():
    rep = check_equivalence(5, [0, 2], np.zeros(2 * 25), CoeffSet.COMPLEX)
    assert rep.val_aus == pytest.approx(0.0, abs=1e-12)
    assert rep.val_blockdiag == pytest.approx(0.0, abs=1e-12)
    assert rep.outcome is EquivalenceOutcome.PASS


def test_equivalence_complex_instances():
    for i in range(6):
        sizes = ProblemSizes(i % 3, 3, 7, 7)
        x0 = sample_signal(sizes, CoeffSet.COMPLEX, stream(10, "eq", i))
        rep = check_equivalence(7, [0, 1, 3], x0.values, CoeffSet.COMPLEX)
        assert rep.outcome is EquivalenceOutcome.PASS


def test_equivalence_box01_instances():
    for i in range(4):
        sizes = ProblemSizes(1, 3, 7, 7)
        x0 = sample_signal(sizes, CoeffSet.BOX01, stream(11, "eqb", i))
        rep = check_equivalence(7, [0, 2, 3], x0.values, CoeffSet.BOX01)
        assert rep.outcome is EquivalenceOutcome.PASS


def test_equivalence_guards():
    with pytest.raises(ValueError):
        check_equivalence(32, [0], np.zeros(2 * 32 * 32), CoeffSet.COMPLEX)
    with pytest.raises(ValueError):
        check_equivalence(4, [0], np.zeros(16), CoeffSet.REAL)


def test_isometry_factorization():
    rep = check_isometry_factorization(4, [0, 2])
    assert rep.max_deviation < 1e-12
    assert rep.t_isometry_dev < 1e-12
    assert rep.v_l1_dev == 0.0 and rep.v_l2_dev == 0.0


def test_factorization_full_rows_is_2d_dft():
    M = 4
    F = partial_dft_block(M, range(M))
    full = dense_aniso_entrywise(M, range(M))
    assert np.abs(full - np.kron(F, F)).max() < 1e-13


def test_tao_general_position_primes():
    for M in (5, 7, 11, 13):
        for m in (2, 3, 4):
            if m < M:
                assert tao_min_minor(M, m) > 1e-10


def test_suite_report_passes():
    report = run_verification_suite(seed=0, instances=4)
    assert report["pass"]
    assert len(report["gram"]) == 4
    assert len(report["factorization"]) == 2
    assert report["equivalence"]["no_decision"] == 0
