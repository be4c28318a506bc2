import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canica import (
    DataMatrix,
    RowKind,
    SubjectReduction,
    bootstrap_max_correlations,
    group_cca,
    nearest_rank_quantile,
    noise_threshold,
    select_group_subspace,
    simulate_group,
    standardize,
    svd_reduce,
)
from canica import subject_level
from canica.errors import BadDimension, EmptyGroup, EmptyNoise
from canica.streams import CCA_NOISE_BOOT, substream
from canica.subject_level import _whiten, resample_frames
from conftest import gram_tolerances, reference_max_correlations, reference_svd


def reduction_from(patterns, residual=None, subject_id="s"):
    patterns = np.asarray(patterns, float)
    if residual is None:
        residual = substream(0, 0xAB).standard_normal((8, patterns.shape[1])) * 0.1
    return SubjectReduction(
        subject_id=subject_id,
        whitened_patterns=DataMatrix(patterns, RowKind.PATTERNS),
        noise_residual=DataMatrix(residual, RowKind.FRAMES),
        selected_order=patterns.shape[0],
        singular_values=np.ones(patterns.shape[0]),
    )


def random_orthonormal_rows(k, v, seed):
    x = substream(seed, 0xAC).standard_normal((k, v))
    return np.linalg.svd(x, full_matrices=False)[2][:k]


class TestGroupCca:
    def test_identical_subjects_concentrate(self):
        p = random_orthonormal_rows(3, 40, seed=1)
        reds = [reduction_from(p, subject_id=f"s{i}") for i in range(4)]
        dec = group_cca(reds)
        np.testing.assert_allclose(dec.correlations[:3], np.full(3, 2.0), atol=1e-8)
        np.testing.assert_allclose(dec.correlations[3:], 0.0, atol=1e-8)

    def test_identical_subjects_stop_at_rank(self):
        p = random_orthonormal_rows(3, 40, seed=1)
        dec = group_cca([reduction_from(p, subject_id=f"s{i}") for i in range(4)])
        assert dec.correlations.shape == (3,)
        assert dec.pattern_basis.shape == (3, 40)
        assert dec.loading_basis.shape == (12, 3)

    def test_matches_lapack_svd_on_full_rank_stack(self):
        reds = [
            reduction_from(random_orthonormal_rows(4, 50, seed=s), subject_id=f"s{s}")
            for s in range(3)
        ]
        dec = group_cca(reds)
        stacked = np.vstack([r.whitened_patterns.values for r in reds])
        u, s, vt = reference_svd(stacked)
        value_tol, vector_tol = gram_tolerances(s, stacked.shape[0])
        assert (np.abs(dec.correlations - s) <= value_tol).all()
        assert (np.abs(dec.pattern_basis - vt).max(axis=1) <= vector_tol).all()
        assert (np.abs(dec.loading_basis - u).max(axis=0) <= vector_tol).all()

    def test_disjoint_subspaces_stay_at_one(self):
        q = random_orthonormal_rows(6, 60, seed=2)
        reds = [
            reduction_from(q[:3], subject_id="a"),
            reduction_from(q[3:], subject_id="b"),
        ]
        dec = group_cca(reds)
        np.testing.assert_allclose(dec.correlations, np.ones(6), atol=1e-8)

    def test_reconstruction(self):
        reds = [
            reduction_from(random_orthonormal_rows(4, 50, seed=s), subject_id=f"s{s}")
            for s in range(3)
        ]
        dec = group_cca(reds)
        stacked = np.vstack([r.whitened_patterns.values for r in reds])
        recon = (dec.loading_basis * dec.correlations) @ dec.pattern_basis
        rel = np.linalg.norm(stacked - recon) / np.linalg.norm(stacked)
        assert rel < 1e-8

    def test_two_subject_case_matches_direct_cca(self):
        # canonical correlations of two orthonormal-row sets are the
        # singular values of P1 P2^T; stacked values must be
        # sqrt(1 +- cos(theta)), a monotone relation
        p1 = random_orthonormal_rows(3, 30, seed=3)
        p2 = random_orthonormal_rows(3, 30, seed=4)
        cos_theta = np.linalg.svd(p1 @ p2.T, compute_uv=False)
        dec = group_cca([reduction_from(p1, subject_id="a"),
                         reduction_from(p2, subject_id="b")])
        expected = np.sort(np.concatenate([1 + cos_theta, 1 - cos_theta]))[::-1]
        np.testing.assert_allclose(dec.correlations**2, expected, atol=1e-10)

    def test_subject_permutation_equivariance(self):
        reds = [
            reduction_from(random_orthonormal_rows(3, 40, seed=s), subject_id=f"s{s}")
            for s in range(4)
        ]
        a = group_cca(reds)
        b = group_cca(reds[::-1])
        np.testing.assert_allclose(a.correlations, b.correlations, atol=1e-10)
        k = 5
        angles = np.linalg.svd(
            a.pattern_basis[:k] @ b.pattern_basis[:k].T, compute_uv=False
        )
        assert np.abs(angles - 1.0).max() < 1e-8
        # loading blocks are the same rows, permuted block-wise
        blocks_a = [a.loading_basis[s:e] for s, e in a.subject_slices]
        blocks_b = [b.loading_basis[s:e] for s, e in b.subject_slices]
        for ba, bb in zip(blocks_a, blocks_b[::-1]):
            np.testing.assert_allclose(
                np.abs(ba[:, :k]), np.abs(bb[:, :k]), atol=1e-8
            )

    def test_needs_two_subjects(self):
        with pytest.raises(EmptyGroup):
            group_cca([reduction_from(random_orthonormal_rows(2, 20, seed=5))])

    def test_voxel_mismatch(self):
        with pytest.raises(BadDimension):
            group_cca([
                reduction_from(random_orthonormal_rows(2, 20, seed=6), subject_id="a"),
                reduction_from(random_orthonormal_rows(2, 30, seed=7), subject_id="b"),
            ])


class TestNoiseThreshold:
    def make_noise_reductions(self, seed, n_sub=4, f=60, v=300, order=5):
        reds = []
        for s in range(n_sub):
            y = substream(seed, 0xAD, s).standard_normal((f, v))
            series_red = svd_reduce(
                __import__("canica").SubjectSeries(
                    f"s{s}", DataMatrix(y, RowKind.FRAMES)
                ),
                order,
            )
            reds.append(series_red)
        return reds

    def test_threshold_is_nearest_rank_quantile(self):
        reds = self.make_noise_reductions(seed=0)
        maxima = bootstrap_max_correlations(reds, n_boot=40, seed=9)
        thr = noise_threshold(reds, n_boot=40, alpha=0.05, seed=9)
        assert thr == np.sort(maxima)[int(np.ceil(0.95 * 40)) - 1]

    def test_quantile_helper(self):
        vals = np.arange(1.0, 101.0)
        assert nearest_rank_quantile(vals, 0.95) == 95.0
        assert nearest_rank_quantile(vals, 0.5) == 50.0
        for n in (50, 40, 25):
            assert nearest_rank_quantile(vals[:n], 0.95) == math.ceil(0.95 * n)
        # 0.55 * 100 is 55.000000000000007 in binary
        assert nearest_rank_quantile(vals, 1 - 0.45) == 55.0
        assert nearest_rank_quantile(np.arange(1.0, 201.0), 0.55) == 110.0

    @settings(max_examples=200)
    @given(hundredths=st.integers(1, 99), n=st.integers(1, 500))
    def test_quantile_rank_is_exact_for_two_decimal_q(self, hundredths, n):
        rank = math.ceil(Fraction(hundredths, 100) * n)
        assert nearest_rank_quantile(np.arange(1.0, n + 1.0), hundredths / 100) == rank

    def test_empty_noise_rejected(self):
        p = random_orthonormal_rows(2, 30, seed=8)
        reds = [
            reduction_from(p, residual=np.zeros((5, 30)), subject_id="a"),
            reduction_from(p, subject_id="b"),
        ]
        with pytest.raises(EmptyNoise):
            noise_threshold(reds, n_boot=20, seed=0)

    def test_rounding_residual_is_empty_noise(self):
        # standardized 24-frame subjects have rank 23: order 23 leaves rounding
        data = simulate_group(4, 24, 300, 2, 0.3, 0.3, 0.05, seed=10)
        reds = [svd_reduce(standardize(s), 23) for s in data.dataset.subjects]
        residual = reds[0].noise_residual.values
        assert 0.0 < np.linalg.norm(residual) < 1e-9 * reds[0].singular_values[0]
        with pytest.raises(EmptyNoise, match="no noise residual"):
            bootstrap_max_correlations(reds, n_boot=20, seed=10)

    def test_deterministic(self):
        reds = self.make_noise_reductions(seed=1)
        t1 = noise_threshold(reds, n_boot=25, seed=3)
        t2 = noise_threshold(reds, n_boot=25, seed=3)
        assert t1 == t2

    def unequal_reductions(self):
        """Unequal frame counts and orders; 6-frame resamples lose rank."""
        shapes = [(30, 4), (24, 2), (6, 5), (41, 3)]
        return [
            reduction_from(
                random_orthonormal_rows(order, 120, seed=s),
                residual=substream(s, 0xAF).standard_normal((frames, 120)),
                subject_id=f"s{s}",
            )
            for s, (frames, order) in enumerate(shapes)
        ]

    @pytest.mark.parametrize("n_boot", [23, 37])
    @pytest.mark.parametrize("chunk_draws", [1, 5, None])
    def test_equal_to_the_per_draw_loop(self, monkeypatch, n_boot, chunk_draws):
        reds = self.unequal_reductions()
        if chunk_draws is not None:
            # the 41-frame subject's resampled Gram is the largest operand
            monkeypatch.setattr(subject_level, "CHUNK_BYTES", chunk_draws * 8 * 41**2)
        maxima = bootstrap_max_correlations(reds, n_boot=n_boot, seed=4)
        assert np.array_equal(maxima, reference_max_correlations(reds, n_boot, 4))

    def test_unequal_subjects_include_rank_deficient_resamples(self):
        # the 6-frame subject's resamples mix ranks, so a chunk's stack holds
        # matrices with different dead levels and zero map columns
        e = self.unequal_reductions()[2].noise_residual.values
        gram = e @ e.T
        idx = resample_frames(4, CCA_NOISE_BOOT, 37, [30, 24, 6, 41])[2]
        _, ranks, maps = _whiten(gram[idx[:, :, None], idx[:, None, :]], 5, 120)
        assert (ranks < 5).any() and (ranks == 5).any()
        assert (np.abs(maps).sum(axis=1) == 0).any()

    def test_chunks_on_any_thread_count_give_identical_maxima(self, monkeypatch):
        reds = self.make_noise_reductions(seed=2, n_sub=3, f=20, v=80, order=3)
        # 37 draws in 10 chunks: 20 frames make the resampled Grams the largest operands
        monkeypatch.setattr(subject_level, "CHUNK_BYTES", 4 * 8 * 20**2)
        results = []
        for threads in ("1", "3"):
            monkeypatch.setenv("CANICA_THREADS", threads)
            results.append(noise_threshold(reds, n_boot=37, seed=5))
            results.append(bootstrap_max_correlations(reds, n_boot=37, seed=5))
        assert results[0] == results[2]
        assert np.array_equal(results[1], results[3])

    def test_pure_noise_rejects_everything(self):
        hits = 0
        for seed in range(5):
            reds = self.make_noise_reductions(seed=seed, n_sub=6)
            dec = group_cca(reds)
            thr = noise_threshold(reds, n_boot=50, alpha=0.05, seed=seed)
            hits += int((dec.correlations > thr).sum() == 0)
        assert hits >= 4


class TestSelectGroupSubspace:
    def test_total_rejection(self):
        reds = [
            reduction_from(random_orthonormal_rows(3, 40, seed=s), subject_id=f"s{s}")
            for s in range(3)
        ]
        dec = group_cca(reds)
        sub = select_group_subspace(dec, threshold=10.0)
        assert sub.k == 0
        stacked_energy = sum(
            np.linalg.norm(r.whitened_patterns.values) ** 2 for r in reds
        )
        assert np.isclose(sub.residual_ss, stacked_energy)

    def test_total_retention(self):
        reds = [
            reduction_from(random_orthonormal_rows(3, 40, seed=s + 4),
                           subject_id=f"s{s}")
            for s in range(3)
        ]
        dec = group_cca(reds)
        sub = select_group_subspace(dec, threshold=1e-12)
        assert sub.k == len(dec.correlations)
        assert sub.residual_ss < 1e-16

    def test_retained_patterns_orthonormal_and_above_threshold(self):
        data = simulate_group(6, 80, 500, 4, 0.2, 0.3, 0.05, seed=21)
        reds = [svd_reduce(s, 6) for s in data.dataset.subjects]
        dec = group_cca(reds)
        thr = noise_threshold(reds, n_boot=30, seed=2)
        sub = select_group_subspace(dec, thr)
        assert sub.k >= 1
        p = sub.group_patterns.values
        assert np.abs(p @ p.T - np.eye(sub.k)).max() < 1e-8
        assert (sub.canonical_correlations > thr).all()
        assert (sub.canonical_correlations <= np.sqrt(6) + 1e-8).all()

    def test_least_squares_optimality(self):
        # the retained factorization must beat random rank-k alternatives
        data = simulate_group(5, 60, 400, 3, 0.3, 0.2, 0.05, seed=22)
        reds = [svd_reduce(s, 5) for s in data.dataset.subjects]
        dec = group_cca(reds)
        stacked = np.vstack([r.whitened_patterns.values for r in reds])
        k = 3
        best = (
            np.linalg.norm(stacked) ** 2 - (dec.correlations[:k] ** 2).sum()
        )
        rng = substream(5, 0xAE)
        for _ in range(100):
            q = np.linalg.svd(
                rng.standard_normal((k, stacked.shape[1])), full_matrices=False
            )[2][:k]
            load = stacked @ q.T  # optimal loadings for this basis
            alt = np.linalg.norm(stacked - load @ q) ** 2
            assert best <= alt + 1e-9
