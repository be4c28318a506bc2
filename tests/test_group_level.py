import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canica import (
    DataMatrix,
    RowKind,
    SubjectSeries,
    bootstrap_max_correlations,
    cross_grams,
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
from canica.subject_level import _whiten, n_distinct, resample_frames
from conftest import (
    EPS,
    compressed_max_correlations,
    gram_noise,
    gram_tolerances,
    noise_residual,
    projected_maxima_tolerances,
    reference_max_correlations,
    reference_maxima_tolerances,
    reference_svd,
    whitened_patterns,
)


def reduction_from(patterns, residual=None, subject_id="s"):
    """The reduction of data whose top directions are ``patterns``.

    The data stacks the patterns, at distinct gains above the residual's top
    singular value, on ``residual`` with the patterns' span removed. So the
    whitened patterns are ``patterns`` (signed by the sign rule) and the
    noise residual is the rest, on frames of its own.
    """
    patterns = np.asarray(patterns, float)
    if residual is None:
        residual = substream(0, 0xAB).standard_normal((8, patterns.shape[1])) * 0.1
    residual = residual - (residual @ patterns.T) @ patterns
    gains = (2 * np.linalg.norm(residual, 2) + 1) * np.linspace(2, 1, len(patterns))
    data = np.vstack([gains[:, None] * patterns, residual])
    return svd_reduce(SubjectSeries(subject_id, DataMatrix(data, RowKind.FRAMES)),
                      len(patterns))


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
        assert dec.leading(3)[0].shape == (3, 40)
        assert dec.loading_basis.shape == (12, 3)

    @pytest.mark.parametrize("span", [1e2, 1e4, 1e6])
    def test_ill_conditioned_identical_subjects_stop_at_rank(self, span):
        # each subject's kept singular values span ``span``, so the stack
        # Gram's blocks carry the frame Grams' rounding times span^2
        p = random_orthonormal_rows(3, 40, seed=1)
        reds = []
        for i in range(4):
            mix = np.linalg.qr(substream(i, 0xB2).standard_normal((11, 11)))[0]
            residual = substream(i, 0xAB).standard_normal((8, 40)) * 0.1 / span
            residual -= (residual @ p.T) @ p
            y = mix @ np.vstack([np.geomspace(span, 1, 3)[:, None] * p, residual])
            reds.append(svd_reduce(SubjectSeries(f"s{i}", DataMatrix(y, RowKind.FRAMES)), 3))
        dec = group_cca(reds)
        assert dec.correlations.shape == (3,)
        # the stack Gram's dead level: 40 voxels, top eigenvalue span^2
        assert (np.abs(dec.correlations**2 - 4.0) <= 40 * EPS * span**2).all()

    def test_no_voxel_wide_stack_is_made(self):
        data = simulate_group(6, 12, 20000, 2, 0.05, 0.5, 0.1, seed=23)
        reds = [svd_reduce(standardize(s), 4) for s in data.dataset.subjects]
        grams = cross_grams(reds)
        threshold = noise_threshold(reds, n_boot=20, seed=23,
                                    grams={p: g.copy() for p, g in grams.items()})
        tracemalloc.start()
        try:
            subspace = select_group_subspace(group_cca(reds, grams), threshold)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert subspace.k >= 1
        # one copy of the stacked patterns
        assert peak < sum(r.selected_order for r in reds) * 20000 * 8

    def test_matches_lapack_svd_on_full_rank_stack(self):
        reds = [
            reduction_from(random_orthonormal_rows(4, 50, seed=s), subject_id=f"s{s}")
            for s in range(3)
        ]
        dec = group_cca(reds)
        stacked = np.vstack([whitened_patterns(r) for r in reds])
        u, s, vt = reference_svd(stacked)
        value_tol, vector_tol = gram_tolerances(s, stacked.shape[0])
        patterns, loadings = dec.leading(len(s))
        assert (np.abs(dec.correlations - s) <= value_tol).all()
        assert (np.abs(patterns - vt).max(axis=1) <= vector_tol).all()
        assert (np.abs(loadings - u).max(axis=0) <= vector_tol).all()

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
        stacked = np.vstack([whitened_patterns(r) for r in reds])
        patterns, loadings = dec.leading(len(dec.correlations))
        recon = (loadings * dec.correlations) @ patterns
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
            a.leading(k)[0] @ b.leading(k)[0].T, compute_uv=False
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


class TestCrossGrams:
    def make_reductions(self, seed):
        data = simulate_group(4, 30, 300, 2, 0.3, 0.3, 0.05, seed=seed)
        return [svd_reduce(standardize(s), 4) for s in data.dataset.subjects]

    def test_diagonal_is_a_writable_copy_of_each_subject_gram(self):
        reds = self.make_reductions(seed=14)
        table = cross_grams(reds)
        for a, r in enumerate(reds):
            assert table[a, a].tobytes() == r.data.gram.tobytes()
            assert not np.shares_memory(table[a, a], r.data.gram)
            assert table[a, a].flags.writeable

    def test_noise_threshold_leaves_each_subject_gram_unchanged(self):
        reds = self.make_reductions(seed=15)
        before = [r.data.gram.copy() for r in reds]
        table = cross_grams(reds)
        noise_threshold(reds, n_boot=20, seed=15, grams=table)
        for a, (r, gram) in enumerate(zip(reds, before)):
            # the table's copy was projected, the subject's Gram was not
            assert not np.array_equal(table[a, a], gram)
            assert r.data.gram.tobytes() == gram.tobytes()


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
        residual = noise_residual(reds[0])
        assert 0.0 < np.linalg.norm(residual) < 1e-9 * reds[0].singular_values[0]
        with pytest.raises(EmptyNoise, match="no noise residual"):
            bootstrap_max_correlations(reds, n_boot=20, seed=10)

    def test_threshold_holds_one_table(self):
        reds = self.make_noise_reductions(seed=12, n_sub=6, f=200, v=2000, order=5)
        table = cross_grams(reds)
        table_bytes = sum(g.nbytes for g in table.values())
        tracemalloc.start()
        try:
            noise_threshold(reds, n_boot=20, seed=12, grams=table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the residual cross-Grams overwrite the table: no second table is made
        assert peak < 0.6 * table_bytes

    def test_threshold_consumes_the_table(self):
        reds = self.make_noise_reductions(seed=13, n_sub=6, f=200, v=2000, order=5)
        table = cross_grams(reds)
        threshold = noise_threshold(reds, n_boot=20, seed=13, grams=table)
        assert threshold == noise_threshold(reds, n_boot=20, seed=13)
        residuals = [noise_residual(r) for r in reds]
        tops = [r.singular_values[0] for r in reds]
        for (a, b), gram in table.items():
            # the projection keeps the data cross-Gram's rounding
            bound = gram_noise(tops[a] * tops[b], 2000)
            assert np.abs(gram - residuals[a] @ residuals[b].T).max() <= bound

    def test_deterministic(self):
        reds = self.make_noise_reductions(seed=1)
        t1 = noise_threshold(reds, n_boot=25, seed=3)
        t2 = noise_threshold(reds, n_boot=25, seed=3)
        assert t1 == t2

    def unequal_reductions(self):
        """Unequal frame counts and orders; resamples of the 6-frame residual lose rank."""
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
            # the widest subject's compressed Gram is the largest operand
            idx = resample_frames(4, CCA_NOISE_BOOT, n_boot, [r.data.rows for r in reds])
            widest = max(n_distinct(i).max() for i in idx)
            monkeypatch.setattr(subject_level, "CHUNK_BYTES", chunk_draws * 8 * widest**2)
        maxima = bootstrap_max_correlations(reds, n_boot=n_boot, seed=4)
        assert np.array_equal(maxima, compressed_max_correlations(reds, n_boot, 4))
        reference = reference_max_correlations(reds, n_boot, 4)
        bound = reference_maxima_tolerances(reds, reference, 4)
        assert (np.abs(maxima - reference) <= bound).all()

    @pytest.mark.parametrize("case", [
        # (subjects, frames, voxels, standardized, orders)
        (4, 30, 200, True, [5, 3, 6, 4]),
        (4, 30, 200, False, [5, 5, 5, 5]),
        (4, 60, 40, True, [6, 6, 6, 6]),
        (3, 60, 40, False, [6, 4, 6]),
        # one below the rank: each residual has a single live direction, and
        # the rest of every map is zeroed by the data's dead level
        (3, 24, 300, True, [22, 22, 22]),
        (3, 50, 30, False, [29, 29, 29]),
    ], ids=["std-f<n", "raw-f<n", "std-f>n", "raw-f>n", "std-rank-1", "raw-f>n-rank-1"])
    def test_projection_equals_the_residual_products(self, case):
        n_sub, frames, voxels, standardized, orders = case
        subjects = simulate_group(n_sub, frames, voxels, 3, 0.3, 0.3, 0.05,
                                  seed=frames + voxels).dataset.subjects
        if standardized:
            subjects = [standardize(s) for s in subjects]
        reds = [svd_reduce(s, n) for s, n in zip(subjects, orders)]
        assert [r.selected_order for r in reds] == orders
        maxima = bootstrap_max_correlations(reds, n_boot=30, seed=7)
        reference = reference_max_correlations(reds, 30, 7)
        bound = projected_maxima_tolerances(reds, reference, 7)
        assert (np.abs(maxima - reference) <= bound).all()

    def test_low_rank_residual_keeps_its_dead_directions_dead(self):
        # a rank-2 residual, 1% of rank-5 data, whitened to order 5: the
        # projection's rounding of the data Gram must not become live noise
        reds = []
        for s in range(3):
            rng = substream(11, 0xB1, s)
            signal = rng.standard_normal((30, 5)) @ rng.standard_normal((5, 300))
            noise = rng.standard_normal((30, 2)) @ rng.standard_normal((2, 300))
            y = DataMatrix(signal + 0.01 * noise, RowKind.FRAMES)
            reds.append(svd_reduce(SubjectSeries(f"s{s}", y), 5))
        maxima = bootstrap_max_correlations(reds, n_boot=30, seed=3)
        reference = reference_max_correlations(reds, 30, 3)
        bound = projected_maxima_tolerances(reds, reference, 3)
        assert (np.abs(maxima - reference) <= bound).all()

    def test_unequal_subjects_include_rank_deficient_resamples(self):
        # the 6-frame residual's resamples mix ranks, so a chunk's stack holds
        # matrices with different dead levels and zero map columns
        reds = self.unequal_reductions()
        e = noise_residual(reds[2])
        gram = e @ e.T
        idx = resample_frames(4, CCA_NOISE_BOOT, 37, [r.data.rows for r in reds])[2]
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

    def test_bits_do_not_depend_on_the_chunk_budget_or_thread_cap(self, monkeypatch):
        reds = self.unequal_reductions()
        expected = bootstrap_max_correlations(reds, n_boot=37, seed=6)
        for threads in ("1", "3"):
            monkeypatch.setenv("CANICA_THREADS", threads)
            for budget in (1, 8 * 30**2, 1 << 16, 1 << 30):
                monkeypatch.setattr(subject_level, "CHUNK_BYTES", budget)
                maxima = bootstrap_max_correlations(reds, n_boot=37, seed=6)
                assert np.array_equal(maxima, expected)

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
        stacked_energy = sum(np.linalg.norm(whitened_patterns(r)) ** 2 for r in reds)
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
        stacked = np.vstack([whitened_patterns(r) for r in reds])
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
