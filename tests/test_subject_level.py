import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import linalg as sla

from canica import (
    DataMatrix,
    RowKind,
    SubjectSeries,
    make_ground_truth,
    order_stability,
    select_order,
    simulate_group,
    simulate_subject,
    standardize,
    svd_reduce,
)
from canica import subject_level
from canica.errors import BadDimension
from canica.pipeline import order_seeds
from canica.streams import ORDER_DATA_BOOT, substream
from canica.subject_level import (
    _bootstrap_gains,
    _whiten,
    draw_chunks,
    n_distinct,
    resample_frames,
    whiten_distinct,
)
from conftest import (
    EPS,
    compressed_bootstrap_gains,
    gram_tolerances,
    live_vector_tolerances,
    noise_residual,
    reference_bootstrap_gains,
    reference_gain_tolerances,
    reference_svd,
    resample_spectrum,
    whitened_patterns,
)


def series_of(values):
    return SubjectSeries("s", DataMatrix(np.asarray(values, float), RowKind.FRAMES))


def noiseless_rank_subject(k, n_frames, n_voxels, seed):
    """Exactly rank-k subject with well-separated direction strengths."""
    gains = np.linspace(2.2, 1.0, k)
    truth = make_ground_truth(
        k_true=k, n_voxels=n_voxels, n_subjects=1, n_frames=n_frames,
        sparsity=0.2, noise_scale=0.0, variability_scale=0.0, seed=seed,
        pattern_gains=gains,
    )
    return simulate_subject(truth, 0, n_frames)


class TestSvdReduce:
    def test_rank_one(self):
        u = np.array([1.0, 2.0, 2.0])
        v = np.array([3.0, 0.0, 4.0, 0.0])
        red = svd_reduce(series_of(np.outer(u, v)), order=1)
        assert np.linalg.norm(noise_residual(red)) < 1e-10
        assert np.isclose(
            red.singular_values[0], np.linalg.norm(u) * np.linalg.norm(v)
        )

    def test_diagonal_case(self):
        red = svd_reduce(series_of(np.diag([5.0, 4.0, 3.0, 2.0, 1.0])), order=2)
        np.testing.assert_allclose(red.singular_values[:2], [5.0, 4.0])
        assert np.isclose(
            np.linalg.norm(noise_residual(red)), np.sqrt(9.0 + 4.0 + 1.0)
        )

    def test_against_independent_svd_driver(self):
        # reference values from the gesvd driver, not the gesdd default
        rng = substream(0, 0xF00D)
        y = rng.standard_normal((200, 5000))
        red = svd_reduce(series_of(y), order=50)
        ref = sla.svd(y, compute_uv=False, lapack_driver="gesvd")
        rel = np.abs(red.singular_values - ref) / ref[0]
        assert rel.max() < 1e-8

    def test_invariants(self):
        rng = substream(1, 0xF00D)
        y = rng.standard_normal((80, 500))
        red = svd_reduce(series_of(y), order=20)
        p = whitened_patterns(red)
        e = noise_residual(red)
        assert np.abs(p @ p.T - np.eye(20)).max() < 1e-8
        assert np.abs(e @ p.T).max() < 1e-8
        total = np.linalg.norm(y) ** 2
        retained = (red.singular_values[:20] ** 2).sum()
        residual = np.linalg.norm(e) ** 2
        assert abs(total - retained - residual) / total < 1e-6

    def test_nested_orders_agree(self):
        rng = substream(2, 0xF00D)
        y = rng.standard_normal((40, 120))
        big = svd_reduce(series_of(y), order=10)
        small = svd_reduce(series_of(y), order=4)
        np.testing.assert_allclose(
            whitened_patterns(big)[:4],
            whitened_patterns(small),
            atol=1e-12,
        )

    def test_sign_convention(self):
        rng = substream(3, 0xF00D)
        y = rng.standard_normal((30, 90))
        p = whitened_patterns(svd_reduce(series_of(y), order=5))
        peaks = np.argmax(np.abs(p), axis=1)
        assert (p[np.arange(5), peaks] > 0).all()

    @pytest.mark.parametrize("shape", [(40, 300), (25, 2000), (60, 61)])
    def test_matches_lapack_svd_on_full_rank_input(self, shape):
        y = substream(4, 0xF00D).standard_normal(shape)
        order = shape[0] // 2
        red = svd_reduce(series_of(y), order)
        u, s, vt = reference_svd(y)
        value_tol, vector_tol = gram_tolerances(s, shape[0])
        assert red.selected_order == order
        assert (np.abs(red.singular_values - s) <= value_tol).all()
        error = np.abs(whitened_patterns(red) - vt[:order]).max(axis=1)
        assert (error <= vector_tol[:order]).all()
        residual = y - (u[:, :order] * s[:order]) @ vt[:order]
        assert np.abs(noise_residual(red) - residual).max() <= (
            vector_tol[:order].max() * s[0]
        )

    def test_order_above_rank_keeps_the_rank(self):
        # standardized columns sum to zero, so f frames span f - 1 directions
        f = 24
        y = substream(5, 0xF00D).standard_normal((f, 300))
        series = standardize(series_of(y))
        red = svd_reduce(series, order=f)
        p = whitened_patterns(red)
        assert red.selected_order == f - 1 and p.shape == (f - 1, 300)
        assert red.singular_values.shape == (f,)
        _, s, _ = reference_svd(series.data.values)
        value_tol, _ = gram_tolerances(s, f)
        assert (np.abs(red.singular_values - s) <= value_tol).all()
        assert np.abs(p @ p.T - np.eye(f - 1)).max() < 1e-8
        assert np.abs(noise_residual(red) @ p.T).max() < 1e-8

    def test_reduction_holds_the_series_and_no_voxel_wide_copy(self):
        f, n = 40, 5000
        series = series_of(substream(6, 0xF00D).standard_normal((f, n)))
        tracemalloc.start()
        try:
            red = svd_reduce(series, order=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < f * n * 8
        assert red.data.values is series.data.values

    @pytest.mark.parametrize("order", [0, 11])
    def test_order_bounds(self, order):
        with pytest.raises(BadDimension):
            svd_reduce(series_of(np.eye(10)), order=order)


class TestSelectOrder:
    def test_noiseless_rank_five(self):
        for seed in range(5):
            series = noiseless_rank_subject(5, 300, 1500, seed)
            assert select_order(series, max_order=12, n_boot=50, seed=seed) == 5

    def test_pure_noise_selects_zero(self):
        hits = 0
        for seed in range(5):
            y = substream(seed, 0xF00E).standard_normal((150, 900))
            if select_order(series_of(y), max_order=10, n_boot=50, seed=seed) == 0:
                hits += 1
        assert hits >= 4

    def test_constant_matrix_is_order_zero(self):
        curve = order_stability(
            series_of(np.full((20, 40), 3.0)), max_order=5, n_boot=20, seed=0
        )
        assert curve.selected == 0
        assert not curve.passed.any()

    def test_deterministic(self):
        series = noiseless_rank_subject(3, 100, 400, seed=7)
        a = order_stability(series, max_order=8, n_boot=25, seed=42)
        b = order_stability(series, max_order=8, n_boot=25, seed=42)
        assert a.selected == b.selected
        np.testing.assert_array_equal(a.data_stability, b.data_stability)
        np.testing.assert_array_equal(a.null_quantile, b.null_quantile)

    def test_curve_shape(self):
        series = noiseless_rank_subject(2, 60, 200, seed=1)
        curve = order_stability(series, max_order=6, n_boot=20, seed=0)
        assert curve.orders.tolist() == [1, 2, 3, 4, 5, 6]
        assert curve.data_stability.shape == (6,)
        assert curve.null_quantile.shape == (6,)
        assert curve.selected == 2

    def test_a_failed_order_inside_the_signal_band_does_not_stop_selection(self):
        # subject 5 of a fit-ref-shaped group, on the seed ``fit`` gives it,
        # fails order 5 by 0.001 and passes every order from 6 to 10
        data = simulate_group(12, 60, 1000, 10, 0.05, 0.5, 0.1, seed=7)
        series = standardize(data.dataset.subjects[5])
        (seed,) = order_seeds(7, [5])
        curve = order_stability(series, max_order=20, seed=seed)
        assert curve.passed.tolist() == [True] * 4 + [False] + [True] * 5 + [False] * 10
        assert curve.selected == 10

    def test_preconditions(self):
        series = noiseless_rank_subject(2, 60, 200, seed=2)
        with pytest.raises(BadDimension):
            select_order(series, max_order=31, n_boot=20)  # > min(f, v)/2
        with pytest.raises(BadDimension):
            select_order(series, max_order=5, n_boot=10)  # too few draws


def low_rank_gram(n_frames, rank, n_voxels, seed):
    """Frame Gram of a standard normal series with ``rank`` directions."""
    rng = substream(seed, 0xF00F)
    y = rng.standard_normal((n_frames, rank)) @ rng.standard_normal((rank, n_voxels))
    return y @ y.T


class TestBatchedDraws:
    @settings(max_examples=40)
    @given(
        exponents=st.lists(st.integers(-6, 6), min_size=1, max_size=6),
        n_frames=st.integers(2, 12),
        rank=st.integers(1, 12),
        order=st.integers(1, 12),
        seed=st.integers(0, 2**16),
    )
    def test_stacked_whiten_equals_whiten_of_each_matrix(
        self, exponents, n_frames, rank, order, seed
    ):
        # scales far apart: each matrix's dead level must come from its own top
        rank, order = min(rank, n_frames), min(order, n_frames)
        grams = np.stack([
            low_rank_gram(n_frames, rank, 30, seed + i) * 10.0**e
            for i, e in enumerate(exponents)
        ])
        s, ranks, maps = _whiten(grams, order, 30)
        assert ranks.shape == (len(exponents),)
        for g, s_g, rank_g, map_g in zip(grams, s, ranks, maps):
            one = _whiten(g, order, 30)
            assert isinstance(one[1], int)
            assert np.array_equal(s_g, one[0])
            assert rank_g == one[1]
            assert np.array_equal(map_g, one[2])

    @pytest.mark.parametrize("n_boot", [23, 37])
    @pytest.mark.parametrize("chunk_draws", [1, 5, None])
    @pytest.mark.parametrize(
        "n_frames, rank, max_order",
        [(30, 30, 7), (24, 3, 6), (41, 41, 12)],
    )
    def test_equal_to_the_per_draw_loop(
        self, monkeypatch, n_boot, chunk_draws, n_frames, rank, max_order
    ):
        # rank 3 under order 6 leaves dead directions, and zero map columns,
        # in the reference map and in every resample
        if chunk_draws is not None:
            # the narrowest draws' compressed Grams fill a chunk with chunk_draws
            (idx,) = resample_frames(11, ORDER_DATA_BOOT, n_boot, [n_frames])
            width = max(n_distinct(idx).min(), max_order)
            monkeypatch.setattr(subject_level, "CHUNK_BYTES", chunk_draws * 8 * width**2)
        gram = low_rank_gram(n_frames, rank, 200, seed=n_frames)
        _, _, ref_map = _whiten(gram, max_order, 200)
        args = (gram, ref_map, 200, n_boot, 11, ORDER_DATA_BOOT)
        gains = _bootstrap_gains(*args)
        assert np.array_equal(gains, compressed_bootstrap_gains(*args))
        error = np.abs(gains - reference_bootstrap_gains(*args))
        assert (error <= reference_gain_tolerances(*args)).all()

    def test_bits_do_not_depend_on_the_chunk_budget_or_thread_cap(self, monkeypatch):
        gram = low_rank_gram(41, 41, 200, seed=2)
        _, _, ref_map = _whiten(gram, 12, 200)
        args = (gram, ref_map, 200, 37, 11, ORDER_DATA_BOOT)
        expected = _bootstrap_gains(*args)
        for threads in ("1", "3"):
            monkeypatch.setenv("CANICA_THREADS", threads)
            for budget in (1, 8 * 30**2, 1 << 16, 1 << 30):
                monkeypatch.setattr(subject_level, "CHUNK_BYTES", budget)
                assert np.array_equal(_bootstrap_gains(*args), expected)

    def test_reference_frame_count_plans_several_draws_per_chunk(self, monkeypatch):
        # a full 200 x 200 resampled Gram alone would fill the default budget
        sizes = []

        def recording(draws, draw_bytes):
            chunks = draw_chunks(draws, draw_bytes)
            sizes.extend(len(c) for c in chunks)
            return chunks

        monkeypatch.setattr(subject_level, "draw_chunks", recording)
        gram = low_rank_gram(200, 200, 400, seed=3)
        _, _, ref_map = _whiten(gram, 20, 400)
        _bootstrap_gains(gram, ref_map, 400, 100, 0, ORDER_DATA_BOOT)
        assert sum(sizes) == 100
        assert len(sizes) < 50 and max(sizes) > 1


@st.composite
def resampled_grams(draw):
    """A low-rank frame Gram, a few resamples of its frames and an order.

    Frame counts reach above the voxel count and orders above a resample's
    distinct count.
    """
    n_frames = draw(st.integers(2, 16))
    n_voxels = draw(st.integers(2, 24))
    rank = draw(st.integers(1, min(n_frames, n_voxels)))
    gram = low_rank_gram(n_frames, rank, n_voxels, draw(st.integers(0, 2**16)))
    frame = st.integers(0, n_frames - 1)
    resample = st.lists(frame, min_size=n_frames, max_size=n_frames)
    idx = np.array(draw(st.lists(resample, min_size=1, max_size=4)))
    return gram, idx, draw(st.integers(1, n_frames)), n_voxels


# Frame 1's eigenvalue, 5 eps of frame 0's, lies under the dead level of the
# 8-frame resample (8 eps) and over that of its 3 distinct frames (3 eps);
# diagonal Grams make every eigenvalue exact.
PLANTED_DEAD = (np.diag([1.0, 5 * EPS] + [0.0] * 6),
                np.array([[0, 1, 2, 2, 2, 2, 2, 2]]), 2, 3)


class TestDistinctFrames:
    @settings(max_examples=80)
    @given(case=resampled_grams())
    @example(case=PLANTED_DEAD)
    @example(case=(low_rank_gram(10, 4, 30, seed=0), np.full((2, 10), 3), 5, 30))
    def test_whitening_maps_the_full_resample(self, case):
        gram, idx, order, n_voxels = case
        n_frames = gram.shape[0]
        size = max(n_frames, n_voxels)
        width = max(int(n_distinct(idx).max()), order)
        frames, counts, maps = whiten_distinct(gram, idx, width, order, n_voxels)
        assert frames.shape == counts.shape == (len(idx), width)
        for i, u, d, m in zip(idx, frames, counts, maps):
            present = np.unique(i)
            assert d.sum() == n_frames
            assert np.array_equal(u[: len(present)], present)
            assert np.array_equal(d[: len(present)], np.bincount(i)[present])
            assert (d[len(present):] == 0).all() and len(set(u.tolist())) == width
            # the resample's patterns against the data: map^T Y[u] Y^T
            got = m.T @ gram[u, :]
            want = _whiten(gram[np.ix_(i, i)], order, size)[2].T @ gram[i, :]
            assert np.array_equal(got.any(axis=1), want.any(axis=1))
            sign = np.where((got * want).sum(axis=1) < 0, -1.0, 1.0)[:, None]
            vector_tol = live_vector_tolerances(resample_spectrum(gram, i), n_frames, size)
            norm = np.linalg.norm(gram, 2)
            tol = (vector_tol[:order] * np.sqrt(norm)
                   + 10 * n_frames * EPS * np.linalg.norm(m, axis=0) * norm)
            assert (np.abs(sign * got - want).max(axis=1) <= tol).all()


def rank_rule_cases():
    """Reductions of f < n and f > n data, raw and standardized, up to the rank."""
    for f, n in [(16, 50), (24, 300), (50, 16), (40, 24), (20, 20)]:
        top = min(f, n)
        for kind in ("raw", "std"):
            for order in [*range(1, 13), top - 2, top - 1, top]:
                yield pytest.param(f, n, kind == "std", order, id=f"{f}x{n}-{kind}-{order}")


class TestKeptWhitening:
    def test_read_only_and_unchanged_by_its_readers(self):
        series = standardize(series_of(substream(3, 0xF00F).standard_normal((40, 300))))
        kept = series.data.whitening
        s, rank, w = kept
        before = (s.tobytes(), rank, w.tobytes())
        for array in (s, w):
            with pytest.raises(ValueError):
                array[0] = 1.0
        reductions = [svd_reduce(series, order) for order in (3, 12)]
        order_stability(series, 10, n_boot=20, seed=3)
        assert series.data.whitening is kept
        assert (s.tobytes(), rank, w.tobytes()) == before
        for red in reductions:
            assert not np.shares_memory(red.frame_basis, w)


class TestHasNoise:
    @pytest.mark.parametrize("f, n, standardized, order", rank_rule_cases())
    def test_rank_rule_agrees_with_the_residual_energy(self, f, n, standardized, order):
        series = series_of(substream(f * n + order, 0xF00E).standard_normal((f, n)))
        if standardized:
            series = standardize(series)
        red = svd_reduce(series, order)
        e = noise_residual(red)
        level = red.singular_values[0] ** 2 * max(f, n) * EPS
        assert red.has_noise == (float(np.vdot(e, e)) > level)
