from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from canica import (
    GroupDataset,
    PipelineConfig,
    build_report,
    cross_correlation,
    fit_group,
    match_components,
    measures,
    normalize_mask_rows,
    overlap_histogram,
    simulate_group,
    split_half,
    standardize,
)
from canica.errors import BadDimension, TooFewSubjects
from canica.reproducibility import RAW_MODE, THRESHOLDED_MODE, components_of
from canica.streams import substream
from conftest import brute_force_match


@st.composite
def weight_matrices(draw):
    """|C|-like matrices of 1..15 x 1..15, tie-free or tie-heavy.

    Tie-free entries have distinct magnitudes. Tie-heavy ones are rounded
    to one decimal with whole rows and columns zeroed, as empty thresholded
    masks give, or all equal.
    """
    shape = (draw(st.integers(1, 15)), draw(st.integers(1, 15)))
    kind = draw(st.sampled_from(["tie-free", "rounded", "all-equal"]))
    if kind == "all-equal":
        return np.full(shape, draw(st.sampled_from([0.0, 0.3, -1.0])))
    if kind == "tie-free":
        magnitudes = draw(arrays(float, shape, unique=True, elements=st.floats(
            0.0, 1.0, exclude_min=True, allow_subnormal=False)))
        return magnitudes * draw(arrays(float, shape, elements=st.sampled_from([-1.0, 1.0])))
    c = draw(arrays(float, shape, elements=st.sampled_from(np.arange(-10, 11) / 10.0)))
    c[draw(arrays(bool, shape[0]))] = 0.0
    c[:, draw(arrays(bool, shape[1]))] = 0.0
    return c


def orthonormal_rows(k, v, seed):
    x = substream(seed, 0xDA).standard_normal((k, v))
    return np.linalg.svd(x, full_matrices=False)[2][:k]


class TestCrossCorrelation:
    def test_self_comparison_is_identity(self):
        a = orthonormal_rows(4, 50, seed=0)
        np.testing.assert_allclose(cross_correlation(a, a), np.eye(4), atol=1e-12)

    def test_disjoint_sets_give_zero(self):
        q = orthonormal_rows(6, 60, seed=1)
        c = cross_correlation(q[:3], q[3:])
        np.testing.assert_allclose(c, 0.0, atol=1e-12)

    def test_thresholded_overlap_formula(self):
        m1 = np.zeros((1, 1000))
        m2 = np.zeros((1, 1000))
        m1[0, :100] = 1.0
        m2[0, 50:250] = 1.0  # overlap of 50 voxels
        c = cross_correlation(normalize_mask_rows(m1), normalize_mask_rows(m2))
        assert np.isclose(c[0, 0], 50.0 / np.sqrt(100.0 * 200.0))

    def test_voxel_mismatch(self):
        with pytest.raises(BadDimension):
            cross_correlation(np.eye(2), np.eye(3))

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError):
            cross_correlation(2.0 * np.eye(3), np.eye(3))

    def test_empty_mask_rows_stay_zero(self):
        masks = np.zeros((2, 40))
        masks[0, :10] = 1.0
        normed = normalize_mask_rows(masks)
        assert np.isclose(np.linalg.norm(normed[0]), 1.0)
        assert np.linalg.norm(normed[1]) == 0.0


class TestMatchComponents:
    def test_two_by_two_cross(self):
        c = np.array([[0.1, 0.9], [0.8, 0.2]])
        matching = match_components(c)
        assert matching.pairs == ((0, 1), (1, 0))
        assert np.isclose(matching.matched_sum, 1.7)

    def test_identity(self):
        matching = match_components(np.eye(4))
        assert matching.pairs == tuple((i, i) for i in range(4))

    def test_matches_brute_force_square(self):
        for seed in range(10):
            c = substream(seed, 0xDB).uniform(-1, 1, size=(6, 6))
            matching = match_components(c)
            assert np.isclose(matching.matched_sum, brute_force_match(c))

    def test_matches_brute_force_rectangular(self):
        for seed in range(5):
            c = substream(seed, 0xDC).uniform(-1, 1, size=(3, 5))
            matching = match_components(c)
            assert np.isclose(matching.matched_sum, brute_force_match(c))
            assert len(matching.pairs) == 3
        for seed in range(5):
            c = substream(seed, 0xDD).uniform(-1, 1, size=(5, 3))
            matching = match_components(c)
            assert np.isclose(matching.matched_sum, brute_force_match(c))
            assert len(matching.pairs) == 3

    @settings(max_examples=400)
    @given(weight_matrices())
    @example(np.linspace(0.1, 1.0, 15)[None, :])
    @example(np.linspace(0.1, 1.0, 15)[:, None])
    @example(np.zeros((1, 15)))
    @example(np.zeros((15, 1)))
    @example(np.full((15, 15), 0.5))
    def test_pairs_equal_scipy(self, c):
        rows, cols = linear_sum_assignment(np.abs(c), maximize=True)
        smaller = 0 if c.shape[0] <= c.shape[1] else 1
        expected = sorted(zip(rows.tolist(), cols.tolist()), key=lambda p: p[smaller])
        matching = match_components(c)
        assert matching.pairs == tuple(expected)

    def test_at_least_as_good_as_greedy(self):
        for seed in range(10):
            c = substream(seed, 0xDF).uniform(-1, 1, size=(12, 12))
            matching = match_components(c)
            work = np.abs(c).copy()
            greedy = 0.0
            for _ in range(12):
                i, j = np.unravel_index(np.argmax(work), work.shape)
                greedy += work[i, j]
                work[i, :] = -1.0
                work[:, j] = -1.0
            assert matching.matched_sum >= greedy - 1e-12


class TestMeasures:
    def test_identical_sets(self):
        a = orthonormal_rows(5, 40, seed=2)
        c = cross_correlation(a, a)
        matching = match_components(c)
        e, t = measures(c, matching)
        assert np.isclose(e, 1.0) and np.isclose(t, 1.0)

    def test_orthogonal_sets(self):
        q = orthonormal_rows(8, 80, seed=3)
        c = cross_correlation(q[:4], q[4:])
        matching = match_components(c)
        e, t = measures(c, matching)
        assert np.isclose(e, 0.0, atol=1e-20) and np.isclose(t, 0.0, atol=1e-10)

    def test_e_recomputable_from_c(self):
        a = orthonormal_rows(4, 60, seed=4)
        b = orthonormal_rows(3, 60, seed=5)
        report = build_report(a, b, RAW_MODE)
        c = report.cross_correlation
        d = min(c.shape)
        assert abs(report.e - np.trace(c.T @ c) / d) < 1e-12

    def test_bounds_for_orthonormal_sets(self):
        for seed in range(5):
            a = orthonormal_rows(4, 50, seed=seed + 10)
            b = orthonormal_rows(4, 50, seed=seed + 20)
            report = build_report(a, b, RAW_MODE)
            assert 0.0 <= report.t**2 <= report.e <= 1.0 + 1e-12

    def test_e_rotation_invariant(self):
        a = orthonormal_rows(4, 50, seed=6)
        b = orthonormal_rows(4, 50, seed=7)
        e0 = build_report(a, b, RAW_MODE).e
        for seed in range(3):
            rot = np.linalg.qr(substream(seed, 0xDE).standard_normal((4, 4)))[0]
            e1 = build_report(rot @ a, b, RAW_MODE).e
            assert abs(e1 - e0) < 1e-10

    def test_t_invariant_to_permutation_and_sign(self):
        a = orthonormal_rows(4, 50, seed=8)
        b = orthonormal_rows(4, 50, seed=9)
        t0 = build_report(a, b, RAW_MODE).t
        flipped = (a * np.array([1.0, -1.0, 1.0, -1.0])[:, None])[[2, 0, 3, 1]]
        t1 = build_report(flipped, b, RAW_MODE).t
        assert abs(t1 - t0) < 1e-10

    def test_max_overlap_histogram(self):
        a = orthonormal_rows(3, 40, seed=10)
        b = orthonormal_rows(5, 40, seed=11)
        report = build_report(a, b, RAW_MODE)
        assert report.max_overlap.shape == (8,)
        counts, edges = overlap_histogram(report)
        assert counts.sum() == 8
        assert edges.size == 21


class TestSplitHalf:
    CONFIG = PipelineConfig(
        fixed_order=8,
        cca_n_boot=30,
        order_n_boot=30,
        ica_restarts=3,
    )

    def make_dataset(self, seed=0):
        gains = np.linspace(2.0, 1.0, 4)
        return simulate_group(
            8, 100, 600, 4, 0.2, 0.3, 0.05, seed=seed, pattern_gains=gains
        ).dataset

    def test_strong_signal_reproducible(self):
        result = split_half(self.make_dataset(), seed=0, config=self.CONFIG)
        assert result.raw.mode == RAW_MODE
        assert result.thresholded.mode == THRESHOLDED_MODE
        assert result.raw.e > 0.8
        assert result.raw.t > 0.8

    def test_deterministic(self):
        r1 = split_half(self.make_dataset(), seed=5, config=self.CONFIG)
        r2 = split_half(self.make_dataset(), seed=5, config=self.CONFIG)
        assert r1.half_a_ids == r2.half_a_ids
        assert r1.raw.e == r2.raw.e
        assert r1.thresholded.t == r2.thresholded.t

    def test_repeats_form_each_subject_gram_once(self, gram_formations):
        dataset = GroupDataset(tuple(map(standardize, self.make_dataset().subjects)))
        config = replace(self.CONFIG, fixed_order=None, max_order=6)
        for seed in (1, 2):
            split_half(dataset, seed=seed, config=config)
        assert len(gram_formations) == dataset.n_subjects

    def test_halves_disjoint_and_equal(self):
        result = split_half(self.make_dataset(), seed=1, config=self.CONFIG)
        assert len(result.half_a_ids) == len(result.half_b_ids) == 4
        assert not set(result.half_a_ids) & set(result.half_b_ids)

    def test_self_comparison_is_perfect(self):
        # identical halves with identical seeds: e = t = 1 up to rounding
        dataset = self.make_dataset(seed=3)
        half = GroupDataset(dataset.subjects[:4])
        fit = fit_group(half, PipelineConfig(fixed_order=8, cca_n_boot=30, seed=9))
        a = components_of(fit)
        report = build_report(a, a, RAW_MODE)
        assert abs(report.e - 1.0) < 1e-6
        assert abs(report.t - 1.0) < 1e-6

    def test_too_few_subjects(self):
        small = GroupDataset(self.make_dataset().subjects[:3])
        with pytest.raises(TooFewSubjects):
            split_half(small, seed=0, config=self.CONFIG)

    def test_odd_subject_dropped(self):
        data = simulate_group(5, 60, 300, 2, 0.3, 0.3, 0.05, seed=4).dataset
        result = split_half(
            data, seed=2,
            config=PipelineConfig(fixed_order=4, cca_n_boot=20, ica_restarts=2),
        )
        used = set(result.half_a_ids) | set(result.half_b_ids)
        assert len(used) == 4
