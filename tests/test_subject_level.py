import numpy as np
import pytest
from scipy import linalg as sla

from canica import (
    DataMatrix,
    RowKind,
    SubjectSeries,
    make_ground_truth,
    order_stability,
    select_order,
    simulate_subject,
    standardize,
    svd_reduce,
)
from canica.errors import BadDimension
from canica.streams import substream
from conftest import gram_tolerances, reference_svd


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
        assert np.linalg.norm(red.noise_residual.values) < 1e-10
        assert np.isclose(
            red.singular_values[0], np.linalg.norm(u) * np.linalg.norm(v)
        )

    def test_diagonal_case(self):
        red = svd_reduce(series_of(np.diag([5.0, 4.0, 3.0, 2.0, 1.0])), order=2)
        np.testing.assert_allclose(red.singular_values[:2], [5.0, 4.0])
        assert np.isclose(
            np.linalg.norm(red.noise_residual.values), np.sqrt(9.0 + 4.0 + 1.0)
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
        p = red.whitened_patterns.values
        e = red.noise_residual.values
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
            big.whitened_patterns.values[:4],
            small.whitened_patterns.values,
            atol=1e-12,
        )

    def test_sign_convention(self):
        rng = substream(3, 0xF00D)
        y = rng.standard_normal((30, 90))
        p = svd_reduce(series_of(y), order=5).whitened_patterns.values
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
        error = np.abs(red.whitened_patterns.values - vt[:order]).max(axis=1)
        assert (error <= vector_tol[:order]).all()
        residual = y - (u[:, :order] * s[:order]) @ vt[:order]
        assert np.abs(red.noise_residual.values - residual).max() <= (
            vector_tol[:order].max() * s[0]
        )

    def test_order_above_rank_keeps_the_rank(self):
        # standardized columns sum to zero, so f frames span f - 1 directions
        f = 24
        y = substream(5, 0xF00D).standard_normal((f, 300))
        series = standardize(series_of(y))
        red = svd_reduce(series, order=f)
        p = red.whitened_patterns.values
        assert red.selected_order == f - 1 and p.shape == (f - 1, 300)
        assert red.singular_values.shape == (f,)
        _, s, _ = reference_svd(series.data.values)
        value_tol, _ = gram_tolerances(s, f)
        assert (np.abs(red.singular_values - s) <= value_tol).all()
        assert np.abs(p @ p.T - np.eye(f - 1)).max() < 1e-8
        assert np.abs(red.noise_residual.values @ p.T).max() < 1e-8

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

    def test_preconditions(self):
        series = noiseless_rank_subject(2, 60, 200, seed=2)
        with pytest.raises(BadDimension):
            select_order(series, max_order=31, n_boot=20)  # > min(f, v)/2
        with pytest.raises(BadDimension):
            select_order(series, max_order=5, n_boot=10)  # too few draws
