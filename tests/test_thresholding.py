import numpy as np
import pytest

from canica import fit_empirical_null, threshold_map, two_sided_z
from canica.errors import BadDimension, DegenerateInput
from canica.streams import substream
from canica.thresholding import IQR_TO_SIGMA, NullFit


class TestFitEmpiricalNull:
    def test_standard_normal_calibration(self):
        for seed in range(20):
            x = substream(seed, 0xE0).standard_normal(40000)
            fit = fit_empirical_null(x)
            assert abs(fit.mu) < 0.02
            assert 0.97 < fit.sigma < 1.03

    def test_robust_to_tail_contamination(self):
        x = substream(0, 0xE1).standard_normal(40000)
        clean = fit_empirical_null(x)
        spiked = x.copy()
        spiked[:400] = 50.0  # 1% gross outliers
        contaminated = fit_empirical_null(spiked)
        assert abs(contaminated.sigma - clean.sigma) / clean.sigma < 0.02

    def test_two_point_degenerate_values(self):
        x = np.tile([-1.0, 1.0], 100)
        fit = fit_empirical_null(x)
        assert fit.mu == 0.0
        assert fit.sigma == 2.0 / IQR_TO_SIGMA

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateInput):
            fit_empirical_null(np.full(200, 3.0))

    def test_zero_iqr_rejected(self):
        x = np.zeros(200)
        x[:10] = 100.0
        x[-10:] = -100.0
        with pytest.raises(DegenerateInput):
            fit_empirical_null(x)

    def test_too_few_voxels(self):
        with pytest.raises(BadDimension):
            fit_empirical_null(np.arange(99.0))

    def test_z_matches_two_sided_quantile(self):
        fit = fit_empirical_null(substream(1, 0xE0).standard_normal(1000),
                                 p_two_sided=1e-3)
        assert np.isclose(fit.z_threshold, 3.2905, atol=5e-4)
        assert fit.z_threshold == two_sided_z(1e-3)

    def test_z_matches_scipy_normal_quantile(self):
        from scipy.stats import norm

        assert two_sided_z(1e-3) == norm.isf(5e-4)
        for p in np.geomspace(1e-300, 0.999, 400):
            expected = norm.isf(p / 2.0)
            assert abs(two_sided_z(p) - expected) <= 1e-13 * expected


class TestThresholdMap:
    def test_null_map_false_positive_count(self):
        x = substream(2, 0xE2).standard_normal(40000)
        result = threshold_map(x, fit_empirical_null(x), p_two_sided=1e-3)
        assert 25 <= result.n_selected <= 57

    def test_zero_map_with_external_fit(self):
        fit = NullFit(mu=0.0, sigma=1.0, p_two_sided=1e-3,
                      z_threshold=two_sided_z(1e-3))
        result = threshold_map(np.zeros(500), fit)
        assert result.n_selected == 0

    def test_planted_voxels_recovered(self):
        x = substream(3, 0xE3).standard_normal(40000)
        planted = np.arange(0, 4000, 200)
        x[planted] = 10.0
        result = threshold_map(x, fit_empirical_null(x), p_two_sided=1e-3)
        assert result.selected[planted].all()
        background = result.n_selected - planted.size
        assert 25 <= background <= 57

    def test_affine_equivariance(self):
        x = substream(4, 0xE4).standard_normal(5000)
        base = threshold_map(x, fit_empirical_null(x))
        for a, b in [(2.5, 3.0), (-4.0, 1.0), (0.1, -7.0)]:
            y = a * x + b
            other = threshold_map(y, fit_empirical_null(y))
            np.testing.assert_array_equal(base.selected, other.selected)

    def test_monotone_in_p(self):
        x = substream(5, 0xE5).standard_normal(20000)
        fit = fit_empirical_null(x)
        loose = threshold_map(x, fit, p_two_sided=1e-2)
        tight = threshold_map(x, fit, p_two_sided=1e-4)
        assert tight.n_selected <= loose.n_selected
        assert (loose.selected | ~tight.selected).all()

    def test_boundary_equality_not_selected(self):
        fit = NullFit(mu=0.0, sigma=1.0, p_two_sided=1e-3, z_threshold=2.0)
        values = np.array([2.0, -2.0, 2.0000001, 1.9999999, 0.0])
        result = threshold_map(values, fit)
        assert result.selected.tolist() == [False, False, True, False, False]
        assert result.n_selected == 1
