import tracemalloc

import numpy as np
import pytest

from canica import (
    DataMatrix,
    RowKind,
    amari_index,
    fastica,
    make_group_patterns,
    negentropy_proxy,
)
from canica.errors import BadDimension, NotWhitened, SingularMatrix
from canica.streams import substream
from conftest import white_mixture


class TestFastIca:
    def test_single_component_is_identity_up_to_sign(self):
        row = make_group_patterns(1, 300, 0.2, seed=0)
        result = fastica(row, seed=0)
        assert result.converged
        np.testing.assert_allclose(
            np.abs(result.components.values), np.abs(row.values), atol=1e-12
        )
        assert result.mixing.shape == (1, 1)
        assert np.isclose(abs(result.mixing[0, 0]), 1.0)

    def test_two_source_recovery(self):
        mixed, rotation, ortho, sources = white_mixture(2, 5000, 0.1, seed=1)
        result = fastica(DataMatrix(mixed, RowKind.PATTERNS), seed=1)
        c = np.abs(result.components.values @ sources.T)
        best = max(c[0, 0] + c[1, 1], c[0, 1] + c[1, 0]) / 2.0
        assert best > 0.99

    def test_eight_source_amari(self):
        hits = 0
        for seed in range(5):
            mixed, rotation, *_ = white_mixture(8, 5000, 0.05, seed=seed)
            result = fastica(DataMatrix(mixed, RowKind.PATTERNS), seed=seed)
            hits += int(amari_index(result.mixing, rotation) < 0.05)
        assert hits == 5

    def test_reconstruction_and_whiteness_invariants(self):
        mixed, *_ = white_mixture(5, 2000, 0.1, seed=2)
        result = fastica(DataMatrix(mixed, RowKind.PATTERNS), seed=2)
        a = result.components.values
        recon = result.mixing @ a
        assert np.linalg.norm(mixed - recon) / np.linalg.norm(mixed) < 1e-6
        assert np.abs(a @ a.T - np.eye(5)).max() < 1e-6
        np.testing.assert_allclose(np.linalg.norm(a, axis=1), 1.0, atol=1e-9)

    def test_span_preserved(self):
        mixed, *_ = white_mixture(4, 1500, 0.1, seed=3)
        result = fastica(DataMatrix(mixed, RowKind.PATTERNS), seed=3)
        overlaps = np.linalg.svd(
            result.components.values @ mixed.T, compute_uv=False
        )
        assert np.abs(overlaps - 1.0).max() < 1e-8

    def test_nonnegative_skewness(self):
        mixed, *_ = white_mixture(6, 3000, 0.05, seed=4)
        result = fastica(DataMatrix(mixed, RowKind.PATTERNS), seed=4)
        skews = (result.components.values**3).sum(axis=1)
        assert (skews >= 0).all()

    def test_deterministic(self):
        mixed, *_ = white_mixture(3, 1000, 0.1, seed=5)
        r1 = fastica(DataMatrix(mixed, RowKind.PATTERNS), seed=11)
        r2 = fastica(DataMatrix(mixed, RowKind.PATTERNS), seed=11)
        assert r1.components.values.tobytes() == r2.components.values.tobytes()
        assert r1.mixing.tobytes() == r2.mixing.tobytes()

    def test_negentropy_not_below_input(self):
        mixed, *_ = white_mixture(5, 4000, 0.05, seed=6)
        result = fastica(DataMatrix(mixed, RowKind.PATTERNS), seed=6)
        before = negentropy_proxy(mixed).mean()
        after = negentropy_proxy(result.components.values).mean()
        assert after >= before - 1e-10

    def test_not_whitened_rejected(self):
        bad = make_group_patterns(3, 200, 0.5, seed=7).values  # correlated rows
        with pytest.raises(NotWhitened):
            fastica(DataMatrix(bad, RowKind.PATTERNS), seed=0)

    def test_non_convergence_is_flagged(self):
        mixed, *_ = white_mixture(4, 800, 0.2, seed=8)
        result = fastica(
            DataMatrix(mixed, RowKind.PATTERNS), seed=8, max_iter=1, restarts=2
        )
        assert not result.converged
        assert result.n_iterations == 1

    def test_cube_nonlinearity(self):
        mixed, rotation, *_ = white_mixture(4, 3000, 0.1, seed=9)
        result = fastica(
            DataMatrix(mixed, RowKind.PATTERNS), nonlinearity="cube", seed=9
        )
        assert amari_index(result.mixing, rotation) < 0.05

    def test_empty_input_rejected(self):
        with pytest.raises(BadDimension):
            fastica(np.zeros((0, 10)), seed=0)

    @pytest.mark.parametrize("nonlinearity", ["logcosh", "cube"])
    def test_fixed_point_holds_few_voxel_wide_arrays(self, nonlinearity):
        k, n_voxels = 10, 40000
        mixed = DataMatrix(white_mixture(k, n_voxels, 0.05, seed=12)[0], RowKind.PATTERNS)
        tracemalloc.start()
        try:
            fastica(mixed, nonlinearity=nonlinearity, seed=12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the scaled patterns, the contrast written over the sources, and its slope
        assert peak <= 4.5 * k * n_voxels * 8


class TestAmariIndex:
    def test_identity(self):
        m = substream(0, 0xD2).standard_normal((4, 4))
        assert amari_index(m, m) < 1e-12

    def test_permutation_and_scale_invariance(self):
        m = substream(1, 0xD2).standard_normal((4, 4))
        perm = np.eye(4)[[2, 0, 3, 1]] * np.array([1.0, -2.0, 0.5, -1.0])
        assert amari_index(m, m @ perm) < 1e-12

    def test_all_ones_product(self):
        # inv(M_est) @ M_true = ones(2, 2): each row and column term is
        # (1 + 1)/1 - 1 = 1, so the normalized index is exactly 1
        m_est = np.eye(2)
        m_true = np.ones((2, 2))
        assert np.isclose(amari_index(m_est, m_true), 1.0)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            amari_index(np.zeros((3, 3)), np.eye(3))

    def test_shape_mismatch(self):
        with pytest.raises(BadDimension):
            amari_index(np.eye(3), np.eye(4))
