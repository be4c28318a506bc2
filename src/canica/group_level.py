"""Group-reproducible subspace via the stacked whitened patterns.

Stacking every subject's orthonormal whitened patterns and taking the thin
SVD (from the eigendecomposition of the stack's pattern Gram, up to its
numerical rank) generalizes canonical correlation analysis to many
subjects (it reduces to standard CCA for two). The singular values measure
between-subject reproducibility of each direction: since each subject's
block has orthonormal rows, one subject can contribute at most 1 to a
squared singular value, so values lie in (0, sqrt(S)].

Directions are kept when their singular value strictly exceeds a
noise-calibrated threshold: the bootstrap distribution of the maximum
singular value obtained by re-whitening frame-resampled copies of each
subject's noise residual and stacking those instead.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _blas, streams
from .data_model import DataMatrix, RowKind
from .errors import BadDimension, EmptyGroup, EmptyNoise, NumericalFailure
from .subject_level import (
    SubjectReduction,
    _thin_svd,
    _whiten,
    draw_chunks,
    nearest_rank_quantile,
    resample_frames,
    resampled,
)

DEFAULT_N_BOOT = 100
DEFAULT_ALPHA = 0.05
NO_NOISE = "has no noise residual to calibrate the threshold"


@dataclass(frozen=True)
class GroupDecomposition:
    """Thin SVD of the stacked whitened patterns, before selection."""

    loading_basis: np.ndarray  # (sum n_s) x r, orthonormal columns
    correlations: np.ndarray  # r singular values, nonincreasing; r = stack rank
    pattern_basis: np.ndarray  # r x n_voxels, orthonormal rows
    subject_ids: tuple[str, ...]
    subject_slices: tuple[tuple[int, int], ...]  # row range per subject

    @property
    def n_voxels(self) -> int:
        return self.pattern_basis.shape[1]


@dataclass(frozen=True)
class GroupSubspace:
    """Retained group patterns with their loadings and selection context."""

    group_patterns: DataMatrix  # k x n_voxels, orthonormal rows
    canonical_correlations: np.ndarray  # retained values, nonincreasing
    loadings: np.ndarray  # (sum n_s) x k, partitioned by subject_slices
    threshold: float
    residual_ss: float  # energy of the discarded directions
    subject_ids: tuple[str, ...]
    subject_slices: tuple[tuple[int, int], ...]

    @property
    def k(self) -> int:
        return self.group_patterns.rows


def group_cca(reductions: list[SubjectReduction]) -> GroupDecomposition:
    """Thin SVD of the concatenated whitened subject patterns, up to its rank."""
    usable = [r for r in reductions if r.whitened_patterns.rows > 0]
    if len(usable) < 2:
        raise EmptyGroup("group CCA needs at least 2 subjects with patterns")
    voxels = {r.n_voxels for r in usable}
    if len(voxels) != 1:
        raise BadDimension(f"subjects disagree on voxel count: {sorted(voxels)}")
    stacked = np.vstack([r.whitened_patterns.values for r in usable])
    upsilon, z, theta_t = _thin_svd(stacked, stacked.shape[0])
    z = z[: theta_t.shape[0]]
    n_subjects = len(usable)
    if z.size and z[0] > np.sqrt(n_subjects) + 1e-6:
        raise NumericalFailure(
            "stacked singular value exceeds the sqrt(S) bound; "
            "whitened patterns are not orthonormal"
        )
    slices, start = [], 0
    for r in usable:
        stop = start + r.whitened_patterns.rows
        slices.append((start, stop))
        start = stop
    return GroupDecomposition(
        loading_basis=upsilon,
        correlations=z,
        pattern_basis=theta_t,
        subject_ids=tuple(r.subject_id for r in usable),
        subject_slices=tuple(slices),
    )


def bootstrap_max_correlations(
    reductions: list[SubjectReduction],
    n_boot: int = DEFAULT_N_BOOT,
    seed: int = 0,
) -> np.ndarray:
    """Maximum stack singular value of re-whitened resampled noise residuals.

    One draw resamples each subject's residual frames with replacement,
    whitens the resample to its top n_s right singular directions, stacks
    across subjects, and records the largest singular value. The stack's
    Gram has blocks W_a^T G_ab W_b built from the residual cross-Grams G_ab,
    so the cost per draw is independent of the voxel count.

    The draws are batched in chunks: per chunk, one stacked whitening per
    subject, one stacked block product per subject pair and one stacked
    eigenvalue call. Frame counts may differ between subjects, so the stack
    axis is the draws. The chunks run on up to ``_blas.worker_count``
    threads; each fills its own slice of the result, so the result does not
    depend on the number of threads.
    """
    if len(reductions) < 2:
        raise EmptyGroup("noise bootstrap needs at least 2 subjects")
    if n_boot < 20:
        raise BadDimension(f"need n_boot >= 20, got {n_boot}")
    for r in reductions:
        if not r.has_noise:
            raise EmptyNoise(f"subject {r.subject_id!r} {NO_NOISE}")
    residuals = [r.noise_residual.values for r in reductions]
    orders = [r.whitened_patterns.rows for r in reductions]
    n_subjects = len(reductions)
    frames = [e.shape[0] for e in residuals]
    n_voxels = residuals[0].shape[1]
    grams = {}
    for a in range(n_subjects):
        for b in range(a, n_subjects):
            grams[a, b] = residuals[a] @ residuals[b].T
    offsets = np.concatenate([[0], np.cumsum(orders)])
    total = int(offsets[-1])
    idx = resample_frames(seed, streams.CCA_NOISE_BOOT, n_boot, frames)
    maxima = np.empty(n_boot)

    def run_chunk(draws: slice) -> None:
        i = [x[draws] for x in idx]
        maps = [
            _whiten(resampled(grams[s, s], i[s], i[s]), orders[s], n_voxels)[2]
            for s in range(n_subjects)
        ]
        stack_gram = np.empty((len(i[0]), total, total))
        for a in range(n_subjects):
            ra = slice(offsets[a], offsets[a + 1])
            for b in range(a, n_subjects):
                rb = slice(offsets[b], offsets[b + 1])
                block = (maps[a].transpose(0, 2, 1)
                         @ resampled(grams[a, b], i[a], i[b]) @ maps[b])
                stack_gram[:, ra, rb] = block
                if a != b:
                    stack_gram[:, rb, ra] = block.transpose(0, 2, 1)
        top = np.linalg.eigvalsh(stack_gram)[:, -1]
        maxima[draws] = np.sqrt(np.maximum(top, 0.0))

    chunks = draw_chunks(n_boot, 8 * max(max(frames) ** 2, total**2))
    # The voxel-wide cross-Grams above keep the caller's BLAS threads; the
    # chunks work on frame-sized matrices, which extra BLAS threads only slow.
    with _blas.limit(1), ThreadPoolExecutor(_blas.worker_count(len(chunks))) as pool:
        list(pool.map(run_chunk, chunks))
    return maxima


def noise_threshold(
    reductions: list[SubjectReduction],
    n_boot: int = DEFAULT_N_BOOT,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
) -> float:
    """(1 - alpha) nearest-rank quantile of the bootstrap noise maxima."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    maxima = bootstrap_max_correlations(reductions, n_boot=n_boot, seed=seed)
    return nearest_rank_quantile(maxima, 1.0 - alpha)


def select_group_subspace(
    decomposition: GroupDecomposition, threshold: float
) -> GroupSubspace:
    """Keep directions whose singular value strictly exceeds the threshold.

    An empty selection (k = 0) is a legal result; ties at the threshold
    are rejected.
    """
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    z = decomposition.correlations
    keep = z > threshold
    k = int(keep.sum())
    patterns = decomposition.pattern_basis[:k]
    loadings = decomposition.loading_basis[:, :k] * z[:k]
    residual_ss = float((z[k:] ** 2).sum())
    return GroupSubspace(
        group_patterns=DataMatrix(patterns.copy(), RowKind.PATTERNS),
        canonical_correlations=z[:k].copy(),
        loadings=loadings,
        threshold=float(threshold),
        residual_ss=residual_ss,
        subject_ids=decomposition.subject_ids,
        subject_slices=decomposition.subject_slices,
    )
