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
subject's noise residual and stacking those instead. The residuals are
never formed: their frame cross-Grams are the data's, projected in frame space.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import _blas, streams
from .data_model import DataMatrix, RowKind
from .errors import BadDimension, EmptyGroup, EmptyNoise, NumericalFailure
from .subject_level import (
    MIN_BOOT,
    SubjectReduction,
    _thin_svd,
    draw_chunks,
    n_distinct,
    nearest_rank_quantile,
    resample_frames,
    resampled,
    whiten_distinct,
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
    subject_slices: tuple[tuple[int, int], ...]  # row range per subject

    @property
    def n_voxels(self) -> int:
        return self.pattern_basis.shape[1]


@dataclass(frozen=True)
class GroupSubspace:
    """Retained group patterns with their loadings."""

    group_patterns: DataMatrix  # k x n_voxels, orthonormal rows
    canonical_correlations: np.ndarray  # retained values, nonincreasing
    loadings: np.ndarray  # (sum n_s) x k, rows in the decomposition's slices
    residual_ss: float  # energy of the discarded directions

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
    across subjects, and records the largest singular value. Each subject is
    whitened on its distinct frames u_a (``whiten_distinct``), so the stack's
    Gram has blocks M_a^T G_ab[u_a, u_b] M_b built from the residual
    cross-Grams G_ab = E_a E_b^T, and the cost per draw is independent of the
    voxel count. With E_a = (I - V_a V_a^T) Y_a, each G_ab is the data's
    cross-Gram Y_a Y_b^T projected in frame space. A subject without noise
    (``SubjectReduction.has_noise``) raises ``EmptyNoise``.

    The draws are batched in chunks: per chunk, one stacked whitening per
    subject, one stacked block product per subject pair and one stacked
    eigenvalue call. Frame counts may differ between subjects, so the stack
    axis is the draws. Each subject has one width for the whole bootstrap,
    its largest distinct count or its order, so a draw's bits do not depend
    on its chunk. The cross-Grams, then the chunks, run on up to
    ``_blas.worker_count`` threads with OpenBLAS held to one thread; each
    chunk fills its own draws of the result, so the result depends on neither
    count.
    """
    if len(reductions) < 2:
        raise EmptyGroup("noise bootstrap needs at least 2 subjects")
    if n_boot < MIN_BOOT:
        raise BadDimension(f"need n_boot >= {MIN_BOOT}, got {n_boot}")
    for r in reductions:
        if not r.has_noise:
            raise EmptyNoise(f"subject {r.subject_id!r} {NO_NOISE}")
    data = [r.data.values for r in reductions]
    bases = [r.frame_basis for r in reductions]
    # a projected Gram keeps its data's rounding, so its dead level is the data's
    tops = [r.singular_values[0] ** 2 for r in reductions]
    orders = [r.whitened_patterns.rows for r in reductions]
    n_subjects = len(reductions)
    frames = [r.data.rows for r in reductions]
    n_voxels = reductions[0].n_voxels
    pairs = [(a, b) for a in range(n_subjects) for b in range(a, n_subjects)]
    offsets = np.concatenate([[0], np.cumsum(orders)])
    total = int(offsets[-1])
    idx = resample_frames(seed, streams.CCA_NOISE_BOOT, n_boot, frames)
    widths = [max(int(n_distinct(i).max()), n) for i, n in zip(idx, orders)]
    maxima = np.empty(n_boot)

    def residual_gram(pair: tuple[int, int]) -> np.ndarray:
        a, b = pair
        gram = data[a] @ data[b].T
        gram -= bases[a] @ (bases[a].T @ gram)
        return gram - (gram @ bases[b]) @ bases[b].T

    def run_chunk(draws: np.ndarray) -> None:
        kept, _, maps = zip(*(
            whiten_distinct(grams[s, s], idx[s][draws], widths[s], orders[s], n_voxels,
                            tops[s])
            for s in range(n_subjects)
        ))
        stack_gram = np.empty((len(draws), total, total))
        for a in range(n_subjects):
            ra = slice(offsets[a], offsets[a + 1])
            for b in range(a, n_subjects):
                rb = slice(offsets[b], offsets[b + 1])
                block = (maps[a].transpose(0, 2, 1)
                         @ resampled(grams[a, b], kept[a], kept[b]) @ maps[b])
                stack_gram[:, ra, rb] = block
                if a != b:
                    stack_gram[:, rb, ra] = block.transpose(0, 2, 1)
        top = np.linalg.eigvalsh(stack_gram)[:, -1]
        maxima[draws] = np.sqrt(np.maximum(top, 0.0))

    chunks = draw_chunks(np.arange(n_boot), 8 * max(max(widths) ** 2, total**2))
    # Held here as well as in fit_group, since the threshold is also computed
    # on its own: pool workers on extra BLAS threads only compete for cores.
    with _blas.limit(), ThreadPoolExecutor(
        _blas.worker_count(max(len(pairs), len(chunks)))
    ) as pool:
        grams = dict(zip(pairs, pool.map(residual_gram, pairs)))
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
        residual_ss=residual_ss,
    )
