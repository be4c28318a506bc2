"""Synthetic multi-subject data from the two-level generative model.

Group structure is a set of sparse, super-Gaussian spatial patterns with
unit-norm rows. Each subject observes a loading-perturbed copy of those
patterns plus its own pattern-level deviation, mixed by an i.i.d. Gaussian
temporal matrix, plus observation noise:

    patterns_s = loadings_s @ group_patterns + deviation_s
    series_s   = mixing_s @ patterns_s + noise_s

Noise scales are expressed relative to the unit-norm pattern rows: entries
of ``deviation_s`` are drawn N(0, (variability_scale)^2 / n_voxels), so a
scale of 0.1 gives per-pattern deviations with expected norm 0.1, and the
observation noise likewise uses N(0, noise_scale^2 / n_voxels) per entry,
giving each frame a noise norm of about ``noise_scale``. This keeps the
scales comparable across voxel counts.

Everything is regenerable bit-exactly from the seed: group patterns come
from one substream, each subject's structure (mixing, loadings, deviation)
from a per-subject structure substream, and each subject's observation
noise from a separate per-subject noise substream, always drawn in the
same documented order.
"""

from dataclasses import dataclass

import numpy as np

from . import streams
from .data_model import DataMatrix, GroupDataset, RowKind, SubjectSeries
from .errors import BadDimension, NumericalFailure
from .subject_level import _whiten

LOADING_JITTER = 0.1


@dataclass(frozen=True)
class GroundTruth:
    """Everything the simulator drew, kept for oracle-based testing."""

    group_patterns: DataMatrix  # k_true x n_voxels, unit-norm rows
    loadings: tuple[np.ndarray, ...]  # per subject, k_true x k_true
    residual_patterns: tuple[np.ndarray, ...]  # per subject, k_true x n_voxels
    temporal_mixing: tuple[np.ndarray, ...]  # per subject, n_frames x k_true
    noise_scale: float
    variability_scale: float
    seed: int

    def __post_init__(self):
        if self.noise_scale < 0 or self.variability_scale < 0:
            raise BadDimension("noise scales must be nonnegative")
        k = self.group_patterns.rows
        if k:
            norms = np.linalg.norm(self.group_patterns.values, axis=1)
            if not np.allclose(norms, 1.0, atol=1e-8):
                raise BadDimension("group pattern rows must have unit norm")

    @property
    def k_true(self) -> int:
        return self.group_patterns.rows

    @property
    def n_subjects(self) -> int:
        return len(self.temporal_mixing)

    @property
    def n_voxels(self) -> int:
        return self.group_patterns.cols


@dataclass(frozen=True)
class SyntheticDataset:
    dataset: GroupDataset
    truth: GroundTruth


def make_group_patterns(
    k_true: int, n_voxels: int, sparsity: float, seed: int
) -> DataMatrix:
    """Draw unit-norm sparse-Laplacian pattern rows.

    Each row has exactly ``ceil(sparsity * n_voxels)`` nonzero entries at
    positions chosen without replacement, with Laplacian values, so every
    row has positive excess kurtosis and the set is identifiable by a
    non-Gaussianity-seeking decomposition.
    """
    if not 1 <= k_true < n_voxels:
        raise BadDimension(f"need 1 <= k_true < n_voxels, got {k_true}, {n_voxels}")
    if not 0.0 < sparsity <= 1.0:
        raise BadDimension(f"sparsity must be in (0, 1], got {sparsity}")
    nnz = int(np.ceil(sparsity * n_voxels))
    rng = streams.substream(seed, streams.GROUP_PATTERNS)
    patterns = np.zeros((k_true, n_voxels))
    for i in range(k_true):
        positions = rng.choice(n_voxels, size=nnz, replace=False)
        patterns[i, positions] = rng.laplace(size=nnz)
        norm = np.linalg.norm(patterns[i])
        if norm == 0.0:
            raise NumericalFailure("drew an all-zero pattern row")
        patterns[i] /= norm
    if k_true > 1:
        _, rank, _ = _whiten(patterns @ patterns.T, k_true, max(patterns.shape))
        if rank < k_true:
            raise NumericalFailure("pattern rows are numerically dependent")
    return DataMatrix(patterns, RowKind.PATTERNS)


def make_ground_truth(
    k_true: int,
    n_voxels: int,
    n_subjects: int,
    n_frames: int,
    sparsity: float,
    noise_scale: float,
    variability_scale: float,
    seed: int,
    pattern_gains: np.ndarray | None = None,
) -> GroundTruth:
    """Draw the full latent structure for a group.

    ``pattern_gains`` optionally scales each group pattern's loading
    column, giving per-pattern signal strengths; default is all ones.
    With ``k_true == 0`` the group patterns are empty and subjects are
    pure observation noise.
    """
    if n_subjects < 1:
        raise BadDimension("need at least one subject")
    if n_frames < max(k_true, 2):
        raise BadDimension("need n_frames >= k_true and >= 2")
    if k_true:
        patterns = make_group_patterns(k_true, n_voxels, sparsity, seed)
    else:
        patterns = DataMatrix(np.zeros((0, n_voxels)), RowKind.PATTERNS)
    if pattern_gains is None:
        gains = np.ones(k_true)
    else:
        gains = np.asarray(pattern_gains, dtype=float)
        if gains.shape != (k_true,):
            raise BadDimension("pattern_gains must have one entry per pattern")
    loadings, deviations, mixings = [], [], []
    for s in range(n_subjects):
        w, lam, dev = _draw_subject_structure(
            seed, s, n_frames, k_true, n_voxels, variability_scale, gains
        )
        mixings.append(w)
        loadings.append(lam)
        deviations.append(dev)
    return GroundTruth(
        group_patterns=patterns,
        loadings=tuple(loadings),
        residual_patterns=tuple(deviations),
        temporal_mixing=tuple(mixings),
        noise_scale=noise_scale,
        variability_scale=variability_scale,
        seed=seed,
    )


def _draw_subject_structure(seed, index, n_frames, k, n_voxels, var_scale, gains):
    # Fixed draw order: mixing, loading jitter, pattern deviation.
    rng = streams.substream(seed, streams.SUBJECT_STRUCTURE, index)
    mixing = rng.standard_normal((n_frames, k))
    loading = np.eye(k) + LOADING_JITTER * rng.standard_normal((k, k))
    loading = loading * gains  # scale column j by gains[j]
    deviation = rng.standard_normal((k, n_voxels)) * (var_scale / np.sqrt(n_voxels))
    return mixing, loading, deviation


def simulate_subject(
    truth: GroundTruth, subject_index: int, n_frames: int
) -> SubjectSeries:
    """Materialize one subject's observed series from the ground truth.

    Observation noise comes from the subject's dedicated noise substream,
    so hand-built GroundTruth instances (e.g. identity mixing) simulate
    deterministically too.
    """
    if not 0 <= subject_index < truth.n_subjects:
        raise BadDimension(f"subject index {subject_index} out of range")
    mixing = truth.temporal_mixing[subject_index]
    if n_frames != mixing.shape[0]:
        raise BadDimension(
            f"n_frames={n_frames} does not match the drawn mixing "
            f"({mixing.shape[0]} frames)"
        )
    if n_frames < truth.k_true:
        raise BadDimension("need n_frames >= number of group patterns")
    n_voxels = truth.n_voxels
    patterns = (
        truth.loadings[subject_index] @ truth.group_patterns.values
        + truth.residual_patterns[subject_index]
    )
    series = mixing @ patterns
    if truth.noise_scale > 0:
        rng = streams.substream(truth.seed, streams.SUBJECT_NOISE, subject_index)
        series = series + rng.standard_normal((n_frames, n_voxels)) * (
            truth.noise_scale / np.sqrt(n_voxels)
        )
    return SubjectSeries(
        subject_id=f"subject_{subject_index:03d}",
        data=DataMatrix(series, RowKind.FRAMES),
    )


def simulate_group(
    n_subjects: int,
    n_frames: int,
    n_voxels: int,
    k_true: int,
    sparsity: float,
    noise_scale: float,
    variability_scale: float,
    seed: int,
    pattern_gains: np.ndarray | None = None,
) -> SyntheticDataset:
    """Draw ground truth and materialize every subject."""
    truth = make_ground_truth(
        k_true,
        n_voxels,
        n_subjects,
        n_frames,
        sparsity,
        noise_scale,
        variability_scale,
        seed,
        pattern_gains=pattern_gains,
    )
    subjects = tuple(
        simulate_subject(truth, s, n_frames) for s in range(n_subjects)
    )
    return SyntheticDataset(dataset=GroupDataset(subjects), truth=truth)
