"""Split-half validation: cross-correlation, matching, and e/t measures.

Two component sets learned on disjoint subject halves are compared through
their cross-correlation matrix. ``e`` is the normalized energy of that
matrix and measures agreement of the spanned subspaces; ``t`` is the
normalized sum of matched entry magnitudes after optimal assignment and
measures map-by-map agreement. Magnitudes are used throughout because the
component signs are arbitrary.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import streams
from .data_model import GroupDataset
from .errors import BadDimension, TooFewSubjects
from .pipeline import FitResult, PipelineConfig, fit_group

RAW_MODE = "raw_maps"
THRESHOLDED_MODE = "thresholded_maps"
HISTOGRAM_BINS = 20


@dataclass(frozen=True)
class ComponentMatching:
    """Injective pairing (row of set 1, row of set 2), one per matched pair."""

    pairs: tuple[tuple[int, int], ...]
    matched_sum: float


@dataclass(frozen=True)
class ReproducibilityReport:
    cross_correlation: np.ndarray  # d1 x d2
    matching: ComponentMatching
    e: float
    t: float
    d: int  # min(d1, d2)
    max_overlap: np.ndarray  # best |C| per row and per column, length d1 + d2
    mode: str


def cross_correlation(set1: np.ndarray, set2: np.ndarray) -> np.ndarray:
    """Inner products between two unit-row component sets.

    Rows must be unit-norm (or exactly zero, as empty thresholded masks
    normalize to); entries then lie in [-1, 1].
    """
    a1 = np.atleast_2d(np.asarray(set1, dtype=float))
    a2 = np.atleast_2d(np.asarray(set2, dtype=float))
    if a1.shape[1] != a2.shape[1]:
        raise BadDimension(
            f"component sets disagree on voxel count: {a1.shape[1]} vs {a2.shape[1]}"
        )
    for arr in (a1, a2):
        norms = np.linalg.norm(arr, axis=1)
        if norms.size and not np.all((np.abs(norms - 1.0) < 1e-6) | (norms == 0.0)):
            raise ValueError("component rows must be unit-norm (or zero)")
    return a1 @ a2.T


def normalize_mask_rows(masks: np.ndarray) -> np.ndarray:
    """Scale binary mask rows to unit norm; empty masks stay zero."""
    masks = np.atleast_2d(np.asarray(masks, dtype=float))
    counts = masks.sum(axis=1, keepdims=True)
    return np.where(counts > 0, masks / np.sqrt(np.maximum(counts, 1.0)), 0.0)


def match_components(c: np.ndarray):
    """Optimal injective matching maximizing the sum of |C| entries.

    Returns the matching and a copy of C with matched pairs moved onto
    the diagonal (columns reordered when set 1 is the smaller side, rows
    otherwise; unmatched lines keep their relative order).
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if not np.isfinite(c).all():
        raise ValueError("cross-correlation matrix must be finite")
    d1, d2 = c.shape
    if min(d1, d2) == 0:
        return ComponentMatching(pairs=(), matched_sum=0.0), c.copy()
    # imported here so that only split-half, not every fit, loads scipy
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(np.abs(c), maximize=True)
    pairs = sorted(zip(rows.tolist(), cols.tolist()),
                   key=(lambda p: p[0]) if d1 <= d2 else (lambda p: p[1]))
    matched_sum = float(sum(abs(c[i, j]) for i, j in pairs))
    if d1 <= d2:
        order = [j for _, j in pairs]
        order += [j for j in range(d2) if j not in set(order)]
        reordered = c[:, order]
    else:
        order = [i for i, _ in pairs]
        order += [i for i in range(d1) if i not in set(order)]
        reordered = c[order, :]
    return ComponentMatching(pairs=tuple(pairs), matched_sum=matched_sum), reordered


def measures(c: np.ndarray, matching: ComponentMatching) -> tuple[float, float]:
    """Subspace energy e and matched-trace t, both normalized by min(d1, d2)."""
    c = np.atleast_2d(np.asarray(c, dtype=float))
    d = min(c.shape)
    if d == 0:
        return 0.0, 0.0
    e = float((c**2).sum() / d)
    t = float(matching.matched_sum / d)
    return e, t


def build_report(set1: np.ndarray, set2: np.ndarray, mode: str) -> ReproducibilityReport:
    """Full comparison of two component sets (rows already normalized)."""
    c = cross_correlation(set1, set2)
    matching, _ = match_components(c)
    e, t = measures(c, matching)
    d1, d2 = c.shape
    if d1 and d2:
        max_overlap = np.concatenate(
            [np.abs(c).max(axis=1), np.abs(c).max(axis=0)]
        )
    else:
        max_overlap = np.zeros(d1 + d2)
    return ReproducibilityReport(
        cross_correlation=c,
        matching=matching,
        e=e,
        t=t,
        d=min(d1, d2),
        max_overlap=max_overlap,
        mode=mode,
    )


def overlap_histogram(report: ReproducibilityReport) -> tuple[np.ndarray, np.ndarray]:
    """Counts of best-match magnitudes in 20 uniform bins on [0, 1]."""
    edges = np.linspace(0.0, 1.0, HISTOGRAM_BINS + 1)
    counts, _ = np.histogram(np.clip(report.max_overlap, 0.0, 1.0), bins=edges)
    return counts, edges


@dataclass(frozen=True)
class SplitHalfResult:
    raw: ReproducibilityReport
    thresholded: ReproducibilityReport
    half_a_ids: tuple[str, ...]
    half_b_ids: tuple[str, ...]
    fit_a: FitResult
    fit_b: FitResult


def components_of(fit: FitResult) -> np.ndarray:
    if fit.ica is None:
        n_voxels = fit.n_voxels
        return np.zeros((0, n_voxels))
    return fit.ica.components.values


def masks_of(fit: FitResult) -> np.ndarray:
    if not fit.thresholded_maps:
        return np.zeros((0, fit.n_voxels))
    return np.stack([m.selected.astype(float) for m in fit.thresholded_maps])


def split_half(
    dataset: GroupDataset, seed: int, config: PipelineConfig
) -> SplitHalfResult:
    """Learn components on two disjoint random halves and compare them.

    With an odd subject count the leftover subject is dropped at random.
    Each half runs the full pipeline with its own derived seed; the result
    carries both the raw-map and thresholded-map comparisons.
    """
    n = dataset.n_subjects
    if n < 4:
        raise TooFewSubjects(f"split-half needs at least 4 subjects, got {n}")
    perm = streams.substream(seed, streams.SPLIT_SHUFFLE).permutation(n)
    half = n // 2
    idx_a, idx_b = perm[:half], perm[half : 2 * half]
    half_a = GroupDataset(tuple(dataset.subjects[i] for i in idx_a))
    half_b = GroupDataset(tuple(dataset.subjects[i] for i in idx_b))
    fit_a = fit_group(
        half_a, replace(config, seed=streams.derive_seed(seed, streams.SPLIT_HALF_SEED, 0))
    )
    fit_b = fit_group(
        half_b, replace(config, seed=streams.derive_seed(seed, streams.SPLIT_HALF_SEED, 1))
    )
    raw = build_report(components_of(fit_a), components_of(fit_b), RAW_MODE)
    thresholded = build_report(
        normalize_mask_rows(masks_of(fit_a)),
        normalize_mask_rows(masks_of(fit_b)),
        THRESHOLDED_MODE,
    )
    return SplitHalfResult(
        raw=raw,
        thresholded=thresholded,
        half_a_ids=tuple(s.subject_id for s in half_a.subjects),
        half_b_ids=tuple(s.subject_id for s in half_b.subjects),
        fit_a=fit_a,
        fit_b=fit_b,
    )
