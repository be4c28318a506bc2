"""Split-half validation: cross-correlation, matching, and e/t measures.

Two component sets learned on disjoint subject halves are compared through
their cross-correlation matrix. ``e`` is the normalized energy of that
matrix and measures agreement of the spanned subspaces; ``t`` is the
normalized sum of matched entry magnitudes after optimal assignment and
measures map-by-map agreement. Magnitudes are used throughout because the
component signs are arbitrary.

The optimal assignment is an exact maximum-weight injective matching,
found by shortest augmenting paths (Kuhn 1955; the rectangular form of
Crouse, IEEE TAES 2016) in numpy alone. It keeps the tie rule of scipy's
``linear_sum_assignment``, so the matched pairs written to every split-half
summary are the ones scipy would pick, and a split-half run loads no scipy.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import streams
from .data_model import GroupDataset
from .errors import BadDimension, TooFewSubjects
from .pipeline import FitResult, PipelineConfig, fit_group, order_seeds

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


def _assign(weights: np.ndarray) -> list[tuple[int, int]]:
    """Maximum-weight injective matching of a finite, non-empty matrix.

    Shortest augmenting paths with dual potentials, one row at a time, on
    the negated weights (Crouse, IEEE TAES 2016); a matrix with more rows
    than columns is solved transposed. The pairs come in order of the
    smaller side's index.

    The column scan repeats scipy's ``linear_sum_assignment`` step for
    step, so equal-weight alternatives resolve as scipy resolves them:
    unvisited columns start in reverse order, a visited column is
    swap-removed from that list, and among columns tied at the minimum
    path cost a free column wins (the last free one scanned, else the
    first tied one). Ties are common here, because empty thresholded masks
    give zero rows, and the pairs are part of the written output.
    """
    transpose = weights.shape[0] > weights.shape[1]
    cost = -(weights.T if transpose else weights)
    n_rows, n_cols = cost.shape
    u, v = np.zeros(n_rows), np.zeros(n_cols)
    col4row = np.full(n_rows, -1)
    row4col = np.full(n_cols, -1)
    path = np.full(n_cols, -1)
    for cur in range(n_rows):
        shortest = np.full(n_cols, np.inf)
        seen_rows = np.zeros(n_rows, dtype=bool)
        seen_cols = np.zeros(n_cols, dtype=bool)
        remaining = list(range(n_cols - 1, -1, -1))
        i, min_val, sink = cur, 0.0, -1
        while sink < 0:
            seen_rows[i] = True
            cols = np.array(remaining)
            reduced = min_val + cost[i, cols] - u[i] - v[cols]
            better = reduced < shortest[cols]
            path[cols[better]] = i
            shortest[cols[better]] = reduced[better]
            scanned = shortest[cols]
            tied = np.flatnonzero(scanned == scanned.min())
            free = tied[row4col[cols[tied]] < 0]
            index = free[-1] if free.size else tied[0]
            j, min_val = cols[index], scanned[index]
            seen_cols[j] = True
            if row4col[j] < 0:
                sink = j
            else:
                i = row4col[j]
            remaining[index] = remaining[-1]
            remaining.pop()
        # the visited rows other than cur, which is not yet assigned
        earlier = seen_rows & (col4row >= 0)
        u[cur] += min_val
        u[earlier] += min_val - shortest[col4row[earlier]]
        v[seen_cols] -= min_val - shortest[seen_cols]
        j = sink
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur:
                break
    pairs = [(int(r), int(c)) for r, c in enumerate(col4row)]
    return [(c, r) for r, c in pairs] if transpose else pairs


def match_components(c: np.ndarray) -> ComponentMatching:
    """Optimal injective matching maximizing the sum of |C| entries.

    The matching is exact (``_assign``: shortest augmenting paths,
    Crouse 2016) and, where several matchings tie for the best sum,
    picks the one scipy's ``linear_sum_assignment(|C|, maximize=True)``
    picks. Pairs are ordered by the smaller set's index.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if not np.isfinite(c).all():
        raise ValueError("cross-correlation matrix must be finite")
    if min(c.shape) == 0:
        return ComponentMatching(pairs=(), matched_sum=0.0)
    pairs = _assign(np.abs(c))
    matched_sum = float(sum(abs(c[i, j]) for i, j in pairs))
    return ComponentMatching(pairs=tuple(pairs), matched_sum=matched_sum)


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
    matching = match_components(c)
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
    Each half runs the full pipeline with its own derived seed, apart from
    order selection: every subject selects its order with the seed ``fit``
    gives it, ``order_seeds(config.seed, ...)`` of its place in ``dataset``.
    So a subject's order is the one ``fit`` selects, and a series that keeps
    its curve (``SubjectSeries.order_curves``) selects it once for every half
    and repeat it joins. The result carries both the raw-map and
    thresholded-map comparisons.
    """
    n = dataset.n_subjects
    if n < 4:
        raise TooFewSubjects(f"split-half needs at least 4 subjects, got {n}")
    perm = streams.substream(seed, streams.SPLIT_SHUFFLE).permutation(n)
    half = n // 2
    idx_a, idx_b = perm[:half], perm[half : 2 * half]
    fit_a, fit_b = (
        fit_group(
            GroupDataset(tuple(dataset.subjects[i] for i in idx)),
            replace(config, seed=streams.derive_seed(seed, streams.SPLIT_HALF_SEED, h)),
            order_seeds(config.seed, idx),
        )
        for h, idx in enumerate((idx_a, idx_b))
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
        half_a_ids=fit_a.subject_ids,
        half_b_ids=fit_b.subject_ids,
        fit_a=fit_a,
        fit_b=fit_b,
    )
