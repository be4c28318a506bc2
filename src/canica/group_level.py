"""Group-reproducible subspace from one table of frame cross-Grams.

Stacking every subject's orthonormal whitened patterns P_a = M_a^T Y_a
(M_a = V_a / s_a, the subject's whitening map) and taking the thin SVD of
the stack generalizes canonical correlation analysis to many subjects (it
reduces to standard CCA for two). The singular values measure
between-subject reproducibility of each direction: since each subject's
block has orthonormal rows, one subject can contribute at most 1 to a
squared singular value, so values lie in (0, sqrt(S)].

The stack is never formed. A fit computes the data's frame cross-Grams
Y_a Y_b^T once, as one table keyed by subject pair (``cross_grams``), whose
diagonal blocks copy the Grams the subjects' matrices already hold. The
stack's pattern Gram has the blocks M_a^T (Y_a Y_b^T) M_b, so its
eigendecomposition, up to its numerical rank, is the whole CCA. A group
pattern row is sum_a (M_a u_a)^T Y_a / z for a loading column u with
singular value z, and only the retained rows are formed.

Directions are kept when their singular value strictly exceeds a
noise-calibrated threshold: the bootstrap distribution of the maximum
singular value obtained by re-whitening frame-resampled copies of each
subject's noise residual and stacking those instead. The residuals are
never formed either: their frame cross-Grams are the table's, projected in
place, so a fit holds one table.
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
    _dead_level,
    _whiten,
    draw_chunks,
    n_distinct,
    nearest_rank_quantile,
    resample_frames,
    resampled,
    sign_rows,
    whiten_distinct,
)

DEFAULT_N_BOOT = 100
DEFAULT_ALPHA = 0.05
NO_NOISE = "has no noise residual to calibrate the threshold"


Pair = tuple[int, int]


@dataclass(frozen=True)
class GroupDecomposition:
    """Eigendecomposition of the stacked patterns' Gram, before selection.

    The pattern rows are not stored: ``leading`` forms the first k of them.
    """

    loading_basis: np.ndarray  # (sum n_s) x r, orthonormal columns, signs not fixed
    correlations: np.ndarray  # r singular values, nonincreasing; r = stack rank
    subject_slices: tuple[tuple[int, int], ...]  # row range per subject
    maps: tuple[np.ndarray, ...]  # per subject, n_frames x n_s whitening map M
    data: tuple[np.ndarray, ...]  # per subject, n_frames x n_voxels series Y

    def leading(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The first k pattern rows and their loading columns.

        Row i is sum_a (M_a u_ai)^T Y_a / z_i, with u_ai subject a's block of
        loading column i: the stack's right singular vector, read through the
        whitening maps. Rows and columns are signed by ``sign_rows``.
        """
        basis = self.loading_basis[:, :k].copy()
        weights = basis / self.correlations[:k]
        rows = np.zeros((k, self.data[0].shape[1]))
        for (start, stop), m, y in zip(self.subject_slices, self.maps, self.data):
            rows += (m @ weights[start:stop]).T @ y
        sign_rows(rows, basis)
        return rows, basis


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


def cross_grams(reductions: list[SubjectReduction], map_=map) -> dict[Pair, np.ndarray]:
    """The data's frame cross-Grams Y_a Y_b^T, keyed by every index pair a <= b.

    Only the a < b products are computed. Block (a, a) is a writable copy of
    the subject's own Gram (``DataMatrix.gram``), formed once with its matrix,
    so the noise bootstrap can project the table in place. ``map_`` runs the
    blocks, a pool's ``map`` to fan them out; each block is one task, so the
    table does not depend on the pool.
    """
    data = [r.data for r in reductions]
    pairs = [(a, b) for a in range(len(data)) for b in range(a, len(data))]

    def block(pair: Pair) -> np.ndarray:
        a, b = pair
        if a == b:
            return data[a].gram.copy()
        return data[a].values @ data[b].values.T

    return dict(zip(pairs, map_(block, pairs)))


def _stack_gram(offsets: np.ndarray, block, lead: tuple[int, ...] = ()) -> np.ndarray:
    """Symmetric stack Gram whose (a, b) block, a <= b, is ``block(a, b)``.

    Subject a owns rows offsets[a]:offsets[a + 1]; ``lead`` is the shape of
    a stack of such Grams.
    """
    total = int(offsets[-1])
    gram = np.empty((*lead, total, total))
    n_subjects = len(offsets) - 1
    for a in range(n_subjects):
        ra = slice(offsets[a], offsets[a + 1])
        for b in range(a, n_subjects):
            rb = slice(offsets[b], offsets[b + 1])
            gram[..., ra, rb] = part = block(a, b)
            if a != b:
                gram[..., rb, ra] = np.swapaxes(part, -1, -2)
    return gram


def group_cca(
    reductions: list[SubjectReduction], grams: dict[Pair, np.ndarray] | None = None
) -> GroupDecomposition:
    """Eigendecomposition of the stacked whitened patterns' Gram, up to its rank.

    ``grams`` is the ``cross_grams`` table of ``reductions``, computed here if
    not given. Each block M_a^T G_ab M_b carries its cross-Gram's rounding,
    about max(frames, voxels) * eps * s_a[0] s_b[0], which the maps scale by
    1 / (s_a[n_a - 1] s_b[n_b - 1]). So the stack Gram takes the dead level of
    a top eigenvalue max_a (s_a[0] / s_a[n_a - 1])^2 when that exceeds its own
    (``_whiten``'s ``data_top``), and its sqrt(S) bound allows the same rounding.
    """
    usable = [i for i, r in enumerate(reductions) if r.selected_order > 0]
    if len(usable) < 2:
        raise EmptyGroup("group CCA needs at least 2 subjects with patterns")
    voxels = {reductions[i].n_voxels for i in usable}
    if len(voxels) != 1:
        raise BadDimension(f"subjects disagree on voxel count: {sorted(voxels)}")
    if grams is None:
        grams = cross_grams(reductions)
    kept = [reductions[i] for i in usable]
    maps = [r.whitening_map for r in kept]
    offsets = np.concatenate([[0], np.cumsum([m.shape[1] for m in maps])])
    stack_gram = _stack_gram(
        offsets, lambda a, b: maps[a].T @ grams[usable[a], usable[b]] @ maps[b]
    )
    spread = max((r.singular_values[0] / r.singular_values[r.selected_order - 1]) ** 2
                 for r in kept)
    total = int(offsets[-1])
    size = max(total, voxels.pop())
    z, rank, w = _whiten(stack_gram, total, size, spread)
    z = z[:rank]
    bound = len(kept) + _dead_level(max(len(kept), spread), size)
    if z.size and z[0] > np.sqrt(bound) + 1e-6:
        raise NumericalFailure(
            "stacked singular value exceeds the sqrt(S) bound; "
            "whitened patterns are not orthonormal"
        )
    return GroupDecomposition(
        loading_basis=w[:, :rank] * z,
        correlations=z,
        subject_slices=tuple(zip(offsets[:-1].tolist(), offsets[1:].tolist())),
        maps=tuple(maps),
        data=tuple(r.data.values for r in kept),
    )


def bootstrap_max_correlations(
    reductions: list[SubjectReduction],
    n_boot: int = DEFAULT_N_BOOT,
    seed: int = 0,
    grams: dict[Pair, np.ndarray] | None = None,
) -> np.ndarray:
    """Maximum stack singular value of re-whitened resampled noise residuals.

    One draw resamples each subject's residual frames with replacement,
    whitens the resample to its top n_s right singular directions, stacks
    across subjects, and records the largest singular value. Each subject is
    whitened on its distinct frames u_a (``whiten_distinct``), so the stack's
    Gram has blocks M_a^T G_ab[u_a, u_b] M_b built from the residual
    cross-Grams G_ab = E_a E_b^T, and the cost per draw is independent of the
    voxel count. With E_a = (I - V_a V_a^T) Y_a, each G_ab is the data's
    cross-Gram Y_a Y_b^T from ``grams`` (the ``cross_grams`` table, computed
    here if not given), projected in place. So the table is overwritten with
    the residual cross-Grams; pass one you no longer need. A subject without
    noise (``SubjectReduction.has_noise``) raises ``EmptyNoise``.

    The draws are batched in chunks: per chunk, one stacked whitening per
    subject, one stacked block product per subject pair and one stacked
    eigenvalue call. Frame counts may differ between subjects, so the stack
    axis is the draws. Each subject has one width for the whole bootstrap,
    its largest distinct count or its order, so a draw's bits do not depend
    on its chunk. The projections, then the chunks, run on up to
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
    if grams is None:
        grams = cross_grams(reductions)
    bases = [r.frame_basis for r in reductions]
    # a projected Gram keeps its data's rounding, so its dead level is the data's
    tops = [r.singular_values[0] ** 2 for r in reductions]
    orders = [r.selected_order for r in reductions]
    n_subjects = len(reductions)
    frames = [r.data.rows for r in reductions]
    n_voxels = reductions[0].n_voxels
    offsets = np.concatenate([[0], np.cumsum(orders)])
    total = int(offsets[-1])
    idx = resample_frames(seed, streams.CCA_NOISE_BOOT, n_boot, frames)
    widths = [max(int(n_distinct(i).max()), n) for i, n in zip(idx, orders)]
    maxima = np.empty(n_boot)

    def project(pair: Pair) -> None:
        a, b = pair
        gram = grams[pair]
        gram -= bases[a] @ (bases[a].T @ gram)
        gram -= (gram @ bases[b]) @ bases[b].T

    def run_chunk(draws: np.ndarray) -> None:
        kept, _, maps = zip(*(
            whiten_distinct(grams[s, s], idx[s][draws], widths[s], orders[s],
                            n_voxels, tops[s])
            for s in range(n_subjects)
        ))
        stack_gram = _stack_gram(
            offsets,
            lambda a, b: (maps[a].transpose(0, 2, 1)
                          @ resampled(grams[a, b], kept[a], kept[b]) @ maps[b]),
            (len(draws),),
        )
        top = np.linalg.eigvalsh(stack_gram)[:, -1]
        maxima[draws] = np.sqrt(np.maximum(top, 0.0))

    chunks = draw_chunks(np.arange(n_boot), 8 * max(max(widths) ** 2, total**2))
    # Held here as well as in fit_group, since the threshold is also computed
    # on its own: pool workers on extra BLAS threads only compete for cores.
    with _blas.limit(), ThreadPoolExecutor(
        _blas.worker_count(max(len(grams), len(chunks)))
    ) as pool:
        list(pool.map(project, grams))
        list(pool.map(run_chunk, chunks))
    return maxima


def noise_threshold(
    reductions: list[SubjectReduction],
    n_boot: int = DEFAULT_N_BOOT,
    alpha: float = DEFAULT_ALPHA,
    seed: int = 0,
    grams: dict[Pair, np.ndarray] | None = None,
) -> float:
    """(1 - alpha) nearest-rank quantile of the bootstrap noise maxima.

    Like ``bootstrap_max_correlations``, it overwrites ``grams`` with the
    residual cross-Grams; pass a table you no longer need.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    maxima = bootstrap_max_correlations(reductions, n_boot=n_boot, seed=seed, grams=grams)
    return nearest_rank_quantile(maxima, 1.0 - alpha)


def select_group_subspace(
    decomposition: GroupDecomposition, threshold: float
) -> GroupSubspace:
    """Keep directions whose singular value strictly exceeds the threshold.

    Only the k retained pattern rows are formed. An empty selection (k = 0)
    is a legal result; ties at the threshold are rejected.
    """
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    z = decomposition.correlations
    k = int((z > threshold).sum())
    patterns, basis = decomposition.leading(k)
    return GroupSubspace(
        group_patterns=DataMatrix(patterns, RowKind.PATTERNS),
        canonical_correlations=z[:k].copy(),
        loadings=basis * z[:k],
        residual_ss=float((z[k:] ** 2).sum()),
    )
