"""Per-subject separation of signal patterns from observation noise.

Every decomposition, here and at the group level, is one eigendecomposition
of a small Gram matrix under one rank rule. A subject's frame Gram
G = Y Y^T = V diag(lambda) V^T gives the whitening map W = V/sqrt(lambda)
and orthonormal patterns W^T Y (its leading right singular vectors); the
rest of Y, (I - V V^T) Y over the kept columns of V, is the noise residual.
A reduction stores neither voxel-wide product: the group level reads both
through frame cross-Grams, and forms only the group patterns it keeps. The
series' own matrix forms G once and keeps it (``DataMatrix.gram``), so order
selection, the reduction and the group level's table all read one G.
A direction with lambda <= lambda_max * max(frames, voxels) * eps is dead
(a zero column of W), so an order above the numerical rank keeps the rank,
and a subject has noise only while its first discarded direction is live.
The order is chosen by comparing
bootstrap stability of the leading right-singular subspace against the
same statistic on a matching pure noise matrix.

Stability statistic. For a candidate order m, one bootstrap draw resamples
frames with replacement and the overlap matrix O[i, j] = <v_boot_i, v_ref_j>
between the draw's and the original data's leading right singular vectors
is formed. The per-draw statistic at order m is the increment of the
subspace overlap energy

    gain(m) = sum_{i<=m} O[i, m]^2 + sum_{j<m} O[m, j]^2,

i.e. how much energy the m-th direction adds to the matched subspace. A
signal direction that survives resampling contributes about 1; a noise
direction contributes what an equally-placed direction of an i.i.d.
standard normal matrix would. The cumulative form (1/m)||P_boot P_ref^T||^2
cannot be used directly for the stopping rule: once real directions are
present they inflate the average at every order beyond them, so selection
never stops; the increment isolates each direction's own stability.

The selected order is the largest n such that for every m <= n the mean
gain over bootstrap draws strictly exceeds the chosen quantile of the
null distribution of per-draw gains at order m, with candidates beyond
the numerical rank of the data failing automatically.

Distinct frames. A resample of f frames keeps about 63% of them distinct.
With its distinct frames u and their counts D, the resampled Gram has the
nonzero spectrum of the u x u matrix D^1/2 G[u, u] D^1/2, and an eigenvector
w of that matrix with singular value sigma gives the resample's pattern
(D^1/2 w / sigma)^T Y[u]. Both bootstraps (order selection here, the noise
threshold at the group level) whiten every draw on its distinct frames
(Fisher, Caffo, Schwartz & Zipunnikov, JASA 2016), so a draw costs
O(|u|^3), independent of the voxel count. The draws are batched: each chunk
of them is one gather, one stacked eigendecomposition and one stacked
product, which numpy runs in LAPACK and BLAS outside the interpreter. A
draw's matrices have a width fixed before chunking, padded with count-0
frames, so its bits do not depend on which draws share its chunk.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import streams
from .data_model import DataMatrix, SubjectSeries
from .errors import BadDimension, NumericalFailure

DEFAULT_N_BOOT = 100
# Fewest draws either bootstrap (order selection, noise threshold) accepts;
# the run config rejects fewer before any input is read.
MIN_BOOT = 20
DEFAULT_QUANTILE = 0.95
# Bytes of one stacked operand in a chunk of bootstrap draws, counted at the
# draws' distinct-frame width: enough draws per numpy call to amortize the
# interpreter, few enough that the chunks' working sets stay small next to
# the data. A draw's width, not this budget, fixes its bits.
CHUNK_BYTES = 1 << 19


@dataclass(frozen=True)
class OrderSelectionCurve:
    """Per-candidate-order diagnostics from one select_order run."""

    orders: np.ndarray  # candidate orders, 1..max_order
    data_stability: np.ndarray  # mean bootstrap gain of the data
    null_quantile: np.ndarray  # quantile of the null gain distribution
    passed: np.ndarray  # strict comparison outcome per order
    selected: int


@dataclass(frozen=True)
class SubjectReduction:
    """A series' retained frame directions, with the data behind them.

    Neither the whitened patterns W^T Y nor the noise residual (I - V V^T) Y
    is stored: the group level reads both through frame cross-Grams.
    """

    subject_id: str
    data: DataMatrix  # n_frames x n_voxels, the reduced series' own matrix
    frame_basis: np.ndarray  # n_frames x n, orthonormal columns V, signed by the patterns
    singular_values: np.ndarray  # full spectrum, nonincreasing

    @property
    def selected_order(self) -> int:
        return self.frame_basis.shape[1]

    @property
    def n_voxels(self) -> int:
        return self.data.cols

    @property
    def whitening_map(self) -> np.ndarray:
        """W = V / s over the kept directions: the whitened patterns are W^T Y."""
        return self.frame_basis / self.singular_values[: self.selected_order]

    @property
    def has_noise(self) -> bool:
        """Whether the first discarded direction is live under the rank rule.

        A reduction that kept the whole numerical rank leaves rounding, not noise.
        """
        s, n = self.singular_values, self.selected_order
        size = max(self.data.values.shape)
        return bool(n < len(s) and s[n] ** 2 > _dead_level(s[0] ** 2, size))


def _dead_level(lambda_max: float, size: int) -> float:
    """Gram eigenvalue at or below which a direction is rounding, not data.

    ``size`` is the longer side, max(frames, voxels), of the data matrix.
    """
    return lambda_max * size * np.finfo(float).eps


def nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    """Empirical quantile with the nearest-rank rule, ceil(q * n).

    The rank is exact for q's shortest decimal form: q = 0.55 of 100 values
    is the 55th, though the binary product 0.55 * 100 exceeds 55.
    """
    values = np.sort(np.asarray(values, dtype=float))
    idx = max(math.ceil(Fraction(repr(float(q))) * values.size) - 1, 0)
    return float(values[idx])


def draw_chunks(draws: np.ndarray, draw_bytes: int) -> list[np.ndarray]:
    """Consecutive runs of ``draws`` whose stacked operands fit CHUNK_BYTES.

    ``draw_bytes`` is the size of one draw's largest operand; a chunk holds
    at least one draw.
    """
    size = max(1, CHUNK_BYTES // draw_bytes)
    return [draws[a : a + size] for a in range(0, len(draws), size)]


def resample_frames(
    seed: int, purpose: int, n_boot: int, frames: list[int]
) -> list[np.ndarray]:
    """Frame indices of every bootstrap draw, one (n_boot, f) array per f.

    Draw b resamples each of ``frames`` in turn, with replacement, from the
    stream (seed, purpose, b).
    """
    rngs = [streams.substream(seed, purpose, b) for b in range(n_boot)]
    return [np.stack([rng.integers(0, f, size=f) for rng in rngs]) for f in frames]


def n_distinct(idx: np.ndarray) -> np.ndarray:
    """Number of distinct frames in each resample (row) of ``idx``."""
    ordered = np.sort(idx, axis=1)
    return 1 + (ordered[:, 1:] != ordered[:, :-1]).sum(axis=1)


def resampled(gram: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Stack of gram[rows[b]][:, cols[b]] over the draws b."""
    # one flat index gathers about twice as fast as two broadcast index arrays
    return np.take(gram, (rows * gram.shape[1])[:, :, None] + cols[:, None, :])


def _whiten(gram: np.ndarray, order: int, size: int, data_top: float = 0.0):
    """Descending sqrt(lambda), numerical rank and whitening map of a Gram.

    The map's ``order`` columns are V/sqrt(lambda), zero on dead directions;
    ``size`` is the longer side of the data behind the Gram (its dead level).
    A stack of Grams (..., f, f) gives stacked results: each matrix has the
    dead level of its own top eigenvalue, and the rank is an array. A Gram
    that carries the rounding of larger data, as a projected one does, takes
    the dead level of that data's top eigenvalue ``data_top`` when it is larger.
    """
    try:
        evals, evecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition did not converge: {exc}") from exc
    evals, evecs = evals[..., ::-1], evecs[..., ::-1][..., :order]
    live = evals > _dead_level(np.maximum(evals[..., :1], data_top), size)
    s = np.sqrt(np.clip(evals, 0.0, None))
    top = s[..., :order]
    scale = np.divide(1.0, top, out=np.zeros(top.shape), where=live[..., :order])
    rank = live.sum(axis=-1)
    return s, int(rank) if gram.ndim == 2 else rank, evecs * scale[..., None, :]


def whiten_distinct(
    gram: np.ndarray, idx: np.ndarray, width: int, order: int, n_voxels: int,
    data_top: float = 0.0,
):
    """Whiten each resample of ``idx`` on its distinct frames.

    Row b of ``idx`` resamples the f frames behind ``gram``. Its distinct
    frames u, ascending and padded with absent frames to ``width`` columns,
    come with their counts D (0 on the padding). The resampled Gram has the
    nonzero spectrum of D^1/2 gram[u, u] D^1/2, whose whitening map w/sigma
    is returned scaled back as D^1/2 w/sigma: the resample's patterns are
    map^T Y[u]. The dead level is that of the resample, f frames by
    ``n_voxels`` (or ``data_top``'s), not of the compressed width. Returns
    (frames, counts, maps) of shapes (n, width), (n, width) and (n, width, order).
    """
    n, n_frames = idx.shape
    flat = (idx + n_frames * np.arange(n)[:, None]).ravel()
    all_counts = np.bincount(flat, minlength=n * n_frames).reshape(n, n_frames)
    # a stable sort puts the present frames first, each group ascending
    frames = np.argsort(all_counts == 0, axis=1, kind="stable")[:, :width]
    counts = np.take_along_axis(all_counts, frames, axis=1)
    root = np.sqrt(counts)
    compressed = root[:, :, None] * resampled(gram, frames, frames) * root[:, None, :]
    _, _, maps = _whiten(compressed, order, max(n_frames, n_voxels), data_top)
    return frames, counts, root[:, :, None] * maps


def sign_rows(rows: np.ndarray, columns: np.ndarray) -> None:
    """Flip, in place, each row whose largest-magnitude entry is negative.

    Column i of ``columns`` is flipped with row i.
    """
    # row by row, so no voxel-wide |rows| temporary is made
    peaks = [np.argmax(np.abs(row)) for row in rows]
    flip = rows[np.arange(rows.shape[0]), peaks] < 0
    rows[flip] *= -1.0
    columns[:, flip] *= -1.0


def svd_reduce(series: SubjectSeries, order: int) -> SubjectReduction:
    """Keep a series' top ``min(order, rank)`` frame directions.

    The directions are signed so that each whitened pattern's largest-magnitude
    entry is positive (``sign_rows``); the patterns are formed only for that.
    """
    y = series.data.values
    if not 1 <= order <= min(y.shape):
        raise BadDimension(
            f"order must be in [1, {min(y.shape)}], got {order}"
        )
    s, rank, w = _whiten(series.data.gram, order, max(y.shape))
    w = w[:, : min(order, rank)]
    sign_rows(w.T @ y, w)
    return SubjectReduction(
        subject_id=series.subject_id,
        data=series.data,
        frame_basis=w * s[: w.shape[1]],
        singular_values=s,
    )


def _bootstrap_gains(
    gram: np.ndarray,
    ref_map: np.ndarray,
    n_voxels: int,
    n_boot: int,
    seed: int,
    purpose: int,
) -> np.ndarray:
    """Per-draw subspace-energy gains, shape (n_boot, max_order).

    A draw's overlap with the reference patterns is map^T (gram ref_map)[u]
    on its distinct frames u. Draws are grouped by their width, the larger of
    their distinct count and ``max_order``, and chunked within a group.
    """
    n_frames, max_order = ref_map.shape
    (idx,) = resample_frames(seed, purpose, n_boot, [n_frames])
    projected = gram @ ref_map
    widths = np.maximum(n_distinct(idx), max_order)
    gains = np.empty((n_boot, max_order))
    for width in np.unique(widths).tolist():
        for draws in draw_chunks(np.flatnonzero(widths == width), 8 * width**2):
            frames, _, boot_map = whiten_distinct(
                gram, idx[draws], width, max_order, n_voxels
            )
            overlap = boot_map.transpose(0, 2, 1) @ projected[frames]
            energy = (overlap**2).cumsum(axis=1).cumsum(axis=2).diagonal(axis1=1, axis2=2)
            gains[draws] = np.diff(energy, axis=1, prepend=0.0)
    return gains


def order_stability(
    series: SubjectSeries,
    max_order: int,
    n_boot: int = DEFAULT_N_BOOT,
    quantile: float = DEFAULT_QUANTILE,
    seed: int = 0,
) -> OrderSelectionCurve:
    """Bootstrap stability curve and the resulting selected order."""
    y = series.data.values
    n_frames, n_voxels = y.shape
    if not 1 <= max_order <= min(n_frames, n_voxels) // 2:
        raise BadDimension(
            f"max_order must be in [1, {min(n_frames, n_voxels) // 2}], "
            f"got {max_order}"
        )
    if n_boot < MIN_BOOT:
        raise BadDimension(f"need n_boot >= {MIN_BOOT}, got {n_boot}")
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    orders = np.arange(1, max_order + 1)
    if np.ptp(y) == 0.0:
        # Constant data carries no subspace at all; report order 0 rather
        # than erroring out of the bootstrap internals.
        zeros = np.zeros(max_order)
        return OrderSelectionCurve(orders, zeros, zeros.copy(),
                                   np.zeros(max_order, bool), 0)

    gram = series.data.gram
    _, rank, ref_map = _whiten(gram, max_order, max(y.shape))
    data_gains = _bootstrap_gains(
        gram, ref_map, n_voxels, n_boot, seed, streams.ORDER_DATA_BOOT
    )

    null = streams.substream(seed, streams.ORDER_NULL_MATRIX).standard_normal(y.shape)
    null_gram = null @ null.T
    _, _, null_map = _whiten(null_gram, max_order, max(y.shape))
    null_gains = _bootstrap_gains(
        null_gram, null_map, n_voxels, n_boot, seed, streams.ORDER_NULL_BOOT
    )

    stability = data_gains.mean(axis=0)
    thresholds = np.array(
        [nearest_rank_quantile(null_gains[:, m], quantile) for m in range(max_order)]
    )
    passed = (stability > thresholds) & (orders <= rank)
    selected = 0
    for m in range(max_order):
        if not passed[m]:
            break
        selected = m + 1
    return OrderSelectionCurve(orders, stability, thresholds, passed, selected)


def select_order(
    series: SubjectSeries,
    max_order: int,
    n_boot: int = DEFAULT_N_BOOT,
    quantile: float = DEFAULT_QUANTILE,
    seed: int = 0,
) -> int:
    """Largest order whose every direction beats the null stability quantile."""
    return order_stability(series, max_order, n_boot, quantile, seed).selected
