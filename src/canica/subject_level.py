"""Per-subject separation of signal patterns from observation noise.

Every decomposition, here and at the group level, is one eigendecomposition
of a small Gram matrix under one rank rule. A subject's frame Gram
G = Y Y^T = V diag(lambda) V^T gives the whitening map W = V/sqrt(lambda)
and orthonormal patterns W^T Y (its leading right singular vectors); the
rest of Y is the noise residual. A direction with lambda <= lambda_max *
max(frames, voxels) * eps is dead (a zero column of W), so an order above
the numerical rank keeps the rank. The order is chosen by comparing
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
the numerical rank of the data failing automatically. Each draw costs
O(f^3), independent of the voxel count. The draws are batched: each chunk
of them is one gather, one stacked eigendecomposition and one stacked
product, which numpy runs in LAPACK and BLAS outside the interpreter.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import streams
from .data_model import DataMatrix, RowKind, SubjectSeries
from .errors import BadDimension, NumericalFailure

DEFAULT_N_BOOT = 100
DEFAULT_QUANTILE = 0.95
# Bytes of one stacked operand in a chunk of bootstrap draws: enough draws
# per numpy call to amortize the interpreter, few enough that the chunks'
# working sets stay small next to the data.
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
    """Whitened retained patterns and the discarded noise residual."""

    subject_id: str
    whitened_patterns: DataMatrix  # n x n_voxels, orthonormal rows
    noise_residual: DataMatrix  # n_frames x n_voxels
    selected_order: int
    singular_values: np.ndarray  # full spectrum, nonincreasing
    stability_curve: OrderSelectionCurve | None = None

    @property
    def n_voxels(self) -> int:
        return self.whitened_patterns.cols

    @property
    def has_noise(self) -> bool:
        """Whether the residual's energy exceeds the rank rule's dead level.

        The level is that of the subject's top eigenvalue, so the rounding
        left behind by a reduction that kept the whole numerical rank counts
        as no noise, as an all-zero residual does.
        """
        e = self.noise_residual.values
        return float(np.vdot(e, e)) > _dead_level(self.singular_values[0] ** 2, *e.shape)


def _dead_level(lambda_max: float, n_frames: int, n_voxels: int) -> float:
    """Gram eigenvalue at or below which a direction is rounding, not data."""
    return lambda_max * max(n_frames, n_voxels) * np.finfo(float).eps


def nearest_rank_quantile(values: np.ndarray, q: float) -> float:
    """Empirical quantile with the nearest-rank rule, ceil(q * n).

    The rank is exact for q's shortest decimal form: q = 0.55 of 100 values
    is the 55th, though the binary product 0.55 * 100 exceeds 55.
    """
    values = np.sort(np.asarray(values, dtype=float))
    idx = max(math.ceil(Fraction(repr(float(q))) * values.size) - 1, 0)
    return float(values[idx])


def draw_chunks(n_boot: int, draw_bytes: int) -> list[slice]:
    """Consecutive runs of draws whose stacked operands fit CHUNK_BYTES.

    ``draw_bytes`` is the size of one draw's largest operand; a chunk holds
    at least one draw.
    """
    size = max(1, CHUNK_BYTES // draw_bytes)
    return [slice(a, min(a + size, n_boot)) for a in range(0, n_boot, size)]


def resample_frames(
    seed: int, purpose: int, n_boot: int, frames: list[int]
) -> list[np.ndarray]:
    """Frame indices of every bootstrap draw, one (n_boot, f) array per f.

    Draw b resamples each of ``frames`` in turn, with replacement, from the
    stream (seed, purpose, b).
    """
    rngs = [streams.substream(seed, purpose, b) for b in range(n_boot)]
    return [np.stack([rng.integers(0, f, size=f) for rng in rngs]) for f in frames]


def resampled(gram: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Stack of gram[rows[b]][:, cols[b]] over the draws b."""
    # one flat index gathers about twice as fast as two broadcast index arrays
    return np.take(gram, (rows * gram.shape[1])[:, :, None] + cols[:, None, :])


def _whiten(gram: np.ndarray, order: int, n_voxels: int):
    """Descending sqrt(lambda), numerical rank and whitening map of a Gram.

    The map's ``order`` columns are V/sqrt(lambda), zero on dead directions.
    A stack of Grams (..., f, f) gives stacked results: each matrix has the
    dead level of its own top eigenvalue, and the rank is an array.
    """
    try:
        evals, evecs = np.linalg.eigh(gram)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition did not converge: {exc}") from exc
    evals, evecs = evals[..., ::-1], evecs[..., ::-1][..., :order]
    live = evals > _dead_level(evals[..., :1], gram.shape[-1], n_voxels)
    s = np.sqrt(np.clip(evals, 0.0, None))
    top = s[..., :order]
    scale = np.divide(1.0, top, out=np.zeros(top.shape), where=live[..., :order])
    rank = live.sum(axis=-1)
    return s, int(rank) if gram.ndim == 2 else rank, evecs * scale[..., None, :]


def _thin_svd(x: np.ndarray, order: int):
    """Top ``min(order, rank)`` singular triplets of a short, wide matrix.

    Left vectors, full spectrum, and right vectors as rows whose
    largest-magnitude entry is positive.
    """
    s, rank, w = _whiten(x @ x.T, order, x.shape[1])
    w = w[:, : min(order, rank)]
    rows = w.T @ x
    peaks = np.argmax(np.abs(rows), axis=1)
    flip = rows[np.arange(rows.shape[0]), peaks] < 0
    rows[flip] *= -1.0
    w[:, flip] *= -1.0
    return w * s[: rows.shape[0]], s, rows


def svd_reduce(series: SubjectSeries, order: int) -> SubjectReduction:
    """Split a series into its top ``min(order, rank)`` patterns and residual."""
    y = series.data.values
    if not 1 <= order <= min(y.shape):
        raise BadDimension(
            f"order must be in [1, {min(y.shape)}], got {order}"
        )
    u, s, patterns = _thin_svd(y, order)
    residual = y - (u * s[: len(patterns)]) @ patterns
    return SubjectReduction(
        subject_id=series.subject_id,
        whitened_patterns=DataMatrix(patterns, RowKind.PATTERNS),
        noise_residual=DataMatrix(residual, RowKind.FRAMES),
        selected_order=len(patterns),
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
    """Per-draw subspace-energy gains, shape (n_boot, max_order)."""
    n_frames, max_order = ref_map.shape
    (idx,) = resample_frames(seed, purpose, n_boot, [n_frames])
    gains = np.empty((n_boot, max_order))
    for draws in draw_chunks(n_boot, gram.nbytes):
        i = idx[draws]
        _, _, boot_map = _whiten(resampled(gram, i, i), max_order, n_voxels)
        overlap = boot_map.transpose(0, 2, 1) @ gram[i, :] @ ref_map
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
    if n_boot < 20:
        raise BadDimension(f"need n_boot >= 20, got {n_boot}")
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    orders = np.arange(1, max_order + 1)
    if np.ptp(y) == 0.0:
        # Constant data carries no subspace at all; report order 0 rather
        # than erroring out of the bootstrap internals.
        zeros = np.zeros(max_order)
        return OrderSelectionCurve(orders, zeros, zeros.copy(),
                                   np.zeros(max_order, bool), 0)

    gram = y @ y.T
    _, rank, ref_map = _whiten(gram, max_order, n_voxels)
    data_gains = _bootstrap_gains(
        gram, ref_map, n_voxels, n_boot, seed, streams.ORDER_DATA_BOOT
    )

    null = streams.substream(seed, streams.ORDER_NULL_MATRIX).standard_normal(y.shape)
    null_gram = null @ null.T
    _, _, null_map = _whiten(null_gram, max_order, n_voxels)
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
