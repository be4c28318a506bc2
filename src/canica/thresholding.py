"""Empirical-null voxel selection for component maps.

Interesting voxels live in the non-Gaussian tails of a component map's
histogram. The null is a Gaussian fitted to the central half of the
values: location from the median, scale from the interquartile range via
the normal-consistent factor 1.349. Both are robust to exactly the
long-tailed contamination the maps are expected to carry. Selection is a
strict two-sided z test at an uncorrected p-value.
"""

import statistics
from dataclasses import dataclass, replace

import numpy as np

from .errors import BadDimension, DegenerateInput

IQR_TO_SIGMA = 1.349
DEFAULT_P_TWO_SIDED = 1e-3
MIN_VOXELS = 100


@dataclass(frozen=True)
class NullFit:
    """Gaussian null fitted to the central part of a map's histogram."""

    mu: float
    sigma: float
    p_two_sided: float
    z_threshold: float


@dataclass(frozen=True)
class ThresholdedMap:
    component_index: int
    selected: np.ndarray  # boolean mask over voxels
    n_selected: int
    fit: NullFit


def two_sided_z(p_two_sided: float) -> float:
    """Standard-normal quantile with p/2 mass in each tail."""
    if not 0.0 < p_two_sided < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p_two_sided}")
    return -statistics.NormalDist().inv_cdf(p_two_sided / 2.0)


def fit_empirical_null(
    map_row: np.ndarray, p_two_sided: float = DEFAULT_P_TWO_SIDED
) -> NullFit:
    """Fit the central-part Gaussian null to one component map."""
    values = np.asarray(map_row, dtype=float).ravel()
    if values.size < MIN_VOXELS:
        raise BadDimension(
            f"need at least {MIN_VOXELS} voxels to fit a null, got {values.size}"
        )
    if np.ptp(values) == 0.0:
        raise DegenerateInput("all map values are identical")
    mu = float(np.median(values))
    q25, q75 = np.percentile(values, [25.0, 75.0])
    iqr = float(q75 - q25)
    if iqr == 0.0:
        raise DegenerateInput("interquartile range is zero")
    return NullFit(
        mu=mu,
        sigma=iqr / IQR_TO_SIGMA,
        p_two_sided=p_two_sided,
        z_threshold=two_sided_z(p_two_sided),
    )


def threshold_map(
    map_row: np.ndarray,
    fit: NullFit,
    p_two_sided: float | None = None,
    component_index: int = 0,
) -> ThresholdedMap:
    """Select voxels whose null z-score strictly exceeds the threshold.

    Passing ``p_two_sided`` re-derives the z threshold from the same fit;
    boundary equality is never selected.
    """
    values = np.asarray(map_row, dtype=float).ravel()
    if p_two_sided is not None and p_two_sided != fit.p_two_sided:
        fit = replace(
            fit, p_two_sided=p_two_sided, z_threshold=two_sided_z(p_two_sided)
        )
    selected = np.abs(values - fit.mu) / fit.sigma > fit.z_threshold
    return ThresholdedMap(
        component_index=component_index,
        selected=selected,
        n_selected=int(selected.sum()),
        fit=fit,
    )
