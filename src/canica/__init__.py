"""Group-level ICA pattern extraction with noise-calibrated selection.

Pipeline stages: per-subject whitening from an eigendecomposition of the
frame Gram with bootstrap order selection, group-reproducible subspace from
the same eigendecomposition of the concatenated whitened patterns' Gram
(built from the subjects' frame cross-Grams) with a noise-bootstrap
significance threshold, FastICA source separation,
and empirical-null voxel thresholding. One rank rule (eigenvalue at most
lambda_max * max(frames, voxels) * eps is dead) governs every
decomposition. A generative-model simulator and split-half reproducibility
measures serve as the validation harness.
"""

from . import errors, streams
from .data_model import (
    DataMatrix,
    GroupDataset,
    RowKind,
    StandardizedSeries,
    SubjectSeries,
    read_matrix,
    standardize,
    write_matrix,
)
from .group_level import (
    GroupDecomposition,
    GroupSubspace,
    bootstrap_max_correlations,
    cross_grams,
    group_cca,
    noise_threshold,
    select_group_subspace,
)
from .pipeline import FitResult, PipelineConfig, fit_group
from .reproducibility import (
    ComponentMatching,
    ReproducibilityReport,
    SplitHalfResult,
    build_report,
    cross_correlation,
    match_components,
    measures,
    normalize_mask_rows,
    overlap_histogram,
    split_half,
)
from .simulate import (
    GroundTruth,
    SyntheticDataset,
    make_ground_truth,
    make_group_patterns,
    simulate_group,
    simulate_subject,
)
from .source_separation import IcaDecomposition, amari_index, fastica, negentropy_proxy
from .subject_level import (
    OrderSelectionCurve,
    SubjectReduction,
    nearest_rank_quantile,
    order_stability,
    select_order,
    svd_reduce,
)
from .thresholding import (
    NullFit,
    ThresholdedMap,
    fit_empirical_null,
    threshold_map,
    two_sided_z,
)

__version__ = "0.1.0"

__all__ = [
    "DataMatrix",
    "RowKind",
    "SubjectSeries",
    "StandardizedSeries",
    "GroupDataset",
    "standardize",
    "read_matrix",
    "write_matrix",
    "GroundTruth",
    "SyntheticDataset",
    "make_group_patterns",
    "make_ground_truth",
    "simulate_subject",
    "simulate_group",
    "SubjectReduction",
    "OrderSelectionCurve",
    "svd_reduce",
    "select_order",
    "order_stability",
    "nearest_rank_quantile",
    "GroupDecomposition",
    "GroupSubspace",
    "cross_grams",
    "group_cca",
    "bootstrap_max_correlations",
    "noise_threshold",
    "select_group_subspace",
    "IcaDecomposition",
    "fastica",
    "amari_index",
    "negentropy_proxy",
    "NullFit",
    "ThresholdedMap",
    "fit_empirical_null",
    "threshold_map",
    "two_sided_z",
    "ComponentMatching",
    "ReproducibilityReport",
    "SplitHalfResult",
    "cross_correlation",
    "match_components",
    "measures",
    "build_report",
    "normalize_mask_rows",
    "overlap_histogram",
    "split_half",
    "PipelineConfig",
    "FitResult",
    "fit_group",
    "errors",
    "streams",
]
