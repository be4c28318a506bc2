"""End-to-end estimation: orders, whitening, group subspace, ICA, maps.

This module owns the run configuration and the ``fit_group`` orchestration
used both by the command line and by the split-half harness. Per-subject
work fans out over a thread pool. The same pool then computes the table of
the series' frame cross-Grams, one product per pair of distinct subjects,
which the group CCA reads and the noise threshold then overwrites; the
threshold's chunks of batched bootstrap draws fan out too. Results are keyed
by subject index, pair or draw, and all randomness is derived from the
configured seed, so output is identical regardless of worker count.
``CANICA_THREADS`` caps the pools. The whole fit runs with numpy's bundled
OpenBLAS held to one thread (``_blas.limit``), so no product's last bits
depend on the BLAS thread count. ``fit_group`` standardizes every subject,
but a series that is already standardized passes through uncopied: the
command line standardizes each subject as it loads it, so a fit, each split
half and every repeat read those series. Each series' matrix keeps its frame
Gram and its one eigendecomposition (``DataMatrix.gram``, ``.whitening``):
the subject stage forms both, the table's diagonal block copies the Gram, and
later halves and repeats read them again, so a command forms each once. A
subject's order-selection seed comes from its place in the command's dataset
(``order_seeds``), and its series keeps each curve under every argument of
``order_stability`` (``SubjectSeries.order_curves``), so the subject stage
selects a subject's order once per command and every split half and repeat
reuses it; the reduction runs in every fit. The reductions hold the
standardized series themselves, not copies, and nothing stacks their
patterns: the group CCA whitens the cross-Grams and forms only the retained
group patterns, and the noise bootstrap reads each residual as the
cross-Grams projected in place off the kept patterns' frame directions, so a
fit holds one table.
"""

import dataclasses
import json
import math
import sys
import typing
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _blas, group_level, source_separation, streams, subject_level, thresholding
from .data_model import GroupDataset, standardize
from .errors import BadDimension, ConfigError, EmptyNoise
from .group_level import (
    GroupSubspace,
    cross_grams,
    group_cca,
    noise_threshold,
    select_group_subspace,
)
from .source_separation import CONTRASTS, IcaDecomposition, fastica
from .subject_level import (
    MIN_BOOT,
    OrderSelectionCurve,
    order_stability,
    svd_reduce,
)
from .thresholding import ThresholdedMap, fit_empirical_null, threshold_map

NO_SUBSPACE_MESSAGE = "no reproducible subspace"


SIMULATE = ("simulate",)
FIT = ("fit", "split-half")
RUN = SIMULATE + FIT
THRESHOLD = ("threshold",)


@dataclass(frozen=True)
class Rule:
    """Range a config value must lie in, worded for error messages."""

    text: str
    holds: Callable[[object], bool]
    choices: tuple[str, ...] | None = None


POSITIVE = Rule("must be positive", lambda v: v > 0)
NONNEGATIVE = Rule("must be nonnegative", lambda v: v >= 0)
FRACTION = Rule("must lie in (0, 1)", lambda v: 0 < v < 1)
UNIT_INTERVAL = Rule("must lie in (0, 1]", lambda v: 0 < v <= 1)
# Philox keys are 64-bit words: a larger seed would alias a smaller one.
SEED = Rule("must lie in [0, 2**64)", lambda v: 0 <= v < 2**64)
BOOTS = Rule(f"must be at least {MIN_BOOT}", lambda v: v >= MIN_BOOT)
CONTRAST = Rule(f"must be one of {list(CONTRASTS)}", lambda v: v in CONTRASTS, CONTRASTS)

_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               type(None): "null"}


def _option(default, flag: str, commands: tuple[str, ...], rule: Rule | None, text: str):
    """A config field, its CLI flag, the subcommands exposing it, its rule and help."""
    return field(
        default=default,
        metadata={"flag": flag, "commands": commands, "rule": rule, "help": text},
    )


def field_types(f: dataclasses.Field) -> tuple[type, ...]:
    """Types a config field accepts: ``(T,)``, or ``(T, NoneType)`` for ``T | None``."""
    return typing.get_args(f.type) or (f.type,)


def _has_type(value, allowed: tuple[type, ...]) -> bool:
    if isinstance(value, bool):
        return False  # bool subclasses int, but True is never a count or a seed
    if isinstance(value, int) and float in allowed:
        # kept as given, so the manifest echoes the config byte for byte
        return abs(value) <= sys.float_info.max
    if isinstance(value, float) and not math.isfinite(value):
        return False
    return isinstance(value, allowed)


@dataclass
class PipelineConfig:
    """Flat, file-round-trippable configuration for every stage.

    Simulation keys use the external spelling (S, n_frames, n_voxels,
    k_true, sparsity, sigma_E, sigma_R, seed) so config files read the
    same as the CLI documentation. Each field's metadata holds its CLI
    flag, the subcommands that expose it, its help text and its range
    rule; validation, JSON loading and the CLI all derive from them. The
    estimation defaults are the stage modules' own constants.
    """

    # simulation
    S: int = _option(12, "--subjects", SIMULATE, POSITIVE, "number of subjects (S)")
    n_frames: int = _option(200, "--frames", SIMULATE, POSITIVE, "frames per subject")
    n_voxels: int = _option(5000, "--voxels", SIMULATE, POSITIVE, "voxels per subject")
    k_true: int = _option(10, "--k-true", SIMULATE, NONNEGATIVE, "planted group patterns")
    sparsity: float = _option(0.05, "--sparsity", SIMULATE, UNIT_INTERVAL,
                              "fraction of voxels in each planted pattern")
    sigma_E: float = _option(0.5, "--sigma-e", SIMULATE, NONNEGATIVE, "observation noise")
    sigma_R: float = _option(0.1, "--sigma-r", SIMULATE, NONNEGATIVE, "pattern deviation")
    seed: int = _option(0, "--seed", RUN, SEED, "random seed in [0, 2**64)")
    # subject-level order selection
    max_order: int = _option(20, "--max-order", FIT, POSITIVE, "largest order considered")
    order_n_boot: int = _option(subject_level.DEFAULT_N_BOOT, "--order-boots", FIT, BOOTS,
                                "bootstrap draws for order selection")
    order_quantile: float = _option(subject_level.DEFAULT_QUANTILE, "--order-quantile",
                                    FIT, FRACTION,
                                    "null quantile an order's stability must exceed")
    fixed_order: int | None = _option(None, "--fixed-order", FIT, POSITIVE,
                                      "skip order selection, keep this many patterns "
                                      "(at most each subject's numerical rank)")
    # group-level selection
    cca_n_boot: int = _option(group_level.DEFAULT_N_BOOT, "--cca-boots", FIT, BOOTS,
                              "bootstrap draws for the noise threshold")
    cca_alpha: float = _option(group_level.DEFAULT_ALPHA, "--alpha", FIT, FRACTION,
                               "significance level of the noise threshold")
    # source separation
    ica_nonlinearity: str = _option("logcosh", "--nonlinearity", FIT, CONTRAST,
                                    "FastICA contrast function")
    ica_tol: float = _option(source_separation.DEFAULT_TOL, "--tol", FIT, POSITIVE,
                             "FastICA tolerance")
    ica_max_iter: int = _option(source_separation.DEFAULT_MAX_ITER, "--max-iter", FIT,
                                POSITIVE, "FastICA iteration cap")
    ica_restarts: int = _option(source_separation.DEFAULT_RESTARTS, "--restarts", FIT,
                                POSITIVE, "FastICA restarts")
    # map thresholding
    p_two_sided: float = _option(thresholding.DEFAULT_P_TWO_SIDED, "--p-value",
                                 FIT + THRESHOLD, FRACTION,
                                 "two-sided voxel p-value for the maps")
    # split-half
    repeats: int = _option(1, "--repeats", ("split-half",), POSITIVE, "split-half repeats")
    # paths
    input_dir: str | None = _option(None, "--input", FIT, None,
                                    "directory of subject_*.cnic files")
    output_dir: str | None = _option(None, "--out", RUN + THRESHOLD, None,
                                     "output directory")

    def validate(self) -> "PipelineConfig":
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            allowed = field_types(f)
            if not _has_type(value, allowed):
                names = " or ".join(_TYPE_NAMES[t] for t in allowed)
                raise ConfigError(f"{f.name} must be {names}, got {value!r}")
            rule = f.metadata["rule"]
            if value is not None and rule is not None and not rule.holds(value):
                raise ConfigError(f"{f.name} {rule.text}, got {value!r}")
        return self

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data).validate()

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        # JSONDecodeError, UnicodeDecodeError and the integer digit limit are
        # all ValueErrors; deeply nested arrays exhaust the recursion limit.
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from exc
        return cls.from_dict(data)


@dataclass
class FitResult:
    """Everything one end-to-end fit produced, plus diagnostics."""

    subject_ids: tuple[str, ...]
    selected_orders: tuple[int, ...]
    stability_curves: tuple[OrderSelectionCurve | None, ...]
    n_voxels: int
    correlations_full: np.ndarray | None = None
    threshold: float | None = None
    subspace: GroupSubspace | None = None
    ica: IcaDecomposition | None = None
    thresholded_maps: tuple[ThresholdedMap, ...] = ()
    message: str = ""

    @property
    def k(self) -> int:
        return 0 if self.subspace is None else self.subspace.k


def order_seeds(seed: int, positions: Iterable[int]) -> tuple[int, ...]:
    """Order-selection seeds of the subjects at ``positions`` of a command's dataset.

    A subject's seed depends on its place in the whole dataset only, so ``fit``
    and every split half and repeat select its order from the same streams.
    """
    return tuple(streams.derive_seed(seed, streams.SUBJECT_ORDER_SEED, int(p))
                 for p in positions)


@_blas.limit()
def fit_group(
    dataset: GroupDataset, config: PipelineConfig, seeds: Sequence[int] | None = None
) -> FitResult:
    """Run the full estimation pipeline on one group of subjects, on one BLAS thread.

    ``seeds`` are the subjects' order-selection seeds, by default
    ``order_seeds(config.seed, range(n_subjects))``. A subject whose series
    already keeps the curve for its arguments (``SubjectSeries.order_curves``)
    reuses it; the reduction and everything after it run in every fit.
    """
    config.validate()
    subjects = [standardize(s) for s in dataset.subjects]
    n_voxels = dataset.n_voxels
    if seeds is None:
        seeds = order_seeds(config.seed, range(len(subjects)))
    if len(seeds) != len(subjects):
        raise BadDimension(f"{len(seeds)} order seeds for {len(subjects)} subjects")

    def subject_stage(index):
        series = subjects[index]
        limit = min(series.n_frames, series.n_voxels) // 2
        if config.fixed_order is not None:
            order = min(config.fixed_order, min(series.n_frames, series.n_voxels))
            curve = None
        else:
            max_order = min(config.max_order, limit)
            if max_order < 1:
                raise BadDimension(
                    f"subject {series.subject_id!r} is too small for order selection"
                )
            n_boot, quantile, seed = config.order_n_boot, config.order_quantile, seeds[index]
            key = (max_order, n_boot, quantile, seed)
            curve = series.order_curves.get(key)
            if curve is None:
                # through the module global, so a tracer that wraps it counts it
                curve = order_stability(series, max_order, n_boot, quantile, seed)
                series.order_curves[key] = curve
            order = curve.selected
        if order < 1:
            return order, curve, None
        # the reduction keeps no more patterns than the series' numerical rank,
        # and a series of rank 0 is left out of the group as order 0 would be
        reduction = svd_reduce(series, order)
        kept = reduction.selected_order
        return kept, curve, reduction if kept else None

    with ThreadPoolExecutor(max_workers=_blas.worker_count(len(subjects))) as pool:
        staged = list(pool.map(subject_stage, range(len(subjects))))
        reductions = [s[2] for s in staged if s[2] is not None]
        grams = cross_grams(reductions, pool.map) if len(reductions) >= 2 else None
    subject_ids = tuple(s.subject_id for s in subjects)
    orders = tuple(s[0] for s in staged)
    curves = tuple(s[1] for s in staged)

    base = FitResult(
        subject_ids=subject_ids,
        selected_orders=orders,
        stability_curves=curves,
        n_voxels=n_voxels,
    )
    if len(reductions) < 2:
        base.message = NO_SUBSPACE_MESSAGE
        return base

    decomposition = group_cca(reductions, grams)
    try:
        threshold = noise_threshold(
            reductions,
            n_boot=config.cca_n_boot,
            alpha=config.cca_alpha,
            seed=streams.derive_seed(config.seed, streams.PIPELINE_CCA_SEED),
            grams=grams,
        )
    except EmptyNoise as exc:
        base.message = f"{NO_SUBSPACE_MESSAGE}: {exc}"
        return base
    subspace = select_group_subspace(decomposition, threshold)
    base.correlations_full = decomposition.correlations
    base.threshold = threshold
    base.subspace = subspace
    if subspace.k == 0:
        base.message = NO_SUBSPACE_MESSAGE
        return base

    ica = fastica(
        subspace.group_patterns,
        nonlinearity=config.ica_nonlinearity,
        tol=config.ica_tol,
        max_iter=config.ica_max_iter,
        seed=streams.derive_seed(config.seed, streams.PIPELINE_ICA_SEED),
        restarts=config.ica_restarts,
    )
    base.ica = ica
    base.thresholded_maps = threshold_components(ica.components.values, config.p_two_sided)
    return base


def threshold_components(rows, p_two_sided: float) -> tuple[ThresholdedMap, ...]:
    """Fit each component row's empirical null and select its voxels."""
    return tuple(
        threshold_map(row, fit_empirical_null(row, p_two_sided=p_two_sided),
                      component_index=i)
        for i, row in enumerate(rows)
    )
