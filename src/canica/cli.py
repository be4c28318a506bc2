"""Command-line entry points.

Subcommands: ``simulate`` (synthetic dataset to disk), ``fit`` (full
estimation run), ``split-half`` (repeated reproducibility analyses),
``threshold`` (standalone re-thresholding of a component matrix), and
``report`` (re-render a manifest). Every run writes a manifest carrying
the exact configuration and input digests, and identical configuration
plus inputs produce byte-identical outputs.

Exit codes: 0 success (including an empty selected subspace), 1 usage or
configuration error, 2 data, I/O or out-of-memory error, 3 numerical
failure.
"""

import argparse
import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import _blas, pipeline
from .data_model import (
    MAX_ELEMENTS,
    DataMatrix,
    GroupDataset,
    RowKind,
    SubjectSeries,
    cnic_bytes,
    read_matrix,
    write_matrix,
)
from .errors import BadDimension, CanicaError, ConfigError, DataError, exit_code
from .pipeline import FitResult, PipelineConfig, field_types, fit_group, threshold_components
from .reproducibility import overlap_histogram, split_half
from .simulate import simulate_group

SUBJECT_GLOB = "subject_*.cnic"
# Bytes read per hash update, and rows formatted per CSV write: enough to
# amortize the calls, small next to the inputs and the voxel-wide tables. A
# 1 MiB hash block raised split-half peak RSS by about 1 MB over this one.
HASH_BLOCK = 1 << 16
CSV_BLOCK_ROWS = 4096


def _sha256(path: Path) -> str:
    """Hex SHA-256 of a file, read in HASH_BLOCK pieces, never whole."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(HASH_BLOCK), b""):
            digest.update(block)
    return digest.hexdigest()


def _cnic_sha256(matrix: DataMatrix) -> str:
    """Hex SHA-256 of the CNIC1 file ``matrix`` was read from, from memory.

    ``read_matrix`` checks the magic, the version and the exact file size,
    so the re-encoded header and the payload are the file's bytes.
    """
    header, payload = cnic_bytes(matrix)
    digest = hashlib.sha256(header)
    digest.update(payload)
    return digest.hexdigest()


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _conversion(column: np.ndarray) -> str:
    """A column's ``%`` conversion: booleans as ``str``, integers, floats as .17g."""
    kind = column.dtype.kind
    return "%s" if kind == "b" else "%d" if kind in "iu" else "%.17g"


def _write_csv(path: Path, header: list[str], columns) -> None:
    """Write equal-length columns as a CSV table under ``header``.

    .17g prints every double so that it reads back bit for bit. The rows are
    formatted CSV_BLOCK_ROWS at a time, each block by one ``%`` on its cells,
    so a voxel-wide table is never held as text.
    """
    columns = [np.asarray(c) for c in columns]
    n_rows = min(map(len, columns), default=0)
    line = ",".join(map(_conversion, columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, CSV_BLOCK_ROWS):
            block = zip(*(c[start : start + CSV_BLOCK_ROWS].tolist() for c in columns))
            rows = min(CSV_BLOCK_ROWS, n_rows - start)
            fh.write(line * rows % tuple(itertools.chain.from_iterable(block)))


class _Outputs:
    """A command's output directory and the names of the files written to it.

    Every output file goes through one of the writers, which records its
    name, so the manifest digests exactly the files this run wrote.
    """

    def __init__(self, directory: str):
        self.root = Path(directory)
        self.root.mkdir(parents=True, exist_ok=True)
        self.names: list[str] = []

    def _path(self, name: str) -> Path:
        path = self.root / name
        path.parent.mkdir(exist_ok=True)
        self.names.append(name)
        return path

    def matrix(self, name: str, matrix: DataMatrix) -> None:
        # the module's own name, so a tracer that wraps cli.write_matrix times it
        write_matrix(matrix, self._path(name))

    def csv(self, name: str, header: list[str], columns) -> None:
        _write_csv(self._path(name), header, columns)

    def json(self, name: str, payload: dict) -> None:
        _write_json(self._path(name), payload)

    def manifest(self, **fields) -> None:
        """Write manifest.json: ``fields`` plus the digest of each recorded file."""
        fields["outputs"] = {name: _sha256(self.root / name)
                             for name in sorted(self.names)}
        _write_json(self.root / "manifest.json", fields)


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; route through ConfigError
    # so usage problems map to exit code 1 like other config problems.
    def error(self, message):
        raise ConfigError(message)


def _config_from_args(args) -> PipelineConfig:
    if getattr(args, "config", None):
        config = PipelineConfig.load(args.config)
    else:
        config = PipelineConfig()
    updates = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(config)
        if getattr(args, f.name, None) is not None
    }
    return dataclasses.replace(config, **updates).validate()


def _run_config(args) -> PipelineConfig:
    """The validated config of a command that writes into ``--out``."""
    config = _config_from_args(args)
    if not config.output_dir:
        raise ConfigError("an output directory is required (--out)")
    _blas.thread_cap()  # a malformed CANICA_THREADS fails before any input is read
    return config


def _load_subjects(input_dir: str | None) -> tuple[GroupDataset, dict[str, str]]:
    """Read, digest and standardize each subject file, in name order.

    Each file is read once: its digest comes from the bytes already read,
    and its raw matrix is dropped once standardized, so one copy of each
    subject is held. ``fit_group`` passes standardized series through.
    """
    if not input_dir:
        raise ConfigError("an input directory is required (--input)")
    root = Path(input_dir)
    if not root.exists():
        raise DataError(f"input path {root} does not exist")
    paths = sorted(root.glob(SUBJECT_GLOB)) if root.is_dir() else [root]
    if not paths:
        raise DataError(f"no {SUBJECT_GLOB} files under {root}")
    subjects, digests = [], {}
    for path in paths:
        matrix = read_matrix(path)
        if matrix.row_kind != RowKind.FRAMES:
            raise BadDimension(f"{path}: subject files must contain frame rows")
        digests[path.name] = _cnic_sha256(matrix)
        # through the module global, so a tracer that wraps it times it
        subjects.append(pipeline.standardize(SubjectSeries(path.stem, matrix)))
    return GroupDataset(tuple(subjects)), digests


def cmd_simulate(args) -> int:
    config = _run_config(args)
    if config.n_frames * config.n_voxels > MAX_ELEMENTS:
        raise ConfigError(
            f"n_frames * n_voxels must be at most {MAX_ELEMENTS}, the CNIC1 "
            f"element limit, got {config.n_frames} x {config.n_voxels}"
        )
    outputs = _Outputs(config.output_dir)
    data = simulate_group(
        config.S,
        config.n_frames,
        config.n_voxels,
        config.k_true,
        config.sparsity,
        config.sigma_E,
        config.sigma_R,
        config.seed,
    )
    for i, subject in enumerate(data.dataset.subjects):
        outputs.matrix(f"subject_{i:03d}.cnic", subject.data)
    truth_file = None
    if config.k_true >= 1:
        truth_file = "truth_patterns.cnic"
        outputs.matrix(truth_file, data.truth.group_patterns)
    outputs.manifest(
        command="simulate",
        config=config.to_dict(),
        truth={"k_true": config.k_true, "patterns_file": truth_file},
    )
    print(f"simulate: wrote {config.S} subjects to {outputs.root}")
    return 0


def _write_components(outputs: _Outputs, rows, maps) -> list[dict]:
    """Write one voxel table per component map and return their summaries."""
    summaries = []
    for row, tmap in zip(rows, maps):
        fit = tmap.fit
        outputs.csv(
            f"component_{tmap.component_index:03d}.csv",
            ["voxel", "value", "z", "selected"],
            [np.arange(row.size), row, (row - fit.mu) / fit.sigma, tmap.selected],
        )
        summaries.append(
            {
                "component": tmap.component_index,
                "mu": fit.mu,
                "sigma": fit.sigma,
                "z_threshold": fit.z_threshold,
                "p_two_sided": fit.p_two_sided,
                "n_selected": tmap.n_selected,
            }
        )
    return summaries


def _write_fit_outputs(outputs: _Outputs, result: FitResult) -> dict:
    """Write a fit's tables and matrices and return its manifest summary."""
    for curve, subject_id in zip(result.stability_curves, result.subject_ids):
        if curve is None:
            continue
        outputs.csv(
            f"order_curve_{subject_id}.csv",
            ["order", "data_stability", "null_quantile", "passed"],
            [curve.orders, curve.data_stability, curve.null_quantile, curve.passed],
        )

    summary = {
        "subjects": list(result.subject_ids),
        "selected_orders": list(result.selected_orders),
        "k": result.k,
        "threshold": result.threshold,
        "message": result.message,
    }
    if result.correlations_full is not None:
        z = result.correlations_full
        outputs.csv(
            "scree.csv",
            ["index", "correlation", "correlation_squared", "threshold"],
            [np.arange(z.size), z, z * z, np.full(z.size, result.threshold)],
        )
    if result.subspace is not None and result.k >= 1:
        outputs.matrix("group_patterns.cnic", result.subspace.group_patterns)
        outputs.matrix("loadings.cnic",
                       DataMatrix(result.subspace.loadings, RowKind.PATTERNS))
        summary["correlations"] = result.subspace.canonical_correlations.tolist()
        summary["residual_ss"] = result.subspace.residual_ss
    if result.ica is not None:
        outputs.matrix("components.cnic", result.ica.components)
        outputs.matrix("mixing.cnic", DataMatrix(result.ica.mixing, RowKind.PATTERNS))
        summary["ica"] = {
            "converged": result.ica.converged,
            "n_iterations": result.ica.n_iterations,
            "nonlinearity": result.ica.nonlinearity,
        }
        summary["components"] = _write_components(
            outputs, result.ica.components.values, result.thresholded_maps
        )
    return summary


def cmd_fit(args) -> int:
    config = _run_config(args)
    dataset, input_digests = _load_subjects(config.input_dir)
    outputs = _Outputs(config.output_dir)
    result = fit_group(dataset, config)
    summary = _write_fit_outputs(outputs, result)
    outputs.manifest(
        command="fit", config=config.to_dict(), inputs=input_digests, result=summary
    )
    if result.k == 0:
        print(f"fit: {result.message} (k=0)")
    else:
        print(f"fit: retained k={result.k} components, "
              f"threshold={result.threshold:.4f}")
    return 0


def _report_payload(report) -> dict:
    return {
        "mode": report.mode,
        "e": report.e,
        "t": report.t,
        "d": report.d,
        "matched_pairs": [list(p) for p in report.matching.pairs],
        "max_overlap": report.max_overlap.tolist(),
    }


def cmd_split_half(args) -> int:
    config = _run_config(args)
    # repeat r runs on seed + r, which must stay a distinct 64-bit key
    if config.seed + config.repeats - 1 >= 2**64:
        raise ConfigError(
            f"seed + repeats - 1 must lie below 2**64, got seed {config.seed} "
            f"with {config.repeats} repeats"
        )
    dataset, input_digests = _load_subjects(config.input_dir)
    outputs = _Outputs(config.output_dir)
    repeats = []
    for r in range(config.repeats):
        result = split_half(dataset, seed=config.seed + r, config=config)
        folder = f"repeat_{r:03d}"
        for mode, report in (("raw", result.raw),
                             ("thresholded", result.thresholded)):
            c = report.cross_correlation
            if c.size:
                outputs.matrix(f"{folder}/c_{mode}.cnic", DataMatrix(c, RowKind.PATTERNS))
            counts, edges = overlap_histogram(report)
            outputs.csv(f"{folder}/histogram_{mode}.csv", ["bin_low", "bin_high", "count"],
                        [edges[:-1], edges[1:], counts])
        payload = {
            "half_a": list(result.half_a_ids),
            "half_b": list(result.half_b_ids),
            "k_a": result.fit_a.k,
            "k_b": result.fit_b.k,
            "raw": _report_payload(result.raw),
            "thresholded": _report_payload(result.thresholded),
        }
        outputs.json(f"{folder}/summary.json", payload)
        repeats.append(payload)

    def aggregate(mode):
        es = np.array([rep[mode]["e"] for rep in repeats])
        ts = np.array([rep[mode]["t"] for rep in repeats])
        n = len(repeats)
        sdom = lambda v: float(v.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        return {
            "e_mean": float(es.mean()),
            "e_sdom": sdom(es),
            "t_mean": float(ts.mean()),
            "t_sdom": sdom(ts),
        }

    k_values = sorted(
        set(rep["k_a"] for rep in repeats) | set(rep["k_b"] for rep in repeats)
    )
    k_counts = {
        str(k): sum((rep["k_a"] == k) + (rep["k_b"] == k) for rep in repeats)
        for k in k_values
    }
    summary = {
        "repeats": config.repeats,
        "raw": aggregate("raw"),
        "thresholded": aggregate("thresholded"),
        "component_count_histogram": k_counts,
    }
    outputs.json("aggregate.json", summary)
    outputs.manifest(
        command="split-half", config=config.to_dict(), inputs=input_digests, result=summary
    )
    agg = summary["raw"]
    print(
        f"split-half: {config.repeats} repeats, raw e={agg['e_mean']:.3f} "
        f"({agg['e_sdom']:.3f}), t={agg['t_mean']:.3f} ({agg['t_sdom']:.3f})"
    )
    return 0


def cmd_threshold(args) -> int:
    config = _run_config(args)
    p = config.p_two_sided
    components_path = Path(args.components)
    matrix = read_matrix(components_path)
    outputs = _Outputs(config.output_dir)
    maps = threshold_components(matrix.values, p)
    summaries = _write_components(outputs, matrix.values, maps)
    outputs.manifest(
        command="threshold",
        inputs={components_path.name: _cnic_sha256(matrix)},
        p_two_sided=p,
        components=summaries,
    )
    print(f"threshold: processed {matrix.rows} components at p={p}")
    return 0


def _render_manifest(manifest: dict) -> list[str]:
    command = manifest.get("command", "?")
    lines = [f"command: {command}"]
    if "config" in manifest:
        config = manifest["config"]
        lines.append(f"seed: {config.get('seed')}")
    result = manifest.get("result", {})
    if command == "fit":
        lines.append(f"subjects: {len(result.get('subjects', []))}")
        lines.append(f"selected orders: {result.get('selected_orders')}")
        lines.append(f"k: {result.get('k')}")
        lines.append(f"threshold: {result.get('threshold')}")
        if result.get("message"):
            lines.append(f"note: {result['message']}")
        for comp in result.get("components", []):
            lines.append(
                f"  component {comp['component']}: "
                f"n_selected={comp['n_selected']} "
                f"(mu={comp['mu']:.4f}, sigma={comp['sigma']:.4f})"
            )
    elif command == "split-half":
        for mode in ("raw", "thresholded"):
            agg = result.get(mode, {})
            lines.append(
                f"{mode}: e={agg.get('e_mean'):.3f} ({agg.get('e_sdom'):.3f}) "
                f"t={agg.get('t_mean'):.3f} ({agg.get('t_sdom'):.3f})"
            )
        lines.append(f"component counts: {result.get('component_count_histogram')}")
    elif command in ("simulate", "threshold"):
        for name in sorted(manifest.get("outputs", {})):
            lines.append(f"  output: {name}")
    return lines


def cmd_report(args) -> int:
    path = Path(args.manifest)
    if not path.exists():
        raise DataError(f"manifest {path} does not exist")
    try:
        manifest = json.loads(path.read_text())
    # JSONDecodeError, UnicodeDecodeError and the integer digit limit are
    # all ValueErrors; deeply nested arrays exhaust the recursion limit.
    except (ValueError, RecursionError) as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: manifest must be a JSON object")
    # A manifest is outside input: a missing key, or a value of the wrong
    # type or size or one stdout cannot encode, is a data error.
    try:
        print("\n".join(_render_manifest(manifest)))
    except (AttributeError, LookupError, TypeError, ValueError, ArithmeticError,
            RecursionError) as exc:
        raise DataError(f"{path}: malformed manifest: {exc!r}") from exc
    return 0


def _add_config_flags(sub, command: str) -> None:
    for f in dataclasses.fields(PipelineConfig):
        meta = f.metadata
        if command in meta["commands"]:
            sub.add_argument(
                meta["flag"],
                dest=f.name,
                type=field_types(f)[0],
                choices=meta["rule"].choices if meta["rule"] else None,
                help=meta["help"],
            )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="canica", description=__doc__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    for command, text, func in (
        ("simulate", "write a synthetic dataset", cmd_simulate),
        ("fit", "run the full estimation pipeline", cmd_fit),
        ("split-half", "repeated split-half analyses", cmd_split_half),
    ):
        run = subs.add_parser(command, help=text)
        run.add_argument("--config", help="JSON config file; flags override it")
        _add_config_flags(run, command)
        run.set_defaults(func=func)

    thr = subs.add_parser("threshold", help="re-threshold a component matrix")
    thr.add_argument("--components", required=True, help="CNIC1 component file")
    _add_config_flags(thr, "threshold")
    thr.set_defaults(func=cmd_threshold)

    rep = subs.add_parser("report", help="render a manifest summary")
    rep.add_argument("--manifest", required=True)
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    subcommand = "cli"
    try:
        args = parser.parse_args(argv)
        subcommand = args.subcommand
        return args.func(args)
    except ConfigError as exc:
        print(f"error [{subcommand}/config]: {exc}", file=sys.stderr)
        return 1
    except CanicaError as exc:
        print(f"error [{subcommand}]: {exc}", file=sys.stderr)
        return exit_code(exc)
    except OSError as exc:
        print(f"error [{subcommand}/io]: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        message = str(exc) or "out of memory"
        print(f"error [{subcommand}/memory]: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
