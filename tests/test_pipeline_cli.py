import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import canica
from canica import (
    DataMatrix,
    GroupDataset,
    PipelineConfig,
    RowKind,
    SubjectSeries,
    fit_group,
    read_matrix,
    simulate_group,
    split_half,
    standardize,
    write_matrix,
)
from canica import pipeline
from canica._blas import worker_count
from canica import cli
from canica.cli import _sha256, _write_csv, main
from canica.errors import ConfigError
from canica.pipeline import NO_SUBSPACE_MESSAGE
from canica.streams import substream
from conftest import decompositions_of, fit_bytes, reference_csv, truth_in_standardized_space


def run_cli(*argv) -> int:
    return main(list(argv))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
CONFIG_LIKE = st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(PipelineConfig)])
    | st.text(max_size=4),
    JSON_VALUES,
    max_size=4,
)
MANIFEST_LIKE = st.fixed_dictionaries(
    {"command": st.sampled_from(["fit", "split-half", "simulate", "threshold"])},
    optional={
        "config": JSON_VALUES,
        "outputs": JSON_VALUES,
        "result": st.dictionaries(
            st.sampled_from(["subjects", "components", "raw", "thresholded", "message"]),
            JSON_VALUES,
            max_size=3,
        ),
    },
)


def tree_digest(root: Path) -> dict:
    import hashlib

    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestPipelineConfig:
    def test_round_trip(self, tmp_path):
        config = PipelineConfig(S=5, sigma_E=0.25, fixed_order=7, seed=11)
        path = tmp_path / "config.json"
        config.save(path)
        assert PipelineConfig.load(path) == config

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"bogus": 1}')
        with pytest.raises(ConfigError):
            PipelineConfig.load(path)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("cca_alpha", 0.0),
            ("cca_alpha", 1.0),
            ("order_quantile", 2.0),
            ("p_two_sided", -0.1),
            ("S", 0),
            ("sparsity", 0.0),
            ("ica_nonlinearity", "tanh"),
            ("fixed_order", 0),
            ("seed", "7"),
            ("sparsity", "x"),
            ("fixed_order", "3"),
            ("ica_tol", "1e-6"),
            ("sigma_E", None),
            ("seed", 1.5),
            ("seed", 1e400),
            ("input_dir", 5),
            ("k_true", 1.5),
            ("S", True),
            ("repeats", True),
            ("seed", 2**64),
            ("order_n_boot", 19),
            ("cca_n_boot", 5),
        ],
    )
    def test_validation(self, field, value):
        with pytest.raises(ConfigError):
            PipelineConfig(**{field: value}).validate()

    @settings(max_examples=60)
    @given(value=JSON_VALUES | CONFIG_LIKE | st.binary(max_size=16))
    @example(value=b"\xff\xfe{")
    def test_any_config_file_is_validated_or_rejected(self, tmp_path, value):
        path = tmp_path / "config.json"
        attempts = [lambda: PipelineConfig.load(path)]
        if isinstance(value, bytes):
            path.write_bytes(value)
        else:
            path.write_text(json.dumps(value))
            attempts.append(lambda: PipelineConfig.from_dict(value))
        for attempt in attempts:
            try:
                config = attempt()
            except ConfigError:
                continue
            config.save(tmp_path / "saved.json")
            assert PipelineConfig.load(tmp_path / "saved.json") == config


THREADS_DATA = simulate_group(4, 40, 200, 2, 0.3, 0.3, 0.05, seed=11)
THREADS_CONFIG = PipelineConfig(max_order=5, order_n_boot=20, cca_n_boot=20, seed=11)


@pytest.fixture(scope="module")
def serial_fit():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("CANICA_THREADS", "1")
        result = fit_group(THREADS_DATA.dataset, THREADS_CONFIG)
    assert result.k >= 1
    return result


class TestFitGroup:
    def test_recovers_planted_sources(self):
        gains = np.linspace(2.0, 1.0, 3)
        data = simulate_group(
            6, 100, 600, 3, 0.2, 0.3, 0.05, seed=5, pattern_gains=gains
        )
        config = PipelineConfig(fixed_order=6, cca_n_boot=30, seed=5)
        result = fit_group(data.dataset, config)
        assert result.k == 3
        truth = truth_in_standardized_space(data)
        overlap = np.abs(result.ica.components.values @ truth.T)
        # every true source matched by one component
        assert overlap.max(axis=0).min() > 0.95

    def test_pure_noise_reports_no_subspace(self):
        data = simulate_group(5, 60, 400, 0, 0.2, 1.0, 0.0, seed=6)
        config = PipelineConfig(fixed_order=5, cca_n_boot=25, seed=6)
        result = fit_group(data.dataset, config)
        assert result.k == 0
        assert result.message == NO_SUBSPACE_MESSAGE
        assert result.ica is None

    def test_order_selection_path(self):
        gains = np.linspace(2.2, 1.2, 2)
        data = simulate_group(
            4, 80, 400, 2, 0.3, 0.3, 0.02, seed=7, pattern_gains=gains
        )
        config = PipelineConfig(
            max_order=8, order_n_boot=25, cca_n_boot=25, seed=7
        )
        result = fit_group(data.dataset, config)
        assert result.selected_orders == (2, 2, 2, 2)
        assert result.stability_curves[0] is not None
        assert result.k == 2

    def test_fixed_order_above_rank_reports_the_rank(self):
        # standardized 24-frame subjects span 23 directions
        data = simulate_group(4, 24, 300, 2, 0.3, 0.3, 0.05, seed=10)
        config = PipelineConfig(fixed_order=30, cca_n_boot=20, seed=10)
        result = fit_group(data.dataset, config)
        assert result.selected_orders == (23, 23, 23, 23)

    def test_full_rank_reduction_leaves_no_noise_to_calibrate(self):
        # order 30 keeps all 23 directions; the residual is rounding (~1e-13)
        data = simulate_group(4, 24, 300, 2, 0.3, 0.3, 0.05, seed=10)
        config = PipelineConfig(fixed_order=30, cca_n_boot=20, seed=10)
        result = fit_group(data.dataset, config)
        assert result.k == 0
        assert result.threshold is None
        assert result.message == (
            f"{NO_SUBSPACE_MESSAGE}: subject 'subject_000' "
            "has no noise residual to calibrate the threshold"
        )

    def test_fixed_order_leaves_out_a_constant_subject(self):
        # a constant subject standardizes to zeros: rank 0, so no reduction
        data = simulate_group(6, 40, 600, 3, 0.05, 0.5, 0.1, seed=3)
        subjects = list(data.dataset.subjects)
        subjects[2] = SubjectSeries(
            "subject_002", DataMatrix(np.full((40, 600), 7.0), RowKind.FRAMES))
        config = PipelineConfig(fixed_order=3, max_order=10, order_n_boot=30,
                                cca_n_boot=30, seed=1)
        result = fit_group(GroupDataset(tuple(subjects)), config)
        assert result.selected_orders[2] == 0
        assert result.k == 3

    def test_a_fit_forms_each_subject_gram_once(self, gram_formations):
        gains = np.linspace(2.2, 1.2, 2)
        data = simulate_group(
            4, 80, 400, 2, 0.3, 0.3, 0.02, seed=7, pattern_gains=gains
        )
        config = PipelineConfig(max_order=8, order_n_boot=25, cca_n_boot=25, seed=7)
        result = fit_group(data.dataset, config)
        assert result.selected_orders == (2, 2, 2, 2)
        assert len(gram_formations) == 4

    def test_a_fit_decomposes_each_subject_gram_once(self, gram_decompositions):
        gains = np.linspace(2.2, 1.2, 2)
        data = simulate_group(
            4, 80, 400, 2, 0.3, 0.3, 0.02, seed=7, pattern_gains=gains
        )
        standardized = GroupDataset(tuple(map(standardize, data.dataset.subjects)))
        config = PipelineConfig(max_order=8, order_n_boot=25, cca_n_boot=25, seed=7)
        result = fit_group(standardized, config)
        assert result.selected_orders == (2, 2, 2, 2)
        matrices = [s.data for s in standardized.subjects]
        assert decompositions_of(matrices, gram_decompositions) == [1, 1, 1, 1]

    def test_a_refit_reads_the_grams_of_the_first_fit(self, gram_formations):
        data = simulate_group(6, 40, 400, 2, 0.2, 0.3, 0.05, seed=11)
        standardized = GroupDataset(tuple(map(standardize, data.dataset.subjects)))
        config = PipelineConfig(max_order=6, order_n_boot=20, cca_n_boot=20, seed=11)
        fits = [fit_group(standardized, config) for _ in range(2)]
        assert fits[0].k >= 1
        assert fit_bytes(fits[0]) == fit_bytes(fits[1])
        assert len(gram_formations) == 6

    @given(threads=st.integers(1, 8))
    @settings(max_examples=6)
    def test_any_thread_cap_gives_identical_results(self, monkeypatch, serial_fit,
                                                    threads):
        # order selection, not a fixed order, so the pinned pool's bootstrap runs
        monkeypatch.setenv("CANICA_THREADS", str(threads))
        result = fit_group(THREADS_DATA.dataset, THREADS_CONFIG)
        assert result.selected_orders == serial_fit.selected_orders
        assert result.threshold == serial_fit.threshold
        assert (
            result.ica.components.values.tobytes()
            == serial_fit.ica.components.values.tobytes()
        )

    def test_thread_count_does_not_change_result(self, monkeypatch):
        data = simulate_group(4, 60, 300, 2, 0.3, 0.2, 0.02, seed=8)
        config = PipelineConfig(fixed_order=4, cca_n_boot=25, seed=8)
        monkeypatch.setenv("CANICA_THREADS", "1")
        serial = fit_group(data.dataset, config)
        monkeypatch.setenv("CANICA_THREADS", "4")
        threaded = fit_group(data.dataset, config)
        assert serial.k >= 1
        assert fit_bytes(serial) == fit_bytes(threaded)

    def test_a_standardized_dataset_fits_as_the_raw_one(self):
        data = simulate_group(6, 40, 400, 2, 0.2, 0.3, 0.05, seed=11)
        raw = data.dataset
        standardized = GroupDataset(tuple(map(standardize, raw.subjects)))
        config = PipelineConfig(fixed_order=4, cca_n_boot=20, seed=11)
        fits = [fit_group(d, config) for d in (raw, standardized)]
        assert fits[0].k >= 1
        assert fit_bytes(fits[0]) == fit_bytes(fits[1])
        halves = [split_half(d, seed=11, config=config) for d in (raw, standardized)]
        for side in ("fit_a", "fit_b"):
            assert fit_bytes(getattr(halves[0], side)) == fit_bytes(getattr(halves[1], side))

    def test_bad_thread_env_rejected(self, monkeypatch):
        monkeypatch.setenv("CANICA_THREADS", "many")
        with pytest.raises(ConfigError):
            worker_count(4)


class TestCli:
    def simulate_args(self, out, seed=9, subjects=5, k_true=2):
        return [
            "simulate", "--out", str(out), "--subjects", str(subjects),
            "--frames", "60", "--voxels", "300", "--k-true", str(k_true),
            "--sparsity", "0.3", "--sigma-e", "0.3", "--sigma-r", "0.05",
            "--seed", str(seed),
        ]

    def test_importing_the_cli_loads_no_scipy(self):
        path = [str(Path(canica.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        code = ("import sys, canica.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        assert out.stdout.strip() == "[]"

    def test_split_half_runs_with_scipy_blocked(self, tmp_path):
        sim, blocked, unblocked = (tmp_path / n for n in ("sim", "blocked", "unblocked"))
        run_cli(*self.simulate_args(sim, subjects=6))
        argv = ["split-half", "--input", str(sim), "--repeats", "2",
                "--order-boots", "25", "--cca-boots", "25"]
        assert run_cli(*argv, "--out", str(unblocked)) == 0
        path = [str(Path(canica.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
        code = textwrap.dedent("""
            import importlib.abc, json, sys

            class RefuseScipy(importlib.abc.MetaPathFinder):
                def find_spec(self, name, path=None, target=None):
                    if name.startswith("scipy"):
                        raise ImportError(f"{name} is refused")
                    return None

            sys.meta_path.insert(0, RefuseScipy())
            from canica.cli import main
            code = main(sys.argv[1:])
            print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("scipy"))]))
        """)
        out = subprocess.run([sys.executable, "-c", code, *argv, "--out", str(blocked)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout.splitlines()[-1]) == [0, []]
        outputs = [json.loads((d / "manifest.json").read_text())["outputs"]
                   for d in (blocked, unblocked)]
        assert outputs[0] == outputs[1]

    def test_simulate_writes_files_and_rerun_identical(self, tmp_path):
        out = tmp_path / "sim"
        assert run_cli(*self.simulate_args(out)) == 0
        first = tree_digest(out)
        assert len([n for n in first if n.startswith("subject_")]) == 5
        assert "truth_patterns.cnic" in first
        assert run_cli(*self.simulate_args(out)) == 0
        assert tree_digest(out) == first

    def test_simulate_pure_noise_has_no_truth_file(self, tmp_path):
        out = tmp_path / "noise"
        assert run_cli(*self.simulate_args(out, k_true=0)) == 0
        assert not (out / "truth_patterns.cnic").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["truth"]["patterns_file"] is None

    def test_fit_end_to_end(self, tmp_path):
        sim = tmp_path / "sim"
        fit = tmp_path / "fit"
        run_cli(*self.simulate_args(sim))
        code = run_cli(
            "fit", "--input", str(sim), "--out", str(fit),
            "--fixed-order", "5", "--cca-boots", "25", "--seed", "9",
        )
        assert code == 0
        manifest = json.loads((fit / "manifest.json").read_text())
        assert manifest["result"]["k"] >= 1
        assert manifest["result"]["ica"]["converged"]
        components = read_matrix(fit / "components.cnic")
        assert components.cols == 300
        truth = read_matrix(sim / "truth_patterns.cnic").values
        stacked = np.vstack(
            [read_matrix(p).values for p in sorted(sim.glob("subject_*.cnic"))]
        )
        scaled = truth / stacked.std(axis=0, ddof=1)
        scaled /= np.linalg.norm(scaled, axis=1, keepdims=True)
        overlap = np.abs(components.values @ scaled.T)
        assert overlap.max(axis=0).min() > 0.9

    def test_manifest_digests_exactly_the_files_written(self, tmp_path):
        sim, fit, split, thr = (tmp_path / n for n in ("sim", "fit", "split", "thr"))
        commands = {
            sim: self.simulate_args(sim, subjects=6),
            fit: ["fit", "--input", str(sim), "--out", str(fit), "--max-order", "6",
                  "--order-boots", "20", "--cca-boots", "20", "--seed", "9"],
            split: ["split-half", "--input", str(sim), "--out", str(split),
                    "--fixed-order", "4", "--cca-boots", "20", "--repeats", "2"],
            thr: ["threshold", "--components", str(fit / "components.cnic"),
                  "--out", str(thr)],
        }
        for out, argv in commands.items():
            assert run_cli(*argv) == 0
            written = tree_digest(out)
            del written["manifest.json"]
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["outputs"] == written
        names = {name for out in commands for name in tree_digest(out)}
        assert {"order_curve_subject_000.csv", "scree.csv", "component_000.csv",
                "repeat_001/summary.json", "truth_patterns.cnic"} <= names

    def test_manifest_input_digests_are_the_file_digests(self, tmp_path):
        sim, fit, split, thr = (tmp_path / n for n in ("sim", "fit", "split", "thr"))
        run_cli(*self.simulate_args(sim))
        # a negative zero must digest as its own bytes, not as 0.0
        path = sim / "subject_004.cnic"
        values = read_matrix(path).values.copy()
        values[::3, ::2] = -0.0
        write_matrix(DataMatrix(values, RowKind.FRAMES), path)
        assert run_cli("fit", "--input", str(sim), "--out", str(fit),
                       "--fixed-order", "4", "--cca-boots", "20") == 0
        assert run_cli("split-half", "--input", str(sim), "--out", str(split),
                       "--fixed-order", "4", "--cca-boots", "20") == 0
        files = {p.name: _sha256(p) for p in sorted(sim.glob("subject_*.cnic"))}
        for out in (fit, split):
            assert json.loads((out / "manifest.json").read_text())["inputs"] == files
        components = fit / "components.cnic"
        assert run_cli("threshold", "--components", str(components),
                       "--out", str(thr)) == 0
        inputs = json.loads((thr / "manifest.json").read_text())["inputs"]
        assert inputs == {"components.cnic": _sha256(components)}

    def test_fit_holds_one_copy_of_each_subject(self, tmp_path):
        data = simulate_group(12, 24, 4000, 10, 0.05, 0.5, 0.1, seed=0)
        sim = tmp_path / "sim"
        sim.mkdir()
        for i, subject in enumerate(data.dataset.subjects):
            write_matrix(subject.data, sim / f"subject_{i:03d}.cnic")
        copy = sum(s.data.values.nbytes for s in data.dataset.subjects)
        del data
        tracemalloc.start()
        try:
            assert run_cli("fit", "--input", str(sim), "--out", str(tmp_path / "fit"),
                           "--fixed-order", "10") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the standardized subjects, and less than half a copy of anything else
        assert peak < 1.5 * copy

    def test_fit_rerun_same_outdir_byte_identical(self, tmp_path):
        sim = tmp_path / "sim"
        fit = tmp_path / "fit"
        run_cli(*self.simulate_args(sim))
        args = ["fit", "--input", str(sim), "--out", str(fit),
                "--fixed-order", "4", "--cca-boots", "25", "--seed", "1"]
        assert run_cli(*args) == 0
        first = tree_digest(fit)
        assert run_cli(*args) == 0
        assert tree_digest(fit) == first

    def test_fit_pure_noise_exits_zero_with_note(self, tmp_path, capsys):
        sim = tmp_path / "noise"
        fit = tmp_path / "fit"
        run_cli(*self.simulate_args(sim, k_true=0, subjects=4))
        code = run_cli(
            "fit", "--input", str(sim), "--out", str(fit),
            "--fixed-order", "5", "--cca-boots", "25", "--seed", "2",
        )
        assert code == 0
        assert NO_SUBSPACE_MESSAGE in capsys.readouterr().out
        manifest = json.loads((fit / "manifest.json").read_text())
        assert manifest["result"]["k"] == 0

    def test_fit_missing_input_is_data_error(self, tmp_path, capsys):
        code = run_cli(
            "fit", "--input", str(tmp_path / "nope"), "--out",
            str(tmp_path / "fit"),
        )
        assert code == 2
        assert "error [fit]" in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        assert run_cli("fit", "--badflag") == 1
        assert "error [cli/config]" in capsys.readouterr().err

    def test_bad_config_file_exit_code(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"cca_alpha": 2.0}')
        code = run_cli(
            "fit", "--config", str(config), "--input", str(tmp_path),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1

    @pytest.mark.parametrize(
        "flags", [("--cca-boots", "5"), ("--fixed-order", "3", "--order-boots", "10")]
    )
    def test_too_few_boots_rejected_before_the_inputs_are_read(self, tmp_path, capsys,
                                                              flags):
        # the input does not exist: reading it first would exit 2
        out = tmp_path / "fit"
        code = run_cli("fit", "--input", str(tmp_path / "nope"), "--out", str(out),
                       *flags)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [fit/config]: ") and err.count("\n") == 1
        assert "must be at least 20" in err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["many", "0"])
    def test_bad_thread_env_rejected_before_the_inputs_are_read(self, tmp_path, capsys,
                                                               monkeypatch, threads):
        data = tmp_path / "data"
        assert run_cli(*self.simulate_args(data)) == 0
        capsys.readouterr()
        monkeypatch.setenv("CANICA_THREADS", threads)
        out = tmp_path / "fit"
        assert run_cli("fit", "--input", str(data), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error [fit/config]: CANICA_THREADS must be ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("name", ["nope.json", "."])
    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys, name):
        code = run_cli(
            "fit", "--config", str(tmp_path / name), "--input", str(tmp_path),
            "--out", str(tmp_path / "o"),
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [fit/config]: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "seed,repeats,code",
        [(2**64 - 1, 2, 1), (2**64 - 3, 4, 1), (2**64 - 1, 1, 2), (2**64 - 3, 3, 2)],
    )
    def test_split_half_seeds_stay_below_2_to_64(self, tmp_path, capsys, seed,
                                                 repeats, code):
        # a config that passes the check fails later on the empty input (exit 2)
        out = tmp_path / "sh"
        assert run_cli(
            "split-half", "--input", str(tmp_path), "--out", str(out),
            "--seed", str(seed), "--repeats", str(repeats),
        ) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        if code == 1:
            assert err.startswith("error [split-half/config]: seed + repeats - 1")
        assert not out.exists()

    def test_simulate_rejects_shapes_beyond_the_element_limit(self, tmp_path, capsys):
        out = tmp_path / "huge"
        code = run_cli(
            "simulate", "--out", str(out), "--subjects", "1", "--frames", "20",
            "--k-true", "2", "--voxels", "1000000000000000",
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [simulate/config]: ") and err.count("\n") == 1
        assert not out.exists()

    def test_out_of_memory_is_a_one_line_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("canica.cli.simulate_group", exhausted)
        assert run_cli(*self.simulate_args(tmp_path / "sim")) == 2
        assert capsys.readouterr().err == "error [simulate/memory]: out of memory\n"

    def test_flags_override_config_file(self, tmp_path):
        config_path = tmp_path / "c.json"
        PipelineConfig(seed=1, S=3).save(config_path)
        out = tmp_path / "sim"
        code = run_cli(
            "simulate", "--config", str(config_path), "--out", str(out),
            "--subjects", "2", "--frames", "40", "--voxels", "200",
            "--k-true", "1", "--seed", "4",
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["S"] == 2
        assert manifest["config"]["seed"] == 4

    def test_simulate_accepts_paper_scale_shapes(self, tmp_path):
        out = tmp_path / "big"
        code = run_cli(
            "simulate", "--out", str(out), "--subjects", "1",
            "--frames", "820", "--voxels", "40000", "--k-true", "2",
            "--sparsity", "0.01", "--seed", "0",
        )
        assert code == 0
        matrix = read_matrix(out / "subject_000.cnic")
        assert (matrix.rows, matrix.cols) == (820, 40000)

    def test_threshold_standalone(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((2, 4000))
        rows[0, :5] = 30.0
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        comp_file = tmp_path / "a.cnic"
        write_matrix(DataMatrix(rows, RowKind.COMPONENTS), comp_file)
        out = tmp_path / "thr"
        code = run_cli(
            "threshold", "--components", str(comp_file), "--out", str(out),
            "--p-value", "0.001",
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["components"][0]["n_selected"] >= 5
        assert (out / "component_000.csv").exists()

    def test_threshold_of_fit_components_reproduces_the_fit_maps(self, tmp_path):
        sim, fit, thr = (tmp_path / n for n in ("sim", "fit", "thr"))
        assert run_cli(*self.simulate_args(sim)) == 0
        assert run_cli("fit", "--input", str(sim), "--out", str(fit), "--fixed-order",
                       "4", "--cca-boots", "25", "--seed", "9", "--p-value", "0.01") == 0
        assert run_cli("threshold", "--components", str(fit / "components.cnic"),
                       "--out", str(thr), "--p-value", "0.01") == 0
        fit_manifest = json.loads((fit / "manifest.json").read_text())
        thr_manifest = json.loads((thr / "manifest.json").read_text())
        assert fit_manifest["result"]["k"] >= 1
        assert thr_manifest["components"] == fit_manifest["result"]["components"]
        tables = sorted(p.name for p in fit.glob("component_*.csv"))
        assert len(tables) == fit_manifest["result"]["k"]
        assert sorted(p.name for p in thr.glob("component_*.csv")) == tables
        for name in tables:
            assert (thr / name).read_bytes() == (fit / name).read_bytes()

    def test_threshold_checks_the_p_value_before_reading_components(self, tmp_path,
                                                                    capsys):
        out = tmp_path / "thr"
        code = run_cli("threshold", "--components", str(tmp_path / "nope.cnic"),
                       "--out", str(out), "--p-value", "2")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error [threshold/config]: ") and err.count("\n") == 1
        assert not out.exists()

    def test_split_half_repeats_and_aggregate(self, tmp_path):
        sim = tmp_path / "sim"
        out = tmp_path / "sh"
        run_cli(*self.simulate_args(sim, subjects=6))
        code = run_cli(
            "split-half", "--input", str(sim), "--out", str(out),
            "--fixed-order", "4", "--cca-boots", "25", "--repeats", "2",
            "--seed", "3",
        )
        assert code == 0
        agg = json.loads((out / "aggregate.json").read_text())
        assert set(agg["raw"]) == {"e_mean", "e_sdom", "t_mean", "t_sdom"}
        assert (out / "repeat_001" / "summary.json").exists()
        assert (out / "repeat_000" / "histogram_raw.csv").exists()

    def test_split_half_deterministic(self, tmp_path):
        sim = tmp_path / "sim"
        run_cli(*self.simulate_args(sim, subjects=6))

        def run_into(out):
            assert run_cli(
                "split-half", "--input", str(sim), "--out", str(out),
                "--fixed-order", "4", "--cca-boots", "25", "--repeats", "1",
                "--seed", "3",
            ) == 0
            return {k: v for k, v in tree_digest(out).items()
                    if k != "manifest.json"}

        assert run_into(tmp_path / "sh1") == run_into(tmp_path / "sh2")

    def test_help_lists_the_same_options(self, capsys):
        common = {"-h", "--help", "--config", "--seed", "--out"}
        fit = common | {
            "--input", "--max-order", "--order-boots", "--order-quantile",
            "--fixed-order", "--cca-boots", "--alpha", "--nonlinearity", "--tol",
            "--max-iter", "--restarts", "--p-value",
        }
        expected = {
            "simulate": common | {
                "--subjects", "--frames", "--voxels", "--k-true", "--sparsity",
                "--sigma-e", "--sigma-r",
            },
            "fit": fit,
            "split-half": fit | {"--repeats"},
            "threshold": {"-h", "--help", "--components", "--p-value", "--out"},
        }
        for command, options in expected.items():
            with pytest.raises(SystemExit):
                run_cli(command, "--help")
            text = capsys.readouterr().out
            assert set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", text)) == options

    @settings(max_examples=60)
    @given(value=JSON_VALUES | MANIFEST_LIKE | st.binary(max_size=16))
    @example(value=[])
    @example(value={"command": "split-half", "result": {}})
    @example(value={"command": "fit",
                    "result": {"components": [{"component": 0, "mu": 0.0, "sigma": 1.0}]}})
    @example(value=b"\xff\xfe{")
    def test_any_manifest_renders_or_is_a_data_error(self, tmp_path, capsys, value):
        path = tmp_path / "manifest.json"
        if isinstance(value, bytes):
            path.write_bytes(value)
        else:
            path.write_text(json.dumps(value))
        capsys.readouterr()
        code = run_cli("report", "--manifest", str(path))
        err = capsys.readouterr().err
        assert code in (0, 2)
        if code == 2:
            assert err.startswith("error [report]: ") and err.count("\n") == 1

    def test_report_renders_fit_manifest(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        fit = tmp_path / "fit"
        run_cli(*self.simulate_args(sim, subjects=4))
        run_cli(
            "fit", "--input", str(sim), "--out", str(fit),
            "--fixed-order", "4", "--cca-boots", "25", "--seed", "2",
        )
        capsys.readouterr()
        assert run_cli("report", "--manifest", str(fit / "manifest.json")) == 0
        rendered = capsys.readouterr().out
        assert "k:" in rendered and "selected orders" in rendered


class TestCsvWriter:
    # the per-cell writer was given integer and boolean columns as Python values
    INT_LIKE = [
        [0, 1, -7, 2**53 + 1, 2**62 + 3],
        np.array([0, 1, -7, 2**53 + 1, 2**62 + 3]),
        np.array([3, 4, 5, 6, 7], dtype=np.uint8),
        [True, False, True, True, False],
        np.array([False, True, False, False, True]),
    ]
    FLOATS = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, -1 / 3]
    FLOAT_LIKE = [FLOATS, np.array(FLOATS), np.array([1.0, 2.0, -0.0, 1e-300, 7.0])]

    def test_column_writer_matches_the_per_cell_writer(self, tmp_path):
        for ints in self.INT_LIKE:
            for floats in self.FLOAT_LIKE:
                columns = [ints, floats, floats]
                _write_csv(tmp_path / "new.csv", ["i", "x", "y"], columns)
                cells = [np.asarray(ints).tolist(), floats, floats]
                reference_csv(tmp_path / "old.csv", ["i", "x", "y"], zip(*cells))
                assert ((tmp_path / "new.csv").read_bytes()
                        == (tmp_path / "old.csv").read_bytes())

    @settings(max_examples=200)
    @given(values=arrays(np.float64, st.integers(0, 40),
                         elements=st.floats(width=64)))
    def test_any_float_column_writes_as_the_per_cell_writer(self, tmp_path, values):
        _write_csv(tmp_path / "new.csv", ["index", "value"],
                   [np.arange(values.size), values])
        reference_csv(tmp_path / "old.csv", ["index", "value"],
                      zip(range(values.size), values))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("block_rows", [1, 3, 7, 40, 41])
    def test_rows_split_across_blocks_write_as_the_per_cell_writer(
        self, tmp_path, monkeypatch, block_rows
    ):
        monkeypatch.setattr(cli, "CSV_BLOCK_ROWS", block_rows)
        values = substream(block_rows, 0xC5).standard_normal(40)
        for n in (0, 1, 40):
            _write_csv(tmp_path / "new.csv", ["index", "value", "positive"],
                       [np.arange(n), values[:n], values[:n] > 0])
            reference_csv(tmp_path / "old.csv", ["index", "value", "positive"],
                          zip(range(n), values[:n], (values[:n] > 0).tolist()))
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_streamed_digest_equals_the_whole_file_digest(tmp_path):
    path = tmp_path / "data.bin"
    path.write_bytes(substream(0, 0xC6).bytes(2 * cli.HASH_BLOCK + 17))
    assert _sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()
