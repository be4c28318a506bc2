"""Benchmark runner: time canica commands end to end, check their outputs.

Usage, from the root of a canica checkout::

    python3 -m perfbench --workload fit-ref --seed 1 --seconds 30 --trace 0

Set-up writes the workload's dataset with ``canica simulate`` (several
times, to time it). The benchmark then runs the workload's command as a child
process, one invocation after another (a closed loop with one client),
until the next one would end after ``--seconds``. The children keep the
caller's environment: no thread count is set. Wall time is taken here, CPU
time and peak RSS from ``os.wait4``. Every invocation's outputs are checked.

With ``--trace 1`` the last invocation runs in-process under
``perfbench.traced`` and the run reports per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import numpy as np

from perfbench.tracing import layer_metrics

WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 3
MIN_INVOCATIONS = 3
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
MIN_RECOVERY_CORR = 0.8
THREAD_VARS = ("CANICA_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One dataset shape and the canica command run on it."""

    name: str
    subjects: int
    frames: int
    voxels: int
    k_true: int
    command: tuple[str, ...]  # canica subcommand and its flags

    @property
    def kind(self):
        return self.command[0]


# Shapes are scaled so that one invocation takes a few seconds on a 2-core
# machine; see README.md for why each workload exists.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("fit-ref", 12, 60, 1000, 10, ("fit",)),
        Workload("fit-wide", 12, 24, 40000, 10, ("fit", "--fixed-order", "10")),
        Workload("split-half", 12, 60, 1000, 10,
                 ("split-half", "--repeats", "4", "--order-boots", "25",
                  "--cca-boots", "25")),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "match_corr": "corr",
}


class SetupError(Exception):
    """The dataset could not be made; the run reports no result."""


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    out: Path
    failure: str | None = None


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_cnic(path: Path) -> np.ndarray:
    """Matrix payload of a CNIC1 file (22-byte header, little-endian f64)."""
    blob = path.read_bytes()
    if blob[:4] != b"CNIC" or len(blob) < 22:
        raise ValueError(f"{path}: not a CNIC1 file")
    rows = int.from_bytes(blob[5:13], "little")
    cols = int.from_bytes(blob[13:21], "little")
    return np.frombuffer(blob, "<f8", offset=22).reshape(rows, cols)


def standardized_truth(data: Path) -> np.ndarray:
    """Planted patterns as they appear after canica's per-voxel standardization.

    The fit standardizes every voxel, so its components live in rescaled
    space: the truth is divided by the pooled per-voxel standard deviation.
    """
    truth = read_cnic(data / "truth_patterns.cnic")
    stacked = np.vstack([read_cnic(p) for p in sorted(data.glob("subject_*.cnic"))])
    std = stacked.std(axis=0, ddof=1)
    return truth / np.where(std > 0, std, 1.0)


def recovery_corr(components: np.ndarray, truth: np.ndarray) -> float:
    """Mean over truth patterns of the best |Pearson corr| with a component."""
    def unit_rows(m):
        c = m - m.mean(axis=1, keepdims=True)
        return c / np.linalg.norm(c, axis=1, keepdims=True)

    corr = np.abs(unit_rows(truth) @ unit_rows(components).T)
    return float(corr.max(axis=1).mean())


def tail_percentile(samples):
    """Highest of p50/p90/p99/p99.9 with at least 10 samples above it.

    Returns ``(percentile, value)``, or None when there are too few samples.
    """
    best = None
    for permille in (500, 900, 990, 999):
        if len(samples) * (1000 - permille) >= 10 * 1000:
            p = permille / 10
            best = (p, float(np.percentile(samples, p)))
    return best


def environment_record():
    """Machine, library versions and thread settings of this run."""
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **{var: os.environ.get(var, "unset") for var in THREAD_VARS},
    }


def run_child(args, env, log: Path, timeout: float):
    """Run one child to completion; return (wall_s, cpu_s, rss_mb, exit code)."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=fh, stderr=subprocess.STDOUT, env=env)
        watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    # reaped by os.wait4 above; record it so Popen does not wait again
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode


class Run:
    """State of one benchmark run of one workload in one checkout."""

    def __init__(self, root: Path, workload: Workload, seed: int, work: Path):
        src = root / "src"
        if not (src / "canica" / "cli.py").is_file():
            raise SetupError(f"no canica sources under {src}")
        self.workload = workload
        self.seed = seed
        self.work = work
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.data = self.work / "data"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(src), str(root)] + ([os.environ["PYTHONPATH"]]
                                     if os.environ.get("PYTHONPATH") else []))
        self.started = time.perf_counter()
        self.reference_digests = None
        self.quality = 0.0  # match_corr of the first invocation that passed

    def remaining(self):
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    def setup(self):
        """Simulate the dataset SETUP_REPEATS times; return the median time."""
        w = self.workload
        times, digests = [], set()
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.data, ignore_errors=True)
            wall, _, _, code = run_child(
                [sys.executable, "-m", "canica.cli", "simulate", "--out", str(self.data),
                 "--subjects", str(w.subjects), "--frames", str(w.frames),
                 "--voxels", str(w.voxels), "--k-true", str(w.k_true),
                 "--seed", str(self.seed)],
                self.env, self.work / "simulate.log", self.remaining())
            if code != 0:
                log = (self.work / "simulate.log").read_text(errors="replace")
                raise SetupError(f"canica simulate exited {code}: {log.strip()}")
            manifest = json.loads((self.data / "manifest.json").read_text())
            digests.add(json.dumps(manifest["outputs"], sort_keys=True))
            times.append(wall)
        if len(digests) != 1:
            raise SetupError("canica simulate wrote different data for one seed")
        self.truth = standardized_truth(self.data)
        return statistics.median(times)

    def invoke(self, index: int, traced=False):
        """Run the workload's command once and check what it wrote."""
        out = self.work / ("out_traced" if traced else f"out_{index}")
        shutil.rmtree(out, ignore_errors=True)
        entry = (["-m", "perfbench.traced", str(self.work / "spans.json")]
                 if traced else ["-m", "canica.cli"])
        args = [sys.executable, *entry, *self.workload.command,
                "--input", str(self.data), "--out", str(out), "--seed", str(self.seed)]
        wall, cpu, rss, code = run_child(args, self.env, self.work / "invoke.log",
                                         self.remaining())
        inv = Invocation(wall, cpu, rss, code, out)
        inv.failure = self.check(inv, traced)
        return inv

    def check(self, inv: Invocation, traced: bool):
        """Reason the invocation failed, or None when its outputs hold up."""
        if inv.exit_code != 0:
            return f"exit code {inv.exit_code}"
        digests, problem = check_outputs(inv.out, self.workload)
        if problem:
            return problem
        if self.reference_digests is None and not traced:
            self.reference_digests = digests
            self.quality = self.match_corr(inv)
        elif digests != self.reference_digests:
            return "output digests differ from the run's first invocation"
        if self.workload.kind == "fit" and self.quality < MIN_RECOVERY_CORR:
            return f"recovery_corr {self.quality:.4f} below {MIN_RECOVERY_CORR}"
        return None

    def match_corr(self, inv: Invocation):
        if self.workload.kind == "fit":
            return recovery_corr(read_cnic(inv.out / "components.cnic"), self.truth)
        aggregate = json.loads((inv.out / "aggregate.json").read_text())
        return float(aggregate["raw"]["t_mean"])


def expected_outputs(kind: str, summary: dict):
    """Files a successful command must have written, from its own summary."""
    if kind == "fit":
        names = ["group_patterns.cnic", "loadings.cnic", "components.cnic",
                 "mixing.cnic", "scree.csv"]
        return names + [f"component_{i:03d}.csv" for i in range(summary["k"])]
    names = ["aggregate.json"]
    for r in range(summary["repeats"]):
        names += [f"repeat_{r:03d}/summary.json",
                  f"repeat_{r:03d}/histogram_raw.csv",
                  f"repeat_{r:03d}/histogram_thresholded.csv"]
    return names


def selected_ks(kind: str, summary: dict):
    if kind == "fit":
        return {summary["k"]}
    return {int(k) for k in summary["component_count_histogram"]}


def check_outputs(out: Path, workload: Workload):
    """Return (output digests, problem or None) for one command's output tree."""
    try:
        manifest = json.loads((out / "manifest.json").read_text())
        digests = manifest["outputs"]
        summary = manifest["result"]
    except (OSError, ValueError, KeyError) as exc:
        return None, f"no readable manifest: {exc}"
    for name in expected_outputs(workload.kind, summary):
        if name not in digests:
            return digests, f"expected output {name} missing"
    for name, digest in digests.items():
        path = out / name
        if not path.is_file():
            return digests, f"expected output {name} missing"
        if sha256(path) != digest:
            return digests, f"{name} does not match its manifest digest"
    ks = selected_ks(workload.kind, summary)
    if ks != {workload.k_true}:
        return digests, f"selected k {sorted(ks)} differs from k_true {workload.k_true}"
    return digests, None


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def measure(run: Run, seconds: float, trace: bool):
    """Closed loop of invocations; returns (invocations, traced invocation)."""
    invocations = []
    loop_start = time.perf_counter()

    def next_fits(reserve):
        elapsed = time.perf_counter() - loop_start
        median = statistics.median(i.wall_s for i in invocations)
        return elapsed + median * (1 + reserve) <= seconds

    while len(invocations) < (1 if trace else MIN_INVOCATIONS) or next_fits(trace):
        if run.remaining() < 0:
            break
        inv = run.invoke(len(invocations))
        invocations.append(inv)
        shutil.rmtree(inv.out, ignore_errors=True)
    traced = run.invoke(len(invocations), traced=True) if trace else None
    return invocations, traced


def end_to_end(run: Run, setup_s: float, invocations):
    return {
        "wall_s": statistics.median(i.wall_s for i in invocations),
        "cpu_s": statistics.median(i.cpu_s for i in invocations),
        "peak_rss_mb": statistics.median(i.peak_rss_mb for i in invocations),
        "setup_s": setup_s,
        "match_corr": run.quality,
    }


def per_layer(run: Run, invocations, traced: Invocation):
    spans = json.loads((run.work / "spans.json").read_text())
    metrics = layer_metrics(spans, tree_bytes(traced.out))
    metrics["trace.overhead_s"] = (
        traced.wall_s - statistics.median(i.wall_s for i in invocations))
    return metrics


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_ratio", "_frac", "parallelism")):
        return "ratio"
    return "count"


def benchmark(root: Path, workload: Workload, seed: int, seconds: float, trace: bool,
              work: Path | None = None):
    """One run; returns the result object printed as the last line."""
    run = Run(root, workload, seed, work or root / WORK_DIR / workload.name)
    env = environment_record()
    print("environment: " + json.dumps(env, sort_keys=True))
    setup_s = run.setup()
    invocations, traced = measure(run, seconds, trace)
    done = invocations + ([traced] if traced else [])
    failures = [f"invocation {n}: {i.failure}" for n, i in enumerate(done) if i.failure]
    walls = [i.wall_s for i in invocations]
    tail = tail_percentile(walls)
    e2e = end_to_end(run, setup_s, invocations)
    quality = "recovery_corr" if workload.kind == "fit" else "split_half_t"
    print(f"{workload.name} seed={seed}: {len(walls)} untraced invocations, "
          f"wall_s median {e2e['wall_s']:.4f} s"
          + (f", p{tail[0]:g} {tail[1]:.4f} s" if tail else
             " (too few samples for a tail percentile)"))
    print(f"  failed_frac {len(failures) / len(done):.4f} ({len(failures)} of {len(done)})"
          f", {quality} {e2e['match_corr']:.4f}")
    for failure in failures:
        print(f"  FAILED {failure}")

    if trace:
        metrics = {}
        if traced.failure is None:
            metrics = per_layer(run, invocations, traced)
        else:
            print("  traced run failed its checks; no per-layer metrics reported")
    else:
        metrics = e2e
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {unit_of(name)}")
    result = {
        "correct": not failures and bool(metrics),
        "attempted": len(done),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    (run.work / "result.json").write_text(json.dumps(
        {**result, "workload": workload.name, "seed": seed, "environment": env,
         "wall_samples": walls, "failures": failures}, indent=2) + "\n")
    shutil.rmtree(run.data, ignore_errors=True)
    for out in run.work.glob("out_*"):
        shutil.rmtree(out)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = benchmark(Path.cwd(), WORKLOADS[args.workload], args.seed,
                           args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0
