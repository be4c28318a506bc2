"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Monte-Carlo criteria use fixed seed windows tabulated ahead of
time, so every run is deterministic.
"""

import json
import time
from pathlib import Path

import numpy as np

from canica import (
    DataMatrix,
    PipelineConfig,
    RowKind,
    SubjectSeries,
    amari_index,
    build_report,
    cross_correlation,
    fastica,
    fit_empirical_null,
    group_cca,
    make_ground_truth,
    match_components,
    measures,
    noise_threshold,
    select_order,
    simulate_group,
    simulate_subject,
    split_half,
    svd_reduce,
    threshold_map,
)
from canica.cli import main as cli_main
from canica.reproducibility import RAW_MODE
from canica.streams import substream
from conftest import brute_force_match, noise_residual, white_mixture, whitened_patterns

PASS = "[PASS] criterion {n}: {text}"


def random_series(seed, n_frames, n_voxels, tag="r"):
    values = substream(seed, 0xACCE).standard_normal((n_frames, n_voxels))
    return SubjectSeries(f"{tag}{seed}", DataMatrix(values, RowKind.FRAMES))


def signal_series(seed, k, n_frames, n_voxels, noise, gains_hi, gains_lo,
                  sparsity=0.2):
    gains = np.linspace(gains_hi, gains_lo, k)
    truth = make_ground_truth(
        k, n_voxels, 1, n_frames, sparsity, noise, 0.0, seed,
        pattern_gains=gains,
    )
    return simulate_subject(truth, 0, n_frames)


def principal_angles_deg(a, b):
    qa = np.linalg.qr(a.T)[0]
    qb = np.linalg.qr(b.T)[0]
    cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return np.degrees(np.arccos(np.clip(cosines, -1.0, 1.0)))


def test_criterion_01_whitening_invariants():
    start = time.monotonic()
    checked = 0
    for i in range(25):  # random subjects of varying shape
        f = 60 + 11 * (i % 7)
        v = 300 + 67 * (i % 9)
        series = random_series(i, f, v)
        _check_reduction(series, order=max(2, min(f, v) // 4))
        checked += 1
    for i in range(25):  # synthetic subjects from the generative model
        k = 2 + (i % 4)
        data = simulate_group(
            1, 80 + 10 * (i % 5), 400 + 50 * (i % 6), k, 0.3,
            0.2 + 0.1 * (i % 3), 0.05, seed=1000 + i,
        )
        _check_reduction(data.dataset.subjects[0], order=2 * k)
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 50
    assert elapsed < 30.0
    print(PASS.format(n=1, text=f"whitening invariants on 50 subjects "
                                f"({elapsed:.1f}s < 30s)"))


def _check_reduction(series, order):
    red = svd_reduce(series, order)
    p = whitened_patterns(red)
    e = noise_residual(red)
    y = series.data.values
    assert np.abs(p @ p.T - np.eye(order)).max() < 1e-8
    assert np.abs(e @ p.T).max() < 1e-8
    total = np.linalg.norm(y) ** 2
    retained = (red.singular_values[:order] ** 2).sum()
    assert abs(total - retained - np.linalg.norm(e) ** 2) / total < 1e-6


def test_criterion_02_order_selection():
    # exact low rank: noiseless rank-5 subjects select exactly 5
    rank5 = [
        select_order(
            signal_series(s, 5, 300, 1500, 0.0, 2.2, 1.0),
            max_order=12, n_boot=100, seed=s,
        )
        for s in range(20)
    ]
    assert rank5 == [5] * 20

    # pure noise selects 0
    zeros = sum(
        select_order(random_series(s, 200, 1000, "n"), 12, n_boot=100, seed=s) == 0
        for s in range(20)
    )
    assert zeros >= 18

    # non-divergence: appending as many pure-noise frames again raises the
    # selected order by at most 1
    stable = 0
    for s in range(20):
        base = signal_series(s, 8, 200, 1200, 3.0, 3.0, 1.2, sparsity=0.1)
        n_base = select_order(base, 16, n_boot=30, seed=s)
        y = base.data.values
        noise = substream(s, 0xF11).standard_normal(y.shape) * y.std()
        doubled = SubjectSeries(
            "d", DataMatrix(np.vstack([y, noise]), RowKind.FRAMES)
        )
        n_doubled = select_order(doubled, 16, n_boot=30, seed=s)
        stable += int(n_doubled <= n_base + 1)
    assert stable >= 18
    print(PASS.format(n=2, text=f"order selection (rank5 20/20, "
                                f"noise {zeros}/20, non-divergence {stable}/20)"))


def test_criterion_03_group_noise_rejection():
    start = time.monotonic()
    rejected = 0
    for seed in range(40):
        data = simulate_group(12, 100, 1000, 0, 0.1, 1.0, 0.0, seed)
        reductions = [svd_reduce(s, 10) for s in data.dataset.subjects]
        threshold = noise_threshold(reductions, n_boot=100, alpha=0.05, seed=seed)
        correlations = group_cca(reductions).correlations
        rejected += int((correlations > threshold).sum() == 0)
    elapsed = time.monotonic() - start
    assert rejected >= 38  # >= 95% of 40 seeds
    assert elapsed < 300.0
    print(PASS.format(n=3, text=f"pure-noise groups rejected {rejected}/40 "
                                f"({elapsed:.0f}s < 5min)"))


def test_criterion_04_shared_subspace_recovery():
    exact = 0
    worst_angle = 0.0
    for seed in range(40):
        data = simulate_group(12, 150, 800, 10, 0.1, 0.5, 0.1, seed)
        reductions = [svd_reduce(s, 15) for s in data.dataset.subjects]
        threshold = noise_threshold(reductions, n_boot=50, alpha=0.05, seed=seed)
        decomposition = group_cca(reductions)
        k = int((decomposition.correlations > threshold).sum())
        exact += int(k == 10)
        angles = principal_angles_deg(
            decomposition.leading(10)[0],
            data.truth.group_patterns.values,
        )
        worst_angle = max(worst_angle, angles.max())
    assert exact >= 32  # >= 80% of 40 seeds
    assert worst_angle < 5.0
    print(PASS.format(n=4, text=f"shared subspace: exactly 10 in {exact}/40, "
                                f"max principal angle {worst_angle:.2f} deg"))


def test_criterion_05_ica_oracle():
    hits = 0
    worst = 0.0
    for seed in range(20):
        mixed, rotation, *_ = white_mixture(8, 5000, 0.05, seed)
        result = fastica(DataMatrix(mixed, RowKind.PATTERNS), seed=seed)
        index = amari_index(result.mixing, rotation)
        worst = max(worst, index)
        hits += int(index < 0.05)
    assert hits >= 18

    worst_corr = 1.0
    for seed in range(10):
        mixed, _, _, sources = white_mixture(2, 5000, 0.1, seed + 100)
        result = fastica(DataMatrix(mixed, RowKind.PATTERNS), seed=seed)
        c = np.abs(result.components.values @ sources.T)
        best = max(c[0, 0] + c[1, 1], c[0, 1] + c[1, 0]) / 2.0
        worst_corr = min(worst_corr, best)
    assert worst_corr > 0.99
    print(PASS.format(n=5, text=f"ICA oracle (amari {hits}/20 < 0.05, "
                                f"max {worst:.4f}; 2-source corr "
                                f"{worst_corr:.4f} > 0.99)"))


def test_criterion_06_cca_least_squares_optimality():
    wins, trials = 0, 0
    for seed in range(10):
        data = simulate_group(5, 60, 400, 3, 0.3, 0.2, 0.05, seed=seed)
        reductions = [svd_reduce(s, 5) for s in data.dataset.subjects]
        decomposition = group_cca(reductions)
        stacked = np.vstack([whitened_patterns(r) for r in reductions])
        k = 3
        best = np.linalg.norm(stacked) ** 2 - (
            decomposition.correlations[:k] ** 2
        ).sum()
        rng = substream(seed, 0xC6)
        for _ in range(100):
            q = np.linalg.svd(
                rng.standard_normal((k, stacked.shape[1])), full_matrices=False
            )[2][:k]
            alternative = np.linalg.norm(stacked - (stacked @ q.T) @ q) ** 2
            trials += 1
            wins += int(best <= alternative + 1e-9)
    assert wins == trials == 1000
    print(PASS.format(n=6, text="least-squares optimality beat 1000/1000 "
                                "random rank-k alternatives"))


def test_criterion_07_threshold_calibration():
    counts = []
    for seed in range(100):
        values = substream(seed, 0xC7).standard_normal(40000)
        result = threshold_map(values, fit_empirical_null(values),
                               p_two_sided=1e-3)
        counts.append(result.n_selected)
    counts = np.array(counts)
    inside = int(((counts >= 25) & (counts <= 57)).sum())
    mean = counts.mean()
    assert inside >= 95
    assert 35.0 <= mean <= 45.0
    print(PASS.format(n=7, text=f"null-map selection {inside}/100 in [25, 57], "
                                f"mean {mean:.1f} in 40 +- 5"))


def test_criterion_08_reproducibility_measures():
    # exact trivial cases
    basis = np.linalg.svd(
        substream(0, 0xC8).standard_normal((8, 60)), full_matrices=False
    )[2][:8]
    same = build_report(basis[:4], basis[:4], RAW_MODE)
    assert abs(same.e - 1.0) < 1e-12 and abs(same.t - 1.0) < 1e-12
    disjoint = build_report(basis[:4], basis[4:], RAW_MODE)
    assert disjoint.e < 1e-24 and disjoint.t < 1e-12

    # optimal matching equals brute force for every d <= 7
    rng_sizes = substream(1, 0xC8)
    for trial in range(100):
        d1 = int(rng_sizes.integers(1, 8))
        d2 = int(rng_sizes.integers(1, 8))
        c = substream(trial, 0xC9).uniform(-1.0, 1.0, size=(d1, d2))
        matching = match_components(c)
        assert abs(matching.matched_sum - brute_force_match(c)) < 1e-12

    # e is invariant to orthogonal rotation of either set
    a = np.linalg.svd(substream(2, 0xC8).standard_normal((5, 50)),
                      full_matrices=False)[2][:5]
    b = np.linalg.svd(substream(3, 0xC8).standard_normal((5, 50)),
                      full_matrices=False)[2][:5]
    c = cross_correlation(a, b)
    e0 = measures(c, match_components(c))[0]
    for seed in range(5):
        rot = np.linalg.qr(substream(seed, 0xCA).standard_normal((5, 5)))[0]
        c_rot = cross_correlation(rot @ a, b)
        e1 = measures(c_rot, match_components(c_rot))[0]
        assert abs(e1 - e0) < 1e-10
    print(PASS.format(n=8, text="reproducibility measures exact, matching "
                                "optimal for d <= 7, e rotation-invariant"))


def test_criterion_09_split_half_strong_signal():
    gains = np.linspace(2.0, 1.0, 5)
    data = simulate_group(12, 100, 600, 5, 0.2, 0.3, 0.05, seed=100,
                          pattern_gains=gains)
    config = PipelineConfig(fixed_order=8, cca_n_boot=30, ica_restarts=3)
    raw_e, raw_t, thr_e, thr_t = [], [], [], []
    for seed in range(20):
        result = split_half(data.dataset, seed=seed, config=config)
        raw_e.append(result.raw.e)
        raw_t.append(result.raw.t)
        thr_e.append(result.thresholded.e)
        thr_t.append(result.thresholded.t)
    raw_e_mean, raw_t_mean = np.mean(raw_e), np.mean(raw_t)
    thr_e_mean, thr_t_mean = np.mean(thr_e), np.mean(thr_t)
    assert raw_e_mean > 0.8 and raw_t_mean > 0.8
    assert abs(raw_e_mean - thr_e_mean) < 0.1
    assert abs(raw_t_mean - thr_t_mean) < 0.1
    print(PASS.format(n=9, text=f"split-half raw e={raw_e_mean:.3f} "
                                f"t={raw_t_mean:.3f} > 0.8; thresholded "
                                f"within 0.1 (e={thr_e_mean:.3f}, "
                                f"t={thr_t_mean:.3f})"))


def test_criterion_10_performance_and_determinism(tmp_path):
    sim = tmp_path / "sim"
    code = cli_main([
        "simulate", "--out", str(sim), "--subjects", "12", "--frames", "200",
        "--voxels", "5000", "--k-true", "10", "--sparsity", "0.05",
        "--sigma-e", "0.5", "--sigma-r", "0.1", "--seed", "0",
    ])
    assert code == 0
    fit_dir = tmp_path / "fit"
    fit_args = ["fit", "--input", str(sim), "--out", str(fit_dir),
                "--seed", "0"]
    start = time.monotonic()
    assert cli_main(fit_args) == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    manifest = json.loads((fit_dir / "manifest.json").read_text())
    assert manifest["result"]["k"] >= 1

    digests = _tree_digest(fit_dir)
    assert cli_main(fit_args) == 0
    assert _tree_digest(fit_dir) == digests
    print(PASS.format(n=10, text=f"full fit 12x200x5000 in {elapsed:.1f}s "
                                 f"< 60s, repeat run byte-identical"))


def _tree_digest(root: Path) -> dict:
    import hashlib

    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }
