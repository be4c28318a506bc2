import threading

import numpy as np
import pytest

from canica import DataMatrix, _blas, pipeline
from canica.pipeline import PipelineConfig, fit_group
from canica.simulate import simulate_group
from conftest import fit_bytes

OPENBLAS = _blas._openblas()
needs_openblas = pytest.mark.skipif(
    OPENBLAS is None, reason="numpy has no bundled OpenBLAS"
)


@pytest.fixture
def three_threads():
    """Start from a count other than 1, so a restore is visible."""
    before = OPENBLAS.get()
    OPENBLAS.set(3)
    try:
        yield
    finally:
        OPENBLAS.set(before)


@needs_openblas
def test_one_thread_inside_nested_scopes_and_restored_after(three_threads):
    with _blas.limit():
        assert OPENBLAS.get() == 1
        with _blas.limit():
            assert OPENBLAS.get() == 1
        assert OPENBLAS.get() == 1
    assert OPENBLAS.get() == 3


@needs_openblas
def test_restored_after_exception(three_threads):
    with pytest.raises(RuntimeError):
        with _blas.limit():
            assert OPENBLAS.get() == 1
            raise RuntimeError("inside the scope")
    assert OPENBLAS.get() == 3


@needs_openblas
def test_last_of_overlapping_scopes_restores(three_threads):
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    counts = []

    def first():
        with _blas.limit():
            first_in.set()
            second_in.wait(timeout=10)
        first_out.set()

    worker = threading.Thread(target=first)
    worker.start()
    assert first_in.wait(timeout=10)
    with _blas.limit():
        counts.append(OPENBLAS.get())  # the first scope is still open
        second_in.set()
        assert first_out.wait(timeout=10)
        counts.append(OPENBLAS.get())  # the first scope has ended
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert counts == [1, 1]
    assert OPENBLAS.get() == 3


def test_no_openblas_is_a_no_op(monkeypatch):
    count = OPENBLAS.get if OPENBLAS else (lambda: None)
    before = count()
    monkeypatch.setattr(_blas, "_openblas", lambda: None)
    with _blas.limit():
        assert count() == before
    assert count() == before


@needs_openblas
def test_fit_runs_every_stage_on_one_thread_whatever_the_thread_cap(
    monkeypatch, three_threads
):
    # simulated first: its rank check takes the hold as well
    data = simulate_group(4, 30, 100, 1, 0.3, 0.3, 0.05, seed=3)
    requested, stage_counts = [], []
    spy = _blas._Threads(OPENBLAS.get, lambda n: (requested.append(n), OPENBLAS.set(n)))
    monkeypatch.setattr(_blas, "_openblas", lambda: spy)
    for name in ("standardize", "order_stability", "svd_reduce", "group_cca",
                 "noise_threshold", "fastica", "threshold_map"):
        real = getattr(pipeline, name)

        def stage(*args, real=real, **kwargs):
            stage_counts.append(OPENBLAS.get())
            return real(*args, **kwargs)

        monkeypatch.setattr(pipeline, name, stage)
    config = PipelineConfig(max_order=3, order_n_boot=20, cca_n_boot=20, seed=3)
    for cap in ("1", "3"):
        monkeypatch.setenv("CANICA_THREADS", cap)
        assert fit_group(data.dataset, config).k >= 1
    # each fit holds one thread, then restores the count it found
    assert requested == [1, 3, 1, 3]
    assert len(stage_counts) > 7 and set(stage_counts) == {1}


@needs_openblas
def test_fit_bytes_do_not_depend_on_the_openblas_count():
    # at this shape the voxel-wide products' last bits depend on the count
    data = simulate_group(6, 30, 2000, 3, 0.05, 0.5, 0.1, seed=0)
    config = PipelineConfig(fixed_order=5, cca_n_boot=20, seed=0)
    before = OPENBLAS.get()
    fits = []
    try:
        for count in (1, 2):
            OPENBLAS.set(count)
            fits.append(fit_group(data.dataset, config))
    finally:
        OPENBLAS.set(before)
    assert fits[0].k >= 1
    assert fit_bytes(fits[0]) == fit_bytes(fits[1])


@needs_openblas
def test_a_kept_whitening_does_not_depend_on_the_openblas_count():
    # at this width eigh's last bits depend on the count
    values = np.random.default_rng(240).standard_normal((240, 480))
    before = OPENBLAS.get()
    kept = []
    try:
        for count in (2, 1):
            OPENBLAS.set(count)
            s, rank, w = DataMatrix(values).whitening
            kept.append((s.tobytes(), rank, w.tobytes()))
    finally:
        OPENBLAS.set(before)
    assert kept[0] == kept[1]


def test_concurrent_fits_equal_serial_fits(monkeypatch):
    monkeypatch.delenv("CANICA_THREADS", raising=False)
    # unequal noise bootstraps keep the two fits in different stages
    runs = [
        (simulate_group(6, 30, 2000, 3, 0.05, 0.5, 0.1, seed=s).dataset,
         PipelineConfig(fixed_order=5, cca_n_boot=n_boot, seed=s))
        for s, n_boot in ((0, 300), (1, 20))
    ]
    serial = [fit_bytes(fit_group(*run)) for run in runs]
    for _ in range(3):
        start = threading.Barrier(len(runs), timeout=10)
        concurrent = [None] * len(runs)

        def fit(i):
            start.wait()
            concurrent[i] = fit_bytes(fit_group(*runs[i]))

        workers = [threading.Thread(target=fit, args=(i,)) for i in range(len(runs))]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
        assert concurrent == serial
