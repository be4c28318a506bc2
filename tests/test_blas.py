import threading

import pytest

from canica import _blas
from canica.pipeline import PipelineConfig, blas_threads, fit_group
from canica.simulate import simulate_group

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
    with _blas.limit(1):
        assert OPENBLAS.get() == 1
        with _blas.limit(1):
            assert OPENBLAS.get() == 1
        assert OPENBLAS.get() == 1
    assert OPENBLAS.get() == 3


@needs_openblas
def test_restored_after_exception(three_threads):
    with pytest.raises(RuntimeError):
        with _blas.limit(1):
            assert OPENBLAS.get() == 1
            raise RuntimeError("inside the scope")
    assert OPENBLAS.get() == 3


@needs_openblas
def test_open_scopes_hold_the_smallest_limit_never_above_the_saved_count(
    three_threads,
):
    with _blas.limit(8):
        assert OPENBLAS.get() == 3
        with _blas.limit(2):
            assert OPENBLAS.get() == 2
            with _blas.limit(1):
                assert OPENBLAS.get() == 1
            assert OPENBLAS.get() == 2
        assert OPENBLAS.get() == 3
    assert OPENBLAS.get() == 3


@needs_openblas
def test_last_of_overlapping_scopes_restores(three_threads):
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    counts = []

    def first():
        with _blas.limit(1):
            first_in.set()
            second_in.wait(timeout=10)
        first_out.set()

    worker = threading.Thread(target=first)
    worker.start()
    assert first_in.wait(timeout=10)
    with _blas.limit(2):
        counts.append(OPENBLAS.get())  # the first scope is still open
        second_in.set()
        assert first_out.wait(timeout=10)
        counts.append(OPENBLAS.get())  # the first scope has ended
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert counts == [1, 2]
    assert OPENBLAS.get() == 3


def test_no_openblas_is_a_no_op(monkeypatch):
    count = OPENBLAS.get if OPENBLAS else (lambda: None)
    before = count()
    monkeypatch.setattr(_blas, "_openblas", lambda: None)
    with _blas.limit(1):
        assert count() == before
    assert count() == before


@pytest.mark.parametrize(
    "cores, subjects, threads",
    [(16, 12, 1), (16, 6, 2), (16, 40, 1), (2, 12, 1), (2, 1, 2), (1, 3, 1), (None, 3, 1)],
)
def test_pool_shares_the_cores_among_the_subjects(monkeypatch, cores, subjects,
                                                  threads):
    monkeypatch.setattr("os.cpu_count", lambda: cores)
    assert blas_threads(subjects) == threads


def test_fit_holds_its_pool_to_the_share_whatever_the_thread_cap(monkeypatch):
    requested = []
    real = _blas.limit

    def spy(n_threads):
        requested.append(n_threads)
        return real(n_threads)

    monkeypatch.setattr(_blas, "limit", spy)
    monkeypatch.setattr("os.cpu_count", lambda: 16)
    data = simulate_group(4, 30, 100, 1, 0.3, 0.3, 0.05, seed=3)
    config = PipelineConfig(fixed_order=2, cca_n_boot=20, seed=3)
    for cap in ("1", "3"):
        monkeypatch.setenv("CANICA_THREADS", cap)
        fit_group(data.dataset, config)
    # 16 cores shared by 4 subjects in the pool, then one for the noise draws
    assert requested == [4, 1, 4, 1]
