"""Thread counts: the worker pools' cap, and a one-thread hold for OpenBLAS.

``worker_count`` sizes the thread pools that fan out independent work (the
subjects of a fit, the frame cross-Grams and the chunks of noise-bootstrap
draws), capped by ``CANICA_THREADS``.

``limit()`` holds the OpenBLAS library shipped inside the numpy wheel to one
thread for the duration of a block and restores the previous count on exit.
A fit runs inside it, so every product is computed on one BLAS thread and
its bits do not depend on the machine's cores or on ``OPENBLAS_NUM_THREADS``;
the pools supply the parallelism. Builds without a bundled OpenBLAS (MKL,
Accelerate, a system BLAS) are left alone.

The thread count is a property of the whole process, not of a thread.
Scopes entered from several threads share it: the first scope in saves the
count and the last scope out restores it.
"""

import ctypes
import functools
import glob
import os
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# C entry points of numpy's OpenBLAS builds, newest wheel naming first. The
# ``..._64_`` forms, also exported, are the Fortran ones taking a pointer.
_SYMBOL_FORMS = (
    "scipy_openblas_{}_num_threads64_",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


def thread_cap() -> int:
    """The pools' width cap: CANICA_THREADS, or the machine's cores when unset."""
    env = os.environ.get("CANICA_THREADS")
    if env is None:
        return os.cpu_count() or 1
    try:
        cap = int(env)
    except ValueError:
        raise ConfigError(f"CANICA_THREADS must be an integer, got {env!r}")
    if cap < 1:
        raise ConfigError(f"CANICA_THREADS must be >= 1, got {cap}")
    return cap


def worker_count(n_tasks: int) -> int:
    """Pool size for fanning out n_tasks, capped by CANICA_THREADS."""
    return max(1, min(thread_cap(), n_tasks))


@dataclass(frozen=True)
class _Threads:
    get: Callable[[], int]
    set: Callable[[int], None]


@functools.cache
def _openblas() -> _Threads | None:
    """Thread-count functions of the OpenBLAS next to numpy, or None."""
    package = os.path.dirname(np.__file__)
    for libdir in (package + ".libs", os.path.join(package, ".dylibs")):
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for form in _SYMBOL_FORMS:
                try:
                    get = getattr(lib, form.format("get"))
                    set_ = getattr(lib, form.format("set"))
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return _Threads(get, set_)
    return None


_lock = threading.Lock()
_open = 0  # scopes now open, over all threads
_saved = 0


@contextmanager
def limit():
    """Run the block with numpy's OpenBLAS on one thread, then restore its count."""
    global _open, _saved
    lib = _openblas()
    if lib is None:
        yield
        return
    with _lock:
        if not _open:
            _saved = lib.get()
            lib.set(1)
        _open += 1
    try:
        yield
    finally:
        with _lock:
            _open -= 1
            if not _open:
                lib.set(_saved)
