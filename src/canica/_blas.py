"""Thread counts: the worker pools' cap, and scoped limits for OpenBLAS.

``worker_count`` sizes the thread pools that fan out independent work (the
subjects of a fit, the chunks of noise-bootstrap draws), capped by
``CANICA_THREADS``.

The bootstraps run many small eigenproblems, batched into stacked LAPACK
calls that are still far too small for BLAS threads to help: when several
of them run at once, on the per-subject pool or on the noise bootstrap's
chunk pool, extra BLAS threads only spin and compete for the cores.
``limit(n)`` holds the OpenBLAS library shipped inside the numpy wheel to
at most ``n`` threads for the duration of a block and restores the previous
count on exit. Builds without a bundled OpenBLAS (MKL, Accelerate, a system
BLAS) are left alone.

The thread count is a property of the whole process, not of a thread.
Scopes entered from several threads share it: the first scope in saves the
count, while scopes are open it is the smallest of their limits (never more
than the saved count), and the last scope out restores it. Code outside any
scope is held too while another thread is inside one: while one
``fit_group`` call is in its pool or its noise draws, the unscoped
voxel-wide products of a concurrent call run on the held count.
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


def worker_count(n_tasks: int) -> int:
    """Pool size for fanning out n_tasks, capped by CANICA_THREADS."""
    env = os.environ.get("CANICA_THREADS")
    if env is None:
        cap = os.cpu_count() or 1
    else:
        try:
            cap = int(env)
        except ValueError:
            raise ConfigError(f"CANICA_THREADS must be an integer, got {env!r}")
        if cap < 1:
            raise ConfigError(f"CANICA_THREADS must be >= 1, got {cap}")
    return max(1, min(cap, n_tasks))


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
_limits: list[int] = []  # the limits of the scopes now open
_saved = 0


@contextmanager
def limit(n_threads: int):
    """Run the block with numpy's OpenBLAS on at most n_threads, then restore it."""
    global _saved
    lib = _openblas()
    if lib is None:
        yield
        return
    with _lock:
        if not _limits:
            _saved = lib.get()
        _limits.append(n_threads)
        lib.set(min([_saved, *_limits]))
    try:
        yield
    finally:
        with _lock:
            _limits.remove(n_threads)
            lib.set(min([_saved, *_limits]))
