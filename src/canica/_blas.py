"""Scoped thread limits for numpy's bundled OpenBLAS.

The bootstraps run many small eigenproblems, each far too small for BLAS
threads to help: when several of them run at once, on the per-subject pool
or in a draw loop, extra BLAS threads only spin and compete for the cores.
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

# C entry points of numpy's OpenBLAS builds, newest wheel naming first. The
# ``..._64_`` forms, also exported, are the Fortran ones taking a pointer.
_SYMBOL_FORMS = (
    "scipy_openblas_{}_num_threads64_",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)


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
