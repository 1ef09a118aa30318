"""The thread count of numpy's bundled OpenBLAS, read and set through ctypes.

numpy's Linux wheels ship OpenBLAS as numpy.libs/libscipy_openblas64_*.so,
which exports scipy_openblas_get_num_threads64_ and
scipy_openblas_set_num_threads64_. Opening the library numpy has already
loaded gives the same instance, so a count set here is the one numpy's
products run at. A numpy without that library (another BLAS, another
platform) has no handle here, and callers then leave the count alone.
Importing this module imports nothing numpy has not already imported.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os

import numpy as np


class OpenBlas:
    """A handle on numpy's OpenBLAS thread count."""

    def __init__(self, lib: ctypes.CDLL):
        self._get = lib.scipy_openblas_get_num_threads64_
        self._get.argtypes, self._get.restype = [], ctypes.c_int
        self._set = lib.scipy_openblas_set_num_threads64_
        self._set.argtypes, self._set.restype = [ctypes.c_int], None

    def threads(self) -> int:
        return self._get()

    def set_threads(self, count: int) -> None:
        self._set(count)

    @contextlib.contextmanager
    def one_thread(self):
        """Run the block with OpenBLAS at one thread, then restore its count."""
        before = self.threads()
        self.set_threads(1)
        try:
            yield
        finally:
            self.set_threads(before)


@functools.cache
def openblas() -> OpenBlas | None:
    """numpy's bundled OpenBLAS, looked up on the first call; None when
    numpy has none or it lacks the thread-count functions."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in names:
        if not (name.startswith("libscipy_openblas64_") and name.endswith(".so")):
            continue
        try:
            return OpenBlas(ctypes.CDLL(os.path.join(libs, name)))
        except (OSError, AttributeError):  # not loadable, or no such symbol
            continue
    return None
