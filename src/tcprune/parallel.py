"""Work spread over every usable CPU, on threads.

`run` calls a function on each of a list of items from several threads and
returns the results in item order. The calling thread claims the first
item and then starts the other threads; each thread takes the next item
from one shared queue when it finishes one, so quick items do not
unbalance them. The first exception any call raises empties the queue, and
it is raised once every thread has stopped. Threads are started per call
and joined before it returns, so a call made from inside an item (the
pruners' passes inside a grid cell) never waits on a thread that is busy
elsewhere.

`over_rows` is the one way a whole-layer pass splits: it cuts the pass
into the contiguous row ranges of `spans`, one per usable CPU, each holding
at least MIN_SPAN entries, and runs a range function over them through
`run`, or over every row on the calling thread when they do not split.
The pruners split only passes whose every element numpy computes from the
same values whatever the range, so their results are the same bits on any
number of CPUs. numpy's error state belongs to a thread, so a range
function that expects log 0 sets its own.

`workers_for` decides how many threads a batch of items runs on, one per
usable CPU, and holds numpy's bundled OpenBLAS at one thread meanwhile so
its own threads do not contend with them. It sets the count through ctypes
in numpy.libs/libscipy_openblas64_*.so, the instance numpy has loaded;
without it (another BLAS, another platform) the items run one at a time.
"""

from __future__ import annotations

import collections
import contextlib
import ctypes
import functools
import glob
import os
import threading
from collections.abc import Callable, Iterator, Sequence
from typing import TypeVar

import numpy as np

T = TypeVar("T")
R = TypeVar("R")

# Fewest entries a range of a split pass holds. On a 2-CPU x86_64 box a
# range of 2**16 float64 entries (512 KiB) took 0.6-1.8 ms, against about
# 0.1 ms for a thread's start and join, and a 2**15-entry layer split in two
# ran 2-8 times slower than on one thread.
MIN_SPAN = 1 << 16


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def run(work: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """[work(item) for item in items], from up to `workers` threads, the
    calling thread among them; with one worker or one item, inline."""
    results: list = [None] * len(items)
    pending = collections.deque(range(len(items)))
    errors: list[BaseException] = []

    def take() -> int | None:
        try:
            return pending.popleft()
        except IndexError:
            return None

    def drain(i: int | None) -> None:
        try:
            while i is not None:
                results[i] = work(items[i])
                i = take()
        except BaseException as exc:
            pending.clear()
            errors.append(exc)

    first = take()
    started: list[threading.Thread] = []
    try:
        for _ in range(min(workers, len(items)) - 1):
            thread = threading.Thread(target=drain, args=(take(),))
            thread.start()
            started.append(thread)
        drain(first)
    finally:
        pending.clear()
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
    return results


def spans(rows: int, row_size: int = 1) -> list[tuple[int, int]] | None:
    """Contiguous (start, stop) ranges of `rows` rows of `row_size` entries,
    one per usable CPU and each of at least MIN_SPAN entries, or None when
    fewer than two such ranges fit."""
    if rows * row_size < 2 * MIN_SPAN:
        return None
    parts = min(usable_cpus(), rows // -(-MIN_SPAN // row_size))
    if parts < 2:
        return None
    bounds = [rows * p // parts for p in range(parts + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def over_rows(fill: Callable[[int, int], None], rows: int, row_size: int = 1) -> None:
    """fill(start, stop) over the `spans` of `rows` rows, one thread per
    range, or fill(0, rows) on the calling thread when they do not split."""
    ranges = spans(rows, row_size) or [(0, rows)]
    run(lambda span: fill(*span), ranges, len(ranges))


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """numpy's bundled OpenBLAS's (get, set) thread-count functions, looked
    up on the first call; None when numpy has none or it lacks them."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        try:
            lib = ctypes.CDLL(path)
            get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):  # not loadable, or no such symbol
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def workers_for(items: int) -> Iterator[int]:
    """Yield min(usable_cpus(), items), the threads `items` items run on,
    with OpenBLAS held at one thread until the block ends, when its count is
    restored, also if the block raises. Without a handle on the count, yield
    1 and leave the count alone."""
    blas = _openblas()
    if blas is None:
        yield 1
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield min(usable_cpus(), items)
    finally:
        set_(before)
