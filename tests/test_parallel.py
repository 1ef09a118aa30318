"""The worker helper: item order, errors, nested calls, and range splits."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import tcprune
from tcprune import parallel


class TestRun:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_results_keep_item_order(self, workers):
        items = list(range(40))

        def work(i):
            time.sleep(0.001 * (i % 3))  # uneven items, so threads interleave
            return i * i

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # a lost or repeated item shows as a wrong list
        try:
            assert parallel.run(work, items, workers) == [i * i for i in items]
        finally:
            sys.setswitchinterval(interval)

    def test_no_items(self):
        assert parallel.run(lambda i: i, [], 4) == []

    def test_first_error_is_raised_after_every_worker_stops(self):
        alive_before = set(threading.enumerate())
        running, finished, lock = set(), [], threading.Lock()

        def work(i):
            with lock:
                running.add(i)
            if i == 1:
                time.sleep(0.01)  # the other workers are inside an item
                raise RuntimeError("first")
            if i == 2:
                time.sleep(0.05)
                raise ValueError("second")  # raised later, while stopping
            time.sleep(0.02)
            with lock:
                running.discard(i)
                finished.append(i)

        with pytest.raises(RuntimeError, match="first"):
            parallel.run(work, list(range(30)), 3)
        # every item a worker started has ended, and no worker is left
        assert running == {1, 2}
        assert set(threading.enumerate()) == alive_before
        # the queue emptied at the first error: later items never started
        assert len(finished) < 28

    def test_calling_thread_takes_the_first_item(self):
        caller = threading.get_ident()
        together = threading.Barrier(3, timeout=30)  # live threads have distinct idents

        def work(i):
            together.wait()
            return threading.get_ident()

        ident = parallel.run(work, [0, 1, 2], 3)
        assert ident[0] == caller
        assert len(set(ident)) == 3

    def test_call_from_inside_a_worker_finishes(self):
        def inner(i):
            return parallel.run(lambda j: i * 10 + j, list(range(4)), 3)

        got = []
        outer = threading.Thread(target=lambda: got.append(parallel.run(inner, [0, 1, 2], 3)))
        outer.start()
        outer.join(timeout=60)
        assert not outer.is_alive()
        assert got == [[[i * 10 + j for j in range(4)] for i in range(3)]]


def test_one_cpu_affinity_runs_inline():
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("no affinity masks on this platform")
    script = """
import os, threading
from tcprune import parallel
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
assert parallel.usable_cpus() == 1
assert parallel.spans(1 << 20, 8) is None
main = threading.get_ident()
got = parallel.run(lambda i: threading.get_ident(), list(range(5)), parallel.usable_cpus())
assert got == [main] * 5, got
print("inline")
"""
    env = dict(os.environ)
    src = str(Path(tcprune.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "inline"


class TestSpans:
    @pytest.mark.parametrize("cpus", [2, 3, 8])
    @pytest.mark.parametrize(
        "rows, row_size", [(1 << 17, 1), (1024, 1024), (256, 1024), (3, 1 << 16), (44_000, 10)]
    )
    def test_ranges_cover_rows_in_order(self, monkeypatch, cpus, rows, row_size):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        ranges = parallel.spans(rows, row_size)
        assert ranges is not None
        assert 2 <= len(ranges) <= cpus
        assert ranges[0][0] == 0 and ranges[-1][1] == rows
        assert all(a[1] == b[0] for a, b in zip(ranges, ranges[1:]))
        assert all((hi - lo) * row_size >= parallel.MIN_SPAN for lo, hi in ranges)

    @pytest.mark.parametrize(
        "cpus, rows, row_size",
        [(1, 1 << 20, 1), (2, (1 << 17) - 1, 1), (8, 240, 60), (8, 256, 256), (8, 1, 1 << 20),
         (8, 3, 50_000), (8, 1 << 20, 0)],
    )
    def test_small_passes_do_not_split(self, monkeypatch, cpus, rows, row_size):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        assert parallel.spans(rows, row_size) is None

    def test_over_rows_runs_small_passes_inline(self):
        calls = []
        parallel.over_rows(lambda lo, hi: calls.append((lo, hi, threading.get_ident())), 100)
        assert calls == [(0, 100, threading.get_ident())]
