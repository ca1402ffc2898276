"""The ordered thread map and the usable CPU count."""

import os
import threading
import time

import pytest

from fracrte import pool
from fracrte.pool import ordered_map, usable_cpus


def _mask():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


class TestUsableCpus:
    @pytest.mark.parametrize("text, cap", [
        ("50000 100000\n", 1),
        ("150000 100000\n", 2),
        ("200000 100000\n", 2),
        ("100000000 100000\n", 1000),
        ("max 100000\n", None),
    ])
    def test_quota_caps_the_mask(self, tmp_path, text, cap):
        path = tmp_path / "cpu.max"
        path.write_text(text)
        assert usable_cpus(str(path)) == (_mask() if cap is None else min(_mask(), cap))

    def test_missing_file_leaves_the_mask(self, tmp_path):
        assert usable_cpus(str(tmp_path / "cpu.max")) == _mask()


class TestOrderedMap:
    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_results_in_submission_order(self, monkeypatch, cpus):
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)

        def task(i):
            time.sleep(0.002 * (i % 3))  # later items often finish first
            return i * i

        assert list(ordered_map(task, range(10))) == [i * i for i in range(10)]

    def test_one_worker_runs_inline(self, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 1)
        main = threading.get_ident()
        assert set(ordered_map(lambda _: threading.get_ident(), range(4))) == {main}

    def test_one_item_runs_inline(self, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 3)
        main = threading.get_ident()
        assert list(ordered_map(lambda _: threading.get_ident(), [0])) == [main]

    def test_at_most_one_pending_task_per_worker(self, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 3)
        lock = threading.Lock()
        started, taken, most = [0], [0], [0]

        def task(i):
            with lock:
                started[0] += 1
                most[0] = max(most[0], started[0] - taken[0])
            time.sleep(0.001)
            return i

        for _ in ordered_map(task, range(12)):
            time.sleep(0.003)  # a slow consumer
            with lock:
                taken[0] += 1
        assert most[0] <= 3

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 3)

        def task(i):
            if i == 5:
                raise ValueError("item five")
            return i

        with pytest.raises(ValueError, match="item five"):
            list(ordered_map(task, range(8)))
