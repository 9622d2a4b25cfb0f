"""The hardened fan-out: per-future error collection, broken-pool
retry, re-entrancy guard, and the REPRO_JOBS diagnostics."""

import os

import pytest

import repro.parallel as parallel
from repro import faultinject
from repro.errors import WorkerCrashed
from repro.obs.metrics import metrics
from repro.parallel import (
    PARALLEL_STATS,
    default_jobs,
    fanout,
    fork_available,
)

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="needs fork start method"
)


# Module-level workers: pickled by reference into pool processes.
def double(payload, item):
    return item * 2


def fail_on_three(payload, item):
    if item == 3:
        raise ValueError(f"cannot process {item}")
    return item * 2


def exit_on_three(payload, item):
    if item == 3 and parallel.multiprocessing.parent_process() is not None:
        os._exit(1)
    return item * 2


@pytest.fixture(autouse=True)
def clean_faults():
    faultinject.clear()
    yield
    faultinject.clear()


class TestSerialPath:
    def test_plain(self):
        assert fanout(double, None, [1, 2, 3], jobs=1) == [2, 4, 6]

    def test_on_error_maps_failures(self):
        out = fanout(
            fail_on_three, None, [1, 3, 5], jobs=1,
            on_error=lambda item, exc: ("failed", item, type(exc).__name__),
        )
        assert out == [2, ("failed", 3, "ValueError"), 10]

    def test_without_on_error_raises(self):
        with pytest.raises(ValueError):
            fanout(fail_on_three, None, [1, 3, 5], jobs=1)


@needs_fork
class TestPoolPath:
    def test_worker_exception_does_not_lose_siblings(self):
        metrics.reset("parallel")
        out = fanout(
            fail_on_three, None, [1, 2, 3, 4, 5], jobs=2,
            on_error=lambda item, exc: ("failed", item),
        )
        assert out == [2, 4, ("failed", 3), 8, 10]
        assert PARALLEL_STATS["worker_failures"] == 1

    def test_worker_exception_without_on_error_reraises_after_drain(self):
        with pytest.raises(ValueError, match="cannot process 3"):
            fanout(fail_on_three, None, [1, 2, 3, 4], jobs=2)

    def test_broken_pool_retries_serially(self):
        """os._exit(1) in a worker breaks the pool; the affected items
        re-run serially in the parent (where the guard in the worker fn
        keeps them alive) and the full result set comes back."""
        metrics.reset("parallel")
        out = fanout(exit_on_three, None, [1, 2, 3, 4, 5], jobs=2)
        assert out == [2, 4, 6, 8, 10]
        assert PARALLEL_STATS["broken_pools"] == 1
        assert PARALLEL_STATS["serial_retries"] >= 1

    def test_reentrant_fanout_degrades_to_serial(self):
        metrics.reset("parallel")
        parallel._ACTIVE = True
        try:
            out = fanout(double, None, [1, 2, 3], jobs=4)
        finally:
            parallel._ACTIVE = False
        assert out == [2, 4, 6]
        assert PARALLEL_STATS["serial_fallbacks"] == 1
        assert PARALLEL_STATS["fanouts"] == 0

    def test_payload_cleared_after_failure(self):
        with pytest.raises(ValueError):
            fanout(fail_on_three, None, [1, 3], jobs=2)
        assert parallel._PAYLOAD is None
        assert parallel._ACTIVE is False


class TestDefaultJobs:
    def test_valid_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3

    def test_invalid_env_warns_and_names_the_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "lots")
        with pytest.warns(RuntimeWarning, match="'lots'"):
            assert default_jobs() == (os.cpu_count() or 1)

    def test_zero_clamps_to_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1

    def test_unset_uses_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == (os.cpu_count() or 1)
