"""The scheduler threaded through the pipeline: a stealing ``jobs=N``
run is bit-identical to ``jobs=1`` (and to the static pool), the cost
model learns from ``verify`` spans and persists next to the store, and
a warm memtier answers repeat runs with zero disk reads."""

import json

import pytest

from repro import faultinject
from repro.gilsonite.ownable import OwnableRegistry
from repro.hybrid.pipeline import HybridVerifier
from repro.lang.mir import Program
from repro.obs.metrics import metrics
from repro.parallel import fork_available
from repro.sched import GLOBAL_COSTS, COSTS_FILENAME, costs_path
from repro.store import ProofStore

from tests.robustness.conftest import FAST_FNS, _fast_body
from tests.hybrid.test_parallel import _fingerprint

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="scheduler tests fork worker processes"
)


def fresh_env():
    program = Program()
    for n in FAST_FNS:
        program.add_body(_fast_body(n))
    return program, OwnableRegistry(program)


@pytest.fixture(autouse=True)
def clean_state():
    metrics.reset("store")
    faultinject.clear()
    GLOBAL_COSTS.clear()
    yield
    faultinject.clear()
    metrics.reset("store")
    GLOBAL_COSTS.clear()


class TestEquivalence:
    def test_steal_jobs4_matches_serial(self):
        env = fresh_env()
        serial = HybridVerifier(*env, {}).run(FAST_FNS, jobs=1)
        stealing = HybridVerifier(*fresh_env(), {}).run(FAST_FNS, jobs=4)
        assert _fingerprint(stealing) == _fingerprint(serial)
        assert stealing.ok

    def test_steal_matches_static(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCHED", "static")
        static = HybridVerifier(*fresh_env(), {}).run(FAST_FNS, jobs=4)
        monkeypatch.setenv("REPRO_SCHED", "steal")
        stealing = HybridVerifier(*fresh_env(), {}).run(FAST_FNS, jobs=4)
        assert _fingerprint(stealing) == _fingerprint(static)


class TestCostModel:
    def test_serial_run_observes_every_function(self):
        report = HybridVerifier(*fresh_env(), {}).run(FAST_FNS, jobs=1)
        assert report.ok
        for fn in FAST_FNS:
            assert GLOBAL_COSTS.cost(fn) is not None

    def test_parallel_run_learns_through_worker_deltas(self):
        # Workers observe in their own process; the deltas must carry
        # the observations home to the parent's model.
        report = HybridVerifier(*fresh_env(), {}).run(FAST_FNS, jobs=2)
        assert report.ok
        for fn in FAST_FNS:
            assert GLOBAL_COSTS.cost(fn) is not None

    def test_costs_persist_next_to_the_store(self, tmp_path):
        store = ProofStore(tmp_path)
        HybridVerifier(*fresh_env(), {}, store=store).run(FAST_FNS, jobs=1)
        path = tmp_path / COSTS_FILENAME
        assert path.exists()
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert set(FAST_FNS) <= set(doc["costs"])

    def test_cost_of_prefers_learned_over_estimate(self):
        env = fresh_env()
        hv = HybridVerifier(*env, {})
        estimate = hv._cost_of("fn0")
        GLOBAL_COSTS.observe("fn0", 42.0)
        assert hv._cost_of("fn0") == pytest.approx(42.0)
        assert estimate != pytest.approx(42.0)

    def test_cost_of_estimates_unseen_functions(self):
        hv = HybridVerifier(*fresh_env(), {})
        assert hv._cost_of("fn0") > 0

    def test_next_run_loads_persisted_costs(self, tmp_path):
        store = ProofStore(tmp_path)
        HybridVerifier(*fresh_env(), {}, store=store).run(FAST_FNS, jobs=1)
        GLOBAL_COSTS.clear()
        # A later process (simulated by the cleared model) sees the
        # history as soon as it runs against the same store root.
        HybridVerifier(
            *fresh_env(), {}, store=ProofStore(tmp_path)
        ).run([FAST_FNS[0]], jobs=1)
        assert GLOBAL_COSTS.cost(FAST_FNS[-1]) is not None
        assert costs_path(tmp_path).endswith(COSTS_FILENAME)


class TestWarmStore:
    def test_second_run_is_zero_disk_reads(self, tmp_path):
        env = fresh_env()
        store = ProofStore(tmp_path, mem=64, write_behind=True)
        first = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=1)
        assert first.ok
        assert store.pending() == 0  # end_run flushed the buffer
        second = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=1)
        assert _fingerprint(second) == _fingerprint(first)
        assert second.store_stats["hits"] == len(FAST_FNS)
        assert second.store_stats["mem_hits"] == len(FAST_FNS)
        assert second.store_stats["disk_reads"] == 0

    def test_cold_reopen_reads_disk_once_then_memory(self, tmp_path):
        env = fresh_env()
        HybridVerifier(
            *env, {}, store=ProofStore(tmp_path, mem=64, write_behind=True)
        ).run(FAST_FNS, jobs=1)
        store = ProofStore(tmp_path, mem=64)
        warm1 = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=1)
        assert warm1.store_stats["disk_reads"] == len(FAST_FNS)
        warm2 = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=1)
        assert warm2.store_stats["disk_reads"] == 0
        assert warm2.store_stats["mem_hits"] == len(FAST_FNS)


class TestRender:
    def test_verbose_render_shows_scheduler_counters(self):
        report = HybridVerifier(*fresh_env(), {}).run(FAST_FNS, jobs=2)
        rendered = report.render(verbose=True)
        assert "-- sched:" in rendered
        assert "queue wait" in rendered
        assert "steals --" in report.render()  # pool line, non-verbose

    def test_store_line_splits_mem_and_disk(self, tmp_path):
        env = fresh_env()
        store = ProofStore(tmp_path, mem=64)
        HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=1)
        warm = HybridVerifier(*env, {}, store=store).run(FAST_FNS, jobs=1)
        line = [
            l for l in warm.render().splitlines() if l.startswith("-- store:")
        ][0]
        assert f"{len(FAST_FNS)} mem / 0 disk hits" in line
