"""End-to-end fault tolerance of ``HybridVerifier.run``.

For every failure mode — a worker killed with ``os._exit``, a worker
raising mid-verification, a budget-exhausted function — the pipeline
must return a *complete* report (no exception escapes), with the right
per-entry ``status``, and with every unaffected entry identical to the
``jobs=1`` serial run.
"""

import pytest

from repro import faultinject
from repro.budget import BudgetSpec
from repro.errors import BudgetExhausted
from repro.hybrid.pipeline import HybridVerifier
from repro.obs.metrics import metrics
from repro.parallel import PARALLEL_STATS, fork_available

from tests.robustness.conftest import DIVERGING, FAST_FNS, fingerprint

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="needs fork start method"
)


def make_verifier(small_env, **kw):
    program, ownables = small_env
    return HybridVerifier(program, ownables, {}, **kw)


@pytest.fixture(scope="module")
def serial_baseline(small_env):
    report = make_verifier(small_env).run(FAST_FNS, jobs=1)
    assert report.ok, report.render()
    return report


@needs_fork
class TestKilledWorker:
    def test_recovers_via_serial_retry(self, small_env, serial_baseline):
        """os._exit in a worker breaks the pool; the lost items are
        retried serially in the parent (where the crash rule does not
        fire) and the report comes back whole and identical."""
        metrics.reset("parallel")
        faultinject.install("parallel.worker@fn2:crash")
        report = make_verifier(small_env).run(FAST_FNS, jobs=2)
        assert fingerprint(report) == fingerprint(serial_baseline)
        assert report.ok
        assert PARALLEL_STATS["broken_pools"] >= 1
        assert PARALLEL_STATS["serial_retries"] >= 1

    def test_unrecoverable_crash_is_one_crashed_entry(
        self, small_env, serial_baseline
    ):
        """A crash that also reproduces on serial retry (injected at the
        verifier, so it fires in parent and child alike) degrades into a
        single ``crashed`` entry; every other entry is untouched."""
        faultinject.install("verifier.function@fn1:raise:WorkerCrashed")
        report = make_verifier(small_env).run(FAST_FNS, jobs=2)
        assert len(report.entries) == len(FAST_FNS)
        by_fn = {e.function: e for e in report.entries}
        assert by_fn["fn1"].status == "crashed"
        assert not by_fn["fn1"].ok
        others = [e for e in fingerprint(report) if e[0] != "fn1"]
        expected = [e for e in fingerprint(serial_baseline) if e[0] != "fn1"]
        assert others == expected
        assert report.status == "crashed"
        assert report.counters["crashed"] == 1
        assert report.counters["verified"] == len(FAST_FNS) - 1


class TestRaisingWorker:
    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_internal_error_is_one_error_entry(
        self, small_env, serial_baseline, jobs
    ):
        faultinject.install("verifier.function@fn3:raise:RuntimeError")
        report = make_verifier(small_env).run(FAST_FNS, jobs=jobs)
        by_fn = {e.function: e for e in report.entries}
        assert by_fn["fn3"].status == "error"
        others = [e for e in fingerprint(report) if e[0] != "fn3"]
        expected = [e for e in fingerprint(serial_baseline) if e[0] != "fn3"]
        assert others == expected
        assert report.status == "error"

    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_serial_and_parallel_degrade_identically(self, small_env, jobs):
        faultinject.install("verifier.function@fn0:raise:WorkerCrashed")
        report = make_verifier(small_env).run(FAST_FNS, jobs=jobs)
        assert fingerprint(report)[0] == ("fn0", "gillian-rust", False, "crashed")


class TestBudgetExhaustion:
    @pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
    def test_step_budget_times_out_only_the_diverger(
        self, small_env, serial_baseline, jobs
    ):
        """A per-function step budget stops the diverging function with
        a ``timeout`` entry; the fast functions (far under the budget)
        verify exactly as in the unbudgeted serial run."""
        hv = make_verifier(small_env, budget=BudgetSpec(max_steps=50))
        report = hv.run(FAST_FNS + [DIVERGING], jobs=jobs)
        assert len(report.entries) == len(FAST_FNS) + 1
        by_fn = {e.function: e for e in report.entries}
        assert by_fn[DIVERGING].status == "timeout"
        assert not by_fn[DIVERGING].ok
        unaffected = [e for e in fingerprint(report) if e[0] != DIVERGING]
        assert unaffected == fingerprint(serial_baseline)
        assert report.status == "timeout"
        assert report.counters["timeout"] == 1

    def test_timeout_note_names_the_budget(self, small_env):
        hv = make_verifier(small_env, budget=BudgetSpec(max_steps=50))
        report = hv.run([DIVERGING], jobs=1)
        [entry] = report.entries
        assert entry.status == "timeout"
        detail = entry.detail
        assert detail is not None and detail.status == "timeout"
        assert any("step budget exhausted" in str(i) for i in detail.issues)

    def test_budget_exhausted_never_escapes_run(self, small_env):
        # Even a near-zero budget must produce a complete report.
        hv = make_verifier(
            small_env, budget=BudgetSpec(max_steps=1, max_solver_queries=1)
        )
        report = hv.run(FAST_FNS + [DIVERGING], jobs=1)
        assert len(report.entries) == len(FAST_FNS) + 1
        assert all(
            e.status in ("timeout", "verified") for e in report.entries
        ), report.render()
        assert {e.function: e for e in report.entries}[DIVERGING].status == "timeout"


class TestReportShape:
    def test_render_counts_degraded_entries(self, small_env):
        faultinject.install("verifier.function@fn1:raise:WorkerCrashed")
        hv = make_verifier(small_env, budget=BudgetSpec(max_steps=50))
        report = hv.run(FAST_FNS + [DIVERGING], jobs=1)
        rendered = report.render()
        assert "3 verified, 1 timeout, 1 crashed" in rendered
        assert "ALL VERIFIED" not in rendered

    def test_render_all_verified(self, small_env):
        report = make_verifier(small_env).run(FAST_FNS, jobs=1)
        assert "ALL VERIFIED" in report.render()

    def test_solver_budget_counters_surface_in_render(self, small_env):
        hv = make_verifier(small_env, budget=BudgetSpec(max_solver_queries=2))
        report = hv.run([DIVERGING], jobs=1)
        assert report.solver_stats["budget_stops"] >= 1
        assert "budget stops" in report.render()

    def test_closure_cap_counters_surface_in_render(self):
        from repro.hybrid.pipeline import HybridReport

        clean = HybridReport(solver_stats={"checks": 5, "close_round_caps": 0})
        assert "-- solver:" not in clean.render()
        capped = HybridReport(
            solver_stats={"checks": 5, "close_round_caps": 3, "close_exhaustive_caps": 1}
        )
        rendered = capped.render()
        assert "3 closure round caps" in rendered
        assert "1 exhaustive closure caps" in rendered

    def test_budget_exhausted_is_catchable_at_solver_level(self, small_env):
        """The typed exception (not a bare Exception) is what crosses
        the solver boundary — callers can rely on the taxonomy."""
        program, ownables = small_env
        from repro.solver.core import Solver
        from repro.solver.terms import eq, intlit, fresh_var
        from repro.solver.sorts import INT
        from repro.budget import Budget

        solver = Solver()
        solver.budget = Budget(max_solver_queries=1)
        x = fresh_var("x", INT)
        solver.check_sat([eq(x, intlit(1))])
        with pytest.raises(BudgetExhausted):
            solver.check_sat([eq(x, intlit(2))])
