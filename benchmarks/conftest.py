"""Shared fixtures for the experiment benchmarks (see DESIGN.md §4).

Besides the fixtures, this conftest tracks the perf trajectory: at the
end of a benchmark session it writes ``BENCH_PR10.json`` at the repo
root with per-test wall-clock, the aggregate solver counters
(:data:`repro.solver.core.GLOBAL_STATS` — checks, LRU cache
hits/misses/evictions, cross-query prefix-cache hits/misses, branches,
sequence unrolls, plus the robustness
counters: branch-cap unknowns, cooperative-budget stops and closure cap
hits), the pool's
fault/retry counters (:data:`repro.parallel.PARALLEL_STATS` — broken
pools, worker failures, serial retries/fallbacks), the proof-store
counters (:data:`repro.store.STORE_STATS` — hits, misses, quarantines,
heals; all zero unless a bench opts into ``REPRO_CACHE``) and the
term-interner hit rate, so successive PRs can compare like for like
and a silently degraded benchmark run is visible in the record.

Since PR 4 the record also carries the observability aggregates that
accumulate while the benches run: per-function phase timings
(encode / vcgen / symex / solve / store, from
:func:`repro.obs.trace.phases_snapshot`), the slowest solver queries,
and the ``tactic.*`` / ``gillian.*`` counters — so a perf regression
in the record can be localised to a phase without re-running anything.

Since PR 10 it also records the work-stealing scheduler: the pool's
steal / queue-wait counters, the memory-tier vs. disk split of the
proof-store hits, and the E11 scaling curve (elapsed wall-clock per
``jobs`` level with verdict-identity pinned; gauges ``bench.e11.*``).

The pool and store counters are process-global, so an autouse fixture
zeroes them before every benchmark (one bench's retries must not bleed
into the next one's record) and accumulates the per-test deltas into
the session totals that land in the JSON.
"""

import json
import os
import platform
import subprocess
from pathlib import Path

import pytest

from repro.obs import top_queries
from repro.obs.metrics import metrics
from repro.obs.report import metrics_summary
from repro.obs.trace import phases_since
from repro.parallel import PARALLEL_STATS
from repro.rustlib.linked_list import build_program
from repro.rustlib.specs import install_callee_specs
from repro.store import STORE_STATS

_ROOT = Path(__file__).resolve().parent.parent
_BENCH_JSON = _ROOT / "BENCH_PR10.json"

_rows = []
_parallel_totals: dict = {}
_store_totals: dict = {}


@pytest.fixture(autouse=True)
def isolated_global_counters():
    """Zero the pool/store counters per benchmark, accumulate the
    deltas into the session totals for the JSON record."""
    metrics.reset("parallel")
    metrics.reset("store")
    yield
    for k, v in PARALLEL_STATS.items():
        _parallel_totals[k] = _parallel_totals.get(k, 0) + v
    for k, v in STORE_STATS.items():
        _store_totals[k] = _store_totals.get(k, 0) + v
    metrics.reset("parallel")
    metrics.reset("store")


@pytest.fixture(scope="session")
def program_env():
    """One program instance shared across benches (predicates and
    specs are immutable once built)."""
    program, ownables = build_program()
    install_callee_specs(program, ownables)
    return program, ownables


def run_once(benchmark, fn):
    """Time a heavyweight verification once per round (full
    verification runs take ~1s; statistical rounds are pointless)."""
    return benchmark.pedantic(fn, rounds=3, iterations=1, warmup_rounds=0)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when == "call":
        _rows.append(
            {
                "test": item.nodeid,
                "seconds": round(rep.duration, 4),
                "outcome": rep.outcome,
            }
        )


def _machine() -> dict:
    """Where the record was measured: CPUs available to this process,
    the Python version and the checked-out commit (``None`` outside a
    git checkout)."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        nproc = os.cpu_count()
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"nproc": nproc, "python": platform.python_version(), "git_sha": sha}


def pytest_sessionfinish(session, exitstatus):
    if not _rows:
        return
    try:
        from repro.solver.core import GLOBAL_STATS
        from repro.solver.terms import interner_stats
    except ImportError:  # running outside the src tree
        return
    stats = dict(GLOBAL_STATS)
    lookups = stats["cache_hits"] + stats["cache_misses"]
    interner = interner_stats()
    intern_lookups = interner["hits"] + interner["misses"]
    phase_stats = {
        fn: {
            phase: {
                "calls": rec["calls"],
                "total": round(rec["total"], 4),
                "self": round(rec["self"], 4),
            }
            for phase, rec in phases.items()
        }
        for fn, phases in phases_since({}).items()
    }
    snapshot = metrics.snapshot()
    tactic_counts = {
        k: v
        for k, v in sorted(snapshot["counters"].items())
        if k.startswith("tactic.") or k.startswith("gillian.")
    }
    payload = {
        "pr": 10,
        **_machine(),
        "bench_total_seconds": round(sum(r["seconds"] for r in _rows), 3),
        "tests": _rows,
        "solver_stats": stats,
        "solver_cache_hit_rate": (
            round(stats["cache_hits"] / lookups, 4) if lookups else None
        ),
        # Degradation record: solver queries that hit the branch cap
        # (UNKNOWN answers), cooperative-budget stops (timeouts),
        # closures stopped at a round or exhaustive cap, the
        # pool's crash/retry counters and the proof-store's hit/miss/
        # quarantine counters. All zero on a clean, cache-less run.
        "robustness": {
            "solver_unknowns": stats.get("unknowns", 0),
            "solver_budget_stops": stats.get("budget_stops", 0),
            "solver_close_round_caps": stats.get("close_round_caps", 0),
            "solver_close_exhaustive_caps": stats.get("close_exhaustive_caps", 0),
            "parallel": dict(_parallel_totals) or dict(PARALLEL_STATS),
            "store": dict(_store_totals) or dict(STORE_STATS),
        },
        "interner": interner,
        "interner_hit_rate": (
            round(interner["hits"] / intern_lookups, 4) if intern_lookups else None
        ),
        # Observability aggregates (PR 4): where the bench time went,
        # per verified function and phase; the slowest solver queries;
        # the tactic workload; and the full metrics snapshot.
        "phase_stats": phase_stats,
        "top_queries": [
            {**q, "seconds": round(q["seconds"], 4)} for q in top_queries()
        ],
        "tactic_counts": tactic_counts,
        # Work-stealing scheduler (PR 10): the session-total pool
        # counters (steals, queue wait) and the tiered-store split
        # (memory vs. disk hits, raw disk reads). The bench.e11.*
        # gauges inside "metrics" carry the per-jobs scaling curve.
        "scheduler": {
            "steals": _parallel_totals.get("steals", 0),
            "queue_wait_s": round(
                _parallel_totals.get("queue_wait_s", 0.0), 4
            ),
            "store_mem_hits": _store_totals.get("mem_hits", 0),
            "store_disk_hits": _store_totals.get("disk_hits", 0),
            "store_disk_reads": _store_totals.get("disk_reads", 0),
        },
        "metrics": metrics_summary(snapshot),
    }
    _BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
