#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload unsafe_corpus --seed 1 \\
        --seconds 20 --trace 0

Workloads (the reasons are in ``BENCHMARK.json``):

* ``unsafe_corpus`` — the §6 LinkedList bodies, the E7 client, RawStack,
  RawVec and their negative controls, ``HybridVerifier.run`` at
  ``jobs=1``, fresh solver, no store (:mod:`unsafe_corpus`);
* ``safe_clients`` — seeded safe LinkedList clients, verified at
  ``jobs=nproc`` with a fresh proof store (:mod:`safe_clients`);
* ``daemon_edits`` — a closed-loop client editing contracts against a
  warm ``reprod`` daemon (:mod:`daemon_edits`).

``--trace 0`` prints the end-to-end metrics, each the median of several
samples taken over ``--seconds``:

* ``setup_s`` — imports and input generation, timed in every pass; for
  ``daemon_edits``, daemon start and the two cold submits, median of
  three set-ups;
* ``corpus_s`` — one verification of the whole corpus by
  ``HybridVerifier.run``; for ``daemon_edits``, one block of the request
  stream, in which every editable contract changes once;
* ``req_p50_ms`` / ``req_p90_ms`` — what one caller waits for: one
  function's verification in the corpus workloads, one request to the
  daemon in ``daemon_edits``;
* ``peak_rss_mb`` — peak memory of a corpus pass and its pool workers
  (of the daemon for ``daemon_edits``).

The times are in reference seconds (:mod:`reference`): between samples
the benchmark times a fixed pure-Python workload, and every time of the
run is scaled by ``NOMINAL_S`` over that workload's mean time, which
cancels the drift of a shared host's speed. The wall times are in the
run record under ``wall``, the probes under ``probes_ms``. Where every
pass runs the same functions (or requests), the percentiles are over
each one's median latency; otherwise over all latencies pooled.

Wrong verdicts, true-but-unproven obligations and the failed ratio are
printed in the run record; a wrong verdict makes the result incorrect.

``--trace 1`` is the separate traced run: it wraps each layer's public
entry points (:mod:`tracer`) and prints the per-layer table and metrics.
Each corpus pass runs in a forked child of a process that has not
imported the verifier, so every pass starts cold. The last
line of standard output is the result as one JSON object; the line
before it (``record: {...}``) says what was run, where and how.
``--jobs`` overrides the pool width (``1`` for the deterministic
counter check).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("unsafe_corpus", "safe_clients", "daemon_edits")
#: Daemon set-ups per run; its ``setup_s`` is their median.
SETUPS = 3
#: Corpus passes per run, at least, however short ``--seconds`` is.
MIN_PASSES = 2


# -- helpers -------------------------------------------------------------------


def clean_environment() -> None:
    """Drop every ``REPRO_*`` knob, so neither the benchmark nor the
    daemon it starts runs with settings inherited from the caller."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def in_child(fn):
    """``fn()`` in a forked child; returns its JSON-able result. The
    benchmark process has no threads when it forks."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            data = json.dumps({"ok": fn()})
        except BaseException:
            data = json.dumps({"error": traceback.format_exc()})
        with os.fdopen(w, "w") as fh:
            fh.write(data)
        os._exit(0)
    os.close(w)
    with os.fdopen(r) as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("benchmark child died without a result")
    out = json.loads(data)
    if "error" in out:
        raise RuntimeError(f"benchmark child failed:\n{out['error']}")
    return out["ok"]


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def percentile(values, p: int) -> float:
    """The ``p``-th percentile (1..99) of ``values``."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def peak_rss_mb() -> float:
    """Peak resident memory of this process and its waited children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def source_identity() -> dict:
    """The git sha when the checkout is a repository, and always a
    digest of the verifier's sources."""
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for base in ("src", "scripts"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def pool_width() -> int:
    """The pool width the verifier defaults to (CPUs, cgroup quota)."""
    from repro.parallel import default_jobs

    return default_jobs()


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def probe() -> float:
    """The reference workload's time now (:mod:`reference`), measured
    in a fresh interpreter: neither its heap nor a copy of the caller's
    counts towards the caller's peak memory."""
    out = subprocess.run([sys.executable, os.path.join(HERE, "reference.py")],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout)


def scale(probes) -> float:
    """Wall time to reference time for a run whose samples were taken
    between ``probes``. A sample's time adds up the machine's slowness
    over its span, so the gauge is the run's mean probe."""
    import reference

    return reference.NOMINAL_S / statistics.fmean(probes)


# -- per-layer numbers ----------------------------------------------------------

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    #: ``name -> unit`` for every per-layer metric, in table order.
    PER_LAYER = {m["name"]: m["unit"] for m in json.load(_fh)["per_layer"]}

#: Counters that must repeat exactly between two runs of one seed at
#: ``jobs=1``.
DETERMINISTIC = (
    "solver.check_sat.calls", "solver.branches", "creusot.vcs",
    "gillian.tactic_applications", "parallel.tasks", "service.reverified",
)

#: Program phases (``HybridReport.phase_stats``) standing in for spans
#: that ran inside forked pool workers.
WORKER_PHASES = {
    "hybrid.verify_one.s": ("verify",),
    "gillian.verify_function.s": ("pre", "post", "symex"),
    "pearlite.encode_contract.s": ("encode",),
    "creusot.verify.s": ("vcgen",),
    "solver.check_sat.s": ("solve",),
    "store.get.s": ("store.get",),
    "store.put.s": ("store.put",),
}


def ratio(num, den) -> float:
    return num / den if den else 0.0


def report_counters():
    """Snapshot of the program's own process-wide counters."""
    from repro.obs.metrics import metrics
    from repro.solver.core import GLOBAL_STATS
    from repro.solver.terms import interner_stats
    from repro.store import STORE_STATS

    waits = metrics.snapshot()["histograms"].get("parallel.queue_wait", {})
    return {"solver": dict(GLOBAL_STATS), "store": dict(STORE_STATS),
            "interner": interner_stats(), "pool": {"tasks": waits.get("count", 0)}}


def pass_layers(reports, before, spans, jobs: int) -> dict:
    """Per-layer numbers for one traced corpus pass."""
    after = report_counters()
    d = {g: {k: after[g][k] - before[g].get(k, 0) for k in after[g]}
         for g in after}
    out = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    for name, rec in spans.items():  # every span is a per-layer ``<name>.s``
        out[f"{name}.s"] = rec["self"]
    entries = [e for r in reports for e in r.entries]
    verify = spans.get("hybrid.verify_one", {})
    out["hybrid.verify_one.max_s"] = verify.get("max", 0.0)
    out["solver.check_sat.max_ms"] = spans.get("solver.check_sat", {}).get("max", 0.0) * 1e3
    if jobs > 1:
        # The verification itself ran in pool workers, out of reach of
        # this process's spans: take it from the program's phase table.
        phases = [p for r in reports for p in r.phase_stats.values()]
        for key, names in WORKER_PHASES.items():
            out[key] = sum(p.get(n, {}).get("self", 0.0)
                           for p in phases for n in names)
        out["hybrid.verify_one.max_s"] = max(
            (p.get("verify", {}).get("total", 0.0) for p in phases), default=0.0)
        out["solver.check_sat.max_ms"] = max(
            (q["seconds"] for r in reports for q in r.top_queries), default=0.0) * 1e3
    out["gillian.verify_function.calls"] = sum(e.half == "gillian-rust" for e in entries)
    out["gillian.tactic_applications"] = sum(
        getattr(e.detail.stats, k)
        for e in entries if e.half == "gillian-rust" and e.detail is not None
        for k in ("unfolds", "folds", "gunfolds", "gfolds", "repairs", "auto_updates"))
    out["creusot.vcs"] = sum(e.detail.vcs for e in entries
                             if e.half == "creusot" and e.detail is not None)
    s = d["solver"]
    out["solver.check_sat.calls"] = s["cache_hits"] + s["cache_misses"]
    out["solver.branches"] = s["branches"]
    out["solver.unknowns"] = s["unknowns"]
    out["solver.budget_stops"] = s["budget_stops"]
    out["solver.cache_hit_ratio"] = ratio(s["cache_hits"], s["cache_hits"] + s["cache_misses"])
    i = d["interner"]
    out["solver.interner_hit_ratio"] = ratio(i["hits"], i["hits"] + i["misses"])
    st = d["store"]
    out["store.get.calls"] = spans.get("store.get", {}).get("calls", 0)
    out["store.hit_ratio"] = ratio(st["hits"], st["hits"] + st["misses"])
    out["store.mem_hit_ratio"] = ratio(st["mem_hits"], st["hits"])
    out["store.disk_reads"] = st["disk_reads"]
    out["store.put.calls"] = st["stores"]
    par = {k: sum(r.parallel_stats.get(k, 0) for r in reports)
           for k in ("steals", "queue_wait_s", "worker_failures", "serial_retries")}
    # The scheduler times every task's queue wait, so the wait
    # histogram's count is the number of pool tasks.
    out["parallel.tasks"] = d["pool"]["tasks"]
    out["parallel.steals"] = par["steals"]
    out["parallel.queue_wait_s"] = par["queue_wait_s"]
    out["parallel.worker_failures"] = par["worker_failures"]
    out["parallel.serial_retries"] = par["serial_retries"]
    fan = spans.get("parallel.fanout", {}).get("total", 0.0)
    busy = sum(p.get("verify", {}).get("total", 0.0)
               for r in reports for p in r.phase_stats.values())
    out["parallel.busy_ratio"] = ratio(busy, fan * jobs) if jobs > 1 else 0.0
    return out


def traced_pass(verify_fn, jobs: int) -> dict:
    """One corpus pass with the benchmark's spans installed."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        before = report_counters()
        elapsed, (reports, verdicts) = timed(verify_fn)
    finally:
        tracer.uninstall()
    spans = tracer.summary()
    return {"elapsed": elapsed, "layers": pass_layers(reports, before, spans, jobs),
            "spans": spans, "raw_spans": tracer.spans, "verdicts": verdicts}


# -- workloads -----------------------------------------------------------------


class CorpusWorkload:
    """Shared runner for the two corpus workloads. Each pass runs in a
    forked child of a process that has not imported the verifier, so a
    pass starts cold, as a fresh process would, and times its own
    set-up; set-up samples are spread over the run like the passes."""

    def __init__(self, args, jobs: int) -> None:
        self.args = args
        self.jobs = jobs

    def measure(self, trace: bool) -> dict:
        passes, traced, untraced = [], [], []
        started = time.perf_counter()
        probes = [probe()]
        k = 0
        while k < MIN_PASSES or time.perf_counter() - started < self.args.seconds:
            # The traced run alternates untraced and traced passes over
            # the same input, for the overhead ratio.
            for is_traced in ((False, True) if trace else (False,)):
                p = in_child(lambda: self.one_pass(k, is_traced))
                probes += p.get("probes", []) + [probe()]
                (traced if is_traced else untraced).append(p["elapsed"])
                passes.append(p)
            k += 1
        return {"passes": passes, "traced": traced, "untraced": untraced,
                "probes": probes}

    def one_pass(self, k: int, trace: bool) -> dict:
        t0 = time.perf_counter()
        self.load()
        build_s, inputs = timed(lambda: self.build(k))
        setup_s = time.perf_counter() - t0
        if trace:
            out = traced_pass(self.pass_fn(inputs, lambda: None), self.jobs)
        else:
            probes, paused = [], []

            def between():
                # A probe between the pass's programs, left out of its time.
                t = time.perf_counter()
                probes.append(probe())
                paused.append(time.perf_counter() - t)

            elapsed, (reports, verdicts) = timed(self.pass_fn(inputs, between))
            out = {"elapsed": elapsed - sum(paused), "verdicts": verdicts,
                   "probes": probes,
                   "latencies": {fn: p["verify"]["total"] for r in reports
                                 for fn, p in r.phase_stats.items() if "verify" in p}}
        out.update(setup_s=setup_s, build_s=build_s, rss_mb=peak_rss_mb())
        return out


class UnsafeCorpus(CorpusWorkload):
    #: The same corpus every pass: a latency is a function's median.
    per_item = True

    def load(self) -> None:
        import unsafe_corpus  # noqa: F401  (imports the verifier)

    def build(self, k: int):
        import unsafe_corpus

        return unsafe_corpus.build()

    def pass_fn(self, corpus, between):
        import unsafe_corpus

        def run():
            reports = unsafe_corpus.verify(corpus, between)
            return reports, unsafe_corpus.score(reports)

        return run


class SafeClients(CorpusWorkload):
    #: Each pass draws another corpus: latencies are pooled.
    per_item = False

    def load(self) -> None:
        import safe_clients  # noqa: F401
        import repro.hybrid.pipeline  # noqa: F401
        import repro.store  # noqa: F401

    def build(self, k: int):
        import safe_clients

        # Each pass verifies another corpus drawn from the run's seed, so
        # a run's median covers several inputs of the same make-up.
        return safe_clients.build(self.args.seed * 1000 + k)

    def pass_fn(self, inputs, between):
        import tempfile

        import safe_clients
        from repro.hybrid.pipeline import HybridVerifier
        from repro.rustlib.contracts import LINKED_LIST_CONTRACTS
        from repro.solver import Solver
        from repro.store import ProofStore

        program, ownables, clients = inputs
        names = [c.name for c in clients]

        def run():
            # A fresh store: every result is a store write.
            store = ProofStore(tempfile.mkdtemp(dir=self.args.workdir, prefix="store-"))
            hv = HybridVerifier(program, ownables, LINKED_LIST_CONTRACTS,
                                solver=Solver(), store=store)
            report = hv.run(names, jobs=self.jobs)
            return [report], safe_clients.score(report, clients)

        return run


def corpus_result(m: dict, trace: bool, per_item: bool) -> tuple[dict, dict]:
    """End-to-end (or per-layer) metrics and the verdict summary."""
    verdicts = [p["verdicts"] for p in m["passes"]]
    summary = {
        "wrong": sorted({w for v in verdicts for w in v["wrong"]}),
        "unproven": verdicts[0]["unproven"],
        "failed": sum(len(v["failed"]) for v in verdicts),
        "attempted": sum(v["attempted"] for v in verdicts),
        "passes": len(verdicts),
        "pass_s": [p["elapsed"] for p in m["passes"]],
    }
    if trace:
        first = next(p for p in m["passes"] if "layers" in p)
        layers = dict(first["layers"])
        layers["lang.build_program.s"] = first["build_s"]
        layers["obs.trace_overhead_ratio"] = (
            statistics.median(m["traced"]) / statistics.median(m["untraced"]))
        summary["spans"] = first["spans"]
        summary["raw_spans"] = first["raw_spans"]
        summary["traced_corpus_s"] = first["elapsed"]
        summary["untraced_corpus_s"] = statistics.median(m["untraced"])
        return {k: metric(layers[k], u) for k, u in PER_LAYER.items()}, summary
    summary["latency_samples"] = sum(len(p["latencies"]) for p in m["passes"])
    summary["probes_ms"] = [x * 1e3 for x in m["probes"]]
    summary["wall"] = end_to_end(m["passes"], 1.0, per_item)
    times = end_to_end(m["passes"], scale(m["probes"]), per_item)
    return {**{k: metric(v, UNITS[k]) for k, v in times.items()},
            "peak_rss_mb": metric(max(p["rss_mb"] for p in m["passes"]), "MB")}, summary


#: Units of the timed end-to-end metrics.
UNITS = {"setup_s": "s", "corpus_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms"}


def end_to_end(samples, factor: float, per_item: bool) -> dict:
    """The timed end-to-end metrics of ``samples``, each time multiplied
    by ``factor``: the medians of the samples' ``setup_s`` and
    ``elapsed`` (a corpus pass has both; the daemon's set-ups and
    request blocks have one each) and percentiles of their
    ``latencies`` (``{item: seconds}``). When every sample runs the same
    items, the percentiles are over each item's median; otherwise over
    all latencies pooled."""
    if per_item:
        items: dict = {}
        for p in samples:
            for k, x in p.get("latencies", {}).items():
                items.setdefault(k, []).append(x)
        lat = [statistics.median(v) for v in items.values()]
    else:
        lat = [x for p in samples for x in p.get("latencies", {}).values()]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in samples
                                     if "setup_s" in p) * factor,
        "corpus_s": statistics.median(p["elapsed"] for p in samples
                                      if "elapsed" in p) * factor,
        "req_p50_ms": percentile(lat, 50) * 1e3 * factor,
        "req_p90_ms": percentile(lat, 90) * 1e3 * factor,
    }


def run_daemon(args, jobs: int, trace: bool) -> tuple[dict, dict]:
    import daemon_edits as de

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    originals = de.original_contracts()
    wrong, unproven = [], set()
    attempted = failed = 0
    samples, colds = [], []
    daemon = None
    metrics_path = os.path.join(args.workdir, "daemon-metrics.json")
    try:
        probes = [probe()]
        for i in range(SETUPS):
            last = i == SETUPS - 1
            t0 = time.perf_counter()
            daemon = de.Daemon(ROOT, os.path.join(args.workdir, f"d{i}"), jobs, env,
                               metrics_path=metrics_path if trace and last else None)
            for corpus in de.CORPORA:
                dt, resp = de.submit(daemon, corpus, {})
                attempted += 1
                failed += not de.check_reply(resp, wrong, unproven)
                if corpus == "linked_list":
                    colds.append(dt)
            setup_s = time.perf_counter() - t0
            samples.append({"setup_s": setup_s})
            probes.append(probe())
            if not last:
                daemon.close()
                daemon = None

        overrides = {c: {} for c in de.CORPORA}
        latencies: dict[str, list] = {"resubmit": [], "edit": [], "revert": []}
        counted = {"reverified": 0, "cached": 0}
        serial = 0
        block = de.request_block(args.seed)
        started = time.perf_counter()
        n = 0
        # The traced run sends a fixed number of blocks, so the daemon's
        # lifetime counters repeat from run to run.
        while n < de.MIN_BLOCKS or not trace and time.perf_counter() - started < args.seconds:
            block_started = time.perf_counter()
            paused = 0.0
            block_lat = {}
            for i, (kind, corpus, fn) in enumerate(block):
                if kind == "edit":
                    serial += 1
                    overrides[corpus][fn] = de.edited(originals[corpus][fn], serial)
                elif kind == "revert":
                    overrides[corpus] = {}
                dt, resp = de.submit(daemon, corpus, overrides[corpus])
                attempted += 1
                failed += not de.check_reply(resp, wrong, unproven)
                latencies[kind].append(dt)
                block_lat[i] = dt
                if n < de.MIN_BLOCKS:
                    counted["reverified"] += len(resp.get("reverified", ()))
                    counted["cached"] += len(resp.get("cached", ()))
                if kind == "revert" and corpus == de.CORPORA[-1]:
                    # A round is over: probe, and leave it out of the
                    # block's time.
                    t = time.perf_counter()
                    probes.append(probe())
                    paused += time.perf_counter() - t
            samples.append({"elapsed": time.perf_counter() - block_started - paused,
                            "latencies": block_lat})
            n += 1
        rss = daemon.peak_rss_mb()
    finally:
        if daemon is not None:
            daemon.close()

    summary = {"wrong": sorted(set(wrong)), "unproven": sorted(unproven),
               "failed": failed, "attempted": attempted,
               "latency_samples": sum(len(v) for v in latencies.values()),
               "setups_s": [p["setup_s"] for p in samples if "setup_s" in p],
               "cold_s": colds,
               "blocks_s": [p["elapsed"] for p in samples if "elapsed" in p],
               "probes_ms": [x * 1e3 for x in probes],
               "wall": end_to_end(samples, 1.0, per_item=True),
               "p50_ms_by_kind": {k: statistics.median(v) * 1e3
                                  for k, v in latencies.items()}}
    if not trace:
        times = end_to_end(samples, scale(probes), per_item=True)
        return {**{k: metric(v, UNITS[k]) for k, v in times.items()},
                "peak_rss_mb": metric(rss, "MB")}, summary

    # The daemon's own metrics snapshot, written when it drained: over
    # its whole life, cold submits included.
    with open(metrics_path) as fh:
        snap = json.load(fh)
    groups = snap.get("groups", {})
    s, st, par = groups.get("solver", {}), groups.get("store", {}), groups.get("parallel", {})
    hists = snap.get("histograms", {})
    queries = [h for k, h in hists.items()
               if k.startswith("solver.strategy.") and k.endswith(".seconds")]
    out = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    out.update({
        "solver.check_sat.s": sum(h["total"] for h in queries),
        "solver.check_sat.calls": s.get("cache_hits", 0) + s.get("cache_misses", 0),
        "solver.check_sat.max_ms": max((h["max"] or 0.0 for h in queries), default=0.0) * 1e3,
        "solver.branches": s.get("branches", 0),
        "solver.unknowns": s.get("unknowns", 0),
        "solver.budget_stops": s.get("budget_stops", 0),
        "solver.cache_hit_ratio": ratio(
            s.get("cache_hits", 0), s.get("cache_hits", 0) + s.get("cache_misses", 0)),
        "gillian.tactic_applications": sum(
            v for k, v in snap.get("counters", {}).items() if k.startswith("tactic.")),
        "store.get.calls": counted["cached"] + counted["reverified"],
        "store.hit_ratio": ratio(counted["cached"], counted["cached"] + counted["reverified"]),
        "store.mem_hit_ratio": ratio(st.get("mem_hits", 0), st.get("hits", 0)),
        "store.disk_reads": st.get("disk_reads", 0),
        "store.put.calls": st.get("stores", 0),
        "parallel.steals": par.get("steals", 0),
        "parallel.queue_wait_s": par.get("queue_wait_s", 0.0),
        "parallel.worker_failures": par.get("worker_failures", 0),
        "parallel.serial_retries": par.get("serial_retries", 0),
        "parallel.tasks": hists.get("parallel.queue_wait", {}).get("count", 0),
        "service.warm.p50_ms": statistics.median(latencies["resubmit"]) * 1e3,
        "service.edit.p50_ms": statistics.median(latencies["edit"]) * 1e3,
        "service.reverified": counted["reverified"],
        "service.cached": counted["cached"],
        "obs.trace_overhead_ratio": colds[-1] / statistics.median(colds[:-1]),
    })
    summary["note"] = ("layer times and store/pool counters come from the "
                       "daemon's metrics snapshot and submit replies")
    return {k: metric(out[k], u) for k, u in PER_LAYER.items()}, summary


# -- output ---------------------------------------------------------------------


def print_layer_table(workload: str, metrics: dict, summary: dict) -> None:
    print(f"per-layer table: {workload}")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    spans = summary.get("spans")
    if spans:
        total = sum(rec["self"] for rec in spans.values())
        traced = summary["traced_corpus_s"]
        print(f"  self times sum to {total:.4f} s of a traced corpus_s of "
              f"{traced:.4f} s ({ratio(total, traced):.1%}); untraced corpus_s "
              f"{summary['untraced_corpus_s']:.4f} s")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=None,
                    help="pool width (default: the CPUs available)")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no verifier sources under {ROOT}/src", file=sys.stderr)
        return 2
    clean_environment()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Asked in a child: this process stays clear of the verifier, whose
    # import every pass times.
    jobs = 1 if args.workload == "unsafe_corpus" else (args.jobs or in_child(pool_width))
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs": jobs, "nproc": os.cpu_count(),
        "python": platform.python_version(), **source_identity(),
    }
    args.workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-{os.getpid()}")
    os.makedirs(args.workdir, exist_ok=True)
    trace = bool(args.trace)
    try:
        if args.workload == "daemon_edits":
            metrics, summary = run_daemon(args, jobs, trace)
        else:
            cls = UnsafeCorpus if args.workload == "unsafe_corpus" else SafeClients
            workload = cls(args, jobs)
            metrics, summary = corpus_result(workload.measure(trace), trace,
                                             workload.per_item)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    record["wrong_verdicts"] = len(summary["wrong"])
    record["unproven_true"] = len(summary["unproven"])
    record["failed_ratio"] = ratio(summary["failed"], summary["attempted"])
    if "raw_spans" in summary:
        # The traced pass's spans, written out once the run is over.
        path = os.path.join(ROOT, ".perfbench",
                            f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"record": record, "spans": summary.pop("raw_spans")}, fh)
        record["spans_file"] = os.path.relpath(path, ROOT)
    record.update({k: v for k, v in summary.items() if k != "spans"})
    for w in summary["wrong"]:
        print(f"WRONG VERDICT: {w}")
    for u in summary["unproven"]:
        print(f"unproven (true, not verified): {u}")
    if trace:
        print_layer_table(args.workload, metrics, summary)
        record["deterministic"] = {k: metrics[k]["value"] for k in DETERMINISTIC}
    print("record: " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not summary["wrong"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
