"""Adversarial verdict cross-checking.

``HybridVerifier.run`` produces per-function verdicts; this package
*attacks* them after the fact, through three passes that share no code
with the proof path they audit:

* **concrete replay** (:mod:`repro.adversary.replay`) — generate
  precondition-satisfying inputs, execute the body on a concrete MIR
  interpreter, and evaluate the Pearlite contract on the results.  A
  verified function violating its contract on a real run is a shipped
  wrong verdict; a refuted function violating it is a confirmed one.
* **mutation probes** (:mod:`repro.adversary.mutate`) — plant
  deterministic bugs in a verified body and re-verify; if no mutant
  can be refuted, the proof demonstrably does not constrain the body
  (``suspect``).
* **differential re-verification** (:mod:`repro.adversary.diff`) —
  re-run a sample of functions with every acceleration layer disabled
  (reference solver search, no proof store, serial) and compare verdicts.

The whole layer is opt-in (``--verify-verdicts`` /
``REPRO_ADVERSARY=1``), budget-bounded, and lives behind the same
fault boundary as the verification path itself: any internal failure —
including an injected ``REPRO_FAULT=adversary.*:raise`` — degrades to
a reported ``cross_check_failed`` status, never a crashed run.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Optional

from repro import faultinject
from repro.budget import BudgetSpec
from repro.obs import clock, span
from repro.obs.metrics import metrics

from repro.adversary.diff import DiffResult, diff_function
from repro.adversary.mutate import ProbeResult, probe_function
from repro.adversary.replay import ReplayResult, replay_function
from repro.adversary.report import (
    ADVERSARY_STATUSES,
    AdversaryEntry,
    AdversaryReport,
)

__all__ = [
    "ADVERSARY_STATUSES",
    "AdversaryConfig",
    "AdversaryEntry",
    "AdversaryReport",
    "cross_check",
]


@dataclass(frozen=True)
class AdversaryConfig:
    """Knobs for one cross-checking run (all env-overridable)."""

    #: Concrete inputs generated per function (``REPRO_ADVERSARY_REPLAYS``).
    replays: int = 4
    #: Mutants re-verified per function before giving up
    #: (``REPRO_ADVERSARY_MUTANTS``).
    mutants: int = 16
    #: Functions differentially re-verified (``REPRO_ADVERSARY_DIFF``);
    #: a seeded sample when the corpus is larger.
    diff_sample: int = 6
    #: Seed for input generation and sampling (``REPRO_ADVERSARY_SEED``).
    seed: int = 0
    #: Wall-clock bound for the whole adversary phase in seconds
    #: (``REPRO_ADVERSARY_DEADLINE``); ``None`` = unbounded.  Functions
    #: left over when it trips are reported ``unchecked``, never dropped.
    deadline: Optional[float] = None
    #: Per-mutant verification deadline (seconds) — each probe gets the
    #: run's own budget further capped by this.
    mutant_deadline: float = 3.0
    #: Per-mutant solver-query cap, same mechanism.
    mutant_queries: int = 4000

    @classmethod
    def from_env(cls, environ: Optional[dict] = None) -> "AdversaryConfig":
        env = os.environ if environ is None else environ

        def _int(key: str, default: int) -> int:
            raw = env.get(key)
            try:
                return int(raw) if raw else default
            except ValueError:
                return default

        raw_deadline = env.get("REPRO_ADVERSARY_DEADLINE")
        try:
            deadline = float(raw_deadline) if raw_deadline else None
        except ValueError:
            deadline = None
        return cls(
            replays=_int("REPRO_ADVERSARY_REPLAYS", cls.replays),
            mutants=_int("REPRO_ADVERSARY_MUTANTS", cls.mutants),
            diff_sample=_int("REPRO_ADVERSARY_DIFF", cls.diff_sample),
            seed=_int("REPRO_ADVERSARY_SEED", cls.seed),
            deadline=deadline,
        )


def enabled_from_env(environ: Optional[dict] = None) -> bool:
    env = os.environ if environ is None else environ
    return env.get("REPRO_ADVERSARY", "").lower() in ("1", "true", "on")


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _group_entries(entries: list) -> dict[str, list]:
    """Entries per function, preserving first-seen order."""
    out: dict[str, list] = {}
    for e in entries:
        out.setdefault(e.function, []).append(e)
    return out


def _diff_targets(names: list[str], config: AdversaryConfig) -> set[str]:
    if len(names) <= config.diff_sample:
        return set(names)
    rng = random.Random(config.seed)
    return set(rng.sample(names, config.diff_sample))


def cross_check(
    verifier, report, config: Optional[AdversaryConfig] = None
) -> AdversaryReport:
    """Cross-check every verified/refuted verdict in ``report``.

    ``verifier`` is the :class:`~repro.hybrid.pipeline.HybridVerifier`
    that produced it.  Returns a complete :class:`AdversaryReport`;
    this function is itself a fault boundary — per-function pass
    failures degrade into ``cross_check_failed`` entries and only a
    failure *outside* any function (a bug in this very loop) escapes,
    to be contained by the pipeline's outer boundary.
    """
    config = config or AdversaryConfig.from_env()
    started = clock.monotonic()
    out = AdversaryReport()
    groups = _group_entries(report.entries)
    checkable = [
        name
        for name, entries in groups.items()
        if any(e.status in ("verified", "refuted") for e in entries)
    ]
    diff_targets = _diff_targets(checkable, config)
    mutant_budget = verifier.budget.capped(
        deadline=config.mutant_deadline,
        max_solver_queries=config.mutant_queries,
    )
    deadline_at = (
        started + config.deadline if config.deadline is not None else None
    )

    for name, entries in groups.items():
        statuses = [e.status for e in entries]
        if not any(s in ("verified", "refuted") for s in statuses):
            out.entries.append(
                AdversaryEntry(
                    name,
                    "unchecked",
                    replay=f"no verified/refuted verdict ({'/'.join(statuses)})",
                )
            )
            continue
        if deadline_at is not None and clock.monotonic() > deadline_at:
            out.entries.append(
                AdversaryEntry(name, "unchecked", replay="adversary deadline hit")
            )
            metrics.inc("adversary.deadline_skips")
            continue
        out.entries.append(
            _check_function(
                verifier,
                name,
                entries,
                config,
                mutant_budget,
                diff=name in diff_targets,
            )
        )

    out.elapsed = clock.monotonic() - started
    for status, n in out.counters.items():
        if n:
            metrics.inc(f"adversary.{status}", n)
    return out


def _check_function(
    verifier, name: str, entries: list, config: AdversaryConfig,
    mutant_budget: BudgetSpec, diff: bool,
) -> AdversaryEntry:
    """Run the three passes for one function and aggregate a status."""
    statuses = [e.status for e in entries]
    all_verified = all(s == "verified" for s in statuses)
    any_refuted = any(s == "refuted" for s in statuses)
    contradicted: list[str] = []
    corroborated = False
    suspect = False
    notes = {"replay": "", "mutation": "", "diff": ""}
    body = verifier.program.bodies.get(name)
    contract = verifier.contracts.get(name)
    # Panic-freedom is only promised where a functional proof ran: the
    # Creusot half (overflow/panic VCs) or a verified Pearlite contract
    # on the Gillian half.  Type-safety-only entries say nothing about
    # panics, so there a panicking replay is not a contradiction.
    panic_proved = any(
        e.status == "verified"
        and (e.half == "creusot" or "functional" in e.note)
        for e in entries
    )

    # -- pass 1: concrete replay -------------------------------------------
    if body is not None:
        try:
            with span("adversary.replay", function=name):
                faultinject.fire("adversary.replay", name)
                rr: ReplayResult = replay_function(
                    verifier.program,
                    body,
                    contract,
                    attempts=config.replays,
                    seed=config.seed,
                    expect_violation=any_refuted,
                    panic_is_violation=panic_proved and not any_refuted,
                )
            metrics.inc("adversary.replay.checked", rr.checked)
            metrics.inc("adversary.replay.skipped", rr.skipped + rr.filtered)
            if any_refuted:
                if rr.violated:
                    corroborated = True
                    notes["replay"] = (
                        f"refutation witnessed concretely "
                        f"({len(rr.violations)}/{rr.checked} runs)"
                    )
                else:
                    notes["replay"] = (
                        f"no concrete witness in {rr.checked} runs "
                        f"({rr.filtered} filtered, {rr.skipped} skipped)"
                    )
            elif rr.violated:
                contradicted.append(f"replay: {rr.violations[0]}")
                notes["replay"] = f"VIOLATION: {rr.violations[0]}"
                metrics.inc("adversary.replay.violations")
            elif rr.checked:
                corroborated = True
                notes["replay"] = f"{rr.checked} concrete runs clean"
            else:
                notes["replay"] = (
                    f"nothing executable ({rr.filtered} filtered, "
                    f"{rr.skipped} skipped)"
                )
        except Exception as e:
            contradicted.append(f"replay pass failed: {e}")
            notes["replay"] = f"PASS FAILED: {e}"
            metrics.inc("adversary.pass_failures")
    else:
        notes["replay"] = "no body (spec-only function)"

    # -- pass 2: mutation probes (verified functions only) ------------------
    if all_verified and body is not None:
        try:
            with span("adversary.mutate", function=name):
                faultinject.fire("adversary.mutate", name)
                pr: ProbeResult = probe_function(
                    verifier, name,
                    max_mutants=config.mutants,
                    budget=mutant_budget,
                )
            metrics.inc("adversary.mutants.tried", pr.tried)
            if pr.killed:
                corroborated = True
                metrics.inc("adversary.mutants.killed")
                notes["mutation"] = f"killed by {pr.killed_by} ({pr.tried} tried)"
            elif pr.tried:
                suspect = True
                notes["mutation"] = (
                    f"no mutant refuted in {pr.tried} tries (vacuous spec?)"
                )
            else:
                notes["mutation"] = "no mutants generated"
        except Exception as e:
            contradicted.append(f"mutation pass failed: {e}")
            notes["mutation"] = f"PASS FAILED: {e}"
            metrics.inc("adversary.pass_failures")

    # -- pass 3: differential re-verification -------------------------------
    if diff:
        try:
            with span("adversary.diff", function=name):
                faultinject.fire("adversary.diff", name)
                dr: DiffResult = diff_function(verifier, name, entries)
            metrics.inc("adversary.diff.runs")
            if dr.match is True:
                corroborated = True
                notes["diff"] = dr.note
            elif dr.match is False:
                contradicted.append(f"diff: {dr.note}")
                notes["diff"] = f"FLIP: {dr.note}"
                metrics.inc("adversary.diff.flips")
            else:
                notes["diff"] = dr.note
        except Exception as e:
            contradicted.append(f"diff pass failed: {e}")
            notes["diff"] = f"PASS FAILED: {e}"
            metrics.inc("adversary.pass_failures")

    if contradicted:
        status = "cross_check_failed"
    elif suspect:
        status = "suspect"
    elif corroborated:
        status = "confirmed"
    else:
        status = "unchecked"
    return AdversaryEntry(
        name, status,
        replay=notes["replay"],
        mutation=notes["mutation"],
        diff=notes["diff"],
    )
