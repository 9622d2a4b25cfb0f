"""The ``daemon_edits`` workload: one closed-loop client editing
contracts against a warm verification daemon.

Set-up starts ``scripts/reprod.py`` with a fresh proof store and
cold-submits the ``linked_list`` and ``demo`` corpora. The load is a
seeded request stream in blocks; each block holds:

* one contract edit of every function in :data:`EDITABLE`, made by
  appending a fresh tautology to its ``ensures`` (a new fingerprint,
  so the edit cone is re-verified and written to the store, while the
  known verdict stays the same);
* twice as many unchanged resubmits, half to each corpus
  (fingerprinting and invalidation only);
* :data:`REVERTS` reverts of each corpus to its original contracts
  (store reads, plus forced re-verification of transitive callers).

A block is :data:`REVERTS` rounds. A round sends its share of the
resubmits, then its share of the edits, then reverts both corpora; the
seed picks which functions each round edits and the order within each
part. The resubmits come first, so each sends the original contracts
and costs the same whatever the seed; a revert's cost grows with the
number of edits it undoes, so each round undoes the same number of
edits per corpus. The run repeats the seed's block, so that each
request's latency can be taken as its median over the repetitions; a
seed changes the order of the work, not its amount. The client sends the next request only when
the previous reply has arrived (one connection, closed loop). Every
contract holds (the corpora are correct and edits add tautologies), so
each reply is scored against that, not against the daemon's verdicts.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import time

from repro.rustlib.contracts import LINKED_LIST_CONTRACTS
from repro.service.client import ServiceClient
from repro.service.corpus import DEMO_FNS

CORPORA = ("linked_list", "demo")

#: Functions whose contract an edit may extend. ``front_mut`` has no
#: functional contract (§7.1): adding one would change what is proven.
EDITABLE = (
    ("linked_list", "LinkedList::new"),
    ("linked_list", "LinkedList::push_front_node"),
    ("linked_list", "LinkedList::pop_front_node"),
    ("linked_list", "LinkedList::push_front"),
    ("linked_list", "LinkedList::pop_front"),
    ("linked_list", "LinkedList::len"),
    ("linked_list", "LinkedList::is_empty"),
) + tuple(("demo", f) for f in DEMO_FNS)

#: Per corpus and block.
RESUBMITS = len(EDITABLE)
REVERTS = 2
#: Blocks every run sends, and all that a traced run sends: the load's
#: counters cover these (later blocks only add latency samples).
MIN_BLOCKS = 3

#: The wrappers' functional specs are true but not proven today (the
#: callee's contract does not carry the observation across the call).
UNPROVEN_TRUE = {"LinkedList::push_front", "LinkedList::pop_front"}


def original_contracts() -> dict:
    demo = {name: {"ensures": ["result == x"]} for name in DEMO_FNS}
    return {"linked_list": LINKED_LIST_CONTRACTS, "demo": demo}


def request_block(seed: int) -> list:
    """The seed's block of ``("resubmit" | "edit" | "revert", corpus,
    function)``: :data:`REVERTS` rounds, each ending in reverts."""
    rng = random.Random(seed)
    resubmits = [[] for _ in range(REVERTS)]
    edits = [[] for _ in range(REVERTS)]
    for corpus in CORPORA:
        fns = [f for c, f in EDITABLE if c == corpus]
        rng.shuffle(fns)
        for i in range(REVERTS):
            edits[i] += [("edit", corpus, f) for f in fns[i::REVERTS]]
            resubmits[i] += [("resubmit", corpus, None)] * len(range(i, RESUBMITS, REVERTS))
    block = []
    for part in zip(resubmits, edits):
        for r in part:
            rng.shuffle(r)
            block += r
        block += [("revert", corpus, None) for corpus in CORPORA]
    return block


class Daemon:
    """A ``reprod`` subprocess with its own store and socket under
    ``workdir``, and one client connection to it."""

    def __init__(self, root: str, workdir: str, jobs: int, env: dict,
                 metrics_path: "str | None" = None) -> None:
        os.makedirs(workdir, exist_ok=True)
        # A relative socket path keeps within the Unix socket path limit
        # however deep the checkout is.
        self.socket = os.path.relpath(os.path.join(workdir, "d.sock"), root)
        env = dict(env)
        if metrics_path is not None:
            env["REPRO_METRICS"] = metrics_path
        self._log = open(os.path.join(workdir, "reprod.log"), "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join("scripts", "reprod.py"),
             "--socket", self.socket, "--jobs", str(jobs),
             "--cache-dir", os.path.join(workdir, "store")],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self.client = ServiceClient.connect(self.socket, timeout=120.0,
                                                wait=60.0)
        except OSError:
            self.close()
            raise

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the daemon")

    def close(self) -> None:
        """Drain the daemon and wait for it to exit."""
        client = getattr(self, "client", None)
        if client is not None:
            try:
                client.shutdown()
            except OSError:
                pass
            client.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


def submit(daemon: Daemon, corpus: str, overrides: dict) -> tuple[float, dict]:
    msg = {"op": "submit", "corpus": corpus}
    if overrides:
        msg["contracts"] = overrides
    t0 = time.perf_counter()
    resp = daemon.client.request(msg)
    return time.perf_counter() - t0, resp


def check_reply(resp: dict, wrong: list, unproven: set) -> bool:
    """Score one submit reply; ``False`` if it failed. Every function of
    both corpora is correct and every edit keeps its contract true, so
    each should verify; a refuted one is a wrong verdict unless it is
    one of the known unproven ones."""
    if "functions" not in resp:
        return False
    ok = True
    for fn, status in resp["functions"].items():
        if status not in ("verified", "refuted"):
            ok = False
        elif status == "refuted":
            if fn in UNPROVEN_TRUE:
                unproven.add(fn)
            else:
                wrong.append(f"{fn}: refuted, but its contract holds")
    return ok


def edited(contract: dict, serial: int) -> dict:
    """``contract`` plus a tautology no earlier edit used."""
    out = {k: list(v) for k, v in contract.items()}
    out["ensures"] = out.get("ensures", []) + [f"{serial} < {serial} + 1"]
    return out
