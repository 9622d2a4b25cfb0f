"""``repro.service`` — the resilient verification service.

A long-lived daemon that keeps parsed programs, the interner-backed
term graph, the solver's caches and a hot proof store resident
across requests, so an edit-verify loop pays for *exactly what
changed* instead of a cold pipeline start per invocation:

* :mod:`.config`     — ``ServiceConfig`` + the ``REPRO_SERVICE_*`` knobs;
* :mod:`.protocol`   — newline-delimited JSON request/response framing;
* :mod:`.corpus`     — the registry of loadable verification corpora;
* :mod:`.invalidate` — the call-graph-aware incremental re-verification
  index (contract edits propagate to transitive callers, body edits
  stay local);
* :mod:`.session`    — one corpus's hot verification state and the
  dirty-set dispatch loop;
* :mod:`.daemon`     — sockets, admission control, load shedding, the
  watchdog, and graceful drain;
* :mod:`.client`     — a small synchronous client.

Entry point: ``scripts/reprod.py``; smoke gate: ``scripts/
service_check.py`` (the CI ``service-smoke`` job).
"""

from repro.service.client import ServiceClient
from repro.service.config import ServiceConfig
from repro.service.corpus import Corpus, corpus_names, load_corpus, register_corpus
from repro.service.daemon import VerifierDaemon
from repro.service.invalidate import (
    InvalidationIndex,
    call_graph,
    reverse_graph,
    transitive_callers,
)
from repro.service.session import ServiceSession

__all__ = [
    "Corpus",
    "InvalidationIndex",
    "ServiceClient",
    "ServiceConfig",
    "ServiceSession",
    "VerifierDaemon",
    "call_graph",
    "corpus_names",
    "load_corpus",
    "register_corpus",
    "reverse_graph",
    "transitive_callers",
]
