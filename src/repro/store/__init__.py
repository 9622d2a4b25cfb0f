"""Durable, content-addressed verification store (DESIGN.md §8).

Verified results survive process death: each function's proof entry is
keyed by a stable fingerprint of everything the proof depended on
(:mod:`repro.store.fingerprint`), published atomically with per-entry
checksums (:mod:`repro.store.store`), and recorded in an append-only
run journal (:mod:`repro.store.journal`). A run killed mid-flight —
``kill -9`` of the parent or a pool worker — resumes by re-verifying
only the functions whose entries never landed; corrupt entries are
quarantined and healed by transparent re-verification.

The disk layer is sharded by fingerprint prefix (``layout.json``
stamp, ``REPRO_CACHE_SHARDS``) and can be fronted by a bounded
in-process LRU of decoded entries (:mod:`repro.store.memtier`,
``REPRO_CACHE_MEM``) with write-behind publishes flushed at
checkpoint boundaries — the read-through/write-behind hierarchy of
DESIGN.md §13.
"""

from repro.store.fingerprint import (
    STORE_FORMAT,
    canon,
    function_fingerprint,
    logic_digest,
)
from repro.store.journal import Journal
from repro.store.memtier import MemTier
from repro.store.store import (
    CACHEABLE_STATUSES,
    DEFAULT_SHARDS,
    LAYOUT_FILENAME,
    STORE_STATS,
    ProofStore,
    tier_kwargs_from_env,
)

__all__ = [
    "CACHEABLE_STATUSES",
    "DEFAULT_SHARDS",
    "Journal",
    "LAYOUT_FILENAME",
    "MemTier",
    "ProofStore",
    "STORE_FORMAT",
    "STORE_STATS",
    "canon",
    "function_fingerprint",
    "logic_digest",
    "tier_kwargs_from_env",
]
