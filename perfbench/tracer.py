"""In-memory spans around the public entry points of each layer, for
the traced run only.

:meth:`Tracer.install` replaces each entry point with a wrapper that
records a span ``(name, start, end, parent)``; :meth:`Tracer.uninstall`
puts the originals back. Nothing under ``src/`` knows about it. A span's self
time is its duration minus the time its child spans cover. Spans are
only seen in the process that records them, so work done in forked
pool workers is taken from the program's own report instead.
"""

from __future__ import annotations

import functools
import time

#: ``(span name, module, attribute path)`` for every wrapped entry
#: point. A function the pipeline imported by name is wrapped in the
#: pipeline's namespace, where the measured calls look it up.
ENTRY_POINTS = (
    ("hybrid.run", "repro.hybrid.pipeline", "HybridVerifier.run"),
    ("hybrid.verify_one", "repro.hybrid.pipeline", "HybridVerifier.verify_one"),
    ("gillian.verify_function", "repro.hybrid.pipeline", "verify_function"),
    ("pearlite.encode_contract", "repro.pearlite.encode",
     "PearliteEncoder.encode_contract"),
    ("creusot.verify", "repro.creusot.vcgen", "CreusotVerifier.verify"),
    ("solver.check_sat", "repro.solver.core", "Solver.check_sat"),
    ("store.get", "repro.store.store", "ProofStore.get"),
    ("store.put", "repro.store.store", "ProofStore.put"),
    ("store.flush", "repro.store.store", "ProofStore.flush"),
    ("store.fingerprint", "repro.hybrid.pipeline", "function_fingerprint"),
    ("parallel.fanout", "repro.hybrid.pipeline", "fanout"),
)


class Tracer:
    def __init__(self) -> None:
        #: ``[name, start, end, parent index]``; ``end`` is set on exit.
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with _Span(tracer, name):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        import importlib

        for name, module, path in ENTRY_POINTS:
            owner = importlib.import_module(module)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """``{name: {"calls", "total", "self", "max"}}`` over every
        closed span, seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            dur = end - start
            rec = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0,
                                        "max": 0.0})
            rec["calls"] += 1
            rec["total"] += dur
            rec["self"] += dur - child[i]
            rec["max"] = max(rec["max"], dur)
        return out


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        t = self.tracer
        parent = t._open[-1] if t._open else None
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, parent])
        t._open.append(self.index)
        return self

    def __exit__(self, *exc) -> bool:
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t._open.pop()
        return False
