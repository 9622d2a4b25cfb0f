"""Satisfiability and entailment checking.

The solver decides (a useful fragment of) quantifier-free first-order
logic with equality, linear machine-integer arithmetic, sequences,
options and tuples — the fragment that the Gillian-Rust pipeline emits.

Architecture: a small DNF-style search splits formulas into conjunctive
branches (disjunctions come from enum/`match` reasoning and are shallow
in practice); each branch is decided by a *theory branch* combining

* a congruence closure (:mod:`repro.solver.union_find`) for equality,
  constructor injectivity/distinctness;
* a linear store (:mod:`repro.solver.intervals`) for bounds;
* structural propagation rules connecting the two (selectors compute
  over constructors, ``len(s) = 0  ⇒  s = empty``, ...).

Soundness contract: :data:`UNSAT` is only ever reported when a branch
is *refuted* by sound inferences, so entailment answers are trustworthy.
``SAT`` means "no refutation found" and is where the (deliberate)
incompleteness lives — a verification that fails because of it is a
false alarm, never a false proof.

Performance architecture: the search is *incremental*. One
:class:`TheoryBranch` is threaded through the whole DNF search;
literals are asserted as they are discovered, and disjunctions
bracket each alternative with :meth:`TheoryBranch.push` /
:meth:`TheoryBranch.pop` (trail-based undo in the congruence closure
and the linear store). Sibling branches therefore share the
common-prefix closure — including Fourier-Motzkin combinations —
instead of recomputing it per branch, and the pending work-list is a
persistent cons-list so the disjunction fan-out never copies it.
Closure is incremental too: structural rules revisit only the terms
the congruence closure touched since the previous round, and a
sequence is unrolled only when something consumes its elements.

The sharing extends *across* queries: an entailment query is
``pc + [¬goal]``, and consecutive queries from one symbolic state
repeat ``pc``. The literal conjuncts of a query's prefix are closed
exhaustively once into a branch kept in a small per-solver LRU, and
the goal is searched on top of it (DESIGN.md §10);
``Solver(reuse_prefixes=False)`` is the reference search without it.
The cross-query result cache is a bounded LRU (capacity via the
``REPRO_SOLVER_CACHE`` knob). Both caches count hits and misses in
:attr:`Solver.stats`.
"""

from __future__ import annotations

import enum
import os
import warnings
from collections import OrderedDict
from typing import Callable, Iterable, Optional, Sequence

from repro import faultinject
from repro.errors import BudgetExhausted  # re-exported; was defined here
from repro.obs import clock
from repro.obs import trace as obs_trace
from repro.obs.metrics import metrics
from repro.solver.intervals import LinearStore
from repro.solver.sorts import BOOL, INT, OptionSort, SeqSort
from repro.solver.terms import (
    FALSE,
    TRUE,
    App,
    BoolLit,
    IntLit,
    Term,
    Var,
    add,
    and_,
    eq,
    fresh_var,
    intlit,
    is_some,
    none,
    not_,
    or_,
    rebuild,
    seq_cons,
    seq_empty,
    seq_head,
    seq_len,
    seq_tail,
    some,
    substitute,
    subterms,
)


class Status(enum.Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


_SELECTOR_OPS = {
    "seq.head",
    "seq.tail",
    "seq.len",
    "seq.at",
    "seq.last",
    "seq.append",
    "some.val",
    "is_some",
}

_ZERO = intlit(0)

#: Terms whose presence over a sequence's class asks for it to be
#: unrolled (see :meth:`TheoryBranch._unroll_nonempty`).
_CONSUMER_OPS = {"seq.head", "seq.tail", "seq.at", "seq.last", "seq.append"}

# Branch trail entry tags.
_U_SEQ = 0  # (tag, term)   un-register a sequence term
_U_LEN = 1  # (tag, term)   un-register the newest length term
_U_MADE = 2  # (tag, term)  forget an unroller-made selector
_U_MENTION = 3  # (tag, term)  a literal mentioned an unroller-made one


class TheoryBranch:
    """One conjunctive branch of the search.

    Incremental: :meth:`push` / :meth:`pop` bracket speculative
    assertions (one disjunct of a DNF split), undoing them via the
    trails of the congruence closure, the linear store and the branch
    itself, so sibling branches reuse the shared-prefix closure instead
    of rebuilding it.

    ``tick(key)`` counts closure events: ``unrolls``, and the cap hits
    ``close_round_caps`` / ``close_exhaustive_caps`` (the search passes
    :meth:`Solver._tick`).
    """

    def __init__(self, tick: Callable[[str], None]) -> None:
        from repro.solver.union_find import CongruenceClosure

        self.cc = CongruenceClosure()
        self.lin = LinearStore()
        self.tick = tick
        # Sequence terms whose length is known non-negative.
        self._seq_terms: set[Term] = set()
        # Every seq.len term, in discovery order (a dict, so that undo
        # pops the newest).
        self._lens: dict[Term, None] = {}
        # head/tail terms the unroller created and no literal mentions:
        # they are not consumers.
        self._made: set[Term] = set()
        self._trail: list[tuple] = []
        self._frames: list[tuple] = []
        # True when literals were asserted since the last close().
        self._dirty = False

    # -- backtracking -------------------------------------------------------

    def push(self) -> None:
        self.cc.push()
        self.lin.push()
        self._frames.append((len(self._trail), self._dirty))

    def pop(self) -> None:
        mark, self._dirty = self._frames.pop()
        trail = self._trail
        while len(trail) > mark:
            tag, t = trail.pop()
            if tag == _U_SEQ:
                self._seq_terms.discard(t)
            elif tag == _U_LEN:
                self._lens.popitem()
            elif tag == _U_MADE:
                self._made.discard(t)
            else:  # _U_MENTION
                self._made.add(t)
        self.lin.pop()
        self.cc.pop()

    def _record(self, tag: int, t: Term) -> None:
        if self._frames:
            self._trail.append((tag, t))

    # -- assertion ----------------------------------------------------------

    def assert_literal(self, lit: Term) -> None:
        if self.conflict():
            return
        self._dirty = True
        self._register_subterms(lit)
        if self._made:
            # A selector a literal mentions is demand, whoever made it.
            for s in subterms(lit):
                if s in self._made:
                    self._made.discard(s)
                    self._record(_U_MENTION, s)
        if isinstance(lit, BoolLit):
            if not lit.value:
                self.lin.conflict = True
                self.lin.conflict_reason = "literal false"
            return
        if isinstance(lit, App) and lit.op == "not":
            self._assert_atom(lit.args[0], positive=False)
        else:
            self._assert_atom(lit, positive=True)

    def _assert_atom(self, atom: Term, positive: bool) -> None:
        if isinstance(atom, App) and atom.op == "=":
            a, b = atom.args
            if positive:
                self.cc.union(a, b)
                if a.sort.is_numeric():
                    self.lin.assert_eq(a, b)
            else:
                self.cc.assert_diseq(a, b)
            return
        if isinstance(atom, App) and atom.op in ("<=", "<"):
            a, b = atom.args
            strict = atom.op == "<"
            if positive:
                self.lin.assert_le(a, b, strict)
            else:
                self.lin.assert_le(b, a, not strict)
            return
        if isinstance(atom, App) and atom.op == "is_some":
            (x,) = atom.args
            assert isinstance(x.sort, OptionSort)
            if positive:
                v = fresh_var("sk_some", x.sort.elem)
                self.cc.union(x, some(v))
            else:
                self.cc.union(x, none(x.sort.elem))
            return
        # Generic boolean atom (including uninterpreted predicates).
        self.cc.union(atom, TRUE if positive else FALSE)

    def _register_subterms(self, lit: Term) -> None:
        for s in subterms(lit):
            # Intern everything so congruence and structural propagation
            # see terms even when they only occur in arithmetic literals.
            self.cc.find(s)
            if isinstance(s.sort, SeqSort) and s not in self._seq_terms:
                self._seq_terms.add(s)
                self._record(_U_SEQ, s)
                self.lin.assert_le(intlit(0), seq_len(s), strict=False)

    # -- closure ------------------------------------------------------------

    def close(self) -> None:
        """Run theory combination to a bounded fixpoint.

        Each round exchanges equalities between the congruence closure
        and the linear store, propagates bounds, and runs the structural
        rules over the closure's work-list (terms interned or
        re-canonicalised since the previous round). After 20 rounds with
        inferences still flowing the call stops short of a fixpoint: the
        branch stays dirty so a later call resumes, and the hit is
        counted as ``close_round_caps``."""
        if not self._dirty:
            return
        self._dirty = False
        for _ in range(20):
            if self.conflict():
                return
            changed = False
            if self._exchange_equalities():
                changed = True
            if self.lin.propagate():
                changed = True
            if self._structural_propagation():
                changed = True
            if not changed:
                return
        self._dirty = True
        self.tick("close_round_caps")

    def _exchange_equalities(self) -> bool:
        changed = False
        while self.lin.pending_eqs:
            a, b = self.lin.pending_eqs.pop()
            if not self.cc.are_equal(a, b):
                self.cc.union(a, b)
                changed = True
        while self.cc.pending_arith:
            a, b = self.cc.pending_arith.pop()
            if a.sort == INT and not self.cc.conflict:
                self.lin.assert_eq(a, b)
                changed = True
        return changed

    def _structural_propagation(self) -> bool:
        """Selectors over constructors, for the terms the closure
        touched since the last round (a term whose argument
        representatives did not change has nothing new to rebuild);
        then the length rules for every ``seq.len`` term, whose
        lower bounds move with the linear store, not the closure."""
        changed = False
        cc = self.cc
        for t in cc.take_touched():
            op = t.op
            if op in _SELECTOR_OPS or op.startswith("tuple."):
                rep_args = tuple(cc.find(a) for a in t.args)
                if rep_args != t.args:
                    simplified = rebuild(op, rep_args, t.sort)
                    if simplified != t and not cc.are_equal(t, simplified):
                        cc.union(t, simplified)
                        if (
                            t.sort == INT
                            and isinstance(simplified, (IntLit, App, Var))
                        ):
                            self.lin.assert_eq(t, simplified)
                        changed = True
                if op == "seq.len" and t not in self._lens:
                    self._lens[t] = None
                    self._record(_U_LEN, t)
        for t in self._lens:
            (s,) = t.args
            if cc.are_equal(t, _ZERO):
                empty = seq_empty(s.sort.elem)  # type: ignore[union-attr]
                if not cc.are_equal(s, empty):
                    cc.union(s, empty)
                    changed = True
            elif self._unroll_nonempty(t, s):
                changed = True
        return changed

    def _unroll_nonempty(self, len_term: Term, s: Term) -> bool:
        """``|s| ≥ 1 ⇒ s = cons(head s, tail s)`` with
        ``|tail s| = |s| - 1`` — the sequence unrolling axiom.

        Demand-driven: it fires only when the length's lower bound is
        at least 1 *and* the class of ``s`` has a consumer — a
        ``seq.head`` / ``seq.tail`` / ``seq.at`` / ``seq.last`` /
        ``seq.append`` term over any member of the class. The head and
        tail terms an unroll creates are not consumers unless a literal
        mentions them, so a long sequence (``|s| = 2^64-1``) unrolls
        only as deep as its consumers reach, not until a cap stops it.
        Demand is read from the class's use-list, not from the literals:
        simplifying ``append(l, r)`` over an unrolled ``l`` creates
        ``append(tail l, r)``, which no literal mentions but which needs
        ``tail l`` unrolled (DESIGN.md §6)."""
        cc = self.cc
        rep = cc.find(s)
        if isinstance(rep, App) and rep.op in ("seq.cons", "seq.empty"):
            return False
        made = self._made
        if not any(u.op in _CONSUMER_OPS and u not in made for u in cc.uses(rep)):
            return False
        lo, _ = self.lin.value_range(len_term)
        if lo is None or lo < 1:
            return False
        head, tail = seq_head(s), seq_tail(s)
        known = cc.known_terms()
        new = [u for u in (head, tail) if u not in known]
        cc.union(s, seq_cons(head, tail))
        for u in new:
            made.add(u)
            self._record(_U_MADE, u)
        tail_len = seq_len(tail)
        self.lin.assert_eq(tail_len, add(len_term, intlit(-1)))
        self._register_subterms(tail_len)
        self.tick("unrolls")
        return True

    def close_exhaustive(self, max_calls: int = 8) -> None:
        """Run :meth:`close` to a *true* fixpoint, or until ``max_calls``
        round-capped calls; stopping there is counted as
        ``close_exhaustive_caps`` (no query of the §6 corpus, RawStack
        or RawVec reaches it, nor the round cap).

        The search decides every fully-asserted leaf with this, so the
        leaf verdict is a function of the asserted literal set alone —
        independent of how many intermediate ``close()`` calls ran on
        the way down, and of whether the literals were closed in an
        earlier query's cached prefix. That independence is what makes
        prefix reuse verdict-preserving by construction."""
        for _ in range(max_calls):
            self.close()
            if not self._dirty or self.conflict():
                return
        self.tick("close_exhaustive_caps")

    def conflict(self) -> bool:
        return self.cc.conflict or self.lin.conflict


# ---------------------------------------------------------------------------
# Branch search
# ---------------------------------------------------------------------------


class _BranchCapReached(Exception):
    """Internal: the per-query ``branch_budget`` cap was hit. Caught by
    :meth:`Solver.check_sat` and reported as :data:`Status.UNKNOWN` —
    deliberate incompleteness, not a failure. Distinct from the
    cooperative :class:`~repro.errors.BudgetExhausted`, which must
    propagate to the verifier and become a ``timeout`` verdict."""


#: Process-wide aggregate of every Solver instance's counters, so the
#: benchmark harness can report totals without threading solver handles
#: through each experiment.
GLOBAL_STATS = metrics.register_legacy(
    "solver",
    {
        "checks": 0,
        "cache_hits": 0,
        "cache_misses": 0,
        "cache_evictions": 0,
        "branches": 0,
        "unknowns": 0,
        "budget_stops": 0,
        "unrolls": 0,
        "close_round_caps": 0,
        "close_exhaustive_caps": 0,
        "prefix_hits": 0,
        "prefix_misses": 0,
    },
)


#: Per-query latency instruments. ``perfbench`` builds its
#: ``solver.check_sat`` rows from the ``solver.strategy.*.seconds``
#: histograms, so the name keeps that prefix.
_QUERY_METRIC = "solver.strategy.search"

#: Closed literal prefixes each solver keeps (each holds a whole
#: TheoryBranch; the query stream alternates between a handful of
#: symbolic states at a time).
PREFIX_SLOTS = 4


def _find_ite(t: Term) -> Optional[App]:
    """The first ``ite`` application in ``t`` (to lift), if any."""
    for s in subterms(t):
        if isinstance(s, App) and s.op == "ite":
            return s
    return None


def _splits(f: Term) -> bool:
    """Whether the search case-splits on ``f`` (a disjunction, a
    negated ``and``/``or``, a numeric disequality or anything holding
    an ``ite``) instead of asserting it as a literal."""
    if not isinstance(f, App):
        return False
    if f.op == "or":
        return True
    if f.op == "not":
        inner = f.args[0]
        if isinstance(inner, App) and (
            inner.op in ("and", "or")
            or (inner.op == "=" and inner.args[0].sort.is_numeric())
        ):
            return True
    return _find_ite(f) is not None


def _split_prefix(prefix: Sequence[Term]) -> tuple[list[Term], list[Term]]:
    """``and``-flatten a query prefix into its literal conjuncts and the
    residue (``FALSE`` or anything that case-splits) that the search
    decides on top of them."""
    lits: list[Term] = []
    residue: list[Term] = []
    for f in prefix:
        stack = [f]
        while stack:
            g = stack.pop()
            if isinstance(g, App) and g.op == "and":
                stack.extend(g.args)
            elif g == TRUE:
                continue
            elif g != FALSE and not _splits(g):
                lits.append(g)
            else:
                residue.append(g)
    return lits, residue


def _describe_query(fs: Sequence[Term]) -> str:
    """A short human-readable rendering of a query, for the top-K
    slowest-queries table (computed lazily — only when a query is slow
    enough to enter the table, or when tracing is on)."""
    if not fs:
        return "<empty>"
    body = " & ".join(str(f) for f in fs[:4])
    if len(fs) > 4:
        body += f" & ... ({len(fs)} conjuncts)"
    return body if len(body) <= 160 else body[:157] + "..."


#: Default LRU capacity when neither the constructor nor the
#: ``REPRO_SOLVER_CACHE`` knob says otherwise. Hits come from queries
#: repeated within one function's verification (at most ~650 misses per
#: solver on the §6 corpus); fresh variables make queries of different
#: verifications distinct, so a long-lived solver (the daemon's) gains
#: nothing from more entries and would only keep their terms alive.
DEFAULT_CACHE_CAPACITY = 1024


def _cache_capacity_from_env(environ: Optional[dict] = None) -> int:
    env = os.environ if environ is None else environ
    raw = env.get("REPRO_SOLVER_CACHE")
    if not raw:
        return DEFAULT_CACHE_CAPACITY
    try:
        capacity = int(raw)
    except ValueError:
        capacity = 0
    if capacity < 1:
        warnings.warn(
            f"REPRO_SOLVER_CACHE={raw!r} is not a positive integer; "
            f"using the default ({DEFAULT_CACHE_CAPACITY})",
            RuntimeWarning,
            stacklevel=3,
        )
        return DEFAULT_CACHE_CAPACITY
    return capacity


class Solver:
    """Facade: check satisfiability / entailment with caching.

    The cross-query result cache is a bounded LRU (``cache_capacity``
    entries, default from ``REPRO_SOLVER_CACHE``); hit/miss/eviction
    counters and the configured capacity live in :attr:`stats`.

    ``reuse_prefixes`` (default on) keeps the closed literal prefixes of
    recent queries in a :data:`PREFIX_SLOTS`-entry LRU and decides each
    query's goal on top of the cached branch (``prefix_hits`` /
    ``prefix_misses`` in :attr:`stats`). ``reuse_prefixes=False`` is the
    reference search — every query from a fresh branch — which the
    adversary's differential pass re-verifies with.

    :attr:`budget` (a :class:`repro.budget.Budget` or ``None``) is the
    cooperative per-function budget: every cache-missing query ticks
    it, and every explored branch ticks it, so deadlines and query
    budgets interrupt even a single long-running query. Exhaustion
    raises :class:`~repro.errors.BudgetExhausted` out of
    :meth:`check_sat` — unlike the per-query ``branch_budget`` cap,
    which merely degrades the answer to :data:`Status.UNKNOWN`.
    """

    def __init__(
        self,
        branch_budget: int = 4096,
        cache_capacity: Optional[int] = None,
        *,
        reuse_prefixes: bool = True,
    ) -> None:
        self.branch_budget = branch_budget
        if cache_capacity is None:
            cache_capacity = _cache_capacity_from_env()
        self.cache_capacity = cache_capacity
        self.reuse_prefixes = reuse_prefixes
        self.budget = None  # Optional[repro.budget.Budget]
        self._cache: OrderedDict[frozenset, Status] = OrderedDict()
        #: literal tuple -> (closed TheoryBranch, conflict)
        self._prefixes: OrderedDict[tuple, tuple[TheoryBranch, bool]] = OrderedDict()
        self.stats = {
            "checks": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_evictions": 0,
            "cache_capacity": cache_capacity,
            "branches": 0,
            "unknowns": 0,
            "budget_stops": 0,
            "unrolls": 0,
            "close_round_caps": 0,
            "close_exhaustive_caps": 0,
            "prefix_hits": 0,
            "prefix_misses": 0,
        }

    def _tick(self, key: str, n: int = 1) -> None:
        self.stats[key] += n
        GLOBAL_STATS[key] += n

    # -- public API ----------------------------------------------------------

    def check_sat(self, formulas: Iterable[Term]) -> Status:
        faultinject.fire("solver.check_sat")
        fs = [f for f in formulas if f != TRUE]
        key = frozenset(fs)
        cache = self._cache
        hit = cache.get(key)
        if hit is not None:
            cache.move_to_end(key)
            self._tick("cache_hits")
            return hit
        if self.budget is not None:
            try:
                self.budget.tick_solver("check_sat")
            except BudgetExhausted:
                self._tick("budget_stops")
                raise
        self._tick("checks")
        self._tick("cache_misses")
        tracing = obs_trace.enabled()
        if tracing:
            obs_trace.emit("B", "solve", {"query": _describe_query(fs)})
        t0 = clock.now()
        try:
            if FALSE in fs:
                result = Status.UNSAT
            else:
                try:
                    result = self._decide(fs)
                except _BranchCapReached:
                    result = Status.UNKNOWN
                    self._tick("unknowns")
                except BudgetExhausted:
                    # The cooperative budget interrupted the search mid-way:
                    # the result is unknown but must NOT be cached (a later,
                    # fresh-budget run should get a real answer) and must
                    # propagate so the caller reports a timeout verdict.
                    self._tick("budget_stops")
                    raise
        finally:
            # Every cache-missing query is timed and attributed to the
            # enclosing span's function — in the finally so the B event
            # stays balanced and the phase table stays honest even when
            # BudgetExhausted aborts the search.
            dur = clock.now() - t0
            if tracing:
                obs_trace.emit("E", "solve")
            obs_trace.record_phase(obs_trace.current_function(), "solve", dur)
            obs_trace.record_query(dur, lambda: _describe_query(fs))
        metrics.inc(f"{_QUERY_METRIC}.queries")
        metrics.observe(f"{_QUERY_METRIC}.seconds", dur)
        cache[key] = result
        if len(cache) > self.cache_capacity:
            cache.popitem(last=False)
            self._tick("cache_evictions")
        return result

    def is_sat(self, formulas: Iterable[Term]) -> bool:
        return self.check_sat(formulas) != Status.UNSAT

    def entails(self, pc: Sequence[Term], goal: Term) -> bool:
        """``pc ⊨ goal`` — sound: True only when proven."""
        if goal == TRUE:
            return True
        return self.check_sat(list(pc) + [not_(goal)]) == Status.UNSAT

    def equal_under(self, pc: Sequence[Term], a: Term, b: Term) -> bool:
        return self.entails(pc, eq(a, b))

    # -- search ----------------------------------------------------------------

    def _decide(self, fs: list[Term]) -> Status:
        """Search a cache-missing query that contains no ``FALSE``.

        With prefix reuse and at least two formulas, the literal
        conjuncts of ``fs[:-1]`` (an entailment query's path condition)
        come closed from :meth:`_prefix`; the last formula (the negated
        goal) and the prefix's splitting residue are searched on top,
        between ``push`` and ``pop``, so the cached branch is left as
        found even when the search is interrupted. A closed prefix is
        the asserted literal set plus sound consequences only, and
        leaves still end in ``close_exhaustive``, so the verdict is the
        reference search's."""
        if not self.reuse_prefixes or len(fs) < 2:
            return self._search_on(fs, TheoryBranch(self._tick))
        lits, residue = _split_prefix(fs[:-1])
        branch, conflict = self._prefix(tuple(lits))
        if conflict:
            # A refuted literal set refutes every extension.
            return Status.UNSAT
        branch.push()
        try:
            return self._search_on([fs[-1], *residue], branch)
        finally:
            branch.pop()

    def _prefix(self, lits: tuple) -> tuple[TheoryBranch, bool]:
        """The exhaustively closed branch of ``lits`` and whether it is
        refuted, from the prefix LRU or built (and cached) now."""
        cache = self._prefixes
        entry = cache.get(lits)
        if entry is not None:
            cache.move_to_end(lits)
            self._tick("prefix_hits")
            return entry
        self._tick("prefix_misses")
        branch = TheoryBranch(self._tick)
        for lit in lits:
            branch.assert_literal(lit)
            if branch.conflict():
                break
        if not branch.conflict():
            branch.close_exhaustive()
        entry = cache[lits] = (branch, branch.conflict())
        if len(cache) > PREFIX_SLOTS:
            cache.popitem(last=False)
        return entry

    def _search_on(self, formulas: Sequence[Term], branch: TheoryBranch) -> Status:
        """Decide ``formulas`` on top of ``branch``: the DNF search,
        under this query's ``branch_budget``."""
        # The work-list is a persistent cons-list ``(head, rest)`` —
        # branching shares the tail between disjuncts with no copying.
        # The last formula is processed first.
        pending = None
        for f in formulas:
            pending = (f, pending)
        if self._branch_sat(pending, branch, [self.branch_budget]):
            return Status.SAT
        return Status.UNSAT

    def _branch_sat(
        self, pending: Optional[tuple], branch: TheoryBranch, budget: list[int]
    ) -> bool:
        """Return True if some branch of the formula set looks satisfiable.

        ``pending`` is a cons-list of formulas still to decompose;
        ``branch`` already holds the literals asserted on the path from
        the root, and is restored (via push/pop) on exit from each
        disjunct, so sibling branches share the prefix closure.
        """
        budget[0] -= 1
        if budget[0] <= 0:
            raise _BranchCapReached()
        self._tick("branches")
        if self.budget is not None:
            self.budget.tick_branch("search")
        while pending is not None:
            f, pending = pending
            if f == TRUE:
                continue
            if f == FALSE:
                return False
            if isinstance(f, App) and f.op == "and":
                for a in f.args:
                    pending = (a, pending)
                continue
            if isinstance(f, App) and f.op == "or":
                if branch.conflict():
                    return False
                for d in f.args:
                    branch.push()
                    try:
                        if self._branch_sat((d, pending), branch, budget):
                            return True
                    finally:
                        branch.pop()
                return False
            if isinstance(f, App) and f.op == "not":
                inner = f.args[0]
                if isinstance(inner, App) and inner.op == "and":
                    pending = (or_(*[not_(a) for a in inner.args]), pending)
                    continue
                if isinstance(inner, App) and inner.op == "or":
                    for a in inner.args:
                        pending = (not_(a), pending)
                    continue
                if isinstance(inner, App) and inner.op == "ite" and inner.sort == BOOL:
                    c, t, e = inner.args
                    pending = (
                        or_(and_(c, not_(t)), and_(not_(c), not_(e))),
                        pending,
                    )
                    continue
            if isinstance(f, App) and f.op == "ite" and f.sort == BOOL:
                c, t, e = f.args
                pending = (or_(and_(c, t), and_(not_(c), e)), pending)
                continue
            # Numeric disequality: split into strict orderings so the
            # linear layer can participate in refutation.
            if (
                isinstance(f, App)
                and f.op == "not"
                and isinstance(f.args[0], App)
                and f.args[0].op == "="
                and f.args[0].args[0].sort.is_numeric()
            ):
                a, b = f.args[0].args
                pending = (
                    or_(App("<", (a, b), BOOL), App("<", (b, a), BOOL)),
                    pending,
                )
                continue
            # Literal-level ite lifting (ite embedded in an atom).
            ite_term = _find_ite(f)
            if ite_term is not None and ite_term is not f:
                c, t, e = ite_term.args
                then_f = and_(c, substitute(f, {ite_term: t}))
                else_f = and_(not_(c), substitute(f, {ite_term: e}))
                pending = (or_(then_f, else_f), pending)
                continue
            branch.assert_literal(f)
            if branch.conflict():
                return False
        # Leaf: decided by exhaustive closure, so the verdict depends on
        # the asserted literal set only — not on how we got here.
        branch.close_exhaustive()
        return not branch.conflict()


_DEFAULT_SOLVER: Optional[Solver] = None


def default_solver() -> Solver:
    """Process-wide shared solver (shared cache across the pipeline)."""
    global _DEFAULT_SOLVER
    if _DEFAULT_SOLVER is None:
        _DEFAULT_SOLVER = Solver()
    return _DEFAULT_SOLVER


def reset_default_solver() -> None:
    global _DEFAULT_SOLVER
    _DEFAULT_SOLVER = None
