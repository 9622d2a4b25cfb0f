"""The solver search: cross-query prefix reuse on a warm solver.

``Solver()`` closes the literal prefix of each query once, keeps the
closed branch in a small LRU and searches the goal on top of it;
``Solver(reuse_prefixes=False)`` searches every query from a fresh
branch. Reuse must trade cost, never answers. ``test_strategies.py``
checks that over seeded random queries, each through a cold solver;
this suite checks it over warm streams of ``pc + [goal_i]`` through one
solver (plain, disjunctive and conflicting prefixes, length-1 queries,
more prefixes than cache slots) and across searches interrupted on a
cached prefix.
"""

import random

import pytest

from repro.budget import Budget
from repro.errors import BudgetExhausted
from repro.solver import Solver, Status
from repro.solver.core import GLOBAL_STATS, PREFIX_SLOTS
from repro.solver.terms import add, and_, eq, intlit, ite, le, lt, not_, or_

from tests.solver.test_strategies import BVARS, IVARS, _formula

X0, X1, X2, _ = IVARS
B0, B1 = BVARS


def _goals(seed, n=30):
    """Distinct goals (a repeated one would be a result-cache hit and
    never reach the prefix cache)."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        g = _formula(rng, rng.randint(0, 2))
        if g not in out:
            out.append(g)
    return out


def _reference(fs):
    return Solver(reuse_prefixes=False).check_sat(fs)


def _stream(solver, pc, goals):
    """``pc + [goal]`` for every goal through ``solver``, each verdict
    checked against a fresh reference solver."""
    for g in goals:
        fs = pc + [g]
        assert solver.check_sat(fs) == _reference(fs), g


#: A path condition of plain literals.
PLAIN_PC = [le(intlit(0), X0), lt(X0, intlit(10)), eq(X1, add(X0, intlit(1))), B0]
#: A path condition with case-splitting residue next to its literals.
SPLIT_PC = [
    le(intlit(0), X0),
    or_(eq(X0, intlit(1)), eq(X0, intlit(4))),
    ite(B1, lt(X1, X0), eq(X1, intlit(2))),
    not_(eq(X2, X0)),
]
#: A path condition whose literals refute each other.
CONFLICT_PC = [le(X0, intlit(0)), le(intlit(1), X0), eq(X1, X2)]


class TestWarmStreams:
    def test_reference_never_touches_the_prefix_cache(self):
        s = Solver(reuse_prefixes=False)
        _stream(s, PLAIN_PC, _goals(1, 5))
        assert s.stats["prefix_hits"] == s.stats["prefix_misses"] == 0
        assert not s._prefixes

    def test_plain_literal_prefix(self):
        s = Solver()
        _stream(s, PLAIN_PC, _goals(2))
        assert s.stats["prefix_misses"] == 1
        assert s.stats["prefix_hits"] > 0

    def test_prefix_with_or_and_ite_residue(self):
        # Goals the residue decides (x0 ∈ {1, 4}, x2 ≠ x0), then random.
        goals = [eq(X0, intlit(k)) for k in range(-1, 6)]
        goals += [eq(X2, X0), eq(X1, intlit(2)), lt(X1, X0), not_(B1)]
        s = Solver()
        _stream(s, SPLIT_PC, goals + _goals(3))
        assert s.stats["prefix_hits"] > 0

    def test_conflicting_prefix(self):
        s = Solver()
        _stream(s, CONFLICT_PC, _goals(4))
        assert s.stats["prefix_hits"] > 0
        # A cached refuted prefix answers without searching.
        assert s.stats["branches"] == 0

    def test_length_one_queries(self):
        s = Solver()
        for g in _goals(5):
            assert s.check_sat([g]) == _reference([g]), g
        assert s.stats["prefix_hits"] == s.stats["prefix_misses"] == 0

    def test_more_prefixes_than_slots(self):
        pcs = [PLAIN_PC[:k] + [le(intlit(k), X2)] for k in range(PREFIX_SLOTS + 2)]
        s = Solver()
        goals = _goals(6, 3 * len(pcs))
        for i, g in enumerate(goals):
            fs = pcs[i % len(pcs)] + [g]
            assert s.check_sat(fs) == _reference(fs), g
        # Round-robin over more prefixes than slots evicts every time.
        assert s.stats["prefix_hits"] == 0
        assert len(s._prefixes) == PREFIX_SLOTS

    def test_counters_reach_global_stats(self):
        before = GLOBAL_STATS["prefix_hits"], GLOBAL_STATS["prefix_misses"]
        s = Solver()
        _stream(s, PLAIN_PC, _goals(7, 4))
        assert GLOBAL_STATS["prefix_hits"] - before[0] == s.stats["prefix_hits"] == 3
        assert GLOBAL_STATS["prefix_misses"] - before[1] == s.stats["prefix_misses"] == 1


#: Asserts ``x0 = 7`` on top of the prefix and then fans out (the
#: search processes an ``and``'s last argument first): a search stopped
#: inside the disjunction has that literal on the cached branch.
SPLITTING_GOAL = and_(or_(lt(X1, intlit(0)), eq(X2, intlit(5))), eq(X0, intlit(7)))
#: SAT on PLAIN_PC alone, UNSAT if ``x0 = 7`` leaked into the prefix.
PROBE_GOAL = eq(X0, intlit(3))


def _cached_branch(solver):
    [(branch, conflict)] = solver._prefixes.values()
    return branch, conflict


class TestInterruptedSearch:
    def test_budget_stop_mid_search_leaves_the_prefix_intact(self):
        s = Solver()
        s.check_sat(PLAIN_PC + [lt(X2, X0)])  # build the cached prefix
        s.budget = Budget(max_branches=1)
        with pytest.raises(BudgetExhausted):
            s.check_sat(PLAIN_PC + [SPLITTING_GOAL])
        branch, conflict = _cached_branch(s)
        assert not conflict and not branch._frames and not branch.cc._frames
        # A fresh budget gets the reference verdict for the same query
        # (the stopped one was not cached) and for the probe.
        s.budget = Budget(max_branches=1000)
        hits = s.stats["prefix_hits"]
        for goal in (SPLITTING_GOAL, PROBE_GOAL):
            fs = PLAIN_PC + [goal]
            assert s.check_sat(fs) == _reference(fs) == Status.SAT
        assert s.stats["prefix_hits"] == hits + 2

    def test_branch_cap_leaves_the_prefix_intact(self):
        s = Solver(branch_budget=2)
        assert s.check_sat(PLAIN_PC + [SPLITTING_GOAL]) == Status.UNKNOWN
        assert s.stats["unknowns"] == 1
        branch, conflict = _cached_branch(s)
        assert not conflict and not branch._frames and not branch.cc._frames
        s.branch_budget = 4096
        fs = PLAIN_PC + [PROBE_GOAL]
        assert s.check_sat(fs) == _reference(fs) == Status.SAT
        assert s.stats["prefix_hits"] == 1
