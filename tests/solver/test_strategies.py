"""Randomized differential suite for the solver's two search strategies.

Search strategies trade *cost*, never *answers*: ``Solver()``, which
reuses closed literal prefixes across queries, must return the same
verdict as the reference ``Solver(reuse_prefixes=False)``, which
searches every query from a fresh branch. The suite drives both over
seeded random formula sets (mixing arithmetic, equalities, boolean
structure, ite and disjunction, so every splitting and closure path
fires), each through a cold solver, and asserts verdict equality; the
cache-knob behaviour rides along. Warm streams through one solver are
in ``test_search.py``.
"""

import random

import pytest

from repro.solver import Solver
from repro.solver.core import DEFAULT_CACHE_CAPACITY
from repro.solver.sorts import BOOL, INT
from repro.solver.terms import (
    Var,
    add,
    and_,
    eq,
    intlit,
    ite,
    le,
    lt,
    not_,
    or_,
    sub,
)

IVARS = [Var(f"x{i}", INT) for i in range(4)]
BVARS = [Var(f"b{i}", BOOL) for i in range(2)]


def _int_term(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.6:
            return rng.choice(IVARS)
        return intlit(rng.randint(-8, 8))
    a = _int_term(rng, depth - 1)
    b = _int_term(rng, depth - 1)
    return add(a, b) if rng.random() < 0.5 else sub(a, b)


def _atom(rng):
    kind = rng.choice(["le", "lt", "eq", "bool"])
    if kind == "bool":
        v = rng.choice(BVARS)
        return not_(v) if rng.random() < 0.3 else v
    a = _int_term(rng, 2)
    b = _int_term(rng, 2)
    return {"le": le, "lt": lt, "eq": eq}[kind](a, b)


def _formula(rng, depth):
    if depth == 0:
        return _atom(rng)
    kind = rng.choice(["atom", "and", "or", "not", "ite"])
    if kind == "atom":
        return _atom(rng)
    if kind == "not":
        return not_(_formula(rng, depth - 1))
    a = _formula(rng, depth - 1)
    b = _formula(rng, depth - 1)
    if kind == "and":
        return and_(a, b)
    if kind == "or":
        return or_(a, b)
    return ite(rng.choice(BVARS), a, b)


def _query(seed):
    rng = random.Random(seed)
    return [_formula(rng, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]


class TestDifferential:
    @pytest.mark.parametrize("seed", range(40))
    def test_all_strategies_agree(self, seed):
        fs = _query(seed)
        assert Solver().check_sat(fs) == Solver(reuse_prefixes=False).check_sat(fs)


class TestCacheKnob:
    def test_env_capacity(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_CACHE", "3")
        s = Solver()
        assert s.cache_capacity == 3
        assert s.stats["cache_capacity"] == 3

    def test_default_capacity(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER_CACHE", raising=False)
        assert Solver().cache_capacity == DEFAULT_CACHE_CAPACITY

    def test_invalid_env_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER_CACHE", "zero")
        with pytest.warns(RuntimeWarning):
            assert Solver().cache_capacity == DEFAULT_CACHE_CAPACITY
        monkeypatch.setenv("REPRO_SOLVER_CACHE", "-5")
        with pytest.warns(RuntimeWarning):
            assert Solver().cache_capacity == DEFAULT_CACHE_CAPACITY

    def test_lru_evicts_at_capacity(self):
        s = Solver(cache_capacity=2)
        for i in range(4):
            s.check_sat([le(intlit(i), IVARS[0])])
        assert len(s._cache) <= 2
        assert s.stats["cache_evictions"] >= 2
        # The two most recent queries are still hits.
        hits0 = s.stats["cache_hits"]
        s.check_sat([le(intlit(3), IVARS[0])])
        assert s.stats["cache_hits"] == hits0 + 1
