"""Regression tests for the structural theory rules added for the
verification pipeline: tuple selectors over PC equalities, boolean
equality simplification, sequence unrolling, append decomposition."""

import pytest

from repro.solver import Solver, Status
from repro.solver.core import TheoryBranch
from repro.solver.sorts import BOOL, INT, SeqSort, TupleSort
from repro.solver.terms import (
    TRUE,
    Var,
    and_,
    eq,
    ge,
    intlit,
    le,
    lt,
    not_,
    seq_append,
    seq_cons,
    seq_empty,
    seq_head,
    seq_len,
    seq_tail,
    tuple_get,
    tuple_mk,
)


@pytest.fixture()
def solver():
    return Solver()


class TestTupleSelectors:
    def test_selector_through_pc_equality(self, solver):
        sv = Var("sv", TupleSort((INT, INT)))
        a = Var("a", INT)
        b = Var("b", INT)
        pc = [eq(sv, tuple_mk(a, b)), eq(a, intlit(5))]
        assert solver.entails(pc, eq(tuple_get(sv, 0), intlit(5)))
        assert solver.entails(pc, eq(tuple_get(sv, 1), b))

    def test_nested_selector_congruence(self, solver):
        sv = Var("sv", TupleSort((TupleSort((INT,)), INT)))
        inner = Var("inner", TupleSort((INT,)))
        pc = [eq(sv, tuple_mk(inner, intlit(2))), eq(inner, tuple_mk(intlit(9)))]
        assert solver.entails(pc, eq(tuple_get(tuple_get(sv, 0), 0), intlit(9)))


class TestBooleanEquality:
    def test_eq_true_is_identity(self, solver):
        b = Var("b", BOOL)
        assert eq(b, TRUE) == b
        assert solver.entails([b], eq(b, TRUE))

    def test_eq_false_is_negation(self, solver):
        b = Var("b", BOOL)
        assert solver.entails([not_(b)], eq(b, __import__("repro.solver.terms", fromlist=["FALSE"]).FALSE))

    def test_bool_eq_between_formulas(self, solver):
        x = Var("x", INT)
        y = Var("y", INT)
        # (x == 0) == (y == 0) with x = y must hold.
        pc = [eq(x, y)]
        assert solver.entails(pc, eq(eq(x, intlit(0)), eq(y, intlit(0))))


class TestSequenceUnrolling:
    def test_nonempty_has_head(self, solver):
        s = Var("s", SeqSort(INT))
        pc = [ge(seq_len(s), intlit(1)), eq(seq_head(s), intlit(3))]
        assert solver.entails(pc, eq(s, seq_cons(intlit(3), seq_tail(s))))

    def test_len_one_is_singleton(self, solver):
        s = Var("s", SeqSort(INT))
        pc = [eq(seq_len(s), intlit(1))]
        assert solver.entails(
            pc, eq(s, seq_cons(seq_head(s), seq_empty(INT)))
        )

    def test_split_recovers_parts(self, solver):
        # The laid-out-node split pattern: whole = append(l, r) with
        # |l| known — head of l is the first element of the whole.
        l = Var("l", SeqSort(INT))
        r = Var("r", SeqSort(INT))
        whole = seq_cons(intlit(7), seq_cons(intlit(8), seq_empty(INT)))
        pc = [eq(whole, seq_append(l, r)), eq(seq_len(l), intlit(1))]
        assert solver.entails(pc, eq(seq_head(l), intlit(7)))
        assert solver.entails(pc, eq(r, seq_cons(intlit(8), seq_empty(INT))))

    def test_append_of_singleton_at_end(self, solver):
        # The RawVec push pattern: new = append(old, [v]).
        old = Var("old", SeqSort(INT))
        v = Var("v", INT)
        new = seq_append(old, seq_cons(v, seq_empty(INT)))
        pc = [eq(seq_len(old), intlit(0))]
        assert solver.entails(pc, eq(new, seq_cons(v, seq_empty(INT))))

    def test_no_spurious_unrolling(self, solver):
        # A possibly-empty sequence must not be forced non-empty.
        s = Var("s", SeqSort(INT))
        pc = [ge(seq_len(s), intlit(0))]
        assert solver.check_sat(pc + [eq(s, seq_empty(INT))]) == Status.SAT
        assert not solver.entails(pc, eq(s, seq_cons(seq_head(s), seq_tail(s))))


class TestDemandDrivenUnrolling:
    """Unrolling fires only for a sequence whose class has a consumer
    (a head/tail/at/last/append term the unroller did not make)."""

    def caps(self, solver):
        return (solver.stats["close_round_caps"], solver.stats["close_exhaustive_caps"])

    def test_overflow_length_without_consumer_has_no_cap_hits(self, solver):
        # push_front_node's overflow branch: |a| = 2^64-1 and nothing
        # reads a's elements, so there is nothing to unroll.
        a = Var("a", SeqSort(INT))
        t = Var("t", SeqSort(INT))
        x = Var("x", INT)
        big = intlit(2**64 - 1)
        pc = [eq(seq_len(a), big), eq(t, seq_cons(x, a))]
        assert solver.entails(pc, eq(seq_len(t), intlit(2**64)))
        assert solver.check_sat(pc) == Status.SAT
        assert solver.check_sat(pc + [lt(seq_len(t), big)]) == Status.UNSAT
        assert solver.stats["unrolls"] == 0
        assert self.caps(solver) == (0, 0)

    def test_overflow_length_with_consumer_unrolls_once(self, solver):
        a = Var("a", SeqSort(INT))
        pc = [eq(seq_len(a), intlit(2**64 - 1)), eq(seq_head(a), intlit(4))]
        assert solver.entails(pc, eq(a, seq_cons(intlit(4), seq_tail(a))))
        assert solver.stats["unrolls"] == 1
        assert self.caps(solver) == (0, 0)

    @pytest.mark.parametrize("n_left", [1, 2])
    def test_split_demand_reaches_through_append(self, solver, n_left):
        # append(l, r) = [0, ..., 0], |l| = n ⊨ head(r) = 0: no literal
        # reads l, yet l must unroll because the append over its class
        # is a consumer; for n = 2 so must tail(l), whose consumer is
        # the append(tail l, r) that simplification creates. (The
        # laid-out split pattern, as test_laidout_properties builds it.)
        l = Var("split_l", SeqSort(INT))
        r = Var("split_r", SeqSort(INT))
        whole = seq_empty(INT)
        for _ in range(n_left + 1):
            whole = seq_cons(intlit(0), whole)
        pc = [eq(seq_append(l, r), whole), eq(seq_len(l), intlit(n_left))]
        assert solver.entails(pc, eq(seq_head(r), intlit(0)))
        assert self.caps(solver) == (0, 0)

    def test_consumer_at_depth_three(self, solver):
        s = Var("s", SeqSort(INT))
        deep = seq_head(seq_tail(seq_tail(s)))
        pc = [eq(seq_len(s), intlit(3)), eq(deep, intlit(7))]
        goal = eq(
            s,
            seq_cons(
                seq_head(s),
                seq_cons(seq_head(seq_tail(s)), seq_cons(intlit(7), seq_empty(INT))),
            ),
        )
        assert solver.entails(pc, goal)
        assert solver.stats["unrolls"] == 3
        assert self.caps(solver) == (0, 0)

    def test_cap_hits_are_counted_not_silent(self, solver):
        # Simplifying append(a, b) over an unrolled a creates
        # append(tail a, b), a fresh consumer of tail a: with
        # |a| = 2^64-1 that chain only stops at the closure caps. The
        # answer stays SAT (no refutation) and the stop is counted.
        a = Var("a", SeqSort(INT))
        b = Var("b", SeqSort(INT))
        c = Var("c", SeqSort(INT))
        pc = [eq(seq_len(a), intlit(2**64 - 1)), eq(c, seq_append(a, b))]
        assert solver.check_sat(pc) == Status.SAT
        rounds, exhaustive = self.caps(solver)
        assert rounds >= 1 and exhaustive == 1

    def test_pop_restores_demand_state(self):
        counts = {}

        def tick(key):
            counts[key] = counts.get(key, 0) + 1

        s = Var("s", SeqSort(INT))
        branch = TheoryBranch(tick)
        branch.assert_literal(ge(seq_len(s), intlit(5)))
        branch.assert_literal(eq(seq_head(s), intlit(1)))
        branch.close_exhaustive()
        assert counts == {"unrolls": 1}  # tail(s) is the unroller's own
        branch.push()
        # A literal mentioning tail(s) turns it into demand.
        branch.assert_literal(eq(seq_head(seq_tail(s)), intlit(2)))
        branch.close_exhaustive()
        assert counts == {"unrolls": 2}
        branch.pop()
        branch.push()
        branch.assert_literal(eq(Var("x", INT), intlit(0)))
        branch.close_exhaustive()
        assert counts == {"unrolls": 2}  # tail(s) is no consumer again
        branch.pop()


class TestLenZeroEmpty:
    def test_len_zero_forces_empty(self, solver):
        s = Var("s", SeqSort(INT))
        pc = [le(seq_len(s), intlit(0))]
        assert solver.entails(pc, eq(s, seq_empty(INT)))

    def test_cons_refutes_len_zero(self, solver):
        s = Var("s", SeqSort(INT))
        x = Var("x", INT)
        assert (
            solver.check_sat([eq(s, seq_cons(x, seq_empty(INT))), eq(seq_len(s), intlit(0))])
            == Status.UNSAT
        )
