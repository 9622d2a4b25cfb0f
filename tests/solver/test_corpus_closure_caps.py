"""Closure-cap gate on the paper's corpus.

The §6 LinkedList functions (with the E7-style safe client), RawStack
and RawVec are verified through the hybrid pipeline, each program with
a fresh ``Solver``. Every verdict must match the known answer — the
negative controls refuted — with the default search and with the
reference search (``reuse_prefixes=False``), and no solver query may
stop its closure at a round cap or an exhaustive-closure cap: every
branch reaches a true fixpoint.
"""

import pytest

from repro.gilsonite.specs import show_safety_spec
from repro.hybrid.pipeline import HybridVerifier
from repro.lang.builder import BodyBuilder
from repro.lang.types import USIZE, option_ty
from repro.rustlib import linked_list as ll
from repro.rustlib import raw_stack as rs
from repro.rustlib import raw_vec as rv
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.specs import install_callee_specs
from repro.solver import Solver

SAFETY, FUNCTIONAL = "type safety", "functional"

#: Known verdict of every obligation, ``(function, kind) -> status``.
#: The two refuted functional specs are true contracts this verifier
#: does not prove (push_front / pop_front through their callee specs);
#: every other refutation is a planted defect.
EXPECTED = {
    ("LinkedList::new", SAFETY): "verified",
    ("LinkedList::new", FUNCTIONAL): "verified",
    ("LinkedList::push_front_node", SAFETY): "verified",
    ("LinkedList::push_front_node", FUNCTIONAL): "verified",
    ("LinkedList::pop_front_node", SAFETY): "verified",
    ("LinkedList::pop_front_node", FUNCTIONAL): "verified",
    ("LinkedList::push_front", SAFETY): "verified",
    ("LinkedList::push_front", FUNCTIONAL): "refuted",
    ("LinkedList::pop_front", SAFETY): "verified",
    ("LinkedList::pop_front", FUNCTIONAL): "refuted",
    ("LinkedList::front_mut", SAFETY): "verified",
    ("LinkedList::len", SAFETY): "verified",
    ("LinkedList::len", FUNCTIONAL): "verified",
    ("LinkedList::is_empty", SAFETY): "verified",
    ("LinkedList::is_empty", FUNCTIONAL): "verified",
    ("bad_new", SAFETY): "refuted",
    ("bad_pop", SAFETY): "refuted",
    ("RawStack::new", SAFETY): "verified",
    ("RawStack::new", FUNCTIONAL): "verified",
    ("RawStack::push", SAFETY): "verified",
    ("RawStack::push", FUNCTIONAL): "verified",
    ("RawStack::pop", SAFETY): "verified",
    ("RawStack::pop", FUNCTIONAL): "verified",
    ("RawStack::bad_push", SAFETY): "refuted",
    ("RawVec::with_capacity", SAFETY): "verified",
    ("RawVec::with_capacity", FUNCTIONAL): "verified",
    ("RawVec::push_within_capacity", SAFETY): "verified",
    ("RawVec::push_within_capacity", FUNCTIONAL): "verified",
    ("RawVec::pop", SAFETY): "verified",
    ("RawVec::pop", FUNCTIONAL): "verified",
    ("RawVec::bad_pop", SAFETY): "verified",
    ("RawVec::bad_pop", FUNCTIONAL): "refuted",
}


def bad_new():
    """An empty list that claims seven elements."""
    fn = BodyBuilder("bad_new", params=[], ret=ll.LIST, generics=("T",))
    bb0 = fn.block()
    t_none = fn.temp(ll.OPT_NODE_PTR)
    bb0.assign(t_none, fn.aggregate(ll.OPT_NODE_PTR, [], variant=0))
    bb0.assign(fn.ret_place, fn.aggregate(
        ll.LIST, [fn.copy(t_none), fn.copy(t_none), fn.const_int(7, USIZE)]))
    bb0.ret()
    return fn.finish()


def bad_pop():
    """pop_front_node that relinks head but fixes up neither the new
    head's prev nor tail nor len."""
    ret_ty = option_ty(ll.BOX_NODE)
    fn = BodyBuilder("bad_pop", params=[("self", ll.MUT_LIST)], ret=ret_ty,
                     generics=("T",))
    bb0, bb_none, bb_some = fn.block(), fn.block("bb_none"), fn.block("bb_some")
    lst = fn.place("self").deref()
    t_head = fn.local("t_head", ll.OPT_NODE_PTR)
    bb0.assign(t_head, fn.copy(lst.field(ll.HEAD)))
    t_disc = fn.local("t_disc", USIZE)
    bb0.assign(t_disc, fn.discriminant(t_head))
    bb0.switch(fn.copy(t_disc), [(0, bb_none)], otherwise=bb_some)
    bb_none.assign(fn.ret_place, fn.aggregate(ret_ty, [], variant=0))
    bb_none.ret()
    t_node = fn.local("t_node", ll.NODE_PTR)
    bb_some.assign(t_node, fn.copy(fn.place("t_head").downcast(1).field(0)))
    t_next = fn.local("t_next", ll.OPT_NODE_PTR)
    bb_some.assign(t_next, fn.copy(fn.place("t_node").deref().field(ll.NEXT)))
    bb_some.assign(lst.field(ll.HEAD), fn.copy(t_next))
    t_box = fn.local("t_box", ll.BOX_NODE)
    bb_some.assign(t_box, fn.cast(fn.copy(t_node), ll.BOX_NODE))
    bb_some.assign(fn.ret_place, fn.aggregate(ret_ty, [fn.copy(t_box)], variant=1))
    bb_some.ret()
    return fn.finish()


def raw_stack_bad_push():
    """push that links the new node but never increments len."""
    fn = BodyBuilder("RawStack::bad_push",
                     params=[("self", rs.MUT_STACK), ("elt", rs.T)],
                     ret=rs.UNIT, generics=("T",))
    bb0, bb1 = fn.block(), fn.block("bb1")
    stack = fn.place("self").deref()
    t_head = fn.local("t_head", rs.OPT_SNODE_PTR)
    bb0.assign(t_head, fn.copy(stack.field(rs.HEAD)))
    t_val = fn.local("t_node_val", rs.SNODE)
    bb0.assign(t_val, fn.aggregate(rs.SNODE, [fn.move("elt"), fn.copy(t_head)]))
    t_box = fn.local("t_box", rs.BOX_SNODE)
    bb0.call(t_box, "Box::new", [fn.move(t_val)], bb1, ty_args=[rs.SNODE])
    t_raw = fn.local("t_raw", rs.SNODE_PTR)
    bb1.assign(t_raw, fn.cast(fn.move(t_box), rs.SNODE_PTR))
    t_opt = fn.local("t_opt", rs.OPT_SNODE_PTR)
    bb1.assign(t_opt, fn.aggregate(rs.OPT_SNODE_PTR, [fn.copy(t_raw)], variant=1))
    bb1.assign(stack.field(rs.HEAD), fn.copy(t_opt))
    bb1.assign(fn.ret_place, fn.const_unit())
    bb1.ret()
    return fn.finish()


def raw_vec_bad_pop():
    """pop that reads buf[len - 1] without checking len > 0: type-safe
    (the read stays in the allocation's model) but functionally wrong."""
    ret_ty = option_ty(rv.ELEM)
    fn = BodyBuilder("RawVec::bad_pop", params=[("self", rv.MUT_VEC)], ret=ret_ty)
    bb0 = fn.block()
    vec = fn.place("self").deref()
    t_len = fn.local("t_len", USIZE)
    bb0.assign(t_len, fn.copy(vec.field(rv.LEN)))
    t_len2 = fn.local("t_len2", USIZE)
    bb0.assign(t_len2, fn.binop("sub", fn.copy(t_len), fn.const_int(1, USIZE)))
    t_buf = fn.local("t_buf", rv.BUF_PTR)
    bb0.assign(t_buf, fn.copy(vec.field(rv.BUF)))
    t_end = fn.local("t_end", rv.BUF_PTR)
    bb0.assign(t_end, fn.binop("offset", fn.copy(t_buf), fn.copy(t_len2)))
    t_val = fn.local("t_val", rv.ELEM)
    bb0.assign(t_val, fn.move(fn.place("t_end").deref()))
    bb0.assign(vec.field(rv.LEN), fn.copy(t_len2))
    bb0.assign(fn.ret_place, fn.aggregate(ret_ty, [fn.move(t_val)], variant=1))
    bb0.ret()
    return fn.finish()


def corpus():
    """``[(program, ownables, contracts, manual_pure_pre)]``, one per
    pipeline run."""
    program, ownables = ll.build_program()
    install_callee_specs(program, ownables)
    for body in (bad_new(), bad_pop()):
        program.add_body(body)
    out = [(program, ownables, dict(LINKED_LIST_CONTRACTS),
            dict(MANUAL_PURE_PRECONDITIONS))]

    program, ownables = rs.build_program()
    program.add_body(raw_stack_bad_push())
    for name, body in program.bodies.items():
        program.specs[name] = show_safety_spec(ownables, body)
    contracts = dict(rs.RAW_STACK_CONTRACTS)
    manual = {n: list(c["requires"]) for n, c in contracts.items()
              if c.get("requires")}
    out.append((program, ownables, contracts, manual))

    program, ownables = rv.build_program()
    program.add_body(raw_vec_bad_pop())
    contracts = dict(rv.RAW_VEC_CONTRACTS)
    contracts["RawVec::bad_pop"] = rv.RAW_VEC_CONTRACTS["RawVec::pop"]
    out.append((program, ownables, contracts, {}))
    return out


def _run_corpus(**solver_kwargs):
    results = []
    for program, ownables, contracts, manual in corpus():
        solver = Solver(**solver_kwargs)
        report = HybridVerifier(program, ownables, contracts, solver=solver,
                                manual_pure_pre=manual, store=None).run(jobs=1)
        results.append((report, solver))
    return results


def _verdicts(runs):
    got = {}
    for report, _ in runs:
        for e in report.entries:
            kind = SAFETY if e.note.startswith("type safety") else FUNCTIONAL
            got[(e.function, kind)] = e.status
    return got


@pytest.fixture(scope="module")
def runs():
    return _run_corpus()


def test_known_verdicts(runs):
    assert _verdicts(runs) == EXPECTED


def test_reference_search_agrees(runs):
    """The search without cross-query prefix reuse (what the
    adversary's differential pass re-verifies with) reaches the same
    verdicts, and the default search did reuse prefixes."""
    assert _verdicts(_run_corpus(reuse_prefixes=False)) == EXPECTED
    for _, solver in runs:
        assert solver.stats["prefix_hits"] > 0


def test_no_closure_cap_hits(runs):
    for report, solver in runs:
        assert solver.stats["checks"] > 0
        assert solver.stats["close_round_caps"] == 0
        assert solver.stats["close_exhaustive_caps"] == 0
        assert report.solver_stats["close_round_caps"] == 0
        assert report.solver_stats["close_exhaustive_caps"] == 0
        assert "-- solver:" not in report.render()
