"""The ``unsafe_corpus`` workload: the paper's §6 evaluation plus the
repo's other unsafe data structures, each with negative controls.

Three programs are verified, each by one ``HybridVerifier.run`` at
``jobs=1`` with a fresh ``Solver`` and no proof store:

* the std ``LinkedList`` (§6 bodies), the E7 safe client and four
  negative controls;
* ``RawStack`` and two negative controls;
* ``RawVec`` and two negative controls.

Verdicts are scored against :data:`CLAIMED`, :data:`TRUE_CONTRACTS`
and :data:`PLANTED_BUGS`, which come from the paper and from how the
controls were built, never from the verifier.
"""

from __future__ import annotations

from repro.gilsonite.specs import show_safety_spec
from repro.hybrid.pipeline import HybridVerifier
from repro.lang.builder import BodyBuilder
from repro.lang.types import UNIT, USIZE, RefTy, box_ty, option_ty
from repro.rustlib import linked_list as ll
from repro.rustlib import raw_stack as rs
from repro.rustlib import raw_vec as rv
from repro.rustlib.contracts import LINKED_LIST_CONTRACTS, MANUAL_PURE_PRECONDITIONS
from repro.rustlib.specs import install_callee_specs
from repro.solver import Solver

SAFETY, FUNCTIONAL, CLIENT = "type safety", "functional", "client"

#: Obligations the paper's §6 (and the E7 client of §2.1) claims
#: verify. A claimed obligation that does not verify is a wrong verdict.
CLAIMED = {
    ("LinkedList::new", SAFETY),
    ("LinkedList::push_front", SAFETY),
    ("LinkedList::pop_front", SAFETY),
    ("LinkedList::front_mut", SAFETY),
    ("LinkedList::new", FUNCTIONAL),
    ("LinkedList::push_front_node", FUNCTIONAL),
    ("LinkedList::pop_front_node", FUNCTIONAL),
    ("client::e7", CLIENT),
}

#: Correct functions: all their obligations are true. One that is not
#: in :data:`CLAIMED` and does not verify counts in ``unproven_true``.
TRUE_CONTRACTS = {
    "LinkedList::new", "LinkedList::push_front_node",
    "LinkedList::pop_front_node", "LinkedList::push_front",
    "LinkedList::pop_front", "LinkedList::front_mut", "LinkedList::len",
    "LinkedList::is_empty", "client::e7",
    "RawStack::new", "RawStack::push", "RawStack::pop",
    "RawVec::with_capacity", "RawVec::push_within_capacity", "RawVec::pop",
}

#: Negative controls: each has a planted defect, so at least one of its
#: obligations must be refuted. One that verifies is a wrong verdict.
PLANTED_BUGS = {
    "bad_new": "LinkedList::new with a wrong length",
    "bad_pop": "pop_front_node that forgets the prev fix-up",
    "double_free": "use after free through box_free",
    "first_node_mut": "Fig. 7: extracts &mut Node<T> instead of &mut T",
    "RawStack::bad_push": "push without the len update",
    "RawStack::bad_pop": "pop that never relinks head",
    "RawVec::bad_push": "push without the capacity check",
    "RawVec::bad_pop": "pop without the emptiness check",
}


def obligation_kind(entry) -> str:
    if entry.half == "creusot":
        return CLIENT
    return SAFETY if entry.note.startswith("type safety") else FUNCTIONAL


# -- the E7 client -------------------------------------------------------------


def e7_client():
    """``let mut l = new(); l.push_front(x); l.push_front(y);
    let o = l.pop_front(); proof_assert!(o == Some(y))``"""
    fn = BodyBuilder(
        "client::e7", params=[("x", ll.T), ("y", ll.T)], ret=option_ty(ll.T),
        generics=("T",), is_safe=True,
    )
    bbs = [fn.block()] + [fn.block(f"bb{i}") for i in range(1, 5)]
    lst = fn.local("l", ll.LIST)
    bbs[0].call(lst, "LinkedList::new", [], bbs[1])
    for i, arg in ((1, "x"), (2, "y")):
        r = fn.local(f"r{i}", ll.MUT_LIST)
        bbs[i].assign(r, fn.ref("l", mutable=True))
        bbs[i].call(fn.local(f"u{i}", UNIT), "LinkedList::push_front",
                    [fn.move(r), fn.copy(arg)], bbs[i + 1])
    r3 = fn.local("r3", ll.MUT_LIST)
    bbs[3].assign(r3, fn.ref("l", mutable=True))
    o = fn.local("o", option_ty(ll.T))
    bbs[3].call(o, "LinkedList::pop_front", [fn.move(r3)], bbs[4])
    bbs[4].ghost_assert("match o { None => false, Some(v) => v == y }")
    bbs[4].assign(fn.ret_place, fn.copy("o"))
    bbs[4].ret()
    return fn.finish()


# -- LinkedList negative controls ---------------------------------------------


def ll_bad_new():
    fn = BodyBuilder("bad_new", params=[], ret=ll.LIST, generics=("T",))
    bb0 = fn.block()
    t_none = fn.temp(ll.OPT_NODE_PTR)
    bb0.assign(t_none, fn.aggregate(ll.OPT_NODE_PTR, [], variant=0))
    # BUG: an empty list that claims seven elements.
    bb0.assign(fn.ret_place, fn.aggregate(
        ll.LIST, [fn.copy(t_none), fn.copy(t_none), fn.const_int(7, USIZE)]))
    bb0.ret()
    return fn.finish()


def ll_bad_pop():
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
    # BUG: the new head's prev still points at the popped node (and
    # neither tail nor len is fixed up).
    t_box = fn.local("t_box", ll.BOX_NODE)
    bb_some.assign(t_box, fn.cast(fn.copy(t_node), ll.BOX_NODE))
    bb_some.assign(fn.ret_place, fn.aggregate(ret_ty, [fn.copy(t_box)], variant=1))
    bb_some.ret()
    return fn.finish()


def ll_double_free():
    fn = BodyBuilder("double_free", params=[("v", USIZE)], ret=USIZE)
    bbs = [fn.block()] + [fn.block(f"bb{i}") for i in range(1, 4)]
    t_box = fn.local("t_box", box_ty(USIZE))
    bbs[0].call(t_box, "Box::new", [fn.copy("v")], bbs[1], ty_args=[USIZE])
    for i in (1, 2):  # BUG: the second free uses the freed box.
        bbs[i].call(fn.local(f"t_unit{i}", UNIT), "intrinsic::box_free",
                    [fn.copy(t_box)], bbs[i + 1], ty_args=[USIZE])
    bbs[3].assign(fn.ret_place, fn.copy("v"))
    bbs[3].ret()
    return fn.finish()


def ll_first_node_mut():
    mut_node = RefTy(ll.NODE, mutable=True)
    ret_ty = option_ty(mut_node)
    fn = BodyBuilder("first_node_mut", params=[("self", ll.MUT_LIST)],
                     ret=ret_ty, generics=("T",))
    bb0, bb_none, bb_some = fn.block(), fn.block("bb_none"), fn.block("bb_some")
    bb0.apply_lemma("freeze_linked_list", fn.copy("self"))
    t_head = fn.local("t_head", ll.OPT_NODE_PTR)
    bb0.assign(t_head, fn.copy(fn.place("self").deref().field(ll.HEAD)))
    t_disc = fn.local("t_disc", USIZE)
    bb0.assign(t_disc, fn.discriminant(t_head))
    bb0.switch(fn.copy(t_disc), [(0, bb_none)], otherwise=bb_some)
    bb_none.assign(fn.ret_place, fn.aggregate(ret_ty, [], variant=0))
    bb_none.ret()
    bb_some.apply_lemma("extract_head_element", fn.copy("self"))
    t_node = fn.local("t_node", ll.NODE_PTR)
    bb_some.assign(t_node, fn.copy(fn.place("t_head").downcast(1).field(0)))
    # BUG (Fig. 7): a &mut to the whole node lets safe code relink it.
    t_ref = fn.local("t_ref", mut_node)
    bb_some.assign(t_ref, fn.ref(fn.place("t_node").deref(), mutable=True))
    bb_some.assign(fn.ret_place, fn.aggregate(ret_ty, [fn.copy(t_ref)], variant=1))
    bb_some.ret()
    return fn.finish()


# -- RawStack / RawVec negative controls ---------------------------------------


def rs_bad_push():
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
    # BUG: len is not incremented.
    bb1.assign(fn.ret_place, fn.const_unit())
    bb1.ret()
    return fn.finish()


def rs_bad_pop():
    ret_ty = option_ty(rs.T)
    fn = BodyBuilder("RawStack::bad_pop", params=[("self", rs.MUT_STACK)],
                     ret=ret_ty, generics=("T",))
    bb0, bb_none, bb_some = fn.block(), fn.block("bb_none"), fn.block("bb_some")
    bb0.mutref_auto_resolve("self")
    t_head = fn.local("t_head", rs.OPT_SNODE_PTR)
    bb0.assign(t_head, fn.copy(fn.place("self").deref().field(rs.HEAD)))
    t_disc = fn.local("t_disc", USIZE)
    bb0.assign(t_disc, fn.discriminant(t_head))
    bb0.switch(fn.copy(t_disc), [(0, bb_none)], otherwise=bb_some)
    bb_none.assign(fn.ret_place, fn.aggregate(ret_ty, [], variant=0))
    bb_none.ret()
    t_node = fn.local("t_node", rs.SNODE_PTR)
    bb_some.assign(t_node, fn.copy(fn.place("t_head").downcast(1).field(0)))
    # BUG: moves the element out but leaves head pointing at the node.
    t_elem = fn.local("t_elem", rs.T)
    bb_some.assign(t_elem, fn.move(fn.place("t_node").deref().field(rs.ELEM)))
    bb_some.assign(fn.ret_place, fn.aggregate(ret_ty, [fn.move(t_elem)], variant=1))
    bb_some.ret()
    return fn.finish()


def rv_bad_push():
    ret_ty = option_ty(rv.ELEM)
    fn = BodyBuilder("RawVec::bad_push",
                     params=[("self", rv.MUT_VEC), ("v", rv.ELEM)], ret=ret_ty)
    bb0 = fn.block()
    vec = fn.place("self").deref()
    t_len = fn.local("t_len", USIZE)
    bb0.assign(t_len, fn.copy(vec.field(rv.LEN)))
    t_buf = fn.local("t_buf", rv.BUF_PTR)
    bb0.assign(t_buf, fn.copy(vec.field(rv.BUF)))
    t_end = fn.local("t_end", rv.BUF_PTR)
    bb0.assign(t_end, fn.binop("offset", fn.copy(t_buf), fn.copy(t_len)))
    # BUG: writes at buf[len] without checking len < cap.
    bb0.assign(fn.place("t_end").deref(), fn.move("v"))
    t_len2 = fn.local("t_len2", USIZE)
    bb0.assign(t_len2, fn.binop("add", fn.copy(t_len), fn.const_int(1, USIZE)))
    bb0.assign(vec.field(rv.LEN), fn.copy(t_len2))
    bb0.assign(fn.ret_place, fn.aggregate(ret_ty, [], variant=0))
    bb0.ret()
    return fn.finish()


def rv_bad_pop():
    ret_ty = option_ty(rv.ELEM)
    fn = BodyBuilder("RawVec::bad_pop", params=[("self", rv.MUT_VEC)], ret=ret_ty)
    bb0 = fn.block()
    vec = fn.place("self").deref()
    t_len = fn.local("t_len", USIZE)
    bb0.assign(t_len, fn.copy(vec.field(rv.LEN)))
    # BUG: reads buf[len - 1] without checking len > 0.
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


# -- the corpus ----------------------------------------------------------------


def build():
    """The corpus as ``[(program, ownables, contracts, manual_pre)]``,
    one tuple per ``HybridVerifier.run``."""
    program, ownables = ll.build_program()
    install_callee_specs(program, ownables)
    for body in (e7_client(), ll_bad_new(), ll_bad_pop(), ll_double_free(),
                 ll_first_node_mut()):
        program.add_body(body)
    out = [(program, ownables, dict(LINKED_LIST_CONTRACTS),
            dict(MANUAL_PURE_PRECONDITIONS))]

    program, ownables = rs.build_program()
    for body in (rs_bad_push(), rs_bad_pop()):
        program.add_body(body)
    for name, body in program.bodies.items():
        program.specs[name] = show_safety_spec(ownables, body)
    contracts = dict(rs.RAW_STACK_CONTRACTS)
    contracts["RawStack::bad_pop"] = rs.RAW_STACK_CONTRACTS["RawStack::pop"]
    manual = {n: list(c.get("requires", [])) for n, c in contracts.items()
              if c.get("requires")}
    out.append((program, ownables, contracts, manual))

    program, ownables = rv.build_program()
    for body in (rv_bad_push(), rv_bad_pop()):
        program.add_body(body)
    contracts = dict(rv.RAW_VEC_CONTRACTS)
    contracts["RawVec::bad_pop"] = rv.RAW_VEC_CONTRACTS["RawVec::pop"]
    out.append((program, ownables, contracts, {}))
    return out


def verify(corpus, between=lambda: None) -> list:
    """One full pass: a ``HybridReport`` per program. ``between()`` runs
    between two programs."""
    reports = []
    for i, (program, ownables, contracts, manual) in enumerate(corpus):
        if i:
            between()
        reports.append(HybridVerifier(program, ownables, contracts, solver=Solver(),
                                      manual_pure_pre=manual, store=None).run(jobs=1))
    return reports


def score(reports) -> dict:
    """Score every verdict against the known answers."""
    wrong, unproven, failed, attempted = [], [], [], 0
    by_fn: dict[str, list] = {}
    for report in reports:
        for e in report.entries:
            attempted += 1
            by_fn.setdefault(e.function, []).append(e)
            if e.status not in ("verified", "refuted"):
                failed.append(f"{e.function} [{obligation_kind(e)}]: {e.status}")
    for fn, entries in by_fn.items():
        if fn in PLANTED_BUGS:
            if all(e.status == "verified" for e in entries):
                wrong.append(f"{fn}: planted bug verified ({PLANTED_BUGS[fn]})")
            continue
        if fn not in TRUE_CONTRACTS:
            wrong.append(f"{fn}: no known answer")
            continue
        for e in entries:
            if e.status != "refuted":
                continue
            key = (fn, obligation_kind(e))
            if key in CLAIMED:
                wrong.append(f"{fn} [{key[1]}]: claimed by the paper, refuted")
            else:
                unproven.append(f"{fn} [{key[1]}]")
    missing = (TRUE_CONTRACTS | set(PLANTED_BUGS)) - set(by_fn)
    wrong += [f"{fn}: no verdict" for fn in sorted(missing)]
    return {"wrong": wrong, "unproven": unproven, "failed": failed,
            "attempted": attempted}
