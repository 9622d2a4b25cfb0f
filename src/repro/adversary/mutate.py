"""Mutation probes — the second adversary pass.

A "verified" verdict only means something if the spec can *fail*: a
contract that any implementation satisfies (or an encoding that proves
everything) is vacuous.  This pass plants deterministic bugs in the
body — binop flips, off-by-one constants, dropped statements and
calls, flipped ghost formulas — and re-verifies each mutant under a
tight budget with a fresh solver and no proof store.  A verified
function where **no** mutant flips to ``refuted`` is flagged
``suspect``: the proof demonstrably does not constrain the body.

Mutants are generated in a fixed priority order (highest expected kill
rate first) so the count-bounded probe is deterministic and the CI
gate stays fast: probing stops at the first killing mutant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.lang.mir import (
    Aggregate,
    Assign,
    BasicBlock,
    BinaryOp,
    Body,
    Call,
    Const,
    Constant,
    Ghost,
    GhostAssert,
    Goto,
    LoopInvariant,
    Nop,
    Program,
    Return,
    UnaryOp,
    Use,
)
from repro.lang.types import AdtTy, BoolTy, IntTy


# ---------------------------------------------------------------------------
# Mutation operators
# ---------------------------------------------------------------------------


#: Binary-operator replacements (applied one flip per mutant).
_BINOP_FLIPS = {
    "add": "sub",
    "sub": "add",
    "add_unchecked": "sub_unchecked",
    "sub_unchecked": "add_unchecked",
    "mul": "add",
    "div": "mul",
    "rem": "div",
    "eq": "ne",
    "ne": "eq",
    "lt": "ge",
    "le": "gt",
    "gt": "le",
    "ge": "lt",
    "and": "or",
    "or": "and",
}


@dataclass(frozen=True)
class Mutant:
    """A mutated body plus a human-readable description."""

    desc: str
    body: Body


def _clone_with(body: Body, block_name: str, new_block: BasicBlock) -> Body:
    blocks = dict(body.blocks)
    blocks[block_name] = new_block
    return Body(
        name=body.name,
        params=body.params,
        return_ty=body.return_ty,
        locals=body.locals,
        blocks=blocks,
        entry=body.entry,
        generics=body.generics,
        lifetimes=body.lifetimes,
        is_safe=body.is_safe,
        spec=body.spec,
    )


def _with_statement(body: Body, bname: str, idx: int, st) -> Body:
    bb = body.blocks[bname]
    stmts = list(bb.statements)
    stmts[idx] = st
    return _clone_with(body, bname, BasicBlock(bb.name, stmts, bb.terminator))


def _with_terminator(body: Body, bname: str, term) -> Body:
    bb = body.blocks[bname]
    return _clone_with(body, bname, BasicBlock(bb.name, list(bb.statements), term))


def _flip_formula(formula: str) -> Optional[str]:
    if "==" in formula:
        return formula.replace("==", "!=", 1)
    if "!=" in formula:
        return formula.replace("!=", "==", 1)
    return None


def mutants_of(body: Body, registry) -> Iterator[Mutant]:
    """Yield deterministic mutants in priority order."""
    items = list(body.blocks.items())

    # 1. Binop flips — arithmetic/comparison bugs.
    for bname, bb in items:
        for i, st in enumerate(bb.statements):
            if isinstance(st, Assign) and isinstance(st.rvalue, BinaryOp):
                flip = _BINOP_FLIPS.get(st.rvalue.op)
                if flip is None:
                    continue
                rv = BinaryOp(flip, st.rvalue.lhs, st.rvalue.rhs)
                yield Mutant(
                    f"{bname}[{i}]: {st.rvalue.op} -> {flip}",
                    _with_statement(body, bname, i, Assign(st.place, rv)),
                )

    # 2. Ghost formula flips — vacuous-assertion probes for safe code.
    for bname, bb in items:
        for i, st in enumerate(bb.statements):
            if not isinstance(st, Ghost):
                continue
            g = st.ghost
            if isinstance(g, GhostAssert):
                flipped = _flip_formula(g.formula)
                if flipped is not None:
                    yield Mutant(
                        f"{bname}[{i}]: ghost assert flipped",
                        _with_statement(
                            body, bname, i, Ghost(GhostAssert(flipped))
                        ),
                    )
            elif isinstance(g, LoopInvariant):
                flipped = _flip_formula(g.formula)
                if flipped is not None:
                    yield Mutant(
                        f"{bname}[{i}]: loop invariant flipped",
                        _with_statement(
                            body,
                            bname,
                            i,
                            Ghost(replace(g, formula=flipped)),
                        ),
                    )

    # 3. Return-value tweaks.
    for bname, bb in items:
        if not isinstance(bb.terminator, Return):
            continue
        ret_ty = body.return_ty
        from repro.lang.builder import RETURN_PLACE
        from repro.lang.mir import Copy, Place

        ret_place = Place(RETURN_PLACE)
        if isinstance(ret_ty, IntTy):
            bump = Assign(
                ret_place,
                BinaryOp(
                    "add_unchecked",
                    Copy(ret_place),
                    Constant(Const(ret_ty, 1)),
                ),
            )
            bb2 = BasicBlock(bb.name, list(bb.statements) + [bump], bb.terminator)
            yield Mutant(f"{bname}: result + 1", _clone_with(body, bname, bb2))
        elif isinstance(ret_ty, BoolTy):
            flip = Assign(ret_place, UnaryOp("not", Copy(ret_place)))
            bb2 = BasicBlock(bb.name, list(bb.statements) + [flip], bb.terminator)
            yield Mutant(f"{bname}: !result", _clone_with(body, bname, bb2))
        elif isinstance(ret_ty, AdtTy) and ret_ty.name == "Option":
            none = Assign(ret_place, Aggregate(ret_ty, 0, ()))
            bb2 = BasicBlock(bb.name, list(bb.statements) + [none], bb.terminator)
            yield Mutant(f"{bname}: result = None", _clone_with(body, bname, bb2))

    # 4. Constant off-by-ones.
    for bname, bb in items:
        for i, st in enumerate(bb.statements):
            if not isinstance(st, Assign):
                continue
            for mutated, what in _const_tweaks(st.rvalue):
                yield Mutant(
                    f"{bname}[{i}]: {what}",
                    _with_statement(body, bname, i, Assign(st.place, mutated)),
                )

    # 5. Dropped calls (the whole callee effect vanishes).
    for bname, bb in items:
        if isinstance(bb.terminator, Call):
            yield Mutant(
                f"{bname}: call {bb.terminator.func} dropped",
                _with_terminator(body, bname, Goto(bb.terminator.target)),
            )

    # 6. Dropped statements.
    for bname, bb in items:
        for i, st in enumerate(bb.statements):
            if isinstance(st, Nop):
                continue
            if isinstance(st, Ghost) and isinstance(
                st.ghost, (GhostAssert, LoopInvariant)
            ):
                continue  # removing a check can only weaken the spec side
            yield Mutant(
                f"{bname}[{i}]: statement dropped",
                _with_statement(body, bname, i, Nop()),
            )


def _const_tweaks(rv):
    """Yield (rvalue, description) pairs with one int constant nudged."""
    def tweak_operand(op):
        if isinstance(op, Constant) and isinstance(op.const.ty, IntTy):
            v = op.const.value
            if isinstance(v, int):
                ty = op.const.ty
                out = []
                if v + 1 <= ty.max_value:
                    out.append((Constant(Const(ty, v + 1)), f"const {v} -> {v + 1}"))
                if v - 1 >= ty.min_value:
                    out.append((Constant(Const(ty, v - 1)), f"const {v} -> {v - 1}"))
                return out
        return []

    if isinstance(rv, Use):
        for op2, what in tweak_operand(rv.operand):
            yield Use(op2), what
    elif isinstance(rv, BinaryOp):
        for op2, what in tweak_operand(rv.lhs):
            yield BinaryOp(rv.op, op2, rv.rhs), what
        for op2, what in tweak_operand(rv.rhs):
            yield BinaryOp(rv.op, rv.lhs, op2), what
    elif isinstance(rv, Aggregate):
        for i, op in enumerate(rv.operands):
            for op2, what in tweak_operand(op):
                ops = list(rv.operands)
                ops[i] = op2
                yield Aggregate(rv.ty, rv.variant, tuple(ops)), what


# ---------------------------------------------------------------------------
# Probe driver
# ---------------------------------------------------------------------------


@dataclass
class ProbeResult:
    tried: int = 0
    killed_by: Optional[str] = None
    statuses: Optional[dict] = None  #: mutant desc -> entry statuses

    @property
    def killed(self) -> bool:
        return self.killed_by is not None


def mutant_program(program: Program, name: str, body: Body) -> Program:
    """A program sharing everything but the mutated body (registries,
    predicates and specs are read-only during verification)."""
    out = Program(
        registry=program.registry,
        bodies=dict(program.bodies),
        predicates=program.predicates,
        lemmas=program.lemmas,
        ownables=program.ownables,
        specs=program.specs,
    )
    out.bodies[name] = body
    return out


def probe_function(verifier, name: str, *, max_mutants: int, budget) -> ProbeResult:
    """Re-verify mutants of ``name`` until one is refuted.

    ``verifier`` is the original :class:`HybridVerifier`; each mutant
    gets a fresh verifier over a patched program with a fresh solver,
    no proof store, and the tight ``budget``.
    """
    from repro.hybrid.pipeline import HybridVerifier
    from repro.solver.core import Solver

    body = verifier.program.bodies.get(name)
    out = ProbeResult(statuses={})
    if body is None:
        return out
    for mutant in mutants_of(body, verifier.program.registry):
        if out.tried >= max_mutants:
            break
        out.tried += 1
        prog = mutant_program(verifier.program, name, mutant.body)
        sub = HybridVerifier(
            prog,
            verifier.ownables,
            verifier.contracts,
            solver=Solver(),
            manual_pure_pre=verifier.manual_pure_pre,
            auto_extract=verifier.auto_extract,
            budget=budget,
        )
        sub.store = None  # never pollute (or read) the proof store
        try:
            entries = sub.verify_one(name)
        except Exception as e:  # verify_one should not raise; stay safe
            out.statuses[mutant.desc] = [f"error: {e}"]
            continue
        statuses = [e.status for e in entries]
        out.statuses[mutant.desc] = statuses
        if any(s == "refuted" for s in statuses):
            out.killed_by = mutant.desc
            break
    return out
