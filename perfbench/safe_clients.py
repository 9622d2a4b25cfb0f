"""The ``safe_clients`` workload: seeded safe clients of the LinkedList
API, verified by the Creusot half against the API's Pearlite contracts.

Each client is a random sequence of ``push_front(x_i)`` / ``pop_front()``
calls on a fresh list, ending in a ``pop_front`` whose result a ghost
assertion describes. The generator runs the same sequence on its own
list model (a Python list of parameter names) and decides from that
model whether the assertion holds; about a quarter of the assertions
are planted false. The verifier's answer is never consulted.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.lang.builder import BodyBuilder
from repro.lang.types import UNIT, option_ty
from repro.rustlib.linked_list import LIST, MUT_LIST, T

#: Clients per corpus, and how many of them carry a false assertion.
CLIENTS = 32
PLANTED_FALSE = 8
#: Operations before the final pop. Every corpus uses each length the
#: same number of times, so the total work does not depend on the seed.
LENGTHS = (2, 3, 4)
#: Chance that an operation pushes (while parameters are left). A push
#: after a pop costs the verifier far more than one before, so client
#: latencies cluster by how many pops precede each push; these settings
#: keep the 50th and 90th percentiles inside clusters, not between
#: them, so that they do not jump from seed to seed.
PUSH_CHANCE = 0.8


@dataclass(frozen=True)
class Client:
    name: str
    params: tuple  # the element parameters, x0 .. x{n-1}
    ops: tuple  # ("push", param) | ("pop", None); the last is a pop
    assertion: str
    expected: bool  # does the assertion hold in every execution?


def final_pop_model(ops) -> "str | None":
    """The parameter the final ``pop_front`` returns (``None`` for an
    empty list), by running ``ops`` on a plain Python list."""
    model: list = []
    result = None
    for op, arg in ops:
        if op == "push":
            model.insert(0, arg)
        else:
            result = model.pop(0) if model else None
    return result


def assertion_for(top, params, truthful: bool, rng: random.Random) -> str:
    """A ghost assertion about the final pop result ``o``: true of
    ``top`` when ``truthful``, otherwise false in some execution."""
    if truthful:
        if top is None:
            return "match o { None => true, Some(v) => false }"
        return f"match o {{ None => false, Some(v) => v == {top} }}"
    if top is None:
        # The list is empty: claiming any element is false.
        return f"match o {{ None => false, Some(v) => v == {rng.choice(params)} }}"
    others = [p for p in params if p != top]
    if others and rng.random() < 0.5:
        # Another parameter: false whenever the two differ.
        return f"match o {{ None => false, Some(v) => v == {rng.choice(others)} }}"
    return "match o { None => true, Some(v) => false }"


def generate(seed: int, count: int = CLIENTS, planted: int = PLANTED_FALSE):
    """``count`` clients; the same seed gives the same clients."""
    rng = random.Random(seed)
    lengths = [LENGTHS[i % len(LENGTHS)] for i in range(count)]
    rng.shuffle(lengths)
    false_at = set(rng.sample(range(count), planted))
    clients = []
    for i, n in enumerate(lengths):
        params = tuple(f"x{j}" for j in range(n))
        ops, unused = [], list(params)
        for _ in range(n):
            if unused and rng.random() < PUSH_CHANCE:
                ops.append(("push", unused.pop(0)))
            else:
                ops.append(("pop", None))
        ops.append(("pop", None))
        truthful = i not in false_at
        top = final_pop_model(ops)
        clients.append(Client(
            name=f"client::gen{i}",
            params=params,
            ops=tuple(ops),
            assertion=assertion_for(top, params, truthful, rng),
            expected=truthful,
        ))
    return clients


def build_body(client: Client):
    """The client as MIR, one call per basic block."""
    fn = BodyBuilder(client.name, params=[(p, T) for p in client.params],
                     ret=option_ty(T), generics=("T",), is_safe=True)
    blocks = [fn.block()] + [fn.block(f"bb{i}")
                             for i in range(1, len(client.ops) + 2)]
    fn.local("l", LIST)
    blocks[0].call(fn.place("l"), "LinkedList::new", [], blocks[1])
    for i, (op, arg) in enumerate(client.ops, start=1):
        r = fn.local(f"r{i}", MUT_LIST)
        blocks[i].assign(r, fn.ref("l", mutable=True))
        if op == "push":
            blocks[i].call(fn.local(f"u{i}", UNIT), "LinkedList::push_front",
                           [fn.move(r), fn.copy(arg)], blocks[i + 1])
        else:
            out = "o" if i == len(client.ops) else f"o{i}"
            blocks[i].call(fn.local(out, option_ty(T)), "LinkedList::pop_front",
                           [fn.move(r)], blocks[i + 1])
    last = blocks[-1]
    last.ghost_assert(client.assertion)
    last.assign(fn.ret_place, fn.copy("o"))
    last.ret()
    return fn.finish()


def build(seed: int):
    """The LinkedList program with the seed's clients added, plus the
    clients themselves (the known answers)."""
    from repro.rustlib.linked_list import build_program
    from repro.rustlib.specs import install_callee_specs

    program, ownables = build_program()
    install_callee_specs(program, ownables)
    clients = generate(seed)
    for c in clients:
        program.add_body(build_body(c))
    return program, ownables, clients


def score(report, clients) -> dict:
    expected = {c.name: c.expected for c in clients}
    wrong, failed, seen = [], [], set()
    for e in report.entries:
        seen.add(e.function)
        if e.status not in ("verified", "refuted"):
            failed.append(f"{e.function}: {e.status}")
        elif (e.status == "verified") != expected[e.function]:
            wrong.append(f"{e.function}: {e.status}, expected "
                         f"{'verified' if expected[e.function] else 'refuted'}")
    wrong += [f"{n}: no verdict" for n in sorted(set(expected) - seen)]
    return {"wrong": wrong, "unproven": [], "failed": failed,
            "attempted": len(report.entries)}
