"""Self-checks of the benchmark's input generators and counters.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest -q perfbench

The known answers must not depend on the verifier, so the generator's
labels are re-derived here by evaluating each assertion directly on the
generator's list model.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import daemon_edits  # noqa: E402
import safe_clients  # noqa: E402

_ASSERTION = re.compile(
    r"match o \{ None => (true|false), Some\(v\) => (false|v == (x\d+)) \}")


def holds(assertion: str, top) -> bool:
    """Whether ``assertion`` holds in every execution whose final pop
    returns parameter ``top`` (``None``: the list was empty). Distinct
    parameters may differ, so ``v == x`` holds only when ``x`` is
    ``top`` itself."""
    m = _ASSERTION.fullmatch(assertion)
    assert m, assertion
    none_arm, some_arm, param = m.groups()
    if top is None:
        return none_arm == "true"
    return some_arm != "false" and param == top


@pytest.mark.parametrize("seed", range(20))
def test_expected_verdict_follows_from_model(seed):
    clients = safe_clients.generate(seed)
    for c in clients:
        assert c.ops[-1] == ("pop", None)
        assert holds(c.assertion, safe_clients.final_pop_model(c.ops)) == c.expected, c
    assert sum(not c.expected for c in clients) == safe_clients.PLANTED_FALSE


def test_final_pop_of_empty_list_takes_none_arm():
    ops = (("push", "x0"), ("pop", None), ("pop", None))
    assert safe_clients.final_pop_model(ops) is None
    import random

    rng = random.Random(0)
    truthful = safe_clients.assertion_for(None, ("x0",), True, rng)
    assert holds(truthful, None)
    assert truthful.startswith("match o { None => true")
    for _ in range(10):
        assert not holds(safe_clients.assertion_for(None, ("x0", "x1"), False, rng), None)


def test_pop_after_refill_returns_latest_push():
    ops = (("push", "x0"), ("pop", None), ("push", "x1"), ("push", "x2"),
           ("pop", None))
    assert safe_clients.final_pop_model(ops) == "x2"


def test_same_seed_same_inputs():
    from repro.lang.pretty import pretty_body

    a, b = safe_clients.generate(7), safe_clients.generate(7)
    assert a == b
    assert [pretty_body(safe_clients.build_body(c)) for c in a] == \
        [pretty_body(safe_clients.build_body(c)) for c in b]
    assert safe_clients.generate(8) != a
    assert daemon_edits.request_block(7) == daemon_edits.request_block(7)
    assert daemon_edits.request_block(8) != daemon_edits.request_block(7)


def test_request_blocks_have_fixed_make_up():
    shapes = []
    for seed in range(5):
        block = daemon_edits.request_block(seed)
        kinds = [k for k, _, _ in block]
        assert kinds.count("edit") == len(daemon_edits.EDITABLE)
        assert kinds.count("resubmit") == 2 * daemon_edits.RESUBMITS
        assert kinds.count("revert") == 2 * daemon_edits.REVERTS
        # Each round sends resubmits, then edits, then reverts both
        # corpora, and undoes the same number of edits per corpus
        # whatever the seed.
        rounds, current = [], []
        for kind, corpus, _ in block:
            current.append((kind, corpus))
            if kind == "revert" and corpus == daemon_edits.CORPORA[-1]:
                kinds = [k for k, _ in current]
                assert kinds == sorted(kinds, key=["resubmit", "edit", "revert"].index)
                rounds.append(sorted(current))
                current = []
        assert not current and len(rounds) == daemon_edits.REVERTS
        shapes.append(rounds)
    assert all(shape == shapes[0] for shape in shapes)


def test_edit_keeps_contract_and_is_new():
    base = daemon_edits.original_contracts()["linked_list"]["LinkedList::len"]
    one, two = daemon_edits.edited(base, 1), daemon_edits.edited(base, 2)
    assert one["ensures"][:-1] == base["ensures"] and one != two
    assert base["ensures"] == ["result == self@.len()", "(^self)@ == self@"]


@pytest.mark.parametrize("workload", ["unsafe_corpus", "safe_clients", "daemon_edits"])
def test_deterministic_counters_repeat(workload):
    """Two traced runs of one seed at jobs=1 give identical counters."""
    records = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", "1", "--jobs", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        lines = proc.stdout.splitlines()
        assert json.loads(lines[-1])["correct"]
        records.append(json.loads(lines[-2][len("record: "):])["deterministic"])
    assert records[0] == records[1]
