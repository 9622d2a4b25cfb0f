"""Fixtures for the proof-store suite.

Reuses the robustness suite's synthetic program (fast to verify,
exercises the full pipeline surface) and adds counter/fault hygiene:
every test starts with zeroed ``STORE_STATS`` and a clean fault table.
"""

import pytest

from repro import faultinject
from repro.gilsonite.ownable import OwnableRegistry
from repro.lang.mir import Program
from repro.obs.metrics import metrics

from tests.robustness.conftest import FAST_FNS, _diverging_body, _fast_body


@pytest.fixture()
def env():
    """A fresh program per test: store tests mutate verifier state and
    must not leak lazily-synthesised predicates into each other."""
    program = Program()
    for n in FAST_FNS:
        program.add_body(_fast_body(n))
    program.add_body(_diverging_body())
    return program, OwnableRegistry(program)


@pytest.fixture(autouse=True)
def clean_counters_and_faults():
    metrics.reset("store")
    faultinject.clear()
    yield
    faultinject.clear()
    metrics.reset("store")
