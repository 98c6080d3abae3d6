"""Shared test set-up: every test starts with an empty run_circuit memo.

`protocol.run_circuit` keeps the checked result of each recent distinct
input for the rest of the process. A test that injects a fault into the
circuit (for example by patching `protocol._R_MINUS_2`) expects the
simulation to run; a result kept by an earlier test for the same state
would skip it and hide the fault. Emptying the memo first makes every
test independent of which tests ran before it."""
import pytest

from concmeter import protocol


@pytest.fixture(autouse=True)
def empty_circuit_memo():
    protocol._memo.clear()
