"""Shared test set-up: every test starts with every process memo empty.

The package keeps what it derived from an input for the rest of the
process, each in a `functools.lru_cache`: `protocol.run_circuit` the
checked circuit result of each distinct input, `cli.load_state_file` the
parsed state of each distinct file content, `ReadoutModel` the table of
each distinct model, `estimation.simulate_shots` the Born distribution of
each distinct final state, and `cli` its one shared parser. A test that
injects a fault (for example by patching `protocol._R_MINUS_2`) expects
the code to run; a value kept by an earlier test for the same input would
skip it and hide the fault. The caches are found by scanning the globals
of every `concmeter` module, not by name, so one added later is emptied
too; `tests/test_api.py` pins the list the scan finds."""
import importlib
import pkgutil

import pytest

import concmeter


def _process_caches():
    found = {}
    for info in pkgutil.iter_modules(concmeter.__path__, "concmeter."):
        for name, obj in vars(importlib.import_module(info.name)).items():
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                found[f"{info.name}.{name}"] = obj
    return found


PROCESS_CACHES = _process_caches()


@pytest.fixture
def process_caches():
    """Every lru_cache in the concmeter modules, by module and global name."""
    return PROCESS_CACHES


@pytest.fixture(autouse=True)
def empty_process_caches():
    for cache in PROCESS_CACHES.values():
        cache.cache_clear()
