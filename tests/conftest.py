"""Shared test settings and helpers.

Hypothesis runs derandomized (examples derive from each test's source, not
from a random seed), with a bounded example count, no per-example deadline
and no example database, so every run of the suite checks the same cases.
"""
import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("randmap", derandomize=True, max_examples=30, deadline=None,
                          database=None)
settings.load_profile("randmap")


def _peak_traced_bytes(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn() runs, numpy
    array data included (the traced peak of this call alone, not the RSS)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def peak_traced_bytes():
    """The helper `peak_traced_bytes(fn) -> int` (see _peak_traced_bytes)."""
    return _peak_traced_bytes
