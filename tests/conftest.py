"""Shared test settings.

Hypothesis runs derandomized (examples derive from each test's source, not
from a random seed), with a bounded example count, no per-example deadline
and no example database, so every run of the suite checks the same cases.
"""
from hypothesis import settings

settings.register_profile("randmap", derandomize=True, max_examples=30, deadline=None,
                          database=None)
settings.load_profile("randmap")
