"""Shared test settings: one deterministic profile for property tests.

Examples are derived from each test's own definition instead of a random
seed, no per-example deadline applies and no example database is kept, so
a property test gives the same verdict on every run and on a slow or
loaded machine.
"""

from hypothesis import settings

settings.register_profile(
    "crossloc", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("crossloc")
