"""Shared test settings: one deterministic profile for property tests.

Examples are derived from each test's own definition instead of a random
seed, no per-example deadline applies and no example database is kept, so
a property test gives the same verdict on every run and on a slow or
loaded machine.  ``crossloc-long`` is the same profile with 2,000 examples
per property: ``pytest --hypothesis-profile=crossloc-long`` loads it over
the default.
"""

from hypothesis import settings

settings.register_profile(
    "crossloc", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.register_profile("crossloc-long", settings.get_profile("crossloc"), max_examples=2000)
settings.load_profile("crossloc")
