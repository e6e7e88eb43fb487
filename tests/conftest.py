"""Test-session settings.

Every hypothesis test draws its examples from a fixed derandomized seed
with no example database, so a run draws the same examples on every
checkout and no failure stored by an earlier run is replayed.
"""

from hypothesis import settings

settings.register_profile("deterministic", database=None, derandomize=True)
settings.load_profile("deterministic")
