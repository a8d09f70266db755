"""Hypothesis settings for the whole suite.

Every property test draws the same examples on every run, so a Tier-1
result does not depend on the run, and none has a deadline, so a slow
host does not fail a correct example.  Tests keep their own
`max_examples`.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")
