"""Shared test configuration.

Property tests run under a derandomized hypothesis profile without a
per-example deadline, so the suite is deterministic and does not depend
on machine speed.
"""

from hypothesis import settings

settings.register_profile("fracrte", derandomize=True, deadline=None)
settings.load_profile("fracrte")
