"""Shared test configuration.

Property tests run under a derandomized hypothesis profile without a
per-example deadline, so the suite is deterministic and does not depend
on machine speed.
"""

import sys

import pytest
from hypothesis import settings

settings.register_profile("fracrte", derandomize=True, deadline=None)
settings.load_profile("fracrte")


@pytest.fixture
def switch_often():
    """Switch threads every microsecond while a test runs, so a race between
    worker threads has the chance to show."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)
