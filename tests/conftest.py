import signal

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

TEST_TIME_LIMIT_S = 600


class TimeLimitExceeded(BaseException):
    """Raised by SIGALRM in a test that outruns ``TEST_TIME_LIMIT_S``.  It
    is not an ``Exception``, so neither the code under test nor Hypothesis
    catches it (Hypothesis would rerun the example to shrink it), and
    pytest reports it as a failure of the running test."""


def _time_limit_exceeded(signum, frame):
    raise TimeLimitExceeded(f"test ran longer than {TEST_TIME_LIMIT_S} s")


@pytest.fixture(autouse=True)
def time_limit():
    """Fail a test that runs too long under its own name: a division loop
    that never ends would otherwise hang the whole run."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _time_limit_exceeded)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
