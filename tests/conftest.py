"""A wall-clock limit on every test call, and an empty new-part cache for
the tests that count characteristic polynomials.

A loop whose exit guard is broken (a QL sweep without its iteration cap,
Tonelli-Shanks on a non-square) must fail its test, not hang the run.
pytest-timeout is not a dependency, so the limit is a SIGALRM interval
timer around each test call, on platforms that have SIGALRM.  Forked
children do not inherit the timer."""

import signal

import pytest

from isograph.graph import new_part

TEST_SECONDS = 120


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def fresh_new_parts():
    """graph.new_part's per-process cache emptied before and after the
    test, so every new part the test asks for is computed inside it and an
    earlier test's entries cannot hide a call that it counts."""
    new_part.cache_clear()
    yield
    new_part.cache_clear()
