"""A wall-clock limit on every test call.

A loop whose exit guard is broken (a QL sweep without its iteration cap,
Tonelli-Shanks on a non-square) must fail its test, not hang the run.
pytest-timeout is not a dependency, so the limit is a SIGALRM interval
timer around each test call, on platforms that have SIGALRM.  Forked
children do not inherit the timer."""

import signal

import pytest

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
