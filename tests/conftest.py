"""A wall-clock limit on every test call, and empty new-part and
new-block caches for the tests that count characteristic polynomials and
block solves.

A loop whose exit guard is broken (a QL sweep without its iteration cap,
Tonelli-Shanks on a non-square) must fail its test, not hang the run.
pytest-timeout is not a dependency, so the limit is a SIGALRM interval
timer around each test call, on platforms that have SIGALRM.  Forked
children do not inherit the timer."""

import signal

import pytest

from isograph.graph import new_part
from isograph.spectral import new_block_eigenvalues

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
    """graph.new_part's and spectral.new_block_eigenvalues' per-process
    caches emptied before and after the test, so every new part and block
    the test asks for is computed inside it and an earlier test's entries
    cannot hide a call that it counts or a mutation that it plants."""
    new_part.cache_clear()
    new_block_eigenvalues.cache_clear()
    yield
    new_part.cache_clear()
    new_block_eigenvalues.cache_clear()
