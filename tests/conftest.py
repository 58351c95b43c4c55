import signal

import pytest


@pytest.fixture
def deadline():
    """Turn a call that never returns into a test failure after 60 s."""

    def _expired(signum, frame):
        raise TimeoutError("the code under test did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
