import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    """Fail a test that leaves a Python thread alive after it returns."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before]
    assert not left, f"threads left alive: {left}"
