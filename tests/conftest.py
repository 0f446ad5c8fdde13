import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_left_alive():
    """Fail a test that leaves a thread running, such as an unjoined
    draw worker of ``qaoa.synthetic_chunks``."""
    before = set(threading.enumerate())
    yield
    left = [thread for thread in threading.enumerate() if thread not in before]
    if left:
        pytest.fail(f"threads left alive: {left}")
