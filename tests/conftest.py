import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test reaps the processes it starts, the fan-out's children included."""
    yield
    assert multiprocessing.active_children() == []
