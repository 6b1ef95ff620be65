import multiprocessing
import os

import pytest


def shared_file_descriptors():
    """Descriptors of the package's shared files open in this process."""
    links = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            links.append(os.readlink(f"/proc/self/fd/{fd}"))
        except FileNotFoundError:  # the one listdir opened, closed since
            pass
    return [link for link in links if "memfd:hwfatigue" in link]


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test reaps the processes it starts, the fan-out's children included."""
    yield
    assert multiprocessing.active_children() == []


@pytest.fixture(autouse=True)
def no_shared_file_left():
    """``_fan_out`` closes every shared file it made before it returns or raises."""
    yield
    assert shared_file_descriptors() == []
