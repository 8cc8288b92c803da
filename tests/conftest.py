import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """peak(fn, *args) -> (fn(*args), the most bytes the call held at once
    beyond what was allocated before it).  numpy reports its array buffers
    to tracemalloc, so this counts every array the call makes."""

    def peak(fn, *args):
        tracemalloc.start()
        try:
            result = fn(*args)
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
