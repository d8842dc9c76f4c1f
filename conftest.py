import pathlib
import sys
import tracemalloc

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent / "src"))


@pytest.fixture
def traced_peak():
    """measure(fn, *args, **kwargs) calls fn and returns its result and the
    tracemalloc peak of the call, in bytes above the memory traced before
    it. Tracing is started for the call and stopped after it, unless it was
    already on."""

    def measure(fn, *args, **kwargs):
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            result = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        return result, peak

    return measure
