"""Memory a call adds, as ``tracemalloc`` sees it."""

import tracemalloc


def traced_peak(fn, *args):
    """``fn(*args)`` and the traced peak during the call, less what was traced before it (bytes).

    Only allocations made after tracing starts are counted, so the
    arguments and everything else alive before the call count for nothing.
    """
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
