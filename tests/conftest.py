"""Helpers shared by the test modules."""

import multiprocessing
import tracemalloc

import numpy as np
import pytest


def hermite_real_roots(n: int) -> np.ndarray:
    """The n real zeros of H_n, ascending."""
    return np.sort(np.polynomial.hermite.hermroots(np.eye(n + 1)[n]))


# 248 launches 0.3 above the axis, one 1e-9 off psi_1's node that leaves on
# its first step, and one at 999,000 whose |z| grows by sqrt(1 + dt**2) a step
# and passes BLOWUP_THRESHOLD after about 20: 0.8% of the paths diverge
DIVERGING_LAUNCHES = tuple(np.linspace(-2.0, 2.0, 248) + 0.3j) + (1e-9 + 0j, 999_000 + 0j)


def _traced_peak(func, *args, **kwargs):
    """(result, peak): func(*args, **kwargs) and the peak of the memory that
    tracemalloc saw allocated during the call, in bytes (numpy's array data
    included)."""
    tracemalloc.start()
    try:
        result = func(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    """The _traced_peak helper: traced_peak(func, *args) -> (result, peak bytes)."""
    return _traced_peak


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fails any test after which a child process is still running (and ends
    it): simulate_ensemble must join every worker it forks."""
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.kill()
        child.join()
    assert not leaked, f"child processes left running: {leaked}"
