"""The benchmark's tracer finds every function it wraps.

perfbench/tracing.py wraps cqrt functions by module and attribute name and
silently skips a name it cannot find, which would leave that layer's metrics
at 0.  These checks read its hook tables without changing them.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import cqrt
from cqrt import Eigenstate, FpGrid, SimulationConfig, fp_solve, simulate_ensemble

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TABLES = _tracing()
HOOKS = [point[:2] for point in _TABLES.TIMING_POINTS + _TABLES.LAYER_POINTS]


@pytest.mark.parametrize("module_name, attr", HOOKS, ids=[".".join(h) for h in HOOKS])
def test_hook_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def _count_calls(monkeypatch, owner, attr):
    """Replace owner.attr by a wrapper that records each call; returns the record."""
    calls = []
    func = getattr(owner, attr)

    def counting(*args):
        calls.append(1)
        return func(*args)

    monkeypatch.setattr(owner, attr, counting)
    return calls


def _two_chunk_ensemble(monkeypatch):
    """Run 5 paths in chunks of 3; returns the number of steps."""
    monkeypatch.setattr(cqrt.sde, "CHUNK_SIZE", 3)
    config = SimulationConfig(model=Eigenstate(1), dt=0.01, t_final=0.05,
                              initial_points=(0.5 + 0j,), n_trajectories=5)
    simulate_ensemble(config)
    return config.n_steps


# the drift spans exist only while the step kernel goes through the
# module-global log_derivative_masked, once per step of each chunk
def test_integrator_calls_the_drift_hook(monkeypatch):
    calls = _count_calls(monkeypatch, cqrt.sde, "log_derivative_masked")
    n_steps = _two_chunk_ensemble(monkeypatch)
    assert len(calls) == 2 * n_steps


def test_integrator_calls_the_noise_hook(monkeypatch):
    calls = _count_calls(monkeypatch, cqrt.sde, "standard_normals")
    n_steps = _two_chunk_ensemble(monkeypatch)
    assert len(calls) == 2 * n_steps


def test_solver_calls_the_step_hook_once_per_step(monkeypatch):
    # the fpe.step spans, and with them fpe.step_s.* and fpe.bytes_per_step,
    # exist only while fp_solve goes through the module-global fp_step
    calls = _count_calls(monkeypatch, cqrt.fpe, "fp_step")
    grid = FpGrid(L=5.0, nx=40, ny=40)
    t_final = 0.3
    solution = fp_solve(Eigenstate(1), grid, t_final)
    assert len(calls) == round(t_final / grid.dt_pde) == solution.steps
