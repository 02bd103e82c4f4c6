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


def test_integrator_calls_the_drift_hook(monkeypatch):
    calls = []
    drift = cqrt.sde.log_derivative_masked

    def counting(*args):
        calls.append(1)
        return drift(*args)

    monkeypatch.setattr(cqrt.sde, "log_derivative_masked", counting)
    simulate_ensemble(SimulationConfig(model=Eigenstate(1), dt=0.01, t_final=0.05,
                                       initial_points=(0.5 + 0j,), n_trajectories=4))
    assert len(calls) > 0


def test_solver_calls_the_step_hook_once_per_step(monkeypatch):
    # the fpe.step spans, and with them fpe.step_s.* and fpe.bytes_per_step,
    # exist only while fp_solve goes through the module-global fp_step
    calls = []
    step = cqrt.fpe.fp_step

    def counting(*args):
        calls.append(1)
        return step(*args)

    monkeypatch.setattr(cqrt.fpe, "fp_step", counting)
    grid = FpGrid(L=5.0, nx=40, ny=40)
    t_final = 0.3
    solution = fp_solve(Eigenstate(1), grid, t_final)
    assert len(calls) == round(t_final / grid.dt_pde) == solution.steps
