"""The benchmark's tracer finds every function it wraps.

perfbench/tracing.py wraps cqrt functions by module and attribute name and
silently skips a name it cannot find, which would leave that layer's metrics
at 0, and perfbench/child.py reads attributes of the Ensemble, where a missing
one fails the workload.  These checks read both files without changing them.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import cqrt
from cqrt import Eigenstate, FpGrid, SimulationConfig, fp_solve, simulate_ensemble

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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

    def counting(*args, **kwargs):
        calls.append(1)
        return func(*args, **kwargs)

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


def _unresolved_ensemble_reads(source):
    """The attributes read as `ens.<attr>` in source that a small
    simulate_ensemble result lacks."""
    ens = simulate_ensemble(SimulationConfig(model=Eigenstate(1), dt=0.01, t_final=0.02,
                                             initial_points=(0.5 + 0j,), n_trajectories=2))
    reads = {node.attr for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "ens"}
    assert reads, "no ens.<attr> read found"
    return sorted(attr for attr in reads if not hasattr(ens, attr))


def test_child_reads_only_ensemble_attributes_that_exist():
    # the readme_pipeline and ladder_n70 workloads read these off the ensemble
    assert _unresolved_ensemble_reads((PERFBENCH / "child.py").read_text()) == []


def test_unresolved_ensemble_read_is_caught():
    snippet = "def run(ens):\n    return ens.crossing_x.size, ens.no_such_count\n"
    assert _unresolved_ensemble_reads(snippet) == ["no_such_count"]
