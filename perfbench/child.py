"""One measured process: runs a cqrt CLI command, a library workload or the
layer probes, then writes its timings, spans and outputs as JSON.

Usage: python3 perfbench/child.py SPEC.json

The spec names the mode and a result path.  Timestamps are
`time.perf_counter()` values, which on Linux read CLOCK_MONOTONIC and so
compare across processes: the parent subtracts its spawn time from them.
Only the standard library is imported before cqrt, so `import_s` is the whole
cost of importing the package, numpy and scipy included.
"""

import time

T_START = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()


def _done():
    """The end of the user-visible work: its time and the peak RSS so far."""
    return time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cli(cqrt, tracer, spec):
    """Run one `cqrt` command line exactly as the console script does."""
    rc = cqrt.cli.main(spec["argv"])
    done = _done()
    out = {"rc": rc}
    ens = tracer.results.get("sde.simulate")
    if ens is not None:
        cfg = ens.config
        out.update(paths=cfg.n_trajectories, steps=cfg.n_steps, chunk=_chunk(cqrt, cfg),
                   crossings=int(ens.crossing_x.size), capped=int(ens.capped_steps),
                   near_node=int(ens.near_node_steps), diverged=int(ens.n_diverged))
    return done, out


def _chunk(cqrt, cfg):
    return min(getattr(cqrt.sde, "CHUNK_SIZE", cfg.n_trajectories), cfg.n_trajectories)


def run_ladder(cqrt, tracer, spec):
    """Criterion 5's n = 70 rung: Born launches, ~201 snapshots, set B vs classical."""
    import numpy as np

    n, seed, paths, t_final = 70, spec["seed"], spec["paths"], spec["t_final"]
    dt = 0.05 / (2 * n + 1)
    n_steps = int(round(t_final / dt))
    stride = max(1, n_steps // 200)
    times = tuple(np.arange(0, n_steps + 1, stride) * dt)
    xs0 = cqrt.sample_eigenstate_positions(n, paths, seed)
    config = cqrt.SimulationConfig(
        model=cqrt.Eigenstate(n), dt=dt, t_final=t_final,
        initial_points=tuple(complex(x, 0.0) for x in xs0),
        n_trajectories=paths, master_seed=seed,
        record_mode="snapshots", snapshot_times=times,
    )
    ens = cqrt.simulate_ensemble(config)
    xs = cqrt.extract_point_set_b(ens, window=(0.0, t_final))
    bin_range = cqrt.eigenstate_bin_range(n)
    density = cqrt.build_density(xs, 100, bin_range)
    gamma = cqrt.pearson(density, cqrt.classical_reference(n)).gamma
    done = _done()

    # independent check: numpy's histogram of the live snapshot points
    live = ens.x[:, ens.alive].ravel()
    counts, _ = np.histogram(live, bins=100, range=bin_range)
    width = (bin_range[1] - bin_range[0]) / 100
    errors = []
    if not np.array_equal(xs, live):
        errors.append("set B is not the live snapshot points")
    if not np.allclose(density.densities * counts.sum() * width, counts, rtol=0, atol=1e-6):
        errors.append("density differs from numpy's histogram")
    out = dict(gamma=gamma, paths=paths, steps=config.n_steps, chunk=_chunk(cqrt, config),
               crossings=int(ens.crossing_x.size), capped=int(ens.capped_steps),
               near_node=int(ens.near_node_steps), diverged=int(ens.n_diverged),
               recorded_points=int(ens.x.size), errors=errors,
               digest=_digest([np.ascontiguousarray(a) for a in
                               (ens.times, ens.x, ens.y, ens.alive)]))
    return done, out


def run_fpe(cqrt, tracer, spec):
    """Criterion 6b's PDE half: n = 3 on a 400 x 400 cell grid, then the x-marginal."""
    import numpy as np

    n, cells = 3, spec["cells"]
    grid = cqrt.FpGrid(L=5.0, nx=cells, ny=cells)
    solution = cqrt.fp_solve(cqrt.Eigenstate(n), grid, spec["t_final"])
    marginal = cqrt.fp_marginal_x(solution)
    gamma = cqrt.pearson(marginal, cqrt.eigenstate_reference(n)).gamma
    done = _done()

    rho = solution.rho
    errors = []
    if not np.all(np.isfinite(rho)) or np.any(rho < 0):
        errors.append("density field is not finite and non-negative")
    mass = float(np.sum(rho) * grid.hx * grid.hy)
    if abs(mass - solution.total_mass) > 1e-9 * abs(mass):
        errors.append("total_mass disagrees with the field")
    if abs(float(np.sum(marginal.densities) * grid.hx) - 1.0) > 1e-9:
        errors.append("x-marginal does not integrate to 1")
    out = dict(gamma=gamma, cells=int(rho.size), steps=int(solution.steps),
               clipped_frac=solution.clipped_mass / solution.initial_mass,
               mass_change=solution.mass_change, errors=errors,
               digest=_digest([np.ascontiguousarray(rho)]))
    return done, out


def _median_call(func, reps):
    calls = []
    for _ in range(reps + 2):
        started = time.perf_counter()
        func()
        calls.append(time.perf_counter() - started)
    calls = sorted(calls[2:])
    return calls[len(calls) // 2]


def run_probes(cqrt, tracer, spec):
    """Per-call medians of the drift kernel and of one FPE step."""
    import numpy as np

    rng = np.random.Generator(np.random.PCG64(spec["seed"]))
    drift = cqrt.sde.log_derivative_masked
    points = 8192
    out = {}
    for key, model in (("n0", cqrt.Eigenstate(0)), ("n1", cqrt.Eigenstate(1)),
                       ("n4", cqrt.Eigenstate(4)), ("n70", cqrt.Eigenstate(70)),
                       ("packet", cqrt.GaussianPacket(1.0))):
        # Born-distributed real parts with a diffused imaginary part, as the
        # ensembles see them; the packet's points spread as at t = 0.5
        if isinstance(model, cqrt.Eigenstate):
            x = cqrt.sample_eigenstate_positions(model.n, points, spec["seed"])
        else:
            x = rng.normal(0.5, np.sqrt(0.625), points)
        z = x + 1j * rng.normal(0.0, 0.5, points)
        out[f"drift.{key}.call_s"] = _median_call(lambda: drift(model, 0.5, z), 15)
    for cells in (200, 400):
        grid = cqrt.FpGrid(L=5.0, nx=cells, ny=cells)
        rho = cqrt.fp_initial(3, grid)
        field = cqrt.drift_field(cqrt.Eigenstate(3), grid)
        solution = cqrt.FpSolution(grid=grid, t=0.0, rho=rho, total_mass=1.0, initial_mass=1.0)
        out[f"fpe.step{cells}.call_s"] = _median_call(lambda: cqrt.fp_step(solution, field), 15)
    return _done(), out


MODES = {"cli": run_cli, "ladder": run_ladder, "fpe": run_fpe, "probes": run_probes}


def main():
    with open(sys.argv[1]) as handle:
        spec = json.load(handle)
    started = time.perf_counter()
    import cqrt
    import cqrt.cli
    import_s = time.perf_counter() - started
    src = os.path.join(spec["src"], "cqrt")
    if os.path.dirname(os.path.abspath(cqrt.__file__)) != src:
        raise RuntimeError(f"imported cqrt from {cqrt.__file__}, not from {src}")

    import tracing

    tracer = tracing.Tracer()
    tracer.install(tracing.TIMING_POINTS)
    if spec["trace"]:
        tracer.install(tracing.LAYER_POINTS)
    t_main = time.perf_counter()
    (t_done, rss_kb), out = MODES[spec["mode"]](cqrt, tracer, spec)
    result = dict(t_start=T_START, t_main=t_main, t_done=t_done, import_s=import_s,
                  rss_kb=rss_kb, out=out, spans=tracer.spans)
    tmp = spec["result"] + ".part"
    with open(tmp, "w") as handle:
        json.dump(result, handle)
    os.replace(tmp, spec["result"])


if __name__ == "__main__":
    main()
