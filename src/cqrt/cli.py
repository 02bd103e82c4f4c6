"""Command-line front end: simulate | analyze | fpe | plot | compare.

Exit codes: 0 success, 1 usage error (a bad flag or value), 2 numerical
failure, 3 I/O error (a file that cannot be read or written).
Flags override an optional key=value config file (--config); the manifest
written next to the outputs records the merged configuration, so any run can
be reproduced from its manifest alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import CqrtError
from . import serialize
from .fpe import FpGrid, fp_marginal_x, fp_solve, sample_initial_points
from .sde import SimulationConfig, simulate_ensemble
from .stats import (
    EmpiricalDensity,
    Reference,
    build_density,
    classical_reference,
    eigenstate_bin_range,
    eigenstate_reference,
    extract_point_set_a,
    extract_point_set_b,
    gaussian_bin_range,
    gaussian_reference,
    pearson,
    snapshot_positions,
)
from .svgplot import SvgPlot
from .wavefield import Eigenstate, GaussianPacket

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class UsageError(Exception):
    pass


def parse_model(text: str):
    """eigenstate:N or gaussian:p0=X[,form=exact|simplified]."""
    kind, _, rest = text.partition(":")
    if kind == "eigenstate":
        try:
            return Eigenstate(int(rest))
        except ValueError as exc:
            raise UsageError(f"bad eigenstate model string {text!r}") from exc
    if kind == "gaussian":
        p0 = None
        form = "exact"
        for item in filter(None, rest.split(",")):
            key, _, val = item.partition("=")
            if key == "p0":
                try:
                    p0 = float(val)
                except ValueError as exc:
                    raise UsageError(f"bad gaussian p0 {val!r}") from exc
            elif key == "form":
                form = val
            else:
                raise UsageError(f"unknown gaussian parameter {key!r}")
        if p0 is None:
            raise UsageError("gaussian model requires p0=<value>")
        try:
            return GaussianPacket(p0, form)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown model kind {kind!r} (use eigenstate:N or gaussian:p0=X)")


def parse_initial_points(text: str, model, n_trajectories: int, seed: int):
    """Point list "x,y;x2,y2" with a +- prefix expanding both signs, or a
    sampler keyword: "born" (1D Born density of the eigenstate) or "fp"
    (the 2D Fokker-Planck initial density)."""
    text = text.strip()
    if text in ("born", "fp"):
        if not isinstance(model, Eigenstate):
            raise UsageError(f"--init {text} requires an eigenstate model")
        if text == "born":
            from .wavefield import sample_eigenstate_positions

            xs = sample_eigenstate_positions(model.n, n_trajectories, seed)
            return tuple(complex(x, 0.0) for x in xs)
        return tuple(sample_initial_points(model.n, n_trajectories, seed))
    points = []
    for token in filter(None, (t.strip() for t in text.split(";"))):
        parts = token.split(",")
        if len(parts) != 2:
            raise UsageError(f"bad point {token!r} (expected x,y)")
        xs_text, y_text = parts[0].strip(), parts[1].strip()
        both = False
        for prefix in ("±", "+-"):
            if xs_text.startswith(prefix):
                both = True
                xs_text = xs_text[len(prefix):]
        try:
            x = float(xs_text)
            y = float(y_text)
        except ValueError as exc:
            raise UsageError(f"bad point {token!r}") from exc
        points.append(complex(x, y))
        if both and x != 0.0:
            points.append(complex(-x, y))
    if not points:
        raise UsageError("no initial points given")
    return tuple(points)


def _parse_pair(text: str, what: str):
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad {what} {text!r} (expected lo,hi)") from exc
    return lo, hi


def _load_config_file(path: str) -> dict:
    values = {}
    with open(path) as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}: bad config line {raw.strip()!r}")
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


def _merge_config(args: argparse.Namespace, parser_defaults: dict) -> dict:
    """flags > config file > defaults; returns the merged option dict."""
    merged = dict(parser_defaults)
    if getattr(args, "config", None):
        file_values = _load_config_file(args.config)
        unknown = set(file_values) - set(parser_defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_values)
    for key in parser_defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _conv(merged: dict, key: str, converter):
    value = merged[key]
    if value is None or not isinstance(value, str):
        return value
    try:
        return converter(value)
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"bad value for {key}: {value!r}") from exc


# ---------------------------------------------------------------- simulate

SIMULATE_DEFAULTS = {
    "model": None,  # required
    "init": "0,0",
    "n": "1000",
    "dt": "0.01",
    "t": "1.0",
    "seed": "42",
    "snapshots": None,
    "record": None,
    "drift_cap": "10.0",
    "threads": "1",
    "out": None,  # required
}


def cmd_simulate(args: argparse.Namespace) -> int:
    merged = _merge_config(args, SIMULATE_DEFAULTS)
    if merged["model"] is None or merged["out"] is None:
        raise UsageError("simulate requires --model and --out")
    model = parse_model(merged["model"])
    n = _conv(merged, "n", int)
    seed = _conv(merged, "seed", int)
    dt = _conv(merged, "dt", float)
    t_final = _conv(merged, "t", float)
    drift_cap = _conv(merged, "drift_cap", float)
    threads = _conv(merged, "threads", int)
    snapshots = ()
    if merged["snapshots"]:
        snapshots = tuple(float(v) for v in merged["snapshots"].split(","))
    record = merged["record"] or ("snapshots" if snapshots else "crossings")
    record_mode = {"full": "full_path", "crossings": "crossings_and_final",
                   "snapshots": "snapshots"}.get(record)
    if record_mode is None:
        raise UsageError(f"--record must be full, crossings, or snapshots, got {record!r}")
    if record_mode == "snapshots" and not snapshots:
        raise UsageError("--record snapshots requires --snapshots")
    init = parse_initial_points(merged["init"], model, n, seed)

    config = SimulationConfig(
        model=model, dt=dt, t_final=t_final, initial_points=init, n_trajectories=n,
        master_seed=seed, record_mode=record_mode, snapshot_times=snapshots,
        drift_cap=drift_cap,
    )
    started = time.monotonic()
    ensemble = simulate_ensemble(config, threads=threads)
    duration = time.monotonic() - started

    out_dir = merged["out"]
    os.makedirs(out_dir, exist_ok=True)
    files = {}

    path = os.path.join(out_dir, "crossings.csv")
    serialize.write_crossings(path, ensemble.crossing_ids, ensemble.crossing_times,
                              ensemble.crossing_x)
    files["crossings.csv"] = path

    ids = np.arange(config.n_trajectories)
    for row, t_rec in enumerate(ensemble.times if ensemble.x is not None else []):
        name = f"snapshot_{t_rec:.6g}.csv"
        if record_mode == "full_path" and row not in (0, len(ensemble.times) - 1):
            continue  # full paths go to paths.csv; keep only the endpoints as snapshots
        path = os.path.join(out_dir, name)
        serialize.write_snapshot(path, ids[ensemble.alive], float(t_rec),
                                 ensemble.x[row, ensemble.alive],
                                 ensemble.y[row, ensemble.alive])
        files[name] = path

    path = os.path.join(out_dir, "final.csv")
    serialize.write_snapshot(path, ids[ensemble.alive], config.adjusted_t_final,
                             ensemble.final_x[ensemble.alive],
                             ensemble.final_y[ensemble.alive])
    files["final.csv"] = path

    if record_mode == "full_path":
        path = os.path.join(out_dir, "paths.csv")
        alive_ids = ids[ensemble.alive]
        n_rec = len(ensemble.times)
        serialize.write_table(
            path, ["traj_id", "t", "x", "y"],
            [np.repeat(alive_ids, n_rec),
             np.tile(ensemble.times, alive_ids.size),
             ensemble.x[:, ensemble.alive].T.ravel(),
             ensemble.y[:, ensemble.alive].T.ravel()])
        files["paths.csv"] = path

    config_echo = dict(merged, command="simulate", n_steps=config.n_steps,
                       t_final_adjusted=config.adjusted_t_final)
    diagnostics = {
        "capped_steps": ensemble.capped_steps,
        "near_node_steps": ensemble.near_node_steps,
        "diverged": ensemble.n_diverged,
    }
    serialize.write_manifest(os.path.join(out_dir, "manifest.json"), config_echo,
                             __version__, duration, diagnostics, files)
    print(f"simulate: {n} trajectories, {config.n_steps} steps, "
          f"{len(ensemble.crossing_x)} crossings, {ensemble.n_diverged} diverged, "
          f"{duration:.2f}s -> {out_dir}")
    return EXIT_OK


# ----------------------------------------------------------------- analyze

ANALYZE_DEFAULTS = {
    "pool": None,  # required
    "set": "a",
    "t": None,
    "window": None,
    "bins": "100",
    "range": None,
    "reference": None,
    "out": None,  # required
}


def _model_from_manifest(manifest: dict):
    return parse_model(manifest["config"]["model"])


def _pool_samples(pool_dir: str, which: str, window, t):
    """Assemble the requested sample pool from a simulate output directory."""
    if which == "a":
        _, times, xs = serialize.read_crossings(os.path.join(pool_dir, "crossings.csv"))
        if window is not None:
            lo, hi = window
            keep = (times >= lo - 1e-12) & (times <= hi + 1e-12)
            xs = xs[keep]
        return xs
    snapshots = sorted(
        f for f in os.listdir(pool_dir) if f.startswith("snapshot_") and f.endswith(".csv")
    )
    if which == "snapshot":
        if t is None:
            raise UsageError("--set snapshot requires --t")
        for name in snapshots:
            _, ts, xs, _ = serialize.read_snapshot(os.path.join(pool_dir, name))
            if ts.size and abs(ts[0] - t) <= 1e-9 * max(1.0, abs(t)):
                return xs
        raise UsageError(f"no snapshot at t={t} in {pool_dir}")
    if which == "b":
        paths = os.path.join(pool_dir, "paths.csv")
        pools = []
        if os.path.exists(paths):
            _, cols = serialize.read_table(paths)
            times, xs = cols[1], cols[2]
            if window is not None:
                lo, hi = window
                keep = (times >= lo - 1e-12) & (times <= hi + 1e-12)
                xs = xs[keep]
            pools.append(xs)
        else:
            for name in snapshots:
                _, ts, xs, _ = serialize.read_snapshot(os.path.join(pool_dir, name))
                if window is not None and ts.size:
                    lo, hi = window
                    if not (lo - 1e-12 <= ts[0] <= hi + 1e-12):
                        continue
                pools.append(xs)
        if not pools:
            raise UsageError(f"no path records for set b in {pool_dir}")
        return np.concatenate(pools)
    raise UsageError(f"--set must be a, b, or snapshot, got {which!r}")


def _reference_for(name: str, model, t):
    if name in (None, "none"):
        return None
    if name == "quantum_eigenstate":
        if not isinstance(model, Eigenstate):
            raise UsageError("quantum_eigenstate reference needs an eigenstate pool")
        return eigenstate_reference(model.n)
    if name == "quantum_gaussian":
        if not isinstance(model, GaussianPacket):
            raise UsageError("quantum_gaussian reference needs a gaussian pool")
        if t is None:
            raise UsageError("quantum_gaussian reference requires --t")
        return gaussian_reference(model.p0, t)
    if name == "classical":
        if not isinstance(model, Eigenstate):
            raise UsageError("classical reference needs an eigenstate pool")
        return classical_reference(model.n)
    raise UsageError(f"unknown reference {name!r}")


def cmd_analyze(args: argparse.Namespace) -> int:
    merged = _merge_config(args, ANALYZE_DEFAULTS)
    if merged["pool"] is None or merged["out"] is None:
        raise UsageError("analyze requires --pool and --out")
    pool_dir = merged["pool"]
    manifest = serialize.read_manifest(os.path.join(pool_dir, "manifest.json"))
    model = _model_from_manifest(manifest)
    which = merged["set"]
    bins = _conv(merged, "bins", int)
    t = _conv(merged, "t", float)
    window = _parse_pair(merged["window"], "window") if merged["window"] else None

    started = time.monotonic()
    samples = _pool_samples(pool_dir, which, window, t)
    if merged["range"]:
        bin_range = _parse_pair(merged["range"], "range")
    elif isinstance(model, Eigenstate):
        bin_range = eigenstate_bin_range(model.n)
    else:
        if t is None:
            raise UsageError("gaussian pools need --t or an explicit --range")
        bin_range = gaussian_bin_range(model.p0, t)
    density = build_density(samples, bins, bin_range)

    out_dir = merged["out"]
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    density_path = os.path.join(out_dir, "density.csv")
    serialize.write_density(density_path, density)
    files["density.csv"] = density_path

    report_dict = {"samples": int(density.sample_count),
                   "out_of_range": int(density.out_of_range)}
    reference = _reference_for(merged["reference"], model, t)
    if reference is not None:
        report = pearson(density, reference)
        report_dict.update(gamma=report.gamma, bins=report.bins, range=list(report.range),
                           reference_name=report.reference_name)
        print(f"analyze: set={which} samples={density.sample_count} "
              f"gamma={report.gamma:.6f} vs {report.reference_name}")
    else:
        print(f"analyze: set={which} samples={density.sample_count}")
    report_path = os.path.join(out_dir, "report.json")
    serialize.atomic_write_text(report_path, json.dumps(
        serialize.jsonable(report_dict), indent=2, sort_keys=True) + "\n")
    files["report.json"] = report_path

    config_echo = dict(merged, command="analyze")
    serialize.write_manifest(os.path.join(out_dir, "manifest.json"), config_echo,
                             __version__, time.monotonic() - started, {}, files)
    return EXIT_OK


# --------------------------------------------------------------------- fpe

FPE_DEFAULTS = {
    "n": "1",
    "L": "5.0",
    "grid": "201",
    "dt_pde": None,
    "t": "1.0",
    "drift_cap": "10.0",
    "out": None,  # required
}


def cmd_fpe(args: argparse.Namespace) -> int:
    merged = _merge_config(args, FPE_DEFAULTS)
    if merged["out"] is None:
        raise UsageError("fpe requires --out")
    n = _conv(merged, "n", int)
    lines = _conv(merged, "grid", int)
    if lines < 4:
        raise UsageError("--grid must be at least 4 grid lines")
    grid = FpGrid(
        L=_conv(merged, "L", float),
        nx=lines - 1,  # --grid counts grid lines per axis; cells are one fewer
        ny=lines - 1,
        dt_pde=_conv(merged, "dt_pde", float),
    )
    t_final = _conv(merged, "t", float)
    started = time.monotonic()
    solution = fp_solve(Eigenstate(n), grid, t_final, drift_cap=_conv(merged, "drift_cap", float))
    marginal = fp_marginal_x(solution)
    duration = time.monotonic() - started

    out_dir = merged["out"]
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    field_path = os.path.join(out_dir, "field.csv")
    serialize.write_field(field_path, grid.x_centers, grid.y_centers, solution.rho)
    files["field.csv"] = field_path
    marginal_path = os.path.join(out_dir, "marginal.csv")
    serialize.write_density(marginal_path, marginal)
    files["marginal.csv"] = marginal_path

    diagnostics = {
        "steps": solution.steps,
        "dt_pde": grid.dt_pde,
        "mass_change": solution.mass_change,
        "clipped_mass_fraction": solution.clipped_mass / max(solution.initial_mass, 1e-300),
    }
    config_echo = dict(merged, command="fpe", t_reached=solution.t)
    serialize.write_manifest(os.path.join(out_dir, "manifest.json"), config_echo,
                             __version__, duration, diagnostics, files)
    print(f"fpe: n={n} grid={lines}x{lines} steps={solution.steps} "
          f"mass_change={solution.mass_change:+.3%} "
          f"clipped={diagnostics['clipped_mass_fraction']:.3%} -> {out_dir}")
    if diagnostics["clipped_mass_fraction"] > 0.05:
        print("fpe: warning: clipped mass exceeds 5%; the grid under-resolves "
              "the drift (refine --grid)", file=sys.stderr)
    return EXIT_OK


# -------------------------------------------------------------------- plot

def _parse_curve(text: str, x: np.ndarray):
    name, _, rest = text.partition(":")
    params = {}
    for item in filter(None, rest.split(",")):
        key, _, val = item.partition("=")
        params[key] = float(val)
    needed = {"quantum_eigenstate": ("n",), "classical": ("n",),
              "quantum_gaussian": ("p0", "t")}.get(name, ())
    missing = [key for key in needed if key not in params]
    if missing:
        raise UsageError(f"curve {name!r} needs {', '.join(k + '=' for k in missing)}")
    if name == "quantum_eigenstate":
        from .wavefield import quantum_density_eigenstate

        return quantum_density_eigenstate(int(params["n"]), x), f"quantum n={int(params['n'])}"
    if name == "classical":
        from .wavefield import classical_density

        return classical_density(int(params["n"]), x), f"classical n={int(params['n'])}"
    if name == "quantum_gaussian":
        from .wavefield import quantum_density_gaussian

        return (quantum_density_gaussian(params["p0"], params["t"], x),
                f"quantum p0={params['p0']:g} t={params['t']:g}")
    raise UsageError(f"unknown curve {name!r}")


def cmd_plot(args: argparse.Namespace) -> int:
    if not args.out:
        raise UsageError("plot requires --out")
    if not args.density and not args.curve:
        raise UsageError("plot needs at least one --density or --curve")
    plot = SvgPlot(title=args.title or "", xlabel="x", ylabel="density")
    x_lo, x_hi = np.inf, -np.inf
    densities = []
    for path in args.density or []:
        centers, dens, _ = serialize.read_density(path)
        densities.append((os.path.basename(path), centers, dens))
        x_lo = min(x_lo, centers.min())
        x_hi = max(x_hi, centers.max())
    if args.range:
        x_lo, x_hi = _parse_pair(args.range, "range")
    if not np.isfinite(x_lo):
        raise UsageError("--curve alone needs --range lo,hi")
    grid = np.linspace(x_lo, x_hi, 512)
    for text in args.curve or []:
        y, label = _parse_curve(text, grid)
        plot.add_line(grid, y, label)
    for label, centers, dens in densities:
        plot.add_points(centers, dens, label)
    if args.report:
        report = serialize.read_manifest(args.report)
        if "gamma" in report:
            plot.annotate(f"Gamma = {report['gamma']:.4f}")
    if args.gamma is not None:
        plot.annotate(f"Gamma = {args.gamma:.4f}")
    serialize.atomic_write_text(args.out, plot.render())
    print(f"plot: wrote {args.out}")
    return EXIT_OK


# ----------------------------------------------------------------- compare

def cmd_compare(args: argparse.Namespace) -> int:
    centers_a, dens_a, _ = serialize.read_density(args.first)
    centers_b, dens_b, _ = serialize.read_density(args.second)
    width = centers_a[1] - centers_a[0]
    edges = np.concatenate([centers_a - width / 2, [centers_a[-1] + width / 2]])
    total = float(np.sum(dens_a) * width)
    density = EmpiricalDensity(bin_edges=edges, densities=dens_a / total, sample_count=0)

    def other(x):
        return np.interp(x, centers_b, dens_b)

    other.__name__ = os.path.basename(args.second)
    report = pearson(density, Reference(other.__name__, other))
    print(f"compare: gamma={report.gamma:.6f} ({args.first} vs {args.second})")
    if args.out:
        serialize.atomic_write_text(args.out, json.dumps(
            {"gamma": report.gamma, "first": args.first, "second": args.second},
            indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# -------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqrt",
        description="Stochastic complex-plane quantum trajectories, their statistics, "
                    "and the matching Fokker-Planck solver.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a trajectory ensemble")
    for flag in ("model", "init", "snapshots", "record", "out", "config"):
        sim.add_argument(f"--{flag}")
    for flag in ("n", "dt", "t", "seed", "drift-cap", "threads"):
        sim.add_argument(f"--{flag.replace('-', '-')}", dest=flag.replace("-", "_"))
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="histogram a pool and compare to a reference")
    for flag in ("pool", "set", "t", "window", "bins", "range", "reference", "out", "config"):
        ana.add_argument(f"--{flag}")
    ana.set_defaults(func=cmd_analyze)

    fpe = sub.add_parser("fpe", help="finite-difference Fokker-Planck solve")
    for flag in ("n", "L", "grid", "dt-pde", "t", "drift-cap", "out", "config"):
        fpe.add_argument(f"--{flag}", dest=flag.replace("-", "_"))
    fpe.set_defaults(func=cmd_fpe)

    plo = sub.add_parser("plot", help="render densities and analytic curves to SVG")
    plo.add_argument("--density", action="append")
    plo.add_argument("--curve", action="append")
    plo.add_argument("--report")
    plo.add_argument("--gamma", type=float)
    plo.add_argument("--title")
    plo.add_argument("--range")
    plo.add_argument("--out")
    plo.set_defaults(func=cmd_plot)

    cmp_ = sub.add_parser("compare", help="Pearson correlation of two density files")
    cmp_.add_argument("--first", required=True)
    cmp_.add_argument("--second", required=True)
    cmp_.add_argument("--out")
    cmp_.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; report them under our contract
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CqrtError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        # the library rejects bad arguments with ValueError; a KeyError is a
        # field missing from an input such as a manifest
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
