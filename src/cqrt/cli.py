"""Command-line front end: simulate | analyze | fpe | plot | compare.

Exit codes: 0 success, 1 usage error (a bad flag or value, or a snapshot time
the pool did not record), 2 numerical failure (an empty selection among
them), 3 I/O error (a file that cannot be read or written).

A simulate pool holds point set A as crossings.csv (the export) and as
crossings.npy (what analyze reads, with no text to parse), final.csv (the end
points) and, where the record mode keeps rows (--record full, --snapshots),
points.csv: every recorded row of the live paths, time-major with ids
ascending.  `analyze` reads crossings.npy (crossings.csv in a pool without
it) or points.csv and selects with the library's rule (stats.select_window);
--t rounds to the dt grid as --snapshots does.
`compare` correlates the --first file's densities with the --second file's
interpolated at the first file's centres (stats.correlation): any strictly
increasing centres will do, a value that is not finite exits 1, and a constant
density in either file exits 2.

Every option is one typed argparse flag with its default.  An optional
key=value config file (--config) is read as flags: each key is a flag name
(written with - or _), its lines go in front of the command line's flags, and
the later flag wins, so a flag on the command line overrides the file.  An
unknown key or a bad value is a usage error; a config file that cannot be
read is an I/O error.  A reversed --range or --window (lo,hi with lo > hi) is
rejected while parsing, before any file is read.  simulate, analyze and fpe
write their outputs and then a manifest through serialize.write_run.  The
manifest records the typed options, so any run can be reproduced from it
alone, the seconds from the command's start to its last output, and each
output's digest.  `plot` draws every series with one svgplot.render call.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import CqrtError, TimeNotRecorded
from . import serialize, svgplot
from .fpe import (D_XX, D_YY, FpGrid, fp_marginal_x, fp_solve,
                  sample_eigenstate_positions, sample_initial_points)
from .sde import SimulationConfig, simulate_ensemble
from .stats import (
    Reference,
    build_density,
    classical_reference,
    correlation,
    eigenstate_bin_range,
    eigenstate_reference,
    gaussian_bin_range,
    gaussian_reference,
    pearson,
    select_snapshot,
    select_window,
    step_time,
)
from .wavefield import Eigenstate, GaussianPacket

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


def parse_model(text: str):
    """eigenstate:N or gaussian:p0=X[,form=exact|simplified]."""
    kind, _, rest = text.partition(":")
    if kind == "eigenstate":
        try:
            n = int(rest)
        except ValueError as exc:
            raise ValueError(f"bad eigenstate model string {text!r}") from exc
        return Eigenstate(n)
    if kind != "gaussian":
        raise ValueError(f"unknown model kind {kind!r} (use eigenstate:N or gaussian:p0=X)")
    params = _params(rest, ("p0", "form"))
    if "p0" not in params:
        raise ValueError("gaussian model requires p0=<value>")
    try:
        return GaussianPacket(float(params["p0"]), params.get("form", "exact"))
    except ValueError as exc:
        raise ValueError(f"bad gaussian model {text!r}: {exc}") from exc


def _params(text: str, allowed: tuple) -> dict:
    """'key=value,key=value' as a dict of strings; a key not in allowed is a ValueError."""
    params = dict(item.partition("=")[::2] for item in filter(None, text.split(",")))
    unknown = sorted(set(params) - set(allowed))
    if unknown:
        raise ValueError(f"unknown parameter {unknown[0]!r} (takes {', '.join(allowed)})")
    return params


def parse_initial_points(text: str, model, n_trajectories: int, seed: int):
    """Point list "x,y;x2,y2" with a +- prefix expanding both signs, or a
    sampler keyword: "born" (1D Born density of the eigenstate) or "fp"
    (the 2D Fokker-Planck initial density)."""
    text = text.strip()
    if text in ("born", "fp"):
        if not isinstance(model, Eigenstate):
            raise ValueError(f"--init {text} requires an eigenstate model")
        if text == "born":
            return tuple(sample_eigenstate_positions(model.n, n_trajectories, seed) + 0j)
        return tuple(sample_initial_points(model.n, n_trajectories, seed))
    points = []
    for token in filter(None, (t.strip() for t in text.split(";"))):
        parts = token.split(",")
        if len(parts) != 2:
            raise ValueError(f"bad point {token!r} (expected x,y)")
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
            raise ValueError(f"bad point {token!r}") from exc
        points.append(complex(x, y))
        if both and x != 0.0:
            points.append(complex(-x, y))
    if not points:
        raise ValueError("no initial points given")
    return tuple(points)


# ------------------------------------------------------- types and plumbing

def _floats(text: str) -> tuple:
    """argparse type: a comma-separated list of numbers."""
    return tuple(float(v) for v in text.split(","))


def _pair(text: str) -> tuple:
    """argparse type: lo,hi with lo <= hi."""
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo,hi, got {text!r}") from None
    if not lo <= hi:
        raise argparse.ArgumentTypeError(f"reversed pair {text!r} (expected lo <= hi)")
    return lo, hi


def _config_tokens(path: str) -> list:
    """The key=value lines of a config file as --key=value flags; '#' starts a
    comment."""
    tokens = []
    with open(path) as handle:
        for raw in handle:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ValueError(f"{path}: bad config line {raw.strip()!r}")
            tokens.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return tokens


def _with_config(argv: list) -> list:
    """argv with the --config file's flags put right after the command, so the
    command line's own flags come later and win."""
    finder = argparse.ArgumentParser(prog="cqrt", add_help=False)
    finder.add_argument("--config")
    path = finder.parse_known_args(argv)[0].config
    return [argv[0], *_config_tokens(path), *argv[1:]] if path else argv


def _write_run(out_dir: str, outputs: dict, args: argparse.Namespace, started: float,
               diagnostics: dict, **extra) -> None:
    """serialize.write_run with the typed options of args plus extra as the config."""
    config = {key: value for key, value in vars(args).items() if key != "func"}
    serialize.write_run(out_dir, outputs, dict(config, **extra), __version__, started,
                        diagnostics)


#: reference name -> (the parameters it needs, its stats.Reference factory);
#: a parameter is a number or its text, and n an integer Eigenstate accepts
REFERENCES = {
    "quantum_eigenstate": (("n",), lambda n: eigenstate_reference(int(n))),
    "classical": (("n",), lambda n: classical_reference(int(n))),
    "quantum_gaussian": (("p0", "t"), lambda p0, t: gaussian_reference(float(p0), float(t))),
}


def _reference(name: str, params: dict) -> Reference:
    """The analytic density a key of REFERENCES names, built from the parameters it needs."""
    needed, make = REFERENCES[name]
    missing = [key for key in needed if params.get(key) is None]
    if missing:
        raise ValueError(f"{name} needs {', '.join(key + '=' for key in missing)}")
    return make(*(params[key] for key in needed))


# ---------------------------------------------------------------- simulate

#: --record value -> SimulationConfig.record_mode (--snapshots selects "snapshots")
RECORD_FLAGS = {"full": "full_path", "crossings": "crossings_and_final"}


def cmd_simulate(args: argparse.Namespace) -> int:
    started = time.monotonic()
    model = parse_model(args.model)
    config = SimulationConfig(
        model=model, dt=args.dt, t_final=args.t,
        initial_points=parse_initial_points(args.init, model, args.n, args.seed),
        n_trajectories=args.n, master_seed=args.seed,
        record_mode="snapshots" if args.snapshots else RECORD_FLAGS[args.record or "crossings"],
        snapshot_times=args.snapshots or (),
    )
    integrating = time.monotonic()
    ensemble = simulate_ensemble(config, threads=args.threads)
    integration_s = time.monotonic() - integrating

    alive = slice(None) if ensemble.alive.all() else ensemble.alive  # views while all live
    ids = np.arange(config.n_trajectories)[alive]
    outputs = dict.fromkeys(("crossings.csv", "crossings.npy"), lambda path: (
        serialize.write_crossings(path, ensemble.crossing_ids, ensemble.crossing_times,
                                  ensemble.crossing_x)))
    outputs["final.csv"] = lambda path: serialize.write_points(
        path, ids, config.adjusted_t_final, ensemble.final_x[alive], ensemble.final_y[alive])
    if ensemble.x is not None:  # time-major, as extract_point_set_b reads the rows
        outputs["points.csv"] = lambda path: serialize.write_points(
            path, ids, ensemble.times[:, None], ensemble.x[:, alive], ensemble.y[:, alive])

    diagnostics = {
        "near_node_steps": ensemble.near_node_steps,
        "diverged": ensemble.n_diverged,
    }
    _write_run(args.out, outputs, args, started, diagnostics,
               n_steps=config.n_steps, t_final_adjusted=config.adjusted_t_final)
    print(f"simulate: {args.n} trajectories, {config.n_steps} steps, "
          f"{len(ensemble.crossing_x)} crossings, {ensemble.n_diverged} diverged, "
          f"{integration_s:.2f}s -> {args.out}")
    return EXIT_OK


# ----------------------------------------------------------------- analyze

def _pool_samples(pool_dir: str, which: str, window, t, dt: float):
    """The requested sample pool (set a, b or snapshot) of a simulate output
    directory, selected by the library's rule (stats.select_window) from
    crossings.npy or, lacking it, crossings.csv (set a) or points.csv (b, snapshot)."""
    if which == "a":
        npy = os.path.join(pool_dir, "crossings.npy")
        _, times, xs = serialize.read_crossings(npy if os.path.exists(npy) else npy[:-3] + "csv")
        return select_window(times, xs, window)
    if which == "snapshot" and t is None:
        raise ValueError("--set snapshot requires --t")
    try:
        _, times, xs, _ = serialize.read_points(os.path.join(pool_dir, "points.csv"))
    except FileNotFoundError:
        raise ValueError(f"{pool_dir} holds no recorded path points") from None
    if which == "snapshot":
        return select_snapshot(times, xs, t, dt)
    return select_window(times, xs, window)


def cmd_analyze(args: argparse.Namespace) -> int:
    started = time.monotonic()
    manifest = serialize.read_manifest(os.path.join(args.pool, "manifest.json"))
    model = parse_model(manifest["config"]["model"])
    dt = manifest["config"]["dt"]
    samples = _pool_samples(args.pool, args.set, args.window, args.t, dt)
    # a snapshot is binned and compared at the step it was selected at
    t = step_time(args.t, dt) if args.set == "snapshot" else args.t
    if args.range:
        bin_range = args.range
    elif isinstance(model, Eigenstate):
        bin_range = eigenstate_bin_range(model.n)
    else:
        if t is None:
            raise ValueError("gaussian pools need --t or an explicit --range")
        bin_range = gaussian_bin_range(model.p0, t)
    density = build_density(samples, args.bins, bin_range)

    report_dict = {"samples": int(density.sample_count),
                   "out_of_range": int(density.out_of_range)}
    if args.reference in (None, "none"):
        print(f"analyze: set={args.set} samples={density.sample_count}")
    else:
        report = pearson(density, _reference(args.reference, dict(vars(model), t=t)))
        report_dict.update(gamma=report.gamma, bins=report.bins, range=list(report.range),
                           reference_name=report.reference_name)
        print(f"analyze: set={args.set} samples={density.sample_count} "
              f"gamma={report.gamma:.6f} vs {report.reference_name}")
    report_text = json.dumps(report_dict, indent=2, sort_keys=True) + "\n"
    outputs = {"density.csv": lambda path: serialize.write_density(path, density),
               "report.json": lambda path: serialize.atomic_write_text(path, report_text)}
    _write_run(args.out, outputs, args, started, {},
               pool_run_id=manifest["run_id"])
    return EXIT_OK


# --------------------------------------------------------------------- fpe

def cmd_fpe(args: argparse.Namespace) -> int:
    started = time.monotonic()
    model = Eigenstate(args.n)
    if args.grid < 4:
        raise ValueError("--grid must be at least 4 grid lines")
    # --grid counts grid lines per axis; cells are one fewer
    grid = FpGrid(L=args.L, nx=args.grid - 1, ny=args.grid - 1, dt_pde=args.dt_pde)
    solution = fp_solve(model, grid, args.t)
    marginal = fp_marginal_x(solution)
    speed_x, speed_y = solution.speed_x, solution.speed_y

    diagnostics = {
        "steps": solution.steps,
        "dt_pde": grid.dt_pde,
        "mass_change": solution.mass_change,
        "clipped_mass_fraction": solution.clipped_mass / max(solution.initial_mass, 1e-300),
        # known before the march: the centered stencil can undershoot where the
        # cell Peclet number exceeds 1, and mass moves past a cell per step
        # once the Courant number exceeds 1
        "courant": speed_x * grid.dt_pde / grid.hx + speed_y * grid.dt_pde / grid.hy,
        "cell_peclet": max(speed_x * grid.hx / (2.0 * D_XX), speed_y * grid.hy / (2.0 * D_YY)),
    }
    outputs = {
        "field.csv": lambda path: serialize.write_field(path, grid.x_centers, grid.y_centers,
                                                        solution.rho),
        "marginal.csv": lambda path: serialize.write_density(path, marginal),
    }
    _write_run(args.out, outputs, args, started, diagnostics, t_reached=solution.t)
    print(f"fpe: n={args.n} grid={args.grid}x{args.grid} steps={solution.steps} "
          f"mass_change={solution.mass_change:+.3%} "
          f"clipped={diagnostics['clipped_mass_fraction']:.3%} -> {args.out}")
    if diagnostics["clipped_mass_fraction"] > 0.05:
        print("fpe: warning: clipped mass exceeds 5%; the grid under-resolves "
              "the drift (refine --grid)", file=sys.stderr)
    return EXIT_OK


# -------------------------------------------------------------------- plot

def cmd_plot(args: argparse.Namespace) -> int:
    if not args.density and not args.curve:
        raise ValueError("plot needs at least one --density or --curve")
    x_lo, x_hi = np.inf, -np.inf
    points = []
    for path in args.density or []:
        centers, dens, _ = serialize.read_density(path)
        points.append(("points", centers, dens, os.path.basename(path)))
        x_lo = min(x_lo, centers.min())
        x_hi = max(x_hi, centers.max())
    if args.range:
        x_lo, x_hi = args.range
    if not np.isfinite(x_lo):
        raise ValueError("--curve alone needs --range lo,hi")
    grid = np.linspace(x_lo, x_hi, 512)
    lines = []
    for text in args.curve or []:
        name, _, rest = text.partition(":")
        if name not in REFERENCES:
            raise ValueError(f"unknown reference {name!r}")
        reference = _reference(name, _params(rest, REFERENCES[name][0]))
        lines.append(("line", grid, reference.at(grid), reference.name))
    notes = []
    if args.report:
        report = serialize.read_manifest(args.report)
        if "gamma" in report:
            notes.append(f"Gamma = {report['gamma']:.4f}")
    serialize.atomic_write_text(args.out, svgplot.render(args.title, lines + points, notes))
    print(f"plot: wrote {args.out}")
    return EXIT_OK


# ----------------------------------------------------------------- compare

def cmd_compare(args: argparse.Namespace) -> int:
    centers, dens, _ = serialize.read_density(args.first)
    centers_b, dens_b, _ = serialize.read_density(args.second)
    gamma = correlation(dens, np.interp(centers, centers_b, dens_b))
    print(f"compare: gamma={gamma:.6f} ({args.first} vs {args.second})")
    if args.out:
        serialize.atomic_write_text(args.out, json.dumps(
            {"gamma": gamma, "first": args.first, "second": args.second},
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
    sim.add_argument("--model", required=True)
    sim.add_argument("--init", default="0,0")
    sim.add_argument("--n", type=int, default=1000)
    sim.add_argument("--dt", type=float, default=0.01)
    sim.add_argument("--t", type=float, default=1.0)
    sim.add_argument("--seed", type=int, default=42)
    recording = sim.add_mutually_exclusive_group()
    recording.add_argument("--snapshots", type=_floats)
    recording.add_argument("--record", choices=RECORD_FLAGS)
    sim.add_argument("--threads", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--config")
    sim.set_defaults(func=cmd_simulate)

    ana = sub.add_parser("analyze", help="histogram a pool and compare to a reference")
    ana.add_argument("--pool", required=True)
    ana.add_argument("--set", choices=("a", "b", "snapshot"), default="a")
    ana.add_argument("--t", type=float)
    ana.add_argument("--window", type=_pair)
    ana.add_argument("--bins", type=int, default=100)
    ana.add_argument("--range", type=_pair)
    ana.add_argument("--reference", choices=(*REFERENCES, "none"))
    ana.add_argument("--out", required=True)
    ana.add_argument("--config")
    ana.set_defaults(func=cmd_analyze)

    fpe = sub.add_parser("fpe", help="finite-difference Fokker-Planck solve")
    fpe.add_argument("--n", type=int, default=1)
    fpe.add_argument("--L", type=float, default=5.0)
    fpe.add_argument("--grid", type=int, default=201)
    fpe.add_argument("--dt-pde", type=float)
    fpe.add_argument("--t", type=float, default=1.0)
    fpe.add_argument("--out", required=True)
    fpe.add_argument("--config")
    fpe.set_defaults(func=cmd_fpe)

    plo = sub.add_parser("plot", help="render densities and analytic curves to SVG")
    plo.add_argument("--density", action="append")
    plo.add_argument("--curve", action="append")
    plo.add_argument("--report")
    plo.add_argument("--title")
    plo.add_argument("--range", type=_pair)
    plo.add_argument("--out", required=True)
    plo.set_defaults(func=cmd_plot)

    cmp_ = sub.add_parser("compare", help="Pearson correlation of two density files")
    cmp_.add_argument("--first", required=True)
    cmp_.add_argument("--second", required=True)
    cmp_.add_argument("--out")
    cmp_.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser().parse_args(_with_config(argv))
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; report them under our contract
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (ValueError, KeyError, TimeNotRecorded) as exc:
        # bad arguments raise ValueError, here and in the library; a KeyError
        # is a field missing from an input such as a manifest
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CqrtError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
