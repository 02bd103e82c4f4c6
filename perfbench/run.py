"""cqrt benchmark: end-to-end and per-layer metrics for three workloads.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload readme_pipeline --seed 42 --seconds 30 --trace 0

Workloads (NOTES.md says why each was chosen):

  readme_pipeline  `cqrt simulate` (n = 1, 1e5 paths, dt 0.01, t 1) then
                   `cqrt analyze` (set A, window 0.4..1.0), each in its own
                   process through the CLI, import included
  ladder_n70       criterion 5's n = 70 rung through the library: 4096 Born
                   launches, dt 0.05/141 to t 0.5, snapshots, set B vs
                   classical(70)
  fpe_n3           fp_solve for n = 3 on 400 x 400 cells to t 0.25, then
                   fp_marginal_x

Every iteration runs in fresh child processes (perfbench/child.py), one at a
time: a closed loop with one client.  Iterations repeat until --seconds have
passed (at least three), and each metric is the median over iterations.
With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics from traced iterations, plus the
tracing overhead, a threads=1 rerun and per-call kernel probes.  The line
before it holds the machine, the per-iteration values and the output digest.

Outputs are checked on every iteration: a non-zero exit, an exception, a
digest that differs from the run's first iteration, a NaN gamma, more than 1%
diverged paths or more than 2% clipped FPE mass fails the iteration.  The
first iteration is also checked against numpy recomputations.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from importlib import metadata
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_ITERATIONS = 3
#: no iteration starts after this many seconds, so a run ends well inside 180 s
LOOP_CAP_S = 100.0
#: a child still running this long after the run started is killed
DEADLINE_S = 170.0

MAX_DIVERGED_FRAC = 0.01
MAX_CLIPPED_FRAC = 0.02

README_SIMULATE = ["simulate", "--model", "eigenstate:1", "--init", "+-0.95,0",
                   "--n", "100000", "--dt", "0.01", "--t", "1"]
README_ANALYZE = ["--set", "a", "--window", "0.4,1.0", "--reference", "quantum_eigenstate"]
# criterion 5's n and dt are kept; paths (20000 there) and t_final (1 there)
# are cut so that one iteration takes about 5 s (NOTES.md)
LADDER = {"mode": "ladder", "paths": 4096, "t_final": 0.5}
# t_final cut from 1 to 0.25: 800 of 3200 steps on the same grid
FPE = {"mode": "fpe", "cells": 400, "t_final": 0.25}


class IterationFailed(Exception):
    pass


# what a failed child, a missing output or a malformed result raises
FAILURES = (IterationFailed, OSError, KeyError, IndexError, ValueError)


def sha256_files(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            for block in iter(lambda: handle.read(1 << 20), b""):
                h.update(block)
    return h.hexdigest()


def top_spans(result, name):
    return [s for s in result["spans"] if s[0] == name and s[3] == -1]


def busy(result, name):
    return sum(s[2] - s[1] for s in top_spans(result, name))


def check_readme_outputs(crossings_csv, density_csv, gamma):
    """Recompute analyze's histogram and gamma with numpy; digest the arrays."""
    ids, times, xs = np.loadtxt(crossings_csv, delimiter=",", skiprows=1, unpack=True, ndmin=2)
    centers, dens, stderr = np.loadtxt(density_csv, delimiter=",", skiprows=1, unpack=True)
    half = math.sqrt(3.0) + 2.0  # the CLI's default range for n = 1: +-(A + 2)
    window = xs[(times >= 0.4 - 1e-12) & (times <= 1.0 + 1e-12)]
    counts, edges = np.histogram(window, bins=centers.size, range=(-half, half))
    width = edges[1] - edges[0]
    errors = []
    if not np.allclose(dens, counts / (counts.sum() * width), rtol=1e-12, atol=0.0):
        errors.append("density.csv differs from numpy's histogram of the crossings")
    quantum = 2.0 * centers**2 * np.exp(-centers**2) / math.sqrt(math.pi)
    if not abs(np.corrcoef(dens, quantum)[0, 1] - gamma) <= 1e-9:
        errors.append("reported gamma differs from numpy's Pearson against |psi_1|^2")
    h = hashlib.sha256()
    for a in (ids.astype(np.int64), times, xs, centers, dens, stderr):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest(), errors


class Run:
    def __init__(self, workload, seed, seconds, work):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.digest = None
        self.file_digest = None
        self.check_errors = []
        self.samples = []
        self._children = 0

    def elapsed(self):
        return time.perf_counter() - self.started

    def child(self, spec, trace):
        """Run one child process; returns (its result, the spawn time)."""
        self._children += 1
        path = self.work / f"child{self._children}"
        spec = dict(spec, src=str(SRC), trace=int(trace), seed=self.seed,
                    result=str(path) + ".out.json")
        Path(str(path) + ".json").write_text(json.dumps(spec))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        timeout = max(5.0, DEADLINE_S - self.elapsed())
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(path) + ".json"],
                                  cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise IterationFailed(f"child timed out after {timeout:.0f}s") from exc
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            raise IterationFailed(f"child exited {proc.returncode}: {tail[0]}")
        result = json.loads(Path(spec["result"]).read_text())
        if result["out"].get("rc", 0) != 0:
            raise IterationFailed(f"cqrt {spec['argv'][0]} exited {result['out']['rc']}: "
                                  f"{proc.stderr.strip()[-300:]}")
        if result["out"].get("errors"):
            raise IterationFailed("; ".join(result["out"]["errors"]))
        return result, t_spawn

    # ------------------------------------------------------------ workloads

    def readme_simulate(self, tag, trace, threads=None):
        pool = self.work / tag / "n1"
        argv = README_SIMULATE + ["--seed", str(self.seed), "--out", str(pool)]
        if threads is not None:
            argv += ["--threads", str(threads)]
        sim, t_spawn = self.child({"mode": "cli", "argv": argv}, trace)
        return pool, sim, t_spawn

    def readme_pipeline(self, tag, trace):
        pool, sim, t_sim = self.readme_simulate(tag, trace)
        out_dir = self.work / tag / "n1-analysis"
        argv = ["analyze", "--pool", str(pool)] + README_ANALYZE + ["--out", str(out_dir)]
        ana, t_ana = self.child({"mode": "cli", "argv": argv}, trace)
        gamma = json.loads((out_dir / "report.json").read_text())["gamma"]
        files = [pool / "crossings.csv", out_dir / "density.csv"]
        file_digest = sha256_files(files)
        if self.file_digest is None:
            self.file_digest = file_digest
            self.digest, self.check_errors = check_readme_outputs(*files, gamma)
        elif file_digest != self.file_digest:
            raise IterationFailed("outputs differ from the run's first iteration")
        if self.check_errors:  # later iterations wrote the same, wrong, bytes
            raise IterationFailed("; ".join(self.check_errors))
        shutil.rmtree(self.work / tag)
        out = sim["out"]
        return dict(
            wall_s=ana["t_done"] - t_sim,
            setup_s=(top_spans(sim, "sde.simulate")[0][1] - t_sim) + (ana["t_main"] - t_ana),
            steps_per_s=out["paths"] * out["steps"] / busy(sim, "sde.simulate"),
            peak_rss_mb=max(sim["rss_kb"], ana["rss_kb"]) / 1024.0,
            gamma=gamma,
        ), [sim, ana], out

    def library(self, spec, top, trace):
        res, t_spawn = self.child(spec, trace)
        out = res["out"]
        if self.digest is None:
            self.digest = out["digest"]
        elif out["digest"] != self.digest:
            raise IterationFailed("outputs differ from the run's first iteration")
        work = out["paths"] * out["steps"] if "paths" in out else out["cells"] * out["steps"]
        return dict(
            wall_s=res["t_done"] - t_spawn,
            setup_s=top_spans(res, top)[0][1] - t_spawn,
            steps_per_s=work / busy(res, top),
            peak_rss_mb=res["rss_kb"] / 1024.0,
            gamma=out["gamma"],
        ), [res], out

    def iteration(self, trace):
        """One checked execution of the workload; None if it failed."""
        self.attempted += 1
        tag = f"it{self.attempted}"
        try:
            if self.workload == "readme_pipeline":
                e2e, procs, out = self.readme_pipeline(tag, trace)
            elif self.workload == "ladder_n70":
                e2e, procs, out = self.library(LADDER, "sde.simulate", trace)
            else:
                e2e, procs, out = self.library(FPE, "fpe.solve", trace)
            if not math.isfinite(e2e["gamma"]):
                raise IterationFailed("gamma is not finite")
            if out.get("diverged", 0) > MAX_DIVERGED_FRAC * out.get("paths", 1):
                raise IterationFailed(f"{out['diverged']} of {out['paths']} paths diverged")
            if out.get("clipped_frac", 0.0) > MAX_CLIPPED_FRAC:
                raise IterationFailed(f"clipped mass {out['clipped_frac']:.2%}")
        except FAILURES as exc:
            self.failed += 1
            self.errors.append(f"{tag}: {type(exc).__name__}: {exc}")
            print(f"perfbench: {self.workload} {tag} failed: {exc}", file=sys.stderr)
            return None
        self.samples.append(e2e)
        return dict(e2e, procs=procs, out=out)

    def loop(self, trace, min_iterations):
        """Checked iterations until --seconds have passed; the successful ones."""
        samples = []
        last = 0.0
        while (len(samples) < min_iterations or self.elapsed() < self.seconds) \
                and self.elapsed() + last < LOOP_CAP_S:
            started = time.perf_counter()
            sample = self.iteration(trace)
            last = time.perf_counter() - started
            if sample is not None:
                samples.append(sample)
            elif not samples and self.failed >= 2:
                break
        return samples

    # -------------------------------------------------------------- results

    def end_to_end(self):
        samples = self.loop(False, MIN_ITERATIONS)
        if not samples:
            return None
        return {k: statistics.median(s[k] for s in samples)
                for k in ("wall_s", "setup_s", "steps_per_s", "peak_rss_mb", "gamma")}

    def per_layer(self):
        base = self.iteration(trace=False)
        traced = self.loop(True, 1)
        if base is None or not traced:
            return None
        rows = [layer_metrics(s["procs"], s["out"]) for s in traced]
        layers = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        layers["trace.overhead_frac"] = statistics.median(s["wall_s"] for s in traced) \
            / base["wall_s"] - 1.0
        layers["sde.thread_speedup"] = 0.0
        if self.workload == "readme_pipeline":
            # the single-threaded baseline of the same simulate step, untraced
            self.attempted += 1
            try:
                _, serial, _ = self.readme_simulate("serial", False, threads=1)
                layers["sde.thread_speedup"] = busy(serial, "sde.simulate") \
                    / busy(base["procs"][0], "sde.simulate")
            except FAILURES as exc:
                self.failed += 1
                self.errors.append(f"threads=1 rerun: {exc}")
        try:
            probes, _ = self.child({"mode": "probes"}, False)
        except FAILURES as exc:
            self.errors.append(f"probes: {exc}")
            return None
        layers.update(probes["out"])
        return layers


def layer_metrics(procs, out):
    """Per-layer numbers of one traced iteration, from its processes' spans.

    The layers that run on the thread pool (noise, drift, crossings, step)
    report CPU time, because a pool thread's wall time includes waiting for
    the interpreter lock, which `sde.wait_s` reports; the others report wall
    time.
    """
    wall, own, cpu, own_cpu, work, nbytes, calls = (defaultdict(float) for _ in range(7))
    chunk_cover = 0.0
    step_durations = []
    extract_pool = 0
    for proc in procs:
        spans = proc["spans"]
        for s, w, c in zip(spans, tracing.self_times(spans), tracing.self_times(spans, cpu=True)):
            name = s[0]
            wall[name] += s[2] - s[1]
            own[name] += w
            cpu[name] += s[7]
            own_cpu[name] += c
            work[name] += s[5]
            nbytes[name] += s[6]
            calls[name] += 1
            if name == "serialize.read" and s[3] >= 0 and spans[s[3]][0] == "stats.extract":
                extract_pool += s[5]
        chunk_cover += tracing.union_length(
            [(s[1], s[2]) for s in spans if s[0] == "sde.chunk"])
        step_durations += [s[2] - s[1] for s in spans if s[0] == "fpe.step"]

    def ratio(a, b):
        return a / b if b else 0.0

    chunked = calls["sde.chunk"] > 0
    integration = cpu["sde.chunk"] if chunked else cpu["sde.simulate"]
    noise, drift, crossing = cpu["noise"], cpu["drift"], cpu["crossing"]
    steps = len(step_durations)
    if not extract_pool:
        extract_pool = out.get("recorded_points", 0)
    return {
        "cli.import_s": sum(p["import_s"] for p in procs),
        "noise.busy_s": noise,
        "noise.share": ratio(noise, integration),
        "noise.normals_per_s": ratio(work["noise"], noise),
        "noise.matrix_mb": out["steps"] * out["chunk"] * 8 / 1e6 if "paths" in out else 0.0,
        "drift.busy_s": drift,
        "drift.share": ratio(drift, integration),
        "step.crossing_s": crossing,
        "step.self_s": own_cpu["sde.chunk"] if chunked
        else max(integration - noise - drift - crossing, 0.0),
        "step.crossings": out.get("crossings", 0),
        "step.capped_steps": out.get("capped", 0),
        "step.near_node_steps": out.get("near_node", 0),
        "step.diverged_frac": ratio(out.get("diverged", 0), out.get("paths", 0)),
        "sde.chunks": calls["sde.chunk"],
        "sde.merge_s": wall["sde.simulate"] - chunk_cover if chunked else 0.0,
        "sde.wait_s": wall["sde.chunk"] - cpu["sde.chunk"],
        "stats.extract_s": own["stats.extract"],
        "stats.histogram_s": wall["stats.histogram"],
        "stats.pearson_s": wall["stats.pearson"],
        "stats.window_yield": ratio(work["stats.extract"], extract_pool),
        "serialize.write_s": wall["serialize.write"],
        "serialize.read_s": wall["serialize.read"],
        "serialize.write_mb_per_s": ratio(nbytes["serialize.write"] / 1e6, wall["serialize.write"]),
        "serialize.read_mb_per_s": ratio(nbytes["serialize.read"] / 1e6, wall["serialize.read"]),
        "fpe.step_s.p50": statistics.median(step_durations) if steps else 0.0,
        "fpe.step_s.p99": statistics.quantiles(step_durations, n=100)[98] if steps > 1 else 0.0,
        "fpe.initial_s": wall["fpe.initial"],
        "fpe.drift_field_s": wall["fpe.drift_field"],
        # computed compulsory traffic: read rho, u_x, u_y and write rho, float64
        "fpe.bytes_per_step": ratio(work["fpe.step"], steps) * 4 * 8,
        "fpe.mass_change": out.get("mass_change", 0.0),
        "fpe.clipped_mass_frac": out.get("clipped_frac", 0.0),
    }


def machine():
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["readme_pipeline", "ladder_n70", "fpe_n3"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cqrt" / "__init__.py").is_file():
        print(f"perfbench: no cqrt sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    # warm the bytecode cache so that no measured import compiles
    compileall.compile_dir(str(SRC / "cqrt"), quiet=1)

    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        run = Run(args.workload, args.seed, args.seconds, work)
        values = run.per_layer() if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if values is None:
        print(f"perfbench: no successful iteration: {run.errors}", file=sys.stderr)
        return 1
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} do not match "
              f"BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "digest": run.digest, "machine": machine(),
                      "iterations": run.samples, "errors": run.errors,
                      "elapsed_s": run.elapsed()}))
    print(json.dumps({
        "correct": run.failed == 0 and not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
