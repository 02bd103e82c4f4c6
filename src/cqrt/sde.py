"""Euler-Maruyama integration of the complex Langevin equation.

The dynamics is dz = -i (d ln psi / dz) dt + sqrt(-i) dW with the square root
taken as (-1+i)/sqrt(2), so one real increment xi per step feeds both
coordinates with perfectly anticorrelated increments of variance dt/2 each.
The drift displacement -i*g*dt of a step is uncapped, and 0 at a node of psi.
A launch d off a node moves about dt/d on its first step, so one that close
to a node can leave |z| <= BLOWUP_THRESHOLD and diverge.  Set A holds the
on-axis launches and the points where steps from off the axis reach or pass it.

Reproducibility contract: an Ensemble is a pure function of its
SimulationConfig.  Trajectory i owns an independent noise stream: SplitMix64
started at state s_i = derive_seed(master_seed, i), itself SplitMix64 output
number i of the stream started at master_seed.  Draw j (from 0) of the stream
is xi = +1.0 or -1.0, its sign the top bit of SplitMix64's output for the
state s_i + (j + 1) * gamma, gamma = 0x9E3779B97F4A7C15: the simplified weak
Euler scheme's two-point law (Kloeden and Platen, 1992, section 14.1), with
the weak order 1 of Gaussian draws, which is all that ensemble statistics
need, and no inverse CDF.  Every draw is a pure function of (s_i, j), so the
integrator takes draw j of all of a chunk's streams at Euler step j
(standard_normals), and results are bit-identical across runs, platforms,
chunk sizes, and thread counts.  Launches draw from one more stream (uniforms).
"""

from __future__ import annotations

import math
import operator
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBlowup
from .wavefield import ModelSpec, log_derivative_masked

#: complex noise factor; its square is exactly -i (the diffusion coefficient)
NOISE_FACTOR = (-1.0 + 1.0j) / math.sqrt(2.0)

#: |z| beyond which a path is declared diverged (a NaN position diverges too)
BLOWUP_THRESHOLD = 1e6

#: fraction of diverged paths above which simulate_ensemble fails
MAX_DIVERGED_FRACTION = 0.01

#: trajectories per work unit; fixed so results do not depend on thread count
CHUNK_SIZE = 8192

RECORD_MODES = ("full_path", "crossings_and_final", "snapshots")

_MASK64 = (1 << 64) - 1
#: SplitMix64's increment, the odd integer nearest 2**64 / golden ratio
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
#: the sign bit of a float64 and the bits of 1.0: word & _SIGN | _ONE is -1.0 or +1.0
_SIGN = np.uint64(1 << 63)
_ONE = np.uint64(0x3FF0000000000000)


def _words(seeds, steps) -> np.ndarray:
    """Output number `steps` (from 0) of SplitMix64 started at state `seeds`
    (Steele, Lea and Flood, OOPSLA 2014): the avalanche of the state seeds +
    (steps + 1) * gamma.  The ufuncs wrap modulo 2**64 without the overflow
    warning of numpy's scalar operators."""
    steps = np.add(np.asarray(steps, dtype=np.uint64), np.uint64(1))
    x = np.add(np.multiply(steps, _GOLDEN), np.asarray(seeds, dtype=np.uint64))
    x = np.multiply(x ^ (x >> np.uint64(30)), np.uint64(0xBF58476D1CE4E5B9))
    x = np.multiply(x ^ (x >> np.uint64(27)), np.uint64(0x94D049BB133111EB))
    return x ^ (x >> np.uint64(31))


def derive_seeds(master_seed: int, indices) -> np.ndarray:
    """Per-trajectory 64-bit seeds: SplitMix64 output number `index` (from 0)
    of the stream started at master_seed mod 2**64.

    The avalanche stage decorrelates adjacent indices, giving independent
    reproducible streams without any coordination between workers.
    """
    return _words(master_seed & _MASK64, indices)


def derive_seed(master_seed: int, index: int) -> int:
    """The seed of one trajectory (see derive_seeds)."""
    return int(derive_seeds(master_seed, index))


def standard_normals(seeds, steps) -> np.ndarray:
    """The standardised increments numbered `steps` (from 0) of the noise
    streams seeded `seeds`, broadcast against each other.

    Increment j of stream s is +1.0 or -1.0, its sign the sign bit of output
    number j of SplitMix64 started at state s: the weak Euler scheme's
    two-point law (mean 0, variance 1), exact on every platform because it
    needs no inverse CDF.  A trajectory's first `count` increments are
    standard_normals(derive_seed(master_seed, i), np.arange(count)).
    """
    return (_words(seeds, steps) & _SIGN | _ONE).view(np.float64)


def uniforms(seed: int, counters) -> np.ndarray:
    """Draws `counters` (from 0) of the launch stream of `seed`: the exact
    uniform doubles (word >> 11) * 2**-53 in [0, 1) of SplitMix64 started at
    derive_seed(seed, 2**64 - 1).  derive_seed is a bijection in the index and
    no ensemble reaches 2**64 - 1, so this is no trajectory's stream."""
    return (_words(derive_seed(seed, _MASK64), counters) >> np.uint64(11)) * 2.0**-53


def noise_increment(xi, dt: float):
    """Complex diffusion increment ((-1+i)/sqrt(2)) * xi * sqrt(dt)."""
    return NOISE_FACTOR * xi * math.sqrt(dt)


def crossing_interpolation(x_prev, y_prev, x_new, y_new):
    """x at which the straight segment between the points meets y = 0.

    Requires a step that starts off the axis and ends on it or past it
    (y_prev != 0 and sign(y_prev) * y_new <= 0).  Returns (x, frac) where frac
    in (0, 1] locates the crossing along the step, so the crossing time is
    t_prev + frac * dt; a landing (y_new == 0) has frac exactly 1.
    """
    frac = y_prev / (y_prev - y_new)
    return x_prev + (x_new - x_prev) * frac, frac


def check_step(dt: float) -> None:
    """A time step must be finite and > 0."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be finite and > 0")


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce an ensemble bit for bit."""

    model: ModelSpec
    dt: float
    t_final: float
    initial_points: tuple
    n_trajectories: int
    master_seed: int = 42
    record_mode: str = "full_path"
    snapshot_times: tuple = ()

    def __post_init__(self):
        check_step(self.dt)
        if not self.dt <= self.t_final < math.inf:
            raise ValueError("t_final must be finite and >= dt")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if len(self.initial_points) == 0:
            raise ValueError("initial_points must be nonempty")
        if self.record_mode not in RECORD_MODES:
            raise ValueError(f"record_mode must be one of {RECORD_MODES}")
        if (self.record_mode == "snapshots") != bool(self.snapshot_times):
            raise ValueError("snapshot_times are needed in snapshots mode and nowhere else")
        pts = np.asarray(self.initial_points, dtype=complex)
        if not np.all(np.isfinite(pts.real)) or not np.all(np.isfinite(pts.imag)):
            raise ValueError("initial points must have finite components")
        object.__setattr__(self, "initial_points", tuple(complex(p) for p in pts))
        object.__setattr__(self, "snapshot_times", tuple(float(t) for t in self.snapshot_times))

    @property
    def n_steps(self) -> int:
        """Number of Euler steps; t_final is adjusted to n_steps * dt."""
        return max(1, int(round(self.t_final / self.dt)))

    @property
    def adjusted_t_final(self) -> float:
        return self.n_steps * self.dt

    def record_steps(self) -> np.ndarray:
        """Step indices whose positions are recorded: every step (full_path),
        none (crossings_and_final), or the sorted unique steps round(t / dt),
        half to even, of the snapshot times (snapshots), where a time outside
        [0, adjusted_t_final] raises ValueError."""
        if self.record_mode == "full_path":
            return np.arange(self.n_steps + 1)
        if self.record_mode == "crossings_and_final":
            return np.empty(0, dtype=int)
        steps = np.rint(np.divide(self.snapshot_times, self.dt))
        outside = ~((steps >= 0) & (steps <= self.n_steps))
        if outside.any():
            t = np.array(self.snapshot_times)[outside][0]
            raise ValueError(f"snapshot time {t} outside [0, {self.adjusted_t_final}]")
        return np.unique(steps).astype(int)

    @property
    def record_times(self) -> np.ndarray:
        """Times of the recorded rows: record_steps() * dt."""
        return self.record_steps() * self.dt


@dataclass(frozen=True)
class Trajectory:
    """One recorded stochastic path."""

    id: int
    times: np.ndarray
    points: np.ndarray  # complex positions, same length as times
    crossings: np.ndarray  # shape (k, 2): interpolated (time, x) axis crossings


@dataclass
class Ensemble:
    """The result of all trajectories of one configuration.

    x/y hold recorded real and imaginary parts with shape (n_records,
    n_trajectories); in "crossings_and_final" mode they are None.  Crossing
    pools exclude diverged paths; path-based extractions mask them via
    `alive`.
    """

    config: SimulationConfig
    times: np.ndarray
    x: np.ndarray | None
    y: np.ndarray | None
    crossing_times: np.ndarray
    crossing_x: np.ndarray
    crossing_ids: np.ndarray
    final_x: np.ndarray
    final_y: np.ndarray
    alive: np.ndarray
    near_node_steps: int
    #: always 0; perfbench/child.py reads it until the benchmark drops step.capped_steps
    capped_steps = 0

    @property
    def n_diverged(self) -> int:
        return int(np.count_nonzero(~self.alive))

    def trajectory(self, index: int) -> Trajectory:
        """One path: its recorded rows (full_path, snapshots) or its end point
        at adjusted_t_final (crossings_and_final), and its crossings.  Raises
        TypeError for an index that is not an integer (operator.index),
        ValueError outside [0, n_trajectories), NumericalBlowup if it diverged.
        """
        index = operator.index(index)
        n = self.config.n_trajectories
        if not 0 <= index < n:
            raise ValueError(f"trajectory index {index} outside [0, {n})")
        if not self.alive[index]:
            raise NumericalBlowup(f"trajectory {index} diverged")
        if self.x is None:
            times = np.array([self.config.adjusted_t_final])
            points = np.array([self.final_x[index] + 1j * self.final_y[index]])
        else:
            times = self.times
            points = self.x[:, index] + 1j * self.y[:, index]
        sel = self.crossing_ids == index
        crossings = np.column_stack([self.crossing_times[sel], self.crossing_x[sel]])
        return Trajectory(id=index, times=times, points=points, crossings=crossings)


def _step(model: ModelSpec, t: float, z, dt: float, xi):
    """The Euler-Maruyama step kernel on 1-d arrays; returns (z_new, near).

    The drift displacement is -i*g*dt.  Where the drift's node mask is set
    (`near`) the drift is 0, so the step is pure diffusion.
    """
    g, near = log_derivative_masked(model, t, z)
    disp = -1j * g
    disp *= dt
    disp += z
    disp += noise_increment(xi, dt)
    return disp, near


def em_step(model: ModelSpec, t: float, z, dt: float, xi):
    """One Euler-Maruyama step from z at time t with standardised increment xi.

    The drift displacement is -i*g*dt, and it is 0 where the drift's node mask
    is set, so a step from a node is pure diffusion.  Accepts scalars or
    broadcastable arrays, and checks dt.
    """
    check_step(dt)
    scalar = np.isscalar(z) and np.isscalar(xi)
    z, xi = np.broadcast_arrays(np.asarray(z, dtype=complex), np.asarray(xi, dtype=float))
    out = _step(model, t, z.ravel(), dt, xi.ravel())[0].reshape(z.shape)[()]
    return complex(out) if scalar else out


def split_step(model: ModelSpec, t: float, x, y, dt: float, xi):
    """em_step written on the real and imaginary parts: returns (x', y').

    x' = x + Im(g) dt - xi sqrt(dt)/sqrt(2) and y' = y - Re(g) dt
    + xi sqrt(dt)/sqrt(2); complex addition is componentwise, so the result
    equals em_step's parts to the last bit.
    """
    scalar = np.isscalar(x) and np.isscalar(y) and np.isscalar(xi)
    z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
    out = em_step(model, t, z, dt, xi)
    return (float(out.real), float(out.imag)) if scalar else (out.real, out.imag)


def _integrate_chunk(ens: Ensemble, lo: int, hi: int):
    """Integrate trajectories [lo, hi) of ens.config into columns [lo, hi) of
    ens's records, final_x, final_y and alive.

    Returns (crossings, near_node): crossings is [times, x, ids] of
    the axis points (set A) of the paths still alive at the end.  A diverged
    path stays frozen where it left the threshold, so it crosses no more, and
    the drift is evaluated at 0 in its place.
    """
    config = ens.config
    cols = slice(lo, hi)
    dt = config.dt
    ids = np.arange(lo, hi)
    z = np.asarray(config.initial_points, dtype=complex)[ids % len(config.initial_points)]
    seeds = derive_seeds(config.master_seed, ids)
    rows = {step: row for row, step in enumerate(config.record_steps())}
    if 0 in rows:
        ens.x[0, cols], ens.y[0, cols] = z.real, z.imag
    # a launch with y exactly 0 is itself an axis point, emitted once
    on_axis = z.imag == 0.0
    crossings = [(np.zeros(int(on_axis.sum())), z.real[on_axis], ids[on_axis])]
    alive = ens.alive[cols]
    near_nodes = 0

    for j in range(config.n_steps):
        t = j * dt
        z_new, near = _step(config.model, t, np.where(alive, z, 0.0), dt,
                            standard_normals(seeds, j))
        near_nodes += int(np.count_nonzero(near & alive))
        z_prev, z = z, np.where(alive, z_new, z)
        # a path lives while |z| is within the threshold, so NaN diverges too
        alive &= np.abs(z) <= BLOWUP_THRESHOLD

        # a step from off the axis that ends on it or past it; the sign keeps
        # the test exact where y_prev * y_new would underflow
        hit = (np.sign(z_prev.imag) * z.imag <= 0.0) & (z_prev.imag != 0.0)
        if np.any(hit):
            x_cross, frac = crossing_interpolation(z_prev.real[hit], z_prev.imag[hit],
                                                   z.real[hit], z.imag[hit])
            crossings.append((t + dt * frac, x_cross, ids[hit]))
        row = rows.get(j + 1)
        if row is not None:
            ens.x[row, cols], ens.y[row, cols] = z.real, z.imag

    ens.final_x[cols], ens.final_y[cols] = z.real, z.imag
    # pools exclude paths that later diverged
    crossings = [np.concatenate(c) for c in zip(*crossings)]
    keep = alive[crossings[2] - lo]
    return [c[keep] for c in crossings], near_nodes


def simulate_ensemble(config: SimulationConfig, threads: int = 1) -> Ensemble:
    """Run every trajectory of the configuration into one Ensemble.

    Trajectories are integrated in fixed-size chunks that may execute on any
    number of threads (0: one per core, below 0: ValueError).  Each chunk
    writes its own columns of the Ensemble's arrays, and the crossings join
    in chunk order, so the output is bit-identical for every thread count.
    Serial is the default because the chunks hold the interpreter lock for
    most of their time.  Fails with NumericalBlowup if more than
    MAX_DIVERGED_FRACTION of the paths diverge.  Ensemble.trajectory(i) is path i.
    """
    if threads < 0:
        raise ValueError(f"threads must be >= 0 (0: one per core), got {threads}")
    n = config.n_trajectories
    bounds = [(a, min(a + CHUNK_SIZE, n)) for a in range(0, n, CHUNK_SIZE)]
    threads = threads or min(len(bounds), os.cpu_count() or 1)
    times = config.record_times
    x, y = np.empty((2, times.size, n)) if times.size else (None, None)
    ens = Ensemble(config=config, times=times, x=x, y=y, crossing_times=None, crossing_x=None,
                   crossing_ids=None, final_x=np.empty(n), final_y=np.empty(n),
                   alive=np.ones(n, dtype=bool), near_node_steps=0)
    if threads <= 1 or len(bounds) == 1:
        parts = [_integrate_chunk(ens, a, b) for a, b in bounds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda b: _integrate_chunk(ens, *b), bounds))
    crossings, near = zip(*parts)
    ens.crossing_times, ens.crossing_x, ens.crossing_ids = map(np.concatenate, zip(*crossings))
    ens.near_node_steps = sum(near)
    if ens.n_diverged > MAX_DIVERGED_FRACTION * n:
        raise NumericalBlowup(
            f"{ens.n_diverged}/{n} trajectories diverged (>{MAX_DIVERGED_FRACTION:.0%})"
        )
    return ens
