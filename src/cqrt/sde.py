"""Euler-Maruyama integration of the complex Langevin equation.

The dynamics is dz = -i (d ln psi / dz) dt + sqrt(-i) dW with the square root
taken as (-1+i)/sqrt(2), so one real increment xi per step feeds both
coordinates with perfectly anticorrelated increments of variance dt/2 each.
The drift displacement -i*g*dt of a step is uncapped, and 0 at a node of psi.
A launch d off a node moves about dt/d on its first step, so one that close
to a node can leave |z| <= BLOWUP_THRESHOLD and diverge.  A run fails with
NumericalBlowup when more than MAX_DIVERGED_FRACTION of its paths diverge,
and fails fast: a piece of work raises it after the first step at which its
own diverged paths pass that share of the whole ensemble.  A piece steps
without the alive masks until its first path diverges.  Set A holds the
on-axis launches and the points where steps from off the axis reach or pass
it, in path order: crossing_ids non-decreasing, each path's points in step
order, so a block of paths is one slice of the pool.

The pieces run in equal shares on forked processes (procs;
simulate_ensemble's `threads` counts them).

Reproducibility contract: an Ensemble is a pure function of its
SimulationConfig.  Trajectory i owns an independent noise stream: SplitMix64
started at state s_i = derive_seed(master_seed, i), itself SplitMix64 output
number i of the stream started at master_seed.  Draw j (from 0) of the stream
is xi = +1.0 or -1.0, its sign the top bit of SplitMix64's output for the
state s_i + (j + 1) * gamma, gamma = 0x9E3779B97F4A7C15: the simplified weak
Euler scheme's two-point law (Kloeden and Platen, 1992, section 14.1), with
the weak order 1 of Gaussian draws, which is all that ensemble statistics
need, and no inverse CDF.  Every draw is a pure function of (s_i, j), so the
integrator takes draw j of all of a piece's streams at Euler step j
(standard_normals).  The noise and launch (uniforms) streams are integer-exact
everywhere, and every field, the set A pool included, is bit-identical across
runs, CHUNK_SIZE values and worker counts for one numpy build and SIMD dispatch
level: at n >= 2, FMA or not changes complex abs, multiply and square.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBlowup
from .procs import forked, share_bounds, shared_empty, worker_count
from .wavefield import ModelSpec, log_derivative_masked

#: complex noise factor; its square is exactly -i (the diffusion coefficient)
NOISE_FACTOR = (-1.0 + 1.0j) / math.sqrt(2.0)

#: |z| beyond which a path is declared diverged (a NaN position diverges too)
BLOWUP_THRESHOLD = 1e6

#: fraction of diverged paths above which simulate_ensemble fails
MAX_DIVERGED_FRACTION = 0.01

#: trajectories per piece of work; results do not depend on it
CHUNK_SIZE = 8192

#: path-steps (n_trajectories * n_steps) from which simulate_ensemble's
#: default forks workers.  On 2 vCPUs (Python 3.11, numpy 2.4) a pool costs
#: 16-20 ms to start, feed and stop; two workers beat one process from about
#: 1.5e6 path-steps of psi_1 and 3e6-3.5e6 of psi_0, the cheapest drift
#: (medians of 7-9 calls at dt 0.01 to t 1, crossings_and_final).
FORK_MIN_PATH_STEPS = 3_000_000

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


@dataclass(frozen=True)
class SimulationConfig:
    """Everything needed to reproduce an ensemble bit for bit.
    n_trajectories and master_seed are integers by operator.index (a numpy
    integer will do, 2.5 raises TypeError)."""

    model: ModelSpec
    dt: float
    t_final: float
    initial_points: tuple
    n_trajectories: int
    master_seed: int = 42
    record_mode: str = "full_path"
    snapshot_times: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "n_trajectories", operator.index(self.n_trajectories))
        object.__setattr__(self, "master_seed", operator.index(self.master_seed))
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be finite and > 0")
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
    (`near`) the drift is 0, so the step is pure diffusion.  Complex addition
    is componentwise, so the step is x' = (x + Im(g) dt) + Re(NOISE_FACTOR) xi
    sqrt(dt) and y' = (y - Re(g) dt) + Im(NOISE_FACTOR) xi sqrt(dt) in real
    arithmetic, to the last bit.
    """
    g, near = log_derivative_masked(model, t, z)
    disp = -1j * g
    disp *= dt
    disp += z
    disp += noise_increment(xi, dt)
    return disp, near


def _integrate_chunk(ens: Ensemble, lo: int, hi: int, launches: np.ndarray):
    """Integrate trajectories [lo, hi) of ens.config into columns [lo, hi) of
    ens's records, final_x, final_y and alive; path i starts at
    launches[i % launches.size], the config's initial_points as an array.

    Returns (crossings, near_node): crossings is [times, x, ids] of the axis
    points (set A) of the paths still alive at the end, in path order and
    each path's points in step order.  A diverged path stays frozen where it
    left the threshold, so it crosses no more, and the drift is evaluated at 0
    in its place; while none has diverged the step runs unmasked, as the
    masks would select every path.  Raises NumericalBlowup at the first step
    after which the range's own diverged paths exceed MAX_DIVERGED_FRACTION of
    the whole ensemble.
    """
    config = ens.config
    cols = slice(lo, hi)
    dt = config.dt
    ids = np.arange(lo, hi)
    z = launches[ids % launches.size]
    seeds = derive_seeds(config.master_seed, ids)
    rows = {step: row for row, step in enumerate(config.record_steps())}
    if 0 in rows:
        ens.x[0, cols], ens.y[0, cols] = z.real, z.imag
    # a launch with y exactly 0 is itself an axis point, emitted once
    on_axis = z.imag == 0.0
    crossings = [(np.zeros(int(on_axis.sum())), z.real[on_axis], ids[on_axis])]
    alive = ens.alive[cols]
    near_nodes = diverged = 0

    for j in range(config.n_steps):
        t = j * dt
        z_new, near = _step(config.model, t, np.where(alive, z, 0.0) if diverged else z, dt,
                            standard_normals(seeds, j))
        near_nodes += int(np.count_nonzero(near & alive if diverged else near))
        z_prev, z = z, np.where(alive, z_new, z) if diverged else z_new
        # a path lives while |z| is within the threshold, so NaN diverges too
        alive &= np.abs(z) <= BLOWUP_THRESHOLD
        # diverged counts only grow, so the whole run's check would fail too
        diverged = alive.size - int(np.count_nonzero(alive))
        _check_diverged(diverged, config.n_trajectories)

        # a step from off the axis that ends on it or past it; the sign keeps
        # the test exact where y_prev * y_new would underflow
        hit = np.flatnonzero((np.sign(z_prev.imag) * z.imag <= 0.0) & (z_prev.imag != 0.0))
        if hit.size:
            z0, z1 = z_prev[hit], z[hit]
            x_cross, frac = crossing_interpolation(z0.real, z0.imag, z1.real, z1.imag)
            crossings.append((t + dt * frac, x_cross, ids[hit]))
        row = rows.get(j + 1)
        if row is not None:
            ens.x[row, cols], ens.y[row, cols] = z.real, z.imag

    ens.final_x[cols], ens.final_y[cols] = z.real, z.imag
    crossings = [np.concatenate(c) for c in zip(*crossings)]
    if diverged:  # pools exclude paths that later diverged
        keep = alive[crossings[2] - lo]
        crossings = [c[keep] for c in crossings]
    # the rows are in step order; a stable sort on the path offset, whose
    # small dtype gets numpy's radix sort, puts them in path order
    order = np.argsort((crossings[2] - lo).astype(np.min_scalar_type(hi - lo - 1)),
                       kind="stable")
    for col, column in enumerate(crossings):
        crossings[col] = column[order]
    return crossings, near_nodes


def simulate_ensemble(config: SimulationConfig, threads: int = 0) -> Ensemble:
    """Run every trajectory of the configuration into one Ensemble.

    The paths are shared among the worker processes in equal contiguous
    ranges (procs.share_bounds), and a share is integrated in pieces of
    CHUNK_SIZE paths from its first.  `threads` counts worker processes: k > 1
    runs on up to k (one per path at most), 1 serially, and 0 (the default)
    on one per usable CPU once the run has FORK_MIN_PATH_STEPS path-steps,
    else serially; it is an integer by operator.index, and below 0 is a
    ValueError.  The calling process integrates the first share and forked
    workers one share each (procs.forked), each writing its own columns of
    the Ensemble's arrays in place (an anonymous shared mapping).  Each
    piece's crossings come in path order, and the pieces join in path order,
    so the pool is in path order (crossing_ids non-decreasing, each path's
    points in step order) and every field is bit-identical for every worker
    count and CHUNK_SIZE.

    Fails with NumericalBlowup if more than MAX_DIVERGED_FRACTION of the paths
    diverge: as soon as one piece's own diverged paths are that many
    (diverged counts only grow, so the run would fail anyway), else after the
    last piece.  Once a piece fails, no piece starts, and the error raised is
    the first failure in path order among the pieces that ran.  A worker
    that dies raises ChildProcessError, and no worker outlives the call.
    Ensemble.trajectory(i) is path i.
    """
    threads = operator.index(threads)
    n = config.n_trajectories
    workers = worker_count(threads, n, n * config.n_steps, FORK_MIN_PATH_STEPS)
    bounds = share_bounds(n, workers)
    shares = [[(lo, min(lo + CHUNK_SIZE, b)) for lo in range(a, b, CHUNK_SIZE)]
              for a, b in zip(bounds, bounds[1:])]
    empty = shared_empty if workers > 1 else np.empty
    times = config.record_times
    x, y = empty((2, times.size, n)) if times.size else (None, None)
    alive = empty(n, dtype=bool)
    alive[:] = True
    final_x, final_y = empty((2, n))
    failed = empty(1, dtype=bool)
    failed[0] = False
    ens = Ensemble(config=config, times=times, x=x, y=y, crossing_times=None, crossing_x=None,
                   crossing_ids=None, final_x=final_x, final_y=final_y, alive=alive,
                   near_node_steps=0)
    # converted once: a chunk that converted the whole tuple would make the
    # run's cost grow with the square of the path count
    launches = np.asarray(config.initial_points, dtype=complex)
    with forked(workers, _integrate_share, ens, shares, launches, failed) as run:
        parts = run(None)
    ens.near_node_steps = sum(near for _, near in parts)
    for col, name in enumerate(("crossing_times", "crossing_x", "crossing_ids")):
        setattr(ens, name, np.concatenate([pool[col] for pool, _ in parts]))
        for pool, _ in parts:  # released once joined: the pool plus one column at most
            pool[col] = None
    _check_diverged(ens.n_diverged, n)
    return ens


def _integrate_share(k, message, ens: Ensemble, shares: list, launches: np.ndarray, failed):
    """simulate_ensemble's serve for procs.forked: _integrate_chunk's result
    for each piece of share k in order, until any process's piece has failed
    (the shared flag, which a failing piece sets before it raises)."""
    for piece in shares[k]:
        if failed[0]:
            return
        try:
            part = _integrate_chunk(ens, *piece, launches)
        except Exception:
            failed[0] = True
            raise
        yield part


def _check_diverged(diverged: int, n: int):
    """NumericalBlowup if more than MAX_DIVERGED_FRACTION of n paths diverged."""
    if diverged > MAX_DIVERGED_FRACTION * n:
        raise NumericalBlowup(
            f"{diverged}/{n} trajectories diverged (>{MAX_DIVERGED_FRACTION:.0%})"
        )
