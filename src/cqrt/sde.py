"""Euler-Maruyama integration of the complex Langevin equation.

The dynamics is dz = -i (d ln psi / dz) dt + sqrt(-i) dW with the square root
taken as (-1+i)/sqrt(2), so one real standard-normal draw per step feeds both
coordinates with perfectly anticorrelated increments of variance dt/2 each.

Reproducibility contract: an Ensemble is a pure function of its
SimulationConfig.  Trajectory i owns an independent noise stream: the outputs
of numpy's PCG64(SeedSequence(derive_seed(master_seed, i))), where derive_seed
is a SplitMix64 avalanche.  Each draw is mapped to a normal by inverse CDF over
the 53-bit uniform ((raw >> 11) + 0.5) * 2**-53, clamped to 1 - 2**-53 (see
_uniform_normals).  The integrator generates the streams of a whole chunk
together, one row per Euler step (NoiseStreams), and they equal
standard_normals draw for draw, so results are bit-identical across runs,
platforms, chunk sizes, and thread counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

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
_MASK32 = np.uint64(0xFFFFFFFF)
_GOLDEN = 0x9E3779B97F4A7C15

# numpy's SeedSequence hash constants (its pool holds 4 uint32 words)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
# PCG64's 128-bit LCG multiplier and its high and low 64-bit words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & _MASK64)


def derive_seeds(master_seed: int, indices) -> np.ndarray:
    """Per-trajectory 64-bit seeds: SplitMix64 output number (index + 1).

    The avalanche stage decorrelates adjacent indices, giving independent
    reproducible streams without any coordination between workers.
    """
    x = (np.asarray(indices, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN) \
        + np.uint64(master_seed & _MASK64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def derive_seed(master_seed: int, index: int) -> int:
    """The seed of one trajectory (see derive_seeds)."""
    return int(derive_seeds(master_seed, [index])[0])


def _uniform_normals(k53) -> np.ndarray:
    """Inverse-CDF normals of 53-bit integers via the uniform (k + 0.5) * 2**-53,
    clamped to 1 - 2**-53: k = 2**53 - 1 alone would round to 1 and give +inf.
    The uniform lies in [2**-54, 1 - 2**-53], so every normal is finite."""
    return ndtri(np.minimum((k53.astype(np.float64) + 0.5) * 2.0**-53, 1.0 - 2.0**-53))


def standard_normals(master_seed: int, traj_index: int, count: int) -> np.ndarray:
    """The trajectory's noise stream: its first `count` normals.

    The 53-bit integers are PCG64 outputs shifted right by 11, which is what
    Generator.integers(0, 2**53, dtype=uint64) returns.  Fixed once; stable
    across platforms.
    """
    bits = np.random.PCG64(derive_seed(master_seed, traj_index)).random_raw(count)
    return _uniform_normals(bits >> np.uint64(11))


def _seed_sequence_state(entropy):
    """SeedSequence(entropy).generate_state(4, uint64) for uint64 entropies.

    numpy's algorithm with pool size 4, run on uint32 arrays.  An entropy below
    2**32 is one word and a larger one two; hashing the missing word as 0 is
    what SeedSequence does for the empty pool slot, so both take one path.
    """
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & 0xFFFFFFFF
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    zero = np.zeros(entropy.shape, dtype=np.uint32)
    pool = [hashmix(w) for w in ((entropy & _MASK32).astype(np.uint32),
                                 (entropy >> np.uint64(32)).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_MULT_L * pool[dst] - _MIX_MULT_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(const)
        const = const * _MULT_B & 0xFFFFFFFF
        value = value * np.uint32(const)
        words.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return [words[k] | (words[k + 1] << np.uint64(32)) for k in range(0, 8, 2)]


def _mulhi64(a, b: int):
    """High 64 bits of the 128-bit product of a uint64 array and a constant,
    from 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> np.uint64(32)
    b0, b1 = np.uint64(b & 0xFFFFFFFF), np.uint64(b >> 32)
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> np.uint64(32)) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32)) + (mid >> np.uint64(32))


class NoiseStreams:
    """Many PCG64 streams advanced together, one draw of each per call.

    Stream k is numpy's PCG64(seeds[k]) output for output: the 128-bit states
    are kept as high and low uint64 words, seeded by SeedSequence and
    pcg64_set_seed, stepped by the LCG and read out by XSL-RR.  Memory is
    O(len(seeds)) however many draws are taken.
    """

    def __init__(self, seeds):
        s_hi, s_lo, i_hi, i_lo = _seed_sequence_state(np.asarray(seeds, dtype=np.uint64))
        self._inc_hi = (i_hi << np.uint64(1)) | (i_lo >> np.uint64(63))
        self._inc_lo = (i_lo << np.uint64(1)) | np.uint64(1)
        # pcg64_set_seed: state 0, step (state = inc), add the seed, step
        lo = self._inc_lo + s_lo
        self._hi = self._inc_hi + s_hi + (lo < s_lo)
        self._lo = lo
        self._step()

    def _step(self):
        hi, lo = self._hi, self._lo
        prod_lo = lo * _PCG_MULT_LO
        prod_hi = _mulhi64(lo, _PCG_MULT & _MASK64) + lo * _PCG_MULT_HI + hi * _PCG_MULT_LO
        self._lo = prod_lo + self._inc_lo
        self._hi = prod_hi + self._inc_hi + (self._lo < self._inc_lo)

    def raw(self) -> np.ndarray:
        """The next 64-bit output of every stream."""
        self._step()
        value = self._hi ^ self._lo
        rot = self._hi >> np.uint64(58)
        return (value >> rot) | (value << ((np.uint64(64) - rot) & np.uint64(63)))

    def normals(self) -> np.ndarray:
        """The next standard normal of every stream, as standard_normals maps it."""
        return _uniform_normals(self.raw() >> np.uint64(11))


def noise_increment(xi, dt: float):
    """Complex diffusion increment ((-1+i)/sqrt(2)) * xi * sqrt(dt)."""
    return NOISE_FACTOR * xi * math.sqrt(dt)


def crossing_interpolation(x_prev, y_prev, x_new, y_new):
    """x at which the straight segment between the points meets y = 0.

    Requires a strict sign change (y_prev * y_new < 0).  Returns (x, frac)
    where frac in (0, 1) locates the crossing along the step, so the crossing
    time is t_prev + frac * dt.
    """
    frac = y_prev / (y_prev - y_new)
    return x_prev + (x_new - x_prev) * frac, frac


def check_drift_cap(drift_cap: float) -> None:
    """A drift cap must be finite and > 0; a NaN cap would cap nothing."""
    if not 0 < drift_cap < math.inf:
        raise ValueError("drift_cap must be finite and > 0")


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
    drift_cap: float = 10.0

    def __post_init__(self):
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
        check_drift_cap(self.drift_cap)
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
    capped_steps: int
    near_node_steps: int

    @property
    def model(self) -> ModelSpec:
        return self.config.model

    @property
    def n_diverged(self) -> int:
        return int(np.count_nonzero(~self.alive))

    def trajectory(self, index: int) -> Trajectory:
        """One path: its recorded rows (full_path, snapshots) or its end point
        at adjusted_t_final (crossings_and_final), and its crossings.  Raises
        ValueError outside [0, n_trajectories), NumericalBlowup if it diverged.
        """
        n = self.config.n_trajectories
        if not 0 <= index < n:
            raise ValueError(f"trajectory index {index} outside [0, {n})")
        return self._path(index, index)

    def _path(self, index: int, column: int) -> Trajectory:
        """Trajectory `index`, whose records are column `column` of this result."""
        if not self.alive[column]:
            raise NumericalBlowup(f"trajectory {index} diverged")
        if self.x is None:
            times = np.array([self.config.adjusted_t_final])
            points = np.array([self.final_x[column] + 1j * self.final_y[column]])
        else:
            times = self.times
            points = self.x[:, column] + 1j * self.y[:, column]
        sel = self.crossing_ids == index
        crossings = np.column_stack([self.crossing_times[sel], self.crossing_x[sel]])
        return Trajectory(id=index, times=times, points=points, crossings=crossings)


def _step(model: ModelSpec, t: float, z, dt: float, xi, drift_cap: float, last_dir):
    """The Euler-Maruyama step kernel; returns (z_new, over, near, new_dir).

    The drift displacement -i*g*dt is capped at drift_cap*sqrt(dt) where it is
    larger (`over`).  Near a node (`near`) the gradient is unusable; the step
    saturates at drift_cap*sqrt(dt) along last_dir (zero until a finite
    direction exists).  new_dir is the updated last finite drift direction.
    """
    g, near = log_derivative_masked(model, t, z)
    disp = -1j * g * dt
    mag = np.abs(disp)
    lim = drift_cap * math.sqrt(dt)
    over = (mag > lim) & ~near
    disp = np.where(over, disp * (lim / np.where(mag == 0.0, 1.0, mag)), disp)
    disp = np.where(near, lim * last_dir, disp)
    finite = ~near & (mag > 0.0)
    new_mag = np.abs(disp)
    new_dir = np.where(finite, disp / np.where(new_mag == 0.0, 1.0, new_mag), last_dir)
    return z + disp + noise_increment(xi, dt), over, near, new_dir


def em_step(model: ModelSpec, t: float, z, dt: float, xi, drift_cap: float = 10.0,
            fallback_direction=None):
    """One Euler-Maruyama step from z at time t with normal draw xi.

    The drift displacement is capped at drift_cap*sqrt(dt).  Where the drift's
    node mask is set, the step moves drift_cap*sqrt(dt) along
    fallback_direction (or takes a pure diffusion step when none is known).
    Accepts scalars or broadcastable arrays.
    """
    scalar = np.isscalar(z) and np.isscalar(xi)
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=float)
    last_dir = np.zeros(np.broadcast(z, xi).shape, dtype=complex)
    if fallback_direction is not None:
        last_dir = last_dir + fallback_direction
    out = _step(model, t, z, dt, xi, drift_cap, last_dir)[0]
    return complex(out) if scalar else out


def split_step(model: ModelSpec, t: float, x, y, dt: float, xi, drift_cap: float = 10.0,
               fallback_direction=None):
    """em_step written on the real and imaginary parts: returns (x', y').

    x' = x + Im(g) dt - xi sqrt(dt)/sqrt(2) and y' = y - Re(g) dt
    + xi sqrt(dt)/sqrt(2), with the identical cap; complex addition is
    componentwise, so the result equals em_step's parts to the last bit.
    """
    scalar = np.isscalar(x) and np.isscalar(y) and np.isscalar(xi)
    z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
    out = em_step(model, t, z, dt, xi, drift_cap, fallback_direction)
    return (float(out.real), float(out.imag)) if scalar else (out.real, out.imag)


def _integrate_chunk(ens: Ensemble, lo: int, hi: int, column: int):
    """Integrate trajectories [lo, hi) of ens.config into columns [column,
    column + hi - lo) of ens's records, final_x, final_y and alive.

    Returns (crossings, capped, near_node): crossings is [times, x, ids] of
    the axis points of the paths still alive at the end.  A diverged path
    stays frozen where it left the threshold, and the drift is evaluated at 0
    in its place.
    """
    config = ens.config
    if not 0 <= lo < hi <= config.n_trajectories:
        raise ValueError(f"trajectories [{lo}, {hi}) outside [0, {config.n_trajectories})")
    cols = slice(column, column + hi - lo)
    dt = config.dt
    ids = np.arange(lo, hi)
    z = np.asarray(config.initial_points, dtype=complex)[ids % len(config.initial_points)]
    noise = NoiseStreams(derive_seeds(config.master_seed, ids))
    rows = {step: row for row, step in enumerate(config.record_steps())}
    if 0 in rows:
        ens.x[0, cols], ens.y[0, cols] = z.real, z.imag
    # a launch with y exactly 0 is itself an axis point, emitted once
    on_axis = z.imag == 0.0
    crossings = [(np.zeros(int(on_axis.sum())), z.real[on_axis], ids[on_axis])]
    alive = ens.alive[cols]
    last_dir = np.zeros(hi - lo, dtype=complex)
    capped = near_nodes = 0

    for j in range(config.n_steps):
        t = j * dt
        z_new, over, near, last_dir = _step(config.model, t, np.where(alive, z, 0.0), dt,
                                            noise.normals(), config.drift_cap, last_dir)
        capped += int(np.count_nonzero(over & alive))
        near_nodes += int(np.count_nonzero(near & alive))
        z_prev, z = z, np.where(alive, z_new, z)
        # a path lives while |z| is within the threshold, so NaN diverges too
        alive &= np.abs(z) <= BLOWUP_THRESHOLD

        flip = (z_prev.imag * z.imag < 0.0) & alive
        if np.any(flip):
            x_cross, frac = crossing_interpolation(z_prev.real[flip], z_prev.imag[flip],
                                                   z.real[flip], z.imag[flip])
            crossings.append((t + dt * frac, x_cross, ids[flip]))
        touch = (z.imag == 0.0) & alive
        if np.any(touch):
            crossings.append((np.full(int(touch.sum()), t + dt), z.real[touch], ids[touch]))
        row = rows.get(j + 1)
        if row is not None:
            ens.x[row, cols], ens.y[row, cols] = z.real, z.imag

    ens.final_x[cols], ens.final_y[cols] = z.real, z.imag
    # pools exclude paths that later diverged
    crossings = [np.concatenate(c) for c in zip(*crossings)]
    keep = alive[crossings[2] - lo]
    return [c[keep] for c in crossings], capped, near_nodes


def _run(config: SimulationConfig, lo: int, hi: int, threads: int) -> Ensemble:
    """The Ensemble of trajectories [lo, hi), run in chunks of CHUNK_SIZE on
    `threads` threads (0: one per core): column c holds trajectory lo + c,
    and the crossings join in chunk order."""
    bounds = [(a, min(a + CHUNK_SIZE, hi)) for a in range(lo, hi, CHUNK_SIZE)]
    threads = threads or min(len(bounds), os.cpu_count() or 1)
    n = hi - lo
    times = config.record_times
    x, y = np.empty((2, times.size, n)) if times.size else (None, None)
    ens = Ensemble(config=config, times=times, x=x, y=y, crossing_times=None, crossing_x=None,
                   crossing_ids=None, final_x=np.empty(n), final_y=np.empty(n),
                   alive=np.ones(n, dtype=bool), capped_steps=0, near_node_steps=0)
    if threads <= 1 or len(bounds) == 1:
        parts = [_integrate_chunk(ens, a, b, a - lo) for a, b in bounds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda b: _integrate_chunk(ens, *b, b[0] - lo), bounds))
    crossings, capped, near = zip(*parts)
    ens.crossing_times, ens.crossing_x, ens.crossing_ids = map(np.concatenate, zip(*crossings))
    ens.capped_steps, ens.near_node_steps = sum(capped), sum(near)
    return ens


def simulate_ensemble(config: SimulationConfig, threads: int = 1) -> Ensemble:
    """Run every trajectory of the configuration into one Ensemble.

    Trajectories are integrated in fixed-size chunks that may execute on any
    number of threads (0: one per core).  Each chunk writes its own columns
    of the Ensemble's arrays, and the crossings join in chunk order, so the
    output is bit-identical for every thread count.  Serial is the default
    because the chunks hold the interpreter lock for most of their time.
    Fails with NumericalBlowup if more than MAX_DIVERGED_FRACTION of the
    paths diverge.
    """
    n = config.n_trajectories
    ens = _run(config, 0, n, threads)
    if ens.n_diverged > MAX_DIVERGED_FRACTION * n:
        raise NumericalBlowup(
            f"{ens.n_diverged}/{n} trajectories diverged (>{MAX_DIVERGED_FRACTION:.0%})"
        )
    return ens


def simulate_trajectory(config: SimulationConfig, traj_index: int) -> Trajectory:
    """Integrate one trajectory: simulate_ensemble(config).trajectory(traj_index)
    without the other paths.  Raises ValueError outside [0, n_trajectories)
    and NumericalBlowup if that path diverges.
    """
    return _run(config, traj_index, traj_index + 1, 1)._path(traj_index, 0)
