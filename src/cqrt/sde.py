"""Euler-Maruyama integration of the complex Langevin equation.

The dynamics is dz = -i (d ln psi / dz) dt + sqrt(-i) dW with the square root
taken as (-1+i)/sqrt(2), so one real standard-normal draw per step feeds both
coordinates with perfectly anticorrelated increments of variance dt/2 each.

Reproducibility contract: an Ensemble is a pure function of its
SimulationConfig.  Trajectory i owns an independent noise stream: the outputs
of numpy's PCG64(SeedSequence(derive_seed(master_seed, i))), where derive_seed
is a SplitMix64 avalanche.  Each draw is mapped to a normal by inverse CDF over
the 53-bit uniform ((raw >> 11) + 0.5) * 2**-53.  The integrator generates the
streams of a whole chunk together, one row per Euler step (NoiseStreams), and
they equal standard_normals draw for draw, so results are bit-identical across
runs, platforms, chunk sizes, and thread counts.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtri

from .errors import NumericalBlowup, TimeNotRecorded
from .wavefield import ModelSpec, log_derivative_masked

#: complex noise factor; its square is exactly -i (the diffusion coefficient)
NOISE_FACTOR = (-1.0 + 1.0j) / math.sqrt(2.0)

#: |z| beyond which a path is declared diverged
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
    which never reaches 0 or 1."""
    return ndtri((k53.astype(np.float64) + 0.5) * 2.0**-53)


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
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.t_final < self.dt:
            raise ValueError("t_final must be >= dt")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if len(self.initial_points) == 0:
            raise ValueError("initial_points must be nonempty")
        if self.record_mode not in RECORD_MODES:
            raise ValueError(f"record_mode must be one of {RECORD_MODES}")
        if self.record_mode == "snapshots" and not self.snapshot_times:
            raise ValueError("snapshots record mode needs snapshot_times")
        if self.drift_cap <= 0:
            raise ValueError("drift_cap must be > 0")
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

    def snapshot_indices(self) -> tuple:
        """Step indices of the requested snapshot times (rounded to the grid)."""
        idx = []
        for t in self.snapshot_times:
            j = int(round(t / self.dt))
            if j < 0 or j > self.n_steps:
                raise ValueError(f"snapshot time {t} outside [0, {self.adjusted_t_final}]")
            idx.append(j)
        return tuple(sorted(set(idx)))


@dataclass(frozen=True)
class Trajectory:
    """One recorded stochastic path."""

    id: int
    times: np.ndarray
    points: np.ndarray  # complex positions, same length as times
    crossings: np.ndarray  # shape (k, 2): interpolated (time, x) axis crossings


@dataclass
class Ensemble:
    """Merged result of all trajectories of one configuration.

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
        """View of one path (full_path mode only)."""
        if self.x is None:
            raise ValueError("paths were not recorded in this record mode")
        if not self.alive[index]:
            raise NumericalBlowup(f"trajectory {index} diverged")
        sel = self.crossing_ids == index
        crossings = np.column_stack([self.crossing_times[sel], self.crossing_x[sel]])
        return Trajectory(
            id=index,
            times=self.times,
            points=self.x[:, index] + 1j * self.y[:, index],
            crossings=crossings,
        )

    @property
    def trajectories(self):
        return [self.trajectory(i) for i in range(self.config.n_trajectories) if self.alive[i]]


def _displacement(g, near_node, dt, sqrt_dt, drift_cap, last_dir):
    """Capped drift displacement -i*g*dt and the updated last finite direction.

    Near a node the gradient is unusable; the step saturates at
    drift_cap*sqrt(dt) along last_dir (zero until a finite direction exists).
    """
    disp = -1j * g * dt
    mag = np.abs(disp)
    lim = drift_cap * sqrt_dt
    over = (mag > lim) & ~near_node
    disp = np.where(over, disp * (lim / np.where(mag == 0.0, 1.0, mag)), disp)
    disp = np.where(near_node, lim * last_dir, disp)
    finite = ~near_node & (mag > 0.0)
    new_mag = np.abs(disp)
    new_dir = np.where(finite, disp / np.where(new_mag == 0.0, 1.0, new_mag), last_dir)
    return disp, over, new_dir


def em_step(model: ModelSpec, t: float, z, dt: float, xi, drift_cap: float = 10.0,
            fallback_direction=None):
    """One Euler-Maruyama step from z at time t with normal draw xi.

    The drift displacement is capped at drift_cap*sqrt(dt); a NearNode from the
    wavefield is absorbed by stepping drift_cap*sqrt(dt) along
    fallback_direction (or taking a pure diffusion step when none is known).
    Accepts scalars or broadcastable arrays.
    """
    scalar = np.isscalar(z) and np.isscalar(xi)
    z = np.asarray(z, dtype=complex)
    xi = np.asarray(xi, dtype=float)
    g, near = log_derivative_masked(model, t, z)
    last_dir = np.zeros(np.broadcast(z, xi).shape, dtype=complex)
    if fallback_direction is not None:
        last_dir = last_dir + fallback_direction
    sqrt_dt = math.sqrt(dt)
    disp, _, _ = _displacement(g, near, dt, sqrt_dt, drift_cap, last_dir)
    out = z + disp + NOISE_FACTOR * xi * sqrt_dt
    return complex(out) if scalar else out


def split_step(model: ModelSpec, t: float, x, y, dt: float, xi, drift_cap: float = 10.0,
               fallback_direction=None):
    """The same step as em_step, written on the real and imaginary parts.

    x' = x + Im(g) dt - xi sqrt(dt)/sqrt(2) and y' = y - Re(g) dt
    + xi sqrt(dt)/sqrt(2), with the identical cap applied before splitting;
    the result equals em_step componentwise to the last bit.
    """
    scalar = np.isscalar(x) and np.isscalar(y) and np.isscalar(xi)
    z = np.asarray(x, dtype=float) + 1j * np.asarray(y, dtype=float)
    xi = np.asarray(xi, dtype=float)
    g, near = log_derivative_masked(model, t, z)
    last_dir = np.zeros(np.broadcast(z, xi).shape, dtype=complex)
    if fallback_direction is not None:
        last_dir = last_dir + fallback_direction
    sqrt_dt = math.sqrt(dt)
    disp, _, _ = _displacement(g, near, dt, sqrt_dt, drift_cap, last_dir)
    w = NOISE_FACTOR * xi * sqrt_dt
    x_new = (np.asarray(x, dtype=float) + disp.real) + w.real
    y_new = (np.asarray(y, dtype=float) + disp.imag) + w.imag
    return (float(x_new), float(y_new)) if scalar else (x_new, y_new)


def _integrate_chunk(config: SimulationConfig, model: ModelSpec, lo: int, hi: int):
    """Integrate trajectories [lo, hi); returns this chunk's records and pools."""
    n = hi - lo
    n_steps = config.n_steps
    dt = config.dt
    sqrt_dt = math.sqrt(dt)
    ids = np.arange(lo, hi)

    init = np.asarray(config.initial_points, dtype=complex)
    z = init[ids % len(init)]

    noise = NoiseStreams(derive_seeds(config.master_seed, ids))

    snap_idx = config.snapshot_indices() if config.record_mode == "snapshots" else ()
    full = config.record_mode == "full_path"
    n_rec = n_steps + 1 if full else len(snap_idx)
    xs = np.empty((n_rec, n)) if n_rec else None
    ys = np.empty((n_rec, n)) if n_rec else None
    rec_row = 0
    if full or (snap_idx and snap_idx[0] == 0):
        xs[rec_row] = z.real
        ys[rec_row] = z.imag
        rec_row += 1

    cross_t, cross_x, cross_id = [], [], []
    # a recorded point with y exactly 0 is itself an axis point, emitted once
    on_axis = z.imag == 0.0
    if np.any(on_axis):
        cross_t.append(np.zeros(int(on_axis.sum())))
        cross_x.append(z.real[on_axis].copy())
        cross_id.append(ids[on_axis])

    alive = np.ones(n, dtype=bool)
    last_dir = np.zeros(n, dtype=complex)
    capped = 0
    near_nodes = 0
    y_prev = z.imag.copy()
    x_prev = z.real.copy()

    for j in range(n_steps):
        t = j * dt
        g, near = log_derivative_masked(model, t, z)
        disp, over, last_dir = _displacement(g, near, dt, sqrt_dt, config.drift_cap, last_dir)
        capped += int(np.count_nonzero(over & alive))
        near_nodes += int(np.count_nonzero(near & alive))
        z_new = z + disp + NOISE_FACTOR * noise.normals() * sqrt_dt
        z = np.where(alive, z_new, z)
        blown = alive & (np.abs(z) > BLOWUP_THRESHOLD)
        alive &= ~blown

        y_new = z.imag
        x_new = z.real
        flip = (y_prev * y_new < 0.0) & alive
        if np.any(flip):
            x_cross, frac = crossing_interpolation(x_prev[flip], y_prev[flip],
                                                   x_new[flip], y_new[flip])
            cross_t.append(t + dt * frac)
            cross_x.append(x_cross)
            cross_id.append(ids[flip])
        touch = (y_new == 0.0) & alive
        if np.any(touch):
            cross_t.append(np.full(int(touch.sum()), t + dt))
            cross_x.append(x_new[touch].copy())
            cross_id.append(ids[touch])

        if full or (j + 1) in snap_idx:
            xs[rec_row] = x_new
            ys[rec_row] = y_new
            rec_row += 1
        x_prev, y_prev = x_new, y_new

    # pools exclude paths that later diverged
    if cross_t:
        ct = np.concatenate(cross_t)
        cx = np.concatenate(cross_x)
        ci = np.concatenate(cross_id)
        keep = alive[ci - lo]
        ct, cx, ci = ct[keep], cx[keep], ci[keep]
    else:
        ct = np.empty(0)
        cx = np.empty(0)
        ci = np.empty(0, dtype=int)

    return dict(xs=xs, ys=ys, ct=ct, cx=cx, ci=ci, alive=alive,
                fx=z.real.copy(), fy=z.imag.copy(), capped=capped, near=near_nodes)


def simulate_ensemble(config: SimulationConfig, model: ModelSpec | None = None,
                      threads: int = 1) -> Ensemble:
    """Run every trajectory of the configuration and merge the results.

    Trajectories are integrated in fixed-size chunks that may execute on any
    number of threads (0: one per core); the merge is by chunk index, so the
    output is bit-identical for every thread count.  Serial is the default
    because the chunks hold the interpreter lock for most of their time.  Fails with NumericalBlowup if more
    than MAX_DIVERGED_FRACTION of the paths diverge.
    """
    model = config.model if model is None else model
    n = config.n_trajectories
    bounds = [(lo, min(lo + CHUNK_SIZE, n)) for lo in range(0, n, CHUNK_SIZE)]

    if threads == 0:
        threads = min(len(bounds), os.cpu_count() or 1)
    if threads <= 1 or len(bounds) == 1:
        parts = [_integrate_chunk(config, model, lo, hi) for lo, hi in bounds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda b: _integrate_chunk(config, model, *b), bounds))

    if config.record_mode == "full_path":
        times = np.arange(config.n_steps + 1) * config.dt
    elif config.record_mode == "snapshots":
        times = np.array([j * config.dt for j in config.snapshot_indices()])
    else:
        times = np.empty(0)

    xs = np.concatenate([p["xs"] for p in parts], axis=1) if parts[0]["xs"] is not None else None
    ys = np.concatenate([p["ys"] for p in parts], axis=1) if parts[0]["ys"] is not None else None
    ens = Ensemble(
        config=config,
        times=times,
        x=xs,
        y=ys,
        crossing_times=np.concatenate([p["ct"] for p in parts]),
        crossing_x=np.concatenate([p["cx"] for p in parts]),
        crossing_ids=np.concatenate([p["ci"] for p in parts]).astype(int),
        final_x=np.concatenate([p["fx"] for p in parts]),
        final_y=np.concatenate([p["fy"] for p in parts]),
        alive=np.concatenate([p["alive"] for p in parts]),
        capped_steps=sum(p["capped"] for p in parts),
        near_node_steps=sum(p["near"] for p in parts),
    )
    if ens.n_diverged > MAX_DIVERGED_FRACTION * n:
        raise NumericalBlowup(
            f"{ens.n_diverged}/{n} trajectories diverged (>{MAX_DIVERGED_FRACTION:.0%})"
        )
    return ens


def simulate_trajectory(config: SimulationConfig, traj_index: int,
                        model: ModelSpec | None = None) -> Trajectory:
    """Integrate one trajectory (identical to its slice of the full ensemble).

    Raises NumericalBlowup if that path diverges.
    """
    if traj_index >= config.n_trajectories:
        raise ValueError(f"traj_index {traj_index} >= n_trajectories {config.n_trajectories}")
    model = config.model if model is None else model
    part = _integrate_chunk(config, model, traj_index, traj_index + 1)
    if not part["alive"][0]:
        raise NumericalBlowup(f"trajectory {traj_index} diverged")
    if config.record_mode == "full_path":
        times = np.arange(config.n_steps + 1) * config.dt
        points = part["xs"][:, 0] + 1j * part["ys"][:, 0]
    elif config.record_mode == "snapshots":
        times = np.array([j * config.dt for j in config.snapshot_indices()])
        points = part["xs"][:, 0] + 1j * part["ys"][:, 0]
    else:
        times = np.array([config.adjusted_t_final])
        points = np.array([part["fx"][0] + 1j * part["fy"][0]])
    return Trajectory(
        id=traj_index,
        times=times,
        points=points,
        crossings=np.column_stack([part["ct"], part["cx"]]),
    )


def snapshot_index(ensemble: Ensemble, t: float) -> int:
    """Row index of recorded time t, or TimeNotRecorded."""
    if ensemble.times.size == 0:
        raise TimeNotRecorded("this record mode stores no path points")
    j = int(round(t / ensemble.config.dt))
    hits = np.nonzero(np.abs(ensemble.times - j * ensemble.config.dt) <= 1e-9 * max(1.0, t))[0]
    if hits.size == 0 or abs(j * ensemble.config.dt - t) > ensemble.config.dt / 2:
        raise TimeNotRecorded(f"time {t} is not a recorded step time")
    return int(hits[0])
