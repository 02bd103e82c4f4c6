"""Integrator contracts: the noise convention, step examples, the componentwise
form of the step, one-step moments, reproducibility, and divergence accounting."""

import json
import math
import mmap
import multiprocessing
import os
import re
import signal
import subprocess
import sys

import numpy as np
import pytest
from conftest import DIVERGING_LAUNCHES, hermite_real_roots

import cqrt
from cqrt import (
    NOISE_FACTOR,
    Eigenstate,
    GaussianPacket,
    NumericalBlowup,
    SimulationConfig,
    crossing_interpolation,
    derive_seed,
    log_derivative,
    noise_increment,
    sample_eigenstate_positions,
    simulate_ensemble,
    standard_normals,
)
from cqrt.hermite import hermite_ratio_masked
from cqrt.sde import (
    BLOWUP_THRESHOLD,
    CHUNK_SIZE,
    _check_diverged,
    _integrate_chunk,
    _step,
    derive_seeds,
    uniforms,
)
from cqrt.wavefield import log_derivative_masked


class TestNoise:
    def test_zero_draw(self):
        assert noise_increment(0.0, 1.0) == 0j

    def test_unit_draw(self):
        value = noise_increment(1.0, 1.0)
        assert value == pytest.approx((-1 + 1j) / math.sqrt(2))

    def test_factor_squares_to_minus_i(self):
        # algebraic identity, exact in Gaussian integers: (-1+i)^2 = -2i,
        # and the normalization (sqrt 2)^2 = 2 cancels it to -i
        assert (-1 + 1j) ** 2 == -2j
        assert NOISE_FACTOR == (-1 + 1j) / math.sqrt(2)
        # the floating product is within one ulp of -i (no double squares
        # to exactly 1/2)
        assert abs(NOISE_FACTOR**2 - (-1j)) < 4e-16

    def test_component_scales(self):
        w = noise_increment(2.0, 0.25)
        assert w.real == pytest.approx(-2.0 * 0.5 / math.sqrt(2))
        assert w.imag == pytest.approx(+2.0 * 0.5 / math.sqrt(2))


def _one_step(model, t, z, dt, xi):
    """The step kernel from one point z with one draw xi."""
    return _step(model, t, np.array([z], dtype=complex), dt, np.array([xi], dtype=float))[0][0]


class TestEmStep:
    def test_ground_state_pure_drift(self):
        assert _one_step(Eigenstate(0), 0.0, 1 + 0j, 0.01, 0.0) == pytest.approx(1 + 0.01j)

    def test_n1_at_i(self):
        # drift = -i*(1/z - z) = -2 at z = i
        assert _one_step(Eigenstate(1), 0.0, 1j, 0.01, 0.0) == pytest.approx(-0.02 + 1j)

    def test_zero_noise_is_deterministic_step(self):
        model = GaussianPacket(1.0)
        z = 0.3 + 0.1j
        a = _one_step(model, 0.5, z, 0.01, 0.0)
        b = _one_step(model, 0.5, z, 0.01, 0.0)
        assert a == b

    def test_drift_displacement_is_exact(self):
        # 1e-3 off the psi_1 node the drift displacement -i g dt is about 10,
        # and the step takes all of it
        z = 1e-3 + 0j
        g = log_derivative_masked(Eigenstate(1), 0.0, z)[0]
        out = _one_step(Eigenstate(1), 0.0, z, 0.01, 0.0)
        assert out == complex(z + -1j * g * 0.01)
        assert abs(out - z) > 9.9

    def test_near_node_without_direction_is_pure_noise(self):
        out = _one_step(Eigenstate(1), 0.0, 0j, 0.01, 1.0)
        assert out == noise_increment(1.0, 0.01)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
    def test_bad_step_rejected(self, dt):
        # a NaN dt would give a NaN step and a negative one no sqrt(dt)
        with pytest.raises(ValueError, match="^dt must be finite and > 0"):
            _config(dt=dt)

    def test_zero_drift_at_node(self):
        # a node's drift displacement is 0, so with no noise the step stays put
        assert _one_step(Eigenstate(1), 0.0, 0j, 0.01, 0.0) == 0j
        root = complex(hermite_real_roots(2)[1])
        assert _one_step(Eigenstate(2), 0.0, root, 0.01, 0.0) == root


def _frozen_drift(model, t, z):
    """log_derivative_masked as it was before the in-place rewrite: one
    temporary per operation on top of hermite_ratio_masked (whose own frozen
    form is in test_hermite.py)."""
    if isinstance(model, Eigenstate) and model.n > 0:
        ratio, near = hermite_ratio_masked(model.n, z)
        return -z + (2.0 * model.n) * ratio, near
    return log_derivative_masked(model, t, z)


def _frozen_step(model, t, z, dt, xi):
    """The step kernel as it was before the in-place rewrite, one temporary
    per operation, with a zero drift displacement at a node."""
    g, near = _frozen_drift(model, t, z)
    disp = np.where(near, 0j, -1j * g * dt)
    return z + disp + noise_increment(xi, dt), near


def _kernel_points(n, count=3000):
    """Born launches of psi_n with diffused imaginary parts, the real nodes of
    H_n, points 1e-9 off them (a drift of about 1e9), and a far ring."""
    rng = np.random.default_rng(n)
    born = sample_eigenstate_positions(n, count, 11) + 1j * rng.normal(0.0, 0.7, count)
    roots = hermite_real_roots(n) + 0j
    ring = 1e3 * np.exp(2j * np.pi * rng.random(50))
    return np.concatenate([born, roots, roots + 1e-9, roots - 1e-9j, ring, [0j]])


def _assert_same_bits(new, old):
    for a, b in zip(new, old):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestStepKernelBits:
    """The in-place step kernel against its frozen expression, byte for byte."""

    @pytest.mark.parametrize("n", [0, 1, 4, 70])
    @pytest.mark.parametrize("dt", [0.01, 0.05 / 141])
    def test_eigenstates(self, n, dt):
        z = _kernel_points(max(n, 1))
        xi = np.random.default_rng(7).normal(size=z.size)
        new = _step(Eigenstate(n), 0.0, z, dt, xi)
        _assert_same_bits(new, _frozen_step(Eigenstate(n), 0.0, z, dt, xi))
        z_new, near = new
        assert near.any() == (n > 0)
        if n == 0:
            # a zero drift: psi_0's log-derivative vanishes at 0
            assert z[-1] == 0 and z_new[-1] == z[-1] + noise_increment(xi[-1], dt)

    @pytest.mark.parametrize("model", [GaussianPacket(1.0), GaussianPacket(0.5, "simplified")])
    def test_packets(self, model):
        z = _kernel_points(3)
        xi = np.random.default_rng(8).normal(size=z.size)
        new = _step(model, 0.3, z, 0.01, xi)
        _assert_same_bits(new, _frozen_step(model, 0.3, z, 0.01, xi))
        assert not new[1].any()

    def test_ensemble_with_node_launches(self, monkeypatch):
        # launches on psi_1's node take a node step at step 0, and launches
        # 1e-3 off it a drift displacement of about 10
        cfg = _config(n_trajectories=200, t_final=0.3, initial_points=(0j, 0.95 + 0j, 1e-3 + 0j))
        ens = simulate_ensemble(cfg)
        assert ens.near_node_steps > 0 and ens.n_diverged == 0
        monkeypatch.setattr("cqrt.sde._step", _frozen_step)
        frozen = simulate_ensemble(cfg)
        for name in ("x", "y", "crossing_times", "crossing_x", "crossing_ids",
                     "final_x", "final_y", "alive", "near_node_steps"):
            _assert_same_bits([getattr(ens, name)], [getattr(frozen, name)])


class TestSplitStep:
    def test_matches_em_step_components_bitwise(self):
        rng = np.random.default_rng(17)
        n_cases = 10_000
        x = rng.normal(size=n_cases) * 2
        y = rng.normal(size=n_cases) * 2
        xi = rng.normal(size=n_cases)
        for model in (Eigenstate(0), Eigenstate(2), GaussianPacket(1.0),
                      GaussianPacket(0.5, "simplified")):
            z = _step(model, 0.3, x + 1j * y, 0.01, xi)[0]
            # the step in real arithmetic, in the kernel's operation order
            g = log_derivative_masked(model, 0.3, x + 1j * y)[0]
            sx = (x + g.imag * 0.01) + NOISE_FACTOR.real * xi * math.sqrt(0.01)
            sy = (y - g.real * 0.01) + NOISE_FACTOR.imag * xi * math.sqrt(0.01)
            np.testing.assert_array_equal(z.real, sx)
            np.testing.assert_array_equal(z.imag, sy)

    def test_noise_components_anticorrelated(self):
        z0 = _one_step(Eigenstate(0), 0.0, 0.5 + 0j, 0.01, 0.0)
        z1 = _one_step(Eigenstate(0), 0.0, 0.5 + 0j, 0.01, 1.3)
        dx_noise = z1.real - z0.real
        dy_noise = z1.imag - z0.imag
        assert dx_noise == pytest.approx(-dy_noise)
        assert dx_noise == pytest.approx(-1.3 * math.sqrt(0.01) / math.sqrt(2))


class TestOneStepMoments:
    def test_mean_and_variance(self):
        model = Eigenstate(2)
        z = 0.7 + 0.3j
        dt = 0.01
        n_draws = 1_000_000
        xi = standard_normals(derive_seed(123, 0), np.arange(n_draws))
        out = _step(model, 0.0, np.full(n_draws, z), dt, xi)[0]
        delta = out - z
        drift = -1j * log_derivative(model, 0.0, z) * dt
        se = math.sqrt(dt / 2) / math.sqrt(n_draws)
        assert abs(delta.real.mean() - drift.real) < 5 * se
        assert abs(delta.imag.mean() - drift.imag) < 5 * se
        assert delta.real.var() == pytest.approx(dt / 2, rel=0.01)
        assert delta.imag.var() == pytest.approx(dt / 2, rel=0.01)
        # the two components share one draw: exact anticorrelation
        rho = np.corrcoef(delta.real, delta.imag)[0, 1]
        assert rho == pytest.approx(-1.0, abs=1e-9)


class TestSeeding:
    def test_derive_seed_is_avalanche(self):
        seeds = {derive_seed(42, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert derive_seed(42, 0) != derive_seed(43, 0)

    def test_normals_deterministic(self):
        a = standard_normals(derive_seed(42, 7), np.arange(100))
        b = standard_normals(derive_seed(42, 7), np.arange(100))
        np.testing.assert_array_equal(a, b)
        c = standard_normals(derive_seed(42, 8), np.arange(100))
        assert not np.array_equal(a, c)

    def test_normals_standard(self):
        xs = standard_normals(derive_seed(1, 0), np.arange(2_000_000))
        assert abs(xs.mean()) < 3e-3
        assert xs.std() == pytest.approx(1.0, abs=2e-3)
        assert np.all(np.isfinite(xs))


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _reference_ints(seed, first, count):
    """SplitMix64 outputs number first .. first + count - 1 (from 0) of the
    generator started at state `seed`, in Python integers.  The state jumps
    over the first `first` increments."""
    state = (seed + first * _GAMMA) & _MASK64
    out = []
    for _ in range(count):
        state = (state + _GAMMA) & _MASK64
        x = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(x ^ (x >> 31))
    return out


def _reference_normals(seed, first, count):
    """The noise contract: -1.0 where bit 63 of the output is set, else +1.0."""
    return np.array([-1.0 if word >> 63 else 1.0 for word in _reference_ints(seed, first, count)])


@pytest.fixture(scope="module")
def stream_block():
    """Draws 0 .. 199 (rows) of the streams of trajectories 0 .. 8191 (columns)
    at master seed 42."""
    return standard_normals(derive_seeds(42, np.arange(8192)), np.arange(200)[:, None])


def _correlation_z(a, b):
    """Pearson correlation of the paired draws times sqrt(pairs): a z-score
    under independence."""
    return np.corrcoef(a.ravel(), b.ravel())[0, 1] * math.sqrt(a.size)


class TestNoiseStreams:
    """The noise streams must equal SplitMix64 in Python integers bit for bit,
    and their signs must be balanced and uncorrelated.  The 5-sigma bounds of
    the statistical checks were fixed before the draws were looked at."""

    def test_derive_seed_values(self):
        # SplitMix64 outputs of the original Python-integer implementation
        assert [derive_seed(42, i) for i in (0, 1, 99_999)] == [
            13679457532755275413, 2949826092126892291, 5403102350507990251]
        assert derive_seed(0, 0) == 16294208416658607535
        assert derive_seed(-1, 5) == 15212506146343009075
        assert derive_seed(2**70 + 3, 2) == 11307387092600937729
        np.testing.assert_array_equal(
            derive_seeds(7, np.arange(5)), [derive_seed(7, i) for i in range(5)])

    def test_standard_normals_literal(self):
        assert standard_normals(derive_seed(42, 0), np.arange(16)).tolist() == [
            1.0, -1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0, 1.0, 1.0, -1.0, -1.0]

    @pytest.mark.parametrize("master_seed", [0, 42, 123_456_789, 2**64 - 1])
    def test_trajectory_streams_match_reference(self, master_seed):
        # the integrator's form, one step of all streams per call, against the
        # per-path reference stream
        indices = np.array([0, 1, 2, 1000, CHUNK_SIZE - 1, CHUNK_SIZE, 99_999])
        count = 300
        seeds = derive_seeds(master_seed, indices)
        drawn = np.array([standard_normals(seeds, j) for j in range(count)])
        for col, index in enumerate(indices):
            seed = derive_seed(master_seed, int(index))
            np.testing.assert_array_equal(drawn[:, col], _reference_normals(seed, 0, count))
            np.testing.assert_array_equal(drawn[:, col],
                                          standard_normals(seed, np.arange(count)))

    # steps 0 .. 299, then around the modular inverse of gamma, where the state
    # is seed + 1, and at the top, where steps + 1 wraps to 0
    @pytest.mark.parametrize("first", [0, pow(_GAMMA, -1, 1 << 64) - 3, 2**64 - 4],
                             ids=["start", "inverse", "top"])
    def test_raw_seeds_match_reference(self, first):
        # seeds at both ends of the range and on either side of 2**32
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        count = 300 if first == 0 else 4
        steps = np.array([first + k for k in range(count)], dtype=np.uint64)
        drawn = standard_normals(np.array(seeds, dtype=np.uint64)[:, None], steps)
        for row, seed in enumerate(seeds):
            assert drawn[row].tobytes() == _reference_normals(seed, first, count).tobytes()

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_launch_uniforms_match_reference(self, seed):
        # draw j of the launch stream of seed: the top 53 bits of output j of
        # SplitMix64 started at derive_seed(seed, 2**64 - 1), over 2**53
        words = _reference_ints(derive_seed(seed, 2**64 - 1), 0, 300)
        assert uniforms(seed, np.arange(300)).tolist() == [(w >> 11) / 2**53 for w in words]

    def test_draws_are_exactly_plus_or_minus_one(self, stream_block):
        assert stream_block.dtype == np.float64
        assert np.all((stream_block == 1.0) | (stream_block == -1.0))

    def test_streams_are_balanced(self, stream_block):
        assert abs(stream_block.mean()) * math.sqrt(stream_block.size) <= 5

    def test_adjacent_streams_are_uncorrelated(self, stream_block):
        assert abs(_correlation_z(stream_block[:, :-1], stream_block[:, 1:])) <= 5

    def test_lag_one_draws_are_uncorrelated(self, stream_block):
        assert abs(_correlation_z(stream_block[:-1], stream_block[1:])) <= 5

    def test_chunk_boundary_keeps_streams(self):
        n = CHUNK_SIZE + 3
        cfg = _config(n_trajectories=n, t_final=0.05)
        ens = simulate_ensemble(cfg)
        for index in (0, CHUNK_SIZE - 1, CHUNK_SIZE, n - 1):
            view = ens.trajectory(index)
            # the same path stepped by the step kernel on the per-path
            # reference stream, with its axis points by the crossing rule
            z = cfg.initial_points[index % 2]
            crossings = [[0.0, z.real]] if z.imag == 0.0 else []
            xis = standard_normals(derive_seed(cfg.master_seed, index), np.arange(cfg.n_steps))
            for j, xi in enumerate(xis):
                z_prev, z = z, _one_step(cfg.model, j * cfg.dt, z, cfg.dt, xi)
                assert z == view.points[j + 1]
                if z_prev.imag != 0.0 and np.sign(z_prev.imag) * z.imag <= 0.0:
                    x, frac = crossing_interpolation(z_prev.real, z_prev.imag, z.real, z.imag)
                    crossings.append([j * cfg.dt + cfg.dt * frac, x])
            assert view.crossings.tolist() == crossings


# run as a script, it prints the numpy dispatch targets enabled and the
# digests of the integer-exact streams as JSON
_STREAM_DIGESTS = """
import hashlib, json
import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from cqrt.sde import derive_seeds, standard_normals, uniforms

def digests():
    seeds = derive_seeds(42, np.arange(4096))
    streams = {"derive_seeds": seeds,
               "standard_normals": standard_normals(seeds[:, None], np.arange(64)),
               "uniforms": uniforms(7, np.arange(100_000))}
    return {name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in streams.items()}

if __name__ == "__main__":
    print(json.dumps([[t for t in __cpu_dispatch__ if __cpu_features__[t]], digests()]))
"""


class TestPlatformContract:
    """The noise and launch streams are integer-exact, so their bits do not
    follow numpy's SIMD dispatch: rerun with each run of the top dispatch
    targets switched off (NPY_DISABLE_CPU_FEATURES, numpy's own runtime
    switch), every stream digest equals this process's."""

    def test_stream_digests_hold_at_every_lower_dispatch_level(self):
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

        enabled = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
        namespace = {}
        exec(_STREAM_DIGESTS, namespace)
        expected = namespace["digests"]()
        path = os.pathsep.join([os.path.dirname(os.path.dirname(cqrt.__file__)),
                                os.environ.get("PYTHONPATH", "")])
        # each level switches off one more target, with every target above it
        levels = [enabled[k:] for k in range(len(enabled))]
        runs = [subprocess.Popen([sys.executable, "-c", _STREAM_DIGESTS], text=True,
                                 stdout=subprocess.PIPE, env=dict(
                                     os.environ, PYTHONPATH=path,
                                     NPY_DISABLE_CPU_FEATURES=" ".join(level)))
                for level in levels]
        for level, run in zip(levels, runs):
            out = run.communicate(timeout=60)[0]
            assert run.returncode == 0, level
            still_enabled, digests = json.loads(out)
            assert still_enabled == enabled[:len(enabled) - len(level)]
            assert digests == expected, level


def _shared_zeros(n):
    """n zero bytes in an anonymous shared mapping, which forked workers write
    in place."""
    return np.frombuffer(mmap.mmap(-1, n), dtype=np.uint8)


def _failing_config(monkeypatch, bad_chunk, t_final):
    """20 chunks of 100 psi_1 paths; half of chunk bad_chunk's launches (none
    for None) sit 1e-9 off the node and leave on the first step."""
    monkeypatch.setattr("cqrt.sde.CHUNK_SIZE", 100)
    points = [0.95 + 0j, -0.95 + 0j] * 1000
    if bad_chunk is not None:
        points[100 * bad_chunk:100 * (bad_chunk + 1):2] = [1e-9 + 0j] * 50
    return _config(n_trajectories=2000, t_final=t_final, initial_points=tuple(points),
                   record_mode="crossings_and_final")


def _config(**kw):
    base = dict(model=Eigenstate(1), dt=0.01, t_final=1.0,
                initial_points=(0.95 + 0j, -0.95 + 0j), n_trajectories=300,
                master_seed=42, record_mode="full_path")
    base.update(kw)
    return SimulationConfig(**base)


def _frozen_integrate_chunk(ens, lo, hi, launches):
    """The chunk loop as it was before it skipped the alive masks while every
    path lives: both np.where copies and the near & alive count on every step,
    and the crossings gathered by a boolean mask over the .real/.imag views.
    It converts the launch tuple itself, as every chunk then did."""
    config = ens.config
    cols = slice(lo, hi)
    dt = config.dt
    ids = np.arange(lo, hi)
    z = np.asarray(config.initial_points, dtype=complex)[ids % len(config.initial_points)]
    seeds = derive_seeds(config.master_seed, ids)
    rows = {step: row for row, step in enumerate(config.record_steps())}
    if 0 in rows:
        ens.x[0, cols], ens.y[0, cols] = z.real, z.imag
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
        alive &= np.abs(z) <= BLOWUP_THRESHOLD
        _check_diverged(alive.size - int(np.count_nonzero(alive)), config.n_trajectories)
        hit = (np.sign(z_prev.imag) * z.imag <= 0.0) & (z_prev.imag != 0.0)
        if np.any(hit):
            x_cross, frac = crossing_interpolation(z_prev.real[hit], z_prev.imag[hit],
                                                   z.real[hit], z.imag[hit])
            crossings.append((t + dt * frac, x_cross, ids[hit]))
        row = rows.get(j + 1)
        if row is not None:
            ens.x[row, cols], ens.y[row, cols] = z.real, z.imag
    ens.final_x[cols], ens.final_y[cols] = z.real, z.imag
    crossings = [np.concatenate(c) for c in zip(*crossings)]
    keep = alive[crossings[2] - lo]
    return [c[keep] for c in crossings], near_nodes


ENSEMBLE_FIELDS = ("times", "x", "y", "crossing_times", "crossing_x", "crossing_ids",
                   "final_x", "final_y", "alive", "near_node_steps")

_N70 = dict(model=Eigenstate(70), dt=0.05 / 141, t_final=0.05)


class TestChunkLoopBits:
    """simulate_ensemble on 1-4 workers against the frozen chunk loop run
    serially, every Ensemble field byte for byte.  The frozen loop emits its
    chunk's crossings in step order, so its pool is compared after a stable
    sort on crossing_ids, which puts it in path order."""

    @pytest.mark.parametrize("case, threads, kw", [
        ("chunks", 1, dict(n_trajectories=700)),
        ("chunks", 2, dict(n_trajectories=700)),
        ("on_axis", 1, dict(initial_points=(0.95 + 0j, -0.3 + 0j, 0.5 + 0.5j, 0j))),
        ("crossings_and_final", 1, dict(n_trajectories=700, record_mode="crossings_and_final")),
        ("snapshots", 2, dict(n_trajectories=700, record_mode="snapshots",
                              snapshot_times=(0.0, 0.33, 1.0))),
        ("full_path", 1, dict(record_mode="full_path", t_final=0.5)),
        ("packet", 1, dict(model=GaussianPacket(1.0), t_final=2.0,
                           initial_points=tuple(np.linspace(-2.0, 2.0, 40) + 0j))),
        ("n70", 1, dict(**_N70, initial_points=tuple(sample_eigenstate_positions(70, 300, 5) + 0j))),
        ("diverging", 1, dict(n_trajectories=1000, initial_points=DIVERGING_LAUNCHES)),
        ("diverging", 2, dict(n_trajectories=1000, initial_points=DIVERGING_LAUNCHES,
                              record_mode="crossings_and_final")),
        # shares of 233-234 and of 175 paths, each in pieces from its first
        ("chunks", 3, dict(n_trajectories=700)),
        ("chunks", 4, dict(n_trajectories=700)),
        # the ladder's shape, small: one chunk of Born launches, snapshots
        *[("n70", threads, dict(**_N70, n_trajectories=200, record_mode="snapshots",
                                initial_points=tuple(sample_eigenstate_positions(70, 200, 9) + 0j),
                                snapshot_times=tuple(np.arange(0, 142, 7) * _N70["dt"])))
          for threads in (2, 3, 4)],
        # three shares of one piece each: the last drops its two diverged paths
        ("diverging", 3, dict(n_trajectories=250, initial_points=DIVERGING_LAUNCHES,
                              record_mode="crossings_and_final")),
    ])
    def test_matches_frozen_loop(self, monkeypatch, case, threads, kw):
        monkeypatch.setattr("cqrt.sde.CHUNK_SIZE", 256)
        cfg = _config(**kw)
        ens = simulate_ensemble(cfg, threads=threads)
        monkeypatch.setattr("cqrt.sde._integrate_chunk", _frozen_integrate_chunk)
        frozen = simulate_ensemble(cfg, threads=1)
        order = np.argsort(frozen.crossing_ids, kind="stable")
        for name in ENSEMBLE_FIELDS:
            expected = getattr(frozen, name)
            if name.startswith("crossing_"):
                expected = expected[order]
            _assert_same_bits([getattr(ens, name)], [expected])
        assert ens.crossing_x.size > 0
        if case == "diverging":
            # the far launches (ids 249, 499, ...) are alive 10 steps in, so
            # every chunk ran unmasked before it ran masked
            assert ens.n_diverged == 2 * cfg.n_trajectories // 250
            assert not ens.alive[249::250].any()
            if ens.x is not None:
                assert np.all(np.abs(ens.x[10, 249::250] + 1j * ens.y[10, 249::250])
                              <= BLOWUP_THRESHOLD)


class TestPathOrder:
    """Set A's pool is in path order: crossing_ids non-decreasing, each path's
    points in step order, whatever CHUNK_SIZE and the worker count."""

    @pytest.mark.parametrize("case, kw", [
        ("plain", dict(n_trajectories=700, t_final=0.5)),
        ("on_axis", dict(n_trajectories=700, t_final=0.5,
                         initial_points=(0.95 + 0j, -0.3 + 0j, 0.5 + 0.5j, 0j))),
        # 8 of 1000 paths diverge (2 per 250), after 1 and about 20 steps
        ("diverging", dict(n_trajectories=1000, t_final=0.3, initial_points=DIVERGING_LAUNCHES,
                           record_mode="crossings_and_final")),
    ])
    def test_same_bits_for_every_chunk_size_and_worker_count(self, monkeypatch, case, kw):
        cfg = _config(**kw)
        reference = simulate_ensemble(cfg, threads=1)
        if case == "diverging":
            assert reference.n_diverged == 8
        for chunk in (3, 256, 8192):
            monkeypatch.setattr("cqrt.sde.CHUNK_SIZE", chunk)
            for threads in (1, 2, 3, 4):
                ens = simulate_ensemble(cfg, threads=threads)
                for name in ENSEMBLE_FIELDS:
                    _assert_same_bits([getattr(ens, name)], [getattr(reference, name)])

    @pytest.mark.parametrize("threads", [1, 3])
    def test_pool_is_in_path_order(self, monkeypatch, threads):
        monkeypatch.setattr("cqrt.sde.CHUNK_SIZE", 256)
        cfg = _config(n_trajectories=700, initial_points=(0.95 + 0j, 0.4 + 0.3j, 0j))
        ens = simulate_ensemble(cfg, threads=threads)
        ids, times = ens.crossing_ids, ens.crossing_times
        assert np.all(np.diff(ids) >= 0)
        same_path = ids[1:] == ids[:-1]
        assert same_path.sum() > ids.size // 2
        assert np.all(np.diff(times)[same_path] > 0)
        # an on-axis launch is its path's first point
        firsts = np.flatnonzero(np.r_[True, ~same_path])
        on_axis = ids[firsts] % 3 != 1
        assert np.all(times[firsts[on_axis]] == 0.0) and np.all(times[firsts[~on_axis]] > 0.0)
        # so a block of paths is one slice of the pool
        lo, hi = np.searchsorted(ids, [100, 400])
        assert np.flatnonzero((ids >= 100) & (ids < 400)).tolist() == list(range(lo, hi))
        view = ens.trajectory(256)
        _assert_same_bits([view.crossings[:, 0], view.crossings[:, 1]],
                          [times[ids == 256], ens.crossing_x[ids == 256]])


class TestSimulate:
    def test_recorded_point_count(self):
        ens = simulate_ensemble(_config(n_trajectories=1, initial_points=(0.5 + 0.5j,)))
        traj = ens.trajectory(0)
        assert len(traj.times) == 101
        assert len(traj.points) == 101
        assert traj.points[0] == 0.5 + 0.5j

    def test_bit_identical_reruns(self):
        e1 = simulate_ensemble(_config())
        e2 = simulate_ensemble(_config())
        np.testing.assert_array_equal(e1.x, e2.x)
        np.testing.assert_array_equal(e1.y, e2.y)
        np.testing.assert_array_equal(e1.crossing_x, e2.crossing_x)

    def test_thread_count_does_not_change_results(self):
        # three pieces serially, two to a share on two workers, one on three and four
        cfg = _config(n_trajectories=20_000)
        serial = simulate_ensemble(cfg, threads=1)
        for threads in (2, 3, 4):
            forked = simulate_ensemble(cfg, threads=threads)
            for name in ENSEMBLE_FIELDS:
                _assert_same_bits([getattr(serial, name)], [getattr(forked, name)])

    @pytest.mark.parametrize("threads", [1, 2])
    def test_launch_tuple_converted_once(self, monkeypatch, threads):
        # a conversion per chunk would grow with the square of the path count
        monkeypatch.setattr("cqrt.sde.CHUNK_SIZE", 3)
        cfg = _config(n_trajectories=10, t_final=0.05)
        asarray, conversions = np.asarray, []

        def counting(a, *args, **kwargs):
            if a is cfg.initial_points:
                conversions.append(1)
            return asarray(a, *args, **kwargs)

        monkeypatch.setattr(np, "asarray", counting)
        simulate_ensemble(cfg, threads=threads)
        assert len(conversions) == 1

    def test_negative_thread_count_rejected(self, monkeypatch):
        def integrate(*args):
            raise AssertionError("integrated before the thread count check")

        monkeypatch.setattr("cqrt.sde._integrate_chunk", integrate)
        with pytest.raises(ValueError, match="threads must be >= 0"):
            simulate_ensemble(_config(), threads=-3)

    def test_crossing_join_holds_one_column_beyond_the_pool(self, traced_peak):
        # the join copies one column at a time and drops its chunk pieces, so
        # the traced peak is the pool, one joined column (a third of it) and
        # the Ensemble's own arrays; joining all three columns while every
        # chunk's pieces are held peaks at twice the pool
        config = SimulationConfig(model=Eigenstate(1), dt=0.01, t_final=1.0,
                                  initial_points=(0.95, -0.95), n_trajectories=30000,
                                  master_seed=7, record_mode="crossings_and_final")
        ens, peak = traced_peak(simulate_ensemble, config)
        pool = sum(a.nbytes for a in (ens.crossing_times, ens.crossing_x, ens.crossing_ids))
        assert pool > 5e6
        assert peak < 1.5 * pool

    def test_single_trajectory_matches_ensemble_slice(self):
        for mode in ("full_path", "crossings_and_final", "snapshots"):
            times = (0.25, 1.0) if mode == "snapshots" else ()
            cfg = _config(n_trajectories=50, record_mode=mode, snapshot_times=times)
            ens = simulate_ensemble(cfg)
            for index in (0, 13, 49):
                view = ens.trajectory(index)
                assert view.id == index and type(view.id) is int
                if ens.x is None:
                    expected = [ens.final_x[index] + 1j * ens.final_y[index]]
                else:
                    expected = ens.x[:, index] + 1j * ens.y[:, index]
                np.testing.assert_array_equal(view.points, expected)
                assert view.points[-1] == complex(ens.final_x[index], ens.final_y[index])
                sel = ens.crossing_ids == index
                assert sel.any()
                np.testing.assert_array_equal(view.crossings[:, 0], ens.crossing_times[sel])
                np.testing.assert_array_equal(view.crossings[:, 1], ens.crossing_x[sel])
            expected_times = {"full_path": cfg.record_times, "snapshots": [0.25, 1.0],
                              "crossings_and_final": [cfg.adjusted_t_final]}[mode]
            np.testing.assert_array_equal(view.times, expected_times)

    @pytest.mark.parametrize("index", [-1, 50])
    def test_index_outside_ensemble_rejected(self, index):
        cfg = _config(n_trajectories=50, t_final=0.1)
        message = re.escape(f"trajectory index {index} outside [0, 50)")
        with pytest.raises(ValueError, match=message):
            simulate_ensemble(cfg).trajectory(index)

    @pytest.mark.parametrize("mode", ["full_path", "crossings_and_final"])
    def test_index_rule(self, mode):
        # path 0 of 200 diverges; the checks run in order: the index is an
        # integer, then in range, then a path that did not diverge
        points = tuple([2e6 + 0j] + [0.1 + 0.1j] * 199)
        ens = simulate_ensemble(_config(model=Eigenstate(0), n_trajectories=200,
                                        initial_points=points, record_mode=mode))
        for index in (1.5, np.float64(2.0), "3", 0.0, 200.0, None):
            with pytest.raises(TypeError):
                ens.trajectory(index)
        for index in (-1, 200, np.int64(200)):
            with pytest.raises(ValueError, match=re.escape(f"index {index} outside [0, 200)")):
                ens.trajectory(index)
        with pytest.raises(NumericalBlowup, match="trajectory 0 diverged"):
            ens.trajectory(np.int64(0))
        for index in (np.int64(3), np.uint8(3)):
            view = ens.trajectory(index)
            assert view.id == 3 and type(view.id) is int
            np.testing.assert_array_equal(view.points, ens.trajectory(3).points)

    def test_round_robin_initial_points(self):
        cfg = _config(n_trajectories=5)
        ens = simulate_ensemble(cfg)
        np.testing.assert_allclose(ens.x[0], [0.95, -0.95, 0.95, -0.95, 0.95])

    def test_wide_spread_matches_qualitative_range(self):
        # after t = 1 the real parts of an n=1 ensemble spread over ~[-4, 4]
        cfg = _config(n_trajectories=4000)
        ens = simulate_ensemble(cfg)
        finals = ens.final_x[ens.alive]
        assert np.percentile(finals, 0.5) > -5.0
        assert np.percentile(finals, 99.5) < 5.0
        assert finals.std() > 0.8

    def test_snapshot_mode(self):
        cfg = _config(record_mode="snapshots", snapshot_times=(0.0, 0.5, 1.0))
        ens = simulate_ensemble(cfg)
        assert ens.x.shape[0] == 3
        np.testing.assert_allclose(ens.times, [0.0, 0.5, 1.0])

    def test_snapshot_steps_are_sorted_unique_grid_steps(self):
        # round half to even: 0.125 / 0.25 = 0.5 is step 0, 0.375 / 0.25 = 1.5 step 2
        cfg = _config(dt=0.25, record_mode="snapshots", snapshot_times=(1.0, 0.375, 0.125, 0.5))
        steps = cfg.record_steps()
        np.testing.assert_array_equal(steps, [0, 2, 4])
        assert steps.dtype.kind == "i"
        for t in (-0.2, 1.2, float("nan")):
            with pytest.raises(ValueError, match=f"snapshot time {t} outside"):
                _config(record_mode="snapshots", snapshot_times=(0.5, t)).record_steps()

    def test_crossings_mode_drops_paths(self):
        cfg = _config(record_mode="crossings_and_final")
        ens = simulate_ensemble(cfg)
        assert ens.x is None
        assert ens.crossing_x.size > 0
        assert ens.final_x.shape == (300,)

    def test_blowup_detected_and_counted(self):
        cfg = _config(model=Eigenstate(0), n_trajectories=400,
                      initial_points=(2e6 + 0j, 0.1 + 0j, -0.1 + 0j, 0.2 + 0j))
        # every 4th trajectory starts beyond the blowup threshold: 25% > 1%
        with pytest.raises(NumericalBlowup):
            simulate_ensemble(cfg)

    def test_single_blowup_excluded_from_statistics(self):
        points = tuple([2e6 + 0j] + [0.1 + 0.1j] * 199)
        cfg = _config(model=Eigenstate(0), n_trajectories=200, initial_points=points)
        ens = simulate_ensemble(cfg)
        assert ens.n_diverged == 1
        assert not ens.alive[0]
        assert not np.any(ens.crossing_ids == 0)
        with pytest.raises(NumericalBlowup):
            ens.trajectory(0)

    def test_nan_position_counts_as_diverged(self, monkeypatch):
        # from t = 0.5 on, path 0's drift is NaN, as an overflowing kernel gives
        def poisoned(model, t, z):
            g, near = log_derivative_masked(model, t, z)
            if t >= 0.5:
                g = g.copy()
                g[0] = complex("nan")
            return g, near

        cfg = _config(n_trajectories=200)
        clean = simulate_ensemble(cfg)
        assert np.any(clean.crossing_ids == 0)
        monkeypatch.setattr("cqrt.sde.log_derivative_masked", poisoned)
        # the step divides nothing, so the NaN displacement raises no
        # RuntimeWarning
        ens = simulate_ensemble(cfg)
        assert ens.n_diverged == 1
        assert not ens.alive[0]
        assert not np.any(ens.crossing_ids == 0)
        np.testing.assert_array_equal(ens.alive[1:], clean.alive[1:])

    def test_diverged_path_leaves_the_drift(self, monkeypatch):
        # path 0 launches at 1e40 and diverges in its first step; from then on
        # the drift sees a finite stand-in for it, never its frozen position
        launches = sample_eigenstate_positions(70, 199, 3)
        cfg = _config(model=Eigenstate(70), dt=0.05 / 141, t_final=0.01, n_trajectories=200,
                      initial_points=(1e40 + 0j,) + tuple(launches))
        inputs = []

        def recording(model, t, z):
            inputs.append(np.array(z))
            return log_derivative_masked(model, t, z)

        monkeypatch.setattr("cqrt.sde.log_derivative_masked", recording)
        ens = simulate_ensemble(cfg)
        assert not ens.alive[0] and ens.final_x[0] == 1e40
        assert len(inputs) == cfg.n_steps and abs(inputs[0][0]) == 1e40
        for z in inputs[1:]:
            assert np.all(np.isfinite(z)) and np.all(np.abs(z) <= BLOWUP_THRESHOLD)

    def test_landing_on_the_axis_is_one_crossing(self, monkeypatch):
        # with no noise psi_0's first step from 1 - 0.5i is exactly
        # 1 - 0.5i + 0.5 * (0.5 + 1i) = 1.25 + 0i, on the axis; the next step
        # leaves it upwards, which is no second crossing
        monkeypatch.setattr("cqrt.sde.standard_normals",
                            lambda seeds, steps: np.zeros(np.shape(seeds)))
        cfg = _config(model=Eigenstate(0), dt=0.5, t_final=1.0, initial_points=(1 - 0.5j,),
                      n_trajectories=1)
        ens = simulate_ensemble(cfg)
        assert ens.y[1, 0] == 0.0 and ens.x[1, 0] == 1.25 and ens.y[2, 0] > 0.0
        assert ens.crossing_times.tolist() == [0.5]
        assert ens.crossing_x.tolist() == [1.25]

    @staticmethod
    def _glide(monkeypatch, launch, dy, t_final=0.5):
        """One noiseless path whose drift moves it by exactly dy * i per step of 0.5."""
        monkeypatch.setattr("cqrt.sde.standard_normals",
                            lambda seeds, steps: np.zeros(np.shape(seeds)))
        monkeypatch.setattr("cqrt.sde.log_derivative_masked",
                            lambda model, t, z: (np.full(z.shape, -2.0 * dy + 0j),
                                                 np.zeros(z.shape, dtype=bool)))
        cfg = _config(dt=0.5, t_final=t_final, initial_points=(launch,), n_trajectories=1)
        return simulate_ensemble(cfg)

    @pytest.mark.parametrize("dy, crossings", [(-2e-200, [(0.25, 0.5)]), (1e-200, [])])
    def test_tiny_steps_cross_by_sign(self, monkeypatch, dy, crossings):
        # y goes from 1e-200 to -1e-200 (one crossing, half way along the
        # step) or to 2e-200 (none); y_prev * y_new underflows to 0 either way
        ens = self._glide(monkeypatch, 0.5 + 1e-200j, dy)
        assert ens.y[1, 0] == 1e-200 + dy
        assert list(zip(ens.crossing_times, ens.crossing_x)) == crossings

    def test_path_resting_on_the_axis_is_one_row(self, monkeypatch):
        # only the launch is an axis point: a step that starts on the axis
        # does not cross it
        ens = self._glide(monkeypatch, 0.7 + 0j, 0.0, t_final=2.0)
        assert np.all(ens.y[:, 0] == 0.0) and ens.x[:, 0].tolist() == [0.7] * 5
        assert ens.crossing_times.tolist() == [0.0]
        assert ens.crossing_x.tolist() == [0.7]

    def test_snapshot_times_need_snapshots_mode(self):
        for mode in ("full_path", "crossings_and_final"):
            with pytest.raises(ValueError, match="snapshot_times"):
                _config(record_mode=mode, snapshot_times=(0.5,))

    def test_node_launches_do_not_diverge(self):
        # launches 0.02 off psi_1's node first move by about dt/0.02 = 0.5
        cfg = _config(model=Eigenstate(1), n_trajectories=2000, t_final=0.5,
                      initial_points=(0.02 + 0j, -0.02 + 0j))
        ens = simulate_ensemble(cfg)
        assert ens.n_diverged == 0
        assert np.all(np.isfinite(ens.x)) and np.all(np.isfinite(ens.y))

    def test_launches_a_hair_off_a_node_diverge(self):
        # uncapped, a launch 1e-9 off psi_1's node moves dt/1e-9 = 1e7 on its
        # first step, past BLOWUP_THRESHOLD: a third of the paths diverge
        cfg = _config(n_trajectories=200, t_final=0.3, initial_points=(0j, 0.95 + 0j, 1e-9 + 0j))
        with pytest.raises(NumericalBlowup, match="^66/200 trajectories diverged"):
            simulate_ensemble(cfg)
        # a launch on the node takes the pure-diffusion node step
        cfg = _config(n_trajectories=4, t_final=0.01, initial_points=(0j,))
        ens = simulate_ensemble(cfg)
        step = noise_increment(standard_normals(derive_seeds(42, np.arange(4)), 0), cfg.dt)
        assert ens.near_node_steps == 4
        assert ens.x[1].tolist() == step.real.tolist()
        assert ens.y[1].tolist() == step.imag.tolist()

    def test_divergence_fails_fast(self, monkeypatch):
        # half the launches sit 1e-9 off psi_1's node and leave on step 1, so
        # each chunk alone holds more than 1% of the ensemble diverged: no
        # process draws a second step (the steps drawn are marked in shared
        # memory, which forked workers write too)
        drawn = _shared_zeros(100)

        def counting(seeds, steps):
            drawn[steps] = 1
            return standard_normals(seeds, steps)

        monkeypatch.setattr("cqrt.sde.standard_normals", counting)
        cfg = _config(n_trajectories=30_000, initial_points=(0.95 + 0j, 1e-9 + 0j),
                      record_mode="crossings_and_final")
        for threads in (1, 2):
            with pytest.raises(NumericalBlowup,
                               match=f"^{CHUNK_SIZE // 2}/30000 trajectories diverged"):
                simulate_ensemble(cfg, threads=threads)
            assert np.flatnonzero(drawn).tolist() == [0]

    @pytest.mark.parametrize("bad_chunk", [0, 1, 10])
    def test_failure_skips_chunks_not_started(self, monkeypatch, bad_chunk):
        # on two workers this process takes chunks 0-9 and a forked one 10-19;
        # the failing chunk fails on its first step, while the others run 1000
        # steps (tens of ms), so the other share runs only its chunk in flight
        # and perhaps one more
        started = _shared_zeros(20)

        def counting(ens, lo, hi, launches):
            started[lo // 100] = 1
            return _integrate_chunk(ens, lo, hi, launches)

        monkeypatch.setattr("cqrt.sde._integrate_chunk", counting)
        cfg = _failing_config(monkeypatch, bad_chunk, t_final=10.0)
        message = "^50/2000 trajectories diverged"
        with pytest.raises(NumericalBlowup, match=message):
            simulate_ensemble(cfg, threads=1)
        assert np.flatnonzero(started).tolist() == list(range(bad_chunk + 1))
        started[:] = 0
        with pytest.raises(NumericalBlowup, match=message):
            simulate_ensemble(cfg, threads=2)
        own, other = (started[:10], started[10:]) if bad_chunk < 10 else (started[10:], started[:10])
        assert own[bad_chunk % 10] and not own[bad_chunk % 10 + 1:].any()
        assert other.sum() <= 2

    @pytest.mark.parametrize("bad_chunk", [None, 0, 10])
    def test_no_worker_outlives_the_call(self, monkeypatch, bad_chunk):
        # a clean forked run, a failure in this process's share (chunks 0-9)
        # and one in the forked worker's (10-19)
        cfg = _failing_config(monkeypatch, bad_chunk, t_final=0.1)
        if bad_chunk is None:
            assert simulate_ensemble(cfg, threads=2).n_diverged == 0
        else:
            with pytest.raises(NumericalBlowup, match="^50/2000 trajectories diverged"):
                simulate_ensemble(cfg, threads=2)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_each_process_takes_an_equal_share(self, monkeypatch, threads):
        # 700 paths in chunks of 256: process k integrates paths
        # [700 k / threads, 700 (k + 1) / threads), and this process share 0
        monkeypatch.setattr("cqrt.sde.CHUNK_SIZE", 256)
        owners = np.frombuffer(mmap.mmap(-1, 8 * 700), dtype=np.int64)

        def recording(ens, lo, hi, launches):
            owners[lo:hi] = os.getpid()
            return _integrate_chunk(ens, lo, hi, launches)

        monkeypatch.setattr("cqrt.sde._integrate_chunk", recording)
        simulate_ensemble(_config(n_trajectories=700, record_mode="crossings_and_final"),
                          threads=threads)
        bounds = [700 * k // threads for k in range(threads + 1)]
        pids = [set(owners[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
        assert all(len(p) == 1 for p in pids) and len(set.union(*pids)) == threads
        assert pids[0] == {os.getpid()}

    def test_killed_worker_raises_promptly(self, monkeypatch):
        # the worker dies in its first piece; waiting for its results would
        # hang, and the alarm turns that into a failure
        caller = os.getpid()

        def dying(ens, lo, hi, launches):
            if os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return _integrate_chunk(ens, lo, hi, launches)

        def hung(signum, frame):
            raise AssertionError("simulate_ensemble still waits for a dead worker")

        monkeypatch.setattr("cqrt.sde._integrate_chunk", dying)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with pytest.raises(ChildProcessError, match="exited before its share was done"):
                simulate_ensemble(_config(n_trajectories=700), threads=2)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_zero_noise_rotation_invariance(self):
        # pure drift for n=0 is the rotation dz/dt = i z; the Euler step
        # multiplies |z| by exactly sqrt(1 + dt^2) each step
        dt = 1e-4
        z = 1 + 0j
        growth = math.sqrt(1 + dt * dt)
        expected = 1.0
        for step in range(10_000):
            z = _one_step(Eigenstate(0), step * dt, z, dt, 0.0)
            expected *= growth
        assert abs(z) == pytest.approx(expected, rel=1e-12)
        # |z| is constant up to the first-order integrator's O(dt) amplitude
        # error, about dt/2 per unit time (5e-5 here)
        assert abs(abs(z) - 1.0) < 1e-4

    def test_crossing_parity_same_side_paths(self):
        cfg = _config(model=Eigenstate(0), n_trajectories=300,
                      initial_points=(0.4 + 0.5j,), t_final=0.5)
        ens = simulate_ensemble(cfg)
        checked = 0
        for i in range(300):
            y_path = ens.y[:, i]
            if np.any(y_path == 0.0):
                continue
            if y_path[0] * y_path[-1] > 0:
                assert np.count_nonzero(ens.crossing_ids == i) % 2 == 0
                checked += 1
        assert checked > 100

    def test_crossings_bracketed_by_set_b_samples(self):
        cfg = _config(n_trajectories=100, t_final=0.3)
        ens = simulate_ensemble(cfg)
        dt = cfg.dt
        for t_c, x_c, i in zip(ens.crossing_times[:500], ens.crossing_x[:500],
                               ens.crossing_ids[:500]):
            if t_c == 0.0:
                continue  # an on-axis launch point has no bracketing pair
            j = int(math.floor(t_c / dt + 1e-12))
            j = min(j, len(ens.times) - 2)
            y0, y1 = ens.y[j, i], ens.y[j + 1, i]
            assert y0 * y1 <= 0.0
            step_size = abs((ens.x[j + 1, i] - ens.x[j, i]) + 1j * (y1 - y0))
            assert abs(ens.x[j, i] - x_c) <= step_size + 1e-12
            assert abs(ens.x[j + 1, i] - x_c) <= step_size + 1e-12

    def test_t_final_adjustment(self):
        cfg = _config(dt=0.03, t_final=1.0)
        assert cfg.n_steps == 33
        assert cfg.adjusted_t_final == pytest.approx(0.99)

    def test_integer_fields_are_integers(self):
        for bad in (dict(n_trajectories=2.5), dict(master_seed=1.5), dict(n_trajectories="3")):
            with pytest.raises(TypeError):
                _config(**bad)
        cfg = _config(n_trajectories=np.int64(3), master_seed=np.uint64(2**64 - 1))
        assert type(cfg.n_trajectories) is int and type(cfg.master_seed) is int
        assert cfg.master_seed == 2**64 - 1

    def test_thread_count_is_an_integer(self):
        cfg = _config(n_trajectories=4, t_final=0.05)
        for threads in ("2", 2.0):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                simulate_ensemble(cfg, threads=threads)
        ens = simulate_ensemble(cfg, threads=np.int64(2))
        _assert_same_bits([ens.final_x], [simulate_ensemble(cfg, threads=1).final_x])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            _config(dt=-0.01)
        with pytest.raises(ValueError):
            _config(n_trajectories=0)
        with pytest.raises(ValueError):
            _config(initial_points=())
        with pytest.raises(ValueError):
            _config(initial_points=(complex("inf"),))
        with pytest.raises(ValueError):
            _config(record_mode="sometimes")
        with pytest.raises(ValueError):
            _config(record_mode="snapshots", snapshot_times=())
        for bad in (dict(dt=math.nan), dict(dt=math.inf), dict(t_final=math.inf),
                    dict(t_final=math.nan)):
            with pytest.raises(ValueError, match="finite"):
                _config(**bad)


class TestCrossingInterpolation:
    def test_symmetric_crossing(self):
        x, frac = crossing_interpolation(0.5, 0.1, 0.7, -0.1)
        assert x == pytest.approx(0.6)
        assert frac == pytest.approx(0.5)

    def test_asymmetric_crossing(self):
        x, frac = crossing_interpolation(0.0, 0.3, 1.0, -0.1)
        assert frac == pytest.approx(0.75)
        assert x == pytest.approx(0.75)

    def test_crossing_x_between_endpoints(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=200)
        x1 = rng.normal(size=200)
        y0 = np.abs(rng.normal(size=200)) + 1e-6
        y1 = -np.abs(rng.normal(size=200)) - 1e-6
        x, frac = crossing_interpolation(x0, y0, x1, y1)
        assert np.all((frac > 0) & (frac < 1))
        assert np.all((x >= np.minimum(x0, x1) - 1e-12) & (x <= np.maximum(x0, x1) + 1e-12))


class TestGroundStateMomentOracle:
    """For n = 0 the Euler step is linear, z' = a z + NOISE_FACTOR xi sqrt(dt)
    with a = 1 + i dt, and NOISE_FACTOR**2 = -i, so m2 = E z**2 obeys the exact
    recursion m2 <- a**2 m2 - i dt from the Born launch value 1/2.  Its fixed
    point 1/(2 + i dt) leaves the continuum value 1/2 at O(dt).  The odd
    moments of xi vanish, so with NOISE_FACTOR**4 = -1 and the two-point
    increment's E xi**4 = 1, m4 = E z**4 obeys m4 <- a**4 m4 - 6i dt a**2 m2
    - dt**2 (the constant term is -E xi**4 dt**2) from the launch value 3/4.
    On one ensemble per dt, the means of z**2 and z**4 must match their chains
    within 4 standard errors per component.  At this N the Gaussian constant
    -3 dt**2 passes as well, so the test does not tell the two laws apart.
    """

    TIMES = (0.5, 1.0, 2.0)
    N = 40_000

    @pytest.fixture(scope="class", params=[0.01, 0.05])
    def run(self, request):
        dt = request.param
        launches = sample_eigenstate_positions(0, self.N, 7)
        return dt, simulate_ensemble(SimulationConfig(
            model=Eigenstate(0), dt=dt, t_final=max(self.TIMES), initial_points=tuple(launches),
            n_trajectories=self.N, master_seed=42, record_mode="snapshots",
            snapshot_times=self.TIMES))

    @staticmethod
    def _chain(dt, steps):
        """(E z**2, E z**4) after `steps` Euler steps from the Born launch."""
        a = 1.0 + 1j * dt
        m2, m4 = 0.5 + 0j, 0.75 + 0j
        for _ in range(steps):
            m2, m4 = a**2 * m2 - 1j * dt, a**4 * m4 - 6j * dt * a**2 * m2 - dt**2
        return m2, m4

    def _assert_moment(self, run, power, launch_value, weak_error):
        dt, ens = run
        for row, t in enumerate(self.TIMES):
            zk = (ens.x[row] + 1j * ens.y[row]) ** power
            expected = self._chain(dt, round(t / dt))[power // 2 - 1]
            assert abs(expected - launch_value) <= weak_error  # the chain's weak error is O(dt)
            for part in (np.real, np.imag):
                se = np.std(part(zk), ddof=1) / math.sqrt(self.N)
                assert abs(np.mean(part(zk)) - part(expected)) <= 4 * se, (t, part.__name__)

    def test_mean_z_squared_follows_recursion(self, run):
        dt, ens = run
        assert ens.n_diverged == 0
        self._assert_moment(run, 2, 0.5, dt)

    def test_mean_z_fourth_follows_recursion(self, run):
        self._assert_moment(run, 4, 0.75, 2 * run[0])

    def test_second_moments_follow_the_euler_chain(self, run):
        # set B's n = 0 points: the step is (x, y) <- M (x, y) + sigma xi
        # sqrt(dt) with M = [[1, -dt], [dt, 1]] and sigma = (-1, 1)/sqrt(2), so
        # C = E (x, y)(x, y)^T obeys C <- M C M^T + dt sigma sigma^T exactly,
        # from the Born launch's diag(1/2, 0); measured within 1.1 SE, and
        # 56-343 SE off with the drift's sign flipped
        dt, ens = run
        m = np.array([[1.0, -dt], [dt, 1.0]])
        sigma = np.array([-1.0, 1.0]) / math.sqrt(2.0)
        for row, t in enumerate(self.TIMES):
            cov = np.diag([0.5, 0.0])
            for _ in range(round(t / dt)):
                cov = m @ cov @ m.T + dt * np.outer(sigma, sigma)
            x, y = ens.x[row], ens.y[row]
            for (i, j), product in {(0, 0): x * x, (1, 1): y * y, (0, 1): x * y}.items():
                se = np.std(product, ddof=1) / math.sqrt(self.N)
                assert abs(np.mean(product) - cov[i, j]) <= 4 * se, (t, i, j)
