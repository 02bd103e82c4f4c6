"""Integrator contracts: the noise convention, step examples, the split/complex
identity, one-step moments, reproducibility, and divergence accounting."""

import math
import re
import sys

import numpy as np
import pytest

from cqrt import (
    NOISE_FACTOR,
    Eigenstate,
    GaussianPacket,
    NumericalBlowup,
    SimulationConfig,
    crossing_interpolation,
    derive_seed,
    em_step,
    hermite_real_roots,
    noise_increment,
    sample_eigenstate_positions,
    simulate_ensemble,
    split_step,
    standard_normals,
)
from cqrt.hermite import hermite_ratio_masked
from cqrt.sde import (
    BLOWUP_THRESHOLD,
    CHUNK_SIZE,
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


class TestEmStep:
    def test_ground_state_pure_drift(self):
        assert em_step(Eigenstate(0), 0.0, 1 + 0j, 0.01, 0.0) == pytest.approx(1 + 0.01j)

    def test_n1_at_i(self):
        # drift = -i*(1/z - z) = -2 at z = i
        assert em_step(Eigenstate(1), 0.0, 1j, 0.01, 0.0) == pytest.approx(-0.02 + 1j)

    def test_zero_noise_is_deterministic_step(self):
        model = GaussianPacket(1.0)
        z = 0.3 + 0.1j
        a = em_step(model, 0.5, z, 0.01, 0.0)
        b = em_step(model, 0.5, z, 0.01, 0.0)
        assert a == b

    def test_drift_displacement_is_exact(self):
        # 1e-3 off the psi_1 node the drift displacement -i g dt is about 10,
        # and the step takes all of it
        z = 1e-3 + 0j
        g = log_derivative_masked(Eigenstate(1), 0.0, z)[0]
        out = em_step(Eigenstate(1), 0.0, z, 0.01, 0.0)
        assert out == complex(z + -1j * g * 0.01)
        assert abs(out - z) > 9.9

    def test_near_node_without_direction_is_pure_noise(self):
        out = em_step(Eigenstate(1), 0.0, 0j, 0.01, 1.0)
        assert out == noise_increment(1.0, 0.01)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
    def test_bad_step_rejected(self, dt):
        # a NaN dt would give a NaN step and a negative one no sqrt(dt)
        with pytest.raises(ValueError, match="^dt must be finite and > 0"):
            em_step(Eigenstate(1), 0.0, 1j, dt, 0.0)
        with pytest.raises(ValueError, match="^dt must be finite and > 0"):
            split_step(Eigenstate(1), 0.0, 0.0, 1.0, dt, 0.0)

    def test_zero_drift_at_node(self):
        # a node's drift displacement is 0, so with no noise the step stays put
        assert em_step(Eigenstate(1), 0.0, 0j, 0.01, 0.0) == 0j
        root = complex(hermite_real_roots(2)[1])
        assert em_step(Eigenstate(2), 0.0, root, 0.01, 0.0) == root


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

    @pytest.mark.parametrize("model", [Eigenstate(1), Eigenstate(70), GaussianPacket(1.0)])
    def test_em_step_on_scalar_zero_d_and_list_input(self, model):
        z = _kernel_points(70)[::400]
        xi = np.linspace(-2.0, 2.0, z.size)
        for zi, x in zip(z, xi):
            old = _frozen_step(model, 0.2, np.asarray(zi), 0.01, np.asarray(x))[0]
            _assert_same_bits([em_step(model, 0.2, np.asarray(zi), 0.01, np.asarray(x))], [old])
            assert em_step(model, 0.2, complex(zi), 0.01, float(x)) == complex(old)
        old = _frozen_step(model, 0.2, z, 0.01, xi)[0]
        _assert_same_bits([em_step(model, 0.2, z.tolist(), 0.01, xi.tolist())], [old])
        # one point broadcast against many draws
        old = _frozen_step(model, 0.2, np.asarray(z[1]), 0.01, xi)[0]
        _assert_same_bits([em_step(model, 0.2, z[1], 0.01, xi)], [old])

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
            z = em_step(model, 0.3, x + 1j * y, 0.01, xi)
            sx, sy = split_step(model, 0.3, x, y, 0.01, xi)
            np.testing.assert_array_equal(z.real, sx)
            np.testing.assert_array_equal(z.imag, sy)

    def test_noise_components_anticorrelated(self):
        sx0, sy0 = split_step(Eigenstate(0), 0.0, 0.5, 0.0, 0.01, 0.0)
        sx1, sy1 = split_step(Eigenstate(0), 0.0, 0.5, 0.0, 0.01, 1.3)
        dx_noise = sx1 - sx0
        dy_noise = sy1 - sy0
        assert dx_noise == pytest.approx(-dy_noise)
        assert dx_noise == pytest.approx(-1.3 * math.sqrt(0.01) / math.sqrt(2))


class TestOneStepMoments:
    def test_mean_and_variance(self):
        model = Eigenstate(2)
        z = 0.7 + 0.3j
        dt = 0.01
        n_draws = 1_000_000
        xi = standard_normals(derive_seed(123, 0), np.arange(n_draws))
        out = em_step(model, 0.0, np.full(n_draws, z), dt, xi)
        delta = out - z
        from cqrt import eigenstate_log_derivative

        drift = -1j * eigenstate_log_derivative(2, z) * dt
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
            # the same path stepped by em_step on the per-path reference
            # stream, with its axis points by the crossing rule
            z = cfg.initial_points[index % 2]
            crossings = [[0.0, z.real]] if z.imag == 0.0 else []
            xis = standard_normals(derive_seed(cfg.master_seed, index), np.arange(cfg.n_steps))
            for j, xi in enumerate(xis):
                z_prev, z = z, em_step(cfg.model, j * cfg.dt, z, cfg.dt, xi)
                assert z == view.points[j + 1]
                if z_prev.imag != 0.0 and np.sign(z_prev.imag) * z.imag <= 0.0:
                    x, frac = crossing_interpolation(z_prev.real, z_prev.imag, z.real, z.imag)
                    crossings.append([j * cfg.dt + cfg.dt * frac, x])
            assert view.crossings.tolist() == crossings


def _config(**kw):
    base = dict(model=Eigenstate(1), dt=0.01, t_final=1.0,
                initial_points=(0.95 + 0j, -0.95 + 0j), n_trajectories=300,
                master_seed=42, record_mode="full_path")
    base.update(kw)
    return SimulationConfig(**base)


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
        # three chunks on four threads write disjoint columns of one Ensemble;
        # a short switch interval interleaves them as often as it can
        cfg = _config(n_trajectories=20_000)
        serial = simulate_ensemble(cfg, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = simulate_ensemble(cfg, threads=4)
        finally:
            sys.setswitchinterval(interval)
        for name in ("x", "y", "crossing_times", "crossing_x", "crossing_ids",
                     "final_x", "final_y", "alive", "near_node_steps"):
            np.testing.assert_array_equal(getattr(serial, name), getattr(threaded, name))

    def test_negative_thread_count_rejected(self, monkeypatch):
        def integrate(*args):
            raise AssertionError("integrated before the thread count check")

        monkeypatch.setattr("cqrt.sde._integrate_chunk", integrate)
        with pytest.raises(ValueError, match="threads must be >= 0"):
            simulate_ensemble(_config(), threads=-3)

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

    def test_zero_noise_rotation_invariance(self):
        # pure drift for n=0 is the rotation dz/dt = i z; the Euler step
        # multiplies |z| by exactly sqrt(1 + dt^2) each step
        dt = 1e-4
        z = 1 + 0j
        growth = math.sqrt(1 + dt * dt)
        expected = 1.0
        for step in range(10_000):
            z = em_step(Eigenstate(0), step * dt, z, dt, 0.0)
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
