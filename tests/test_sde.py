"""Integrator contracts: the noise convention, step examples, the split/complex
identity, one-step moments, reproducibility, and divergence accounting."""

import math

import numpy as np
import pytest
from scipy.special import ndtri

from cqrt import (
    NOISE_FACTOR,
    Eigenstate,
    GaussianPacket,
    NumericalBlowup,
    SimulationConfig,
    crossing_interpolation,
    derive_seed,
    em_step,
    noise_increment,
    sample_eigenstate_positions,
    simulate_ensemble,
    simulate_trajectory,
    split_step,
    standard_normals,
)
from cqrt.sde import CHUNK_SIZE, NoiseStreams, derive_seeds
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

    def test_cap_limits_displacement(self):
        # close to the psi_1 node the raw drift displacement would be huge
        z = 1e-9 + 0j
        out = em_step(Eigenstate(1), 0.0, z, 0.01, 0.0, drift_cap=10.0)
        assert abs(out - z) <= 10.0 * math.sqrt(0.01) * (1 + 1e-12)

    def test_near_node_without_direction_is_pure_noise(self):
        out = em_step(Eigenstate(1), 0.0, 0j, 0.01, 1.0)
        assert out == noise_increment(1.0, 0.01)

    def test_near_node_uses_fallback_direction(self):
        out = em_step(Eigenstate(1), 0.0, 0j, 0.01, 0.0, fallback_direction=1 + 0j)
        assert out == pytest.approx(10.0 * math.sqrt(0.01))


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
        xi = standard_normals(123, 0, n_draws)
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
        a = standard_normals(42, 7, 100)
        b = standard_normals(42, 7, 100)
        np.testing.assert_array_equal(a, b)
        c = standard_normals(42, 8, 100)
        assert not np.array_equal(a, c)

    def test_normals_standard(self):
        xs = standard_normals(1, 0, 2_000_000)
        assert abs(xs.mean()) < 3e-3
        assert xs.std() == pytest.approx(1.0, abs=2e-3)
        assert np.all(np.isfinite(xs))


def _reference_ints(seed, count):
    """numpy's own 53-bit draws from PCG64(seed): the noise contract."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.integers(0, 1 << 53, size=count, dtype=np.uint64)


def _reference_normals(seed, count):
    return ndtri((_reference_ints(seed, count).astype(np.float64) + 0.5) * 2.0**-53)


class TestNoiseStreams:
    """The chunk-wide streams must equal numpy's PCG64 streams bit for bit."""

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
        assert standard_normals(42, 0, 3).tolist() == [
            0.35122397532964306, -0.4227869889286977, 1.3663390217836842]

    @pytest.mark.parametrize("master_seed", [0, 42, 123_456_789, 2**64 - 1])
    def test_trajectory_streams_match_numpy(self, master_seed):
        indices = np.array([0, 1, 2, 1000, CHUNK_SIZE - 1, CHUNK_SIZE, 99_999])
        count = 300
        streams = NoiseStreams(derive_seeds(master_seed, indices))
        drawn = np.array([streams.normals() for _ in range(count)])
        for col, index in enumerate(indices):
            seed = derive_seed(master_seed, int(index))
            np.testing.assert_array_equal(drawn[:, col], _reference_normals(seed, count))
            np.testing.assert_array_equal(drawn[:, col],
                                          standard_normals(master_seed, int(index), count))

    def test_raw_seeds_match_numpy(self):
        # 0 .. 2**32 - 1 are one SeedSequence entropy word, larger seeds two
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]
        count = 64
        streams = NoiseStreams(np.array(seeds, dtype=np.uint64))
        bits = np.array([streams.raw() for _ in range(count)])
        for col, seed in enumerate(seeds):
            np.testing.assert_array_equal(bits[:, col] >> np.uint64(11),
                                          _reference_ints(seed, count))
            np.testing.assert_array_equal(bits[:, col],
                                          np.random.PCG64(seed).random_raw(count))

    def test_chunk_boundary_keeps_streams(self):
        n = CHUNK_SIZE + 3
        cfg = _config(n_trajectories=n, t_final=0.05)
        ens = simulate_ensemble(cfg)
        for index in (0, CHUNK_SIZE - 1, CHUNK_SIZE, n - 1):
            traj = simulate_trajectory(cfg, index)
            np.testing.assert_array_equal(traj.points, ens.trajectory(index).points)
            np.testing.assert_array_equal(traj.crossings, ens.trajectory(index).crossings)
            # the same path stepped by em_step on the per-path reference stream
            z = cfg.initial_points[index % 2]
            for j, xi in enumerate(standard_normals(cfg.master_seed, index, cfg.n_steps)):
                z = em_step(cfg.model, j * cfg.dt, z, cfg.dt, xi)
                assert z == ens.trajectory(index).points[j + 1]


def _config(**kw):
    base = dict(model=Eigenstate(1), dt=0.01, t_final=1.0,
                initial_points=(0.95 + 0j, -0.95 + 0j), n_trajectories=300,
                master_seed=42, record_mode="full_path")
    base.update(kw)
    return SimulationConfig(**base)


class TestSimulate:
    def test_recorded_point_count(self):
        traj = simulate_trajectory(_config(n_trajectories=1, initial_points=(0.5 + 0.5j,)), 0)
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
        cfg = _config(n_trajectories=20_000)
        serial = simulate_ensemble(cfg, threads=1)
        threaded = simulate_ensemble(cfg, threads=4)
        np.testing.assert_array_equal(serial.x, threaded.x)
        np.testing.assert_array_equal(serial.crossing_x, threaded.crossing_x)
        np.testing.assert_array_equal(serial.crossing_times, threaded.crossing_times)

    def test_single_trajectory_matches_ensemble_slice(self):
        for mode in ("full_path", "crossings_and_final", "snapshots"):
            cfg = _config(n_trajectories=50, record_mode=mode, snapshot_times=(0.25, 1.0))
            ens = simulate_ensemble(cfg)
            for index in (0, 13, 49):
                traj = simulate_trajectory(cfg, index)
                view = ens.trajectory(index)
                assert traj.id == view.id == index
                np.testing.assert_array_equal(traj.times, view.times)
                np.testing.assert_array_equal(traj.points, view.points)
                np.testing.assert_array_equal(traj.crossings, view.crossings)
                assert view.points[-1] == complex(ens.final_x[index], ens.final_y[index])
            expected_times = {"full_path": cfg.record_times, "snapshots": [0.25, 1.0],
                              "crossings_and_final": [cfg.adjusted_t_final]}[mode]
            np.testing.assert_array_equal(view.times, expected_times)

    @pytest.mark.parametrize("index", [-1, 50])
    def test_index_outside_ensemble_rejected(self, index):
        cfg = _config(n_trajectories=50, t_final=0.1)
        with pytest.raises(ValueError, match="outside"):
            simulate_trajectory(cfg, index)
        with pytest.raises(ValueError, match="outside"):
            simulate_ensemble(cfg).trajectory(index)

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
            simulate_trajectory(cfg, 0)

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
        ens = simulate_ensemble(cfg)
        assert ens.n_diverged == 1
        assert not ens.alive[0]
        assert not np.any(ens.crossing_ids == 0)
        np.testing.assert_array_equal(ens.alive[1:], clean.alive[1:])

    def test_capped_steps_reported(self):
        # trajectories forced through the node region get capped at least once
        cfg = _config(model=Eigenstate(1), n_trajectories=2000, t_final=0.5,
                      initial_points=(0.02 + 0j, -0.02 + 0j))
        ens = simulate_ensemble(cfg)
        assert ens.capped_steps > 0

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
        cap_step = cfg.drift_cap * math.sqrt(dt)
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
        for bad in (dict(dt=math.nan), dict(t_final=math.inf), dict(t_final=math.nan),
                    dict(drift_cap=math.nan), dict(drift_cap=math.inf), dict(drift_cap=0.0)):
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
    """For n = 0 the Euler step is linear, z' = (1 + i dt) z + NOISE_FACTOR xi
    sqrt(dt), and NOISE_FACTOR**2 = -i, so m = E z**2 obeys the exact recursion
    m <- (1 + i dt)**2 m - i dt from the Born launch value m_0 = 1/2.  Its fixed
    point 1/(2 + i dt) leaves the continuum value 1/2 at O(dt).  The ensemble
    mean of z**2 must match the recursion within 4 standard errors per
    component.
    """

    TIMES = (0.5, 1.0, 2.0)

    @staticmethod
    def _recursion(dt, steps):
        m = 0.5 + 0j
        for _ in range(steps):
            m = (1.0 + 1j * dt) ** 2 * m - 1j * dt
        return m

    @pytest.mark.parametrize("dt", [0.01, 0.05])
    def test_mean_z_squared_follows_recursion(self, dt):
        n = 40_000
        launches = sample_eigenstate_positions(0, n, 7)
        ens = simulate_ensemble(SimulationConfig(
            model=Eigenstate(0), dt=dt, t_final=max(self.TIMES), initial_points=tuple(launches),
            n_trajectories=n, master_seed=42, record_mode="snapshots",
            snapshot_times=self.TIMES))
        assert ens.capped_steps == 0
        assert ens.n_diverged == 0
        for row, t in enumerate(self.TIMES):
            z2 = (ens.x[row] + 1j * ens.y[row]) ** 2
            expected = self._recursion(dt, round(t / dt))
            assert abs(expected - 0.5) <= dt  # the chain's weak error is O(dt)
            for part in (np.real, np.imag):
                se = np.std(part(z2), ddof=1) / math.sqrt(n)
                assert abs(np.mean(part(z2)) - part(expected)) <= 4 * se, (t, part.__name__)
