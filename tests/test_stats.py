"""Extraction, histogramming, and Pearson comparison contracts."""

import dataclasses

import numpy as np
import pytest
from conftest import hermite_real_roots

from cqrt import (
    AllOutOfRange,
    DegenerateVariance,
    Eigenstate,
    EmptyResult,
    SimulationConfig,
    TimeNotRecorded,
    build_density,
    classical_reference,
    eigenstate_bin_range,
    eigenstate_reference,
    extract_point_set_a,
    extract_point_set_b,
    gaussian_bin_range,
    gaussian_reference,
    pearson,
    quantum_density_eigenstate,
    simulate_ensemble,
    snapshot_positions,
)
from cqrt.stats import EmpiricalDensity, Reference, correlation


def _ensemble(**kw):
    base = dict(model=Eigenstate(1), dt=0.01, t_final=1.0,
                initial_points=(0.95 + 0j, -0.95 + 0j), n_trajectories=500,
                master_seed=42, record_mode="full_path")
    base.update(kw)
    return simulate_ensemble(SimulationConfig(**base))


class TestPointSetA:
    def test_on_axis_launch_points_emitted_once(self):
        ens = _ensemble(model=Eigenstate(0), n_trajectories=5,
                        initial_points=(0.3 + 0j,), t_final=0.2)
        at_zero = ens.crossing_times == 0.0
        assert np.count_nonzero(at_zero) == 5
        np.testing.assert_allclose(ens.crossing_x[at_zero], 0.3)

    def test_window_filtering(self):
        ens = _ensemble()
        full = extract_point_set_a(ens)
        late = extract_point_set_a(ens, window=(0.5, 1.0))
        assert late.size < full.size
        assert late.size > 0

    def test_window_ends_within_1e12(self):
        ens = dataclasses.replace(
            _ensemble(n_trajectories=2, t_final=0.1),
            crossing_times=np.array([0.4 - 2e-12, 0.4 - 0.5e-12, 0.7, 1.0 + 0.5e-12,
                                     1.0 + 2e-12]),
            crossing_x=np.arange(5.0))
        np.testing.assert_array_equal(extract_point_set_a(ens, window=(0.4, 1.0)),
                                      [1.0, 2.0, 3.0])

    def test_empty_window_raises(self):
        ens = _ensemble(model=Eigenstate(0), n_trajectories=3,
                        initial_points=(0.2 + 2.5j,), t_final=0.1)
        # far from the axis, a few near-deterministic steps never cross
        with pytest.raises(EmptyResult):
            extract_point_set_a(ens, window=(0.09, 0.1))

    def test_crossings_lie_between_bracketing_reals(self):
        ens = _ensemble(n_trajectories=50, t_final=0.3)
        xs = extract_point_set_a(ens)
        assert np.all(np.isfinite(xs))


class TestPointSetB:
    def test_counts(self):
        ens = _ensemble(n_trajectories=7, t_final=0.1)
        xs = extract_point_set_b(ens)
        assert xs.size == 7 * 11  # 10 steps + the initial record

    def test_window_endpoint_inclusive(self):
        ens = _ensemble(n_trajectories=3, t_final=1.0)
        xs = extract_point_set_b(ens, window=(0.0, 1.0))
        assert xs.size == 3 * 101  # the t = 1.0 row is included despite rounding

    def test_point_window_picks_the_grid_time(self):
        ens = _ensemble(n_trajectories=4, dt=0.1, t_final=0.5)
        assert ens.times[3] == 3 * 0.1 != 0.3
        np.testing.assert_array_equal(extract_point_set_b(ens, window=(0.3, 0.3)), ens.x[3])
        np.testing.assert_array_equal(snapshot_positions(ens, 0.3), ens.x[3])

    def test_requires_paths(self):
        ens = _ensemble(record_mode="crossings_and_final")
        with pytest.raises(ValueError):
            extract_point_set_b(ens)

    def test_node_location_present_without_crossing(self):
        # a dwelling path at (0, y) projects x=0 into set B though set A
        # records nothing there; verified statistically: the node bin of an
        # n=1 run carries clearly nonzero projection density
        ens = _ensemble(n_trajectories=20_000)
        xs = extract_point_set_b(ens)
        density = build_density(xs, 100, eigenstate_bin_range(1))
        node_bin = np.searchsorted(density.bin_edges, 0.0) - 1
        assert density.densities[node_bin] > 0.04
        assert quantum_density_eigenstate(1, 0.0) == 0.0

    def test_merge_order_invariance(self):
        cfg = dict(model=Eigenstate(1), dt=0.01, t_final=0.5,
                   initial_points=(0.95 + 0j,), n_trajectories=9000,
                   master_seed=7, record_mode="full_path")
        e1 = simulate_ensemble(SimulationConfig(**cfg), threads=1)
        e3 = simulate_ensemble(SimulationConfig(**cfg), threads=3)
        np.testing.assert_array_equal(np.sort(extract_point_set_a(e1)),
                                      np.sort(extract_point_set_a(e3)))


class TestSnapshots:
    def test_all_launched_at_origin(self):
        ens = _ensemble(model=Eigenstate(0), initial_points=(0j,), n_trajectories=20,
                        record_mode="snapshots", snapshot_times=(0.0, 1.0))
        np.testing.assert_array_equal(snapshot_positions(ens, 0.0), np.zeros(20))

    def test_unrecorded_time_raises(self):
        ens = _ensemble(record_mode="snapshots", snapshot_times=(1.0,))
        with pytest.raises(TimeNotRecorded):
            snapshot_positions(ens, 0.37)

    def test_packet_center_tracks_p0_t(self):
        from cqrt import GaussianPacket

        ens = _ensemble(model=GaussianPacket(1.0), initial_points=(0j,),
                        n_trajectories=20_000, record_mode="snapshots",
                        snapshot_times=(1.0,))
        xs = snapshot_positions(ens, 1.0)
        assert xs.mean() == pytest.approx(1.0, abs=3 * 1.2 / np.sqrt(xs.size))


class TestBuildDensity:
    def test_single_sample(self):
        density = build_density([0.5], bins=2, range=(0.0, 1.0))
        np.testing.assert_allclose(density.densities, [0.0, 2.0])
        assert density.sample_count == 1

    def test_normal_peak(self):
        rng = np.random.default_rng(0)
        density = build_density(rng.normal(size=1_000_000), 100, (-5, 5))
        assert density.densities.max() == pytest.approx(0.3989, abs=0.01)

    def test_duplication_invariance(self):
        samples = np.array([0.1, 0.4, 0.4, 0.9])
        d1 = build_density(samples, 4, (0, 1))
        d2 = build_density(np.tile(samples, 2), 4, (0, 1))
        np.testing.assert_array_equal(d1.densities, d2.densities)

    def test_out_of_range_excluded_not_clamped(self):
        density = build_density([0.5, 0.6, 12.0, -3.0], 2, (0.0, 1.0))
        assert density.out_of_range == 2
        assert density.sample_count == 2
        assert density.densities.sum() * density.bin_width == pytest.approx(1.0)

    def test_all_out_of_range(self):
        with pytest.raises(AllOutOfRange):
            build_density([5.0, 6.0], 4, (0.0, 1.0))

    def test_normalization_invariant(self):
        rng = np.random.default_rng(3)
        density = build_density(rng.normal(size=5000), 37, (-4, 4))
        assert abs(np.sum(density.densities) * density.bin_width - 1.0) < 1e-12

    def test_stderr_shape_and_scale(self):
        rng = np.random.default_rng(3)
        density = build_density(rng.normal(size=10_000), 50, (-4, 4))
        assert density.stderr.shape == density.densities.shape
        # error must shrink with more samples
        bigger = build_density(rng.normal(size=100_000), 50, (-4, 4))
        assert bigger.stderr.max() < density.stderr.max()


class TestPearson:
    def test_self_correlation_is_one(self):
        edges = np.linspace(-3, 3, 41)
        reference = eigenstate_reference(2)
        values = reference.evaluate(edges)
        width = edges[1] - edges[0]
        density = EmpiricalDensity(edges, values / (values.sum() * width), 100)
        report = pearson(density, reference)
        assert report.gamma == pytest.approx(1.0, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        edges = np.linspace(0, 1, 21)
        raw = rng.random(20) + 0.1
        width = edges[1] - edges[0]
        density = EmpiricalDensity(edges, raw / (raw.sum() * width), 50)
        base = pearson(density, Reference("f", lambda x: np.sin(x) + 2)).gamma
        scaled = pearson(density, Reference("g", lambda x: 3.7 * (np.sin(x) + 2) + 11)).gamma
        assert scaled == pytest.approx(base, abs=1e-12)

    def test_degenerate_variance(self):
        edges = np.linspace(0, 1, 11)
        density = EmpiricalDensity(edges, np.full(10, 1.0), 10)
        with pytest.raises(DegenerateVariance):
            pearson(density, Reference("const", lambda x: np.ones_like(x)))
        # pearson's core alone, with either vector constant
        for u, v in ((np.zeros(5), np.arange(5.0)), (np.arange(5.0), np.ones(5))):
            with pytest.raises(DegenerateVariance):
                correlation(u, v)

    def test_classical_reference_uses_binned_rule(self):
        ref = classical_reference(25)
        edges = np.linspace(-9.14, 9.14, 101)
        values = ref.evaluate(edges)
        assert np.all(np.isfinite(values))
        assert values.max() < 1.0  # the raw density diverges; binned stays tame

    def test_report_fields(self):
        density = build_density(np.random.default_rng(1).normal(size=2000), 30, (-4, 4))
        report = pearson(density, Reference("gauss", lambda x: np.exp(-x * x / 2)))
        assert -1.0 <= report.gamma <= 1.0
        assert report.bins == 30
        assert report.sample_count == density.sample_count
        assert report.reference_name == "gauss"


class TestDefaultRanges:
    def test_eigenstate_range(self):
        lo, hi = eigenstate_bin_range(4)
        assert hi == pytest.approx(3.0 + 2.0)
        assert lo == -hi

    def test_eigenstate_range_and_classical_reference_take_eigenstate_n(self):
        edges = np.linspace(-1.0, 1.0, 5)
        for n in (-1, 71):
            with pytest.raises(ValueError, match=r"\[0, 70\]"):
                eigenstate_bin_range(n)
            with pytest.raises(ValueError, match=r"\[0, 70\]"):
                classical_reference(n).evaluate(edges)

    @pytest.mark.parametrize("make", [eigenstate_reference, classical_reference])
    @pytest.mark.parametrize("n", [-1, 71])
    def test_references_reject_n_when_built(self, make, n):
        # before any density is evaluated
        with pytest.raises(ValueError, match=r"\[0, 70\]"):
            make(n)

    @pytest.mark.parametrize("p0, t, name", [(float("nan"), 1.0, "p0"), (1.0, float("inf"), "t"),
                                             (float("-inf"), 0.5, "p0")])
    def test_gaussian_reference_rejects_non_finite_parameters_when_built(self, p0, t, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            gaussian_reference(p0, t)

    def test_gaussian_range(self):
        lo, hi = gaussian_bin_range(1.0, 1.0)
        assert (lo + hi) / 2 == pytest.approx(1.0)
        assert hi - lo == pytest.approx(10.0)


def test_node_gap_property_small_scale():
    """Set-B density stays clearly positive in the node bins while the quantum
    density vanishes there exactly (statistical miniature of the full check)."""
    ens = _ensemble(model=Eigenstate(2), n_trajectories=10_000,
                    initial_points=(1.45 + 0j, -1.45 + 0j, 0j))
    xs = extract_point_set_b(ens)
    density = build_density(xs, 100, eigenstate_bin_range(2))
    for root in hermite_real_roots(2):
        node_bin = np.searchsorted(density.bin_edges, root) - 1
        assert density.densities[node_bin] > 0.03
