"""Log-derivatives and reference densities: spot values, an independent
high-precision differentiation oracle, normalization, and symmetry."""

import math

import numpy as np
import pytest

from cqrt import (
    Eigenstate,
    GaussianPacket,
    NearNode,
    classical_density,
    classical_density_binned,
    eigenstate_log_derivative,
    gaussian_log_derivative,
    hermite_ratio,
    hermite_real_roots,
    log_derivative,
    quantum_density_eigenstate,
    quantum_density_gaussian,
    sample_eigenstate_positions,
    turning_point,
)
from cqrt.hermite import hermite_ratio_masked
from cqrt.wavefield import log_derivative_masked


class TestEigenstateLogDerivative:
    def test_ground_state(self):
        assert eigenstate_log_derivative(0, 2 - 3j) == pytest.approx(-2 + 3j)

    def test_n1_at_i(self):
        # d/dz log(z e^{-z^2/2}) = 1/z - z = -2i at z = i
        assert eigenstate_log_derivative(1, 1j) == pytest.approx(-2j)

    def test_n2_at_one(self):
        # 8z/(4z^2-2) - z = 3 at z = 1
        assert eigenstate_log_derivative(2, 1 + 0j) == pytest.approx(3.0)

    def test_time_independent_dispatch(self):
        model = Eigenstate(3)
        z = 0.4 + 0.9j
        assert log_derivative(model, 0.0, z) == log_derivative(model, 5.0, z)

    def test_against_numerical_differentiation_oracle(self):
        # independent route: high-precision numerical derivative of
        # log(H_n(z)) - z^2/2 via mpmath, away from nodes
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 10:
            n = int(rng.integers(1, 21))
            z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            ratio, near = hermite_ratio_masked(n, z)
            scale_ok = abs(mp.hermite(n, mp.mpc(z))) > 1e-6 * abs(mp.hermite(n - 1, mp.mpc(z)))
            if near or not scale_ok:
                continue
            oracle = complex(
                mp.diff(lambda w: mp.log(mp.hermite(n, w)) - w * w / 2, mp.mpc(z))
            )
            ours = eigenstate_log_derivative(n, z)
            assert abs(ours - oracle) <= 1e-10 * max(abs(oracle), 1.0)
            checked += 1

    def test_raises_at_node(self):
        with pytest.raises(NearNode):
            eigenstate_log_derivative(1, 0j)


def _raising_wrappers(model, t):
    """Each public raising form of the model's drift, paired with the masked
    function whose values it must return."""
    def drift(z):
        return log_derivative_masked(model, t, z)

    pairs = [(lambda z: log_derivative(model, t, z), drift)]
    if isinstance(model, GaussianPacket):
        return pairs + [(lambda z: gaussian_log_derivative(model.p0, t, z, model.drift_form),
                         drift)]
    pairs.append((lambda z: eigenstate_log_derivative(model.n, z), drift))
    if model.n >= 1:
        pairs.append((lambda z: hermite_ratio(model.n, z),
                      lambda z: hermite_ratio_masked(model.n, z)))
    return pairs


@pytest.mark.parametrize("model", [Eigenstate(0), Eigenstate(1), Eigenstate(70),
                                   GaussianPacket(1.0, "exact"),
                                   GaussianPacket(1.0, "simplified")], ids=repr)
def test_raising_wrappers_return_masked_values(model):
    # away from nodes each wrapper is the masked drift bit for bit, for an
    # array, a list and a scalar; at the real zeros of H_n it raises NearNode
    t = 0.7
    rng = np.random.default_rng(3)
    z = rng.uniform(-4, 4, 64) + 1j * rng.uniform(0.5, 3, 64)
    for wrapper, masked in _raising_wrappers(model, t):
        values, near = masked(z)
        assert not near.any()
        np.testing.assert_array_equal(wrapper(z), values)
        np.testing.assert_array_equal(wrapper([complex(w) for w in z[:2]]), values[:2])
        scalar = wrapper(complex(z[0]))
        assert isinstance(scalar, complex)
        assert scalar == complex(masked(complex(z[0]))[0])
        roots = hermite_real_roots(getattr(model, "n", 0)) + 0j
        if roots.size:
            # the node rule: the masked value is 0 where the mask is set
            values, near = masked(roots)
            assert near.any() and np.all(values[near] == 0)
            with pytest.raises(NearNode):
                wrapper(roots)


def test_density_accepts_a_list():
    np.testing.assert_array_equal(quantum_density_eigenstate(2, [0.5, 1.0]),
                                  quantum_density_eigenstate(2, np.array([0.5, 1.0])))


class TestEigenstateModel:
    def test_quantum_number_limit(self):
        from cqrt.wavefield import MAX_QUANTUM_NUMBER

        assert MAX_QUANTUM_NUMBER == 70
        assert Eigenstate(70).n == 70
        for n in (71, -1):
            with pytest.raises(ValueError, match=r"\[0, 70\]"):
                Eigenstate(n)


class TestGaussianLogDerivative:
    def test_exact_at_origin(self):
        assert gaussian_log_derivative(1.0, 0.0, 0j, "exact") == pytest.approx(1j)

    def test_exact_reduces_to_ground_state(self):
        assert gaussian_log_derivative(0.0, 0.0, 1 + 0j, "exact") == pytest.approx(-1.0)
        rng = np.random.default_rng(2)
        z = rng.normal(size=50) + 1j * rng.normal(size=50)
        np.testing.assert_allclose(
            gaussian_log_derivative(0.0, 0.0, z, "exact"),
            eigenstate_log_derivative(0, z),
            rtol=0, atol=1e-15,
        )

    def test_simplified_vanishes_at_center(self):
        assert gaussian_log_derivative(1.0, 1.0, 1 + 0j, "simplified") == 0

    def test_bad_form_rejected(self):
        with pytest.raises(ValueError):
            GaussianPacket(1.0, "something")


class TestDensities:
    def test_node_of_psi1(self):
        assert quantum_density_eigenstate(1, 0.0) == 0.0

    def test_ground_state_peak(self):
        assert quantum_density_eigenstate(0, 0.0) == pytest.approx(1 / math.sqrt(math.pi))

    def test_n25_interior_zero_count(self):
        x = np.linspace(-8, 8, 20001)
        d = quantum_density_eigenstate(25, x)
        # count the dips: sign changes of psi, i.e. zeros of the density
        psi_signs = np.sign(d[1:] - d[:-1])
        minima = np.nonzero((d[1:-1] < d[:-2]) & (d[1:-1] < d[2:]) & (d[1:-1] < 1e-4))[0]
        assert len(minima) == 25
        assert psi_signs.size  # sanity: the sweep saw structure

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 10, 30, 50, 70])
    def test_quantum_normalization(self, n):
        a = turning_point(n)
        x = np.linspace(-(a + 5), a + 5, 300_001)
        integral = np.trapezoid(quantum_density_eigenstate(n, x), x)
        assert integral == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 10, 30, 50, 70])
    def test_parity(self, n):
        x = np.linspace(0.0, turning_point(n) + 3, 500)
        np.testing.assert_array_equal(
            quantum_density_eigenstate(n, x), quantum_density_eigenstate(n, -x)
        )

    def test_gaussian_values(self):
        assert quantum_density_gaussian(1.0, 0.0, 0.0) == pytest.approx(1 / math.sqrt(math.pi))
        assert quantum_density_gaussian(1.0, 1.0, 1.0) == pytest.approx(1 / math.sqrt(2 * math.pi))

    def test_gaussian_peak_at_center(self):
        for p0, t in ((1.0, 0.7), (-2.0, 2.0), (0.5, 3.0)):
            x = np.linspace(p0 * t - 6, p0 * t + 6, 4001)
            d = quantum_density_gaussian(p0, t, x)
            assert x[np.argmax(d)] == pytest.approx(p0 * t, abs=x[1] - x[0])

    def test_gaussian_normalization(self):
        x = np.linspace(-20, 30, 400_001)
        assert np.trapezoid(quantum_density_gaussian(1.0, 2.0, x), x) == pytest.approx(
            1.0, abs=1e-9
        )


class TestClassicalDensity:
    def test_ground_state_center(self):
        assert classical_density(0, 0.0) == pytest.approx(1 / math.pi)

    def test_zero_outside_support(self):
        assert classical_density(0, 1.5) == 0.0
        assert classical_density(3, -10.0) == 0.0

    def test_turning_point_amplitude(self):
        assert turning_point(25) == pytest.approx(math.sqrt(51))

    def test_normalization_by_antiderivative(self):
        # quadrature away from the edges plus the analytic edge masses
        a = turning_point(4)
        eps = 1e-4
        x = np.linspace(-a + eps, a - eps, 2_000_001)
        bulk = np.trapezoid(classical_density(4, x), x)
        edge = 2 * (0.5 - math.asin((a - eps) / a) / math.pi)
        assert bulk + edge == pytest.approx(1.0, abs=1e-6)

    def test_binned_edge_value_is_finite_bin_average(self):
        n = 25
        a = turning_point(n)
        width = 0.1
        # a bin centered exactly on the turning point: pointwise divergent,
        # binned value equals the analytic half-bin average
        edges = np.array([a - width / 2, a + width / 2])
        value = classical_density_binned(n, edges)[0]
        expected = (0.5 - math.asin((a - width / 2) / a) / math.pi) / width
        assert np.isfinite(value)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_binned_caps_only_singular_bins(self):
        n = 10
        edges = np.linspace(-6.58, 6.58, 101)
        binned = classical_density_binned(n, edges)
        centers = 0.5 * (edges[:-1] + edges[1:])
        pointwise = classical_density(n, centers)
        interior = np.abs(centers) < turning_point(n) - 0.5
        np.testing.assert_allclose(binned[interior], pointwise[interior], rtol=1e-12)
        assert np.all(binned <= np.maximum(pointwise, binned))
        assert np.all(np.isfinite(binned))

    def test_binned_total_mass(self):
        n = 30
        a = turning_point(n)
        edges = np.linspace(-(a + 2), a + 2, 101)
        binned = classical_density_binned(n, edges)
        # capping can only remove mass, and only near the two edges
        total = binned.sum() * (edges[1] - edges[0])
        assert 0.95 < total <= 1.0 + 1e-12


def test_born_sampler_matches_density():
    xs = sample_eigenstate_positions(2, 200_000, seed=9)
    hist, edges = np.histogram(xs, bins=80, range=(-4, 4), density=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    target = quantum_density_eigenstate(2, centers)
    assert np.max(np.abs(hist - target)) < 0.02
    # deterministic
    np.testing.assert_array_equal(xs[:10], sample_eigenstate_positions(2, 10, seed=9))
