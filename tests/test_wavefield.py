"""Log-derivatives and reference densities: spot values, an independent
high-precision differentiation oracle, normalization, and symmetry."""

import math

import numpy as np
import pytest
from conftest import hermite_real_roots

from cqrt import (
    Eigenstate,
    GaussianPacket,
    NearNode,
    classical_density,
    classical_density_binned,
    log_derivative,
    quantum_density_eigenstate,
    quantum_density_gaussian,
    sample_eigenstate_positions,
    turning_point,
)
from cqrt import wavefield
from cqrt.hermite import hermite_ratio_masked
from cqrt.wavefield import log_derivative_masked


class TestEigenstateLogDerivative:
    def test_ground_state(self):
        assert log_derivative(Eigenstate(0), 0.0, 2 - 3j) == pytest.approx(-2 + 3j)

    def test_n1_at_i(self):
        # d/dz log(z e^{-z^2/2}) = 1/z - z = -2i at z = i
        assert log_derivative(Eigenstate(1), 0.0, 1j) == pytest.approx(-2j)

    def test_n2_at_one(self):
        # 8z/(4z^2-2) - z = 3 at z = 1
        assert log_derivative(Eigenstate(2), 0.0, 1 + 0j) == pytest.approx(3.0)

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
            ours = log_derivative(Eigenstate(n), 0.0, z)
            assert abs(ours - oracle) <= 1e-10 * max(abs(oracle), 1.0)
            checked += 1

    def test_raises_at_node(self):
        with pytest.raises(NearNode):
            log_derivative(Eigenstate(1), 0.0, 0j)


@pytest.mark.parametrize("model", [Eigenstate(0), Eigenstate(1), Eigenstate(70),
                                   GaussianPacket(1.0, "exact"),
                                   GaussianPacket(1.0, "simplified")], ids=repr)
def test_raising_wrappers_return_masked_values(model):
    # away from nodes log_derivative is the masked drift bit for bit, for an
    # array, a list and a scalar; at the real zeros of H_n it raises NearNode
    t = 0.7
    rng = np.random.default_rng(3)
    z = rng.uniform(-4, 4, 64) + 1j * rng.uniform(0.5, 3, 64)
    values, near = log_derivative_masked(model, t, z)
    assert not near.any()
    np.testing.assert_array_equal(log_derivative(model, t, z), values)
    np.testing.assert_array_equal(log_derivative(model, t, [complex(w) for w in z[:2]]),
                                  values[:2])
    scalar = log_derivative(model, t, complex(z[0]))
    assert isinstance(scalar, complex)
    assert scalar == complex(log_derivative_masked(model, t, complex(z[0]))[0])
    roots = hermite_real_roots(getattr(model, "n", 0)) + 0j
    if roots.size:
        # the node rule: the masked value is 0 where the mask is set
        values, near = log_derivative_masked(model, t, roots)
        assert near.any() and np.all(values[near] == 0)
        with pytest.raises(NearNode):
            log_derivative(model, t, roots)


def test_density_accepts_a_list():
    np.testing.assert_array_equal(quantum_density_eigenstate(2, [0.5, 1.0]),
                                  quantum_density_eigenstate(2, np.array([0.5, 1.0])))


class TestEigenstateModel:
    def test_quantum_number_limit(self):
        from cqrt.wavefield import MAX_QUANTUM_NUMBER

        assert MAX_QUANTUM_NUMBER == 70
        assert Eigenstate(70).n == 70
        # the public helpers of an eigenstate take the same quantum numbers
        for make in (Eigenstate, turning_point, lambda n: quantum_density_eigenstate(n, 0.3),
                     lambda n: sample_eigenstate_positions(n, 5, 1),
                     lambda n: classical_density(n, 0.0),
                     lambda n: classical_density_binned(n, np.linspace(-1.0, 1.0, 5))):
            for n in (71, -1):
                with pytest.raises(ValueError, match=r"\[0, 70\]"):
                    make(n)

    def test_quantum_number_is_an_integer(self):
        # 1.5 would stop the recurrence at H_1 and scale the drift by 2 * 1.5
        for make in (Eigenstate, turning_point):
            with pytest.raises(TypeError):
                make(1.5)
        assert Eigenstate(np.int64(3)) == Eigenstate(3)
        assert type(Eigenstate(np.int64(3)).n) is int


class TestGaussianLogDerivative:
    def test_exact_at_origin(self):
        assert log_derivative(GaussianPacket(1.0, "exact"), 0.0, 0j) == pytest.approx(1j)

    def test_exact_reduces_to_ground_state(self):
        assert log_derivative(GaussianPacket(0.0, "exact"), 0.0, 1 + 0j) == pytest.approx(-1.0)
        rng = np.random.default_rng(2)
        z = rng.normal(size=50) + 1j * rng.normal(size=50)
        np.testing.assert_allclose(
            log_derivative(GaussianPacket(0.0, "exact"), 0.0, z),
            log_derivative(Eigenstate(0), 0.0, z),
            rtol=0, atol=1e-15,
        )

    def test_simplified_vanishes_at_center(self):
        assert log_derivative(GaussianPacket(1.0, "simplified"), 1.0, 1 + 0j) == 0

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

    @pytest.mark.parametrize("p0, t, name", [(float("nan"), 1.0, "p0"), (0.0, float("inf"), "t"),
                                             (1.0, float("nan"), "t")])
    def test_gaussian_rejects_non_finite_parameters(self, p0, t, name):
        # the parameter is named before any arithmetic can warn
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            quantum_density_gaussian(p0, t, np.zeros(3))

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


def _whole_array_psi(n, x):
    """_normalized_psi as first written: the recurrence once over the whole
    array.  The blocked recurrence must agree with it byte for byte."""
    x = np.asarray(x, dtype=float)
    psi_prev = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n == 0:
        return psi_prev
    psi_cur = math.sqrt(2.0) * x * psi_prev
    for k in range(1, n):
        psi_prev, psi_cur = psi_cur, (
            math.sqrt(2.0 / (k + 1)) * x * psi_cur - math.sqrt(k / (k + 1.0)) * psi_prev
        )
    return psi_cur


class TestBlockedPsi:
    N = pytest.mark.parametrize("n", [0, 1, 2, 70])

    @N
    @pytest.mark.parametrize("x", [
        0.7, np.float64(-3.25), np.array(12.0), np.array([]),
        np.linspace(-15.0, 15.0, 57).reshape(3, 19),
        np.linspace(-60.0, 60.0, 1001)[::3],  # strided, with underflowed tails
    ], ids=["float", "numpy-scalar", "0-d", "empty", "2-D", "strided"])
    def test_matches_whole_array(self, monkeypatch, n, x):
        # 16-point blocks: the 2-D input spans four, the last one partial
        monkeypatch.setattr(wavefield, "_BAND_CELLS", 16)
        got, expected = wavefield._normalized_psi(n, x), _whole_array_psi(n, x)
        assert got.shape == np.shape(x)
        assert got.tobytes() == np.asarray(expected).tobytes()

    @N
    def test_born_grid_matches_whole_array(self, n):
        a = turning_point(n)
        x = np.linspace(-(a + 3.0), a + 3.0, 200_001)
        assert wavefield._normalized_psi(n, x).tobytes() == _whole_array_psi(n, x).tobytes()

    @N
    def test_non_finite_input(self, n):
        x = np.array([np.nan, np.inf, -np.inf, 0.5])
        psi = wavefield._normalized_psi(n, x)
        assert np.isnan(psi[0]) and psi[1] == psi[2] == 0.0
        assert psi[3] == _whole_array_psi(n, 0.5)


@pytest.mark.parametrize("n", [0, 1, 3, 70])
def test_density_is_zero_far_out(n):
    # the Gaussian factor's exponent -x^2/2 overflows from |x| = 1.9e154 on,
    # and inf * 0 is NaN: both must give 0, with no warning
    far = [np.inf, -np.inf, 1.9e154, -1e200, 1.7e308, -np.finfo(float).max]
    assert quantum_density_eigenstate(n, np.array(far)).tolist() == [0.0] * len(far)
    for x in far:
        assert quantum_density_eigenstate(n, x) == 0.0
    # the last values before the overflow are untouched
    near = np.array([1e154, -1.8e154, 40.0])
    assert quantum_density_eigenstate(n, near).tobytes() == (
        _whole_array_psi(n, near) ** 2).tobytes()


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
