"""Fokker-Planck solver: grid contracts, drift-coefficient identities, the
anisotropic heat kernel, symmetry preservation, and marginals."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cqrt import (
    Eigenstate,
    FpGrid,
    FpSolution,
    GaussianPacket,
    InstabilityDetected,
    ZeroMass,
    drift_field,
    eigenstate_log_derivative,
    fp_initial,
    fp_marginal_x,
    fp_solve,
    fp_step,
    marginal_reference,
    sample_eigenstate_positions,
    sample_initial_points,
    turning_point,
)
from cqrt.sde import uniforms
from cqrt.wavefield import log_derivative_masked

SQRT_PI = math.sqrt(math.pi)


def reference_step(solution, drift):
    """fp_step as first written: one full-size temporary per term, evaluated
    in the stencil's documented operation order.  fp_step must agree with
    it byte for byte."""
    grid = solution.grid
    hx, hy, dt = grid.hx, grid.hy, grid.dt_pde
    rho = solution.rho
    ux, uy = drift
    p = np.pad(rho, 1)
    fx = np.pad(ux * rho, 1)
    fy = np.pad(uy * rho, 1)
    div_x = (fx[1:-1, 2:] - fx[1:-1, :-2]) / (2.0 * hx)
    div_y = (fy[2:, 1:-1] - fy[:-2, 1:-1]) / (2.0 * hy)
    lap_x = (p[1:-1, 2:] - 2.0 * rho + p[1:-1, :-2]) / (hx * hx)
    lap_y = (p[2:, 1:-1] - 2.0 * rho + p[:-2, 1:-1]) / (hy * hy)
    cross = (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) / (4.0 * hx * hy)
    new = rho + dt * (-div_x - div_y + 0.25 * lap_x - 0.5 * cross + 0.25 * lap_y)
    negative = new < 0.0
    clipped = float(-np.sum(new[negative]) * hx * hy)
    new[negative] = 0.0
    return replace(solution, t=solution.t + dt, rho=new,
                   total_mass=float(np.sum(new) * hx * hy),
                   clipped_mass=solution.clipped_mass + clipped,
                   steps=solution.steps + 1)


class TestGrid:
    def test_cell_centers_avoid_origin(self):
        grid = FpGrid(L=5.0, nx=200, ny=200)
        assert grid.hx == pytest.approx(0.05)
        r2 = grid.x_centers[None, :] ** 2 + grid.y_centers[:, None] ** 2
        assert r2.min() > 0.0
        np.testing.assert_allclose(grid.x_centers[0], -5.0 + 0.025)

    def test_odd_odd_rejected(self):
        with pytest.raises(ValueError):
            FpGrid(L=5.0, nx=201, ny=201)
        FpGrid(L=5.0, nx=201, ny=200)  # mixed parity keeps the origin off-grid

    def test_stability_bound_enforced(self):
        grid = FpGrid(L=5.0, nx=200, ny=200)
        bound = grid.hx**2 / (2 * 0.5)
        assert grid.stability_bound == pytest.approx(bound)
        assert grid.dt_pde == pytest.approx(0.5 * bound)
        with pytest.raises(ValueError):
            FpGrid(L=5.0, nx=200, ny=200, dt_pde=bound * 1.01)

    def test_200_cells_matches_expected_spacing(self):
        # 201 grid lines over [-5, 5] = 200 cells of width 0.05; the explicit
        # bound is then 2.5e-3
        grid = FpGrid(L=5.0, nx=200, ny=200)
        assert grid.stability_bound == pytest.approx(2.5e-3)


class TestDriftField:
    def test_rotation_field_for_ground_state(self):
        grid = FpGrid(L=2.0, nx=4, ny=4)
        ux, uy = drift_field(Eigenstate(0), grid)
        x, y = grid.meshgrid()
        np.testing.assert_allclose(ux, -y, atol=1e-14)
        np.testing.assert_allclose(uy, x, atol=1e-14)

    def test_n1_values_at_1_1(self):
        # centers of a 4x4 grid on [-4, 4] sit at (+-1, +-3) per axis
        grid = FpGrid(L=4.0, nx=4, ny=4)
        ux, uy = drift_field(Eigenstate(1), grid)
        x, y = grid.meshgrid()
        i = np.argwhere((x == 1.0) & (y == 1.0))[0]
        assert ux[tuple(i)] == pytest.approx(-1.5)
        assert uy[tuple(i)] == pytest.approx(0.5)

    def test_zero_at_a_node(self):
        # on [-2 sqrt 2, 2 sqrt 2], 4 x 5 cells put center [2, 2] on psi_2's
        # node (1/sqrt 2, 0), to rounding
        ux, uy = drift_field(Eigenstate(2), FpGrid(L=2.0 * math.sqrt(2.0), nx=4, ny=5))
        assert ux[2, 2] == 0.0 and uy[2, 2] == 0.0 and ux[2, 3] != 0.0

    def test_advection_coefficients_match_closed_form(self):
        # the expanded advection coefficients of the density equation are
        # -u_x = (x^2 y + y^3 + y)/(x^2+y^2) and -u_y = (x - x y^2 - x^3)/(x^2+y^2)
        grid = FpGrid(L=5.0, nx=200, ny=200)
        rng = np.random.default_rng(12)
        ux, uy = drift_field(Eigenstate(1), grid)
        x, y = grid.meshgrid()
        for _ in range(10):
            j = rng.integers(0, 200)
            i = rng.integers(0, 200)
            xx, yy = x[j, i], y[j, i]
            r2 = xx * xx + yy * yy
            coeff_x = (xx * xx * yy + yy**3 + yy) / r2
            coeff_y = (xx - xx * yy * yy - xx**3) / r2
            assert -ux[j, i] == pytest.approx(coeff_x, rel=1e-10, abs=1e-12)
            assert -uy[j, i] == pytest.approx(coeff_y, rel=1e-10, abs=1e-12)

    def test_source_term_is_divergence_of_drift(self):
        # for holomorphic g the divergence of (Im g, -Re g) is 2 Im g'; for
        # n = 1, g = 1/z - z gives div u = 4xy/(x^2+y^2)^2
        rng = np.random.default_rng(3)
        for _ in range(10):
            z = complex(rng.uniform(0.3, 3), rng.uniform(0.3, 3))
            h = 1e-6
            ux = lambda w: (eigenstate_log_derivative(1, w)).imag
            uy = lambda w: -(eigenstate_log_derivative(1, w)).real
            div = ((ux(z + h) - ux(z - h)) / (2 * h)
                   + (uy(z + 1j * h) - uy(z - 1j * h)) / (2 * h))
            x, y = z.real, z.imag
            expected = 4 * x * y / (x * x + y * y) ** 2
            assert div == pytest.approx(expected, rel=1e-6, abs=1e-9)

    def test_field_is_the_integrators_drift(self):
        # no cap: the field is (Im g, -Re g) of the drift the trajectories
        # step in, to the last bit, and above a speed of 100 next to the node
        grid = FpGrid(L=0.5, nx=80, ny=80)
        x, y = grid.meshgrid()
        g = log_derivative_masked(Eigenstate(3), 0.0, x + 1j * y)[0]
        ux, uy = drift_field(Eigenstate(3), grid)
        assert ux.tobytes() == g.imag.tobytes() and uy.tobytes() == (-g.real).tobytes()
        assert np.hypot(ux, uy).max() > 100.0

    def test_gaussian_model_rejected(self):
        with pytest.raises(TypeError):
            drift_field(GaussianPacket(1.0), FpGrid(L=2.0, nx=8, ny=8))


class TestInitialCondition:
    @pytest.mark.parametrize("n", [-1, 71])
    def test_quantum_number_in_eigenstate_range(self, n):
        # the FPE's initial density and its sampler take Eigenstate's range
        with pytest.raises(ValueError, match=r"\[0, 70\]"):
            fp_initial(n, FpGrid(L=2.0, nx=8, ny=8))
        with pytest.raises(ValueError, match=r"\[0, 70\]"):
            sample_initial_points(n, 5, seed=1)

    def test_zero_at_origin_for_n1(self):
        grid = FpGrid(L=2.0, nx=80, ny=80)
        rho = fp_initial(1, grid)
        x, y = grid.meshgrid()
        nearest = np.unravel_index(np.argmin(x**2 + y**2), x.shape)
        assert rho[nearest] < rho.max() * 0.01

    def test_matches_closed_form_n1(self):
        grid = FpGrid(L=4.0, nx=4, ny=4)
        x, y = grid.meshgrid()
        rho = fp_initial(1, grid)
        expected = (2 / SQRT_PI) * (x**2 + y**2) * np.exp(-(x**2) - y**2)
        np.testing.assert_allclose(rho, expected, rtol=1e-12)
        # ... which at (1, 0) evaluates to (2/sqrt(pi)) e^{-1}
        assert (2 / SQRT_PI) * math.exp(-1.0) == pytest.approx(0.41510749742059470)

    def test_plane_integral_n1(self):
        grid = FpGrid(L=6.0, nx=240, ny=240)
        rho = fp_initial(1, grid)
        mass = rho.sum() * grid.hx * grid.hy
        assert mass == pytest.approx(2 * SQRT_PI, rel=2e-3)  # ~3.5449, not 1

    def test_n3_generalization_matches_polynomial(self):
        grid = FpGrid(L=4.0, nx=40, ny=40)
        x, y = grid.meshgrid()
        z = x + 1j * y
        h3 = 8 * z**3 - 12 * z
        norm = 2**3 * math.factorial(3) * SQRT_PI
        expected = np.abs(h3) ** 2 * np.exp(-(x**2) - y**2) / norm
        np.testing.assert_allclose(fp_initial(3, grid), expected, rtol=1e-10)

    def test_marginal_of_n1_initial(self):
        # integrating the n=1 initial field over y gives (x^2 + 1/2) e^{-x^2},
        # normalized
        grid = FpGrid(L=6.0, nx=240, ny=240)
        solution = fp_solve(Eigenstate(1), grid, 0.0)
        marginal = fp_marginal_x(solution)
        xc = marginal.bin_centers
        expected = (xc**2 + 0.5) * np.exp(-(xc**2))
        expected /= expected.sum() * grid.hx
        np.testing.assert_allclose(marginal.densities, expected, rtol=5e-3, atol=1e-9)


class TestStep:
    def test_zero_field_stays_zero(self):
        grid = FpGrid(L=2.0, nx=20, ny=20)
        solution = FpSolution(grid=grid, t=0.0, rho=np.zeros((20, 20)),
                              total_mass=0.0, initial_mass=0.0)
        zero = (np.zeros((20, 20)), np.zeros((20, 20)))
        out = fp_step(solution, zero)
        assert np.all(out.rho == 0.0)

    def test_heat_kernel_anisotropic(self):
        # zero drift leaves the rank-one diffusion: an isotropic Gaussian of
        # variance s0 evolves to covariance [[s0 + t/2, -t/2], [-t/2, s0 + t/2]]
        grid = FpGrid(L=5.0, nx=200, ny=200)
        x, y = grid.meshgrid()
        s0 = 0.25
        rho = np.exp(-(x**2 + y**2) / (2 * s0)) / (2 * np.pi * s0)
        solution = FpSolution(grid=grid, t=0.0, rho=rho, total_mass=1.0, initial_mass=1.0)
        zero = (np.zeros_like(x), np.zeros_like(y))
        t_final = 0.1
        steps = int(round(t_final / grid.dt_pde))
        for _ in range(steps):
            solution = fp_step(solution, zero)
        t = solution.t
        cov = np.array([[s0 + t / 2, -t / 2], [-t / 2, s0 + t / 2]])
        det = np.linalg.det(cov)
        inv = np.linalg.inv(cov)
        analytic = np.exp(-(inv[0, 0] * x**2 + 2 * inv[0, 1] * x * y + inv[1, 1] * y**2) / 2)
        analytic /= 2 * np.pi * np.sqrt(det)
        peak = analytic.max()
        mask = analytic > 1e-4 * peak
        rel = np.abs(solution.rho[mask] - analytic[mask]) / peak
        assert rel.max() < 0.01
        # second moments: variances grow at 1/2, covariance at -1/2 per unit time
        w = solution.rho / solution.rho.sum()
        var_x = float((w * x**2).sum() - (w * x).sum() ** 2)
        cov_xy = float((w * x * y).sum() - (w * x).sum() * (w * y).sum())
        assert var_x == pytest.approx(s0 + t / 2, rel=0.01)
        assert cov_xy == pytest.approx(-t / 2, rel=0.02)

    def test_instability_detected(self):
        grid = FpGrid(L=1.0, nx=20, ny=20)
        rho = np.zeros((20, 20))
        rho[10, 10] = 1.0
        solution = FpSolution(grid=grid, t=0.0, rho=rho, total_mass=1.0, initial_mass=1.0)
        monster = (np.full((20, 20), 1e5), np.zeros((20, 20)))
        with pytest.raises(InstabilityDetected):
            fp_step(solution, monster)

    @pytest.mark.parametrize("where", ["rho", "drift"])
    def test_non_finite_field_detected(self, where):
        # one NaN cell spreads to its 9-cell neighbourhood; the field's peak is
        # then NaN, which no growth bound may let through
        grid = FpGrid(L=2.0, nx=20, ny=20)
        rho = fp_initial(1, grid)
        ux, uy = drift_field(Eigenstate(1), grid)
        (rho if where == "rho" else ux)[7, 12] = math.nan
        solution = FpSolution(grid=grid, t=0.0, rho=rho, total_mass=1.0, initial_mass=1.0)
        with pytest.raises(InstabilityDetected):
            fp_step(solution, (ux, uy))

    def test_clipping_accounted(self):
        grid = FpGrid(L=5.0, nx=100, ny=100)
        solution = fp_solve(Eigenstate(1), grid, 0.05)
        assert solution.clipped_mass >= 0.0
        assert solution.steps == int(round(0.05 / grid.dt_pde))


class TestStepIsBitExact:
    """fp_step against the frozen reference_step, byte for byte."""

    @staticmethod
    def assert_marches_agree(solution, drift, steps):
        expected = solution
        for _ in range(steps):
            solution = fp_step(solution, drift)
            expected = reference_step(expected, drift)
            assert solution.rho.tobytes() == expected.rho.tobytes()
            assert solution.clipped_mass == expected.clipped_mass
            assert solution.total_mass == expected.total_mass
            assert solution.t == expected.t
            assert not np.signbit(solution.rho).any()  # neither -0.0 nor negative

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("nx, ny", [(60, 60), (80, 50), (81, 100)],
                             ids=["square", "non-square", "odd-axis"])
    def test_eigenstate_drift(self, n, nx, ny):
        grid = FpGrid(L=5.0, nx=nx, ny=ny)
        rho = fp_initial(n, grid)
        solution = FpSolution(grid=grid, t=0.0, rho=rho, total_mass=1.0, initial_mass=1.0)
        self.assert_marches_agree(solution, drift_field(Eigenstate(n), grid), 8)

    def test_random_field_with_exact_zeros(self):
        # zero blocks in the field and zero strips in the drift make exactly
        # cancelling differences, where a rewritten sign of zero could show
        grid = FpGrid(L=5.0, nx=50, ny=64)
        rng = np.random.default_rng(7)
        rho = rng.random((64, 50))
        rho[10:20, 5:30] = 0.0
        rho[40:, 44:] = 0.0
        ux = rng.normal(scale=5.0, size=rho.shape)
        uy = rng.normal(scale=5.0, size=rho.shape)
        ux[:, 20:25] = 0.0
        uy[30:35, :] = 0.0
        solution = FpSolution(grid=grid, t=0.0, rho=rho, total_mass=1.0, initial_mass=1.0)
        self.assert_marches_agree(solution, (ux, uy), 20)


class TestSolve:
    def test_t_zero_returns_initial(self):
        grid = FpGrid(L=5.0, nx=100, ny=100)
        solution = fp_solve(Eigenstate(1), grid, 0.0)
        np.testing.assert_array_equal(solution.rho, fp_initial(1, grid))
        assert solution.steps == 0

    def test_mass_nearly_conserved_n1(self):
        grid = FpGrid(L=5.0, nx=200, ny=200)
        solution = fp_solve(Eigenstate(1), grid, 0.5)
        assert abs(solution.mass_change) < 0.01
        assert solution.clipped_mass / solution.initial_mass < 0.01

    def test_point_symmetry_preserved_n1(self):
        # initial data and coefficients are symmetric under (x,y) -> (-x,-y);
        # the stencil must preserve that to rounding
        grid = FpGrid(L=5.0, nx=100, ny=100)
        solution = fp_solve(Eigenstate(1), grid, 0.1)
        flipped = solution.rho[::-1, ::-1]
        assert np.max(np.abs(solution.rho - flipped)) <= 1e-10 * solution.rho.max()

    def test_grid_self_convergence_smoke(self):
        coarse = fp_marginal_x(fp_solve(Eigenstate(1), FpGrid(L=5.0, nx=100, ny=100), 0.25))
        fine = fp_marginal_x(fp_solve(Eigenstate(1), FpGrid(L=5.0, nx=200, ny=200), 0.25))
        interp = np.interp(fine.bin_centers, coarse.bin_centers, coarse.densities)
        a = interp - interp.mean()
        b = fine.densities - fine.densities.mean()
        gamma = float(a @ b / np.sqrt((a @ a) * (b @ b)))
        assert gamma >= 0.999


class TestMarginal:
    def test_reflection_invariance(self):
        grid = FpGrid(L=3.0, nx=30, ny=30)
        rho = fp_initial(2, grid)
        sol = FpSolution(grid=grid, t=0.0, rho=rho, total_mass=1.0, initial_mass=1.0)
        sol_flipped = FpSolution(grid=grid, t=0.0, rho=rho[::-1, :],
                                 total_mass=1.0, initial_mass=1.0)
        # summation order differs after the flip, so compare to rounding
        np.testing.assert_allclose(fp_marginal_x(sol).densities,
                                   fp_marginal_x(sol_flipped).densities,
                                   rtol=1e-13, atol=1e-16)

    def test_normalized(self):
        grid = FpGrid(L=5.0, nx=100, ny=100)
        marginal = fp_marginal_x(fp_solve(Eigenstate(1), grid, 0.0))
        assert np.sum(marginal.densities) * marginal.bin_width == pytest.approx(1.0)

    def test_zero_mass(self):
        grid = FpGrid(L=2.0, nx=10, ny=10)
        sol = FpSolution(grid=grid, t=0.0, rho=np.zeros((10, 10)),
                         total_mass=0.0, initial_mass=0.0)
        with pytest.raises(ZeroMass):
            fp_marginal_x(sol)

    def test_marginal_reference_interpolates(self):
        grid = FpGrid(L=5.0, nx=100, ny=100)
        sol = fp_solve(Eigenstate(1), grid, 0.0)
        ref = marginal_reference(sol)
        marginal = fp_marginal_x(sol)
        np.testing.assert_allclose(ref(marginal.bin_centers), marginal.densities)


def test_initial_point_sampler_matches_field():
    pts = sample_initial_points(1, 100_000, seed=4)
    # radial density of (2/sqrt(pi)) r^2 e^{-r^2}: mean r^2 should be 2... the
    # distribution of r^2 is Gamma(2, 1), so E[r^2] = 2 and E[x] = E[y] = 0
    assert np.mean(np.abs(pts) ** 2) == pytest.approx(2.0, rel=0.02)
    assert abs(pts.real.mean()) < 0.02
    assert abs(pts.imag.mean()) < 0.02
    # deterministic, and a shorter draw is a prefix of a longer one
    np.testing.assert_array_equal(pts, sample_initial_points(1, 100_000, seed=4))
    np.testing.assert_array_equal(sample_initial_points(1, 10, seed=4), pts[:10])


def test_initial_points_are_the_accepted_candidates_in_order():
    # candidate k is draws 3k and 3k + 1 of the launch stream, mapped to the
    # square; 200 points take two rounds, and the second must go on from the
    # first's last candidate, not repeat it
    x, y, _ = uniforms(4, np.arange(3 * 6000)).reshape(6000, 3).T
    half_width = turning_point(1) + 2.5
    candidates = list((2.0 * x - 1.0) * half_width + 1j * ((2.0 * y - 1.0) * half_width))
    index = [candidates.index(p) for p in sample_initial_points(1, 200, seed=4)]
    assert index == sorted(set(index))


@pytest.mark.parametrize("sampler", [sample_eigenstate_positions, sample_initial_points],
                         ids=lambda f: f.__name__)
def test_sampler_input_rules(sampler):
    with pytest.raises(ValueError):
        sampler(1, -1, seed=4)
    assert sampler(1, 0, seed=4).shape == (0,)
    # a negative seed is taken mod 2**64, as master_seed is
    np.testing.assert_array_equal(sampler(1, 50, seed=-3), sampler(1, 50, seed=2**64 - 3))
