"""Fokker-Planck solver: grid contracts, drift-coefficient identities, the
anisotropic heat kernel, symmetry preservation, and marginals."""

import dataclasses
import math
import mmap
import multiprocessing
import os
import signal
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
    fp_initial,
    fp_marginal_x,
    fp_solve,
    fp_step,
    log_derivative,
    sample_eigenstate_positions,
    sample_initial_points,
    turning_point,
)
from cqrt import fpe, procs
from cqrt.hermite import hermite_log_abs
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

    def test_cell_counts_are_integers(self):
        # a fractional count would give ceil(nx) centres spaced by 2L / nx
        for bad in (dict(nx=40.5), dict(ny=40.5), dict(nx="40")):
            with pytest.raises(TypeError):
                FpGrid(**bad)
        grid = FpGrid(nx=np.int64(40), ny=np.uint16(41))
        assert type(grid.nx) is int and type(grid.ny) is int
        assert grid.x_centers.size == 40 and grid.hx == 0.25

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
            ux = lambda w: (log_derivative(Eigenstate(1), 0.0, w)).imag
            uy = lambda w: -(log_derivative(Eigenstate(1), 0.0, w)).real
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


class TestStepBands:
    """fp_step's band sweep against reference_step at band boundaries: bands
    of one cell (narrower than a row, so one row each), of 13 rows (a count
    that divides none of the grids' row counts) and of the default size (one
    band on these grids)."""

    BANDS = pytest.mark.parametrize("cells", [lambda nx: 1, lambda nx: 13 * nx, None],
                                    ids=["one-row", "13-row", "default"])

    @staticmethod
    def use_bands(monkeypatch, cells, nx):
        if cells is not None:
            monkeypatch.setattr(fpe, "_BAND_CELLS", cells(nx))

    @BANDS
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("nx, ny", [(60, 60), (80, 50), (81, 100)],
                             ids=["square", "non-square", "odd-axis"])
    def test_eigenstate_drift(self, monkeypatch, cells, n, nx, ny):
        self.use_bands(monkeypatch, cells, nx)
        TestStepIsBitExact().test_eigenstate_drift(n, nx, ny)

    @BANDS
    def test_clipping_heavy_march(self, monkeypatch, cells):
        # n = 3 on 0.5-wide cells clips in nearly every row from the first
        # step on, so most bands carry negatives into the clipped-mass sum
        self.use_bands(monkeypatch, cells, 20)
        grid = FpGrid(L=5.0, nx=20, ny=21)
        solution = FpSolution(grid=grid, t=0.0, rho=fp_initial(3, grid),
                              total_mass=1.0, initial_mass=1.0)
        TestStepIsBitExact.assert_marches_agree(solution, drift_field(Eigenstate(3), grid), 12)

    @BANDS
    def test_random_field_with_exact_zeros(self, monkeypatch, cells):
        self.use_bands(monkeypatch, cells, 50)
        TestStepIsBitExact().test_random_field_with_exact_zeros()

    @pytest.mark.parametrize("where", ["rho", "drift"])
    def test_non_finite_cell_in_a_late_band_detected(self, monkeypatch, where):
        # row 17 lies in the last of four 5-row bands: a NaN there must reach
        # the growth check through the merge of the bands' extremes
        monkeypatch.setattr(fpe, "_BAND_CELLS", 100)
        grid = FpGrid(L=2.0, nx=20, ny=20)
        rho = fp_initial(1, grid)
        ux, uy = drift_field(Eigenstate(1), grid)
        (rho if where == "rho" else ux)[17, 12] = math.nan
        solution = FpSolution(grid=grid, t=0.0, rho=rho, total_mass=1.0, initial_mass=1.0)
        with pytest.raises(InstabilityDetected):
            fp_step(solution, (ux, uy))

    def test_one_step_allocates_under_three_fields(self, traced_peak):
        # the sweep allocates the new field and one band's buffers, not a
        # padded copy, a flux array and full-size temporaries per term
        grid = FpGrid(L=5.0, nx=400, ny=400)
        solution = FpSolution(grid=grid, t=0.0, rho=fp_initial(3, grid),
                              total_mass=1.0, initial_mass=1.0)
        drift = drift_field(Eigenstate(3), grid)
        fp_step(solution, drift)
        peak = traced_peak(fp_step, solution, drift)[1]
        assert peak <= 3 * solution.rho.nbytes


def _whole_grid_fields(n, grid):
    """fp_initial and drift_field as first written: the Hermite recurrence
    once over the whole meshgrid.  The banded kernels must agree with them
    byte for byte."""
    x, y = grid.meshgrid()
    log_norm = n * math.log(2.0) + math.lgamma(n + 1) + 0.5 * math.log(math.pi)
    with np.errstate(over="ignore"):
        rho = np.exp(2.0 * hermite_log_abs(n, x + 1j * y) - x * x - y * y - log_norm)
    g = log_derivative_masked(Eigenstate(n), 0.0, x + 1j * y)[0]
    return rho, np.imag(g), -np.real(g)


def _whole_batch_sampler(n, count, seed):
    """sample_initial_points as first written: the probe grid in one piece,
    and candidates in batches of 3 (count - got) + 1000."""
    half_width = turning_point(n) + 2.5
    probe = np.linspace(-half_width, half_width, 401)
    fmax = float(fpe._initial_density(n, *np.meshgrid(probe, probe)).max()) * 1.25
    out = np.empty(count, dtype=complex)
    got = start = 0
    while got < count:
        m = 3 * (count - got) + 1000
        x, y, u = uniforms(seed, np.arange(3 * start, 3 * (start + m))).reshape(m, 3).T
        x, y = (2.0 * x - 1.0) * half_width, (2.0 * y - 1.0) * half_width
        picked = (x + 1j * y)[u * fmax < fpe._initial_density(n, x, y)][:count - got]
        out[got:got + picked.size] = picked
        got += picked.size
        start += m
    return out


class TestSetupBands:
    """fp_initial, drift_field and sample_initial_points band by band against
    their whole-array forms, byte for byte, at the bands' edges."""

    @pytest.mark.parametrize("cells, n, L, nx, ny", [
        (None, 3, 5.0, 400, 203),   # 81-row bands: 203 rows end in a 41-row band
        (1, 4, 5.0, 30, 21),        # one-row bands
        (50, 2, 5.0, 64, 10),       # a row is wider than a band
        (13 * 40, 70, 14.0, 40, 57),
        # max|z| = 452 sets a rescale test at step 69 of the recurrence: a
        # one-row band near y = 0 (max|z| about 320) would skip it, so log|H|
        # changes in its last bits unless the whole grid's max|z| is passed
        (1, 70, 320.0, 100, 100),
    ], ids=["ragged-last-band", "one-row", "wide-row", "n70", "n70-rescaled"])
    def test_fields_match_whole_grid(self, monkeypatch, cells, n, L, nx, ny):
        if cells is not None:
            monkeypatch.setattr(fpe, "_BAND_CELLS", cells)
        grid = FpGrid(L=L, nx=nx, ny=ny)
        expected = _whole_grid_fields(n, grid)
        got = (fp_initial(n, grid), *drift_field(Eigenstate(n), grid))
        for a, b in zip(got, expected):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_drift_components_are_contiguous_real_arrays(self):
        for component in drift_field(Eigenstate(3), FpGrid(L=5.0, nx=40, ny=30)):
            assert component.dtype == np.float64 and component.shape == (30, 40)
            assert component.flags.c_contiguous and component.flags.owndata

    @pytest.mark.parametrize("cells", [1000, None], ids=["1000-cell", "default"])
    @pytest.mark.parametrize("n, count", [(1, 3000), (3, 700), (70, 150)])
    def test_sampler_matches_whole_batches(self, monkeypatch, cells, n, count):
        if cells is not None:  # 2-row probe bands and 1000-candidate blocks
            monkeypatch.setattr(fpe, "_BAND_CELLS", cells)
        expected = _whole_batch_sampler(n, count, 11)
        assert sample_initial_points(n, count, 11).tobytes() == expected.tobytes()

    # 400^2 cells at n = 3 as in the benchmark's fp_solve: whole-grid setup
    # fields trace about 14 fields and a march 15; the bands keep the setup
    # temporaries to a band's, and the march fills two buffers in turn
    FIELD = 400 * 400 * 8

    def test_initial_density_traces_under_five_fields(self, traced_peak):
        peak = traced_peak(fp_initial, 3, FpGrid(L=5.0, nx=400, ny=400))[1]
        assert peak <= 5 * self.FIELD

    def test_drift_field_traces_under_six_and_a_half_fields(self, traced_peak):
        peak = traced_peak(drift_field, Eigenstate(3), FpGrid(L=5.0, nx=400, ny=400))[1]
        assert peak <= 6.5 * self.FIELD

    def test_twenty_step_solve_traces_under_seven_and_a_half_fields(self, monkeypatch,
                                                                      traced_peak):
        # serial, so tracemalloc sees the march buffers
        fork_march(monkeypatch, 1)
        grid = FpGrid(L=5.0, nx=400, ny=400)
        solution, peak = traced_peak(fp_solve, Eigenstate(3), grid, 20 * grid.dt_pde)
        assert solution.steps == 20
        assert peak <= 7.5 * self.FIELD

    def test_forked_twenty_step_solve_holds_under_seven_and_a_half_fields(self, monkeypatch,
                                                                          traced_peak):
        # tracemalloc does not see the two march buffers in shared mappings,
        # so their bytes are added to its peak
        fork_march(monkeypatch, 2)
        grid = FpGrid(L=5.0, nx=400, ny=400)
        solution, peak = traced_peak(fp_solve, Eigenstate(3), grid, 20 * grid.dt_pde)
        assert solution.steps == 20 and not solution.rho.flags.owndata
        assert peak + 2 * self.FIELD <= 7.5 * self.FIELD


class TestSolve:
    def test_t_zero_returns_initial(self):
        grid = FpGrid(L=5.0, nx=100, ny=100)
        solution = fp_solve(Eigenstate(1), grid, 0.0)
        np.testing.assert_array_equal(solution.rho, fp_initial(1, grid))
        assert solution.steps == 0

    @pytest.mark.parametrize("steps", [1, 2, 5])
    def test_march_buffers_match_fresh_steps(self, steps):
        # fp_solve fills two buffers in turn; an odd and an even step count
        # must both end on the field that fresh fp_step calls give
        grid = FpGrid(L=5.0, nx=60, ny=50)
        solution = fp_solve(Eigenstate(3), grid, steps * grid.dt_pde)
        expected = fp_solve(Eigenstate(3), grid, 0.0)
        drift = drift_field(Eigenstate(3), grid)
        for _ in range(steps):
            expected = fp_step(expected, drift)
        assert solution.steps == expected.steps == steps
        assert solution.rho.tobytes() == expected.rho.tobytes()
        assert (solution.t, solution.total_mass, solution.clipped_mass) == (
            expected.t, expected.total_mass, expected.clipped_mass)

    def test_march_fills_two_buffers(self, monkeypatch):
        # every step's field is kept alive here, so fresh arrays would be six
        step, fields = fpe.fp_step, []

        def recording(*args, **kwargs):
            solution = step(*args, **kwargs)
            fields.append(solution.rho)
            return solution

        monkeypatch.setattr(fpe, "fp_step", recording)
        grid = FpGrid(L=5.0, nx=40, ny=40)
        assert fp_solve(Eigenstate(1), grid, 6 * grid.dt_pde).rho is fields[-1]
        assert len(fields) == 6 and len({id(field) for field in fields}) == 2

    def test_forked_march_fills_two_buffers(self, monkeypatch):
        fork_march(monkeypatch, 2)
        self.test_march_fills_two_buffers(monkeypatch)

    @pytest.mark.parametrize("t_final", [0.0, 0.1])
    def test_records_the_largest_drift_speeds(self, t_final):
        # also with no step taken, so a t = 0 run still has its Courant number
        grid = FpGrid(L=4.0, nx=60, ny=50)
        solution = fp_solve(Eigenstate(3), grid, t_final)
        ux, uy = drift_field(Eigenstate(3), grid)
        assert (solution.speed_x, solution.speed_y) == (float(np.abs(ux).max()),
                                                        float(np.abs(uy).max()))
        assert solution.speed_x > 0 and solution.speed_y > 0

    @pytest.mark.parametrize("t_final", [0.3, 0.5, 0.61, 1.0])
    def test_end_time_within_half_a_step(self, t_final):
        # round(t_final / dt_pde) steps: t = 1 on this grid ends at 1.008
        grid = FpGrid(L=6.0, nx=50, ny=50)
        solution = fp_solve(Eigenstate(1), grid, t_final)
        assert solution.steps == round(t_final / grid.dt_pde)
        assert abs(solution.t - t_final) <= 0.5 * grid.dt_pde + 1e-12
        if t_final == 1.0:
            assert solution.t == pytest.approx(1.008)

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


class TestGroundStateOracle:
    """For n = 0 the drift is the rotation (u_x, u_y) = (-y, x), so the
    Fokker-Planck equation is linear with a Gaussian solution: from
    N(0, I/2), the density at t is N(0, Sigma) with Sigma' = A Sigma +
    Sigma A^T + 2D, A = [[0, -1], [1, 0]] and D the diffusion tensor, which
    integrates to Sigma_xx = 1/2 + t/2 + sin^2(t)/2, Sigma_yy = 1/2 + t/2 -
    sin^2(t)/2 and Sigma_xy = -sin(2t)/4.  The FTCS march converges to it at
    second order in h."""

    @staticmethod
    def _errors(cells):
        grid = FpGrid(L=6.0, nx=cells, ny=cells)
        solution = fp_solve(Eigenstate(0), grid, 1.0)
        t = solution.t  # within dt_pde / 2 of 1
        sxx = 0.5 + t / 2 + math.sin(t) ** 2 / 2
        syy = 0.5 + t / 2 - math.sin(t) ** 2 / 2
        sxy = -math.sin(2 * t) / 4
        det = sxx * syy - sxy * sxy
        x, y = grid.meshgrid()
        exact = (np.exp(-(syy * x * x - 2 * sxy * x * y + sxx * y * y) / (2 * det))
                 / (2 * math.pi * math.sqrt(det)))
        rho = solution.rho / solution.initial_mass
        marginal = np.exp(-grid.x_centers ** 2 / (2 * sxx)) / math.sqrt(2 * math.pi * sxx)
        return (float(np.abs(rho - exact).sum() * grid.hx * grid.hy),
                float(np.abs(rho.sum(axis=0) * grid.hy - marginal).sum() * grid.hx))

    def test_field_and_marginal_converge_to_the_gaussian(self):
        # measured: L1 9.968e-3 and 2.448e-3 (ratio 4.07), x-marginal L1
        # 1.419e-3 and 3.552e-4; a flipped cross term reads L1 = 0.55
        (coarse, coarse_x), (fine, fine_x) = self._errors(50), self._errors(100)
        assert coarse <= 1.25e-2 and fine <= 3.1e-3
        assert coarse / fine >= 3.5
        assert coarse_x <= 1.8e-3 and fine_x <= 4.5e-4


def fork_march(monkeypatch, workers):
    """Makes fp_solve march on `workers` processes at any size (1: serially)."""
    monkeypatch.setattr(fpe, "FORK_MIN_CELL_STEPS", 0)
    monkeypatch.setattr(procs, "usable_cpus", lambda: workers)


def record_sweepers(monkeypatch, ny):
    """The pid of the process that last swept each of ny rows, kept in
    shared memory, which fp_solve's forked workers write too."""
    owners = np.frombuffer(mmap.mmap(-1, 8 * ny), dtype=np.int64)
    sweep = fpe._sweep

    def recording(grid, rho, drift, new, rows, extremes):
        owners[rows] = os.getpid()
        return sweep(grid, rho, drift, new, rows, extremes)

    monkeypatch.setattr(fpe, "_sweep", recording)
    return owners


class TestForkedMarch:
    """fp_solve on 1-4 processes: each sweeps an equal share of the rows, and
    every field of the solution is bit-identical to the serial march's."""

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("n, nx, ny, band_rows, steps", [
        (3, 40, 50, 13, 8),     # 25-, 16- and 12-row shares end in ragged bands
        (1, 40, 51, 7, 8),      # an odd row count splits unevenly
        (3, 60, 60, None, 8),   # one 546-row band: every share is smaller
        # n = 3 on 0.5-wide cells clips in nearly every row from step 1 on
        (3, 20, 21, None, 12),
    ], ids=["ragged-bands", "odd-ny", "share-under-a-band", "clipping-heavy"])
    def test_fields_match_serial_march(self, monkeypatch, workers, n, nx, ny, band_rows,
                                       steps):
        if band_rows is not None:
            monkeypatch.setattr(fpe, "_BAND_CELLS", band_rows * nx)
        grid = FpGrid(L=5.0, nx=nx, ny=ny)
        fork_march(monkeypatch, 1)
        serial = fp_solve(Eigenstate(n), grid, steps * grid.dt_pde)
        fork_march(monkeypatch, workers)
        owners = record_sweepers(monkeypatch, ny)
        forked = fp_solve(Eigenstate(n), grid, steps * grid.dt_pde)
        for field in dataclasses.fields(FpSolution):
            a, b = getattr(forked, field.name), getattr(serial, field.name)
            assert (a.tobytes() == b.tobytes()) if field.name == "rho" else a == b
        assert forked.steps == steps and forked.clipped_mass > 0.0
        # share k of the rows, [k ny / workers, (k + 1) ny / workers), is one
        # process's, and share 0 is this one's
        bounds = [ny * k // workers for k in range(workers + 1)]
        pids = [set(owners[a:b].tolist()) for a, b in zip(bounds, bounds[1:])]
        assert all(len(p) == 1 for p in pids) and len(set.union(*pids)) == workers
        assert pids[0] == {os.getpid()}

    @staticmethod
    def solve_in(monkeypatch, workers, spoil):
        """fp_solve for n = 1 on 20^2 cells for 5 steps, on `workers`
        processes, with spoil(rho0, (ux, uy)) applied to its fields first."""
        fork_march(monkeypatch, workers)
        initial, field = fpe.fp_initial, fpe.drift_field

        def spoilt_initial(n, grid, _out):
            rho = initial(n, grid, _out=_out)
            spoil(rho, None)
            return rho

        def spoilt_field(model, grid):
            drift = field(model, grid)
            spoil(None, drift)
            return drift

        monkeypatch.setattr(fpe, "fp_initial", spoilt_initial)
        monkeypatch.setattr(fpe, "drift_field", spoilt_field)
        grid = FpGrid(L=1.0, nx=20, ny=20)
        return fp_solve(Eigenstate(1), grid, 5 * grid.dt_pde)

    # rows 3 and 16 of 20: the caller's share on 2 and 3 processes, and the
    # last worker's
    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("row", [3, 16], ids=["callers-share", "workers-share"])
    def test_instability_detected_in_any_share(self, monkeypatch, workers, row):
        def monster(rho, drift):
            if drift is not None:
                drift[0][row - 1:row + 2, 8:12] = 1e5

        with pytest.raises(InstabilityDetected) as serial:
            self.solve_in(monkeypatch, 1, monster)
        with pytest.raises(InstabilityDetected) as forked:
            self.solve_in(monkeypatch, workers, monster)
        assert str(forked.value) == str(serial.value)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("where", ["rho", "drift"])
    def test_nan_in_a_workers_share_detected(self, monkeypatch, workers, where):
        def nan(rho, drift):
            field = rho if where == "rho" else drift and drift[0]
            if field is not None:
                field[17, 12] = math.nan

        with pytest.raises(InstabilityDetected, match="to nan in one step at t=0$"):
            self.solve_in(monkeypatch, workers, nan)

    def test_worker_exception_reaches_the_caller_as_itself(self, monkeypatch):
        # only the forked worker's sweeps raise, so the error can reach the
        # caller only in the worker's reply
        fork_march(monkeypatch, 2)
        caller, sweep = os.getpid(), fpe._sweep

        def failing(grid, rho, drift, new, rows, extremes):
            if os.getpid() != caller:
                raise RuntimeError("boom")
            return sweep(grid, rho, drift, new, rows, extremes)

        def hung(signum, frame):
            raise AssertionError("fp_solve still waits for a failed worker")

        monkeypatch.setattr(fpe, "_sweep", failing)
        grid = FpGrid(L=5.0, nx=40, ny=40)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with pytest.raises(RuntimeError, match="^boom$"):
                fp_solve(Eigenstate(3), grid, 10 * grid.dt_pde)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [2, 3])
    def test_killed_worker_raises_promptly(self, monkeypatch, workers):
        # worker 1 is killed in its third sweep; a march that waited for it
        # would hang, and the alarm turns that into a failure
        fork_march(monkeypatch, workers)
        caller, sweep, sweeps = os.getpid(), fpe._sweep, []

        def dying(grid, rho, drift, new, rows, extremes):
            sweeps.append(rows)  # this process's own list
            if os.getpid() != caller and rows.start == 40 // workers and len(sweeps) == 3:
                os.kill(os.getpid(), signal.SIGKILL)
            return sweep(grid, rho, drift, new, rows, extremes)

        def hung(signum, frame):
            raise AssertionError("fp_solve still waits for a dead worker")

        monkeypatch.setattr(fpe, "_sweep", dying)
        grid = FpGrid(L=5.0, nx=40, ny=40)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with pytest.raises(ChildProcessError, match="exited before its share was done"):
                fp_solve(Eigenstate(3), grid, 100 * grid.dt_pde)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert len(sweeps) == 3


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
        # criterion 6 compares against np.interp over the marginal, which
        # passes through every value only where the bin centers increase
        marginal = fp_marginal_x(sol)
        ref = np.interp(marginal.bin_centers, marginal.bin_centers, marginal.densities)
        np.testing.assert_allclose(ref, marginal.densities)


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


def test_initial_points_are_the_accepted_candidates_in_order(monkeypatch):
    # candidate k is draws 3k and 3k + 1 of the launch stream, mapped to the
    # square; in blocks of 1000 candidates 200 points take several, and each
    # must go on from the last one's last candidate, not repeat it
    monkeypatch.setattr(fpe, "_BAND_CELLS", 1000)
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
