"""Finite-difference solver for the trajectory density's Fokker-Planck equation.

The stochastic dynamics induces the 2D advection-diffusion equation

    d(rho)/dt = -d(ux rho)/dx - d(uy rho)/dy
                + (1/4) (rho_xx - 2 rho_xy + rho_yy)

with ux = Im(d ln psi / dz), uy = -Re(d ln psi / dz), and the singular rank-one
diffusion tensor [[1/4, -1/4], [-1/4, 1/4]] that follows from the
anticorrelated coordinate noise.  The march is explicit forward-time
centered-space in conservative form, with the standard 4-corner stencil for
the cross derivative and rho = 0 Dirichlet edges.

The grid is cell-centered, so no point sits exactly on the coefficient
singularity at the origin.  Negative undershoot from the cross stencil is
clipped to zero after each step and reported as a quality diagnostic: a large
clipped fraction means the node vortices of the drift are under-resolved and
the field cannot be trusted (seen for n = 3 on coarse grids).

The per-cell floating-point operation order of fp_step is part of the output
contract: fields, marginals and every digest downstream depend on it to the
last bit.  A faster step may only use rewrites that are exact in IEEE double
arithmetic (the ones in use are listed in fp_step's docstring); reordering a
sum or a difference is not one of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InstabilityDetected, ZeroMass
from .sde import uniforms
from .stats import EmpiricalDensity
from .wavefield import (Eigenstate, ModelSpec, log_derivative_masked,
                        quantum_density_eigenstate, turning_point)
from .hermite import hermite_log_abs

#: diffusion coefficients along each axis; the cross coefficient is -1/4
D_XX = 0.25
D_YY = 0.25

#: one-step growth factor that triggers InstabilityDetected
MAX_STEP_GROWTH = 10.0


@dataclass(frozen=True)
class FpGrid:
    """Cell-centered square grid on [-L, L]^2.

    nx, ny count interior cells; centers sit at -L + (i + 1/2) h, so the
    coefficient singularity at the origin is on the grid only if both counts
    are odd, which the constructor rejects.  dt_pde must satisfy the explicit
    diffusion bound dt <= h^2 / (2 (D_XX + D_YY)); the default takes half of
    it.
    """

    L: float = 5.0
    nx: int = 200
    ny: int = 200
    dt_pde: float | None = None

    def __post_init__(self):
        if not 0 < self.L < math.inf or self.nx < 3 or self.ny < 3:
            raise ValueError("grid needs a finite L > 0 and at least 3 cells per axis")
        if self.nx % 2 == 1 and self.ny % 2 == 1:
            raise ValueError("odd nx and ny would place a cell center at the origin")
        bound = self.stability_bound
        if self.dt_pde is None:
            object.__setattr__(self, "dt_pde", 0.5 * bound)
        elif not 0 < self.dt_pde <= bound:
            raise ValueError(f"dt_pde must be in (0, {bound:g}] for stability")

    @property
    def hx(self) -> float:
        return 2.0 * self.L / self.nx

    @property
    def hy(self) -> float:
        return 2.0 * self.L / self.ny

    @property
    def stability_bound(self) -> float:
        h2 = min(self.hx, self.hy) ** 2
        return h2 / (2.0 * (D_XX + D_YY))

    @property
    def x_centers(self) -> np.ndarray:
        return -self.L + (np.arange(self.nx) + 0.5) * self.hx

    @property
    def y_centers(self) -> np.ndarray:
        return -self.L + (np.arange(self.ny) + 0.5) * self.hy

    @property
    def x_edges(self) -> np.ndarray:
        return -self.L + np.arange(self.nx + 1) * self.hx

    def meshgrid(self):
        """(X, Y) with rows indexed by y and columns by x."""
        return np.meshgrid(self.x_centers, self.y_centers)


@dataclass(frozen=True)
class FpSolution:
    """Density field rho(t, x, y) over cell centers, rho[j, i] at (x_i, y_j)."""

    grid: FpGrid
    t: float
    rho: np.ndarray
    total_mass: float
    initial_mass: float = 0.0
    clipped_mass: float = 0.0
    steps: int = 0

    @property
    def mass_change(self) -> float:
        """Relative mass drift since t = 0 (clipping makes it either sign)."""
        if self.initial_mass == 0.0:
            return 0.0
        return self.total_mass / self.initial_mass - 1.0


def drift_field(model: ModelSpec, grid: FpGrid):
    """Drift components (u_x, u_y) at every cell center, uncapped.

    u_x = Im(d ln psi/dz) and u_y = -Re(d ln psi/dz), 0 at a node of psi
    as the drift's node rule gives (log_derivative_masked): the field the
    trajectory integrator steps in.  Near a node the speed grows as one over
    the distance; fp_step's InstabilityDetected guards the march against it.
    """
    if not isinstance(model, Eigenstate):
        raise TypeError("drift_field supports eigenstate models only")
    x, y = grid.meshgrid()
    g = log_derivative_masked(model, 0.0, x + 1j * y)[0]
    return np.imag(g), -np.real(g)


def fp_initial(n: int, grid: FpGrid) -> np.ndarray:
    """Initial density |H_n(x+iy)|^2 exp(-x^2-y^2) / (2^n n! sqrt(pi)).

    For n = 1 this is exactly (2/sqrt(pi)) (x^2+y^2) exp(-x^2-y^2).  The
    normalization follows the eigenfunction convention; the field's plane
    integral is not 1 (recorded as a diagnostic, and immaterial for the
    affine-invariant comparisons downstream).
    """
    return _initial_density(Eigenstate(n).n, *grid.meshgrid())


def _initial_density(n: int, x, y):
    """fp_initial's density at the points (x, y), through log|H_n|."""
    log_norm = n * math.log(2.0) + math.lgamma(n + 1) + 0.5 * math.log(math.pi)
    with np.errstate(over="ignore"):
        return np.exp(2.0 * hermite_log_abs(n, x + 1j * y) - x * x - y * y - log_norm)


def fp_step(solution: FpSolution, drift) -> FpSolution:
    """One explicit conservative FTCS update of the density field.

    Central differences throughout, 4-corner stencil for the cross
    derivative, zero-density ghost cells beyond all four edges.  Negative
    undershoot is clipped to zero and accumulated into clipped_mass.  A
    field that grows more than MAX_STEP_GROWTH-fold in one step, or stops
    being finite, raises InstabilityDetected.

    The per-cell operation order is part of the output contract: every cell
    evaluates

        new = rho + dt * ((((-div_x - div_y) + D_XX lap_x) - cross / 2) + D_YY lap_y)

    with div_x = (f[i+1] - f[i-1]) / (2 hx), lap_x = ((p[i+1] - 2 rho) + p[i-1]) / hx^2,
    cross = (((p[j+1,i+1] - p[j+1,i-1]) - p[j-1,i+1]) + p[j-1,i-1]) / (4 hx hy),
    in that association, and the terms are built in place in that order.
    Three rewrites of it are exact and used here: D_XX (t / h^2) is
    t / (h^2 / D_XX) and (t / (4 hx hy)) / 2 is t / (8 hx hy), because D_XX,
    D_YY and 1/2 are powers of two (exact while the quotients stay normal);
    and -div_x is (f[i-1] - f[i+1]) / (2 hx), which differs only in the sign
    of a zero.  That sign cannot reach new while rho holds no -0, which
    fp_initial and every clipped step guarantee.
    """
    grid = solution.grid
    hx, hy, dt = grid.hx, grid.hy, grid.dt_pde
    rho = solution.rho
    ux, uy = drift

    p = np.pad(rho, 1)
    flux = np.zeros_like(p)
    inner = flux[1:-1, 1:-1]
    two_rho = 2.0 * rho

    np.multiply(ux, rho, out=inner)
    acc = np.subtract(flux[1:-1, :-2], flux[1:-1, 2:])
    acc /= 2.0 * hx
    np.multiply(uy, rho, out=inner)
    term = np.subtract(flux[2:, 1:-1], flux[:-2, 1:-1])
    term /= 2.0 * hy
    acc -= term
    np.subtract(p[1:-1, 2:], two_rho, out=term)
    term += p[1:-1, :-2]
    term /= hx * hx / D_XX
    acc += term
    np.subtract(p[2:, 2:], p[2:, :-2], out=term)
    term -= p[:-2, 2:]
    term += p[:-2, :-2]
    term /= 8.0 * hx * hy
    acc -= term
    np.subtract(p[2:, 1:-1], two_rho, out=term)
    term += p[:-2, 1:-1]
    term /= hy * hy / D_YY
    acc += term
    acc *= dt
    new = np.add(rho, acc, out=acc)

    peak = max(float(new.max()), -float(new.min()))
    prev_peak = max(float(rho.max()), -float(rho.min()), 1e-300)
    if not peak <= MAX_STEP_GROWTH * prev_peak:
        raise InstabilityDetected(
            f"field peak went from {prev_peak:g} to {peak:g} in one step at t={solution.t:g}"
        )

    negative = new < 0.0
    clipped = float(-np.sum(new[negative]) * hx * hy)
    new[negative] = 0.0
    return replace(
        solution,
        t=solution.t + dt,
        rho=new,
        total_mass=float(np.sum(new) * hx * hy),
        clipped_mass=solution.clipped_mass + clipped,
        steps=solution.steps + 1,
    )


def fp_solve(model: ModelSpec, grid: FpGrid, t_final: float) -> FpSolution:
    """March the initial eigenstate density to t_final in the uncapped drift_field.

    Returns the solution with mass and clipping diagnostics.  Callers should
    reject fields whose clipped_mass is a sizable fraction of the initial
    mass; that signals an under-resolved grid rather than a usable solution.
    """
    if not isinstance(model, Eigenstate):
        raise TypeError("fp_solve supports eigenstate models only")
    if not 0 <= t_final < math.inf:
        raise ValueError("t_final must be finite and >= 0")
    rho0 = fp_initial(model.n, grid)
    mass0 = float(np.sum(rho0) * grid.hx * grid.hy)
    solution = FpSolution(grid=grid, t=0.0, rho=rho0, total_mass=mass0, initial_mass=mass0)
    n_steps = int(round(t_final / grid.dt_pde))
    if n_steps == 0:
        return solution
    drift = drift_field(model, grid)
    for _ in range(n_steps):
        solution = fp_step(solution, drift)
    return solution


def fp_marginal_x(solution: FpSolution) -> EmpiricalDensity:
    """x-marginal P(x_i) = sum_j rho[j, i] hy, renormalized to integrate to 1.

    Returned as an EmpiricalDensity on the grid's x-edges so it can feed the
    same Pearson machinery as the trajectory histograms (sample_count 0 marks
    it as an analytic density, not a sample estimate).
    """
    grid = solution.grid
    marginal = solution.rho.sum(axis=0) * grid.hy
    total = float(marginal.sum() * grid.hx)
    if total <= 0.0:
        raise ZeroMass("the field holds no mass")
    return EmpiricalDensity(
        bin_edges=grid.x_edges,
        densities=marginal / total,
        sample_count=0,
    )


def marginal_reference(solution: FpSolution):
    """The x-marginal as a function of x (linear interpolation); wrap it in a
    stats.Reference to compare a density against it."""
    marginal = fp_marginal_x(solution)
    centers, values = marginal.bin_centers, marginal.densities
    return lambda x: np.interp(x, centers, values)


def sample_eigenstate_positions(n: int, count: int, seed: int) -> np.ndarray:
    """Born launches: x-positions from |psi_n|^2 by inverse CDF on a fine
    grid, position j from draw j of the launch stream (sde.uniforms)."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    a = turning_point(n)
    grid = np.linspace(-(a + 3.0), a + 3.0, 200_001)
    cdf = np.cumsum(quantum_density_eigenstate(n, grid))
    cdf /= cdf[-1]
    return np.interp(uniforms(seed, np.arange(count)), cdf, grid)


def sample_initial_points(n: int, count: int, seed: int) -> np.ndarray:
    """Rejection-sample launch points from the fp_initial density, so the
    trajectories start from the distribution the PDE evolves.  Candidate k
    is uniform in the square |x|, |y| <= sqrt(2n + 1) + 2.5, made of draws
    3k, 3k + 1 and 3k + 2 of the launch stream (x, y and the acceptance
    test; sde.uniforms); the first `count` accepted are returned, in order.
    """
    half_width = turning_point(n) + 2.5
    probe = np.linspace(-half_width, half_width, 401)
    px, py = np.meshgrid(probe, probe)
    fmax = float(_initial_density(n, px, py).max()) * 1.25
    out = np.empty(count, dtype=complex)
    got = start = 0
    while got < count:
        m = 3 * (count - got) + 1000
        x, y, u = uniforms(seed, np.arange(3 * start, 3 * (start + m))).reshape(m, 3).T
        x, y = (2.0 * x - 1.0) * half_width, (2.0 * y - 1.0) * half_width
        accept = u * fmax < _initial_density(n, x, y)
        picked = (x + 1j * y)[accept][:count - got]
        out[got:got + picked.size] = picked
        got += picked.size
        start += m
    return out
