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

fp_step sweeps the grid in bands of rows that fit in a core's L2 cache, since
a whole-grid pass per term is bound by memory traffic at 400^2 cells.  The
sweep is exact: every cell's operations are unchanged, the bands' maxima and
minima merge exactly, and the negatives are concatenated in row-major order,
so the clipped-mass sum sees the same array as a whole-grid sweep would.
The setup fields go through the same row bands (_row_bands): fp_initial,
drift_field and sample_initial_points run the Hermite recurrence on one band
of points at a time, so their temporaries are a band's, not a dozen whole
fields.  Each cell's operations are again unchanged.  The recurrence times
its power-of-two rescales by its input's max|z|, beyond about 440; the ratio
in drift_field is exact under any rescale, and fp_initial passes the whole
grid's max|z| so that log|H_n| rescales as in one whole-grid call.  fp_solve
marches in two field buffers that fp_step fills in turn, so a step allocates
only its band's buffers.

A march of FORK_MIN_CELL_STEPS cells x steps or more runs on one process
per usable CPU: the calling one and workers forked once the drift is built,
as simulate_ensemble's are (sde._forked).  The two march buffers are then
anonymous shared mappings, fp_initial writing the initial field into one.
Each process takes an equal contiguous share of the rows (sde._share_bounds)
and sweeps it in _row_bands bands, so again no cell's operations change.  A
step is one one-byte handshake per worker; the caller then merges the
shares' extremes with np.max and np.min (a NaN still raises), joins the
negatives in row order, its own share first, and sums the whole new field
for total_mass, so every field of the solution is bit-identical to the
serial march's.  Smaller marches stay serial and never load multiprocessing.
"""

from __future__ import annotations

import contextlib
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .errors import InstabilityDetected, ZeroMass
from .sde import _forked, _share_bounds, _shared_empty, _worker_count, uniforms
from .stats import EmpiricalDensity
# _BAND_CELLS: cells per band of fp_step's sweep and of the setup fields
from .wavefield import (_BAND_CELLS, Eigenstate, ModelSpec, log_derivative_masked,
                        quantum_density_eigenstate, turning_point)
from .hermite import hermite_log_abs

#: diffusion coefficients along each axis; the cross coefficient is -1/4
D_XX = 0.25
D_YY = 0.25

#: one-step growth factor that triggers InstabilityDetected
MAX_STEP_GROWTH = 10.0

#: cells x steps from which fp_solve forks one worker per usable CPU.
#: On 2 vCPUs the fork costs 15-25 ms and each step a handshake: at n = 3,
#: 400^2 x 20 steps forked in 120 ms against 132 serially, 150^2 x 250 in
#: 179 against 176, and 100^2 x 400 in 186 against 172 (medians of 7 fresh
#: processes); the smaller a step, the later forking pays.
FORK_MIN_CELL_STEPS = 6_000_000


def _row_bands(ny: int, nx: int) -> list[slice]:
    """Consecutive slices of ny rows, each about _BAND_CELLS cells of nx
    (at least one row); the last may be shorter."""
    rows = min(ny, max(1, _BAND_CELLS // nx))
    return [slice(j0, min(j0 + rows, ny)) for j0 in range(0, ny, rows)]


def _band_centers(x, y):
    """(rows, x, y) per band of _row_bands over the points (x_i, y_j): x as
    a row and the band's y as a column, which broadcast to its points."""
    for band in _row_bands(y.size, x.size):
        yield band, x, y[band, None]


@dataclass(frozen=True)
class FpGrid:
    """Cell-centered square grid on [-L, L]^2.

    nx, ny count interior cells, integers by operator.index; centers sit at
    -L + (i + 1/2) h, so the coefficient singularity at the origin is on the
    grid only if both counts are odd, which the constructor rejects.  dt_pde
    must satisfy the explicit diffusion bound dt <= h^2 / (2 (D_XX + D_YY));
    the default takes half of it.
    """

    L: float = 5.0
    nx: int = 200
    ny: int = 200
    dt_pde: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "nx", operator.index(self.nx))
        object.__setattr__(self, "ny", operator.index(self.ny))
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
    #: the largest |u_x| and |u_y| of the drift field the march steps in
    speed_x: float = 0.0
    speed_y: float = 0.0

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
    Both are C-contiguous real arrays, computed band by band (_row_bands).
    """
    if not isinstance(model, Eigenstate):
        raise TypeError("drift_field supports eigenstate models only")
    ux, uy = np.empty((grid.ny, grid.nx)), np.empty((grid.ny, grid.nx))
    for band, x, y in _band_centers(grid.x_centers, grid.y_centers):
        g = log_derivative_masked(model, 0.0, x + 1j * y)[0]
        ux[band] = g.imag
        np.negative(g.real, out=uy[band])
    return ux, uy


def fp_initial(n: int, grid: FpGrid, _out=None) -> np.ndarray:
    """Initial density |H_n(x+iy)|^2 exp(-x^2-y^2) / (2^n n! sqrt(pi)).

    For n = 1 this is exactly (2/sqrt(pi)) (x^2+y^2) exp(-x^2-y^2).  The
    normalization follows the eigenfunction convention; the field's plane
    integral is not 1 (recorded as a diagnostic, and immaterial for the
    affine-invariant comparisons downstream).  Computed band by band
    (_row_bands), into a fresh array or into _out (fp_solve's march buffer).
    """
    n = Eigenstate(n).n
    centers = grid.x_centers, grid.y_centers
    # log|H_n|'s rescale cadence follows the largest |z|: the whole grid's
    # gives every band the values of one whole-grid call
    size = max(float(np.abs(x + 1j * y).max()) for _, x, y in _band_centers(*centers))
    rho = np.empty((grid.ny, grid.nx)) if _out is None else _out
    for band, x, y in _band_centers(*centers):
        rho[band] = _initial_density(n, x, y, size)
    return rho


def _initial_density(n: int, x, y, size=None):
    """fp_initial's density at the points (x, y), through log|H_n|; size is
    hermite_log_abs's _size."""
    log_norm = n * math.log(2.0) + math.lgamma(n + 1) + 0.5 * math.log(math.pi)
    with np.errstate(over="ignore"):
        return np.exp(2.0 * hermite_log_abs(n, x + 1j * y, _size=size) - x * x - y * y
                      - log_norm)


def fp_step(solution: FpSolution, drift, _out=None, _sweeps=None) -> FpSolution:
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

    The grid is swept in bands of whole rows, about _BAND_CELLS cells each,
    so that a band's operands and terms stay in cache.  A band copies its
    rows of rho, and one halo row on each side, into a slab bordered by
    zero columns; the flux slab is built the same way, and a halo row
    beyond the domain's edge is zero, as the ghost cells are.  Every cell
    thus sees the operands and operations of a whole-grid sweep, unchanged.
    The terms are built over the slab as one flat run, so a row's neighbour
    is w = nx + 2 cells away; the run also covers the border columns, whose
    values are never read.  Band extremes merge exactly (np.max and np.min,
    which propagate a NaN), and the negatives are collected in row-major
    order, so the clipped mass sums the same array as whole-grid clipping.

    The new field is a fresh array, unless fp_solve passes its spare march
    buffer as _out (of rho's shape, and not rho itself), which it fills.
    fp_solve's forked march passes _sweeps as well, which sweeps the row
    shares of all its processes (_forked_sweeps); a direct call is serial.
    """
    grid = solution.grid
    hx, hy, dt = grid.hx, grid.hy, grid.dt_pde
    rho = solution.rho
    new = np.empty_like(rho) if _out is None else _out
    if _sweeps is None:
        extremes = np.empty((1, 4))
        negatives = _sweep(grid, rho, drift, new, slice(0, rho.shape[0]), extremes[0])
    else:
        extremes, negatives = _sweeps(rho, new)

    # the shares' extremes, (rho max, rho min, new max, new min) each
    rho_high, high = np.max(extremes[:, 0::2], axis=0)
    rho_low, low = np.min(extremes[:, 1::2], axis=0)
    peak = max(float(high), -float(low))
    prev_peak = max(float(rho_high), -float(rho_low), 1e-300)
    if not peak <= MAX_STEP_GROWTH * prev_peak:
        raise InstabilityDetected(
            f"field peak went from {prev_peak:g} to {peak:g} in one step at t={solution.t:g}"
        )

    clipped = float(-np.sum(np.concatenate(negatives)) * hx * hy)
    return replace(
        solution,
        t=solution.t + dt,
        rho=new,
        total_mass=float(np.sum(new) * hx * hy),
        clipped_mass=solution.clipped_mass + clipped,
        steps=solution.steps + 1,
    )


def _sweep(grid: FpGrid, rho, drift, new, rows: slice, extremes) -> list:
    """fp_step's update of the given rows of new, in _row_bands bands of
    them: clips them, writes (max rho, min rho, max new, min new) over the
    rows, before clipping, into extremes, and returns the negatives clipped,
    a list in row-major order."""
    hx, hy, dt = grid.hx, grid.hy, grid.dt_pde
    ux, uy = drift
    ny, nx = rho.shape
    bands = _row_bands(rows.stop - rows.start, nx)
    size = bands[0].stop
    w = nx + 2

    # slab row r holds grid row j0 - 1 + r; columns 0 and w - 1 stay zero
    p_slab = np.zeros((size + 2, w))
    f_slab = np.zeros((size + 2, w))
    acc_buf, term_buf, two_buf = np.empty((3, size * w))
    rho_highs, rho_lows, highs, lows, negatives = [], [], [], [], []

    for band in bands:
        j0, j1 = rows.start + band.start, rows.start + band.stop
        b = j1 - j0
        lo, hi = max(j0 - 1, 0), min(j1 + 1, ny)
        halo = slice(lo - j0 + 1, hi - j0 + 1)
        band = rho[j0:j1]
        # a halo row beyond the domain's edge is zero; the copies below
        # overwrite the ones inside it
        for slab in (p_slab, f_slab):
            slab[0], slab[b + 1] = 0.0, 0.0
        p_slab[halo, 1:-1] = rho[lo:hi]
        np.multiply(ux[j0:j1], band, out=f_slab[1:b + 1, 1:-1])

        # the flat run starts at slab cell (1, 1) and ends at (b, nx)
        start, n = w + 1, b * w - 2
        p, f = p_slab.reshape(-1), f_slab.reshape(-1)

        def at(a, offset):
            return a[start + offset:start + offset + n]

        acc, term, two_rho = acc_buf[1:n + 1], term_buf[:n], two_buf[:n]
        np.multiply(at(p, 0), 2.0, out=two_rho)
        np.subtract(at(f, -1), at(f, 1), out=acc)
        acc /= 2.0 * hx
        np.multiply(uy[lo:hi], rho[lo:hi], out=f_slab[halo, 1:-1])
        np.subtract(at(f, w), at(f, -w), out=term)
        term /= 2.0 * hy
        acc -= term
        np.subtract(at(p, 1), two_rho, out=term)
        term += at(p, -1)
        term /= hx * hx / D_XX
        acc += term
        np.subtract(at(p, w + 1), at(p, w - 1), out=term)
        term -= at(p, 1 - w)
        term += at(p, -1 - w)
        term /= 8.0 * hx * hy
        acc -= term
        np.subtract(at(p, w), two_rho, out=term)
        term += at(p, -w)
        term /= hy * hy / D_YY
        acc += term
        acc *= dt
        out = np.add(band, acc_buf[:b * w].reshape(b, w)[:, 1:-1], out=new[j0:j1])

        rho_highs.append(band.max())
        rho_lows.append(band.min())
        highs.append(out.max())
        lows.append(out.min())
        negative = out < 0.0
        negatives.append(out[negative])
        out[negative] = 0.0

    extremes[:] = np.max(rho_highs), np.min(rho_lows), np.max(highs), np.min(lows)
    return negatives


def fp_solve(model: ModelSpec, grid: FpGrid, t_final: float) -> FpSolution:
    """March the initial eigenstate density to t_final in the uncapped drift_field.

    It takes round(t_final / dt_pde) steps, so the solution's t can differ
    from t_final by up to dt_pde / 2 (t_final = 1 on a 50^2 grid with L = 6
    ends at t = 1.008); compare it with an oracle at solution.t, not at
    t_final.  Returns the solution with mass and clipping diagnostics.
    Callers should reject fields whose clipped_mass is a sizable fraction of
    the initial mass; that signals an under-resolved grid rather than a
    usable solution.  The march fills two field buffers in turn, so a step
    allocates no new field.  The drift field is built even for 0 steps, and
    its largest |u_x| and |u_y| are the solution's speed_x and speed_y.

    A march of FORK_MIN_CELL_STEPS cells x steps or more runs on one
    process per usable CPU, as simulate_ensemble's default does, each
    sweeping an equal contiguous share of the rows; this process merges the
    shares' extremes, joins their negatives in row order, its own share
    first, and sums the whole field, so the solution is bit-identical to the
    serial march's (see the module docstring).  Its rho is then an anonymous
    shared mapping.  A smaller march runs serially and never loads
    multiprocessing.  A worker that dies raises ChildProcessError, and no
    worker outlives the call.
    """
    if not isinstance(model, Eigenstate):
        raise TypeError("fp_solve supports eigenstate models only")
    if not 0 <= t_final < math.inf:
        raise ValueError("t_final must be finite and >= 0")
    steps = int(round(t_final / grid.dt_pde))
    workers = _worker_count(0, grid.ny, grid.nx * grid.ny * steps, FORK_MIN_CELL_STEPS)
    empty = _shared_empty if workers > 1 else np.empty
    rho0 = fp_initial(model.n, grid, _out=empty((grid.ny, grid.nx)))
    mass0 = float(np.sum(rho0) * grid.hx * grid.hy)
    drift = drift_field(model, grid)
    # max and min, not abs, so that no whole-field temporary is made
    speed_x, speed_y = (max(float(u.max()), -float(u.min())) for u in drift)
    solution = FpSolution(grid=grid, t=0.0, rho=rho0, total_mass=mass0, initial_mass=mass0,
                          speed_x=speed_x, speed_y=speed_y)
    spare = empty((grid.ny, grid.nx))
    with _forked_sweeps(grid, (rho0, spare), drift, workers) as sweeps:
        for _ in range(steps):
            rho = solution.rho
            solution = fp_step(solution, drift, _out=spare, _sweeps=sweeps)
            spare = rho
    return solution


@contextlib.contextmanager
def _forked_sweeps(grid: FpGrid, buffers, drift, workers: int):
    """fp_step's _sweeps for a march in the two shared buffers: a function
    of (rho, new) that sweeps row share 0 here and share k in forked worker
    k (sde._forked), and returns the shares' extremes and the negatives in
    row order.  None for a serial march.

    Each step is one handshake per worker over its pipe: the byte sent is
    the index of rho's buffer, and the byte back means that the worker's
    extremes (row k of a shared array), negative count and negatives (at its
    share's offset in a shared spill array) are written."""
    if workers == 1:
        yield None
        return
    bounds = _share_bounds(grid.ny, workers)
    extremes = _shared_empty((workers, 4))
    counts = _shared_empty(workers, dtype=np.int64)
    spill = _shared_empty(grid.ny * grid.nx)
    with _forked(workers, _sweep_share, grid, buffers, drift, bounds, extremes, counts,
                 spill) as conns:

        def sweeps(rho, new):
            index = bytes([rho is buffers[1]])
            try:
                for conn in conns:
                    conn.send_bytes(index)
                negatives = _sweep(grid, rho, drift, new, slice(*bounds[:2]), extremes[0])
                for conn in conns:
                    conn.recv_bytes()
            except (EOFError, ConnectionError):
                raise ChildProcessError("an fp_solve worker exited mid-march") from None
            for k in range(1, workers):
                offset = bounds[k] * grid.nx
                negatives.append(spill[offset:offset + counts[k]])
            return extremes, negatives

        yield sweeps


def _sweep_share(conn, k, grid, buffers, drift, bounds, extremes, counts, spill):
    """Worker k of _forked_sweeps: sweeps row share k of the buffer named by
    each byte it receives into the other one, until its pipe closes."""
    rows = slice(bounds[k], bounds[k + 1])
    offset = rows.start * grid.nx
    while True:
        try:
            index = conn.recv_bytes()[0]
        except EOFError:
            return
        negatives = _sweep(grid, buffers[index], drift, buffers[1 - index], rows, extremes[k])
        counts[k] = sum(negative.size for negative in negatives)
        np.concatenate(negatives, out=spill[offset:offset + counts[k]])
        conn.send_bytes(b"\1")


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
    The probe grid that bounds the density, and the candidates, go band by
    band: _BAND_CELLS candidates at a time.
    """
    half_width = turning_point(n) + 2.5
    probe = np.linspace(-half_width, half_width, 401)
    # |z| < 21 here, far below the 440 from which a recurrence pair can be
    # tested for a rescale, so the bands and batches need no common _size
    fmax = max(float(_initial_density(n, x, y).max())
               for _, x, y in _band_centers(probe, probe)) * 1.25
    out = np.empty(count, dtype=complex)
    got = start = 0
    while got < count:
        stop = start + _BAND_CELLS
        x, y, u = uniforms(seed, np.arange(3 * start, 3 * stop)).reshape(-1, 3).T
        x, y = (2.0 * x - 1.0) * half_width, (2.0 * y - 1.0) * half_width
        accept = u * fmax < _initial_density(n, x, y)
        picked = (x + 1j * y)[accept][:count - got]
        out[got:got + picked.size] = picked
        got += picked.size
        start = stop
    return out
