"""Wavefunction models, their log-derivatives, and reference densities.

Two models drive the stochastic dynamics: a harmonic-oscillator eigenstate
(quantum number n) and a free Gaussian packet with initial momentum p0.  The
drift of the Langevin equation is -i times the log-derivative evaluated here.
Units are dimensionless throughout (hbar = m = omega = 1).

All functions accept scalars or numpy arrays and are pure; they are safe to
call from any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermite import hermite_ratio_masked, raise_at_nodes

#: largest supported and tested quantum number; Eigenstate rejects larger n
MAX_QUANTUM_NUMBER = 70

DRIFT_FORMS = ("exact", "simplified")


@dataclass(frozen=True)
class Eigenstate:
    """Stationary oscillator eigenstate psi_n."""

    n: int

    def __post_init__(self):
        if not 0 <= self.n <= MAX_QUANTUM_NUMBER:
            raise ValueError(f"quantum number must be in [0, {MAX_QUANTUM_NUMBER}], "
                             f"got {self.n}")


@dataclass(frozen=True)
class GaussianPacket:
    """Free Gaussian packet with momentum p0.

    drift_form selects how the drift is computed:
      * "exact": direct differentiation of the packet wavefunction,
        d ln(psi)/dz = i*p0 - (z - p0*t)/(1 + i*t).
      * "simplified": a simplified center-relaxation form whose drift is
        -i*(z - p0*t)/(1 + t^2), i.e. log-derivative (z - p0*t)/(1 + t^2);
        it drops the carrier momentum and the rotational part of the exact
        coefficient.
    """

    p0: float
    drift_form: str = "exact"

    def __post_init__(self):
        if self.drift_form not in DRIFT_FORMS:
            raise ValueError(f"drift_form must be one of {DRIFT_FORMS}")


# either model variant
ModelSpec = Eigenstate | GaussianPacket


def log_derivative_masked(model: ModelSpec, t, z):
    """d ln(psi)/dz of the model at time t, as (values, node_mask): the one
    drift implementation, which the integrator and the FPE solver call.

    For psi_n it is -z + 2n H_{n-1}(z)/H_n(z) at every t; node_mask marks the
    zeros of H_n, where the value is 0 (the node rule).  A packet has no nodes.
    """
    z = np.asarray(z, dtype=complex)
    if isinstance(model, GaussianPacket):
        if model.drift_form == "exact":
            g = 1j * model.p0 - (z - model.p0 * t) / (1.0 + 1j * t)
        else:
            g = (z - model.p0 * t) / (1.0 + t * t) + 0j
        return g, np.zeros(z.shape, dtype=bool)
    if model.n == 0:
        return -z, np.zeros(z.shape, dtype=bool)
    ratio, near = hermite_ratio_masked(model.n, z)
    ratio *= 2.0 * model.n
    return np.subtract(ratio, z, out=ratio, where=~near), near


def log_derivative(model: ModelSpec, t, z):
    """d ln(psi)/dz of the configured model (raises NearNode at nodes)."""
    return raise_at_nodes(log_derivative_masked(model, t, z), z, model)


def eigenstate_log_derivative(n: int, z):
    """d ln(psi_n)/dz, time-independent (raises NearNode at zeros of H_n)."""
    return log_derivative(Eigenstate(n), 0.0, z)


def gaussian_log_derivative(p0: float, t: float, z, form: str = "exact"):
    """d ln(psi)/dz for the Gaussian packet at time t >= 0."""
    return log_derivative(GaussianPacket(p0, form), t, z)


def _normalized_psi(n, x):
    """Unit-normalized oscillator eigenfunction psi_n on the real line.

    Uses the normalized recurrence psi_{k+1} = sqrt(2/(k+1)) x psi_k
    - sqrt(k/(k+1)) psi_{k-1}, which keeps every intermediate bounded, so no
    overflow occurs for any n (the 2^n n! normalization never materializes).
    """
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


def quantum_density_eigenstate(n: int, x):
    """|psi_n(x)|^2, integrating to 1 over the real line."""
    scalar = np.ndim(x) == 0
    psi = _normalized_psi(n, x)
    out = psi * psi
    return float(out) if scalar else out


def quantum_density_gaussian(p0: float, t: float, x):
    """|psi(t, x)|^2 of the packet: a Gaussian of variance (1 + t^2)/2 centered at p0*t."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    out = np.exp(-((x - p0 * t) ** 2) / (1.0 + t * t)) / np.sqrt(np.pi * (1.0 + t * t))
    return float(out) if scalar else out


def turning_point(n: int) -> float:
    """Classical amplitude A = sqrt(2n + 1) at the eigenstate energy n + 1/2."""
    return math.sqrt(2.0 * n + 1.0)


def classical_density(n: int, x):
    """Fixed-energy classical sojourn density 1/(pi sqrt(A^2 - x^2)).

    Zero for |x| >= A.  The inverse-square-root edge divergence is handled by
    classical_density_binned for plotting and correlation work.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    a = turning_point(n)
    inside = np.abs(x) < a
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.where(inside, 1.0 / (np.pi * np.sqrt(np.maximum(a * a - x * x, 0.0))), 0.0)
    return float(vals) if scalar else vals


def _classical_cdf(n, x):
    # antiderivative of the sojourn density: arcsin(x/A)/pi (+ constant)
    a = turning_point(n)
    return np.arcsin(np.clip(np.asarray(x, dtype=float) / a, -1.0, 1.0)) / np.pi


def classical_density_binned(n: int, bin_edges) -> np.ndarray:
    """Classical density per bin: center value, capped at the analytic bin average.

    The cap replaces the divergent values near the turning points +-A with the
    exact bin-averaged mass, so correlations against histograms are not
    dominated by a single singular bin.  A bin that straddles a turning point
    always takes its bin average (its center value, 0 or huge, is meaningless
    there).
    """
    a = turning_point(n)
    edges = np.asarray(bin_edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    centers = 0.5 * (lo + hi)
    avg = (_classical_cdf(n, hi) - _classical_cdf(n, lo)) / (hi - lo)
    point = classical_density(n, centers)
    straddle = ((lo < a) & (hi > a)) | ((lo < -a) & (hi > -a))
    return np.where(straddle | (point > avg), avg, point)


def sample_eigenstate_positions(n: int, count: int, seed: int) -> np.ndarray:
    """Draw x-positions from |psi_n|^2 by inverse CDF on a fine grid.

    Deterministic for a given seed; used to launch Born-distributed ensembles.
    """
    a = turning_point(n)
    grid = np.linspace(-(a + 3.0), a + 3.0, 200_001)
    pdf = quantum_density_eigenstate(n, grid)
    cdf = np.cumsum(pdf)
    cdf /= cdf[-1]
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.interp(rng.random(count), cdf, grid)
