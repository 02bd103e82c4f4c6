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
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NearNode
from .hermite import hermite_ratio_masked

#: largest supported and tested quantum number; Eigenstate rejects larger n
MAX_QUANTUM_NUMBER = 70

DRIFT_FORMS = ("exact", "simplified")

#: points per block of the eigenstate kernels (_normalized_psi here, fpe's
#: row bands): a block's buffers and temporaries fit in a core's L2 cache
_BAND_CELLS = 32768


@dataclass(frozen=True)
class Eigenstate:
    """Stationary oscillator eigenstate psi_n; n is an integer by
    operator.index (a numpy integer will do, 1.5 raises TypeError)."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", operator.index(self.n))
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
        if not math.isfinite(self.p0):
            raise ValueError(f"p0 must be finite, got {self.p0}")
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
    """d ln(psi)/dz of the model at time t, raising NearNode if any point is
    at a node: log_derivative_masked's values bit for bit, a complex for a
    scalar z (a list is an array).  The one public raising wrapper."""
    values, near = log_derivative_masked(model, t, z)
    if np.any(near):
        raise NearNode(f"{model} has a node at {np.count_nonzero(near)} point(s)")
    return complex(values) if np.ndim(z) == 0 else values


def _normalized_psi(n, x):
    """Unit-normalized oscillator eigenfunction psi_n on the real line.

    Uses the normalized recurrence psi_{k+1} = sqrt(2/(k+1)) x psi_k
    - sqrt(k/(k+1)) psi_{k-1}, which keeps every intermediate bounded, so no
    overflow occurs for any n (the 2^n n! normalization never materializes).
    psi_n is 0 where the Gaussian factor's exponent -x^2/2 overflows
    (|x| >= 1.9e154, and +-inf); NaN stays NaN.  The recurrence runs over
    _BAND_CELLS points at a time in four buffers that stay in cache.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty(flat.shape)
    xb, prev, cur, term = np.empty((4, min(flat.size, _BAND_CELLS)))
    for lo in range(0, flat.size, _BAND_CELLS):
        m = min(flat.size - lo, _BAND_CELLS)
        xk, psi_prev, psi_cur, t = xb[:m], prev[:m], cur[:m], term[:m]
        np.copyto(xk, flat[lo:lo + m])
        np.multiply(xk, -0.5, out=t)
        with np.errstate(over="ignore"):
            t *= xk
        # psi_n is 0 where the exponent overflowed: a 0 in place of x keeps
        # the recurrence's products there at 0, not inf * 0
        np.copyto(xk, 0.0, where=np.isinf(t))
        np.exp(t, out=t)
        np.multiply(t, np.pi ** -0.25, out=psi_prev)
        if n > 0:
            np.multiply(xk, math.sqrt(2.0), out=psi_cur)
            psi_cur *= psi_prev
        for k in range(1, n):
            np.multiply(xk, math.sqrt(2.0 / (k + 1)), out=t)
            t *= psi_cur
            psi_prev *= math.sqrt(k / (k + 1.0))
            np.subtract(t, psi_prev, out=psi_prev)
            psi_prev, psi_cur = psi_cur, psi_prev
        out[lo:lo + m] = psi_cur if n > 0 else psi_prev
    return out.reshape(x.shape)


def quantum_density_eigenstate(n: int, x):
    """|psi_n(x)|^2, integrating to 1 over the real line."""
    scalar = np.ndim(x) == 0
    psi = _normalized_psi(Eigenstate(n).n, x)
    out = psi * psi
    return float(out) if scalar else out


def quantum_density_gaussian(p0: float, t: float, x):
    """|psi(t, x)|^2 of the packet: a Gaussian of variance (1 + t^2)/2 centered
    at p0*t.  Raises ValueError for a p0 or t that is not finite."""
    for name, value in (("p0", p0), ("t", t)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    out = np.exp(-((x - p0 * t) ** 2) / (1.0 + t * t)) / np.sqrt(np.pi * (1.0 + t * t))
    return float(out) if scalar else out


def turning_point(n: int) -> float:
    """Classical amplitude A = sqrt(2n + 1) at the eigenstate energy n + 1/2."""
    return math.sqrt(2.0 * Eigenstate(n).n + 1.0)


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

