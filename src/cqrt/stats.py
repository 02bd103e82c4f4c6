"""Point-set extraction, histogram densities, and Pearson comparison.

Point set A collects the interpolated x-axis crossings of an ensemble's paths;
point set B collects the real parts of every recorded path point.  Histograms
of either are compared against analytic reference densities by the Pearson
correlation coefficient, which is invariant under positive affine rescaling of
both inputs.

One time rule (select_window) picks both sets, snapshots and the samples of
`cqrt analyze`: window ends are included within 1e-12 * max(1, |lo|, |hi|),
and a snapshot at t is the step round(t / dt) * dt that --snapshots records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AllOutOfRange, DegenerateVariance, EmptyResult, TimeNotRecorded
from .sde import Ensemble
from .wavefield import (
    Eigenstate,
    classical_density,
    classical_density_binned,
    quantum_density_eigenstate,
    quantum_density_gaussian,
    turning_point,
)


@dataclass(frozen=True)
class EmpiricalDensity:
    """Normalized uniform-width histogram over the in-range samples."""

    bin_edges: np.ndarray
    densities: np.ndarray
    sample_count: int
    out_of_range: int = 0

    def __post_init__(self):
        if self.sample_count > 0:
            total = float(np.sum(self.densities) * self.bin_width)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"density does not integrate to 1 (got {total!r})")

    @property
    def bin_width(self) -> float:
        return float(self.bin_edges[1] - self.bin_edges[0])

    @property
    def bin_centers(self) -> np.ndarray:
        return 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])

    @property
    def stderr(self) -> np.ndarray:
        """Per-bin binomial standard error of the density estimate."""
        if self.sample_count == 0:
            return np.zeros_like(self.densities)
        p = self.densities * self.bin_width
        return np.sqrt(np.maximum(p * (1.0 - p), 0.0) / self.sample_count) / self.bin_width


@dataclass(frozen=True)
class ComparisonReport:
    """Pearson comparison of an empirical density against a named reference."""

    gamma: float
    bins: int
    range: tuple
    reference_name: str
    sample_count: int


@dataclass(frozen=True)
class Reference:
    """A reference density: pointwise values plus an optional per-bin rule."""

    name: str
    at: Callable
    on_bins: Callable | None = None

    def evaluate(self, bin_edges: np.ndarray) -> np.ndarray:
        if self.on_bins is not None:
            return np.asarray(self.on_bins(bin_edges), dtype=float)
        centers = 0.5 * (bin_edges[:-1] + bin_edges[1:])
        return np.asarray(self.at(centers), dtype=float)


def eigenstate_reference(n: int) -> Reference:
    n = Eigenstate(n).n  # rejects a bad n here, not at evaluation
    return Reference(f"quantum_eigenstate(n={n})", lambda x: quantum_density_eigenstate(n, x))


def gaussian_reference(p0: float, t: float) -> Reference:
    quantum_density_gaussian(p0, t, 0.0)  # rejects a non-finite p0 or t here, not at evaluation
    return Reference(f"quantum_gaussian(p0={p0}, t={t})",
                     lambda x: quantum_density_gaussian(p0, t, x))


def classical_reference(n: int) -> Reference:
    """Classical sojourn density with the bin-averaged turning-point rule."""
    n = Eigenstate(n).n  # rejects a bad n here, not at evaluation
    return Reference(f"classical(n={n})", lambda x: classical_density(n, x),
                     on_bins=lambda edges: classical_density_binned(n, edges))


def select_window(times, values, window) -> np.ndarray:
    """A new array of the entries of values (one per time, along the first
    axis) whose time lies in window = (lo, hi), or of all if window is None.
    Both ends are included within 1e-12 * max(1, |lo|, |hi|), so a multiple of
    dt matches the decimal end that names it.  Raises EmptyResult if empty.
    """
    lo, hi = (-np.inf, np.inf) if window is None else (float(window[0]), float(window[1]))
    if hi < lo:
        raise ValueError("window must satisfy t_min <= t_max")
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))
    out = values[(times >= lo - tol) & (times <= hi + tol)]
    if out.size == 0:
        raise EmptyResult(f"nothing recorded in window [{lo}, {hi}]")
    return out


def step_time(t: float, dt: float) -> float:
    """round(t / dt) * dt: the time of the step that records snapshot time t.
    Raises ValueError for a time that is not finite."""
    if not math.isfinite(t):
        raise ValueError(f"time {t} is not finite")
    return round(t / dt) * dt


def select_snapshot(times, values, t: float, dt: float) -> np.ndarray:
    """select_window over [s, s] with s = step_time(t, dt).  Raises
    TimeNotRecorded if that step was not recorded."""
    s = step_time(t, dt)
    try:
        return select_window(times, values, (s, s))
    except EmptyResult:
        raise TimeNotRecorded(f"time {t} (step time {s:.6g}) was not recorded") from None


def _live_records(ensemble: Ensemble) -> np.ndarray:
    """Re(z) of the live trajectories, one row per recorded time; the record
    array itself when every path is alive, so selecting from it copies once."""
    if ensemble.x is None:
        raise ValueError("record mode did not retain path points")
    return ensemble.x if ensemble.alive.all() else ensemble.x[:, ensemble.alive]


def extract_point_set_a(ensemble: Ensemble, window=None) -> np.ndarray:
    """x-values where paths met the real axis, within the time window.

    The axis points are the launches with y exactly 0, at t = 0, and one
    point per Euler step that starts off the axis and ends on it or past it,
    where the step's straight segment meets it (sde.crossing_interpolation).
    Diverged paths contribute nothing.
    """
    return select_window(ensemble.crossing_times, ensemble.crossing_x, window)


def extract_point_set_b(ensemble: Ensemble, window=None) -> np.ndarray:
    """Real parts of every recorded path point in the window, all live
    trajectories, in time-major order."""
    return select_window(ensemble.times, _live_records(ensemble), window).ravel()


def snapshot_positions(ensemble: Ensemble, t: float) -> np.ndarray:
    """Re(z) of every live trajectory at the recorded step of time t (see
    select_snapshot)."""
    return select_snapshot(ensemble.times, _live_records(ensemble), t, ensemble.config.dt)[0]


def build_density(samples, bins: int, range: tuple) -> EmpiricalDensity:  # noqa: A002
    """Uniform histogram normalized over the in-range samples.

    Out-of-range samples are excluded (not clamped) and reported via the
    out_of_range field.
    """
    samples = np.asarray(samples, dtype=float)
    if bins < 2:
        raise ValueError("bins must be >= 2")
    lo, hi = float(range[0]), float(range[1])
    if not lo < hi:
        raise ValueError("range must satisfy lo < hi")
    if samples.size == 0:
        raise EmptyResult("no samples to bin")
    counts, edges = np.histogram(samples, bins=bins, range=(lo, hi))
    in_range = int(counts.sum())
    if in_range == 0:
        raise AllOutOfRange(f"all {samples.size} samples outside [{lo}, {hi}]")
    width = edges[1] - edges[0]
    return EmpiricalDensity(
        bin_edges=edges,
        densities=counts / (in_range * width),
        sample_count=in_range,
        out_of_range=samples.size - in_range,
    )


def correlation(u, v) -> float:
    """Pearson correlation of two equal-length vectors; DegenerateVariance if one is constant."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.size != v.size:
        raise ValueError("the vectors' lengths differ")
    a = u - u.mean()
    b = v - v.mean()
    va = float(a @ a)
    vb = float(b @ b)
    if va == 0.0 or vb == 0.0:
        raise DegenerateVariance("one of the vectors is constant")
    return float(a @ b / np.sqrt(va * vb))


def pearson(empirical: EmpiricalDensity, reference: Reference) -> ComparisonReport:
    """Pearson correlation between the density vector and the reference's
    values on the same bins (its per-bin rule where it has one, as the
    classical density does, else its values at the bin centers)."""
    emp = np.asarray(empirical.densities, dtype=float)
    return ComparisonReport(
        gamma=correlation(emp, reference.evaluate(empirical.bin_edges)),
        bins=emp.size,
        range=(float(empirical.bin_edges[0]), float(empirical.bin_edges[-1])),
        reference_name=reference.name,
        sample_count=empirical.sample_count,
    )


def eigenstate_bin_range(n: int) -> tuple:
    """Default histogram range for eigenstate statistics: +-(A + 2)."""
    a = turning_point(n)
    return (-(a + 2.0), a + 2.0)


def gaussian_bin_range(p0: float, t: float) -> tuple:
    """Default histogram range for the packet: center +- 5 sigma(t)."""
    center = p0 * t
    sigma = np.sqrt((1.0 + t * t) / 2.0)
    return (center - 5.0 * sigma, center + 5.0 * sigma)
