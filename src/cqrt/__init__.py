"""Stochastic quantum trajectories in the complex plane.

Simulates ensembles of noisy trajectories driven by a wavefunction's
log-derivative, extracts axis-crossing and projection statistics, compares
them with analytic quantum and classical densities, and cross-validates the
trajectory statistics against a finite-difference solution of the matching
Fokker-Planck equation.
"""

from .errors import (
    AllOutOfRange,
    CqrtError,
    DegenerateVariance,
    EmptyResult,
    InstabilityDetected,
    NearNode,
    NumericalBlowup,
    TimeNotRecorded,
    ZeroMass,
)
from .fpe import (
    FpGrid,
    FpSolution,
    drift_field,
    fp_initial,
    fp_marginal_x,
    fp_solve,
    fp_step,
    sample_eigenstate_positions,
    sample_initial_points,
)
from .hermite import hermite_log_abs
from .sde import (
    NOISE_FACTOR,
    Ensemble,
    SimulationConfig,
    Trajectory,
    crossing_interpolation,
    derive_seed,
    noise_increment,
    simulate_ensemble,
    standard_normals,
)
from .stats import (
    ComparisonReport,
    EmpiricalDensity,
    Reference,
    build_density,
    classical_reference,
    eigenstate_bin_range,
    eigenstate_reference,
    extract_point_set_a,
    extract_point_set_b,
    gaussian_bin_range,
    gaussian_reference,
    pearson,
    snapshot_positions,
)
from .wavefield import (
    Eigenstate,
    GaussianPacket,
    classical_density,
    classical_density_binned,
    log_derivative,
    quantum_density_eigenstate,
    quantum_density_gaussian,
    turning_point,
)

__version__ = "0.1.0"

__all__ = [
    "AllOutOfRange",
    "ComparisonReport",
    "CqrtError",
    "DegenerateVariance",
    "EmptyResult",
    "Eigenstate",
    "EmpiricalDensity",
    "Ensemble",
    "FpGrid",
    "FpSolution",
    "GaussianPacket",
    "InstabilityDetected",
    "NOISE_FACTOR",
    "NearNode",
    "NumericalBlowup",
    "Reference",
    "SimulationConfig",
    "TimeNotRecorded",
    "Trajectory",
    "ZeroMass",
    "build_density",
    "classical_density",
    "classical_density_binned",
    "classical_reference",
    "crossing_interpolation",
    "derive_seed",
    "drift_field",
    "eigenstate_bin_range",
    "eigenstate_reference",
    "extract_point_set_a",
    "extract_point_set_b",
    "fp_initial",
    "fp_marginal_x",
    "fp_solve",
    "fp_step",
    "gaussian_bin_range",
    "gaussian_reference",
    "hermite_log_abs",
    "log_derivative",
    "noise_increment",
    "pearson",
    "quantum_density_eigenstate",
    "quantum_density_gaussian",
    "sample_eigenstate_positions",
    "sample_initial_points",
    "simulate_ensemble",
    "snapshot_positions",
    "standard_normals",
    "turning_point",
]
