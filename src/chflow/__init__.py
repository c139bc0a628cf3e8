"""Periodic 1D laboratory for degenerate fourth-order interface dynamics
and their transport-metric limit."""

__version__ = "0.1.0"

from .diagnostics import (
    calibrate_delta,
    energy_dissipation_audit,
    well_preparedness,
    wrinkling_report,
)
from .functionals import EnergyReport, energy_eps, energy_report, energy_star, slope_eps, slope_star
from .harness import (
    ExperimentConfig,
    InitialData,
    experiment_from_dict,
    generate_initial,
    load_config,
    run_single,
    run_sweep,
)
from .jko import JkoConfig, simulate_jko
from .nonlocal_model import (
    KernelSpec,
    compare_local_nonlocal,
    energy_nonlocal,
    make_kernel,
    simulate_nonlocal,
)
from .potential import (
    ConvexEnvelope,
    HypothesisViolation,
    PotentialSpec,
    UnstableSet,
    canonical_names,
    compute_convex_envelope,
    compute_unstable_set,
    from_polynomial,
    make_potential,
    validate_hypotheses,
)
from .solvers import SolverConfig, TrajectoryRecord, simulate_eps, simulate_limit
from .wasserstein1d import DensityField, geodesic, to_density, to_quantiles, w2_periodic

__all__ = [
    "ConvexEnvelope",
    "DensityField",
    "EnergyReport",
    "ExperimentConfig",
    "HypothesisViolation",
    "InitialData",
    "JkoConfig",
    "KernelSpec",
    "PotentialSpec",
    "SolverConfig",
    "TrajectoryRecord",
    "UnstableSet",
    "calibrate_delta",
    "canonical_names",
    "compare_local_nonlocal",
    "compute_convex_envelope",
    "compute_unstable_set",
    "energy_dissipation_audit",
    "energy_eps",
    "energy_nonlocal",
    "energy_star",
    "experiment_from_dict",
    "from_polynomial",
    "generate_initial",
    "geodesic",
    "load_config",
    "energy_report",
    "slope_eps",
    "slope_star",
    "make_kernel",
    "make_potential",
    "run_single",
    "run_sweep",
    "simulate_eps",
    "simulate_jko",
    "simulate_limit",
    "simulate_nonlocal",
    "to_density",
    "to_quantiles",
    "validate_hypotheses",
    "w2_periodic",
    "well_preparedness",
    "wrinkling_report",
]
