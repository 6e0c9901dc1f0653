"""Deterministic multi-agent rendezvous simulation.

Point-mass agreement protocols over communication graphs pick the
meeting point; a full rigid-body quadcopter model with an open-loop
maneuver planner flies there. Everything is fixed-step and seedless,
so identical inputs reproduce identical outputs byte for byte on one
numpy build and one BLAS kernel. The quad CSVs never touch BLAS and
hold on any kernel; particle.csv and report.json pass through BLAS and
LAPACK, so another kernel can change them.
"""

from .consensus import (ConsensusTrajectory, closed_form_state,
                        consensus_point, integrate_protocol, lyapunov,
                        straightness_residual, sym_eigen)
from .errors import (ConvergenceError, DisconnectedError, DivergenceError,
                     DomainError, GimbalLockError, InfeasibleError, IoError,
                     ParseError, SaturationError, SwarmError, ValidationError)
from .mission import (AgentReport, ComparisonReport, MissionConfig,
                      export_csv, load_config, run_mission)
from .network import (DistanceWeighted, Laplacian, Network, StaticWeights,
                      Unweighted, is_connected, laplacian,
                      weighted_laplacian_at)
from .planner import (OMEGA_MAX, ControlSchedule, ManeuverSpec,
                      axis_translation_schedule, chain_schedules,
                      hover_controls, hover_schedule, rendezvous_leg,
                      schedule_for, vertical_schedule, yaw_schedule)
from .quad import (GIMBAL_EPS, Controls, QuadParams, QuadState,
                   QuadTrajectory, affine_fields, default_params,
                   geodesic_spray, hover_state, simulate, state_derivative)

__version__ = "0.1.0"

__all__ = [
    "AgentReport", "ComparisonReport", "ConsensusTrajectory",
    "ControlSchedule", "Controls", "ConvergenceError", "DisconnectedError",
    "DistanceWeighted", "DivergenceError", "DomainError", "GIMBAL_EPS",
    "GimbalLockError", "InfeasibleError", "IoError", "Laplacian",
    "ManeuverSpec", "MissionConfig", "Network", "OMEGA_MAX", "ParseError",
    "QuadParams", "QuadState", "QuadTrajectory", "SaturationError",
    "StaticWeights", "SwarmError", "Unweighted", "ValidationError",
    "affine_fields", "axis_translation_schedule", "chain_schedules",
    "closed_form_state", "consensus_point", "default_params",
    "export_csv", "geodesic_spray", "hover_controls", "hover_schedule",
    "hover_state", "integrate_protocol", "is_connected", "laplacian",
    "load_config", "lyapunov", "rendezvous_leg", "run_mission",
    "schedule_for", "simulate", "state_derivative", "straightness_residual",
    "sym_eigen", "vertical_schedule", "weighted_laplacian_at",
    "yaw_schedule",
]
