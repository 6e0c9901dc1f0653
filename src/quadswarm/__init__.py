"""Deterministic multi-agent rendezvous simulation.

Point-mass agreement protocols over communication graphs pick the
meeting point; a full rigid-body quadcopter model with an open-loop
maneuver planner flies there. Everything is fixed-step and seedless,
so identical inputs reproduce identical outputs byte for byte.
"""

from .consensus import (ConsensusTrajectory, closed_form_state,
                        consensus_point, convergence_rate,
                        integrate_protocol, lyapunov, straightness_residual)
from .errors import (ConvergenceError, DimensionError, DisconnectedError,
                     DivergenceError, DomainError, GimbalLockError,
                     InfeasibleError, IoError, ParseError, PolicyError,
                     SaturationError, ScheduleGapError, SwarmError,
                     ValidationError)
from .mission import (AgentReport, ComparisonReport, MissionConfig,
                      compare_trajectories, export_csv, load_config,
                      run_mission)
from .network import (DistanceWeighted, Laplacian, Network, StaticWeights,
                      Unweighted, add_proximity_edges,
                      fully_connected_vertices, is_connected, laplacian,
                      weighted_laplacian_at)
from .numerics import (GIMBAL_EPS, euler_rate_matrix, hat, rk4_step,
                       rotation_from_euler, sym_eigen)
from .planner import (OMEGA_MAX, ControlSchedule, ManeuverSpec,
                      axis_translation_schedule, chain_schedules,
                      hover_controls, hover_schedule, rendezvous_leg,
                      schedule_for, vertical_schedule, yaw_schedule)
from .quad import (Controls, QuadParams, QuadState, QuadTrajectory,
                   affine_fields, default_params, forces_body,
                   geodesic_spray, hover_state, simulate, state_derivative,
                   torques_body)

__version__ = "0.1.0"

__all__ = [
    "AgentReport", "ComparisonReport", "ConsensusTrajectory",
    "ControlSchedule", "Controls", "ConvergenceError", "DimensionError",
    "DisconnectedError", "DistanceWeighted", "DivergenceError",
    "DomainError",
    "GIMBAL_EPS", "GimbalLockError", "InfeasibleError", "IoError",
    "Laplacian", "ManeuverSpec", "MissionConfig", "Network", "OMEGA_MAX",
    "ParseError", "PolicyError", "QuadParams", "QuadState",
    "QuadTrajectory", "SaturationError", "ScheduleGapError",
    "StaticWeights", "SwarmError", "Unweighted", "ValidationError",
    "add_proximity_edges", "affine_fields", "axis_translation_schedule",
    "chain_schedules", "closed_form_state", "compare_trajectories",
    "consensus_point", "convergence_rate", "default_params", "euler_rate_matrix",
    "export_csv", "forces_body", "fully_connected_vertices",
    "geodesic_spray", "hat", "hover_controls", "hover_schedule",
    "hover_state", "integrate_protocol", "is_connected", "laplacian",
    "load_config", "lyapunov", "rendezvous_leg", "rk4_step",
    "rotation_from_euler", "run_mission", "schedule_for", "simulate",
    "state_derivative", "straightness_residual", "sym_eigen",
    "torques_body", "vertical_schedule", "weighted_laplacian_at",
    "yaw_schedule",
]
