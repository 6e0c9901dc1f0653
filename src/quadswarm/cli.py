"""Command line front end.

    quadswarm run CONFIG [--mode M] [--dt D] [--out DIR]
    quadswarm validate CONFIG
    quadswarm list-scenarios

Exit codes: 0 on success, 2 for config parse or validation problems,
1 for any other failure. validate also exits 2, after a FAIL: line,
for a config whose run could not start its protocol or plan its
scripted [maneuvers]. The output root
defaults to $SWARM_OUT_DIR (falling back to the working directory);
--out overrides it.
"""

import argparse
import math
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from .consensus import consensus_point, start_spectrum
from .errors import ParseError, SwarmError, ValidationError
from .mission import integrates_protocol, load_config, run_mission
from .network import DistanceWeighted
from .planner import plan


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="quadswarm",
        description="Multi-agent rendezvous simulator: agreement "
                    "protocols on communication graphs driving "
                    "quadcopter flight plans.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a mission config")
    p_run.add_argument("config", help="path to a mission .cfg file")
    p_run.add_argument("--mode", choices=("particle", "quad", "compare"),
                       help="override the mission mode")
    p_run.add_argument("--dt", type=float, help="override the step size")
    p_run.add_argument("--out", help="output root directory "
                                     "(default: $SWARM_OUT_DIR or .)")

    p_val = sub.add_parser("validate",
                           help="parse a mission config and report problems")
    p_val.add_argument("config", help="path to a mission .cfg file")

    sub.add_parser("list-scenarios", help="list the bundled scenario files")
    return parser


def _cmd_run(args):
    config = load_config(args.config)
    # replace() re-runs MissionConfig's checks, as load_config does
    if args.mode is not None:
        config = replace(config, mode=args.mode)
    if args.dt is not None:
        config = replace(config, dt=args.dt)
    report = run_mission(config, out_dir=args.out)
    if report.rendezvous_point is not None:
        x, y, z = report.rendezvous_point
        print(f"rendezvous point: ({x:.6f}, {y:.6f}, {z:.6f})")
    for a in report.agents:
        bits = [f"agent {a.agent}:"]
        if a.particle_final_error is not None:
            bits.append(f"particle err {a.particle_final_error:.3e}")
        if a.quad_final_error is not None:
            bits.append(f"quad err {a.quad_final_error:.3e}")
        if a.max_cross_track is not None:
            bits.append(f"cross-track {a.max_cross_track:.3e}")
        if a.flight_time is not None:
            bits.append(f"flight {a.flight_time:.2f} s")
        print(" ".join(bits))
    return 0


def _cmd_validate(args):
    config = load_config(args.config)
    net = config.network
    spec = start_spectrum(net, config.agents[:, :3])
    # the checks integrate_protocol makes on L(0), for a run that has one
    problem = spec.problem(config.dt) if integrates_protocol(config) else None
    if config.maneuvers:
        try:
            plan(config.params, config.maneuvers)
        except SwarmError as e:
            problem = e
    if problem is None:
        print(f"OK: mode={config.mode} agents={net.n} "
              f"edges={len(net.edges)} policy={type(net.policy).__name__}")
    else:
        print(f"FAIL: {type(problem).__name__}: {problem}")
    if net.n >= 2:
        print(f"spectrum of L(0): lambda2={spec.lambda2:.6g} "
              f"lambda_max={spec.lambda_max:.6g} "
              f"dt*lambda_max={config.dt * spec.lambda_max:.6g} "
              f"(RK4 limit {spec.rk4_limit}, largest stable dt "
              f"{spec.dt_max:.6g})")
        print(_predicted_stop(config, spec.lambda2))
    return 0 if problem is None else 2


def _predicted_stop(config, lam2):
    """Line naming when the protocol's early stop should fire.

    For a fixed Laplacian the offsets from the centroid decay like
    exp(-lambda2 t), so the spread max |q0 - centroid| that the early
    stop measures falls below stop_tol after ln(spread0 / stop_tol) /
    lambda2. Distance weights change L with the positions every step,
    and lambda2 of L(0) then bounds nothing.
    """
    if isinstance(config.network.policy, DistanceWeighted):
        return ("predicted stop: none; distance weights change L(t) every "
                "step, so lambda2 of L(0) does not set the decay rate")
    if not lam2 > 1e-9:
        return "predicted stop: none; L(0) has no spectral gap"
    q0 = config.agents[:, :3]
    spread0 = float(np.max(np.abs(q0 - consensus_point(q0))))
    t_stop = 0.0
    if spread0 > config.stop_tol:
        t_stop = math.log(spread0 / config.stop_tol) / lam2
    return (f"predicted stop: t={t_stop:.4g} s "
            f"(ln(spread0/stop_tol)/lambda2, spread0={spread0:.6g} "
            f"stop_tol={config.stop_tol:.6g}, horizon T={config.T:.6g})")


def _cmd_list_scenarios():
    base = resources.files("quadswarm") / "scenarios"
    names = sorted(entry.name for entry in base.iterdir()
                   if entry.name.endswith(".cfg"))
    for name in names:
        print(base / name)
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "validate":
            return _cmd_validate(args)
        return _cmd_list_scenarios()
    except (ParseError, ValidationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (SwarmError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
