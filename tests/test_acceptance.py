"""End-to-end acceptance checks.

Each test pins one externally visible contract of the package: the
bundled scenarios reproduce their published meeting points and spectra,
the vehicle model satisfies its structural identities, planned
maneuvers land where they claim, and the integrators hold their
convergence order. The terminal summary prints one PASS/FAIL line per
check (see conftest).
"""

import math
import time
from dataclasses import replace

import numpy as np

from quadswarm.consensus import (closed_form_state, consensus_point,
                                 integrate_protocol, lyapunov,
                                 straightness_residual, sym_eigen)
from quadswarm.mission import load_config, run_mission
from quadswarm.network import Network, laplacian, weighted_laplacian_at
from quadswarm.planner import (ControlSchedule, axis_translation_schedule,
                               hover_controls, hover_schedule, yaw_schedule)
from quadswarm.quad import (Controls, QuadState, affine_fields,
                            default_params, hover_state, simulate,
                            state_derivative)

from conftest import scenario_path, timed_protocol_run
from oracles import rotation_from_euler

TREE_EDGES = {(1, 3), (1, 4), (2, 3)}
HUB_EDGES = {(1, 2), (2, 3), (2, 4), (3, 4)}

MEETING_POINTS = {
    "scenario_2_4_1": (10.25, 9.75, 29.25),
    "scenario_2_5_1": (9.0, 12.75, 30.25),
    "scenario_2_5_2": (15.25, 10.25, 31.0),
}


def _endpoint_dev(traj, point):
    return float(np.max(np.abs(traj.states[-1] - np.asarray(point))))


def test_rendezvous_endpoints(run_fixed_unweighted, run_fixed_weighted,
                              run_time_varying, cfg_fixed_unweighted,
                              cfg_fixed_weighted):
    """Every agent reaches the documented meeting point, within budget."""
    for name, run, cfg in (
            ("scenario_2_4_1", run_fixed_unweighted, cfg_fixed_unweighted),
            ("scenario_2_5_1", run_fixed_weighted, cfg_fixed_weighted),
            ("scenario_2_5_2", run_time_varying, None)):
        point = MEETING_POINTS[name]
        assert _endpoint_dev(run.traj, point) <= 1e-3, name
        assert run.wall < 5.0, f"{name} took {run.wall:.2f} s"

    # The fixed-graph scenarios must agree on the same point under the
    # alternate topology / weighting as well: the sparser tree graph for
    # the first, plain unit weights for the second.
    q241 = np.asarray(cfg_fixed_unweighted.agents, dtype=float)[:, :3]
    alt1 = timed_protocol_run(Network(4, TREE_EDGES), q241, 40.0,
                              1e-3, 10, 1e-4)
    assert _endpoint_dev(alt1.traj, MEETING_POINTS["scenario_2_4_1"]) <= 1e-3
    assert alt1.wall < 5.0

    q251 = np.asarray(cfg_fixed_weighted.agents, dtype=float)[:, :3]
    alt2 = timed_protocol_run(Network(4, HUB_EDGES), q251, 40.0,
                              1e-3, 10, 1e-4)
    assert _endpoint_dev(alt2.traj, MEETING_POINTS["scenario_2_5_1"]) <= 1e-3
    assert alt2.wall < 5.0


def _initial_weighted_matrix(cfg):
    q0 = np.asarray(cfg.agents, dtype=float)[:, :3]
    return weighted_laplacian_at(cfg.network, q0).matrix


def test_laplacian_spectra(cfg_fixed_weighted, cfg_time_varying):
    """The four reference graphs have their tabulated eigenvalues."""
    cases = [
        (laplacian(Network(4, HUB_EDGES)).matrix,
         [0.0, 1.0, 3.0, 4.0]),
        (laplacian(Network(4, TREE_EDGES)).matrix,
         [0.0, 0.586, 2.0, 3.414]),
        (laplacian(cfg_fixed_weighted.network).matrix,
         [0.0, 13.060, 42.248, 62.558]),
        # path 4-1-3-2 with weights sqrt(120), sqrt(146), sqrt(74): the
        # trace is twice the total weight, 63.2796, so the smallest
        # nonzero eigenvalue is 63.2796 - 19.3852 - 37.6549 = 6.2395
        (_initial_weighted_matrix(cfg_time_varying),
         [0.0, 6.240, 19.385, 37.655]),
    ]
    for matrix, expect in cases:
        w, _ = sym_eigen(matrix)
        assert np.max(np.abs(w - np.asarray(expect))) <= 1e-3, expect


def test_weighted_laplacian_entries(cfg_fixed_weighted):
    """Initial-distance weighting reproduces every tabulated entry."""
    printed = np.array([
        [12.8062, -12.8062, 0.0, 0.0],
        [-12.8062, 41.9036, -20.3224, -8.7750],
        [0.0, -20.3224, 37.3518, -17.0294],
        [0.0, -8.7750, -17.0294, 25.8044],
    ])
    m = laplacian(cfg_fixed_weighted.network).matrix
    assert np.max(np.abs(m - printed)) <= 1e-3


def test_straight_line_property(run_fixed_unweighted, run_fixed_weighted):
    """Only the agent connected to everyone rides a straight line, and
    only while the weights are uniform."""
    unweighted = run_fixed_unweighted.traj
    assert straightness_residual(unweighted, 2) <= 1e-6
    assert straightness_residual(unweighted, 1) > 1e-2
    weighted = run_fixed_weighted.traj
    assert straightness_residual(weighted, 2) > 1e-2


def test_conservation_and_lyapunov(run_fixed_unweighted, run_fixed_weighted,
                                   run_time_varying):
    """Centroid conservation and monotone disagreement decay on every
    scenario trajectory."""
    for run in (run_fixed_unweighted, run_fixed_weighted, run_time_varying):
        traj = run.traj
        sums = traj.states.sum(axis=1)
        assert np.max(np.abs(sums - sums[0])) <= 1e-6
        alpha = consensus_point(traj.states[0])
        energy = np.array([lyapunov(q, alpha) for q in traj.states])
        assert np.max(np.diff(energy), initial=-np.inf) <= 1e-12


def test_hover_equilibrium():
    """Balanced rotors pin the vehicle: zero derivative, zero drift."""
    p = default_params()
    c = hover_controls(p)
    dx = state_derivative(hover_state(), c, p)
    assert float(np.linalg.norm(dx)) <= 1e-10

    traj = simulate(hover_state(), hover_schedule(p, 10.0), p, 10.0,
                    dt=1e-3, stride=10)
    assert np.max(np.abs(traj.states - traj.states[0])) <= 1e-8


def test_affine_decomposition():
    """The dynamics equal drift + control fields + gyroscopic coupling."""
    p = default_params()
    rng = np.random.default_rng(20260816)
    worst = 0.0
    for _ in range(1000):
        s = QuadState(
            b=rng.uniform(-10.0, 10.0, 3),
            angles=np.array([rng.uniform(-1.2, 1.2), rng.uniform(-1.2, 1.2),
                             rng.uniform(-math.pi, math.pi)]),
            v=rng.uniform(-5.0, 5.0, 3),
            Omega=rng.uniform(-3.0, 3.0, 3),
        )
        om = rng.uniform(0.0, 500.0, 4)
        drift, fields = affine_fields(s, p)
        sigma = om[0] - om[1] + om[2] - om[3]
        gyro = np.zeros(12)
        gyro[9] = p.Jr_bar * s.Omega[1] * sigma / p.J[0]
        gyro[10] = -p.Jr_bar * s.Omega[0] * sigma / p.J[1]
        rebuilt = drift + gyro
        for gi, w in zip(fields, om):
            rebuilt = rebuilt + gi * w * w
        dx = state_derivative(s, Controls(om), p)
        worst = max(worst, float(np.max(np.abs(dx - rebuilt))))
    assert worst <= 1e-12


def test_force_free_invariants():
    """With no forces, energy and both inertial momenta are conserved."""
    p = replace(default_params(), g=0.0, CD=np.zeros(3), Ctau=np.zeros(3))
    s0 = QuadState(b=np.zeros(3), angles=np.zeros(3),
                   v=np.array([2.0, -1.0, 0.5]),
                   Omega=np.array([0.4, 0.3, 1.0]))
    rotors_off = ControlSchedule.constant((0.0, 0.0, 0.0, 0.0), 10.0)
    traj = simulate(s0, rotors_off, p, 10.0, dt=1e-3, stride=10)

    v = traj.states[:, 6:9]
    w = traj.states[:, 9:12]
    ke = 0.5 * p.m * np.sum(v ** 2, axis=1) \
        + 0.5 * np.sum(p.J * w ** 2, axis=1)
    assert np.max(np.abs(ke - ke[0])) / ke[0] <= 1e-8

    momentum = np.empty((len(traj.times), 3))
    spin = np.empty_like(momentum)
    for k, x in enumerate(traj.states):
        r = rotation_from_euler(*x[3:6])
        momentum[k] = r @ (p.m * x[6:9])
        spin[k] = r @ (p.J * x[9:12])
    for series in (momentum, spin):
        scale = float(np.linalg.norm(series[0]))
        drift = float(np.max(np.linalg.norm(series - series[0], axis=1)))
        assert drift / scale <= 1e-8


def test_maneuver_endpoints():
    """A quarter turn lands on its heading without moving; a 5 m forward
    run arrives on target without ever rolling."""
    p = default_params()

    sched = yaw_schedule(p, math.pi / 2, 4.0)
    run = simulate(hover_state(), sched, p, 4.0, dt=1e-3)
    final = run.states[-1]
    assert abs(final[5] - math.pi / 2) <= 1e-3
    assert float(np.linalg.norm(final[0:3])) <= 1e-3

    sched = axis_translation_schedule(p, "bodyX", 5.0, 4.0)
    run = simulate(hover_state(), sched, p, 4.0, dt=1e-3)
    final = run.states[-1]
    miss = float(np.linalg.norm(final[0:3] - np.array([5.0, 0.0, 0.0])))
    assert miss <= 0.05
    assert float(np.max(np.abs(run.states[:, 3]))) <= 1e-6


def test_three_drone_rendezvous(tmp_path):
    """The full compare mission flies all drones to the agreement point."""
    cfg = load_config(scenario_path("scenario_4_2_2"))
    start = time.perf_counter()
    report = run_mission(cfg, out_dir=tmp_path)
    wall = time.perf_counter() - start

    assert np.allclose(report.rendezvous_point, (5.0, 6.0, 0.0), atol=1e-9)
    flight_times = [a.flight_time for a in report.agents]
    for i, a in enumerate(report.agents):
        assert a.quad_final_error <= 0.1, f"agent {a.agent}"
        assert a.max_cross_track <= 0.1, f"agent {a.agent}"
        for j in range(i + 1, len(flight_times)):
            assert abs(flight_times[i] - flight_times[j]) > 1e-9
    assert wall < 60.0, f"compare mission took {wall:.1f} s"


def test_integrator_order(cfg_fixed_unweighted):
    """Halving the step shrinks the protocol error 16-fold."""
    net = cfg_fixed_unweighted.network
    q0 = np.asarray(cfg_fixed_unweighted.agents, dtype=float)[:, :3]
    exact = closed_form_state(laplacian(net), q0, 1.0)
    errors = []
    for dt in (1e-2, 5e-3, 2.5e-3):
        traj = integrate_protocol(net, q0, 1.0, dt=dt, stride=1,
                                  stop_tol=0.0)
        errors.append(float(np.max(np.abs(traj.states[-1] - exact))))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert all(o >= 3.6 for o in orders), orders
