"""Unit checks for the rigid-body vehicle model and its integrator."""

import math
from dataclasses import replace

import numpy as np
import pytest

from quadswarm.errors import (DivergenceError, DomainError,
                              GimbalLockError, ScheduleGapError)
from quadswarm.numerics import (GIMBAL_EPS, euler_rate_matrix, hat,
                                rk4_step, rotation_from_euler)
from quadswarm.planner import hover_controls, hover_schedule, yaw_schedule
from quadswarm.quad import (Controls, QuadParams, QuadState, affine_fields,
                            default_params, forces_body, geodesic_spray,
                            hover_state, simulate, state_derivative,
                            torques_body)

P = default_params()


class _Law:
    """Minimal duck-typed schedule for driving simulate directly."""

    def __init__(self, fn, duration, breakpoints=()):
        self._fn = fn
        self.total_duration = duration
        self.breakpoints = breakpoints

    def omega_at(self, t):
        return self._fn(t)


def random_state(rng, speed=2.0, spin=1.0):
    return QuadState(
        b=rng.uniform(-5.0, 5.0, size=3),
        angles=np.array([rng.uniform(-1.0, 1.0),
                         rng.uniform(-1.0, 1.0),
                         rng.uniform(-math.pi, math.pi)]),
        v=rng.uniform(-speed, speed, size=3),
        Omega=rng.uniform(-spin, spin, size=3),
    )


class TestParams:
    def test_default_values_are_physical(self):
        assert P.m > 0 and P.d > 0 and P.g == 9.81
        assert np.all(P.J > 0)

    def test_validation(self):
        with pytest.raises(DomainError):
            replace(P, m=0.0)
        with pytest.raises(DomainError):
            replace(P, J=np.array([1e-3, -1e-3, 1e-3]))
        with pytest.raises(DomainError):
            replace(P, Kr=0.0)
        with pytest.raises(DomainError):
            replace(P, Kd=-1.0)
        with pytest.raises(DomainError):
            replace(P, CD=np.array([0.0, 0.0, -1e-9]))
        with pytest.raises(DomainError):
            replace(P, g=-9.81)
        with pytest.raises(DomainError):
            replace(P, J=np.zeros(2))

    def test_zero_gravity_allowed(self):
        replace(P, g=0.0)


class TestState:
    def test_vector_round_trip(self):
        rng = np.random.default_rng(7)
        s = random_state(rng)
        s2 = QuadState.from_vector(s.as_vector())
        assert np.array_equal(s2.as_vector(), s.as_vector())

    def test_gimbal_guard_on_construction(self):
        with pytest.raises(GimbalLockError):
            QuadState(b=np.zeros(3), angles=np.array([0.0, math.pi / 2, 0.0]),
                      v=np.zeros(3), Omega=np.zeros(3))

    def test_shape_validation(self):
        with pytest.raises(DomainError):
            QuadState(b=np.zeros(2), angles=np.zeros(3), v=np.zeros(3),
                      Omega=np.zeros(3))
        with pytest.raises(DomainError):
            QuadState.from_vector(np.zeros(11))

    def test_controls_validation(self):
        with pytest.raises(DomainError):
            Controls(omega=np.array([1.0, 1.0, -1.0, 1.0]))
        with pytest.raises(DomainError):
            Controls(omega=np.zeros(3))


class TestForceTorqueSplit:
    def test_rest_level_forces(self):
        s = hover_state()
        c = hover_controls(P)
        f_drag, f_grav, f_thr = forces_body(s, c, P)
        assert np.array_equal(f_drag, np.zeros(3))
        assert np.allclose(f_grav, [0.0, 0.0, -P.m * P.g], atol=0.0)
        assert np.allclose(f_thr, [0.0, 0.0, P.m * P.g], atol=1e-12)

    def test_gravity_tilts_with_pitch(self):
        theta = 0.3
        s = QuadState(b=np.zeros(3), angles=np.array([0.0, theta, 0.0]),
                      v=np.zeros(3), Omega=np.zeros(3))
        _, f_grav, _ = forces_body(s, Controls(np.zeros(4)), P)
        expect = P.m * P.g * np.array([math.sin(theta), 0.0,
                                       -math.cos(theta)])
        assert np.allclose(f_grav, expect, atol=1e-15)

    def test_drag_opposes_velocity_quadratically(self):
        s = QuadState(b=np.zeros(3), angles=np.zeros(3),
                      v=np.array([2.0, -3.0, 0.5]), Omega=np.zeros(3))
        f_drag, _, _ = forces_body(s, Controls(np.zeros(4)), P)
        expect = -np.array([4.0 * P.CD[0], -9.0 * P.CD[1], 0.25 * P.CD[2]])
        assert np.allclose(f_drag, expect, atol=1e-18)

    def test_rotor_torques(self):
        a, b = 250.0, 150.0
        c = Controls(np.array([a, b, a, b]))
        s = hover_state()
        tau_drag, tau_gyro, tau_rotor = torques_body(s, c, P)
        assert np.array_equal(tau_drag, np.zeros(3))
        assert np.array_equal(tau_gyro, np.zeros(3))  # Omega = 0
        # Opposite rotors share a speed, so roll and pitch torques vanish
        # and only the reaction torque about body z survives.
        expect = [0.0, 0.0, P.Kd * 2.0 * (a * a - b * b)]
        assert np.allclose(tau_rotor, expect, atol=1e-15)

    def test_gyroscopic_torque(self):
        c = Controls(np.array([300.0, 100.0, 300.0, 100.0]))
        sigma = 300.0 - 100.0 + 300.0 - 100.0
        s = QuadState(b=np.zeros(3), angles=np.zeros(3), v=np.zeros(3),
                      Omega=np.array([0.4, -0.2, 0.9]))
        _, tau_gyro, _ = torques_body(s, c, P)
        expect = [P.Jr_bar * (-0.2) * sigma, -P.Jr_bar * 0.4 * sigma, 0.0]
        assert np.allclose(tau_gyro, expect, atol=1e-15)

    def test_splits_reassemble_into_the_derivative(self):
        # Newton-Euler: m v_dot = f + m v x Omega, J Omega_dot =
        # tau + (J Omega) x Omega. The published splits must add up to
        # exactly what state_derivative integrates.
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_state(rng)
            c = Controls(rng.uniform(0.0, 400.0, size=4))
            dx = state_derivative(s, c, P)
            f = np.sum(forces_body(s, c, P), axis=0)
            tau = np.sum(torques_body(s, c, P), axis=0)
            v_dot = f / P.m + np.cross(s.v, s.Omega)
            w_dot = (tau + np.cross(P.J * s.Omega, s.Omega)) / P.J
            assert np.allclose(dx[6:9], v_dot, atol=1e-12)
            assert np.allclose(dx[9:12], w_dot, atol=1e-10)


class TestDerivative:
    def test_hover_fixed_point(self):
        dx = state_derivative(hover_state(), hover_controls(P), P)
        assert np.max(np.abs(dx)) <= 1e-12

    def test_kinematics_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            s = random_state(rng)
            dx = state_derivative(s, Controls(np.zeros(4)), P)
            r = rotation_from_euler(*s.angles)
            assert np.allclose(dx[0:3], r @ s.v, atol=1e-12)
            m = euler_rate_matrix(s.angles[0], s.angles[1])
            assert np.allclose(dx[3:6], m @ s.Omega, atol=1e-12)

    def test_gimbal_boundary(self):
        # Inside the epsilon band the state is refused outright; just
        # outside it both the state and its derivative are fine.
        with pytest.raises(GimbalLockError):
            QuadState(b=np.zeros(3),
                      angles=np.array([0.0, math.pi / 2 - GIMBAL_EPS, 0.0]),
                      v=np.zeros(3), Omega=np.zeros(3))
        s = QuadState(
            b=np.zeros(3),
            angles=np.array([0.0, math.pi / 2 - 2 * GIMBAL_EPS, 0.0]),
            v=np.zeros(3), Omega=np.zeros(3))
        dx = state_derivative(s, Controls(np.zeros(4)), P)
        assert np.all(np.isfinite(dx))

    def test_affine_decomposition(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            s = random_state(rng)
            om = rng.uniform(0.0, 400.0, size=4)
            drift, fields = affine_fields(s, P)
            sigma = om[0] - om[1] + om[2] - om[3]
            gyro = np.zeros(12)
            gyro[9] = P.Jr_bar * s.Omega[1] * sigma / P.J[0]
            gyro[10] = -P.Jr_bar * s.Omega[0] * sigma / P.J[1]
            rebuilt = drift + gyro
            for gi, w in zip(fields, om):
                rebuilt = rebuilt + gi * w * w
            dx = state_derivative(s, Controls(om), P)
            assert np.max(np.abs(dx - rebuilt)) <= 1e-12

    def test_control_fields_are_state_independent(self):
        rng = np.random.default_rng(9)
        _, f1 = affine_fields(random_state(rng), P)
        _, f2 = affine_fields(random_state(rng), P)
        for a, b in zip(f1, f2):
            assert np.array_equal(a, b)

    def test_geodesic_spray_formula(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = random_state(rng)
            spray = geodesic_spray(s, P)
            r = rotation_from_euler(*s.angles)
            m = euler_rate_matrix(s.angles[0], s.angles[1])
            assert np.allclose(spray[0:3], r @ s.v, atol=1e-12)
            assert np.allclose(spray[3:6], m @ s.Omega, atol=1e-12)
            assert np.allclose(spray[6:9], np.cross(s.v, s.Omega),
                               atol=1e-12)
            euler = np.cross(P.J * s.Omega, s.Omega) / P.J
            assert np.allclose(spray[9:12], euler, atol=1e-12)


class TestSimulate:
    def test_hover_is_stationary(self):
        sched = hover_schedule(P, 1.0)
        traj = simulate(hover_state(b=(1.0, 2.0, 3.0)), sched, P, 1.0)
        assert np.max(np.abs(traj.states - traj.states[0])) == 0.0
        assert np.allclose(traj.thrust, P.m * P.g, atol=1e-12)

    def test_sampling_grid_and_remainder_step(self):
        sched = hover_schedule(P, 1.0)
        traj = simulate(hover_state(), sched, P, 0.0305, dt=1e-3, stride=10)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == pytest.approx(0.0305, abs=1e-12)
        assert np.allclose(traj.times[:-1], [0.0, 0.01, 0.02, 0.03],
                           atol=1e-12)
        assert traj.states.shape == (len(traj.times), 12)
        assert traj.omegas.shape == (len(traj.times), 4)

    def test_zero_duration(self):
        traj = simulate(hover_state(), hover_schedule(P, 1.0), P, 0.0)
        assert len(traj.times) == 1 and traj.times[0] == 0.0

    def test_schedule_must_cover_duration(self):
        with pytest.raises(ScheduleGapError):
            simulate(hover_state(), hover_schedule(P, 1.0), P, 2.0)

    def test_thrust_column(self):
        sched = hover_schedule(P, 0.1)
        traj = simulate(hover_state(), sched, P, 0.1)
        expect = P.Kr * np.sum(traj.omegas ** 2, axis=1)
        assert np.array_equal(traj.thrust, expect)

    def test_gimbal_abort_reports_time(self):
        # A strong pitch torque tips the vehicle past the chart boundary.
        om = np.array([200.0, 320.0, 200.0, 60.0])
        sched = _Law(lambda t: om, 5.0)
        with pytest.raises(GimbalLockError) as err:
            simulate(hover_state(), sched, P, 5.0)
        assert "t=" in str(err.value)

    def test_overflowing_rotor_speeds_diverge(self):
        # Squared speeds overflow to inf, the torques to inf - inf =
        # NaN, and NaN pitch passes the gimbal check: the run stops at
        # its first recorded sample instead of integrating NaN.
        sched = _Law(lambda t: np.full(4, 1e200), 1.0)
        with pytest.raises(DivergenceError, match=r"t=0\.010000"):
            simulate(hover_state(), sched, P, 1.0, dt=1e-3, stride=10)

    def test_input_validation(self):
        sched = hover_schedule(P, 1.0)
        with pytest.raises(DomainError):
            simulate(hover_state(), sched, P, -1.0)
        with pytest.raises(DomainError):
            simulate(hover_state(), sched, P, 1.0, dt=0.0)
        with pytest.raises(DomainError):
            simulate(hover_state(), sched, P, 1.0, stride=0)

    def test_breakpoint_windows_hit_junctions_exactly(self):
        # A schedule with a jump at an off-grid time: window snapping
        # must land a step boundary exactly on it, and stages on either
        # side must read their own side's command.
        t_jump = 0.0123456
        lo = hover_controls(P).omega
        hi = lo * 1.05

        def fn(t):
            return lo if t < t_jump else hi

        sched = _Law(fn, 0.05, breakpoints=(t_jump,))
        traj = simulate(hover_state(), sched, P, 0.05, dt=1e-3, stride=1)
        assert np.any(np.abs(traj.times - t_jump) <= 1e-12)
        # Height must be monotone nonincreasing before the jump (hover is
        # exact) and climbing after it; a straddled stage would pollute
        # the pre-jump steps.
        pre = traj.states[traj.times <= t_jump + 1e-12, 2]
        assert np.max(np.abs(pre)) <= 1e-12

    @pytest.mark.parametrize("leg", ["hover", "yaw"])
    def test_bitwise_equal_to_rk4_step(self, leg):
        # simulate's float loop must reproduce numerics.rk4_step over
        # state_derivative bit for bit; byte-identical artifacts rest on
        # this operation order
        if leg == "hover":
            s0 = random_state(np.random.default_rng(17), speed=0.5,
                              spin=0.3)
            sched, duration = hover_schedule(P, 0.5), 0.5
        else:
            s0 = hover_state(b=(1.0, -2.0, 0.5), yaw=0.3)
            sched, duration = yaw_schedule(P, 0.4, 2.0), 2.0
        assert len(sched.segments) == 1
        dt, stride = 1e-3, 10
        traj = simulate(s0, sched, P, duration, dt=dt, stride=stride)

        def deriv(t, x):
            om = sched.omega_at(t if t < duration else duration)
            return state_derivative(QuadState.from_vector(x), Controls(om),
                                    P)

        x = s0.as_vector()
        states = [x]
        steps = round(duration / dt)
        for k in range(steps):
            x = rk4_step(deriv, x, k * dt, dt)
            if (k + 1) % stride == 0:
                states.append(x)
        assert len(states) == len(traj.times)
        assert np.array_equal(traj.states, np.array(states))

    def test_drag_dissipates_kinetic_energy(self):
        free = replace(P, g=0.0)
        s0 = QuadState(b=np.zeros(3), angles=np.zeros(3),
                       v=np.array([3.0, -2.0, 1.0]),
                       Omega=np.array([0.5, 0.4, -0.3]))
        sched = _Law(lambda t: np.zeros(4), 2.0)
        traj = simulate(s0, sched, free, 2.0, dt=1e-3, stride=10)
        v = traj.states[:, 6:9]
        w = traj.states[:, 9:12]
        ke = 0.5 * free.m * np.sum(v ** 2, axis=1) + \
            0.5 * np.sum(free.J * w ** 2, axis=1)
        assert np.all(np.diff(ke) < 0.0)

    def test_euler_chart_consistent_with_rotation_integration(self):
        # Integrate the attitude twice: as Euler angles inside the full
        # model and as a rotation matrix driven by R_dot = R hat(Omega).
        # Both charts must tell the same attitude story.
        sched = yaw_schedule(P, math.pi / 2, 2.0)
        x0 = hover_state().as_vector()
        y = np.concatenate([x0, np.eye(3).ravel()])

        def deriv(t, y):
            s = QuadState.from_vector(y[:12])
            om = sched.omega_at(min(t, 2.0))
            dx = state_derivative(s, Controls(om), P)
            r = y[12:].reshape(3, 3)
            dr = r @ hat(y[9:12])
            return np.concatenate([dx, dr.ravel()])

        t = 0.0
        for _ in range(2000):
            y = rk4_step(deriv, y, t, 1e-3)
            t += 1e-3
        r_direct = y[12:].reshape(3, 3)
        r_euler = rotation_from_euler(*y[3:6])
        assert np.max(np.abs(r_direct - r_euler)) <= 1e-6
