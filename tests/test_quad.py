"""Unit checks for the rigid-body vehicle model and its integrator."""

import math
from dataclasses import replace

import numpy as np
import pytest

from quadswarm import native, quad
from quadswarm.errors import (DivergenceError, DomainError,
                              GimbalLockError, SaturationError)
from quadswarm.planner import (ControlSchedule, Segment,
                               axis_translation_schedule, chain_schedules,
                               hover_controls, hover_schedule, yaw_schedule)
from quadswarm.quad import (GIMBAL_EPS, Controls, QuadParams, QuadState,
                            affine_fields, default_params, geodesic_spray,
                            hover_state, simulate, state_derivative, _deriv,
                            _param_tuple, _rotor_terms)

from oracles import euler_rate_matrix, hat, rk4_step, rotation_from_euler

P = default_params()
OFF = Controls(np.zeros(4))


def random_state(rng, speed=2.0, spin=1.0):
    return QuadState(
        b=rng.uniform(-5.0, 5.0, size=3),
        angles=np.array([rng.uniform(-1.0, 1.0),
                         rng.uniform(-1.0, 1.0),
                         rng.uniform(-math.pi, math.pi)]),
        v=rng.uniform(-speed, speed, size=3),
        Omega=rng.uniform(-spin, spin, size=3),
    )


def _tilt_refused_from(t_refused):
    """A hovering law that refuses, as the translation laws refuse too
    steep a tilt, every call holding a local time from t_refused on."""
    def law(tl):
        if (tl >= t_refused).any():
            raise GimbalLockError("translation wants tilt beyond 0.5 rad")
        return (300.0,) * 4

    return law


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
    """Each force and torque term of the one force law, isolated by
    masking the others in the parameters, as geodesic_spray does, and
    read off state_derivative: m times the body acceleration is the
    force, J times the angular acceleration the torque."""

    def test_rest_level_forces(self):
        s = hover_state()
        # at rest nothing drags, and with gravity off nothing else acts
        assert np.array_equal(state_derivative(s, OFF, replace(P, g=0.0)),
                              np.zeros(12))
        f_grav = P.m * state_derivative(s, OFF, P)[6:9]
        assert np.allclose(f_grav, [0.0, 0.0, -P.m * P.g], atol=0.0)
        f_thr = P.m * state_derivative(s, hover_controls(P),
                                       replace(P, g=0.0))[6:9]
        assert np.allclose(f_thr, [0.0, 0.0, P.m * P.g], atol=1e-12)

    def test_gravity_tilts_with_pitch(self):
        theta = 0.3
        s = QuadState(b=np.zeros(3), angles=np.array([0.0, theta, 0.0]),
                      v=np.zeros(3), Omega=np.zeros(3))
        f_grav = P.m * state_derivative(s, OFF, P)[6:9]
        expect = P.m * P.g * np.array([math.sin(theta), 0.0,
                                       -math.cos(theta)])
        assert np.allclose(f_grav, expect, atol=1e-15)

    def test_drag_opposes_velocity_quadratically(self):
        # level and not spinning: no gravity, no v x Omega term
        s = QuadState(b=np.zeros(3), angles=np.zeros(3),
                      v=np.array([2.0, -3.0, 0.5]), Omega=np.zeros(3))
        f_drag = P.m * state_derivative(s, OFF, replace(P, g=0.0))[6:9]
        expect = -np.array([4.0 * P.CD[0], -9.0 * P.CD[1], 0.25 * P.CD[2]])
        assert np.allclose(f_drag, expect, atol=1e-18)

    def test_rotor_torques(self):
        a, b = 250.0, 150.0
        c = Controls(np.array([a, b, a, b]))
        # Omega = 0: no angular drag, gyroscopic or Euler torque
        tau_rotor = P.J * state_derivative(hover_state(), c, P)[9:12]
        # Opposite rotors share a speed, so roll and pitch torques vanish
        # and only the reaction torque about body z survives.
        expect = [0.0, 0.0, P.Kd * 2.0 * (a * a - b * b)]
        assert np.allclose(tau_rotor, expect, atol=1e-15)

    def test_gyroscopic_torque(self):
        c = Controls(np.array([300.0, 100.0, 300.0, 100.0]))
        sigma = 300.0 - 100.0 + 300.0 - 100.0
        s = QuadState(b=np.zeros(3), angles=np.zeros(3), v=np.zeros(3),
                      Omega=np.array([0.4, -0.2, 0.9]))
        # the rotor inertia carries the gyroscopic torque alone
        tau_gyro = P.J * (state_derivative(s, c, P)
                          - state_derivative(s, c, replace(P, Jr_bar=0.0))
                          )[9:12]
        expect = [P.Jr_bar * (-0.2) * sigma, -P.Jr_bar * 0.4 * sigma, 0.0]
        assert np.allclose(tau_gyro, expect, atol=1e-15)

    def test_splits_reassemble_into_the_derivative(self):
        # Newton-Euler: m v_dot = f + m v x Omega, J Omega_dot =
        # tau + (J Omega) x Omega, with the force and torque terms the
        # tests above isolate, summed as vectors.
        rng = np.random.default_rng(3)
        for _ in range(20):
            s = random_state(rng)
            om = rng.uniform(0.0, 400.0, size=4)
            dx = state_derivative(s, Controls(om), P)
            phi, theta, _ = s.angles
            sq = om * om
            sigma = om[0] - om[1] + om[2] - om[3]
            f = (-s.v * np.abs(s.v) * P.CD
                 + P.m * P.g * np.array([
                     math.sin(theta), -math.cos(theta) * math.sin(phi),
                     -math.cos(theta) * math.cos(phi)])
                 + np.array([0.0, 0.0, P.Kr * np.sum(sq)]))
            tau = (-s.Omega * np.abs(s.Omega) * P.Ctau
                   + P.Jr_bar * sigma * np.array([s.Omega[1], -s.Omega[0],
                                                  0.0])
                   + np.array([P.Kr * P.d * (sq[2] - sq[0]),
                               P.Kr * P.d * (sq[3] - sq[1]),
                               P.Kd * (sq[0] - sq[1] + sq[2] - sq[3])]))
            v_dot = f / P.m + np.cross(s.v, s.Omega)
            w_dot = (tau + np.cross(P.J * s.Omega, s.Omega)) / P.J
            assert np.allclose(dx[6:9], v_dot, atol=1e-12)
            assert np.allclose(dx[9:12], w_dot, atol=1e-10)


class TestDerivative:
    def test_hover_fixed_point(self):
        dx = state_derivative(hover_state(), hover_controls(P), P)
        assert np.max(np.abs(dx)) <= 1e-12

    def test_written_out_formula_bit_for_bit(self):
        """_deriv computes each repeated leading product once, and
        _param_tuple the inertia differences. Python groups a * b * c
        as (a * b) * c, so it must still equal the model written out
        term by term, to the last bit, fed the rotor terms _rotor_terms
        computes from the same speeds and the nine state numbers it
        reads."""
        (m, g, Jr, J1, J2, J3, CD1, CD2, CD3, Ct1, Ct2, Ct3,
         *_) = _param_tuple(P)
        Kr, Krd, Kd = P.Kr, P.Kr * P.d, P.Kd

        def written_out(x, om):
            _, _, _, phi, theta, psi, v1, v2, v3, O1, O2, O3 = x
            w1, w2, w3, w4 = om
            cf, sf = math.cos(phi), math.sin(phi)
            ct, st = math.cos(theta), math.sin(theta)
            cp, sp = math.cos(psi), math.sin(psi)
            tt = st / ct
            thrust = Kr * (w1 * w1 + w2 * w2 + w3 * w3 + w4 * w4)
            sigma = w1 - w2 + w3 - w4
            return (
                v1 * cp * ct + v2 * (cp * st * sf - sp * cf)
                + v3 * (cp * st * cf + sp * sf),
                v1 * sp * ct + v2 * (sp * st * sf + cp * cf)
                + v3 * (sp * st * cf - cp * sf),
                -v1 * st + v2 * ct * sf + v3 * ct * cf,
                O1 + O2 * sf * tt + O3 * cf * tt,
                O2 * cf - O3 * sf,
                O2 * sf / ct + O3 * cf / ct,
                v2 * O3 - v3 * O2 - v1 * abs(v1) * CD1 / m + g * st,
                v3 * O1 - v1 * O3 - v2 * abs(v2) * CD2 / m - g * ct * sf,
                v1 * O2 - v2 * O1 + (thrust - v3 * abs(v3) * CD3) / m
                - g * ct * cf,
                ((J2 - J3) * O2 * O3 + Jr * O2 * sigma
                 + Krd * (w3 * w3 - w1 * w1) - O1 * abs(O1) * Ct1) / J1,
                ((J3 - J1) * O1 * O3 - Jr * O1 * sigma
                 + Krd * (w4 * w4 - w2 * w2) - O2 * abs(O2) * Ct2) / J2,
                ((J1 - J2) * O1 * O2
                 + Kd * (w1 * w1 - w2 * w2 + w3 * w3 - w4 * w4)
                 - O3 * abs(O3) * Ct3) / J3,
            )

        rng = np.random.default_rng(23)
        for _ in range(200):
            x = tuple(random_state(rng, speed=5.0, spin=3.0)
                      .as_vector().tolist())
            om = rng.uniform(0.0, 500.0, size=4)
            r = _rotor_terms(om[None], P)[0].tolist()
            assert (np.array(_deriv(*x[3:], r, _param_tuple(P))).tobytes()
                    == np.array(written_out(x, om.tolist())).tobytes())

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

    def test_control_fields_match_the_written_out_table(self):
        # g_i moves only v3 (thrust Kr / m) and the angular rates: roll
        # by -+Kr d / J1 (rotors 1, 3), pitch by -+Kr d / J2 (rotors 2,
        # 4), yaw by +-Kd / J3 (rotors 1, 3 against 2, 4)
        Krd = P.Kr * P.d
        J1, J2, J3 = P.J
        _, fields = affine_fields(hover_state(), P)
        for gi, (roll, pitch, yaw) in zip(fields, (
                (-Krd, 0.0, P.Kd), (0.0, -Krd, -P.Kd),
                (Krd, 0.0, P.Kd), (0.0, Krd, -P.Kd))):
            expect = np.zeros(12)
            expect[8] = P.Kr / P.m
            expect[9:12] = roll / J1, pitch / J2, yaw / J3
            assert gi.tobytes() == expect.tobytes()

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
        with pytest.raises(DomainError, match=r"schedule covers \[0, 1\.0\], "
                           r"mission needs \[0, 2\.0\]"):
            simulate(hover_state(), hover_schedule(P, 1.0), P, 2.0)

    def test_thrust_column(self):
        sched = hover_schedule(P, 0.1)
        traj = simulate(hover_state(), sched, P, 0.1)
        expect = P.Kr * np.sum(traj.omegas ** 2, axis=1)
        assert np.array_equal(traj.thrust, expect)

    def test_gimbal_abort_reports_time(self):
        # A strong pitch torque tips the vehicle past the chart boundary.
        sched = ControlSchedule.constant((200.0, 320.0, 200.0, 60.0), 5.0)
        with pytest.raises(GimbalLockError) as err:
            simulate(hover_state(), sched, P, 5.0)
        assert "t=" in str(err.value)

    def test_overflowing_rotor_speeds_diverge(self):
        # Thrusts Kr omega^2 overflow to inf, the torques to inf - inf =
        # NaN, and NaN pitch passes the gimbal check: the run stops at
        # its first recorded sample instead of integrating NaN.
        sched = ControlSchedule.constant((500.0,) * 4, 1.0)
        with pytest.raises(DivergenceError, match=r"t=0\.010000"):
            simulate(hover_state(), sched, replace(P, Kr=1e305), 1.0,
                     dt=1e-3, stride=10)

    def test_input_validation(self):
        sched = hover_schedule(P, 1.0)
        with pytest.raises(DomainError):
            simulate(hover_state(), sched, P, -1.0)
        with pytest.raises(DomainError, match="duration"):
            simulate(hover_state(), sched, P, math.nan)
        with pytest.raises(DomainError):
            simulate(hover_state(), sched, P, 1.0, dt=0.0)
        with pytest.raises(DomainError):
            simulate(hover_state(), sched, P, 1.0, stride=0)

    def test_rejects_non_finite_step(self):
        # an infinite step would fly each window as one remainder step
        with pytest.raises(DomainError, match="step size must be positive "
                                              "and finite, got inf"):
            simulate(hover_state(), hover_schedule(P, 1.0), P, 1.0,
                     dt=math.inf)

    def test_rejects_a_step_count_that_overflows(self):
        with pytest.raises(DomainError, match="is not finite"):
            simulate(hover_state(), hover_schedule(P, 1.0), P, 1.0,
                     dt=1e-320)

    def test_breakpoint_windows_hit_junctions_exactly(self):
        # A schedule with a jump at an off-grid time: window snapping
        # must land a step boundary exactly on it, and stages on either
        # side must read their own side's command.
        t_jump = 0.0123456
        lo = tuple(hover_controls(P).omega.tolist())
        hi = tuple(w * 1.05 for w in lo)
        sched = ControlSchedule((Segment(0.0, t_jump, lambda tl: lo),
                                 Segment(t_jump, 0.05, lambda tl: hi)))
        traj = simulate(hover_state(), sched, P, 0.05, dt=1e-3, stride=1)
        assert np.any(np.abs(traj.times - t_jump) <= 1e-12)
        # Height must be monotone nonincreasing before the jump (hover is
        # exact) and climbing after it; a straddled stage would pollute
        # the pre-jump steps.
        pre = traj.states[traj.times <= t_jump + 1e-12, 2]
        assert np.max(np.abs(pre)) <= 1e-12

    @pytest.mark.parametrize("leg", ["hover", "yaw", "bodyX"])
    def test_bitwise_equal_to_rk4_step(self, leg):
        # simulate's float loop must reproduce oracles.rk4_step over
        # state_derivative bit for bit; byte-identical artifacts rest on
        # this operation order
        if leg == "hover":
            s0 = random_state(np.random.default_rng(17), speed=0.5,
                              spin=0.3)
            sched, duration = hover_schedule(P, 0.5), 0.5
        elif leg == "yaw":
            s0 = hover_state(b=(1.0, -2.0, 0.5), yaw=0.3)
            sched, duration = yaw_schedule(P, 0.4, 2.0), 2.0
        else:
            # ramp up, cruise, ramp down: junctions at 0.4 s and 1.6 s,
            # both on the dt grid
            s0 = hover_state(b=(0.5, 1.0, -1.0), yaw=-0.2)
            sched = axis_translation_schedule(P, "bodyX", 1.0, 2.0)
            duration = 2.0
        assert len(sched.segments) == (3 if leg == "bodyX" else 1)
        dt, stride = 1e-3, 10
        traj = simulate(s0, sched, P, duration, dt=dt, stride=stride)

        x = s0.as_vector()
        states = [x]
        count = 0
        for seg in sched.segments:
            # stages at an interior junction read the segment that ends
            # there, so they are clamped just left of it
            edge = duration if seg.t1 >= duration else seg.t1 - 1e-12

            def deriv(t, x, edge=edge):
                om = sched.omega_at(t if t < edge else edge)
                return state_derivative(QuadState.from_vector(x),
                                        Controls(om), P)

            steps = round((seg.t1 - seg.t0) / dt)
            for k in range(steps):
                x = rk4_step(deriv, x, seg.t0 + k * dt, dt)
                count += 1
                if count % stride == 0:
                    states.append(x)
        assert len(states) == len(traj.times)
        assert np.array_equal(traj.states, np.array(states))
        assert np.array_equal(
            traj.omegas, np.array([sched.omega_at(t) for t in traj.times]))

    def test_bitwise_equal_to_rk4_step_across_off_grid_junctions(self):
        # agent 1 of scenario_4_2_2 yaws for 2.2308635070104357 s, so
        # every window of the chain starts off the dt grid and ends
        # with a remainder step; the k1 and recorded samples simulate
        # shares must still be the ones rk4_step would draw
        s0 = hover_state(b=(0.5, 1.0, -1.0), yaw=-0.2)
        sched = chain_schedules([
            yaw_schedule(P, 0.8760580505981934, 2.2308635070104357),
            axis_translation_schedule(P, "bodyX", 1.0, 2.0123)])
        duration = sched.total_duration
        dt, stride = 1e-3, 10
        traj = simulate(s0, sched, P, duration, dt=dt, stride=stride)

        x = s0.as_vector()
        times, states = [0.0], [x]
        count = 0
        lo = 0.0
        for seg in sched.segments:
            hi = seg.t1
            edge = hi if seg is sched.segments[-1] else hi - 1e-12

            def deriv(t, x, edge=edge):
                om = sched.omega_at(t if t < edge else edge)
                return state_derivative(QuadState.from_vector(x),
                                        Controls(om), P)

            span = hi - lo
            nfull = int(math.floor(span / dt + 1e-9))
            rem = span - nfull * dt
            assert rem > 1e-9
            for k in range(nfull):
                x = rk4_step(deriv, x, lo + k * dt, dt)
                count += 1
                if count % stride == 0:
                    times.append(lo + (k + 1) * dt)
                    states.append(x)
            x = rk4_step(deriv, x, hi - rem, rem)
            count += 1
            times.append(hi)
            states.append(x)
            lo = hi
        assert np.array_equal(traj.times, np.array(times))
        assert np.array_equal(traj.states, np.array(states))
        assert np.array_equal(
            traj.omegas, np.array([sched.omega_at(t) for t in times]))

    def test_constant_window_emits_once(self, monkeypatch):
        """A constant window is range-checked by its one chunk's sample,
        one row; the only emits are the samples at t=0 and at each
        window's end."""
        # hover_schedule's own planning check samples too, so the count
        # starts once the schedule is built
        sched = chain_schedules([hover_schedule(P, 0.0105),
                                 hover_schedule(P, 0.02)])
        calls, rows = [], []
        emit, sample = ControlSchedule.emit, ControlSchedule.sample
        monkeypatch.setattr(ControlSchedule, "emit", lambda self, seg, t:
                            calls.append(t) or emit(self, seg, t))
        monkeypatch.setattr(ControlSchedule, "sample", lambda self, seg, ts:
                            rows.append(sample(self, seg, ts)) or rows[-1])
        traj = simulate(hover_state(), sched, P, 0.0305, stride=10 ** 6)
        assert list(traj.times) == [0.0, 0.0105, 0.0305]
        assert calls == [0.0, 0.0105, 0.0305]
        assert [om.shape for om in rows] == [(1, 4), (1, 4)]

    def test_out_of_range_constant_window_names_its_start(self):
        sched = chain_schedules([
            hover_schedule(P, 0.5),
            ControlSchedule.constant((600.0,) * 4, 1.0)])
        with pytest.raises(SaturationError,
                           match=r"rotor speed 600\.0 .* at t=0\.5$"):
            simulate(hover_state(), sched, P, 1.5)

    @pytest.mark.parametrize("chunk", [1, 7, 256, 1024])
    @pytest.mark.parametrize("law, error, match, steps", [
        # rotors 1 and 3 pass 500 rad/s at t = 0.5, within the chunk of
        # steps 497-503, of steps 256-511, and, at the default chunk of
        # 1024 steps, of the whole 1000-step window
        (lambda tl: 400.0 + np.outer(tl, (200.0, 0.0, 200.0, 0.0)),
         SaturationError,
         r"^rotor speed 500\.1 outside \[0, 500\.0\] rad/s at t=0\.5005$",
         500),
        # the pitch torque tips the vehicle over before the law leaves
        # the ceiling at t = 0.1, in the first chunk of 256 or more steps
        (lambda tl: np.where(tl[:, None] < 0.1, (300.0, 100.0, 300.0, 500.0),
                             600.0),
         GimbalLockError,
         r"^gimbal lock near t=0\.085000: pitch 1\.5750962180924637 "
         r"within 1e-06 of \+-pi/2$",
         86),
        # the law refuses a tilt from t = 0.1, the end of step 100: the
        # refusal fails that step with the step's start time
        (_tilt_refused_from(0.1), GimbalLockError,
         r"^gimbal lock near t=0\.099000: translation wants tilt beyond "
         r"0\.5 rad$",
         99),
    ], ids=["saturation", "gimbal-lock-first", "law-refuses-tilt"])
    def test_chunk_with_a_failing_sample_fails_where_each_sample_would(
            self, monkeypatch, chunk, law, error, match, steps):
        """An unprobed law that fails partway through a chunk raises
        the error, with the t=, and after the steps, of a flight that
        emits its samples one at a time: the chunk is walked point by
        point. A step counts whether the compiled chunk or _rk4_step
        flew it; with the compiled chunk off, _rk4_step flies them all."""
        monkeypatch.setattr(quad, "_CHUNK", chunk)
        flown = []
        step, kernel_steps = quad._rk4_step, quad._kernel_steps

        def count_kernel(*args):
            j = kernel_steps(*args)
            flown.extend([None] * j)
            return j

        monkeypatch.setattr(quad, "_rk4_step",
                            lambda *a: flown.append(a) or step(*a))
        monkeypatch.setattr(quad, "_kernel_steps", count_kernel)
        sched = ControlSchedule((Segment(0.0, 1.0, law),))
        for lib in (native._lib, False):
            monkeypatch.setattr(native, "_lib", lib)
            flown.clear()
            with pytest.raises(error, match=match):
                simulate(hover_state(), sched, P, 1.0)
            assert len(flown) == steps
            if lib is False:
                assert None not in flown

    def test_an_earlier_non_finite_state_fails_first(self, monkeypatch):
        """A chunk's states are recorded before the error of a later
        step propagates, so the first recorded state that is not finite
        fails the flight, as if each were recorded as it was reached:
        step 3 ends on a NaN position, step 4 is recorded, step 5
        fails."""
        monkeypatch.setattr(native, "_lib", False)
        step, steps = quad._rk4_step, []

        def rk4(x, *args):
            steps.append(None)
            if len(steps) == 5:
                raise GimbalLockError("pitch")
            x = step(x, *args)
            return (math.nan, *x[1:]) if len(steps) == 3 else x

        monkeypatch.setattr(quad, "_rk4_step", rk4)
        with pytest.raises(DivergenceError,
                           match=r"^non-finite state at t=0\.004000$"):
            simulate(hover_state(), hover_schedule(P, 0.01), P, 0.01,
                     stride=2)
        assert len(steps) == 5

    def test_drag_dissipates_kinetic_energy(self):
        free = replace(P, g=0.0)
        s0 = QuadState(b=np.zeros(3), angles=np.zeros(3),
                       v=np.array([3.0, -2.0, 1.0]),
                       Omega=np.array([0.5, 0.4, -0.3]))
        sched = ControlSchedule.constant((0.0, 0.0, 0.0, 0.0), 2.0)
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
