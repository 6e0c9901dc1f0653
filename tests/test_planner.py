"""Unit checks for the maneuver planner."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quadswarm import planner
from quadswarm.consensus import consensus_point
from quadswarm.errors import DomainError, InfeasibleError, SaturationError
from quadswarm.planner import (OMEGA_MAX, ControlSchedule, ManeuverSpec,
                               Segment, axis_translation_schedule,
                               chain_schedules, hover_controls,
                               hover_schedule, plan, rendezvous_leg,
                               rendezvous_route, schedule_for,
                               vertical_schedule, yaw_schedule,
                               _smoothstep_ramp)
from quadswarm.mission import load_config
from quadswarm.quad import (Controls, QuadState, default_params, hover_state,
                            simulate, state_derivative)

from conftest import scenario_path

P = default_params()
HOVER_W = math.sqrt(P.m * P.g / (4.0 * P.Kr))


def _check_balanced_pair(axis, distance, duration):
    """The non-driving rotor pair of a translation leg leaves no yaw
    reaction torque and cancels the gyroscopic torque on its own axis
    (roll for bodyX, pitch for bodyY)."""
    sched = axis_translation_schedule(P, axis, distance, duration)
    for t in np.linspace(0.0, duration, 33):
        sq = sched.omega_at(t) ** 2
        assert abs(sq[0] - sq[1] + sq[2] - sq[3]) <= 1e-12 * np.sum(sq)

    # The rotor-driven torques are J (dx(omega) - dx(0))[9:12] at the
    # same state, and the gyroscopic one alone differences against a
    # vehicle without rotor inertia.
    run = simulate(hover_state(), sched, P, duration)
    k = 9 if axis == "bodyX" else 10
    J = P.J[k - 9]
    no_gyro = replace(P, Jr_bar=0.0)
    gyro = np.empty(len(run.times))
    both = np.empty(len(run.times))
    for j, (x, om) in enumerate(zip(run.states, run.omegas)):
        s, c = QuadState.from_vector(x), Controls(om)
        dx = state_derivative(s, c, P)
        gyro[j] = J * (dx - state_derivative(s, c, no_gyro))[k]
        both[j] = J * (dx - state_derivative(s, Controls(np.zeros(4)), P))[k]
    peak = np.max(np.abs(gyro))
    assert peak > 0.0
    assert np.max(np.abs(both)) <= 1e-3 * peak


class TestControlSchedule:
    def test_constant_schedule(self):
        om = np.array([100.0, 110.0, 100.0, 110.0])
        sched = ControlSchedule.constant(om, 2.0)
        assert sched.total_duration == 2.0
        assert sched.breakpoints == ()
        assert np.array_equal(sched.omega_at(0.0), om)
        assert np.array_equal(sched.omega_at(1.37), om)
        assert np.array_equal(sched.omega_at(2.0), om)

    def test_constant_validation(self):
        with pytest.raises(DomainError):
            ControlSchedule.constant(np.zeros(4), 0.0)
        with pytest.raises(DomainError):
            ControlSchedule.constant(np.zeros(3), 1.0)

    def test_sampling_outside_interval(self):
        sched = hover_schedule(P, 1.0)
        with pytest.raises(DomainError, match=r"t=1\.1 outside schedule "
                           r"interval \[0, 1\.0\]"):
            sched.omega_at(1.1)
        with pytest.raises(DomainError, match=r"t=-0\.1 outside schedule "
                           r"interval \[0, 1\.0\]"):
            sched.omega_at(-0.1)
        with pytest.raises(DomainError, match="schedule is empty"):
            ControlSchedule().omega_at(0.0)

    def test_gap_between_segments_rejected(self):
        law = lambda tl: np.full(4, 100.0)
        with pytest.raises(DomainError, match="segment starts at 1.5, "
                           "previous ended at 1.0"):
            ControlSchedule((Segment(0.0, 1.0, law), Segment(1.5, 2.0, law)))

    def test_zero_extent_segment_rejected(self):
        law = lambda tl: np.full(4, 100.0)
        with pytest.raises(DomainError):
            ControlSchedule((Segment(0.0, 0.0, law),))

    def test_emission_bounds_enforced(self):
        high = ControlSchedule.constant(np.full(4, 600.0), 1.0)
        with pytest.raises(SaturationError):
            high.omega_at(0.5)
        negative = ControlSchedule(
            (Segment(0.0, 1.0, lambda tl: np.array([1.0, 1.0, 1.0, -1.0])),))
        with pytest.raises(SaturationError):
            negative.omega_at(0.5)
        # NaN compares False both ways, and must still fail the check
        for bad in range(4):
            om = np.full(4, 100.0)
            om[bad] = math.nan
            nan = ControlSchedule((Segment(0.0, 1.0, lambda tl: om),))
            with pytest.raises(SaturationError):
                nan.omega_at(0.5)

    def test_ceiling_allows_rounding_only(self):
        at = ControlSchedule.constant((OMEGA_MAX + 1e-9,) * 4, 1.0)
        assert np.array_equal(at.omega_at(0.5), [OMEGA_MAX + 1e-9] * 4)
        over = ControlSchedule.constant((OMEGA_MAX + 1e-6,) * 4, 1.0)
        with pytest.raises(SaturationError,
                           match=r"outside \[0, 500\.0\] rad/s at t=0\.5$"):
            over.omega_at(0.5)

    def test_chained_route_holds_the_ceiling(self):
        # a chain of schedule_for legs emits under OMEGA_MAX, whatever
        # part it is built from, in flight as in planning
        hover = schedule_for(P, ManeuverSpec("hover", 0.0, 1.0))
        over = ControlSchedule.constant((OMEGA_MAX + 1e-6,) * 4, 1.0)
        route = chain_schedules([hover, over])
        assert np.array_equal(route.omega_at(0.5), [HOVER_W] * 4)
        with pytest.raises(SaturationError, match=r"at t=1\.0$"):
            route.omega_at(1.0)
        with pytest.raises(SaturationError, match=r"outside \[0, 500\.0\]"):
            simulate(hover_state(), route, P, 2.0)
        with pytest.raises(InfeasibleError,
                           match=r"outside \[0, 500\.0\] rad/s at t=0\.194$"):
            schedule_for(P, ManeuverSpec("vertical", 60.0, 2.0))

    def test_breakpoints_are_interior_junctions(self):
        parts = [hover_schedule(P, 1.0), hover_schedule(P, 2.0),
                 hover_schedule(P, 0.5)]
        sched = chain_schedules(parts)
        assert sched.total_duration == pytest.approx(3.5, abs=1e-12)
        assert np.allclose(sched.breakpoints, [1.0, 3.0], atol=1e-12)

    def test_chain_maps_local_time(self):
        a = ControlSchedule.constant(np.full(4, 100.0), 1.0)
        b = ControlSchedule.constant(np.full(4, 120.0), 1.0)
        sched = chain_schedules([a, b])
        assert sched.omega_at(0.5)[0] == 100.0
        assert sched.omega_at(1.5)[0] == 120.0

    def test_chain_of_nothing_is_empty(self):
        assert chain_schedules([]).total_duration == 0.0

    @pytest.mark.parametrize("build", [
        lambda: hover_schedule(P, 1.0),
        lambda: yaw_schedule(P, 0.5, 2.0),
        lambda: vertical_schedule(P, 1.0, 2.0),
        lambda: axis_translation_schedule(P, "bodyX", 1.0, 2.0),
        lambda: axis_translation_schedule(P, "bodyY", 1.0, 2.0),
    ], ids=["hover", "yaw", "vertical", "bodyX", "bodyY"])
    def test_laws_emit_float_tuples(self, build):
        sched = build()
        for seg in sched.segments:
            for t in (seg.t0, 0.5 * (seg.t0 + seg.t1), seg.t1):
                om = sched.emit(seg, t)
                assert type(om) is tuple and len(om) == 4
                assert all(type(w) is float for w in om)

    def test_constant_segments_carry_their_speeds(self):
        """The hover and the translation cruise are constant laws: one
        row of four speeds at any times, which sample returns as one
        row and emit reads at every time, also after chain_schedules.
        The ramp, yaw and climb laws return a row per time, and a law
        of any other shape broadcasts to one."""
        sched = chain_schedules([
            hover_schedule(P, 0.75),
            axis_translation_schedule(P, "bodyX", 1.0, 2.0),
            yaw_schedule(P, 0.5, 2.0), vertical_schedule(P, 1.0, 2.0)])
        tl = np.linspace(0.0, 0.3, 7)
        shapes = [np.shape(seg.law(tl)) for seg in sched.segments]
        assert shapes == [(4,), (7, 4), (4,), (7, 4), (7, 4), (7, 4)]
        samples = [sched.sample(seg, seg.t0 + tl) for seg in sched.segments]
        assert [om.shape for om in samples] \
            == [(1, 4), (7, 4), (1, 4), (7, 4), (7, 4), (7, 4)]
        for seg, om in zip(sched.segments[0:3:2], samples[0:3:2]):
            row = tuple(om[0].tolist())
            assert row == tuple(seg.law(tl))
            assert [sched.emit(seg, t) for t in (seg.t0 + tl).tolist()] \
                == [row] * 7
        scalar = Segment(0.0, 1.0, lambda tl: 300.0)
        assert planner._law_rows(scalar, tl).shape == (7, 4)

    def test_feasibility_checks_a_constant_segment_once(self, monkeypatch):
        """Every segment, constant or not, is sampled once, on the
        2001-point grid from its t0 to its t1, in one call of its law;
        a schedule in range is never emitted."""
        calls = []
        emit, sample = ControlSchedule.emit, ControlSchedule.sample
        monkeypatch.setattr(ControlSchedule, "emit", lambda self, seg, t:
                            calls.append(("emit", t)) or emit(self, seg, t))
        monkeypatch.setattr(ControlSchedule, "sample", lambda self, seg, ts:
                            calls.append(ts) or sample(self, seg, ts))
        hover = ControlSchedule.constant(np.full(4, HOVER_W), 2.0)
        assert calls == []  # constant() builds without sampling
        for build in (lambda: planner._feasible(hover),
                      lambda: hover_schedule(P, 2.0),  # checked like a leg
                      lambda: axis_translation_schedule(P, "bodyX", 1.0,
                                                        2.0)):
            calls.clear()
            sched = build()
            assert len(calls) == len(sched.segments)
            for grid, seg in zip(calls, sched.segments):
                assert np.array_equal(grid,
                                      np.linspace(seg.t0, seg.t1, 2001))

    def test_out_of_range_constant_segment_names_its_start(self):
        fast = (600.0,) * 4
        sched = ControlSchedule((
            Segment(0.0, 1.0, lambda tl: (300.0,) * 4),
            Segment(1.0, 2.0, lambda tl: fast)))
        with pytest.raises(SaturationError, match=r"at t=1\.0$"):
            planner._feasible(sched)
        with pytest.raises(InfeasibleError, match=r"at t=1\.0$"):
            with planner._natural_amplitude():
                planner._feasible(sched)

    def test_windows_clip_segments_to_the_duration(self):
        sched = chain_schedules([hover_schedule(P, 0.0105),
                                 hover_schedule(P, 0.02)])
        got = list(sched.windows(0.025, 1e-3))
        assert [w[0] for w in got] == list(sched.segments)
        (_, lo1, hi1, edge1, n1, rem1), (_, lo2, hi2, edge2, n2, rem2) = got
        assert (lo1, hi1, edge1) == (0.0, 0.0105, 0.0105 - 1e-12)
        assert (n1, rem1) == (10, pytest.approx(5e-4, abs=1e-15))
        # the final window ends at the duration, inside its segment
        assert (lo2, hi2, edge2, n2) == (0.0105, 0.025, 0.025, 14)
        assert rem2 == pytest.approx(5e-4, abs=1e-15)
        # a duration ending at the first segment's end takes one window
        assert [w[1:3] for w in sched.windows(0.0105, 1e-3)] == [
            (0.0, 0.0105)]
        assert list(sched.windows(0.0, 1e-3))[0][4:] == (0, 0.0)

    def test_windows_refuse_a_step_count_that_overflows(self):
        # floor(inf) would escape as OverflowError
        sched = hover_schedule(P, 1.0)
        with pytest.raises(DomainError, match=r"span / dt = 1\.0 / 5e-324 "
                                              "is not finite"):
            list(sched.windows(1.0, 5e-324))

    def test_window_steps_of_the_three_drone_rendezvous(self):
        """scenario_4_2_2 flies 28891 RK4 steps at dt = 1e-3: every
        window's full steps plus its remainder step."""
        config = load_config(scenario_path("scenario_4_2_2"))
        alpha = consensus_point(config.agents[:, :3])
        steps = 0
        for row in config.agents:
            sched = rendezvous_leg(
                config.params, hover_state(b=row[:3], yaw=row[5]), alpha)
            steps += sum(nfull + (rem > 0.0) for _, _, _, _, nfull, rem
                         in sched.windows(sched.total_duration, 1e-3))
        assert steps == 28891

    @pytest.mark.parametrize("t", [0.5, 2.0])
    def test_samples_do_not_alias_the_schedule(self, t):
        # t=0.5 reads the hover's stored speeds, t=2.0 the cruise's
        sched = chain_schedules([
            hover_schedule(P, 0.75),
            axis_translation_schedule(P, "bodyX", 1.0, 2.0)])
        before = sched.omega_at(t)
        sched.omega_at(t)[:] = 0.0
        assert np.array_equal(sched.omega_at(t), before)
        assert np.all(before > 0.0)


class TestHover:
    def test_hover_controls_balance_gravity(self):
        c = hover_controls(P)
        assert np.allclose(c.omega, HOVER_W, atol=0.0)
        assert P.Kr * np.sum(c.omega ** 2) == pytest.approx(P.m * P.g,
                                                            abs=1e-12)

    def test_hover_saturation(self):
        # the schedule's emit holds the ceiling, at planning time: a
        # 4 kg vehicle hovers at 573.35 rad/s, above OMEGA_MAX
        with pytest.raises(SaturationError, match=r"rotor speed 573\.35"):
            hover_schedule(replace(P, m=4.0), 1.0)

    def test_hover_schedule_holds_position(self):
        traj = simulate(hover_state(), hover_schedule(P, 0.5), P, 0.5)
        assert np.max(np.abs(traj.states[-1] - traj.states[0])) == 0.0


class TestYaw:
    def test_quarter_turn(self):
        sched = yaw_schedule(P, -math.pi / 4, 2.0)
        run = simulate(hover_state(), sched, P, 2.0)
        final = run.states[-1]
        assert abs(final[5] + math.pi / 4) <= 2e-6
        assert np.max(np.abs(final[0:3])) <= 1e-9
        assert np.max(np.abs(final[6:9])) <= 1e-9

    def test_manifold_constraints_hold_exactly(self):
        sched = yaw_schedule(P, -math.pi / 4, 2.0)
        for t in np.linspace(0.0, 2.0, 41):
            om = sched.omega_at(t)
            assert om[0] == om[2] and om[1] == om[3]
            thrust = P.Kr * float(np.sum(om ** 2))
            assert abs(thrust - P.m * P.g) <= 1e-12

    def test_zero_turn_is_hover(self):
        sched = yaw_schedule(P, 0.0, 1.0)
        assert np.allclose(sched.omega_at(0.5), HOVER_W, atol=1e-12)

    def test_infeasible_turn_rate(self):
        with pytest.raises(InfeasibleError):
            yaw_schedule(P, math.pi, 0.05)

    def test_refusal_names_the_first_refused_time(self):
        # the probe's grid is sampled in one call of the law, and the
        # refusal still names its first refused point
        with pytest.raises(InfeasibleError, match=(
                r"^maneuver is infeasible at its natural amplitude: yaw "
                r"torque exceeds rotor authority at t=0\.044$")):
            yaw_schedule(P, 30.0, 2.0)

    def test_needs_reaction_torque(self):
        # without it the law would divide by zero
        with pytest.raises(InfeasibleError,
                           match=r"^yaw by reaction torque needs Kd > 0$"):
            yaw_schedule(replace(P, Kd=0.0), 0.5, 2.0)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            yaw_schedule(P, 1.0, 0.0)


class TestVertical:
    def test_climb(self):
        sched = vertical_schedule(P, 1.5, 2.0)
        run = simulate(hover_state(), sched, P, 2.0)
        final = run.states[-1]
        assert abs(final[2] - 1.5) <= 1e-5
        assert final[0] == 0.0 and final[1] == 0.0  # no lateral coupling
        assert abs(final[8]) <= 1e-3  # nearly at rest again

    def test_descent(self):
        sched = vertical_schedule(P, -1.0, 2.0)
        run = simulate(hover_state(), sched, P, 2.0)
        assert abs(run.states[-1][2] + 1.0) <= 1e-5

    def test_rotors_stay_equal(self):
        sched = vertical_schedule(P, 1.5, 2.0)
        for t in np.linspace(0.0, 2.0, 17):
            om = sched.omega_at(t)
            assert om[0] == om[1] == om[2] == om[3]

    def test_too_fast_descent_is_infeasible(self):
        # Free fall covers 0.5 g t^2; demanding much more within the leg
        # would need negative thrust.
        with pytest.raises(InfeasibleError):
            vertical_schedule(P, -200.0, 2.0)


class TestTranslation:
    def test_body_x_run(self):
        sched = axis_translation_schedule(P, "bodyX", 2.0, 2.5)
        run = simulate(hover_state(), sched, P, 2.5)
        final = run.states[-1]
        assert abs(final[0] - 2.0) <= 1e-5
        assert abs(final[1]) <= 5e-2
        assert abs(final[2]) <= 5e-2

    def test_body_x_locks_rotors_1_and_3(self):
        """Rotors 1 and 3 hold zero net reaction torque,
        w1^2 + w3^2 = w2^2 + w4^2, and their roll torque
        Krd (w3^2 - w1^2) cancels the gyroscopic roll torque."""
        _check_balanced_pair("bodyX", 2.0, 2.5)

    def test_body_y_run(self):
        sched = axis_translation_schedule(P, "bodyY", 1.5, 2.5)
        run = simulate(hover_state(), sched, P, 2.5)
        final = run.states[-1]
        assert abs(final[1] - 1.5) <= 1e-5
        assert abs(final[0]) <= 5e-2

    def test_body_y_locks_rotors_2_and_4(self):
        """Rotors 2 and 4 hold zero net reaction torque,
        w2^2 + w4^2 = w1^2 + w3^2, and their pitch torque
        Krd (w4^2 - w2^2) cancels the gyroscopic pitch torque."""
        _check_balanced_pair("bodyY", 1.5, 2.5)

    def test_legs_end_level_and_at_rest(self, monkeypatch):
        """5 m / 4 s legs land on target, level, at rest and at the
        start altitude, and no leg, nor a whole rendezvous flight, runs
        the integrator while it is planned."""
        def no_simulation(*args, **kwargs):
            raise AssertionError("planning ran a simulation")

        monkeypatch.setattr(planner, "simulate", no_simulation)
        yaw_schedule(P, math.pi / 2, 4.0)
        vertical_schedule(P, 10.0, 12.0)
        legs = {axis: axis_translation_schedule(P, axis, 5.0, 4.0)
                for axis in ("bodyX", "bodyY")}
        rendezvous_leg(P, hover_state(), [3.0, -4.0, 2.0])
        monkeypatch.undo()
        for axis, coord in (("bodyX", 0), ("bodyY", 1)):
            final = simulate(hover_state(), legs[axis], P, 4.0).states[-1]
            assert abs(final[coord] - 5.0) <= 1e-5
            assert np.max(np.abs(final[3:5])) <= 1e-8  # roll, pitch
            assert np.max(np.abs(final[9:12])) <= 1e-8  # body rates
            assert np.linalg.norm(final[6:9]) <= 1e-4  # body speed
            assert abs(final[2]) <= 1e-4  # altitude

    def test_reverse_run(self):
        sched = axis_translation_schedule(P, "bodyX", -1.5, 2.5)
        run = simulate(hover_state(), sched, P, 2.5)
        assert abs(run.states[-1][0] + 1.5) <= 1e-5

    def test_infeasible_distance(self):
        with pytest.raises(InfeasibleError):
            axis_translation_schedule(P, "bodyX", 5000.0, 4.0)

    def test_torque_demand_refusal(self):
        with pytest.raises(InfeasibleError, match=(
                r"^maneuver is infeasible at its natural amplitude: torque "
                r"demand exceeds thrust budget$")):
            axis_translation_schedule(P, "bodyX", 80.0, 2.0)

    def test_gyroscopic_torque_past_the_balancing_pair(self):
        # a heavy rotor's gyroscopic torque asks the balancing pair for a
        # negative squared speed
        with pytest.raises(InfeasibleError, match=(
                r"^maneuver is infeasible at its natural amplitude: "
                r"balancing pair cannot cancel the gyroscopic torque$")):
            axis_translation_schedule(replace(P, Jr_bar=0.1), "bodyX", 5.0,
                                      3.0)

    def test_needs_gravity(self):
        with pytest.raises(InfeasibleError):
            axis_translation_schedule(replace(P, g=0.0), "bodyX", 1.0, 2.0)

    def test_axis_validation(self):
        with pytest.raises(DomainError):
            axis_translation_schedule(P, "vertical", 1.0, 2.0)
        with pytest.raises(DomainError):
            axis_translation_schedule(P, "bodyX", 1.0, 0.0)


def _scalar_law(p, spec, i):
    """The law of segment i of spec's leg, written on one Python float
    as the laws were before they took arrays: the reference the array
    laws must equal bit for bit."""
    T = spec.duration
    if spec.kind == "yaw":
        pair_sq = p.m * p.g / (2.0 * p.Kr)
        amp = 2.0 * spec.amount / T

        def law(tl):
            phase = 2.0 * math.pi * tl / T
            rate = 0.5 * amp * (1.0 - math.cos(phase))
            accel = amp * (math.pi / T) * math.sin(phase)
            tau = float(p.J[2]) * accel + rate * abs(rate) * float(p.Ctau[2])
            diff = tau / (2.0 * p.Kd)
            w1 = math.sqrt(0.5 * (pair_sq + diff))
            w2 = math.sqrt(0.5 * (pair_sq - diff))
            return (w1, w2, w1, w2)
        return law
    if spec.kind == "vertical":
        peak = 2.0 * spec.amount / T

        def law(tl):
            phase = 2.0 * math.pi * tl / T
            vdes = 0.5 * peak * (1.0 - math.cos(phase))
            adens = peak * (math.pi / T) * math.sin(phase)
            thrust = p.m * (adens + p.g) + vdes * abs(vdes) * float(p.CD[2])
            w = math.sqrt(thrust / (4.0 * p.Kr))
            return (w, w, w, w)
        return law

    m, g, Kr, Krd = p.m, p.g, p.Kr, p.Kr * p.d
    kg = p.Jr_bar / Krd
    body_x = spec.kind == "bodyX"
    k = 1 if body_x else 0
    s, c = (1.0, p.CD[0] / m) if body_x else (-1.0, p.CD[1] / m)
    J, Ct, c = float(p.J[k]), float(p.Ctau[k]), float(c)
    peak = spec.amount / (0.8 * T)
    kappa = s * math.copysign(c, peak)
    profile = _smoothstep_ramp(peak, 0.2 * T, i == 0)

    def law(tl):
        v, v1, v2, v3 = profile(tl)
        acc, drag = s * v1, kappa * v * v
        w = (acc + drag) / g
        for _ in range(20):
            h = 1.0 / math.sqrt(1.0 + w * w)
            step = (g * w - acc - drag * h) / (g + drag * w * h ** 3)
            w -= step
            if abs(step) <= 1e-15 * (1.0 + abs(w)):
                break
        h = 1.0 / math.sqrt(1.0 + w * w)
        h2 = h * h
        dh = -w * h2 * h
        drag1 = 2.0 * kappa * v * v1
        drag2 = 2.0 * kappa * (v1 * v1 + v * v2)
        den = g - drag * dh
        w1 = (s * v2 + drag1 * h) / den
        w2 = (s * v3 + drag2 * h + 2.0 * drag1 * dh * w1
              + drag * (2.0 * w * w - 1.0) * h2 * h2 * h * w1 * w1) / den
        rate = w1 * h2
        accel = (w2 - 2.0 * w * w1 * w1 * h2) * h2
        vz = s * v * (w * h)
        thrust = (m * (s * v1 * (w * h) + g * h)
                  + float(p.CD[2]) * vz * abs(vz))
        pair = thrust / (2.0 * Kr)
        pdiff = (J * accel + Ct * rate * abs(rate)) / Krd
        a = math.sqrt(0.5 * (pair - pdiff))
        b = math.sqrt(0.5 * (pair + pdiff))
        lo = hi = math.sqrt(0.5 * pair)
        for _ in range(2):
            half_diff = 0.5 * kg * rate * (lo + hi - a - b)
            lo = math.sqrt(0.5 * pair + half_diff)
            hi = math.sqrt(0.5 * pair - half_diff)
        return (lo, a, hi, b) if body_x else (a, lo, b, hi)
    return law


class TestArrayLaws:
    @settings(max_examples=20, deadline=None)
    @given(kind=st.sampled_from(["yaw", "vertical", "bodyX", "bodyY"]),
           amount=st.floats(-3.0, 3.0), duration=st.floats(1.5, 2.5),
           dt=st.sampled_from([1e-3, 3.7e-3, 5e-4]),
           seed=st.integers(0, 2**32 - 1))
    def test_one_call_equals_one_element_calls(self, kind, amount,
                                               duration, dt, seed):
        """A law called once on the probe's grid and the flight's
        stage times gives, bit for bit, what the scalar formula gives
        at each time, and what the law gives one time at a time, as
        emit calls it. A one-element call costs tens of microseconds,
        so 300 of the times, drawn at random, are compared that way."""
        spec = ManeuverSpec(kind, amount, duration)
        try:
            sched = schedule_for(P, spec)
        except InfeasibleError:
            assume(False)
        for seg, lo, hi, edge, nfull, rem in sched.windows(duration, dt):
            t = np.append(lo + np.arange(nfull) * dt, [hi - rem][:rem > 0])
            h = np.append(np.full(nfull, dt), [rem][:rem > 0])
            stages = np.minimum(np.concatenate((t, t + 0.5 * h, t + h)),
                                edge)
            tl = np.concatenate(
                (np.linspace(seg.t0, seg.t1, 2001), stages)) - seg.t0
            whole = seg.law(tl)
            if np.shape(whole) in {(4,), (1, 4)}:
                continue  # a constant law: one row for every time
            scalar = _scalar_law(P, spec, sched.segments.index(seg))
            assert np.array_equal(whole, [scalar(x) for x in tl.tolist()])
            drawn = np.random.default_rng(seed).choice(tl.size, 300)
            assert np.array_equal(
                whole[drawn],
                np.concatenate([seg.law(tl[i:i + 1]) for i in drawn]))


class TestExactInversion:
    """Each leg inverts the continuous dynamics exactly, so a flight
    misses its target only by the integrator's error. A modelling
    inconsistency would leave a miss that does not shrink with dt."""

    def test_translation_miss_shrinks_at_rk4_order(self):
        sched = axis_translation_schedule(P, "bodyX", 5.0, 4.0)
        miss = [abs(simulate(hover_state(), sched, P, 4.0, dt).states[-1][0]
                    - 5.0) for dt in (0.02, 0.01)]
        # fourth order: halving dt divides the miss by about 16
        assert 12.0 <= miss[0] / miss[1] <= 20.0

    def test_yaw_and_vertical_land_to_rounding(self):
        sched = yaw_schedule(P, math.pi / 2, 4.0)
        final = simulate(hover_state(), sched, P, 4.0, 0.01).states[-1]
        assert abs(final[5] - math.pi / 2) <= 1e-9
        sched = vertical_schedule(P, 10.0, 12.0)
        final = simulate(hover_state(), sched, P, 12.0, 0.01).states[-1]
        assert abs(final[2] - 10.0) <= 1e-9


class TestTrapezoid:
    """The commanded inertial speed: smoothstep ramps around a cruise."""

    def test_area_and_endpoints(self):
        duration, peak = 4.0, 1.25
        width = 0.2 * duration
        up = _smoothstep_ramp(peak, width, True)
        down = _smoothstep_ramp(peak, width, False)
        assert up(0.0)[0] == 0.0 and down(width)[0] == 0.0
        # the ramps meet the cruise at the peak and never pass it
        assert up(width)[0] == pytest.approx(peak, abs=1e-12)
        assert down(0.0)[0] == pytest.approx(peak, abs=1e-12)
        tl = np.linspace(0.0, width, 4001)
        v_up = np.array([up(t)[0] for t in tl])
        v_down = np.array([down(t)[0] for t in tl])
        assert np.max(v_up) <= peak and np.max(v_down) <= peak
        # Quintic ramps each contribute half a ramp-width of area.
        area = (np.trapezoid(v_up, tl) + peak * (duration - 2.0 * width)
                + np.trapezoid(v_down, tl))
        assert area == pytest.approx(peak * duration * 0.8, abs=1e-6)

    def test_rate_consistency(self):
        """V', V'' and V''' each match a central difference of the
        derivative one order below, on both ramps."""
        width, peak, h = 0.6, 0.9, 1e-5
        for rising in (True, False):
            profile = _smoothstep_ramp(peak, width, rising)
            for t in np.linspace(h, width - h, 41):
                below, above = profile(t - h), profile(t + h)
                here = profile(t)
                for k in range(3):
                    num = (above[k] - below[k]) / (2.0 * h)
                    scale = peak / width ** (k + 1)
                    assert abs(num - here[k + 1]) <= 1e-6 * scale


class TestDispatch:
    def test_schedule_for_each_kind(self):
        assert schedule_for(
            P, ManeuverSpec("hover", 0.0, 1.5)).total_duration == 1.5
        sched = schedule_for(P, ManeuverSpec("yaw", 0.3, 2.0))
        assert sched.total_duration == 2.0
        with pytest.raises(DomainError):
            schedule_for(P, ManeuverSpec("barrelroll", 1.0, 2.0))

    def test_rendezvous_route_vertical_only(self):
        route = rendezvous_route(hover_state(), (0.0, 0.0, 3.0))
        assert [s.kind for s in route] == ["vertical"]
        assert route[0].amount == 3.0

    def test_rendezvous_route_full_route(self):
        route = rendezvous_route(hover_state(b=(0.0, 0.0, 1.0)),
                                 (-4.0, 0.0, 2.0))
        assert [s.kind for s in route] == ["vertical", "yaw", "bodyX"]
        assert route[0].amount == pytest.approx(1.0)
        assert abs(route[1].amount) == pytest.approx(math.pi)
        assert route[2].amount == pytest.approx(4.0)

    def test_rendezvous_route_wraps_heading(self):
        # Bearing pi/2 from heading 7pi/4 is a quarter turn left, not a
        # three-quarter turn right.
        route = rendezvous_route(hover_state(yaw=7.0 * math.pi / 4.0),
                                 (0.0, 5.0, 0.0))
        yaw = [s for s in route if s.kind == "yaw"][0]
        assert yaw.amount == pytest.approx(3.0 * math.pi / 4.0)

    def test_rendezvous_route_identity(self):
        start = hover_state(b=(1.0, 2.0, 3.0), yaw=0.4)
        assert rendezvous_route(start, (1.0, 2.0, 3.0)) \
            == (ManeuverSpec("hover", 0.0, 2.0),)

    def test_minimum_leg_duration(self):
        route = rendezvous_route(hover_state(), (0.1, 0.0, 0.05))
        assert all(s.duration >= 2.0 for s in route)

    def test_route_durations_sum_to_the_planned_flight_time(self):
        """The lanes' flight time, the sum of a route's leg durations,
        is bit-equal to the planned schedule's total_duration, for
        scenario_4_2_1's legs and scenario_4_2_2's three routes."""
        scripted = load_config(scenario_path("scenario_4_2_1"))
        config = load_config(scenario_path("scenario_4_2_2"))
        alpha = consensus_point(config.agents[:, :3])
        routes = [(scripted.params, scripted.maneuvers)] + [
            (config.params,
             rendezvous_route(hover_state(b=row[:3], yaw=row[5]), alpha))
            for row in config.agents]
        for params, route in routes:
            assert sum(spec.duration for spec in route) \
                == plan(params, route).total_duration


class TestRendezvousLeg:
    def test_requires_level_hover(self):
        tilted = hover_state()
        moving = replace(tilted, v=np.array([0.1, 0.0, 0.0]))
        with pytest.raises(DomainError):
            rendezvous_leg(P, moving, (1.0, 0.0, 0.0))

    def test_target_shape_checked(self):
        """A target that is not a finite 3-vector is refused, not
        flown as a hover in place (NaN) or an endless leg (inf)."""
        with pytest.raises(DomainError):
            rendezvous_leg(P, hover_state(), (1.0, 0.0))
        for bad in (math.nan, math.inf):
            with pytest.raises(DomainError, match="non-finite"):
                rendezvous_route(hover_state(), (bad, 0.0, 0.0))

    def test_already_there(self):
        """A vehicle at its target holds one 2 s hover, the shortest
        leg rendezvous_route plans, so the route still has a flight, and
        that flight holds the position exactly."""
        start = hover_state(b=(1.0, 2.0, 3.0), yaw=0.4)
        sched = rendezvous_leg(P, start, (1.0, 2.0, 3.0))
        assert sched.total_duration == 2.0
        assert len(sched.segments) == 1
        assert np.array_equal(sched.omega_at(1.0), hover_controls(P).omega)
        run = simulate(start, sched, P, sched.total_duration)
        assert run.times[-1] == 2.0
        assert np.array_equal(
            run.states, np.tile(start.as_vector(), (len(run.times), 1)))

    def test_short_route_reaches_target(self):
        start = hover_state()
        target = np.array([2.0, 0.0, 1.0])
        sched = rendezvous_leg(P, start, target)
        run = simulate(start, sched, P, sched.total_duration)
        assert np.linalg.norm(run.states[-1][0:3] - target) <= 5e-2
