"""Open-loop maneuver planning.

Every planner here emits a ControlSchedule: piecewise rotor-speed laws
that steer the vehicle between level hovers. Maneuvers are built on
invariant manifolds of the dynamics:

  * vertical legs keep all four rotors equal (no torque at all),
  * yaw legs keep omega1 = omega3 and omega2 = omega4 with the thrust
    sum pinned at m g (pure yaw torque, zero translation),
  * translation legs pitch (or roll) the thrust vector while holding
    altitude: the driving pair makes the tilt torque, and the other
    pair carries the same sum of squared speeds (zero reaction torque,
    so no yaw) with a split that cancels the gyroscopic torque on its
    own axis (so no roll for bodyX, no pitch for bodyY).

Each leg commands a smooth velocity bump or trapezoid, inverts the
rigid-body dynamics along the manifold in closed form to get rotor
speeds, and then tunes the profile amplitude by false position with
the Illinois cut against the actual fixed-step simulation so the
terminal quantity lands on target.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DomainError, GimbalLockError,
                     InfeasibleError, SaturationError, ScheduleGapError)
from .quad import Controls, hover_state, simulate

# Rotor speed ceiling used by planning; the integrator itself never clamps.
OMEGA_MAX = 500.0

# Terminal tolerance and iteration budget for the amplitude search.
_TUNE_TOL = 1e-6
_TUNE_MAX_ITER = 60

# Fraction of a translation leg spent in each smoothstep ramp.
_RAMP_FRACTION = 0.2


@dataclass(frozen=True)
class ManeuverSpec:
    """One maneuver request.

    kind: 'hover', 'yaw', 'vertical', 'bodyX' or 'bodyY'.
    amount: radians for yaw, meters otherwise (ignored for hover).
    duration: leg length in seconds.
    """

    kind: str
    amount: float
    duration: float


@dataclass(frozen=True)
class Segment:
    """One schedule piece on [t0, t1]; law maps local time to 4 speeds."""

    t0: float
    t1: float
    law: object


@dataclass(frozen=True)
class ControlSchedule:
    """Contiguous rotor-speed segments covering [0, total_duration].

    omega_at validates every emission: speeds must lie in
    [0, omega_max]. Sampling outside the covered interval raises
    ScheduleGapError, as does constructing non-contiguous segments.
    """

    segments: tuple = ()
    omega_max: float = OMEGA_MAX

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        t = 0.0
        for seg in self.segments:
            if seg.t1 <= seg.t0:
                raise DomainError(
                    f"segment [{seg.t0}, {seg.t1}] has no extent")
            if abs(seg.t0 - t) > 1e-9:
                raise ScheduleGapError(
                    f"segment starts at {seg.t0}, previous ended at {t}")
            t = seg.t1

    @property
    def total_duration(self):
        return self.segments[-1].t1 if self.segments else 0.0

    @property
    def breakpoints(self):
        """Interior segment junctions; the command may jump across one,
        so integrators should not let a step straddle them."""
        return tuple(seg.t1 for seg in self.segments[:-1])

    def omega_at(self, t):
        """Rotor speeds at time t, validated against [0, omega_max]."""
        if not self.segments:
            raise ScheduleGapError("schedule is empty")
        total = self.segments[-1].t1
        if t < -1e-9 or t > total + 1e-9:
            raise ScheduleGapError(
                f"t={t!r} outside schedule interval [0, {total}]")
        seg = self.segments[-1]
        for s in self.segments:
            if t < s.t1:
                seg = s
                break
        local = t - seg.t0
        if local < 0.0:
            local = 0.0
        elif local > seg.t1 - seg.t0:
            local = seg.t1 - seg.t0
        om = seg.law(local)
        if om[0] < 0.0 or om[1] < 0.0 or om[2] < 0.0 or om[3] < 0.0:
            raise SaturationError(f"negative rotor speed at t={t!r}")
        mx = self.omega_max + 1e-9
        if om[0] > mx or om[1] > mx or om[2] > mx or om[3] > mx:
            raise SaturationError(
                f"rotor speed exceeds {self.omega_max} rad/s at t={t!r}")
        return om

    @classmethod
    def constant(cls, omega, duration, omega_max=OMEGA_MAX):
        """Hold fixed rotor speeds for the given duration."""
        if not duration > 0.0:
            raise DomainError("duration must be positive")
        om = np.asarray(omega, dtype=float).copy()
        if om.shape != (4,):
            raise DomainError("omega must be a 4-vector")
        return cls((Segment(0.0, float(duration), lambda tl: om),),
                   omega_max)


def chain_schedules(parts, omega_max=OMEGA_MAX):
    """Concatenate schedules back to back into one."""
    segs = []
    offset = 0.0
    for part in parts:
        for seg in part.segments:
            segs.append(Segment(offset + seg.t0, offset + seg.t1, seg.law))
        offset += part.total_duration
    return ControlSchedule(tuple(segs), omega_max)


def hover_controls(p, omega_max=OMEGA_MAX):
    """Rotor speeds that balance gravity exactly at level attitude."""
    w = math.sqrt(p.m * p.g / (4.0 * p.Kr))
    if w > omega_max:
        raise SaturationError(
            f"hover needs {w:.1f} rad/s, above the {omega_max} limit")
    return Controls(omega=np.array([w, w, w, w]))


def hover_schedule(p, duration, omega_max=OMEGA_MAX):
    """Hold a level hover for the given duration."""
    return ControlSchedule.constant(
        hover_controls(p, omega_max).omega, duration, omega_max)


def _tune_amplitude(build, measure, target, tol=_TUNE_TOL,
                    max_iter=_TUNE_MAX_ITER):
    """Scale a profile until the simulated terminal quantity hits target.

    build(scale) -> schedule; measure(schedule) -> achieved terminal
    quantity. The achieved quantity must grow with scale. Returns the
    tuned schedule.
    """
    sign = 1.0 if target >= 0.0 else -1.0
    goal = abs(target)

    def err(scale):
        # larger amplitudes only get harder to fly, so a build failure
        # bounds the search from above instead of aborting it
        try:
            sched = build(scale)
        except (GimbalLockError, InfeasibleError, SaturationError):
            return None, None
        return sign * measure(sched) - goal, sched

    e, sched = err(1.0)
    if e is None:
        raise InfeasibleError(
            "maneuver is infeasible at its natural amplitude")
    if abs(e) <= tol:
        return sched
    if e < 0.0:
        lo, e_lo = 1.0, e
        hi = e_hi = None
        cap = None
        cand = 2.0
        for _ in range(60):
            e_c, sched_c = err(cand)
            if e_c is None:
                cap = cand
                cand = 0.5 * (lo + cand)
                if cand - lo <= 1e-9 * cand:
                    raise InfeasibleError("terminal target out of reach")
                continue
            if abs(e_c) <= tol:
                return sched_c
            if e_c > 0.0:
                hi, e_hi = cand, e_c
                break
            lo, e_lo = cand, e_c
            cand = 0.5 * (lo + cap) if cap is not None else 2.0 * lo
            if cap is not None and cap - lo <= 1e-9 * cap:
                raise InfeasibleError("terminal target out of reach")
        if hi is None:
            raise InfeasibleError("terminal target out of reach")
    else:
        hi, e_hi = 1.0, e
        lo = 0.5
        for _ in range(60):
            e_lo, sched_lo = err(lo)
            if e_lo is None:
                raise InfeasibleError(
                    "amplitude search lost feasibility while shrinking")
            if abs(e_lo) <= tol:
                return sched_lo
            if e_lo < 0.0:
                break
            hi, e_hi = lo, e_lo
            lo *= 0.5
        else:
            raise InfeasibleError("terminal target cannot be bracketed")

    # false position with the Illinois cut: the terminal error is close
    # to linear in the amplitude, so this lands in a handful of
    # simulations where plain bisection needs dozens
    side = 0
    for _ in range(max_iter):
        mid = hi - e_hi * (hi - lo) / (e_hi - e_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        e_mid, sched = err(mid)
        if e_mid is None:
            hi = mid
            continue
        if abs(e_mid) <= tol:
            return sched
        if e_mid < 0.0:
            lo, e_lo = mid, e_mid
            if side == -1:
                e_hi *= 0.5
            side = -1
        else:
            hi, e_hi = mid, e_mid
            if side == 1:
                e_lo *= 0.5
            side = 1
    raise ConvergenceError(
        f"amplitude search did not reach {tol} in {max_iter} iterations")


def _scan_feasible(law, duration, omega_max, samples=2001):
    """Probe a smooth law on a dense grid; saturation here is a plan
    failure, not an emission failure."""
    tl = np.linspace(0.0, duration, samples)
    om = np.array([law(t) for t in tl])
    bad = np.any((om < 0.0) | (om > omega_max), axis=1)
    if bad.any():
        raise InfeasibleError(f"rotor speeds leave [0, {omega_max}] "
                              f"at t={tl[np.argmax(bad)]:.3f}")


def yaw_schedule(p, delta_psi, duration, omega_max=OMEGA_MAX, dt=1e-3):
    """Turn in place through delta_psi radians.

    Rotors hold omega1 = omega3 and omega2 = omega4 with the thrust sum
    pinned to m g, so the vehicle neither translates nor tips; only the
    reaction torque acts. The commanded yaw rate is a raised-cosine
    bump whose amplitude is tuned by false position with the Illinois
    cut so the simulated final yaw matches delta_psi.

    Raises:
        InfeasibleError: required torque drives a rotor outside
            [0, omega_max].
    """
    if not duration > 0.0:
        raise DomainError("duration must be positive")
    pair_sq = p.m * p.g / (2.0 * p.Kr)  # omega1^2 + omega2^2 at all times
    J3 = p.J[2]
    Ct3 = p.Ctau[2]
    two_pi = 2.0 * math.pi

    def build(scale):
        amp = scale * 2.0 * delta_psi / duration

        def law(tl):
            phase = two_pi * tl / duration
            rate = 0.5 * amp * (1.0 - math.cos(phase))
            accel = amp * (math.pi / duration) * math.sin(phase)
            tau = J3 * accel + rate * abs(rate) * Ct3
            diff = tau / (2.0 * p.Kd)  # omega1^2 - omega2^2
            sq1 = 0.5 * (pair_sq + diff)
            sq2 = 0.5 * (pair_sq - diff)
            if sq1 < 0.0 or sq2 < 0.0:
                raise InfeasibleError(
                    f"yaw torque exceeds rotor authority at t={tl:.3f}")
            w1 = math.sqrt(sq1)
            w2 = math.sqrt(sq2)
            return np.array([w1, w2, w1, w2])

        _scan_feasible(law, duration, omega_max)
        return ControlSchedule((Segment(0.0, duration, law),), omega_max)

    if delta_psi == 0.0:
        return build(0.0)

    def measure(sched):
        run = simulate(hover_state(), sched, p, duration, dt)
        return run.states[-1][5]

    return _tune_amplitude(build, measure, delta_psi)


def vertical_schedule(p, dz, duration, omega_max=OMEGA_MAX, dt=1e-3):
    """Climb (or descend) dz meters, ending level and at rest.

    All four rotors stay equal, so no torque is ever produced; thrust
    follows a raised-cosine vertical-velocity bump plus drag and
    gravity compensation. The amplitude is tuned by false position with
    the Illinois cut on the simulated final altitude.
    """
    if not duration > 0.0:
        raise DomainError("duration must be positive")
    two_pi = 2.0 * math.pi
    CD3 = p.CD[2]

    def build(scale):
        peak = scale * 2.0 * dz / duration

        def law(tl):
            phase = two_pi * tl / duration
            vdes = 0.5 * peak * (1.0 - math.cos(phase))
            adens = peak * (math.pi / duration) * math.sin(phase)
            thrust = p.m * (adens + p.g) + vdes * abs(vdes) * CD3
            if thrust < 0.0:
                raise InfeasibleError(
                    f"descent wants negative thrust at t={tl:.3f}")
            w = math.sqrt(thrust / (4.0 * p.Kr))
            return np.array([w, w, w, w])

        _scan_feasible(law, duration, omega_max)
        return ControlSchedule((Segment(0.0, duration, law),), omega_max)

    if dz == 0.0:
        return build(0.0)

    def measure(sched):
        run = simulate(hover_state(), sched, p, duration, dt)
        return run.states[-1][2]

    return _tune_amplitude(build, measure, dz)


def _smoothstep_ramp(peak, width, rising):
    """Inertial speed along one translation ramp of the given width.

    The speed is peak * S(u) with the quintic smoothstep
    S(u) = 10u^3 - 15u^4 + 6u^5 and u = tl / width (rising from 0 to
    peak) or 1 - tl / width (falling back to 0). Speed, acceleration
    and jerk therefore meet the cruise and the hovers continuously; the
    snap jumps by 60 peak / width^3 at both ends of the ramp.

    Returns profile(tl) -> (V, V', V'', V''') on local time [0, width].
    """
    sign = 1.0 if rising else -1.0  # du/dt = sign / width
    c1 = sign * peak / width
    c2 = peak / (width * width)
    c3 = sign * peak / (width * width * width)

    def profile(tl):
        u = tl / width if rising else 1.0 - tl / width
        q = u * (1.0 - u)
        return (peak * u * u * u * (10.0 + u * (6.0 * u - 15.0)),
                30.0 * c1 * q * q,
                60.0 * c2 * q * (1.0 - 2.0 * u),
                60.0 * c3 * (1.0 - 6.0 * q))

    return profile


def axis_translation_schedule(p, axis, distance, duration,
                              omega_max=OMEGA_MAX, dt=1e-3):
    """Translate along body x or body y, from a level hover to a level
    hover.

    The leg commands the inertial speed V(t) along the axis: a
    trapezoid with smoothstep ramps of 20% each (_smoothstep_ramp),
    whose cruise speed is tuned on the simulated displacement. Holding
    the altitude and V fixes every other quantity in closed form. Let
    the tilt be the pitch (s = +1, bodyX) or the roll (s = -1, bodyY).
    The body velocity is then V cos(tilt) along the axis and
    s V sin(tilt) along body z, and the axis's quadratic drag, c V|V|
    cos^2(tilt) with c = CD_axis / m, makes w = tan(tilt) solve

        g w = s (V' + c V|V| cos(tilt)).

    Newton's method settles w to rounding in two or three steps from
    the drag-free guess. Differentiating the equation gives w' and w''
    from V'' and V''', and with them the tilt rate and acceleration.
    The thrust m (s V' sin + g cos) + CD3 v3|v3|, with v3 = s V sin
    the body z speed, holds the altitude, and the torque
    J accel + Ctau rate|rate| turns the tilt, so nothing is differenced
    numerically.

    For bodyX rotors 2 and 4 drive the pitch channel: their squares sum
    to half the thrust over Kr and differ by the torque over Kr d.
    Rotors 1 and 3 carry the same sum, so the reaction torques cancel
    and yaw stays at rest, and split it so that Kr d (w3^2 - w1^2)
    cancels the gyroscopic roll torque Jr theta_dot sigma. bodyY
    mirrors this on the roll channel, with rotors 2 and 4 cancelling
    the gyroscopic pitch torque -Jr phi_dot sigma.

    The schedule has three segments: the ramp up, a cruise at constant
    rotor speeds, and the ramp down. The snap, and with it the tilt
    acceleration and the torque, jumps at each ramp end; simulate
    never lets a step straddle a segment junction, so each ramp is
    integrated on its own formula up to its closed end.

    Raises:
        GimbalLockError: the profile needs a tilt of pi/4 or more.
        InfeasibleError: rotor speeds would leave [0, omega_max],
            thrust would have to vanish, or there is no gravity to
            tilt against.
    """
    if axis not in ("bodyX", "bodyY"):
        raise DomainError(f"axis must be 'bodyX' or 'bodyY', got {axis!r}")
    if not duration > 0.0:
        raise DomainError("duration must be positive")
    if p.g <= 0.0:
        raise InfeasibleError("translation by tilting needs gravity")

    m, g, Kr = p.m, p.g, p.Kr
    Krd = Kr * p.d
    kg = p.Jr_bar / Krd
    CD3 = p.CD[2]
    tilt_limit = math.pi / 4
    body_x = axis == "bodyX"
    if body_x:
        s, J, Ct, c = 1.0, p.J[1], p.Ctau[1], p.CD[0] / m
    else:
        s, J, Ct, c = -1.0, p.J[0], p.Ctau[0], p.CD[1] / m
    ramp = _RAMP_FRACTION * duration

    def build(scale):
        peak = scale * distance / ((1.0 - _RAMP_FRACTION) * duration)
        # V keeps the sign of peak, so the drag term s c V|V| is kappa V^2
        kappa = s * math.copysign(c, peak)

        def rotors(v, v1, v2, v3):
            acc = s * v1
            drag = kappa * v * v
            w = (acc + drag) / g
            for _ in range(20):
                h = 1.0 / math.sqrt(1.0 + w * w)  # cos(tilt)
                step = (g * w - acc - drag * h) / (g + drag * w * h ** 3)
                w -= step
                if abs(step) <= 1e-15 * (1.0 + abs(w)):
                    break
            if not abs(math.atan(w)) < tilt_limit:
                raise GimbalLockError(
                    f"translation wants tilt beyond {tilt_limit:.3f} rad")
            h = 1.0 / math.sqrt(1.0 + w * w)
            h2 = h * h
            dh = -w * h2 * h  # d cos(tilt) / dw
            drag1 = 2.0 * kappa * v * v1
            drag2 = 2.0 * kappa * (v1 * v1 + v * v2)
            den = g - drag * dh
            w1 = (s * v2 + drag1 * h) / den
            w2 = (s * v3 + drag2 * h + 2.0 * drag1 * dh * w1
                  + drag * (2.0 * w * w - 1.0) * h2 * h2 * h * w1 * w1) / den
            rate = w1 * h2
            accel = (w2 - 2.0 * w * w1 * w1 * h2) * h2
            sin = w * h
            vz = s * v * sin  # body z speed
            thrust = m * (s * v1 * sin + g * h) + CD3 * vz * abs(vz)
            if not thrust > 0.0:
                raise InfeasibleError("profile demands nonpositive thrust")
            pair = thrust / (2.0 * Kr)  # sum of each pair's squares
            pdiff = (J * accel + Ct * rate * abs(rate)) / Krd
            if pair < abs(pdiff):
                raise InfeasibleError("torque demand exceeds thrust budget")
            a = math.sqrt(0.5 * (pair - pdiff))
            b = math.sqrt(0.5 * (pair + pdiff))
            # The other pair's squared-speed difference must cancel
            # Jr rate sigma, and sigma depends on the pair itself, but
            # only at second order in that difference: two updates from
            # the balanced guess are exact to rounding. bodyX has sigma
            # = (w1 + w3) - (w2 + w4) and roll torque Krd (w3^2 - w1^2);
            # bodyY flips sigma and the torque's sign alike, so one
            # update serves both.
            half = 0.5 * pair
            lo = hi = math.sqrt(half)
            for _ in range(2):
                half_diff = 0.5 * kg * rate * (lo + hi - a - b)
                lo = math.sqrt(half + half_diff)
                hi = math.sqrt(half - half_diff)
            if body_x:
                # pitch torque Krd (w4^2 - w2^2); rotors 1 and 3 balance
                return np.array([lo, a, hi, b])
            # roll torque Krd (w3^2 - w1^2); rotors 2 and 4 balance
            return np.array([a, lo, b, hi])

        # the cruise goes first: its tilt guard bounds the drag term by
        # sqrt(2) g over the whole leg, which keeps Newton's equation
        # increasing in w, so its root is unique
        cruise = rotors(peak, 0.0, 0.0, 0.0)
        up = _smoothstep_ramp(peak, ramp, True)
        down = _smoothstep_ramp(peak, ramp, False)
        segs = (Segment(0.0, ramp, lambda tl: rotors(*up(tl))),
                Segment(ramp, duration - ramp, lambda tl: cruise),
                Segment(duration - ramp, duration,
                        lambda tl: rotors(*down(tl))))
        for seg in segs:
            _scan_feasible(seg.law, seg.t1 - seg.t0, omega_max)
        return ControlSchedule(segs, omega_max)

    if distance == 0.0:
        return build(0.0)

    coord = 0 if body_x else 1

    def measure(sched):
        run = simulate(hover_state(), sched, p, duration, dt)
        return run.states[-1][coord]

    return _tune_amplitude(build, measure, distance)


def schedule_for(p, spec, omega_max=OMEGA_MAX, dt=1e-3):
    """Build the schedule for one ManeuverSpec."""
    if spec.kind == "hover":
        return hover_schedule(p, spec.duration, omega_max)
    if spec.kind == "yaw":
        return yaw_schedule(p, spec.amount, spec.duration, omega_max, dt)
    if spec.kind == "vertical":
        return vertical_schedule(p, spec.amount, spec.duration, omega_max, dt)
    if spec.kind in ("bodyX", "bodyY"):
        return axis_translation_schedule(
            p, spec.kind, spec.amount, spec.duration, omega_max, dt)
    raise DomainError(f"unknown maneuver kind {spec.kind!r}")


def leg_durations(start_b, start_yaw, target):
    """Durations and amounts of the legs from one hover to a target point.

    Returns a list of ManeuverSpec: an optional vertical leg, an
    optional yaw leg toward the target bearing, and an optional bodyX
    run. Durations scale with the motion (never below 2 s per leg).
    """
    dz = target[2] - start_b[2]
    dxy = math.hypot(target[0] - start_b[0], target[1] - start_b[1])
    specs = []
    if abs(dz) > 1e-9:
        specs.append(ManeuverSpec("vertical", dz, max(2.0, 0.8 * abs(dz))))
    if dxy > 1e-9:
        bearing = math.atan2(target[1] - start_b[1], target[0] - start_b[0])
        dpsi = math.remainder(bearing - start_yaw, 2.0 * math.pi)
        if abs(dpsi) > 1e-9:
            specs.append(ManeuverSpec(
                "yaw", dpsi, max(2.0, 8.0 * abs(dpsi) / math.pi)))
        # Short hops need gentle ramps too: the tilt the inversion asks
        # for scales like dxy / T^2, so the duration floor must grow
        # with sqrt(dxy) until the linear cruise rule takes over.
        specs.append(ManeuverSpec(
            "bodyX", dxy, max(2.0, 0.8 * dxy, 2.2 * math.sqrt(dxy))))
    return specs


def rendezvous_leg(p, start, target, omega_max=OMEGA_MAX, dt=1e-3):
    """Plan the full flight from a level hover to a target point.

    Climbs or descends to the target altitude, yaws toward the target
    bearing, then translates along body x. Returns an empty schedule
    when the vehicle already sits at the target.

    Args:
        start: QuadState at level hover (zero velocity, zero roll and
            pitch); anything else raises DomainError.
        target: inertial (3,) point.
    """
    tol = 1e-9
    if (np.max(np.abs(start.v)) > tol or np.max(np.abs(start.Omega)) > tol
            or abs(start.angles[0]) > tol or abs(start.angles[1]) > tol):
        raise DomainError("rendezvous legs start from a level hover")
    target = np.asarray(target, dtype=float)
    if target.shape != (3,):
        raise DomainError(f"target must be a 3-vector, got {target.shape}")

    specs = leg_durations(start.b, start.angles[2], target)
    parts = [schedule_for(p, spec, omega_max, dt) for spec in specs]
    return chain_schedules(parts, omega_max)
