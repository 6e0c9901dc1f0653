"""Open-loop maneuver planning.

Every planner here emits a ControlSchedule: piecewise laws, each giving
the four rotor speeds at an array of times, that steer the vehicle
between level hovers. Maneuvers are built on invariant manifolds:

  * vertical legs keep all four rotors equal (no torque at all),
  * yaw legs keep omega1 = omega3 and omega2 = omega4 with the thrust
    sum pinned at m g (pure yaw torque, zero translation),
  * translation legs pitch (or roll) the thrust vector while holding
    altitude: the driving pair makes the tilt torque, and the other
    pair carries the same sum of squared speeds (zero reaction torque,
    so no yaw) with a split that cancels the gyroscopic torque on its
    own axis (so no roll for bodyX, no pitch for bodyY).

Each leg commands a smooth velocity bump or trapezoid at its natural
amplitude, the one whose exact integral is the requested amount, and
inverts the rigid-body dynamics along the manifold in closed form to
get rotor speeds. The plan is therefore exact in continuous time: a
simulated flight misses its target only by the integrator's own error,
which shrinks at RK4's fourth order in the step. Planning never
simulates.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DomainError, GimbalLockError, InfeasibleError,
                     SaturationError, SwarmError)
from .quad import Controls
# Unused by the planner: perfbench/spans.py wraps this planner.simulate
# binding, and the next benchmark change removes that wrapper and this
# import together.
from .quad import simulate

# Rotor speed ceiling of every schedule; the integrator itself never clamps.
OMEGA_MAX = 500.0
# The bound ControlSchedule.emit checks: OMEGA_MAX up to 1e-9.
_OMEGA_BOUND = OMEGA_MAX + 1e-9

# Fraction of a translation leg spent in each smoothstep ramp.
_RAMP_FRACTION = 0.2


@dataclass(frozen=True)
class ManeuverSpec:
    """One maneuver request.

    kind: 'hover', 'yaw', 'vertical', 'bodyX' or 'bodyY'.
    amount: radians for yaw, meters otherwise (ignored for hover).
    duration: leg length in seconds, positive.
    Any other kind or duration raises DomainError.
    """

    kind: str
    amount: float
    duration: float

    def __post_init__(self):
        if self.kind not in ("hover", "yaw", "vertical", "bodyX", "bodyY"):
            raise DomainError(f"unknown maneuver {self.kind!r}")
        if not self.duration > 0.0:
            raise DomainError("duration must be positive")


@dataclass(frozen=True)
class Segment:
    """One schedule piece on [t0, t1].

    law maps a float64 array of local times, shape (n,), to the rotor
    speeds there: an (n, 4) array, or anything that broadcasts to it,
    such as the four speeds of a constant law. It raises when it
    refuses one of the times, naming the first it refuses. constant,
    when not None, is the 4-tuple that law returns at every time, so a
    flight through the segment needs to emit it only once.
    """

    t0: float
    t1: float
    law: object
    constant: tuple = None


def _law_rows(seg, tl):
    """seg's law at the local times tl, as an (n, 4) array.

    numpy's warnings are off: like Python floats, the laws let an
    overflow or a NaN through to the range check.
    """
    with np.errstate(all="ignore"):
        om = np.asarray(seg.law(tl), dtype=float)
    if om.shape == (tl.size, 4):
        return om
    return np.broadcast_to(om, (tl.size, 4))


def _mapped(f, a):
    """f of each element of the float64 array a, computed on Python
    floats: cos, sin, atan and ** then round as Python's math does,
    whichever SIMD loops numpy dispatches to."""
    return np.fromiter(map(f, a.tolist()), float, a.size)


@dataclass(frozen=True)
class ControlSchedule:
    """Contiguous rotor-speed segments covering [0, total_duration].

    Every speed passes one range check, [0, OMEGA_MAX] up to 1e-9:
    sample checks a segment on a grid of times in one call of its law,
    and emit, a one-element call of the same law, checks a single time.
    The planner's probe samples each segment's grid, and simulate each
    chunk of a window's RK4 stages; a grid that fails is walked point by
    point through emit. omega_at emits. A segment with a constant is
    checked once per window.
    windows() cuts a flight into the integration windows simulate steps
    through. Sampling outside the covered interval raises DomainError,
    as does constructing non-contiguous segments.
    """

    segments: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        t = 0.0
        for seg in self.segments:
            if seg.t1 <= seg.t0:
                raise DomainError(
                    f"segment [{seg.t0}, {seg.t1}] has no extent")
            if abs(seg.t0 - t) > 1e-9:
                raise DomainError(
                    f"segment starts at {seg.t0}, previous ended at {t}")
            t = seg.t1

    @property
    def total_duration(self):
        return self.segments[-1].t1 if self.segments else 0.0

    @property
    def breakpoints(self):
        """Interior segment junctions, where the command may jump."""
        return tuple(seg.t1 for seg in self.segments[:-1])

    def emit(self, seg, t):
        """Rotor speeds of segment seg at schedule time t, a 4-tuple of
        floats in [0, OMEGA_MAX] up to 1e-9, else SaturationError."""
        om = tuple(_law_rows(seg, np.array([t - seg.t0]))[0].tolist())
        # written so that NaN fails the range check too
        for w in om:
            if not 0.0 <= w <= _OMEGA_BOUND:
                raise SaturationError(
                    f"rotor speed {w!r} outside [0, {OMEGA_MAX}] "
                    f"rad/s at t={t!r}")
        return om

    def sample(self, seg, times):
        """Rotor speeds of segment seg at the schedule times of the
        float64 array times, an (n, 4) array, in one call of its law.

        Returns None when the law refuses a time or a speed fails
        emit's range check: emit at each time, in order, then raises
        what the first failing time raises.
        """
        try:
            om = _law_rows(seg, times - seg.t0)
        except (SwarmError, ArithmeticError, ValueError):
            # a refusal, or math's domain or range error, which the
            # walk through emit raises again at its time
            return None
        # written so that NaN fails the range check too
        if not ((om >= 0.0) & (om <= _OMEGA_BOUND)).all():
            return None
        return om

    def windows(self, duration, dt):
        """Integration windows of a flight over [0, duration] at step dt.

        Yields (seg, lo, hi, edge, nfull, rem) for each segment clipped
        to [0, duration]: the window [lo, hi] takes nfull full steps of
        dt, then one step of rem when rem > 0, so no step straddles a
        junction, where the command may jump. Stages read seg at times
        clamped to edge: at an interior junction that is just left of
        it, or the k4 stage of the step ending there would read the
        next segment. The final window ends at duration, inside seg or
        within 1e-9 past its end. A window whose step count span / dt
        is not finite raises DomainError.
        """
        lo = 0.0
        for seg in self.segments:
            final = seg.t1 >= duration or seg is self.segments[-1]
            hi = duration if final else seg.t1
            edge = min(hi, seg.t1) if final else max(lo, hi - 1e-12)
            span = hi - lo
            if not span / dt < math.inf:
                raise DomainError(f"span / dt = {span} / {dt!r} is not finite")
            nfull = int(math.floor(span / dt + 1e-9))
            rem = span - nfull * dt
            if rem <= 1e-9 * max(1.0, span):
                rem = 0.0
            yield seg, lo, hi, edge, nfull, rem
            if final:
                return
            lo = hi

    def omega_at(self, t):
        """Rotor speeds at time t as a fresh (4,) array; a junction
        reads the segment that starts there."""
        if not self.segments:
            raise DomainError("schedule is empty")
        total = self.segments[-1].t1
        if t < -1e-9 or t > total + 1e-9:
            raise DomainError(
                f"t={t!r} outside schedule interval [0, {total}]")
        t = min(max(t, 0.0), total)
        seg = next((s for s in self.segments if t < s.t1), self.segments[-1])
        return np.array(self.emit(seg, t))

    @classmethod
    def constant(cls, omega, duration):
        """Hold fixed rotor speeds for the given duration."""
        if not duration > 0.0:
            raise DomainError("duration must be positive")
        om = np.asarray(omega, dtype=float)
        if om.shape != (4,):
            raise DomainError("omega must be a 4-vector")
        return cls((_held(0.0, float(duration), tuple(om.tolist())),))


def _held(t0, t1, om):
    """Segment holding the rotor-speed tuple om on [t0, t1]."""
    return Segment(t0, t1, lambda tl: om, om)


def chain_schedules(parts):
    """Concatenate schedules back to back into one."""
    segs = []
    offset = 0.0
    for part in parts:
        for seg in part.segments:
            segs.append(replace(seg, t0=offset + seg.t0, t1=offset + seg.t1))
        offset += part.total_duration
    return ControlSchedule(tuple(segs))


def hover_controls(p):
    """Rotor speeds that balance gravity exactly at level attitude.

    No ceiling applies here: a schedule checks its speeds against
    OMEGA_MAX in ControlSchedule.emit, as hover_schedule does.
    """
    w = math.sqrt(p.m * p.g / (4.0 * p.Kr))
    return Controls(omega=np.array([w, w, w, w]))


def hover_schedule(p, duration):
    """Hold a level hover for the given duration.

    Raises:
        SaturationError: the hover speed is above OMEGA_MAX.
    """
    return _feasible(ControlSchedule.constant(
        hover_controls(p).omega, duration))


@contextmanager
def _natural_amplitude():
    """Report a leg the rotors cannot fly at its natural amplitude as
    infeasible, naming the check that refused it."""
    try:
        yield
    except (GimbalLockError, InfeasibleError, SaturationError) as exc:
        raise InfeasibleError(
            f"maneuver is infeasible at its natural amplitude: {exc}"
        ) from exc


def _feasible(sched):
    """Return sched once each segment is in range on a grid of 2001
    points, sampled in one call, or at its start if it is constant. A
    grid that fails is walked point by point through emit, which raises
    the law's refusal or SaturationError at the first failing point;
    under _natural_amplitude that is a plan failure."""
    for seg in sched.segments:
        if seg.constant is not None:
            sched.emit(seg, seg.t0)
            continue
        grid = np.linspace(seg.t0, seg.t1, 2001)
        if sched.sample(seg, grid) is None:
            for t in grid.tolist():
                sched.emit(seg, t)
    return sched


def yaw_schedule(p, delta_psi, duration):
    """Turn in place through delta_psi radians.

    Rotors hold omega1 = omega3 and omega2 = omega4 with the thrust sum
    pinned to m g, so the vehicle neither translates nor tips; only the
    reaction torque acts. The commanded yaw rate is a raised-cosine
    bump of peak 2 delta_psi / duration, whose integral is exactly
    delta_psi; the rotor speeds invert the yaw dynamics along it.

    Raises:
        InfeasibleError: required torque drives a rotor outside
            [0, OMEGA_MAX], or the rotors make no reaction torque
            (Kd = 0).
    """
    if not duration > 0.0:
        raise DomainError("duration must be positive")
    if p.Kd == 0.0:
        raise InfeasibleError("yaw by reaction torque needs Kd > 0")
    pair_sq = p.m * p.g / (2.0 * p.Kr)  # omega1^2 + omega2^2 at all times
    J3 = float(p.J[2])
    Ct3 = float(p.Ctau[2])
    two_pi = 2.0 * math.pi
    amp = 2.0 * delta_psi / duration

    def law(tl):
        phase = two_pi * tl / duration
        rate = 0.5 * amp * (1.0 - _mapped(math.cos, phase))
        accel = amp * (math.pi / duration) * _mapped(math.sin, phase)
        tau = J3 * accel + rate * abs(rate) * Ct3
        diff = tau / (2.0 * p.Kd)  # omega1^2 - omega2^2
        sq1 = 0.5 * (pair_sq + diff)
        sq2 = 0.5 * (pair_sq - diff)
        refused = (sq1 < 0.0) | (sq2 < 0.0)
        if refused.any():
            raise InfeasibleError(
                "yaw torque exceeds rotor authority at "
                f"t={tl[refused.argmax()]:.3f}")
        w1 = np.sqrt(sq1)
        w2 = np.sqrt(sq2)
        return np.array((w1, w2, w1, w2)).T

    with _natural_amplitude():
        return _feasible(
            ControlSchedule((Segment(0.0, duration, law),)))


def vertical_schedule(p, dz, duration):
    """Climb (or descend) dz meters, ending level and at rest.

    All four rotors stay equal, so no torque is ever produced; thrust
    follows a raised-cosine vertical-velocity bump of peak
    2 dz / duration, whose integral is exactly dz, plus drag and
    gravity compensation.
    """
    if not duration > 0.0:
        raise DomainError("duration must be positive")
    two_pi = 2.0 * math.pi
    CD3 = float(p.CD[2])
    peak = 2.0 * dz / duration

    def law(tl):
        phase = two_pi * tl / duration
        vdes = 0.5 * peak * (1.0 - _mapped(math.cos, phase))
        adens = peak * (math.pi / duration) * _mapped(math.sin, phase)
        thrust = p.m * (adens + p.g) + vdes * abs(vdes) * CD3
        refused = thrust < 0.0
        if refused.any():
            raise InfeasibleError("descent wants negative thrust at "
                                  f"t={tl[refused.argmax()]:.3f}")
        w = np.sqrt(thrust / (4.0 * p.Kr))
        return np.array((w, w, w, w)).T

    with _natural_amplitude():
        return _feasible(
            ControlSchedule((Segment(0.0, duration, law),)))


def _cube(x):
    """x ** 3, by Python's float power, which h ** 3 in the ramps' Newton
    step always used."""
    return x ** 3


def _smoothstep_ramp(peak, width, rising):
    """Inertial speed along one translation ramp of the given width.

    The speed is peak * S(u) with the quintic smoothstep
    S(u) = 10u^3 - 15u^4 + 6u^5 and u = tl / width (rising from 0 to
    peak) or 1 - tl / width (falling back to 0). Speed, acceleration
    and jerk therefore meet the cruise and the hovers continuously; the
    snap jumps by 60 peak / width^3 at both ends of the ramp.

    Returns profile(tl) -> (V, V', V'', V''') on an array of local
    times in [0, width].
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


def axis_translation_schedule(p, axis, distance, duration):
    """Translate along body x or body y, from a level hover to a level
    hover.

    The leg commands the inertial speed V(t) along the axis: a
    trapezoid with smoothstep ramps of 20% each (_smoothstep_ramp),
    whose cruise speed distance / (0.8 duration) makes V integrate to
    exactly the distance. Holding the altitude and V fixes every other
    quantity in closed form. Let
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
        InfeasibleError: the profile needs a tilt of pi/4 or more,
            rotor speeds would leave [0, OMEGA_MAX], thrust would have
            to vanish, the balancing pair cannot cancel the gyroscopic
            torque, or there is no gravity to tilt against.
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
    inertia, ang_drag, drag = p.J.tolist(), p.Ctau.tolist(), p.CD.tolist()
    CD3 = drag[2]
    tilt_limit = math.pi / 4
    body_x = axis == "bodyX"
    if body_x:
        s, J, Ct, c = 1.0, inertia[1], ang_drag[1], drag[0] / m
    else:
        s, J, Ct, c = -1.0, inertia[0], ang_drag[0], drag[1] / m
    ramp = _RAMP_FRACTION * duration
    peak = distance / ((1.0 - _RAMP_FRACTION) * duration)
    # V keeps the sign of peak, so the drag term s c V|V| is kappa V^2
    kappa = s * math.copysign(c, peak)

    def rotors(v, v1, v2, v3):
        acc = s * v1
        drag = kappa * v * v
        w = (acc + drag) / g
        # each element takes Newton steps until its own step is below
        # the tolerance (NaN never is), then keeps its w
        live = np.arange(w.size)
        for _ in range(20):
            wl, dl = w[live], drag[live]
            h = 1.0 / np.sqrt(1.0 + wl * wl)  # cos(tilt)
            step = ((g * wl - acc[live] - dl * h)
                    / (g + dl * wl * _mapped(_cube, h)))
            wl = wl - step
            w[live] = wl
            live = live[~(abs(step) <= 1e-15 * (1.0 + abs(wl)))]
            if not live.size:
                break
        if not (abs(_mapped(math.atan, w)) < tilt_limit).all():
            raise GimbalLockError(
                f"translation wants tilt beyond {tilt_limit:.3f} rad")
        h = 1.0 / np.sqrt(1.0 + w * w)
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
        if not (thrust > 0.0).all():
            raise InfeasibleError("profile demands nonpositive thrust")
        pair = thrust / (2.0 * Kr)  # sum of each pair's squares
        pdiff = (J * accel + Ct * rate * abs(rate)) / Krd
        if (pair < abs(pdiff)).any():
            raise InfeasibleError("torque demand exceeds thrust budget")
        a = np.sqrt(0.5 * (pair - pdiff))
        b = np.sqrt(0.5 * (pair + pdiff))
        # The other pair's squared-speed difference must cancel
        # Jr rate sigma, and sigma depends on the pair itself, but
        # only at second order in that difference: two updates from
        # the balanced guess are exact to rounding. bodyX has sigma
        # = (w1 + w3) - (w2 + w4) and roll torque Krd (w3^2 - w1^2);
        # bodyY flips sigma and the torque's sign alike, so one
        # update serves both.
        half = 0.5 * pair
        lo = hi = np.sqrt(half)
        for _ in range(2):
            half_diff = 0.5 * kg * rate * (lo + hi - a - b)
            sq_lo, sq_hi = half + half_diff, half - half_diff
            if ((sq_lo < 0.0) | (sq_hi < 0.0)).any():
                raise InfeasibleError(
                    "balancing pair cannot cancel the gyroscopic torque")
            lo = np.sqrt(sq_lo)
            hi = np.sqrt(sq_hi)
        if body_x:
            # pitch torque Krd (w4^2 - w2^2); rotors 1 and 3 balance
            return np.array((lo, a, hi, b)).T
        # roll torque Krd (w3^2 - w1^2); rotors 2 and 4 balance
        return np.array((a, lo, b, hi)).T

    up = _smoothstep_ramp(peak, ramp, True)
    down = _smoothstep_ramp(peak, ramp, False)
    with _natural_amplitude():
        # the cruise goes first: its tilt guard bounds the drag term by
        # sqrt(2) g over the whole leg, which keeps Newton's equation
        # increasing in w, so its root is unique
        with np.errstate(all="ignore"):
            cruise = tuple(rotors(np.array([peak]), *np.zeros((3, 1)))[0]
                           .tolist())
        return _feasible(ControlSchedule(
            (Segment(0.0, ramp, lambda tl: rotors(*up(tl))),
             _held(ramp, duration - ramp, cruise),
             Segment(duration - ramp, duration,
                     lambda tl: rotors(*down(tl))))))


def schedule_for(p, spec):
    """Build the schedule for one ManeuverSpec."""
    if spec.kind == "hover":
        with _natural_amplitude():
            return hover_schedule(p, spec.duration)
    if spec.kind == "yaw":
        return yaw_schedule(p, spec.amount, spec.duration)
    if spec.kind == "vertical":
        return vertical_schedule(p, spec.amount, spec.duration)
    return axis_translation_schedule(p, spec.kind, spec.amount, spec.duration)


def plan(p, route):
    """The schedule that flies a route, a sequence of ManeuverSpec, leg
    after leg."""
    return chain_schedules([schedule_for(p, spec) for spec in route])


def require_level_hover(start):
    """Raise DomainError unless QuadState start is a level hover: v,
    Omega, roll and pitch zero within 1e-9, any yaw."""
    tol = 1e-9
    if (np.max(np.abs(start.v)) > tol or np.max(np.abs(start.Omega)) > tol
            or abs(start.angles[0]) > tol or abs(start.angles[1]) > tol):
        raise DomainError("rendezvous legs start from a level hover")


def rendezvous_route(start, target):
    """The legs from a level hover to a target point, a tuple of
    ManeuverSpec.

    Climbs or descends to the target altitude, yaws toward the target
    bearing, then translates along body x; each leg is left out when
    its motion is within 1e-9. Durations scale with the motion (never
    below 2 s per leg), so a vehicle already at the target holds one
    2 s hover.

    Args:
        start: QuadState at level hover (require_level_hover).
        target: finite inertial (3,) point.
    """
    require_level_hover(start)
    target = np.asarray(target, dtype=float)
    if target.shape != (3,):
        raise DomainError(f"target must be a 3-vector, got {target.shape}")
    if not np.isfinite(target).all():
        raise DomainError(f"target holds a non-finite number: {target}")
    b = start.b
    dz = target[2] - b[2]
    dxy = math.hypot(target[0] - b[0], target[1] - b[1])
    route = []
    if abs(dz) > 1e-9:
        route.append(ManeuverSpec("vertical", dz, max(2.0, 0.8 * abs(dz))))
    if dxy > 1e-9:
        bearing = math.atan2(target[1] - b[1], target[0] - b[0])
        dpsi = math.remainder(bearing - start.angles[2], 2.0 * math.pi)
        if abs(dpsi) > 1e-9:
            route.append(ManeuverSpec(
                "yaw", dpsi, max(2.0, 8.0 * abs(dpsi) / math.pi)))
        # Short hops need gentle ramps too: the tilt the inversion asks
        # for scales like dxy / T^2, so the duration floor must grow
        # with sqrt(dxy) until the linear cruise rule takes over.
        route.append(ManeuverSpec(
            "bodyX", dxy, max(2.0, 0.8 * dxy, 2.2 * math.sqrt(dxy))))
    return tuple(route) or (ManeuverSpec("hover", 0.0, 2.0),)


def rendezvous_leg(p, start, target):
    """Plan the full flight from a level hover to a target point: the
    schedule of rendezvous_route(start, target)."""
    return plan(p, rendezvous_route(start, target))
