"""Rigid-body quadcopter dynamics.

State is twelve numbers: inertial position b, Euler angles (roll phi,
pitch theta, yaw psi), body-frame linear velocity v, and body-frame
angular velocity Omega. Controls are the four rotor speeds; rotor i
produces thrust Kr * omega_i^2 along body z. Rotors 1 and 3 spin
opposite to rotors 2 and 4, which is where the yaw reaction torque and
the gyroscopic coupling come from.

Quadratic drag opposes both linear and angular velocity componentwise.
The dynamics split into a drift field plus four control fields scaled
by the squared rotor speeds; the gyroscopic torque, linear in the rotor
speeds, is the one term that sits outside that affine-in-omega^2 form.
"""

import math
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .errors import (DivergenceError, DomainError, GimbalLockError,
                     ScheduleGapError)
from .numerics import PITCH_LIMIT, gimbal_lock


def _as_vec(x, k, name):
    v = np.asarray(x, dtype=float)
    if v.shape != (k,):
        raise DomainError(f"{name} must be a {k}-vector, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class QuadParams:
    """Physical constants of one vehicle.

    Attributes:
        m: mass, kg.
        J: principal moments of inertia (J1, J2, J3), kg m^2.
        Jr_bar: rotor moment of inertia about its spin axis, kg m^2.
        d: arm length from center to rotor axis, m.
        Kr: rotor thrust coefficient, N s^2 (thrust = Kr * omega^2).
        Kd: rotor reaction-torque coefficient, N m s^2.
        CD: linear drag coefficients per body axis.
        Ctau: angular drag coefficients per body axis.
        g: gravitational acceleration, m/s^2. Zero is allowed so free
            rigid-body motion can be tested; negative is not.
    """

    m: float
    J: np.ndarray
    Jr_bar: float
    d: float
    Kr: float
    Kd: float
    CD: np.ndarray
    Ctau: np.ndarray
    g: float = 9.81

    def __post_init__(self):
        object.__setattr__(self, "J", _as_vec(self.J, 3, "J"))
        object.__setattr__(self, "CD", _as_vec(self.CD, 3, "CD"))
        object.__setattr__(self, "Ctau", _as_vec(self.Ctau, 3, "Ctau"))
        if not self.m > 0.0:
            raise DomainError("mass must be positive")
        if not np.all(self.J > 0.0):
            raise DomainError("inertia moments must be positive")
        if not self.d > 0.0:
            raise DomainError("arm length must be positive")
        if not self.Kr > 0.0:
            raise DomainError("thrust coefficient must be positive")
        if self.Kd < 0.0 or self.Jr_bar < 0.0:
            raise DomainError("Kd and Jr_bar must be nonnegative")
        if np.any(self.CD < 0.0) or np.any(self.Ctau < 0.0):
            raise DomainError("drag coefficients must be nonnegative")
        if self.g < 0.0:
            raise DomainError("gravity must be nonnegative")


def default_params():
    """Parameters of the 468 g reference vehicle used by the bundled
    scenarios."""
    return QuadParams(
        m=0.468,
        J=np.array([3.8278e-3, 3.8288e-3, 7.6566e-3]),
        Jr_bar=2.8385e-5,
        d=0.25,
        Kr=2.9842e-5,
        Kd=3.2320e-7,
        CD=np.array([5.5670e-4, 5.5670e-4, 6.3540e-4]),
        Ctau=np.array([5.5670e-4, 5.5670e-4, 6.3540e-4]),
    )


@dataclass(frozen=True)
class QuadState:
    """Twelve-dimensional vehicle state.

    Attributes:
        b: inertial position (3,).
        angles: (roll, pitch, yaw) in radians; |pitch| must stay
            below PITCH_LIMIT.
        v: body-frame linear velocity (3,).
        Omega: body-frame angular velocity (3,).
    """

    b: np.ndarray
    angles: np.ndarray
    v: np.ndarray
    Omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", _as_vec(self.b, 3, "b"))
        object.__setattr__(self, "angles", _as_vec(self.angles, 3, "angles"))
        object.__setattr__(self, "v", _as_vec(self.v, 3, "v"))
        object.__setattr__(self, "Omega", _as_vec(self.Omega, 3, "Omega"))
        if abs(self.angles[1]) >= PITCH_LIMIT:
            raise gimbal_lock(self.angles[1])

    def as_vector(self):
        return np.concatenate([self.b, self.angles, self.v, self.Omega])

    @classmethod
    def from_vector(cls, x):
        x = _as_vec(x, 12, "state vector")
        return cls(b=x[0:3], angles=x[3:6], v=x[6:9], Omega=x[9:12])


def hover_state(b=(0.0, 0.0, 0.0), yaw=0.0):
    """Level motionless state at position b with the given yaw."""
    return QuadState(
        b=np.asarray(b, dtype=float),
        angles=np.array([0.0, 0.0, float(yaw)]),
        v=np.zeros(3),
        Omega=np.zeros(3),
    )


@dataclass(frozen=True)
class Controls:
    """Rotor speeds (omega1..omega4), rad/s, all nonnegative."""

    omega: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "omega", _as_vec(self.omega, 4, "omega"))
        if np.any(self.omega < 0.0):
            raise DomainError("rotor speeds must be nonnegative")


@dataclass(frozen=True)
class QuadTrajectory:
    """Sampled simulation run.

    Attributes:
        times: (K,) sample times.
        states: (K, 12) state vectors.
        omegas: (K, 4) rotor speeds at the sample times.
        thrust: (K,) total rotor thrust Kr * sum(omega^2).
    """

    times: np.ndarray
    states: np.ndarray
    omegas: np.ndarray
    thrust: np.ndarray


def _param_tuple(p):
    """Constants of p as Python floats, in the order _deriv unpacks them."""
    return tuple(float(c) for c in (
        p.m, p.g, p.Kr, p.Kr * p.d, p.Kd, p.Jr_bar, *p.J, *p.CD, *p.Ctau))


def _deriv(x, om, pc):
    """Time derivative of the state as a 12-tuple.

    x is the state as 12 floats, om the four rotor speeds and pc is
    _param_tuple(p). Everything here is scalar arithmetic, which runs
    about three times faster on Python floats than on numpy scalars.
    """
    (m, g, Kr, Krd, Kd, Jr,
     J1, J2, J3, CD1, CD2, CD3, Ct1, Ct2, Ct3) = pc
    _, _, _, phi, theta, psi, v1, v2, v3, O1, O2, O3 = x
    if abs(theta) >= PITCH_LIMIT:
        raise gimbal_lock(theta)
    w1, w2, w3, w4 = om

    cf, sf = math.cos(phi), math.sin(phi)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(psi), math.sin(psi)
    tt = st / ct
    # a * b * c is (a * b) * c, so a shared leading product keeps the bits
    cpst, spst, gct = cp * st, sp * st, g * ct
    O2sf, O3cf = O2 * sf, O3 * cf
    q1, q2, q3, q4 = w1 * w1, w2 * w2, w3 * w3, w4 * w4

    thrust = Kr * (q1 + q2 + q3 + q4)
    sigma = w1 - w2 + w3 - w4

    return (
        v1 * cp * ct + v2 * (cpst * sf - sp * cf) + v3 * (cpst * cf + sp * sf),
        v1 * sp * ct + v2 * (spst * sf + cp * cf) + v3 * (spst * cf - cp * sf),
        -v1 * st + v2 * ct * sf + v3 * ct * cf,
        O1 + O2sf * tt + O3cf * tt,
        O2 * cf - O3 * sf,
        O2sf / ct + O3cf / ct,
        v2 * O3 - v3 * O2 - v1 * abs(v1) * CD1 / m + g * st,
        v3 * O1 - v1 * O3 - v2 * abs(v2) * CD2 / m - gct * sf,
        v1 * O2 - v2 * O1 + (thrust - v3 * abs(v3) * CD3) / m - gct * cf,
        ((J2 - J3) * O2 * O3 + Jr * O2 * sigma
         + Krd * (q3 - q1) - O1 * abs(O1) * Ct1) / J1,
        ((J3 - J1) * O1 * O3 - Jr * O1 * sigma
         + Krd * (q4 - q2) - O2 * abs(O2) * Ct2) / J2,
        ((J1 - J2) * O1 * O2 + Kd * (q1 - q2 + q3 - q4)
         - O3 * abs(O3) * Ct3) / J3,
    )


def state_derivative(s, c, p):
    """Full twelve-dimensional time derivative at state s under controls c.

    Rows 0-2 are the inertial velocity R v, rows 3-5 the Euler-angle
    rates, rows 6-8 the body-frame acceleration, rows 9-11 the angular
    acceleration. Raises GimbalLockError when pitch is too close to
    +-pi/2 for the Euler-rate map.
    """
    return np.array(_deriv(s.as_vector(), c.omega, _param_tuple(p)))


def affine_fields(s, p):
    """Drift and control vector fields of the affine form.

    The dynamics decompose as

        x_dot = drift(x) + sum_i g_i(x) * omega_i^2 + gyro(x, omega)

    where the drift carries kinematics, drag, gravity and the Euler
    rigid-body coupling, each g_i carries rotor i's thrust and torque
    action (inertia-scaled), and the gyroscopic torque, linear in the
    rotor speeds, stays outside the omega^2 form.

    Both come from the one force law, _deriv. The drift is _deriv with
    the rotors off. Thrust and rotor torques act in the body frame, so
    g_i does not depend on the state: it is _deriv at the level rest
    state under the unit input e_i, with gravity, drag and the rotor
    inertia masked so that nothing but rotor i's action is left.

    Returns:
        (drift, fields): drift a 12-vector, fields a list of four
        12-vectors [g1, g2, g3, g4].
    """
    drift = np.array(
        _deriv(s.as_vector(), (0.0, 0.0, 0.0, 0.0), _param_tuple(p)))
    pc = _param_tuple(
        replace(p, g=0.0, CD=np.zeros(3), Ctau=np.zeros(3), Jr_bar=0.0))
    rest = (0.0,) * 12
    fields = [np.array(_deriv(rest, e, pc))
              for e in ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                        (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))]
    return drift, fields


def geodesic_spray(s, p):
    """Force-free part of the dynamics: kinematics plus Euler coupling.

    Equals state_derivative with rotors off, gravity and drag removed:
    (R v, Theta Omega, v x Omega, J^{-1}((J Omega) x Omega)).
    """
    free = replace(p, g=0.0, CD=np.zeros(3), Ctau=np.zeros(3))
    return np.array(
        _deriv(s.as_vector(), (0.0, 0.0, 0.0, 0.0), _param_tuple(free)))


def simulate(s0, schedule, p, duration, dt=1e-3, stride=10):
    """Integrate the vehicle under a control schedule with fixed-step RK4.

    The flight steps through schedule.windows(duration, dt): per
    segment, full steps of dt plus one shorter step when its span is
    not a multiple, so no step straddles a junction. RK4 stages read
    the window's segment through schedule.emit, once per window for a
    segment with a constant. The law is pure, so samples are shared:
    a step's k1 reuses the previous step's k4 sample when it starts at
    exactly that time. States are recorded at t=0, every stride-th
    step and each window's end; the rotor speeds of a sample at its
    step's k4 time, inside the window, are that k4 sample, and all
    others, junctions included, come from schedule.omega_at.

    Args:
        s0: initial QuadState.
        schedule: planner.ControlSchedule covering [0, duration]; a
            shorter schedule raises ScheduleGapError.
        p: QuadParams.
        duration: time horizon, >= 0.
        dt: step size, > 0.
        stride: sampling stride in steps.

    Returns:
        QuadTrajectory.

    Raises:
        GimbalLockError: with the failure time, if pitch approaches
            +-pi/2 during integration.
        DivergenceError: at the first recorded sample whose state is
            not finite (NaN pitch passes the gimbal check).
        ScheduleGapError: if the schedule does not cover [0, duration].
    """
    if not duration >= 0.0:
        raise DomainError(f"duration must be nonnegative, got {duration!r}")
    if not dt > 0.0:
        raise DomainError(f"step size must be positive, got {dt!r}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride!r}")
    total = schedule.total_duration
    if total + 1e-9 < duration:
        raise ScheduleGapError(
            f"schedule covers [0, {total}], mission needs [0, {duration}]")

    pc = _param_tuple(p)
    emit = schedule.emit

    # samples go to flat float buffers: per-sample tuples or arrays
    # would cost an object header per sample
    x = tuple(s0.as_vector().tolist())
    times = array("d")
    states = array("d")
    omegas = array("d")

    def record(tn, x, om=None):
        if not all(map(math.isfinite, x)):
            raise DivergenceError(f"non-finite state at t={tn:.6f}")
        times.append(tn)
        states.extend(x)
        omegas.extend(schedule.omega_at(tn) if om is None else om)

    record(0.0, x)
    count = 0
    for seg, lo, hi, edge, nfull, rem in schedule.windows(duration, dt):
        nsteps = nfull + (rem > 0.0)
        const = seg.constant
        if nsteps and const is not None:
            # the one range check of the window, at its first stage
            w1 = wm = w4 = emit(seg, lo)
        t4 = None
        for k in range(nsteps):
            if k < nfull:
                t, h = lo + k * dt, dt
                tn = hi if rem == 0.0 and k == nfull - 1 else lo + (k + 1) * dt
            else:
                t, h, tn = hi - rem, rem, hi
            try:
                if const is None:
                    # the law is pure: a k1 at the last k4's time reuses it
                    w1 = w4 if t == t4 else emit(seg, t if t < edge else edge)
                    tq = t + 0.5 * h
                    wm = emit(seg, tq if tq < edge else edge)
                    t4 = t + h
                    w4 = emit(seg, t4 if t4 < edge else edge)
                x = _rk4_step(x, h, w1, wm, w4, pc)
            except GimbalLockError as e:
                raise GimbalLockError(
                    f"gimbal lock near t={t:.6f}: {e}") from e
            count += 1
            if abs(x[4]) >= PITCH_LIMIT:
                raise GimbalLockError(
                    f"gimbal lock at t={tn:.6f}: pitch {x[4]!r}")
            if count % stride == 0 and tn > times[-1]:
                # at a junction omega_at reads the next segment instead
                record(tn, x, w4 if tn < edge and tn == t + h else None)
        if hi > times[-1]:
            record(hi, x)

    omegas = np.frombuffer(omegas).reshape(-1, 4)
    return QuadTrajectory(
        times=np.frombuffer(times),
        states=np.frombuffer(states).reshape(-1, 12),
        omegas=omegas,
        thrust=p.Kr * np.sum(omegas ** 2, axis=1),
    )


def _rk4_step(x, h, w1, wm, w4, pc):
    """One classical RK4 step of _deriv under the rotor-speed samples
    at the step's start, midpoint and end.

    Same operation order as numerics.rk4_step, element by element; the
    midpoint sample serves both k2 and k3.
    """
    half = 0.5 * h
    k1 = _deriv(x, w1, pc)
    k2 = _deriv(_stage(x, half, k1), wm, pc)
    k3 = _deriv(_stage(x, half, k2), wm, pc)
    k4 = _deriv(_stage(x, h, k3), w4, pc)
    c = h / 6.0
    return (
        x[0] + c * (((k1[0] + 2.0 * k2[0]) + 2.0 * k3[0]) + k4[0]),
        x[1] + c * (((k1[1] + 2.0 * k2[1]) + 2.0 * k3[1]) + k4[1]),
        x[2] + c * (((k1[2] + 2.0 * k2[2]) + 2.0 * k3[2]) + k4[2]),
        x[3] + c * (((k1[3] + 2.0 * k2[3]) + 2.0 * k3[3]) + k4[3]),
        x[4] + c * (((k1[4] + 2.0 * k2[4]) + 2.0 * k3[4]) + k4[4]),
        x[5] + c * (((k1[5] + 2.0 * k2[5]) + 2.0 * k3[5]) + k4[5]),
        x[6] + c * (((k1[6] + 2.0 * k2[6]) + 2.0 * k3[6]) + k4[6]),
        x[7] + c * (((k1[7] + 2.0 * k2[7]) + 2.0 * k3[7]) + k4[7]),
        x[8] + c * (((k1[8] + 2.0 * k2[8]) + 2.0 * k3[8]) + k4[8]),
        x[9] + c * (((k1[9] + 2.0 * k2[9]) + 2.0 * k3[9]) + k4[9]),
        x[10] + c * (((k1[10] + 2.0 * k2[10]) + 2.0 * k3[10]) + k4[10]),
        x[11] + c * (((k1[11] + 2.0 * k2[11]) + 2.0 * k3[11]) + k4[11]),
    )


def _stage(x, a, k):
    """The RK4 stage state x + a k, element by element.

    Written out term by term, it runs about twice as fast as a
    comprehension over zip(x, k), and it runs three times per step.
    """
    return (x[0] + a * k[0], x[1] + a * k[1], x[2] + a * k[2],
            x[3] + a * k[3], x[4] + a * k[4], x[5] + a * k[5],
            x[6] + a * k[6], x[7] + a * k[7], x[8] + a * k[8],
            x[9] + a * k[9], x[10] + a * k[10], x[11] + a * k[11])
