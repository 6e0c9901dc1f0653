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
from .numerics import GIMBAL_EPS

_HALF_PI = math.pi / 2


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
        angles: (roll, pitch, yaw) in radians; |pitch| must stay clear
            of pi/2 by GIMBAL_EPS.
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
        if abs(self.angles[1]) >= _HALF_PI - GIMBAL_EPS:
            raise GimbalLockError(
                f"pitch {self.angles[1]!r} within {GIMBAL_EPS} of +-pi/2")

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
    if abs(theta) >= _HALF_PI - GIMBAL_EPS:
        raise GimbalLockError(
            f"pitch {theta!r} within {GIMBAL_EPS} of +-pi/2")
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
        v1 * O2 - v2 * O1 + (thrust - v3 * abs(v3) * CD3) / m - g * ct * cf,
        ((J2 - J3) * O2 * O3 + Jr * O2 * sigma
         + Krd * (w3 * w3 - w1 * w1) - O1 * abs(O1) * Ct1) / J1,
        ((J3 - J1) * O1 * O3 - Jr * O1 * sigma
         + Krd * (w4 * w4 - w2 * w2) - O2 * abs(O2) * Ct2) / J2,
        ((J1 - J2) * O1 * O2
         + Kd * (w1 * w1 - w2 * w2 + w3 * w3 - w4 * w4)
         - O3 * abs(O3) * Ct3) / J3,
    )


def forces_body(s, c, p):
    """Body-frame force split acting on the vehicle.

    Returns:
        (f_drag, f_gravity, f_thrust): quadratic drag opposing v,
        gravity rotated into the body frame, and total rotor thrust
        along body z.
    """
    v = s.v
    f_drag = -np.array([v[0] * abs(v[0]) * p.CD[0],
                        v[1] * abs(v[1]) * p.CD[1],
                        v[2] * abs(v[2]) * p.CD[2]])
    phi, theta, _ = s.angles
    cf, sf = math.cos(phi), math.sin(phi)
    ct, st = math.cos(theta), math.sin(theta)
    f_gravity = p.m * p.g * np.array([st, -ct * sf, -ct * cf])
    f_thrust = np.array([0.0, 0.0, p.Kr * float(np.sum(c.omega ** 2))])
    return f_drag, f_gravity, f_thrust


def torques_body(s, c, p):
    """Body-frame torque split acting on the vehicle.

    Returns:
        (tau_drag, tau_gyro, tau_rotor): quadratic angular drag, the
        gyroscopic torque from the spinning rotors, and the rotor
        thrust-differential / reaction torque.
    """
    O = s.Omega
    tau_drag = -np.array([O[0] * abs(O[0]) * p.Ctau[0],
                          O[1] * abs(O[1]) * p.Ctau[1],
                          O[2] * abs(O[2]) * p.Ctau[2]])
    w1, w2, w3, w4 = c.omega
    sigma = w1 - w2 + w3 - w4
    tau_gyro = np.array([p.Jr_bar * O[1] * sigma,
                         -p.Jr_bar * O[0] * sigma,
                         0.0])
    Krd = p.Kr * p.d
    tau_rotor = np.array([
        Krd * (w3 * w3 - w1 * w1),
        Krd * (w4 * w4 - w2 * w2),
        p.Kd * (w1 * w1 - w2 * w2 + w3 * w3 - w4 * w4),
    ])
    return tau_drag, tau_gyro, tau_rotor


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

    Returns:
        (drift, fields): drift a 12-vector, fields a list of four
        12-vectors [g1, g2, g3, g4].
    """
    pc = _param_tuple(p)
    drift = np.array(_deriv(s.as_vector(), (0.0, 0.0, 0.0, 0.0), pc))
    thrust_row = p.Kr / p.m
    Krd = p.Kr * p.d
    J1, J2, J3 = p.J
    fields = []
    for k_roll, k_pitch, k_yaw in (
            (-Krd, 0.0, p.Kd),
            (0.0, -Krd, -p.Kd),
            (Krd, 0.0, p.Kd),
            (0.0, Krd, -p.Kd)):
        gi = np.zeros(12)
        gi[8] = thrust_row
        gi[9] = k_roll / J1
        gi[10] = k_pitch / J2
        gi[11] = k_yaw / J3
        fields.append(gi)
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

    Each schedule segment, clipped to [0, duration], is one window of
    full steps of dt plus one shorter step when its span is not a
    multiple, so no step straddles a junction, where the command may
    jump. Every RK4 stage reads its window's segment through
    schedule.emit. Samples are recorded at t=0, every stride-th step
    and each window's end, with rotor speeds from schedule.omega_at.

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
    if duration < 0.0:
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

    # samples go to flat float buffers: per-sample tuples or arrays
    # would cost an object header per sample
    x = tuple(s0.as_vector().tolist())
    times = array("d")
    states = array("d")
    omegas = array("d")

    def record(tn, x):
        if not all(map(math.isfinite, x)):
            raise DivergenceError(f"non-finite state at t={tn:.6f}")
        times.append(tn)
        states.extend(x)
        omegas.extend(schedule.omega_at(tn))

    def step(t, x, h, law):
        # same operation order as numerics.rk4_step, element by element;
        # the law is pure, so k2 and k3 share its midpoint sample
        try:
            half = 0.5 * h
            k1 = _deriv(x, law(t), pc)
            mid = law(t + half)
            k2 = _deriv(_stage(x, half, k1), mid, pc)
            k3 = _deriv(_stage(x, half, k2), mid, pc)
            k4 = _deriv(_stage(x, h, k3), law(t + h), pc)
        except GimbalLockError as e:
            raise GimbalLockError(f"gimbal lock near t={t:.6f}: {e}") from e
        c = h / 6.0
        return tuple([xi + c * (((a + 2.0 * b) + 2.0 * d) + e)
                      for xi, a, b, d, e in zip(x, k1, k2, k3, k4)])

    record(0.0, x)
    count = 0
    lo = 0.0
    for seg in schedule.segments:
        # stages at an interior junction are clamped just left of it,
        # or the k4 stage of the step ending there would read the next
        # segment; the final window ends at duration, inside seg or
        # within 1e-9 past its end
        final = seg.t1 >= duration or seg is schedule.segments[-1]
        hi = duration if final else seg.t1
        edge = min(hi, seg.t1) if final else max(lo, hi - 1e-12)

        def law(tq, _s=seg, _e=edge):
            return schedule.emit(_s, tq if tq < _e else _e)

        span = hi - lo
        nfull = int(math.floor(span / dt + 1e-9))
        rem = span - nfull * dt
        if rem <= 1e-9 * max(1.0, span):
            rem = 0.0
        for k in range(nfull):
            x = step(lo + k * dt, x, dt, law)
            count += 1
            tn = hi if (rem == 0.0 and k == nfull - 1) else lo + (k + 1) * dt
            if abs(x[4]) >= _HALF_PI - GIMBAL_EPS:
                raise GimbalLockError(
                    f"gimbal lock at t={tn:.6f}: pitch {x[4]!r}")
            if count % stride == 0 and tn > times[-1]:
                record(tn, x)
        if rem > 0.0:
            x = step(hi - rem, x, rem, law)
            count += 1
            if abs(x[4]) >= _HALF_PI - GIMBAL_EPS:
                raise GimbalLockError(
                    f"gimbal lock at t={hi:.6f}: pitch {x[4]!r}")
        if hi > times[-1]:
            record(hi, x)
        if final:
            break
        lo = hi

    omegas = np.frombuffer(omegas).reshape(-1, 4)
    return QuadTrajectory(
        times=np.frombuffer(times),
        states=np.frombuffer(states).reshape(-1, 12),
        omegas=omegas,
        thrust=p.Kr * np.sum(omegas ** 2, axis=1),
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
