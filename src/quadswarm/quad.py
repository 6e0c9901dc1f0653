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

import itertools
import math
from array import array
from dataclasses import dataclass, replace
from math import cos, sin

import numpy as np

from . import native
from .errors import DivergenceError, DomainError, GimbalLockError

# Pitch values within this distance of +-pi/2 count as gimbal lock:
# every chart of the Euler angles needs |pitch| < PITCH_LIMIT.
GIMBAL_EPS = 1e-6
PITCH_LIMIT = math.pi / 2 - GIMBAL_EPS

# Most RK4 steps of a window that one call of its law samples: a chunk
# bounds the memory a long window's samples take.
_CHUNK = 1024


def gimbal_lock(theta):
    """The GimbalLockError for a pitch theta outside the chart."""
    return GimbalLockError(f"pitch {theta!r} within {GIMBAL_EPS} of +-pi/2")


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
    """Constants of p as Python floats, in the order _deriv unpacks them:
    m, g, Jr_bar, J, CD, Ctau, then the inertia differences J2 - J3,
    J3 - J1 and J1 - J2 of the Euler coupling, computed once here."""
    pc = tuple(float(c) for c in (p.m, p.g, p.Jr_bar, *p.J, *p.CD, *p.Ctau))
    J1, J2, J3 = pc[3:6]
    return pc + (J2 - J3, J3 - J1, J1 - J2)


def _rotor_terms(om, p):
    """What _deriv reads of the rotor speeds, per row of the (n, 4)
    array om: an (n, 5) array of the thrust Kr sum(omega_i^2), the
    gyroscopic sum omega1 - omega2 + omega3 - omega4, and the roll,
    pitch and yaw torques Kr d (omega3^2 - omega1^2),
    Kr d (omega4^2 - omega2^2) and Kd (omega1^2 - omega2^2 + omega3^2
    - omega4^2), each in the operation order of the model written out.
    Like Python floats, they overflow to inf without a warning.
    """
    w1, w2, w3, w4 = om.T
    Krd = p.Kr * p.d
    with np.errstate(over="ignore", invalid="ignore"):
        q1, q2, q3, q4 = (om * om).T
        return np.stack((p.Kr * (q1 + q2 + q3 + q4), w1 - w2 + w3 - w4,
                         Krd * (q3 - q1), Krd * (q4 - q2),
                         p.Kd * (q1 - q2 + q3 - q4)), axis=1)


# the rotor terms of rotors at rest
_OFF = (0.0, 0.0, 0.0, 0.0, 0.0)


def _deriv(phi, theta, psi, v1, v2, v3, O1, O2, O3, r, pc):
    """Time derivative of the state as a 12-tuple.

    The force law reads nine of the twelve state numbers, as floats:
    the Euler angles, the body velocity and the body rates. Position
    is an output that nothing here reads (its rate is R v). r is a row
    of _rotor_terms and pc is _param_tuple(p). Everything here is
    scalar arithmetic, which runs about three times faster on Python
    floats than on numpy scalars. The chart test is two comparisons,
    as |theta| >= PITCH_LIMIT, so a NaN pitch passes it.
    """
    if theta >= PITCH_LIMIT or theta <= -PITCH_LIMIT:
        raise gimbal_lock(theta)
    (m, g, Jr, J1, J2, J3, CD1, CD2, CD3, Ct1, Ct2, Ct3,
     J23, J31, J12) = pc
    thrust, sigma, roll, pitch, yaw = r

    cf, sf = cos(phi), sin(phi)
    ct, st = cos(theta), sin(theta)
    cp, sp = cos(psi), sin(psi)
    tt = st / ct
    # a * b * c is (a * b) * c, so a shared leading product keeps the bits
    cpst, spst, gct = cp * st, sp * st, g * ct
    O2sf, O3cf = O2 * sf, O3 * cf

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
        (J23 * O2 * O3 + Jr * O2 * sigma
         + roll - O1 * abs(O1) * Ct1) / J1,
        (J31 * O1 * O3 - Jr * O1 * sigma
         + pitch - O2 * abs(O2) * Ct2) / J2,
        (J12 * O1 * O2 + yaw - O3 * abs(O3) * Ct3) / J3,
    )


def _nine(s):
    """The nine state numbers _deriv reads, as Python floats."""
    return s.as_vector()[3:].tolist()


def state_derivative(s, c, p):
    """Full twelve-dimensional time derivative at state s under controls c.

    Rows 0-2 are the inertial velocity R v, rows 3-5 the Euler-angle
    rates, rows 6-8 the body-frame acceleration, rows 9-11 the angular
    acceleration. Raises GimbalLockError when pitch is too close to
    +-pi/2 for the Euler-rate map.
    """
    return np.array(_deriv(*_nine(s), _rotor_terms(c.omega[None], p)[0],
                           _param_tuple(p)))


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
    drift = np.array(_deriv(*_nine(s), _OFF, _param_tuple(p)))
    pc = _param_tuple(
        replace(p, g=0.0, CD=np.zeros(3), Ctau=np.zeros(3), Jr_bar=0.0))
    rest = (0.0,) * 9
    fields = [np.array(_deriv(*rest, r, pc))
              for r in _rotor_terms(np.eye(4), p).tolist()]
    return drift, fields


def geodesic_spray(s, p):
    """Force-free part of the dynamics: kinematics plus Euler coupling.

    Equals state_derivative with rotors off, gravity and drag removed:
    (R v, Theta Omega, v x Omega, J^{-1}((J Omega) x Omega)).
    """
    free = replace(p, g=0.0, CD=np.zeros(3), Ctau=np.zeros(3))
    return np.array(_deriv(*_nine(s), _OFF, _param_tuple(free)))


def simulate(s0, schedule, p, duration, dt=1e-3, stride=10):
    """Integrate the vehicle under a control schedule with fixed-step RK4.

    The flight steps through schedule.windows(duration, dt): per
    segment, full steps of dt plus one shorter step when its span is
    not a multiple, so no step straddles a junction. A window is flown
    in chunks of at most _CHUNK steps. Each chunk samples its law once,
    through schedule.sample, at every RK4 stage time and at the times
    of the states it records inside the window, and turns the stage
    samples into the rotor terms _deriv reads (_rotor_terms). The law
    is pure, so a step's k1 reuses the previous step's k4 sample when
    it starts at exactly that time, and a constant law's one row serves
    every step. A chunk that holds a refused or out-of-range sample is
    walked point by point through schedule.emit instead, so its error
    comes at the step a flight that emits every sample raises it. Where
    native.library loads, its run_chunk flies the steps of every chunk
    that is not walked, up to the first step that meets the gimbal band
    or a stage angle of +-inf; from there, and in a walked chunk,
    _rk4_step flies them, so every error keeps its type, its text and
    its step. Either way each step writes its end
    state to a row of one buffer, and the chunk's recorded states are
    taken from there in one pass. States are recorded at t=0, every
    stride-th step and each window's end; the rotor speeds of a sample
    at a junction or at the end of a window come from schedule.omega_at.

    Args:
        s0: initial QuadState.
        schedule: planner.ControlSchedule covering [0, duration]; a
            shorter schedule raises DomainError.
        p: QuadParams.
        duration: time horizon, >= 0.
        dt: step size, > 0 and finite.
        stride: sampling stride in steps.

    Returns:
        QuadTrajectory.

    Raises:
        GimbalLockError: with the failure time, if pitch approaches
            +-pi/2 during integration.
        DivergenceError: at the first recorded sample whose state is
            not finite (NaN pitch passes the gimbal check), or with the
            start of the step that a roll or yaw of +-inf fails.
        DomainError: a malformed argument, a schedule that does not
            cover [0, duration], or a dt so small that a window's step
            count is not finite.
    """
    if not duration >= 0.0:
        raise DomainError(f"duration must be nonnegative, got {duration!r}")
    if not 0.0 < dt < math.inf:
        raise DomainError(
            f"step size must be positive and finite, got {dt!r}")
    if stride < 1:
        raise DomainError(f"stride must be >= 1, got {stride!r}")
    total = schedule.total_duration
    if total + 1e-9 < duration:
        raise DomainError(
            f"schedule covers [0, {total}], mission needs [0, {duration}]")

    pc = _param_tuple(p)
    lib = native.library()
    run = lib.run_chunk if lib is not None else None
    # the kernel's constants and start state; every step of a chunk,
    # compiled or not, writes its end state to its row of out
    pcbuf, xbuf = np.array(pc), np.empty(12)
    out = np.empty((_CHUNK, 12))

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

    def record_rows(tns, rows, due, w, known):
        """record, in bulk and in order, the due steps of a chunk whose
        end states are the rows."""
        i = np.flatnonzero(due[:len(rows)])
        tn = tns[i]
        # a due step is recorded when it ends after every earlier one
        keep = tn > np.maximum.accumulate(
            np.concatenate(([times[-1]], tn)))[:-1]
        i, tn = i[keep], tn[keep]
        rows, om = rows[i], w[i]
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        stop = bad[0] if bad.size else i.size
        for k in np.flatnonzero(~known[i[:stop]]).tolist():
            om[k] = schedule.omega_at(float(tn[k]))
        if bad.size:
            raise DivergenceError(f"non-finite state at t={tn[stop]:.6f}")
        times.frombytes(tn.tobytes())
        states.frombytes(rows.tobytes())
        omegas.frombytes(om.tobytes())

    record(0.0, x)
    count = 0
    for seg, lo, hi, edge, nfull, rem in schedule.windows(duration, dt):
        nsteps = nfull + (rem > 0.0)
        for c0 in range(0, nsteps, _CHUNK):
            k = np.arange(c0, min(c0 + _CHUNK, nsteps))
            ts, hs, tns = lo + k * dt, np.full(k.size, dt), lo + (k + 1) * dt
            last = k == nsteps - 1
            tns[last] = hi
            if rem > 0.0:
                ts[last], hs[last] = hi - rem, rem
            # the steps whose end state is recorded
            due = (count + 1 + np.arange(k.size)) % stride == 0
            count += k.size
            r1, rm, r4, w, known = _chunk_samples(
                schedule, seg, p, edge, ts, hs, tns, due)
            # the kernel flies the chunk up to step j, where Python
            # takes over; a walked chunk is Python's alone, and
            # omega_at reads every speed it records
            j = 0
            if w is None:
                w, known = np.empty((k.size, 4)), np.zeros(k.size, bool)
            else:
                if run is not None:
                    xbuf[:] = x
                    j = _kernel_steps(run, xbuf, hs, r1, rm, r4, pcbuf, out)
                    if j:
                        x = tuple(out[j - 1].tolist())
                r1, rm, r4 = (_rows(r, j) for r in (r1, rm, r4))
            try:
                for t, h, tn, a, b, c in zip(
                        ts[j:].tolist(), hs[j:].tolist(), tns[j:].tolist(),
                        r1, rm, r4):
                    try:
                        x = _rk4_step(x, h, a, b, c, pc)
                    except GimbalLockError as e:
                        raise _locked_near(t, e) from e
                    except ValueError as e:
                        # math.cos of an angle that overflowed to +-inf
                        raise DivergenceError(
                            f"non-finite attitude near t={t:.6f}") from e
                    theta = x[4]
                    if theta >= PITCH_LIMIT or theta <= -PITCH_LIMIT:
                        raise GimbalLockError(
                            f"gimbal lock at t={tn:.6f}: pitch {theta!r}")
                    out[j] = x
                    j += 1
            finally:
                # an earlier recorded state that is not finite fails first
                record_rows(tns, out[:j], due, w, known)
        if hi > times[-1]:
            record(hi, x)

    omegas = np.frombuffer(omegas).reshape(-1, 4)
    return QuadTrajectory(
        times=np.frombuffer(times),
        states=np.frombuffer(states).reshape(-1, 12),
        omegas=omegas,
        thrust=p.Kr * np.sum(omegas ** 2, axis=1),
    )


def _rows(r, j):
    """The rotor-term rows of a chunk's steps from step j on, as lists:
    an (n, 5) array's own, or a one-row array's row for every step."""
    return r[j:].tolist() if len(r) > 1 else itertools.repeat(r[0].tolist())


def _kernel_steps(run, x, hs, r1, rm, r4, pc, out):
    """Fly the steps of sizes hs from the state x through run, the
    compiled chunk, into the rows of out; returns how many it flew: all
    of them, or the index of the first that Python must take.

    r1, rm and r4 hold a row of rotor terms per step, or one row for
    every step."""
    n = hs.size
    # the C loop reads and writes these rows unchecked
    hs, r1, rm, r4 = (np.ascontiguousarray(a, float) for a in (hs, r1, rm, r4))
    if not (r1.shape == rm.shape == r4.shape in {(n, 5), (1, 5)}
            and x.shape == (12,) and out.shape[0] >= n
            and out.shape[1:] == (12,) and x.dtype == out.dtype == float
            and x.flags.c_contiguous and out.flags.c_contiguous):
        raise DomainError("the compiled chunk's arrays do not fit its steps")
    j = run(x.ctypes.data, n, hs.ctypes.data, r1.ctypes.data, rm.ctypes.data,
            r4.ctypes.data, 5 if len(r1) > 1 else 0, pc.ctypes.data,
            PITCH_LIMIT, out.ctypes.data)
    return n if j < 0 else j


def _chunk_samples(schedule, seg, p, edge, t, h, tn, due):
    """The samples of one chunk of a window through seg's law.

    t, h and tn are the steps' start times, sizes and end times, and
    due marks the steps whose end state is recorded. Stages read seg
    at times clamped to edge. Returns (r1, rm, r4, w, known): per step,
    the rotor terms at its start, midpoint and end as C-ordered (n, 5)
    arrays, and in the rows of the (n, 4) array w that known marks, the
    rotor speeds at the end of each recorded step that ends before
    edge; schedule.omega_at reads the others. When the sample is one
    row, a constant law's, r1, rm and r4 are one (1, 5) array, its
    rotor terms for every step. When a sample is refused or out of
    range, r1, rm and r4 are _walk's, which emit each sample as the
    step loop reads it, and w is None: omega_at reads every recorded
    speed, from the same law.
    """
    n, tq, t4 = t.size, t + 0.5 * h, t + h
    # a step's k1 reuses the last k4 when it starts at exactly that time
    own = np.ones(n, bool)
    own[1:] = t[1:] != t4[:-1]
    recorded = due & (tn < edge)
    stages = np.minimum(np.concatenate((t[own], tq, t4)), edge)
    om = schedule.sample(seg, np.concatenate((stages, tn[recorded])))
    if om is None:
        return (*(_walk(schedule, seg, p, np.minimum(s, edge), t)
                  for s in (t, tq, t4)), None, None)
    if len(om) == 1:
        terms = _rotor_terms(om, p)
        return terms, terms, terms, np.broadcast_to(om, (n, 4)), recorded
    n_own = own.sum()
    terms = _rotor_terms(om[:stages.size], p)
    # each step's start: its own sample, or the last step's k4
    start = np.arange(n_own + n - 1, n_own + 2 * n - 1)
    start[own] = np.arange(n_own)
    w = np.empty((n, 4))
    w[recorded] = om[stages.size:]
    return (terms[start], terms[n_own:n_own + n], terms[n_own + n:], w,
            recorded)


def _walk(schedule, seg, p, times, starts):
    """Rotor terms at a chunk's stage times, each emitted when the step
    loop reads it: the point-by-point walk of a chunk that holds a
    refused or out-of-range sample. A law that refuses a tilt fails the
    step it serves, which starts at the matching time of starts."""
    for t, start in zip(times.tolist(), starts.tolist()):
        try:
            om = schedule.emit(seg, t)
        except GimbalLockError as e:
            raise _locked_near(start, e) from e
        yield _rotor_terms(np.array([om]), p).tolist()[0]


def _locked_near(t, e):
    """The error of the RK4 step from t that met the gimbal lock e."""
    return GimbalLockError(f"gimbal lock near t={t:.6f}: {e}")


def _rk4_step(x, h, r1, rm, r4, pc):
    """One classical RK4 step of _deriv under the rotor terms at the
    step's start, midpoint and end.

    Same operation order as rk4_step, the textbook step that the tests
    hold it against (tests/oracles.py), element by element; the
    midpoint terms serve both k2 and k3. Each stage hands _deriv the
    nine stage values it reads, written out on unpacked floats: no
    stage state is built, and no stage position, which no stage reads.
    """
    half = 0.5 * h
    x0, x1, x2, x3, x4, x5, x6, x7, x8, x9, x10, x11 = x
    a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11 = _deriv(
        x3, x4, x5, x6, x7, x8, x9, x10, x11, r1, pc)
    b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11 = _deriv(
        x3 + half * a3, x4 + half * a4, x5 + half * a5, x6 + half * a6,
        x7 + half * a7, x8 + half * a8, x9 + half * a9, x10 + half * a10,
        x11 + half * a11, rm, pc)
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11 = _deriv(
        x3 + half * b3, x4 + half * b4, x5 + half * b5, x6 + half * b6,
        x7 + half * b7, x8 + half * b8, x9 + half * b9, x10 + half * b10,
        x11 + half * b11, rm, pc)
    d0, d1, d2, d3, d4, d5, d6, d7, d8, d9, d10, d11 = _deriv(
        x3 + h * c3, x4 + h * c4, x5 + h * c5, x6 + h * c6, x7 + h * c7,
        x8 + h * c8, x9 + h * c9, x10 + h * c10, x11 + h * c11, r4, pc)
    s = h / 6.0
    return (
        x0 + s * (((a0 + 2.0 * b0) + 2.0 * c0) + d0),
        x1 + s * (((a1 + 2.0 * b1) + 2.0 * c1) + d1),
        x2 + s * (((a2 + 2.0 * b2) + 2.0 * c2) + d2),
        x3 + s * (((a3 + 2.0 * b3) + 2.0 * c3) + d3),
        x4 + s * (((a4 + 2.0 * b4) + 2.0 * c4) + d4),
        x5 + s * (((a5 + 2.0 * b5) + 2.0 * c5) + d5),
        x6 + s * (((a6 + 2.0 * b6) + 2.0 * c6) + d6),
        x7 + s * (((a7 + 2.0 * b7) + 2.0 * c7) + d7),
        x8 + s * (((a8 + 2.0 * b8) + 2.0 * c8) + d8),
        x9 + s * (((a9 + 2.0 * b9) + 2.0 * c9) + d9),
        x10 + s * (((a10 + 2.0 * b10) + 2.0 * c10) + d10),
        x11 + s * (((a11 + 2.0 * b11) + 2.0 * c11) + d11),
    )
