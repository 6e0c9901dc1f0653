"""Reference statements of the Euler maps and of classical RK4.

The package writes each rule once, in the form a run needs: the
rotation and the Euler-rate map inside quad._deriv, the RK4 step as
quad._rk4_step and its C transcription. These are the same rules in
their textbook form, matrices and a generic step, which the tests hold
the package's forms against. No module of the package imports this
one. All angles are radians and all arrays are float64.
"""

import math

import numpy as np

from quadswarm.errors import DomainError
from quadswarm.quad import PITCH_LIMIT, gimbal_lock


def hat(y):
    """Skew-symmetric matrix of a 3-vector.

    hat(y) @ z equals the cross product y x z for any 3-vector z.

    Args:
        y: length-3 array-like.

    Returns:
        3x3 ndarray, antisymmetric.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (3,):
        raise DomainError(f"hat expects a 3-vector, got shape {y.shape}")
    y1, y2, y3 = y
    return np.array([
        [0.0, -y3, y2],
        [y3, 0.0, -y1],
        [-y2, y1, 0.0],
    ])


def rotation_from_euler(phi, theta, psi):
    """Body-to-inertial rotation matrix for roll, pitch, yaw.

    Composition order is yaw about z, then pitch about y, then roll
    about x: R = Rz(psi) Ry(theta) Rx(phi). Columns are the body axes
    expressed in the inertial frame.

    Pitch must satisfy |pitch| < PITCH_LIMIT, the chart every Euler
    map here shares; NaN is refused too. Roll and yaw are unrestricted
    so integrated attitudes can pass +-pi without wraparound; normalize
    only when reporting.

    Returns:
        3x3 orthogonal ndarray with determinant +1.

    Raises:
        GimbalLockError: pitch outside the chart.
    """
    if not abs(theta) < PITCH_LIMIT:
        raise gimbal_lock(theta)
    cf, sf = math.cos(phi), math.sin(phi)
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(psi), math.sin(psi)
    return np.array([
        [cp * ct, cp * st * sf - sp * cf, cp * st * cf + sp * sf],
        [sp * ct, sp * st * sf + cp * cf, sp * st * cf - cp * sf],
        [-st, ct * sf, ct * cf],
    ])


def euler_rate_matrix(phi, theta):
    """Map from body angular velocity to Euler-angle rates.

    eta_dot = euler_rate_matrix(phi, theta) @ Omega, where eta is
    (roll, pitch, yaw). The map blows up as pitch approaches +-pi/2;
    from PITCH_LIMIT on the matrix is refused.

    Returns:
        3x3 ndarray.
    """
    if abs(theta) >= PITCH_LIMIT:
        raise gimbal_lock(theta)
    cf, sf = math.cos(phi), math.sin(phi)
    ct = math.cos(theta)
    tt = math.tan(theta)
    return np.array([
        [1.0, sf * tt, cf * tt],
        [0.0, cf, -sf],
        [0.0, sf / ct, cf / ct],
    ])


def rk4_step(derivative, x, t, dt):
    """One classical Runge-Kutta step of size dt.

    Args:
        derivative: callable (t, x) -> dx/dt, same shape as x.
        x: current state (scalar or ndarray).
        t: current time.
        dt: step size, strictly positive.

    Returns:
        The state advanced to t + dt. Errors raised by the derivative
        callable propagate unchanged.
    """
    if not dt > 0.0:
        raise DomainError(f"step size must be positive, got {dt!r}")
    half = 0.5 * dt
    k1 = derivative(t, x)
    k2 = derivative(t + half, x + half * k1)
    k3 = derivative(t + half, x + half * k2)
    k4 = derivative(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
