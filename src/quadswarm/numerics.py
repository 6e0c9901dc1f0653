"""Shared numeric kernel.

Skew-symmetric matrices, Euler-angle kinematics, the symmetric
eigensolver (LAPACK ``eigh`` behind input checks), and a fixed-step RK4
integrator. All angles are radians and all arrays are float64.
"""

import math

import numpy as np

from .errors import ConvergenceError, DomainError, GimbalLockError

# Pitch values within this distance of +-pi/2 count as gimbal lock:
# every chart of the Euler angles needs |pitch| < PITCH_LIMIT.
GIMBAL_EPS = 1e-6
PITCH_LIMIT = math.pi / 2 - GIMBAL_EPS


def gimbal_lock(theta):
    """The GimbalLockError for a pitch theta outside the chart."""
    return GimbalLockError(f"pitch {theta!r} within {GIMBAL_EPS} of +-pi/2")


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


def sym_eigen(a):
    """Eigendecomposition of a symmetric matrix by LAPACK's ``eigh``.

    Only the lower triangle is read, after the symmetry check.

    Args:
        a: (n, n) symmetric array-like with finite entries. Asymmetry
            beyond 1e-12 is refused.

    Returns:
        (eigvals, vecs): eigenvalues ascending, vecs[:, k] the unit
        eigenvector for eigvals[k], so a @ vecs == vecs @ diag(eigvals).

    Raises:
        DomainError: non-square, empty, non-finite or asymmetric input.
        ConvergenceError: LAPACK reports that it did not converge.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise DomainError("empty matrix")
    if not np.isfinite(a).all():
        raise DomainError("matrix has non-finite entries")
    if np.max(np.abs(a - a.T)) > 1e-12:
        raise DomainError("matrix is not symmetric within 1e-12")
    try:
        eigvals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as e:
        raise ConvergenceError(f"eigh did not converge: {e}") from None
    return eigvals, vecs


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
