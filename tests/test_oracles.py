"""Unit checks for the reference Euler maps and RK4 step of oracles.py,
and that the package neither ships nor reads them."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quadswarm
from oracles import euler_rate_matrix, hat, rk4_step, rotation_from_euler
from quadswarm.errors import DomainError, GimbalLockError
from quadswarm.quad import GIMBAL_EPS, PITCH_LIMIT

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
vec3 = st.tuples(finite, finite, finite)
angle = st.floats(min_value=-math.pi, max_value=math.pi,
                  allow_nan=False, allow_infinity=False)
safe_pitch = st.floats(min_value=-1.4, max_value=1.4,
                       allow_nan=False, allow_infinity=False)


class TestHat:
    def test_known_cross_product(self):
        m = hat([1.0, 2.0, 3.0])
        assert np.array_equal(m @ np.array([4.0, 5.0, 6.0]),
                              np.array([-3.0, 6.0, -3.0]))

    @given(y=vec3, z=vec3)
    def test_matches_numpy_cross(self, y, z):
        got = hat(y) @ np.asarray(z)
        assert np.allclose(got, np.cross(y, z), atol=1e-12)

    @given(y=vec3)
    def test_antisymmetric(self, y):
        m = hat(y)
        assert np.array_equal(m.T, -m)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DomainError):
            hat([1.0, 2.0])
        with pytest.raises(DomainError):
            hat(np.zeros((3, 3)))


class TestRotation:
    def test_quarter_turn_about_z(self):
        r = rotation_from_euler(0.0, 0.0, math.pi / 2)
        assert np.allclose(r @ np.array([1.0, 0.0, 0.0]),
                           [0.0, 1.0, 0.0], atol=1e-15)

    def test_identity_at_zero(self):
        assert np.allclose(rotation_from_euler(0.0, 0.0, 0.0), np.eye(3),
                           atol=0.0)

    def test_composition_order(self):
        # R must equal Rz @ Ry @ Rx built from elementary rotations.
        phi, theta, psi = 0.3, -0.4, 1.1
        cf, sf = math.cos(phi), math.sin(phi)
        ct, st_ = math.cos(theta), math.sin(theta)
        cp, sp = math.cos(psi), math.sin(psi)
        rx = np.array([[1, 0, 0], [0, cf, -sf], [0, sf, cf]])
        ry = np.array([[ct, 0, st_], [0, 1, 0], [-st_, 0, ct]])
        rz = np.array([[cp, -sp, 0], [sp, cp, 0], [0, 0, 1]])
        assert np.allclose(rotation_from_euler(phi, theta, psi),
                           rz @ ry @ rx, atol=1e-15)

    @given(phi=angle, theta=safe_pitch, psi=angle)
    def test_orthogonal_unit_determinant(self, phi, theta, psi):
        r = rotation_from_euler(phi, theta, psi)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-14)
        assert abs(np.linalg.det(r) - 1.0) < 1e-14

    def test_rejects_pitch_at_pi_half(self):
        with pytest.raises(DomainError):
            rotation_from_euler(0.0, math.pi / 2, 0.0)
        with pytest.raises(DomainError):
            rotation_from_euler(0.0, -math.pi / 2 - 0.1, 0.0)

    def test_rejects_the_gimbal_band(self):
        # the band every Euler chart refuses, not just pi/2 itself
        with pytest.raises(GimbalLockError):
            rotation_from_euler(0.0, math.pi / 2 - GIMBAL_EPS / 2, 0.0)
        with pytest.raises(GimbalLockError):
            rotation_from_euler(0.0, -PITCH_LIMIT, 0.0)
        with pytest.raises(GimbalLockError):
            rotation_from_euler(0.0, math.nan, 0.0)
        rotation_from_euler(0.0, math.nextafter(PITCH_LIMIT, 0.0), 0.0)


class TestEulerRateMatrix:
    def test_known_entry(self):
        m = euler_rate_matrix(math.pi / 4, math.pi / 4)
        assert abs(m[0, 1] - math.sqrt(2.0) / 2.0) < 1e-15

    def test_identity_at_level(self):
        assert np.allclose(euler_rate_matrix(0.0, 0.0), np.eye(3), atol=0.0)

    @given(phi=angle, theta=safe_pitch)
    def test_inverts_body_rate_map(self, phi, theta):
        # The inverse map (Euler rates -> body rates) has a closed form;
        # their product must be the identity.
        cf, sf = math.cos(phi), math.sin(phi)
        ct, st_ = math.cos(theta), math.sin(theta)
        b = np.array([
            [1.0, 0.0, -st_],
            [0.0, cf, sf * ct],
            [0.0, -sf, cf * ct],
        ])
        m = euler_rate_matrix(phi, theta)
        assert np.allclose(m @ b, np.eye(3), atol=1e-12)

    def test_gimbal_guard(self):
        with pytest.raises(GimbalLockError):
            euler_rate_matrix(0.0, math.pi / 2 - GIMBAL_EPS / 2)
        with pytest.raises(GimbalLockError):
            euler_rate_matrix(0.0, -math.pi / 2)


class TestRk4:
    def test_exponential_single_step(self):
        x1 = rk4_step(lambda t, x: x, 1.0, 0.0, 0.01)
        assert abs(x1 - math.exp(0.01)) < 1e-10

    def test_vector_state(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        x = np.array([1.0, 0.0])
        t = 0.0
        for _ in range(1000):
            x = rk4_step(lambda tt, xx: a @ xx, x, t, 1e-3)
            t += 1e-3
        assert np.allclose(x, [math.cos(1.0), math.sin(1.0)], atol=1e-12)

    def test_fourth_order_convergence(self):
        # dx/dt = x^2, x(0) = 1, exact solution 1/(1 - t) on [0, 0.5].
        def integrate(steps):
            x, t = 1.0, 0.0
            h = 0.5 / steps
            for _ in range(steps):
                x = rk4_step(lambda tt, xx: xx * xx, x, t, h)
                t += h
            return abs(x - 2.0)

        e1, e2 = integrate(50), integrate(100)
        order = math.log2(e1 / e2)
        assert 3.8 < order < 4.2

    def test_time_dependence_reaches_stages(self):
        # dx/dt = 3 t^2 integrates exactly (degree <= 4 is exact for RK4).
        x = rk4_step(lambda t, x: 3.0 * t * t, 0.0, 0.0, 2.0)
        assert abs(x - 8.0) < 1e-12

    def test_rejects_nonpositive_step(self):
        with pytest.raises(DomainError):
            rk4_step(lambda t, x: x, 1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            rk4_step(lambda t, x: x, 1.0, 0.0, -1e-3)


class TestOraclesStayInTheTests:
    def test_the_package_does_not_export_them(self):
        for name in ("hat", "rotation_from_euler", "euler_rate_matrix",
                     "rk4_step"):
            assert name not in quadswarm.__all__
            assert not hasattr(quadswarm, name)
        assert len(quadswarm.__all__) == 54

    def test_no_package_module_imports_a_test_module(self):
        tests = Path(__file__).parent
        local = {"tests"} | {p.stem for p in tests.glob("*.py")}
        package = Path(quadswarm.__file__).parent
        modules = sorted(package.glob("*.py"))
        assert "numerics.py" not in {p.name for p in modules}
        for path in modules:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                for name in names:
                    assert name.split(".")[0] not in local, (path.name, name)
