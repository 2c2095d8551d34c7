import math

import numpy as np
import pytest

from isacbounds import Node, TargetState, geom
from isacbounds.errors import (
    InvalidBistaticRangeError,
    OutOfFieldError,
    SingularGeometryError,
    UndefinedHeadingError,
)
from isacbounds.model import SPEED_OF_LIGHT as C
from isacbounds.oracle import jacobian_numeric

LAM = C / 28e9


def random_pair(rng):
    """Tx, rx, target with the target inside the rx field of view and off
    the baseline; retries until non-degenerate."""
    while True:
        tx = Node(id="tx", position=tuple(rng.uniform(-80, 80, 2)),
                  orientation=float(rng.uniform(-np.pi, np.pi)), role="monostatic")
        rx = Node(id="rx", position=tuple(rng.uniform(-80, 80, 2)),
                  orientation=float(rng.uniform(-np.pi, np.pi)), role="monostatic")
        t = TargetState(position=tuple(rng.uniform(-80, 80, 2)),
                        velocity=tuple(rng.uniform(-30, 30, 2)))
        try:
            obs = geom.bis_observables(tx, rx, t, LAM)
        except SingularGeometryError:
            continue
        if abs(obs.doa) > 1.3:
            continue
        if obs.bistatic_range - obs.baseline * math.cos(obs.look_angle) < 0.05 * obs.bistatic_range:
            continue
        return tx, rx, t, obs


class TestGlobalToLocal:
    def test_identity(self):
        n = Node(id="n", position=(0, 0), orientation=0.0)
        np.testing.assert_allclose(geom.global_to_local((3.0, 4.0), n), [3.0, 4.0])

    def test_quarter_turn(self):
        n = Node(id="n", position=(0, 0), orientation=math.pi / 2)
        np.testing.assert_allclose(geom.global_to_local((1.0, 0.0), n), [0.0, -1.0],
                                   atol=1e-15)

    def test_round_trip(self, rng):
        for _ in range(20):
            n = Node(id="n", position=tuple(rng.uniform(-50, 50, 2)),
                     orientation=float(rng.uniform(-np.pi, np.pi)))
            p = rng.uniform(-50, 50, 2)
            local = geom.global_to_local(p, n)
            back = geom.jac_rotation(n.orientation).T @ local + np.asarray(n.position)
            np.testing.assert_allclose(back, p, atol=1e-12)


class TestMonoObservables:
    def test_static_target_no_doppler(self):
        n = Node(id="n", position=(0, 0))
        obs = geom.mono_observables(n, TargetState(position=(30.0, 5.0)), LAM)
        assert obs.doppler == 0.0
        assert obs.delay == pytest.approx(2.0 * math.hypot(30, 5) / C)

    def test_radial_approach_sign(self):
        n = Node(id="n", position=(0, 0))
        speed = 10.0
        t = TargetState(position=(50.0, 0.0), velocity=(-speed, 0.0))
        obs = geom.mono_observables(n, t, LAM)
        assert obs.doppler == pytest.approx(-2.0 * speed / LAM)

    def test_generic_matches_direct_formula(self, rng):
        n = Node(id="n", position=(5.0, -3.0), orientation=0.4)
        t = TargetState(position=(40.0, 10.0), velocity=(7.0, -2.0))
        obs = geom.mono_observables(n, t, LAM)
        dx, dy = 35.0, 13.0
        r = math.hypot(dx, dy)
        assert obs.delay == pytest.approx(2.0 * r / C, rel=1e-15)
        assert obs.doppler == pytest.approx(2.0 / LAM * (dx * 7.0 + dy * -2.0) / r, rel=1e-14)
        assert obs.doa == pytest.approx(math.atan2(dy, dx) - 0.4, rel=1e-12)

    def test_coincident_raises(self):
        n = Node(id="n", position=(1.0, 2.0))
        with pytest.raises(SingularGeometryError):
            geom.mono_observables(n, TargetState(position=(1.0, 2.0)), LAM)

    def test_out_of_field_raises(self):
        n = Node(id="n", position=(0.0, 0.0), orientation=0.0)
        with pytest.raises(OutOfFieldError):
            geom.mono_observables(n, TargetState(position=(-10.0, 0.5)), LAM)


class TestBisObservables:
    def test_colocated_pair_reduces_to_mono(self):
        tx = Node(id="t", position=(3.0, 4.0), orientation=0.2, role="tx")
        rx = Node(id="r", position=(3.0, 4.0), orientation=0.2, role="rx", tx_id="t")
        t = TargetState(position=(50.0, 20.0), velocity=(3.0, 1.0))
        mono = geom.mono_observables(Node(id="m", position=(3.0, 4.0), orientation=0.2), t, LAM)
        bis = geom.bis_observables(tx, rx, t, LAM)
        assert bis.delay == pytest.approx(mono.delay, rel=1e-15)
        assert bis.doppler == pytest.approx(mono.doppler, rel=1e-14)
        assert bis.doa == pytest.approx(mono.doa, rel=1e-14)
        assert bis.baseline == 0.0

    def test_static_target_no_doppler(self):
        tx = Node(id="t", position=(0, 0), role="tx")
        rx = Node(id="r", position=(10, 0), role="rx", tx_id="t", orientation=math.pi / 2)
        obs = geom.bis_observables(tx, rx, TargetState(position=(5.0, 20.0)), LAM)
        assert obs.doppler == 0.0

    def test_right_triangle(self):
        tx = Node(id="t", position=(0.0, 0.0), role="tx")
        rx = Node(id="r", position=(2.0, 0.0), role="rx", tx_id="t", orientation=math.pi / 2)
        obs = geom.bis_observables(tx, rx, TargetState(position=(1.0, 1.0)), LAM)
        assert obs.bistatic_range == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)
        assert obs.baseline == pytest.approx(2.0)
        assert abs(obs.look_angle) == pytest.approx(math.pi / 4, rel=1e-12)

    def test_distance_recovered_from_ellipse(self, rng):
        for _ in range(30):
            tx, rx, t, obs = random_pair(rng)
            r_rx = math.hypot(t.position[0] - rx.position[0], t.position[1] - rx.position[1])
            rec = geom.bistatic_range_to_distance(obs.bistatic_range, obs.baseline,
                                                  obs.look_angle)
            assert rec == pytest.approx(r_rx, rel=1e-9)


class TestBistaticRangeToDistance:
    def test_zero_baseline_gives_half_range(self):
        assert geom.bistatic_range_to_distance(80.0, 0.0, 0.7) == pytest.approx(40.0)

    def test_triangle_case(self):
        assert geom.bistatic_range_to_distance(2 * math.sqrt(2), 2.0, math.pi / 4) == \
            pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_range_not_above_baseline(self):
        with pytest.raises(InvalidBistaticRangeError):
            geom.bistatic_range_to_distance(2.0, 2.0, 0.1)


class TestJacMonoPosition:
    def test_on_axis(self):
        j = geom.jac_mono_position((25.0, 0.0))
        np.testing.assert_allclose(j, [[2.0 / C, 0.0], [0.0, 1.0 / 25.0]], atol=1e-18)

    def test_determinant(self, rng):
        for _ in range(10):
            p = rng.uniform(-60, 60, 2)
            r = math.hypot(*p)
            det = np.linalg.det(geom.jac_mono_position(p))
            assert det == pytest.approx(2.0 / (C * r), rel=1e-12)

    def test_matches_numeric(self, rng):
        def fmap(p):
            return np.array([2.0 * math.hypot(*p) / C, math.atan2(p[1], p[0])])

        for _ in range(20):
            p = rng.uniform(-60, 60, 2)
            if math.hypot(*p) < 1.0 or abs(math.atan2(p[1], p[0])) > 3.0:
                continue
            j = geom.jac_mono_position(p)
            jn = jacobian_numeric(fmap, p)
            assert np.abs(j - jn).max() <= 1e-6 * np.abs(j).max()


class TestJacBisPosition:
    def test_zero_baseline_equals_inverse_mono(self):
        tx = Node(id="t", position=(3.0, 4.0), role="tx")
        rx = Node(id="r", position=(3.0, 4.0), orientation=0.3, role="rx", tx_id="t")
        t = TargetState(position=(60.0, 30.0))
        obs = geom.bis_observables(tx, rx, t, LAM)
        p_local = geom.global_to_local(t.position, rx)
        j_bis = geom.jac_bis_position(obs)
        j_mono_inv = np.linalg.inv(geom.jac_mono_position(p_local))
        np.testing.assert_allclose(j_bis, j_mono_inv, rtol=1e-12)

    def test_inverse_function_product(self, rng):
        for _ in range(20):
            tx, rx, t, obs = random_pair(rng)

            def forward(p_local):
                p_global = (np.asarray(rx.position)
                            + geom.jac_rotation(rx.orientation).T @ p_local)
                r_tx = np.hypot(*(p_global - np.asarray(tx.position)))
                return np.array([(r_tx + np.hypot(*p_local)) / C,
                                 math.atan2(p_local[1], p_local[0])])

            p_local = geom.global_to_local(t.position, rx)
            prod = geom.jac_bis_position(obs) @ jacobian_numeric(forward, p_local)
            assert np.abs(prod - np.eye(2)).max() < 1e-6

    def test_on_baseline_raises(self):
        tx = Node(id="t", position=(0.0, 0.0), role="tx")
        rx = Node(id="r", position=(10.0, 0.0), orientation=math.pi,
                  role="rx", tx_id="t")
        obs = geom.bis_observables(tx, rx, TargetState(position=(5.0, 0.0)), LAM)
        with pytest.raises(SingularGeometryError):
            geom.jac_bis_position(obs)


class TestJacRotation:
    def test_zero_is_identity(self):
        np.testing.assert_array_equal(geom.jac_rotation(0.0), np.eye(2))

    def test_orthonormal_unit_determinant(self, rng):
        for angle in rng.uniform(-np.pi, np.pi, 10):
            j = geom.jac_rotation(float(angle))
            assert np.abs(j.T @ j - np.eye(2)).max() < 1e-14
            assert np.linalg.det(j) == pytest.approx(1.0, abs=1e-14)

    def test_preserves_efim_trace(self, rng):
        m = np.array([[4.0, 1.0], [1.0, 2.5]])
        for angle in rng.uniform(-np.pi, np.pi, 5):
            j = geom.jac_rotation(float(angle))
            assert np.trace(j.T @ m @ j) == pytest.approx(np.trace(m), rel=1e-14)


class TestJacMonoState:
    def test_static_target_zeroes_doppler_position_block(self):
        n = Node(id="n", position=(0, 0))
        j = geom.jac_state(n, n, TargetState(position=(40.0, 10.0)), LAM)
        np.testing.assert_array_equal(j[0, :2], [0.0, 0.0])

    def test_delay_doa_rows_velocity_independent(self):
        n = Node(id="n", position=(0, 0))
        t = TargetState(position=(40.0, 10.0), velocity=(9.0, -4.0))
        j = geom.jac_state(n, n, t, LAM)
        np.testing.assert_array_equal(j[1:, 2:], np.zeros((2, 2)))

    def test_matches_numeric(self, rng):
        for _ in range(20):
            tx, rx, t, obs = random_pair(rng)

            def fmap(z):
                tt = TargetState(position=(z[0], z[1]), velocity=(z[2], z[3]))
                o = geom.mono_observables(rx, tt, LAM)
                return np.array([o.doppler, o.delay, o.doa])

            z0 = np.array([*t.position, *t.velocity])
            j = geom.jac_state(rx, rx, t, LAM)
            jn = jacobian_numeric(fmap, z0)
            assert np.abs(j - jn).max() <= 1e-6 * np.abs(j).max()


class TestJacBisState:
    def test_colocated_equals_mono(self):
        tx = Node(id="t", position=(3.0, 4.0), role="tx")
        rx = Node(id="r", position=(3.0, 4.0), orientation=0.3, role="rx", tx_id="t")
        t = TargetState(position=(60.0, 30.0), velocity=(5.0, 5.0))
        j_bis = geom.jac_state(tx, rx, t, LAM)
        j_mono = geom.jac_state(rx, rx, t, LAM)
        np.testing.assert_allclose(j_bis, j_mono, rtol=1e-12)

    def test_doppler_velocity_entries_velocity_independent(self, rng):
        tx, rx, t, obs = random_pair(rng)
        t2 = TargetState(position=t.position, velocity=(t.velocity[0] + 11.0,
                                                        t.velocity[1] - 3.0))
        j1 = geom.jac_state(tx, rx, t, LAM)
        j2 = geom.jac_state(tx, rx, t2, LAM)
        np.testing.assert_allclose(j1[0, 2:], j2[0, 2:], rtol=1e-14)

    def test_matches_numeric(self, rng):
        for _ in range(20):
            tx, rx, t, obs = random_pair(rng)

            def fmap(z):
                tt = TargetState(position=(z[0], z[1]), velocity=(z[2], z[3]))
                o = geom.bis_observables(tx, rx, tt, LAM)
                return np.array([o.doppler, o.delay, o.doa])

            z0 = np.array([*t.position, *t.velocity])
            j = geom.jac_state(tx, rx, t, LAM)
            jn = jacobian_numeric(fmap, z0)
            assert np.abs(j - jn).max() <= 1e-6 * np.abs(j).max()

    def test_block_equals_stacked_points(self, rng):
        tx, rx, t, _ = random_pair(rng)
        points = rng.uniform(-80, 80, (16, 2))
        block = geom.jac_state(tx, rx, TargetState(position=points, velocity=t.velocity), LAM)
        assert block.shape == (3, 4, 16)
        for i, point in enumerate(points):
            one = geom.jac_state(tx, rx, TargetState(position=point, velocity=t.velocity), LAM)
            assert (block[:, :, i] == one).all()


class TestJacPolarVelocity:
    def test_unit_x_is_identity(self):
        np.testing.assert_allclose(geom.jac_polar_velocity((1.0, 0.0)), np.eye(2), atol=1e-15)

    def test_determinant_is_speed(self, rng):
        for _ in range(10):
            v = rng.uniform(-30, 30, 2)
            assert np.linalg.det(geom.jac_polar_velocity(v)) == pytest.approx(
                math.hypot(*v), rel=1e-12)

    def test_matches_numeric(self, rng):
        for _ in range(10):
            v = rng.uniform(-30, 30, 2)
            if math.hypot(*v) < 1.0:
                continue

            def fmap(sh):
                return sh[0] * np.array([math.cos(sh[1]), math.sin(sh[1])])

            x0 = np.array([math.hypot(*v), math.atan2(v[1], v[0])])
            jn = jacobian_numeric(fmap, x0, abs_step=1e-8)
            assert np.abs(geom.jac_polar_velocity(v) - jn).max() < 1e-8 * max(1.0, x0[0])

    def test_zero_speed_raises(self):
        with pytest.raises(UndefinedHeadingError):
            geom.jac_polar_velocity((0.0, 0.0))
