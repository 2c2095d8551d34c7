import math
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from isacbounds import (
    Node,
    Scenario,
    SystemParams,
    TargetState,
    bounds,
    engine,
    geom,
)
from isacbounds.errors import (
    BoundsError,
    NoInformationError,
    UndefinedHeadingError,
)
from isacbounds.link import efim_diagonal, link_snr

# frozen from the full numeric pipeline (link EFIM -> Schur -> Jacobian ->
# trace) evaluated independently of the closed form under test
PEB_MONO_REFERENCE = 0.16531047718533615   # node (42,0) facing +y, target (70,56)
EFIM_CENTER_REFERENCE = 2137.445398972106   # 4-node shared-budget layout at (42,42)
# moving target on the tx1-rx2 baseline of multistatic3
BASELINE_TARGET = TargetState(position=(42.0, 30.0), velocity=(10.0, 5.0))
# a block of three positions on mono4 for the block forms of the network bounds
BLOCK = np.array([(10.0, 20.0), (40.0, 40.0), (70.0, 30.0)])


def mono_node(pos, orient, node_id="n"):
    return Node(id=node_id, position=pos, orientation=orient, role="monostatic")


def pipeline_peb_mono(p, node, t):
    """Matrix-pipeline PEB: delay/DoA information -> position Jacobian ->
    trace of inverse. Independent of the closed form."""
    doa, r = geom.local_doa(node, t.position)
    from isacbounds.link import LinkGeometry, efim_delay_angle
    e = efim_delay_angle(p, LinkGeometry.monostatic(r, doa), t.rcs,
                         node.power_scale).values
    p_local = geom.global_to_local(t.position, node)
    j = geom.jac_mono_position(p_local)
    info = j.T @ e @ j
    return math.sqrt(np.trace(np.linalg.inv(info)))


def pipeline_peb_bis(p, tx, rx, t):
    from isacbounds.link import LinkGeometry, efim_delay_angle
    obs = geom.bis_observables(tx, rx, t, p.wavelength)
    r_rx = math.hypot(t.position[0] - rx.position[0], t.position[1] - rx.position[1])
    g = LinkGeometry(kind="bistatic", range_tx=obs.bistatic_range - r_rx,
                     range_rx=r_rx, doa_local=obs.doa)
    e = efim_delay_angle(p, g, t.rcs, tx.power_scale).values
    j_fwd = np.linalg.inv(geom.jac_bis_position(obs))
    info = j_fwd.T @ e @ j_fwd
    return math.sqrt(np.trace(np.linalg.inv(info)))


def random_scenario(rng, n_nodes=3, policy="fixed_per_node"):
    """Random all-monostatic scenario with every node seeing the target."""
    while True:
        target = TargetState(position=tuple(rng.uniform(-40, 40, 2)),
                             velocity=tuple(rng.uniform(-25, 25, 2)))
        nodes = []
        for i in range(n_nodes):
            pos = tuple(rng.uniform(-80, 80, 2))
            if math.hypot(pos[0] - target.position[0], pos[1] - target.position[1]) < 5:
                break
            bearing = math.atan2(target.position[1] - pos[1], target.position[0] - pos[0])
            orient = bearing + float(rng.uniform(-1.0, 1.0))
            nodes.append(mono_node(pos, orient, f"n{i}"))
        else:
            return Scenario(params=SystemParams(), nodes=tuple(nodes),
                            power_policy=policy), target


class TestPebMonoClosed:
    def test_equals_matrix_pipeline(self, params, rng):
        for _ in range(20):
            node = mono_node(tuple(rng.uniform(-60, 60, 2)),
                             float(rng.uniform(-np.pi, np.pi)))
            t = TargetState(position=tuple(rng.uniform(-60, 60, 2)))
            try:
                closed = bounds.peb_mono_closed(params, node, t)
            except geom.SingularGeometryError:
                continue
            assert closed == pytest.approx(pipeline_peb_mono(params, node, t), rel=1e-9)

    def test_reference_value(self, params):
        node = mono_node((42.0, 0.0), math.pi / 2, "bs1")
        t = TargetState(position=(70.0, 56.0))
        assert bounds.peb_mono_closed(params, node, t) == pytest.approx(
            PEB_MONO_REFERENCE, rel=1e-9)

    def test_rotation_changes_only_angle_term(self, params):
        # with the range fixed, the position CRLB is range_term + angle_term
        # / cos^2(doa); rotating the node orientation moves only the latter
        r = 60.0
        t = TargetState(position=(r, 0.0))
        crlb0 = bounds.peb_mono_closed(params, mono_node((0.0, 0.0), 0.0), t) ** 2
        phi = 0.7
        crlb1 = bounds.peb_mono_closed(params, mono_node((0.0, 0.0), phi), t) ** 2
        k = math.floor(0.2 * 3168)
        from isacbounds.link import LinkGeometry, link_snr
        snr = link_snr(params, LinkGeometry.monostatic(r, 0.0), 1.0)["snr"]
        pref = 6.0 / (math.pi**2 * k * 112 * 16 * snr)
        angle_term = pref * r**2 / (16**2 - 1)
        assert crlb1 - crlb0 == pytest.approx(
            angle_term * (1.0 / math.cos(phi) ** 2 - 1.0), rel=1e-9)

    def test_out_of_field_raises(self, params):
        node = mono_node((0.0, 0.0), 0.0)
        with pytest.raises(geom.OutOfFieldError):
            bounds.peb_mono_closed(params, node, TargetState(position=(-10.0, 1.0)))


class TestPebBisClosed:
    def test_colocated_pair_equals_monostatic(self, params, rng):
        for _ in range(20):
            pos = tuple(rng.uniform(-60, 60, 2))
            orient = float(rng.uniform(-np.pi, np.pi))
            t = TargetState(position=tuple(rng.uniform(-60, 60, 2)))
            tx = Node(id="t", position=pos, orientation=orient, role="tx")
            rx = Node(id="r", position=pos, orientation=orient, role="rx", tx_id="t")
            try:
                mono = bounds.peb_mono_closed(params, mono_node(pos, orient), t)
            except geom.SingularGeometryError:
                continue
            bis = bounds.peb_bis_closed(params, tx, rx, t)
            assert bis == pytest.approx(mono, rel=1e-6)

    def test_approaching_baseline_diverges(self, params):
        tx = Node(id="t", position=(0.0, 0.0), role="tx")
        rx = Node(id="r", position=(40.0, 0.0), orientation=math.pi,
                  role="rx", tx_id="t")
        pebs = [bounds.peb_bis_closed(params, tx, rx,
                                      TargetState(position=(20.0, y)))
                for y in (4.0, 1.0, 0.25, 0.05)]
        assert all(a < b for a, b in zip(pebs, pebs[1:]))
        assert bounds.peb_bis_closed(
            params, tx, rx, TargetState(position=(20.0, 0.0))) == math.inf

    def test_equals_matrix_pipeline(self, params, rng):
        done = 0
        while done < 20:
            tx = Node(id="t", position=tuple(rng.uniform(-60, 60, 2)), role="tx")
            rx = Node(id="r", position=tuple(rng.uniform(-60, 60, 2)),
                      orientation=float(rng.uniform(-np.pi, np.pi)), role="rx", tx_id="t")
            t = TargetState(position=tuple(rng.uniform(-60, 60, 2)))
            try:
                obs = geom.bis_observables(tx, rx, t, params.wavelength)
                if obs.bistatic_range - obs.baseline * math.cos(obs.look_angle) \
                        < 0.05 * obs.bistatic_range:
                    continue
                closed = bounds.peb_bis_closed(params, tx, rx, t)
            except geom.SingularGeometryError:
                continue
            assert closed == pytest.approx(pipeline_peb_bis(params, tx, rx, t), rel=1e-9)
            done += 1


class TestSingleRxAntenna:
    """One rx antenna measures no DoA: the closed forms return +inf without
    a numpy warning, as the network bound of the same single link does."""

    def test_monostatic(self, params, recwarn):
        p = replace(params, n_rx_ant=1)
        node = mono_node((0.0, 0.0), 0.0)
        t = TargetState(position=(30.0, 10.0))
        assert bounds.peb_mono_closed(p, node, t) == math.inf
        assert bounds.network_peb(Scenario(params=p, nodes=(node,)), t) == math.inf
        assert not recwarn.list

    def test_bistatic(self, params, recwarn):
        p = replace(params, n_rx_ant=1)
        tx = Node(id="t", position=(0.0, 0.0), role="tx")
        rx = Node(id="r", position=(40.0, 0.0), orientation=math.pi / 2, role="rx", tx_id="t")
        t = TargetState(position=(20.0, 30.0))
        assert bounds.peb_bis_closed(p, tx, rx, t) == math.inf
        assert bounds.network_peb(Scenario(params=p, nodes=(tx, rx)), t) == math.inf
        assert not recwarn.list

    def test_geometry_errors_still_raise(self, params):
        p = replace(params, n_rx_ant=1)
        with pytest.raises(geom.OutOfFieldError):
            bounds.peb_mono_closed(p, mono_node((0.0, 0.0), 0.0), TargetState(position=(-10.0, 1.0)))


class TestNetworkPositionEfim:
    def test_single_node_matches_closed_form(self, params):
        node = mono_node((42.0, 0.0), math.pi / 2, "bs1")
        s = Scenario(params=params, nodes=(node,))
        t = TargetState(position=(70.0, 56.0))
        peb = bounds.network_peb(s, t)
        assert peb == pytest.approx(bounds.peb_mono_closed(params, node, t), rel=1e-12)

    def test_colocated_nodes_double_information(self, params):
        n1 = mono_node((0.0, 0.0), 0.0, "a")
        n2 = mono_node((0.0, 0.0), 0.0, "b")
        t = TargetState(position=(50.0, 10.0))
        e1 = bounds.network_position_efim(Scenario(params=params, nodes=(n1,)), t)
        e2 = bounds.network_position_efim(Scenario(params=params, nodes=(n1, n2)), t)
        np.testing.assert_allclose(e2.values, 2.0 * e1.values, rtol=1e-12)
        peb1 = bounds.network_peb(Scenario(params=params, nodes=(n1,)), t)
        peb2 = bounds.network_peb(Scenario(params=params, nodes=(n1, n2)), t)
        assert peb2 == pytest.approx(peb1 / math.sqrt(2.0), rel=1e-12)

    def test_reference_four_node_efim(self, mono4):
        s = engine.normalize_power(mono4)
        e = bounds.network_position_efim(s, TargetState(position=(42.0, 42.0)))
        np.testing.assert_allclose(
            e.values, EFIM_CENTER_REFERENCE * np.eye(2), rtol=1e-9, atol=1e-9)

    def test_position_info_matches_jacobian_pipeline(self, params, rng):
        # the one delay/DoA-row formula of both link kinds against the
        # J^T E J routes in the rx's local frame (the forward position
        # Jacobian of a co-located node, the inverted ellipse Jacobian of a
        # pair), rotated to the global frame
        from isacbounds.link import LinkGeometry, efim_delay_angle
        checked = {"monostatic": 0, "bistatic": 0}
        while min(checked.values()) < 10:
            rx = mono_node(tuple(rng.uniform(-60, 60, 2)), float(rng.uniform(-np.pi, np.pi)))
            tx = Node(id="t", position=tuple(rng.uniform(-60, 60, 2)), role="tx")
            t = TargetState(position=tuple(rng.uniform(-60, 60, 2)))
            try:
                doa, r = geom.local_doa(rx, t.position)
                obs = geom.bis_observables(tx, rx, t, params.wavelength)
            except geom.SingularGeometryError:
                continue
            p_local = geom.global_to_local(t.position, rx)
            rot = geom.jac_rotation(rx.orientation)
            for kind in checked:
                if kind == "monostatic":
                    link = bounds.SensingLink("n", rx, rx, kind, 1.0)
                    g = LinkGeometry.monostatic(r, doa)
                    j = geom.jac_mono_position(p_local)
                else:
                    link = bounds.SensingLink("n", tx, rx, kind, 1.0)
                    g = LinkGeometry(kind=kind, range_tx=obs.bistatic_range - r,
                                     range_rx=r, doa_local=doa)
                    j = np.linalg.inv(geom.jac_bis_position(obs))
                lc = bounds.link_constants(link, t, params)
                if lc.status[0] != geom.OK:
                    continue
                e = efim_delay_angle(params, g, 1.0).values
                pipeline = rot.T @ (j.T @ e @ j) @ rot
                xx, xy, yy = (v[0] for v in bounds._position_info(params, lc))
                np.testing.assert_allclose(np.array([[xx, xy], [xy, yy]]), pipeline, rtol=1e-10)
                checked[kind] += 1

    def test_out_of_field_link_contributes_zero_with_flag(self, params):
        n1 = mono_node((0.0, 0.0), 0.0, "a")       # sees the target
        n2 = mono_node((100.0, 0.0), 0.0, "b")     # target behind its array
        t = TargetState(position=(50.0, 5.0))
        report = bounds.evaluate_bounds(Scenario(params=params, nodes=(n1, n2)), t)
        assert any("b" in f and "out-of-field" in f for f in report.flags)
        only = bounds.network_position_efim(Scenario(params=params, nodes=(n1,)), t)
        np.testing.assert_allclose(report.position_efim, only.values, rtol=1e-12)

    def test_no_information_raises(self, params):
        n = mono_node((100.0, 0.0), 0.0, "b")
        with pytest.raises(NoInformationError):
            bounds.network_position_efim(
                Scenario(params=params, nodes=(n,)), TargetState(position=(50.0, 5.0)))

    def test_block_raises_naming_evaluate_bounds(self, mono4):
        with pytest.raises(BoundsError, match="evaluate_bounds"):
            bounds.network_position_efim(mono4, TargetState(position=BLOCK))

    def test_accurate_beside_a_baseline(self, multistatic3):
        # tx1 (42, 0) and rx2 (42, 84) span the line x = 42. Every used
        # link's table entries at cells within 2 m of it against a 50-digit
        # evaluation of the same delay and DoA rows, with D_tau and D_theta
        # the float efim_diagonal: within 1e-13 of |xx| + |yy|
        s = engine.normalize_power(multistatic3)
        xs = np.round(np.arange(40.0, 44.0001, 0.1), 6)
        ys = np.round(np.arange(0.0, 84.0001, 0.3), 6)
        cells = np.stack(np.meshgrid(xs, ys), axis=-1).reshape(-1, 2)
        t = TargetState(position=cells)
        table = bounds._link_rows(s.params, bounds.sensing_links(s), t)
        assert table.used.sum() > 2 * len(cells)
        c = Decimal(geom.C)
        with localcontext() as ctx:
            ctx.prec = 50
            for link, used, info in zip(table.links, table.used, table.position):
                lc = bounds.link_constants(link, t, s.params)
                _, d_tau, d_theta = efim_diagonal(s.params, lc.snr, lc.geometry.doa_local)
                for k in np.flatnonzero(used).tolist():
                    px, py = (Decimal(v) for v in cells[k].tolist())
                    xt, yt = px - Decimal(link.tx.position[0]), py - Decimal(link.tx.position[1])
                    xr, yr = px - Decimal(link.rx.position[0]), py - Decimal(link.rx.position[1])
                    r_tx, r2_rx = (xt * xt + yt * yt).sqrt(), xr * xr + yr * yr
                    r_rx = r2_rx.sqrt()
                    ux, uy = (xt / r_tx + xr / r_rx) / c, (yt / r_tx + yr / r_rx) / c
                    bx, by = -yr / r2_rx, xr / r2_rx
                    dt, dth = Decimal(float(d_tau[k])), Decimal(float(d_theta[k]))
                    want = (dt * ux * ux + dth * bx * bx, dt * ux * uy + dth * bx * by,
                            dt * uy * uy + dth * by * by)
                    err = max(abs(Decimal(g) - w) for g, w in zip(info[:, k].tolist(), want))
                    assert err <= Decimal("1e-13") * (abs(want[0]) + abs(want[2])), \
                        (link.node_id, cells[k])


class TestNetworkPeb:
    def test_single_bistatic_pair_finite(self, params):
        tx = Node(id="t", position=(0.0, 0.0), role="tx")
        rx = Node(id="r", position=(40.0, 0.0), orientation=math.pi / 2,
                  role="rx", tx_id="t")
        s = Scenario(params=params, nodes=(tx, rx))
        peb = bounds.network_peb(s, TargetState(position=(20.0, 25.0)))
        assert math.isfinite(peb) and peb > 0.0

    def test_adding_a_node_never_hurts(self, rng):
        for _ in range(10):
            s, t = random_scenario(rng, n_nodes=3)
            extra = mono_node(tuple(rng.uniform(-80, 80, 2)),
                              float(rng.uniform(-np.pi, np.pi)), "extra")
            bigger = Scenario(params=s.params, nodes=s.nodes + (extra,))
            try:
                peb_small = bounds.network_peb(s, t)
                peb_big = bounds.network_peb(bigger, t)
            except NoInformationError:
                continue
            assert peb_big <= peb_small * (1.0 + 1e-12)

    def test_block_gives_one_bound_per_position(self, mono4):
        t = TargetState(position=BLOCK)
        peb = bounds.network_peb(mono4, t)
        assert peb.shape == (3,)
        assert np.array_equal(peb, bounds.evaluate_bounds(mono4, t).peb)
        for k, xy in enumerate(BLOCK):
            one = bounds.network_peb(mono4, TargetState(position=tuple(xy)))
            assert isinstance(one, float)
            assert peb[k] == pytest.approx(one, rel=1e-12)


class TestNodeVelocityEfim:
    def test_rank_one_exactly(self, params, rng):
        for _ in range(20):
            s, t = random_scenario(rng, n_nodes=1)
            link = bounds.sensing_links(s)[0]
            v = bounds.node_velocity_efim(link, t, params)
            det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
            assert abs(det) <= 1e-12 * max(v[0, 0] * v[1, 1], 1e-300)

    def test_bistatic_colocated_reduces_to_monostatic(self, params, rng):
        for _ in range(10):
            pos = tuple(rng.uniform(-50, 50, 2))
            orient = float(rng.uniform(-np.pi, np.pi))
            t = TargetState(position=tuple(rng.uniform(-50, 50, 2)),
                            velocity=tuple(rng.uniform(-25, 25, 2)))
            mono = mono_node(pos, orient, "m")
            tx = Node(id="t", position=pos, orientation=orient, role="tx")
            rx = Node(id="r", position=pos, orientation=orient, role="rx", tx_id="t")
            lm = bounds.SensingLink("m", mono, mono, "monostatic", 1.0)
            lb = bounds.SensingLink("r", tx, rx, "bistatic", 1.0)
            try:
                vm = bounds.node_velocity_efim(lm, t, params)
            except geom.SingularGeometryError:
                continue
            vb = bounds.node_velocity_efim(lb, t, params)
            np.testing.assert_allclose(vb, vm, rtol=1e-9)

    def test_matches_state_information_schur(self, params, rng):
        # independent route: 4x4 state information J^T diag(efim) J, position
        # removed by a numeric Schur complement
        def state_info(link, t):
            g = bounds.link_geometry(link, t)
            snr = link_snr(params, g, t.rcs, link.power_scale)["snr"]
            j = geom.jac_state(link.tx, link.rx, t, params.wavelength)
            return j.T @ np.diag(efim_diagonal(params, snr, g.doa_local)) @ j

        done = 0
        while done < 20:
            kind = "monostatic" if rng.random() < 0.5 else "bistatic"
            if kind == "monostatic":
                s, t = random_scenario(rng, n_nodes=1)
                link = bounds.sensing_links(s)[0]
            else:
                tx = Node(id="t", position=tuple(rng.uniform(-60, 60, 2)), role="tx")
                rx = Node(id="r", position=tuple(rng.uniform(-60, 60, 2)),
                          orientation=float(rng.uniform(-np.pi, np.pi)),
                          role="rx", tx_id="t")
                t = TargetState(position=tuple(rng.uniform(-60, 60, 2)),
                                velocity=tuple(rng.uniform(-25, 25, 2)))
                link = bounds.SensingLink("r", tx, rx, "bistatic", 1.0)
            try:
                closed = bounds.node_velocity_efim(link, t, params)
                g4 = state_info(link, t)
            except geom.SingularGeometryError:
                continue
            ip, ipv, iv = g4[:2, :2], g4[:2, 2:], g4[2:, 2:]
            schur = iv - ipv.T @ np.linalg.solve(ip, ipv)
            assert np.abs(closed - schur).max() <= 1e-6 * np.abs(schur).max()
            done += 1


class TestNetworkVelocityBounds:
    def test_collinear_geometry_unbounded(self, params):
        # both nodes see the same radial direction: rank-one pieces align
        n1 = mono_node((0.0, 0.0), 0.0, "a")
        n2 = mono_node((10.0, 0.0), 0.0, "b")
        t = TargetState(position=(60.0, 0.0), velocity=(5.0, 5.0))
        res = bounds.network_velocity_bounds(
            Scenario(params=params, nodes=(n1, n2)), t)
        assert res["veb"] == math.inf
        assert "velocity-info-singular" in res["flags"]

    def test_right_angle_symmetric_isotropic(self, params):
        # two nodes at equal range, orthogonal bearings: the speed bound is
        # heading-independent up to the Doppler-position coupling, whose
        # share of each rank-one coefficient scales with (speed * range)^2;
        # probe at low speed where the symmetry is exact to rounding
        n1 = mono_node((-50.0, 0.0), 0.0, "a")
        n2 = mono_node((0.0, -50.0), math.pi / 2, "b")
        s = Scenario(params=params, nodes=(n1, n2))
        vebs = []
        for heading in np.linspace(0.0, 2 * np.pi, 9)[:-1]:
            v = (1e-3 * math.cos(heading), 1e-3 * math.sin(heading))
            res = bounds.network_velocity_bounds(
                s, TargetState(position=(0.0, 0.0), velocity=v))
            vebs.append(res["veb"])
        assert max(vebs) == pytest.approx(min(vebs), rel=1e-9)
        # at driving speed the anisotropy stays a second-order effect
        vebs = []
        for heading in np.linspace(0.0, 2 * np.pi, 9)[:-1]:
            v = (22.0 * math.cos(heading), 22.0 * math.sin(heading))
            res = bounds.network_velocity_bounds(
                s, TargetState(position=(0.0, 0.0), velocity=v))
            vebs.append(res["veb"])
        assert max(vebs) <= 1.1 * min(vebs)

    def test_closed_form_equals_polar_pipeline(self, params, rng):
        for _ in range(10):
            s, t = random_scenario(rng, n_nodes=3)
            try:
                res = bounds.network_velocity_bounds(s, t)
            except NoInformationError:
                continue
            if not math.isfinite(res["veb"]):
                continue
            j = geom.jac_polar_velocity(t.velocity)
            m = j.T @ res["velocity_efim"] @ j
            crlb_speed = np.linalg.inv(m)[0, 0]
            assert res["veb"] ** 2 == pytest.approx(crlb_speed, rel=1e-9)

    def test_block_gives_one_bound_per_position(self, mono4):
        # bs1 and bs2 of mono4 do not see (0, 0): that position is flagged
        block = np.vstack([BLOCK, [(0.0, 0.0)]])
        res = bounds.network_velocity_bounds(
            mono4, TargetState(position=block, velocity=(10.0, 5.0)))
        assert res["veb"].shape == res["crlb_heading"].shape == (4,)
        assert res["velocity_efim"].shape == (2, 2, 4) and len(res["flags"]) == 4
        assert res["flags"][3] == ("bs1: out-of-field", "bs2: out-of-field")
        for k, xy in enumerate(block):
            one = bounds.network_velocity_bounds(
                mono4, TargetState(position=tuple(xy), velocity=(10.0, 5.0)))
            assert res["veb"][k] == pytest.approx(one["veb"], rel=1e-12)
            assert res["crlb_heading"][k] == pytest.approx(one["crlb_heading"], rel=1e-12)
            np.testing.assert_allclose(res["velocity_efim"][:, :, k], one["velocity_efim"],
                                       rtol=1e-12)
            assert res["flags"][k] == one["flags"]

    def test_zero_speed_raises(self, params):
        n1 = mono_node((0.0, 0.0), 0.0, "a")
        with pytest.raises(UndefinedHeadingError):
            bounds.network_velocity_bounds(
                Scenario(params=params, nodes=(n1,)),
                TargetState(position=(10.0, 0.0)))


class TestNetworkVelocityBoundsExact:
    def test_never_above_approximate(self, rng):
        checked = 0
        while checked < 15:
            s, t = random_scenario(rng, n_nodes=int(rng.integers(2, 5)))
            try:
                approx = bounds.network_velocity_bounds(s, t)["veb"]
                exact = bounds.network_velocity_bounds_exact(s, t)["veb_exact"]
            except NoInformationError:
                continue
            if not math.isfinite(approx):
                continue
            assert exact <= approx * (1.0 + 1e-9)
            checked += 1

    def test_single_link_unbounded(self, params):
        s = Scenario(params=params, nodes=(mono_node((0.0, 0.0), 0.0, "a"),))
        t = TargetState(position=(50.0, 5.0), velocity=(10.0, 3.0))
        res = bounds.network_velocity_bounds_exact(s, t)
        assert res["veb_exact"] == math.inf

    def test_adding_a_link_never_hurts(self, rng):
        checked = 0
        while checked < 10:
            s, t = random_scenario(rng, n_nodes=4)
            smaller = Scenario(params=s.params, nodes=s.nodes[:3])
            try:
                e_small = bounds.network_velocity_bounds_exact(smaller, t)["veb_exact"]
                e_big = bounds.network_velocity_bounds_exact(s, t)["veb_exact"]
            except NoInformationError:
                continue
            if not math.isfinite(e_small):
                continue
            assert e_big <= e_small * (1.0 + 1e-12)
            checked += 1

    def test_keeps_link_on_baseline(self, multistatic3):
        # the 4x4 form has no 1/guard, so rx2 (target on its baseline) stays
        s = engine.normalize_power(multistatic3)
        res = bounds.network_velocity_bounds_exact(s, BASELINE_TARGET)
        assert res["veb_exact"] == pytest.approx(0.052209077801652834, rel=1e-12)
        assert res["flags"] == ()

    def test_large_array_tightens_gap(self, mono4):
        s = engine.normalize_power(
            replace(mono4, params=replace(mono4.params, n_rx_ant=100)))
        t = TargetState(position=(70.0, 30.0),
                        velocity=(22.0 * math.cos(1.0), 22.0 * math.sin(1.0)))
        approx = bounds.network_velocity_bounds(s, t)["veb"]
        exact = bounds.network_velocity_bounds_exact(s, t)["veb_exact"]
        assert abs(approx - exact) / exact <= 0.05

    def test_roundoff_axis_is_singular(self, params):
        # both links' Doppler rows have a zero vy entry in exact arithmetic:
        # the Schur complement is diag(1.6e9, 2.5e-27) up to roundoff, and
        # only a frame-free test calls that singular
        s = Scenario(params=params, power_policy="fixed_per_node", nodes=(
            Node(id="b", position=(4.0, 0.0), role="tx"),
            Node(id="a", position=(6.0, 5.0), orientation=3.0, role="rx", tx_id="b"),
            mono_node((1.0, 2.0), 2.0, "c")))
        t = TargetState(position=(0.0, 2.0), velocity=(math.cos(1.0), math.sin(1.0)))
        res = bounds.network_velocity_bounds_exact(s, t)
        assert res["veb_exact"] == math.inf
        assert res["flags"] == ("velocity-info-singular",)


class TestSingular:
    def test_decision_does_not_depend_on_the_frame(self):
        # diag(1, 1e-20) is rank one up to roundoff, diag(1, 1e-9) is not
        for angle in np.linspace(0.0, math.pi, 37):
            rot = geom.jac_rotation(angle)
            for small, singular in ((1e-20, True), (1e-9, False)):
                m = rot @ np.diag([1.0, small]) @ rot.T
                det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
                assert bounds._singular(det, m[0, 0], m[1, 1]) == singular


class TestInvariances:
    def test_rotation_equivariance(self, rng):
        for _ in range(5):
            s, t = random_scenario(rng, n_nodes=3)
            try:
                peb0 = bounds.network_peb(s, t)
                veb0 = bounds.network_velocity_bounds(s, t)["veb"]
            except NoInformationError:
                continue
            angle = float(rng.uniform(-np.pi, np.pi))
            rot = geom.jac_rotation(angle).T  # active rotation of the plane

            def spin(p):
                return tuple(rot @ np.asarray(p))

            nodes = tuple(replace(n, position=spin(n.position),
                                  orientation=n.orientation + angle)
                          for n in s.nodes)
            s2 = Scenario(params=s.params, nodes=nodes)
            t2 = TargetState(position=spin(t.position), velocity=spin(t.velocity))
            assert bounds.network_peb(s2, t2) == pytest.approx(peb0, rel=1e-9)
            if math.isfinite(veb0):
                assert bounds.network_velocity_bounds(s2, t2)["veb"] == \
                    pytest.approx(veb0, rel=1e-9)

    def test_quadrupled_power_halves_peb(self, rng):
        s, t = random_scenario(rng, n_nodes=2)
        peb1 = bounds.network_peb(s, t)
        s4 = replace(s, params=replace(s.params, total_power=s.params.total_power * 4))
        assert bounds.network_peb(s4, t) == pytest.approx(peb1 / 2.0, rel=1e-12)

    def test_phase_invariance(self, rng):
        s, t = random_scenario(rng, n_nodes=3)
        t_shifted = replace(t, phase=2.1)
        r1 = bounds.evaluate_bounds(s, t)
        r2 = bounds.evaluate_bounds(s, t_shifted)
        assert r1.peb == r2.peb
        assert r1.veb == r2.veb
        np.testing.assert_array_equal(r1.position_efim, r2.position_efim)

    def test_heading_sweep_matches_scalar_path(self, rng):
        s, t = random_scenario(rng, n_nodes=3)
        headings = np.linspace(0.0, 2 * np.pi, 7)[:-1]
        speed = 19.0
        res = bounds.heading_velocity_metrics(s, t.position, speed, headings)
        for i, h in enumerate(headings):
            ts = TargetState(position=t.position,
                             velocity=(speed * math.cos(h), speed * math.sin(h)))
            ref = bounds.network_velocity_bounds(s, ts)
            if math.isinf(ref["veb"]):
                assert bool(res["singular"][i])
            else:
                assert res["veb"][i] == pytest.approx(ref["veb"], rel=1e-12)
                assert res["crlb_heading"][i] == pytest.approx(
                    ref["crlb_heading"], rel=1e-12)


class TestBoundReport:
    def test_report_fields(self, mono4):
        s = engine.normalize_power(mono4)
        t = TargetState(position=(30.0, 30.0), velocity=(10.0, 5.0))
        report = bounds.evaluate_bounds(s, t)
        assert report.peb > 0 and report.veb > 0
        assert report.position_efim.shape == (2, 2)
        assert report.velocity_efim.shape == (2, 2)
        assert len(report.per_node) == 4
        for entry in report.per_node:
            assert entry["snr_db"] is not None
            assert entry["position_info"].shape == (2, 2)

    def test_baseline_link_flagged_once(self, multistatic3):
        report = bounds.evaluate_bounds(engine.normalize_power(multistatic3), BASELINE_TARGET)
        assert len(report.flags) == 1
        assert report.flags[0].startswith("rx2:") and "baseline" in report.flags[0]

    def test_per_node_keeps_dropped_links(self, multistatic3):
        report = bounds.evaluate_bounds(engine.normalize_power(multistatic3), BASELINE_TARGET)
        by_id = {entry["node_id"]: entry for entry in report.per_node}
        assert sorted(by_id) == ["rx1", "rx2", "rx3"]
        assert by_id["rx2"]["position_info"] is None
        assert by_id["rx2"]["velocity_info"] is None
        assert by_id["rx1"]["position_info"] is not None

    def test_target_a_hair_off_an_rx_is_scored(self):
        facing = -math.pi / 2  # both arrays look down at the target
        s = Scenario(params=SystemParams(), nodes=(
            Node(id="t", position=(0.0, 1.0), orientation=facing, role="tx"),
            Node(id="r", position=(0.0, 1e-45), orientation=facing, role="rx", tx_id="t")))
        value, _ = engine.evaluate_metric(s, (0.0, 0.0), "peb", engine.McConfig())
        assert value > 0.0  # a bound or +inf, not an exception or nan

    def test_static_target_skips_velocity(self, mono4):
        report = bounds.evaluate_bounds(engine.normalize_power(mono4),
                                        TargetState(position=(30.0, 30.0)))
        assert report.veb is None and report.crlb_heading is None
