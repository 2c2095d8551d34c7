"""Self-check battery wiring the closed forms against the numeric oracle.

Run through `isac-bounds validate`; every check reports its worst observed
error against a fixed tolerance. All draws are seeded, so the battery is
deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, geom, link, oracle
from .errors import ScenarioFormatError
from .model import Node, SystemParams, TargetState


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_error <= self.tolerance


ZERO_PATTERN = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 4), (2, 4), (3, 4)]


def _fim_errors(params, g, rcs) -> tuple[float, float]:
    closed = link.fim_single_link(params, g, rcs).values
    numeric = oracle.fim_numeric(oracle.MeanSignalModel.from_link(params, g, rcs)).values
    scale = np.linalg.norm(closed)
    rel = 0.0
    for i in range(5):
        for j in range(5):
            if (i, j) in ZERO_PATTERN or (j, i) in ZERO_PATTERN:
                rel = max(rel, abs(numeric[i, j]) / scale)
            else:
                rel = max(rel, abs(numeric[i, j] - closed[i, j]) / abs(closed[i, j]))
    zero_abs = max(abs(numeric[i, j]) for i, j in ZERO_PATTERN) / scale
    return rel, zero_abs


def check_fim_oracle(rng, draws: int) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        params, g, rcs = oracle.random_link_case(rng)
        rel, _ = _fim_errors(params, g, rcs)
        worst = max(worst, rel)
    return CheckResult("fim closed form vs numeric oracle", worst, 1e-5)


def check_crlb_inversion(rng, draws: int) -> CheckResult:
    worst = 0.0
    keys = ("crlb_alpha", "crlb_phi", "crlb_fd", "crlb_tau", "crlb_theta")
    for _ in range(draws):
        params, g, rcs = oracle.random_link_case(rng)
        crlbs = link.scalar_crlbs(params, g, rcs)
        inv = link.fim_single_link(params, g, rcs).inverse()
        for i, key in enumerate(keys):
            worst = max(worst, abs(crlbs[key] - inv[i, i]) / inv[i, i])
    return CheckResult("scalar crlbs vs inverted fim", worst, 1e-9)


def check_efim_consistency(rng, draws: int) -> CheckResult:
    worst = 0.0
    for _ in range(draws):
        params, g, rcs = oracle.random_link_case(rng)
        fm = link.fim_single_link(params, g, rcs)
        inv = fm.inverse()
        for keep in (("delay", "aoa"), ("doppler", "delay", "aoa")):
            idx = [fm.index(label) for label in keep]
            kept_inv = inv[np.ix_(idx, idx)]
            efim_inv = np.linalg.inv(link.schur_complement(fm, keep).values)
            worst = max(worst, np.abs(kept_inv - efim_inv).max() / np.abs(kept_inv).max())
    return CheckResult("efim inverse vs kept block of full inverse", worst, 1e-9)


def _random_nodes(rng) -> tuple[Node, Node, TargetState]:
    tx = Node(id="tx", position=tuple(rng.uniform(-80, 80, 2)),
              orientation=float(rng.uniform(-np.pi, np.pi)), role="monostatic")
    rx = Node(id="rx", position=tuple(rng.uniform(-80, 80, 2)),
              orientation=float(rng.uniform(-np.pi, np.pi)), role="monostatic")
    t = TargetState(position=tuple(rng.uniform(-80, 80, 2)),
                    velocity=tuple(rng.uniform(-30, 30, 2)))
    return tx, rx, t


def check_jacobians(rng, points: int) -> CheckResult:
    params = SystemParams()
    lam = params.wavelength
    worst = 0.0
    n_done = 0
    while n_done < points:
        tx, rx, t = _random_nodes(rng)
        try:
            geom.local_doa(rx, t.position)
            obs = geom.bis_observables(tx, rx, t, lam)
        except geom.SingularGeometryError:
            continue
        if abs(obs.doa) > 1.3:
            continue
        guard = obs.bistatic_range - obs.baseline * math.cos(obs.look_angle)
        if guard < 0.05 * obs.bistatic_range:
            continue

        def rel(analytic, num):
            return np.abs(analytic - num).max() / max(np.abs(analytic).max(), 1e-30)

        p_local = geom.global_to_local(t.position, rx)

        def mono_map(p):
            r = math.hypot(p[0], p[1])
            return np.array([2.0 * r / geom.C, math.atan2(p[1], p[0])])

        worst = max(worst, rel(geom.jac_mono_position(p_local),
                               oracle.jacobian_numeric(mono_map, p_local)))

        def bis_inverse_map(tau_theta):
            rbar = tau_theta[0] * geom.C
            r_rx = geom.bistatic_range_to_distance(
                rbar, obs.baseline, tau_theta[1] + obs.theta_shift)
            return r_rx * np.array([math.cos(tau_theta[1]), math.sin(tau_theta[1])])

        x0 = np.array([obs.delay, obs.doa])
        worst = max(worst, rel(geom.jac_bis_position(obs),
                               oracle.jacobian_numeric(bis_inverse_map, x0,
                                                       abs_step=(1e-12, 1e-8))))

        z0 = np.array([*t.position, *t.velocity])
        for source in (rx, tx):  # a co-located node, then the separated pair

            def state_map(z, source=source):
                tt = TargetState(position=(z[0], z[1]), velocity=(z[2], z[3]))
                o = (geom.mono_observables(rx, tt, lam) if source is rx
                     else geom.bis_observables(tx, rx, tt, lam))
                return np.array([o.doppler, o.delay, o.doa])

            worst = max(worst, rel(geom.jac_state(source, rx, t, lam),
                                   oracle.jacobian_numeric(state_map, z0)))

        angle = float(rng.uniform(-np.pi, np.pi))
        worst = max(worst, rel(geom.jac_rotation(angle),
                               oracle.jacobian_numeric(
                                   lambda p: geom.jac_rotation(angle) @ p,
                                   np.array(t.position))))

        def polar_map(sp_hd):
            return sp_hd[0] * np.array([math.cos(sp_hd[1]), math.sin(sp_hd[1])])

        worst = max(worst, rel(geom.jac_polar_velocity(t.velocity),
                               oracle.jacobian_numeric(
                                   polar_map, np.array([t.speed, t.heading]),
                                   abs_step=1e-8)))
        n_done += 1
    return CheckResult("analytic jacobians vs central differences", worst, 1e-6)


def check_inverse_function_product(rng, points: int) -> CheckResult:
    params = SystemParams()
    lam = params.wavelength
    worst = 0.0
    n_done = 0
    while n_done < points:
        tx, rx, t = _random_nodes(rng)
        try:
            obs = geom.bis_observables(tx, rx, t, lam)
        except geom.SingularGeometryError:
            continue
        if abs(obs.doa) > 1.3:
            continue
        guard = obs.bistatic_range - obs.baseline * math.cos(obs.look_angle)
        if guard < 0.05 * obs.bistatic_range:
            continue

        def forward_map(p_local):
            p_global = (np.array(rx.position)
                        + geom.jac_rotation(rx.orientation).T @ p_local)
            r_tx = np.hypot(*(p_global - np.array(tx.position)))
            r_rx = np.hypot(*p_local)
            return np.array([(r_tx + r_rx) / geom.C, math.atan2(p_local[1], p_local[0])])

        p_local = geom.global_to_local(t.position, rx)
        j_fwd = oracle.jacobian_numeric(forward_map, p_local)
        prod = geom.jac_bis_position(obs) @ j_fwd
        worst = max(worst, np.abs(prod - np.eye(2)).max())
        n_done += 1
    return CheckResult("bistatic inverse-function product vs identity", worst, 1e-6)


def check_degeneracy(rng, draws: int) -> CheckResult:
    params = SystemParams()
    worst = 0.0
    for _ in range(draws):
        pos = tuple(rng.uniform(-60, 60, 2))
        orient = float(rng.uniform(-np.pi, np.pi))
        mono = Node(id="m", position=pos, orientation=orient, role="monostatic")
        tx = Node(id="t", position=pos, orientation=orient, role="tx")
        rx = Node(id="r", position=pos, orientation=orient, role="rx", tx_id="t")
        t = TargetState(position=tuple(rng.uniform(-60, 60, 2)),
                        velocity=tuple(rng.uniform(-30, 30, 2)))
        try:
            peb_m = bounds.peb_mono_closed(params, mono, t)
        except geom.SingularGeometryError:
            continue
        peb_b = bounds.peb_bis_closed(params, tx, rx, t)
        worst = max(worst, abs(peb_m - peb_b) / peb_m)
        link_m = bounds.SensingLink("m", mono, mono, "monostatic", 1.0)
        link_b = bounds.SensingLink("r", tx, rx, "bistatic", 1.0)
        vm = bounds.node_velocity_efim(link_m, t, params)
        vb = bounds.node_velocity_efim(link_b, t, params)
        worst = max(worst, np.abs(vm - vb).max() / np.abs(vm).max())
    return CheckResult("co-located pair degenerates to monostatic", worst, 1e-6)


def check_velocity_rank(rng, draws: int) -> CheckResult:
    params = SystemParams()
    worst = 0.0
    for _ in range(draws):
        tx, rx, t = _random_nodes(rng)
        for l in (bounds.SensingLink(rx.id, rx, rx, "monostatic", 1.0),
                  bounds.SensingLink(rx.id, tx, rx, "bistatic", 1.0)):
            try:
                v = bounds.node_velocity_efim(l, t, params)
            except geom.SingularGeometryError:
                continue
            det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
            worst = max(worst, abs(det) / max(v[0, 0] * v[1, 1], 1e-300))
    return CheckResult("single-link velocity information is rank one", worst, 1e-10)


def check_velocity_schur(rng, draws: int) -> CheckResult:
    """Each link's rank-one velocity information against the velocity Schur
    complement of its 4x4 state information J^T diag(efim_diagonal) J,
    J = geom.jac_state, for a co-located node and a separated pair per
    draw."""
    params = SystemParams()
    worst = 0.0
    for _ in range(draws):
        tx, rx, t = _random_nodes(rng)
        for l in (bounds.SensingLink(rx.id, rx, rx, "monostatic", 1.0),
                  bounds.SensingLink(rx.id, tx, rx, "bistatic", 1.0)):
            try:
                v = bounds.node_velocity_efim(l, t, params)
                g = bounds.link_geometry(l, t)
            except geom.SingularGeometryError:
                continue
            snr = link.link_snr(params, g, t.rcs, l.power_scale)["snr"]
            j = geom.jac_state(l.tx, l.rx, t, params.wavelength)
            info = j.T @ np.diag(link.efim_diagonal(params, snr, g.doa_local)) @ j
            ip, ipv, iv = info[:2, :2], info[:2, 2:], info[2:, 2:]
            schur = iv - ipv.T @ np.linalg.solve(ip, ipv)
            worst = max(worst, np.abs(v - schur).max() / np.abs(schur).max())
    return CheckResult("single-link velocity information vs Schur complement of the state "
                       "information", worst, 1e-6)


def run_validation(seed: int = 0, draws: int = 50) -> list[CheckResult]:
    if seed < 0:
        raise ScenarioFormatError("seed must be >= 0")
    if draws < 1:  # no draw runs no check: nothing would have passed
        raise ScenarioFormatError("draws must be >= 1")
    rng = np.random.default_rng(seed)
    return [
        check_fim_oracle(rng, draws),
        check_crlb_inversion(rng, draws),
        check_efim_consistency(rng, draws),
        check_jacobians(rng, min(draws * 2, 100)),
        check_inverse_function_product(rng, min(draws * 2, 100)),
        check_degeneracy(rng, draws),
        check_velocity_rank(rng, draws),
        check_velocity_schur(rng, min(draws * 2, 100)),
    ]
