"""Network position and velocity error bounds.

Information from independent links adds: each link contributes a local
effective Fisher matrix, transformed to the global frame, and the network
bound is the trace of the inverse of the sum. Per-link velocity information
is rank one (a link only measures the radial velocity component), so
velocity bounds require at least two links with non-collinear geometry.

Every network bound reads one per-link primitive, link_constants: a link's
SNR, local DoA, ranges, target offsets and bistatic observables at the
target. One loop over the sensing links (_link_table) calls it and turns
degenerate links (target behind the array, coincident with a node, or on a
tx-rx baseline) into one flag per link instead of aborting, so that
coverage maps can render degenerate regions. The position information, the
rank-one velocity piece and the 4x4 state information of a link are all
computed from its constants.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import geom
from .errors import (
    NoInformationError,
    OutOfFieldError,
    SingularGeometryError,
    UndefinedHeadingError,
)
from .link import FisherMatrix, LinkGeometry, link_snr
from .model import SPEED_OF_LIGHT, Node, Scenario, SystemParams, TargetState

C = SPEED_OF_LIGHT

# Relative determinant threshold below which a 2x2 information matrix is
# treated as singular (rank deficient up to roundoff).
DET_RTOL = 1e-12


@dataclass(frozen=True)
class SensingLink:
    """One information-bearing link of a scenario."""

    node_id: str   # reporting node: the monostatic node itself, or the rx
    tx: Node
    rx: Node
    kind: str      # "monostatic" | "bistatic"
    power_scale: float


def sensing_links(s: Scenario) -> tuple[SensingLink, ...]:
    """All sensing links of a scenario (monostatic nodes and tx/rx pairs)."""
    return links_of(s.nodes)


def links_of(nodes) -> tuple[SensingLink, ...]:
    """Sensing links of a node tuple, in node order; an rx's tx is looked up
    among the same nodes."""
    by_id = {n.id: n for n in nodes}
    links = []
    for n in nodes:
        if n.role == "monostatic":
            links.append(SensingLink(n.id, n, n, "monostatic", n.power_scale))
        elif n.role == "rx":
            tx = by_id[n.tx_id]
            links.append(SensingLink(n.id, tx, n, "bistatic", tx.power_scale))
    return tuple(links)


def link_geometry(link: SensingLink, t: TargetState) -> LinkGeometry:
    """Ranges and local DoA of a link for a given target."""
    doa, r_rx = geom.local_doa(link.rx, t.position)
    if link.kind == "monostatic":
        return LinkGeometry.monostatic(r_rx, doa)
    r_tx = math.hypot(t.position[0] - link.tx.position[0],
                      t.position[1] - link.tx.position[1])
    if r_tx == 0.0:
        raise SingularGeometryError("target coincides with the tx node")
    return LinkGeometry(kind="bistatic", range_tx=r_tx, range_rx=r_rx, doa_local=doa)


# ---------------------------------------------------------------------------
# closed-form single-link position bounds


def peb_mono_closed(p: SystemParams, node: Node, t: TargetState) -> float:
    """Closed-form position error bound of a single co-located Tx/Rx node."""
    lc = link_constants(SensingLink(node.id, node, node, "monostatic", node.power_scale), t, p)
    snr, r, doa = lc.snr, lc.geometry.range_rx, lc.geometry.doa_local
    fr = p.frame
    k, m, nr = fr.k_subcarriers, fr.m_symbols, p.n_rx_ant
    eta = p.constellation.penalty
    crlb = 6.0 * eta / (math.pi**2 * k * m * nr * snr) * (
        C**2 / 16.0 / (p.subcarrier_spacing**2 * (k**2 - 1))
        + r**2 / ((nr**2 - 1) * math.cos(doa) ** 2)
    )
    return math.sqrt(crlb)


def peb_bis_closed(p: SystemParams, tx: Node, rx: Node, t: TargetState) -> float:
    """Closed-form position error bound of a single separated Tx/Rx pair."""
    lc = link_constants(SensingLink(rx.id, tx, rx, "bistatic", tx.power_scale), t, p)
    if lc.on_baseline:
        return math.inf
    obs, snr = lc.obs, lc.snr
    rbar, l, thl = obs.bistatic_range, obs.baseline, obs.look_angle
    guard = rbar - l * math.cos(thl)
    fr = p.frame
    k, m, nr = fr.k_subcarriers, fr.m_symbols, p.n_rx_ant
    eta = p.constellation.penalty
    a = l**2 + rbar**2 - 2.0 * l * rbar * math.cos(thl)
    crlb = (3.0 * eta * a / (8.0 * math.pi**2 * snr * nr * k * m * guard**4)) * (
        C**2 * a / (p.subcarrier_spacing**2 * (k**2 - 1))
        + 4.0 * (l**2 - rbar**2) ** 2 / ((nr**2 - 1) * math.cos(obs.doa) ** 2)
    )
    return math.sqrt(crlb)


# ---------------------------------------------------------------------------
# the per-link primitive


class LinkConstants(NamedTuple):
    """What every bound reads of one link at one target position."""

    snr: float                  # per-antenna SNR before symbol division
    geometry: LinkGeometry      # ranges and local DoA at the rx
    d_tx: tuple[float, float]   # target minus tx position, m
    d_rx: tuple[float, float]   # target minus rx position, m
    obs: geom.LocalObservables | None  # separated pairs only
    on_baseline: bool           # the ellipse guard trips (separated pairs only)


def link_constants(link: SensingLink, t: TargetState, p: SystemParams) -> LinkConstants:
    """Constants of one link at the target position. Raises OutOfFieldError
    or SingularGeometryError when the target is behind the rx array or
    coincides with a node; a target on the tx-rx baseline only sets
    on_baseline."""
    g = link_geometry(link, t)
    snr = link_snr(p, g, t.rcs, link.power_scale)["snr"]
    px, py = t.position
    d_rx = (px - link.rx.position[0], py - link.rx.position[1])
    if link.kind == "monostatic":
        return LinkConstants(snr, g, d_rx, d_rx, None, False)
    obs = geom.bis_observables(link.tx, link.rx, t, p.wavelength)
    guard = obs.bistatic_range - obs.baseline * math.cos(obs.look_angle)
    return LinkConstants(snr, g, (px - link.tx.position[0], py - link.tx.position[1]), d_rx,
                         obs, guard <= geom.BASELINE_DEGENERACY_RTOL * obs.bistatic_range)


def _link_rows(p: SystemParams, links, t: TargetState, keep_baseline: bool = False):
    """([(link, constants or None, used)], flags) over the given links, one
    flag per unused link. A link is unused when its constants raised or,
    unless keep_baseline, the target is on its tx-rx baseline, where the 2x2
    closed forms divide by the vanishing ellipse guard."""
    table = []
    flags = []
    for link in links:
        lc = None
        try:
            lc = link_constants(link, t, p)
        except OutOfFieldError:
            flags.append(f"{link.node_id}: out-of-field")
        except SingularGeometryError as exc:
            flags.append(f"{link.node_id}: {exc}")
        used = lc is not None and (keep_baseline or not lc.on_baseline)
        if lc is not None and not used:
            flags.append(f"{link.node_id}: target on the tx-rx baseline")
        table.append((link, lc, used))
    return table, flags


def _link_table(s: Scenario, t: TargetState, keep_baseline: bool = False):
    """_link_rows over all sensing links of a scenario; raises
    NoInformationError when no link is used."""
    table, flags = _link_rows(s.params, sensing_links(s), t, keep_baseline)
    if not any(used for _, _, used in table):
        raise NoInformationError("no link contributes information")
    return table, flags


# ---------------------------------------------------------------------------
# per-link information, read from the link constants


def _efim_diag(p: SystemParams, snr: float, doa: float) -> tuple[float, float, float]:
    """Diagonal (doppler, delay, doa) of the local effective Fisher matrix."""
    fr = p.frame
    k, m, nr = fr.k_subcarriers, fr.m_symbols, p.n_rx_ant
    pref = snr * nr * k * m / p.constellation.penalty
    pi = math.pi
    return (
        pref * 2.0 * pi**2 * p.symbol_duration**2 * (m**2 - 1) / 3.0,
        pref * 2.0 * pi**2 * p.subcarrier_spacing**2 * (k**2 - 1) / 3.0,
        pref * pi**2 * (nr**2 - 1) * math.cos(doa) ** 2 / 6.0,
    )


def _mono_local_position_info(p: SystemParams, snr: float, p_local, doa: float) -> np.ndarray:
    """Local-frame position information of a co-located node, element form."""
    fr = p.frame
    k, m, nr = fr.k_subcarriers, fr.m_symbols, p.n_rx_ant
    x, y = float(p_local[0]), float(p_local[1])
    r2 = x * x + y * y
    xi = (math.pi**2 * k * m * nr * snr
          / (6.0 * p.constellation.penalty * C**2 * r2**2))
    cos2 = math.cos(doa) ** 2
    df2k = 16.0 * p.subcarrier_spacing**2 * (k**2 - 1)
    cnr = C**2 * (nr**2 - 1) * cos2
    return xi * np.array([
        [df2k * x * x * r2 + cnr * y * y, x * y * (df2k * r2 - cnr)],
        [x * y * (df2k * r2 - cnr), df2k * y * y * r2 + cnr * x * x],
    ])


def _position_info(p: SystemParams, link: SensingLink, lc: LinkConstants,
                   t: TargetState) -> np.ndarray:
    """Position information of one link, global frame; a separated pair's
    via the inverse of the (delay, doa) -> local-position Jacobian."""
    if link.kind == "monostatic":
        p_local = geom.global_to_local(t.position, link.rx)
        local = _mono_local_position_info(p, lc.snr, p_local, lc.geometry.doa_local)
    else:
        _, d_tau, d_theta = _efim_diag(p, lc.snr, lc.obs.doa)
        j_fwd = np.linalg.inv(geom.jac_bis_position(lc.obs))
        local = j_fwd.T @ np.diag([d_tau, d_theta]) @ j_fwd
    j_rot = geom.jac_rotation(link.rx.orientation)
    return j_rot.T @ local @ j_rot


def _velocity_info(p: SystemParams, link: SensingLink, lc: LinkConstants, vx, vy) -> np.ndarray:
    """Rank-one velocity information kn * w w^T of one link, global frame;
    vx, vy arrays of n headings give a (2, 2, n) stack."""
    fr = p.frame
    k, m, nr = fr.k_subcarriers, fr.m_symbols, p.n_rx_ant
    ts, df, lam = p.symbol_duration, p.subcarrier_spacing, p.wavelength
    cos2 = math.cos(lc.geometry.doa_local) ** 2
    r_tx, r_rx = lc.geometry.range_tx, lc.geometry.range_rx
    dxn, dyn = lc.d_rx
    if link.kind == "monostatic":
        cross = dxn * vy - dyn * vx
        num = (8.0 * math.pi**2 * lc.snr * nr * k * m * ts**2
               * (m**2 - 1) * (nr**2 - 1) * cos2)
        den = p.constellation.penalty * (
            48.0 * ts**2 * (m**2 - 1) * cross**2
            + 3.0 * (nr**2 - 1) * r_rx**2 * lam**2 * cos2
        )
        w = np.array([dxn, dyn])
        return np.multiply.outer(np.outer(w, w), num / den)
    dxt, dyt = lc.d_tx
    a_coef = (2.0 * math.pi**2 * df**2 * ts**2 * lc.snr
              * k * (k**2 - 1) * m * (m**2 - 1) * nr * (nr**2 - 1)
              / p.constellation.penalty)
    dot_tn = dxn * dxt + dyn * dyt
    rn2 = dxn * dxn + dyn * dyn
    rt2 = dxt * dxt + dyt * dyt
    q_n = vy * dxn - vx * dyn
    q_t = vy * dxt - vx * dyt
    u1 = (r_tx**4 * q_n * rn2 + r_rx * r_tx**3 * q_n * dot_tn
          + r_rx**3 * r_tx * q_t * dot_tn + r_rx**4 * q_t * rt2)
    u2 = (C**2 * ts**2 * (m**2 - 1) * r_rx**2 * q_t**2 * (dxt * dyn - dxn * dyt) ** 2
          + lam**2 * df**2 * (k**2 - 1) * r_tx**4
          * (r_tx * rn2 + r_rx * dot_tn) ** 2)
    num = a_coef * r_tx**4 * cos2 * (r_tx * rn2 + r_rx * dot_tn) ** 2
    den = (12.0 * df**2 * ts**2 * (k**2 - 1) * (m**2 - 1) * u1**2
           + 3.0 * (nr**2 - 1) * r_rx**2 * r_tx**2 * cos2 * u2)
    w = np.array([r_tx * dxn + r_rx * dxt, r_tx * dyn + r_rx * dyt])
    return np.multiply.outer(np.outer(w, w), num / den)


def node_velocity_efim(link: SensingLink, t: TargetState, p: SystemParams) -> np.ndarray:
    """Rank-one velocity information of a single link, global frame."""
    lc = link_constants(link, t, p)
    if lc.on_baseline:
        raise SingularGeometryError("target on the tx-rx baseline")
    return _velocity_info(p, link, lc, *t.velocity)


def _link_state_info(link: SensingLink, t: TargetState, p: SystemParams,
                     lc: LinkConstants | None = None) -> np.ndarray:
    """4x4 information over (x, y, vx, vy) of one link, global frame."""
    if lc is None:
        lc = link_constants(link, t, p)
    e3 = np.diag(_efim_diag(p, lc.snr, lc.geometry.doa_local))
    if link.kind == "monostatic":
        j = geom.jac_mono_state(link.rx, t, p.wavelength)
    else:
        j = geom.jac_bis_state(link.tx, link.rx, t, p.wavelength)
    return j.T @ e3 @ j


def link_information(p: SystemParams, links, t: TargetState, vx=None, vy=None) -> np.ndarray:
    """Information of each of L links at the target, one row per link, for
    summing over many subsets of the links: position (xx, xy, yx, yy) as an
    (L + 1, 4) array or, given the velocity components vx, vy of n headings,
    velocity (xx, xy, yy) as an (L + 1, 3, n) array (the rank-one piece is
    symmetric). An unused link (see _link_rows) and the extra last row are
    zero, so a subset that adds its links' rows, in link order and from
    zero, gets exactly the sums of the network bounds."""
    table, _ = _link_rows(p, links, t)
    if vx is None:
        info = np.zeros((len(links) + 1, 4))
    else:
        info = np.zeros((len(links) + 1, 3, np.size(vx)))
    for row, (link, lc, used) in zip(info, table):
        if not used:
            continue
        if vx is None:
            row[:] = _position_info(p, link, lc, t).ravel()
        else:
            v = _velocity_info(p, link, lc, vx, vy)
            row[:] = v[0, 0], v[0, 1], v[1, 1]
    return info


# ---------------------------------------------------------------------------
# network aggregation


@dataclass
class BoundReport:
    """Bounds and per-link contributions for one target."""

    peb: float
    veb: float | None
    crlb_heading: float | None
    position_efim: np.ndarray
    velocity_efim: np.ndarray | None
    per_node: list[dict] = field(default_factory=list)
    flags: tuple[str, ...] = ()


def _network_sums(s: Scenario, t: TargetState):
    """(per_node, flags, position sum, velocity sum) over the used links;
    per_node has an entry for every link, and velocity only when moving."""
    table, flags = _link_table(s, t)
    moving = t.speed > 0.0
    pos_total = np.zeros((2, 2))
    vel_total = np.zeros((2, 2)) if moving else None
    per_node = []
    for link, lc, used in table:
        entry = {"node_id": link.node_id, "kind": link.kind,
                 "snr_db": None if lc is None else 10.0 * math.log10(lc.snr),
                 "position_info": None}
        if moving:
            entry["velocity_info"] = None
        if used:
            entry["position_info"] = _position_info(s.params, link, lc, t)
            pos_total += entry["position_info"]
            if moving:
                entry["velocity_info"] = _velocity_info(s.params, link, lc, *t.velocity)
                vel_total += entry["velocity_info"]
        per_node.append(entry)
    return per_node, flags, pos_total, vel_total


def network_position_efim(s: Scenario, t: TargetState) -> FisherMatrix:
    """Sum of per-link position information in the global frame."""
    return FisherMatrix(labels=("x", "y"), values=_network_sums(s, t)[2])


def _trace_inverse_2x2(m: np.ndarray):
    """Trace of the inverse, +inf when numerically singular; per matrix
    when m is a (2, 2, n) stack."""
    det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    # not (det <= rtol * |m00 m11| or det not finite), NaN included
    bounded = (det > DET_RTOL * abs(m[0, 0] * m[1, 1])) & (det < math.inf)
    trace = m[0, 0] + m[1, 1]
    if m.ndim == 2:  # one matrix: a branch costs less than the array select
        return trace / det if bounded else math.inf
    return np.where(bounded, trace, math.inf) / np.where(bounded, det, 1.0)


def network_peb(s: Scenario, t: TargetState) -> float:
    """Network position error bound, sqrt of the trace of the inverse
    summed information; +inf when the summed information is singular."""
    efim = network_position_efim(s, t)
    return math.sqrt(_trace_inverse_2x2(efim.values))


def _heading_trig(heading):
    """(cos, sin, sin 2x) of the heading(s), as _polar_crlbs reads them."""
    return np.cos(heading), np.sin(heading), np.sin(2.0 * heading)


def _polar_crlbs(vxx, vxy, vyy, speed: float, trig):
    """(speed CRLB, heading CRLB, singular) from the xx, xy, yy entries of
    summed velocity information and _heading_trig of the heading;
    elementwise when they are arrays over headings (or over subsets by
    headings, the trig terms broadcasting)."""
    det = vxx * vyy - vxy * vxy
    singular = (det <= DET_RTOL * np.abs(vxx * vyy)) | ~np.isfinite(det)
    safe_det = np.where(singular, 1.0, det)
    c, sn, s2 = trig
    crlb_speed = np.where(singular, np.inf, (vyy * c * c + vxx * sn * sn - vxy * s2) / safe_det)
    crlb_heading = np.where(
        singular, np.inf, (vxx * c * c + vyy * sn * sn + vxy * s2) / (safe_det * speed**2))
    return crlb_speed, crlb_heading, singular


def _velocity_bounds(total: np.ndarray, t: TargetState, flags: list) -> tuple[float, float]:
    """(veb, heading CRLB) of a moving target from its summed velocity
    information; appends the singular flag to flags."""
    crlb_speed, crlb_heading, singular = _polar_crlbs(
        total[0, 0], total[0, 1], total[1, 1], t.speed, _heading_trig(t.heading))
    if singular:
        flags.append("velocity-info-singular")
    return math.sqrt(crlb_speed), float(crlb_heading)


def network_velocity_bounds(s: Scenario, t: TargetState) -> dict:
    """Velocity error bound and heading CRLB from per-link rank-one pieces.

    Requires a moving target; returns +inf values with a flag when the
    summed velocity information is numerically singular.
    """
    if t.speed == 0.0:
        raise UndefinedHeadingError("velocity bounds undefined at zero speed")
    _, flags, _, total = _network_sums(s, t)
    veb, crlb_heading = _velocity_bounds(total, t, flags)
    return {"veb": veb, "crlb_heading": crlb_heading,
            "velocity_efim": total, "flags": tuple(flags)}


def network_velocity_bounds_exact(s: Scenario, t: TargetState) -> dict:
    """Velocity bound from the summed 4x4 state information.

    Sums the per-link (x, y, vx, vy) information, removes position by Schur
    complement, and reads the speed bound in polar coordinates. Tighter
    than network_velocity_bounds, which discards cross-information between
    links by reducing each link to its own rank-one velocity piece. Links
    on a tx-rx baseline stay: this form has no division by the ellipse guard.
    """
    if t.speed == 0.0:
        raise UndefinedHeadingError("velocity bounds undefined at zero speed")
    table, flags = _link_table(s, t, keep_baseline=True)
    total = np.zeros((4, 4))
    for link, lc, used in table:
        if used:
            total += _link_state_info(link, t, s.params, lc)
    i_p = total[:2, :2]
    i_pv = total[:2, 2:]
    i_v = total[2:, 2:]
    det_p = i_p[0, 0] * i_p[1, 1] - i_p[0, 1] * i_p[1, 0]
    if det_p <= DET_RTOL * abs(i_p[0, 0] * i_p[1, 1]) or not math.isfinite(det_p):
        return {"veb_exact": math.inf, "flags": tuple(flags + ["position-info-singular"])}
    ev = i_v - i_pv.T @ np.linalg.solve(i_p, i_pv)
    j_pol = geom.jac_polar_velocity(t.velocity)
    m_pol = j_pol.T @ ev @ j_pol
    det = m_pol[0, 0] * m_pol[1, 1] - m_pol[0, 1] * m_pol[1, 0]
    if det <= DET_RTOL * abs(m_pol[0, 0] * m_pol[1, 1]) or not math.isfinite(det):
        return {"veb_exact": math.inf, "flags": tuple(flags + ["velocity-info-singular"])}
    return {"veb_exact": math.sqrt(m_pol[1, 1] / det), "flags": tuple(flags)}


def evaluate_bounds(s: Scenario, t: TargetState) -> BoundReport:
    """Full report for one target: position bound always, velocity bounds
    when the target moves."""
    per_node, flags, pos_total, vel_total = _network_sums(s, t)
    peb = math.sqrt(_trace_inverse_2x2(pos_total))
    if math.isinf(peb):
        flags.append("position-info-singular")
    veb = crlb_heading = None
    if vel_total is not None:
        veb, crlb_heading = _velocity_bounds(vel_total, t, flags)
    return BoundReport(
        peb=peb,
        veb=veb,
        crlb_heading=crlb_heading,
        position_efim=pos_total,
        velocity_efim=vel_total,
        per_node=per_node,
        flags=tuple(flags),
    )


def heading_velocity_metrics(s: Scenario, position, speed: float,
                             headings: np.ndarray, rcs: float = 1.0) -> dict:
    """Velocity bound and heading CRLB over an array of headings.

    Vectorized over headings for Monte-Carlo averaging: the link constants
    are computed once, only the velocity-dependent coefficient varies.
    Singular headings are reported in the mask; callers decide how to
    aggregate.
    """
    if speed <= 0.0:
        raise UndefinedHeadingError("velocity bounds undefined at zero speed")
    headings = np.asarray(headings, dtype=float)
    vx = speed * np.cos(headings)
    vy = speed * np.sin(headings)
    table, flags = _link_table(s, TargetState(position=tuple(position), rcs=rcs))
    total = np.zeros((2, 2) + headings.shape)
    for link, lc, used in table:
        if used:
            total += _velocity_info(s.params, link, lc, vx, vy)
    crlb_speed, crlb_heading, singular = _polar_crlbs(
        total[0, 0], total[0, 1], total[1, 1], speed, _heading_trig(headings))
    return {
        "veb": np.sqrt(crlb_speed),
        "crlb_heading": crlb_heading,
        "singular": singular,
        "flags": tuple(flags),
    }
