"""Network position and velocity error bounds.

Information from independent links adds: each link contributes a local
effective Fisher matrix, transformed to the global frame, and the network
bound is the trace of the inverse of the sum. Per-link velocity information
is rank one (a link only measures the radial velocity component), so
velocity bounds require at least two links with non-collinear geometry.

Every network bound reads one per-link primitive, link_constants: a link's
SNR, local DoA, ranges, target offsets, bistatic observables and position
Jacobian at a block of n target positions, as (n,) arrays, with a status
per position (geom's codes). One loop over the sensing links (_link_rows)
calls it and turns every status other than OK into one flag per link and
position instead of aborting, so that coverage maps can render degenerate
regions. The position information, the rank-one velocity piece and the 4x4
state information of a link are all computed from its constants.

The rank-one velocity piece kn * w w^T is computed in two halves: the
factors that do not depend on the velocity, per position
(_velocity_terms; for all links of a scenario, velocity_table), and kn and
the three entries per velocity draw (_velocity_draws). Every velocity bound
uses both, so a Monte-Carlo heading average pays the per-position half
once per position, whatever the number of draws.

The public bounds take a target whose position is one point, evaluated as
a block of one, or an (n, 2) block (see TargetState). A block position
that no link informs gets +inf and the flag NO_INFORMATION; one point
raises NoInformationError instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import geom
from .errors import NoInformationError, SingularGeometryError, UndefinedHeadingError
from .link import FisherMatrix, LinkGeometry, efim_diagonal, link_snr
from .model import SPEED_OF_LIGHT, Node, Scenario, SystemParams, TargetState

C = SPEED_OF_LIGHT

# Relative determinant threshold below which a 2x2 information matrix is
# treated as singular (rank deficient up to roundoff).
DET_RTOL = 1e-12

# The one flag of a block position that no link informs.
NO_INFORMATION = "no-information"


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


def _block(t: TargetState) -> TargetState:
    """t when its position is an (n, 2) block, else the block of its one
    position."""
    if np.ndim(t.position) == 2:
        return t
    return replace(t, position=np.reshape(t.position, (1, 2)))


def link_geometry(link: SensingLink, t: TargetState):
    """Ranges and local DoA of a link for a given target. For a target whose
    position is an (n, 2) block: (geometry of (n,) arrays, status), status
    COINCIDENT, OUT_OF_FIELD, TX_COINCIDENT or OK (see geom)."""
    xy, block = geom.positions(t.position)
    doa, r_rx, status = geom.local_doa(link.rx, xy)
    if link.kind == "monostatic":
        g = LinkGeometry.monostatic(r_rx, doa)
    else:
        r_tx = np.hypot(xy[:, 0] - link.tx.position[0], xy[:, 1] - link.tx.position[1])
        status = np.where((status == geom.OK) & (r_tx == 0.0), geom.TX_COINCIDENT, status)
        g = LinkGeometry(kind="bistatic", range_tx=r_tx, range_rx=r_rx, doa_local=doa)
    if block:
        return g, status
    geom.raise_status(status[0], link.rx.id)
    return LinkGeometry(kind=g.kind, range_tx=float(g.range_tx[0]),
                        range_rx=float(g.range_rx[0]), doa_local=float(g.doa_local[0]))


# ---------------------------------------------------------------------------
# the per-link primitive


class LinkConstants(NamedTuple):
    """What every bound reads of one link at n target positions, as (n,)
    arrays. Where the status is not OK the other fields may be inf or nan."""

    snr: np.ndarray             # per-antenna SNR before symbol division
    geometry: LinkGeometry      # ranges and local DoA at the rx
    d_tx: tuple                 # target minus tx position (x, y), m
    d_rx: tuple                 # target minus rx position (x, y), m
    obs: geom.LocalObservables | None  # separated pairs only
    j_fwd: tuple | None         # separated pairs only: entries 00, 01, 10, 11 of
                                # d(delay, doa)/d(local position), the inverse of
                                # geom.jac_bis_position
    status: np.ndarray          # geom status code: OK where the link informs


def _no_constants(status: np.ndarray) -> np.ndarray:
    """Where a link has no constants: the target is on a node or behind the
    rx array (the codes below BASELINE, where the scalar forms raise)."""
    return (status != geom.OK) & (status < geom.BASELINE)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def link_constants(link: SensingLink, t: TargetState, p: SystemParams) -> LinkConstants:
    """Constants of one link at the target's positions (one position is a
    block of one), with the status of each position: OK, or the first geom
    code that applies. A separated pair's position Jacobian is inverted in
    closed form; where its determinant is zero or not finite the status is
    SINGULAR_JACOBIAN."""
    t = _block(t)
    g, status = link_geometry(link, t)
    snr = link_snr(p, g, t.rcs, link.power_scale)["snr"]
    px, py = t.position[:, 0], t.position[:, 1]
    d_rx = (px - link.rx.position[0], py - link.rx.position[1])
    if link.kind == "monostatic":
        return LinkConstants(snr, g, d_rx, d_rx, None, None, status)
    obs, _ = geom.bis_observables(link.tx, link.rx, t, p.wavelength)
    ((j00, j01), (j10, j11)), ellipse = geom.jac_bis_position(obs)
    det = j00 * j11 - j01 * j10
    status = np.where(status == geom.OK, ellipse, status)
    status = np.where((status == geom.OK) & ((det == 0.0) | ~np.isfinite(det)),
                      geom.SINGULAR_JACOBIAN, status)
    return LinkConstants(snr, g, (px - link.tx.position[0], py - link.tx.position[1]), d_rx,
                         obs, (j11 / det, -j01 / det, -j10 / det, j00 / det), status)


# Flag of a link dropped at a position, by status; {node} is the rx id.
_DROP_FLAGS = {
    geom.COINCIDENT: "target coincides with node {node!r}",
    geom.OUT_OF_FIELD: "out-of-field",
    geom.TX_COINCIDENT: "target coincides with the tx node",
    geom.BASELINE: "target on the tx-rx baseline",
    geom.SINGULAR_JACOBIAN: "position jacobian of the pair is singular",
}


def _link_rows(p: SystemParams, links, t: TargetState, keep_baseline: bool = False):
    """([(link, constants, used)], flags) over the given links at the n
    positions of a block target: used is an (n,) mask and flags a list of
    n tuples, one flag per link unused at that position, in link order. A
    link is unused where its status is not OK; keep_baseline keeps it where
    the status is BASELINE or SINGULAR_JACOBIAN, which only the 2x2 closed
    forms divide by."""
    table = []
    dropped = np.zeros((len(links), len(t.position)), dtype=np.int8)
    for row, link in zip(dropped, links):
        lc = link_constants(link, t, p)
        unused = _no_constants(lc.status) if keep_baseline else lc.status != geom.OK
        row[unused] = lc.status[unused]
        table.append((link, lc, ~unused))
    flags = [()] * len(t.position)
    for i in np.flatnonzero(dropped.any(axis=0)).tolist():
        flags[i] = tuple(f"{link.node_id}: " + _DROP_FLAGS[code].format(node=link.rx.id)
                         for link, code in zip(links, dropped[:, i].tolist()) if code)
    return table, flags


def _link_table(s: Scenario, t: TargetState, keep_baseline: bool = False):
    """(table, flags, informed): _link_rows over all sensing links of a
    scenario, and the mask of positions that some link informs. A position
    no link informs gets the one flag NO_INFORMATION; a target with one
    position raises NoInformationError instead."""
    table, flags = _link_rows(s.params, sensing_links(s), _block(t), keep_baseline)
    informed = np.logical_or.reduce([used for _, _, used in table])
    if np.ndim(t.position) < 2 and not informed[0]:
        raise NoInformationError("no link contributes information")
    for i in np.flatnonzero(~informed).tolist():
        flags[i] = (NO_INFORMATION,)
    return table, flags, informed


# ---------------------------------------------------------------------------
# closed-form single-link position bounds


def _scalar_constants(link: SensingLink, t: TargetState, p: SystemParams) -> LinkConstants:
    """link_constants of a target with one position; raises, as the scalar
    forms do, where the link has none."""
    lc = link_constants(link, t, p)
    if _no_constants(lc.status[0]):
        geom.raise_status(lc.status[0], link.rx.id)
    return lc


def peb_mono_closed(p: SystemParams, node: Node, t: TargetState) -> float:
    """Closed-form position error bound of a single co-located Tx/Rx node."""
    lc = _scalar_constants(SensingLink(node.id, node, node, "monostatic", node.power_scale), t, p)
    if p.n_rx_ant == 1:  # no DoA information: the link alone fixes no position
        return math.inf
    snr, r, doa = lc.snr[0], lc.geometry.range_rx[0], lc.geometry.doa_local[0]
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
    lc = _scalar_constants(SensingLink(rx.id, tx, rx, "bistatic", tx.power_scale), t, p)
    if lc.status[0] == geom.BASELINE or p.n_rx_ant == 1:  # (as peb_mono_closed)
        return math.inf
    obs, snr = lc.obs, lc.snr[0]
    rbar, l, thl = obs.bistatic_range[0], obs.baseline, obs.look_angle[0]
    guard = rbar - l * math.cos(thl)
    fr = p.frame
    k, m, nr = fr.k_subcarriers, fr.m_symbols, p.n_rx_ant
    eta = p.constellation.penalty
    a = l**2 + rbar**2 - 2.0 * l * rbar * math.cos(thl)
    crlb = (3.0 * eta * a / (8.0 * math.pi**2 * snr * nr * k * m * guard**4)) * (
        C**2 * a / (p.subcarrier_spacing**2 * (k**2 - 1))
        + 4.0 * (l**2 - rbar**2) ** 2 / ((nr**2 - 1) * math.cos(obs.doa[0]) ** 2)
    )
    return math.sqrt(crlb)


# ---------------------------------------------------------------------------
# per-link information, read from the link constants; symmetric 2x2 pieces
# are carried as their (xx, xy, yy) entries


def _matrix(xx, xy, yy) -> np.ndarray:
    """The symmetric matrix of the entries; a (2, 2, ...) stack for arrays."""
    return np.array([[xx, xy], [xy, yy]])


def _rotate(info, angle: float):
    """(xx, xy, yy) of R^T M R, R = geom.jac_rotation(angle): local-frame
    information of a node oriented at angle in the global frame."""
    c, s = math.cos(angle), math.sin(angle)
    cc, ss, cs = c * c, s * s, c * s
    xx, xy, yy = info
    return (cc * xx - 2.0 * cs * xy + ss * yy,
            cs * xx + (cc - ss) * xy - cs * yy,
            ss * xx + 2.0 * cs * xy + cc * yy)


def _mono_local_position_info(p: SystemParams, snr, p_local, doa):
    """Local-frame position information (xx, xy, yy) of a co-located node,
    element form; elementwise when p_local is a (2, n) array."""
    fr = p.frame
    k, m, nr = fr.k_subcarriers, fr.m_symbols, p.n_rx_ant
    x, y = p_local
    r2 = x * x + y * y
    xi = (math.pi**2 * k * m * nr * snr
          / (6.0 * p.constellation.penalty * C**2 * r2**2))
    cos2 = np.cos(doa) ** 2
    df2k = 16.0 * p.subcarrier_spacing**2 * (k**2 - 1)
    cnr = C**2 * (nr**2 - 1) * cos2
    return (xi * (df2k * x * x * r2 + cnr * y * y),
            xi * (x * y * (df2k * r2 - cnr)),
            xi * (df2k * y * y * r2 + cnr * x * x))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _position_info(p: SystemParams, link: SensingLink, lc: LinkConstants, t: TargetState):
    """Position information (xx, xy, yy) of one link at the n positions of
    a block target, global frame; a separated pair's through the inverse
    of its (delay, doa) -> local-position Jacobian."""
    if link.kind == "monostatic":
        local = _mono_local_position_info(p, lc.snr, geom.global_to_local(t.position, link.rx),
                                          lc.geometry.doa_local)
    else:
        _, d_tau, d_theta = efim_diagonal(p, lc.snr, lc.obs.doa)
        i00, i01, i10, i11 = lc.j_fwd
        local = (i00 * i00 * d_tau + i10 * i10 * d_theta,
                 i00 * i01 * d_tau + i10 * i11 * d_theta,
                 i01 * i01 * d_tau + i11 * i11 * d_theta)
    return _rotate(local, link.rx.orientation)


# Rows of a link's velocity terms (see _velocity_terms), in order. A
# monostatic link fills the first seven; a separated pair fills them all.
VELOCITY_TERMS = ("num", "den0", "dxn", "dyn", "wxx", "wxy", "wyy",
                  "a_n", "a_t", "u2_q", "dxt", "dyt")


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _velocity_terms(p: SystemParams, link: SensingLink, lc: LinkConstants,
                    used: np.ndarray | None = None) -> np.ndarray:
    """Per-position half of the rank-one velocity information kn * w w^T of
    one link: every factor that does not depend on the velocity, as the
    VELOCITY_TERMS rows of an (12, n, 1) array over the n positions. Where
    used is False the terms are those of a link with no information
    (num = 0, den0 = 1, the rest 0), so _velocity_draws gives exact zeros
    there at any velocity."""
    fr = p.frame
    k, m, nr = fr.k_subcarriers, fr.m_symbols, p.n_rx_ant
    ts, df, lam = p.symbol_duration, p.subcarrier_spacing, p.wavelength
    eta = p.constellation.penalty
    snr = lc.snr[:, None]
    cos2 = np.cos(lc.geometry.doa_local)[:, None] ** 2
    r_tx, r_rx = lc.geometry.range_tx[:, None], lc.geometry.range_rx[:, None]
    dxn, dyn = lc.d_rx[0][:, None], lc.d_rx[1][:, None]
    terms = np.zeros((len(VELOCITY_TERMS),) + snr.shape)
    if link.kind == "monostatic":
        # kn = num / (eta * (48 ts^2 (M^2 - 1) cross^2 + 3 (N_R^2 - 1) r^2 lam^2 cos^2))
        num = (8.0 * math.pi**2 * nr * k * m * ts**2 * (m**2 - 1) * (nr**2 - 1)) * snr * cos2
        den0 = (eta * 3.0 * (nr**2 - 1) * lam**2) * r_rx**2 * cos2
        terms[:7] = num, den0, dxn, dyn, dxn * dxn, dxn * dyn, dyn * dyn
    else:
        dxt, dyt = lc.d_tx[0][:, None], lc.d_tx[1][:, None]
        dot_tn = dxn * dxt + dyn * dyt
        ell = r_tx * (dxn * dxn + dyn * dyn) + r_rx * dot_tn
        # u1 = a_n q_n + a_t q_t, a_n = r_tx^3 ell, a_t = r_rx^3 (r_tx dot_tn + r_rx r_t^2);
        # u2 = C^2 ts^2 (M^2 - 1) r_rx^2 (d_t x d_n)^2 q_t^2 + lam^2 df^2 (K^2 - 1) r_tx^4 ell^2
        g = 3.0 * (nr**2 - 1) * r_rx**2 * r_tx**2 * cos2
        u2_q = g * (C**2 * ts**2 * (m**2 - 1)) * r_rx**2 * (dxt * dyn - dxn * dyt) ** 2
        u2_0 = g * (lam**2 * df**2 * (k**2 - 1)) * r_tx**4 * ell**2
        a_coef = (2.0 * math.pi**2 * df**2 * ts**2 * k * (k**2 - 1) * m * (m**2 - 1)
                  * nr * (nr**2 - 1) / eta)
        num = a_coef * snr * r_tx**4 * cos2 * ell**2
        w0, w1 = r_tx * dxn + r_rx * dxt, r_tx * dyn + r_rx * dyt
        terms[:] = (num, u2_0, dxn, dyn, w0 * w0, w0 * w1, w1 * w1,
                    r_tx**3 * ell, r_rx**3 * (r_tx * dot_tn + r_rx * (dxt * dxt + dyt * dyt)),
                    u2_q, dxt, dyt)
    if used is not None and not used.all():
        terms[:, ~used] = 0.0
        terms[1, ~used] = 1.0
    return terms


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _velocity_draws(p: SystemParams, kind: str, terms, vx, vy):
    """Per-draw half: the (xx, xy, yy) entries of kn * w w^T, global frame,
    from a link's _velocity_terms (rows of (n, 1) columns) and velocity
    components broadcasting against them: (n, D) for D headings per
    position give (n, D) entries, scalars (n, 1)."""
    fr = p.frame
    k, m = fr.k_subcarriers, fr.m_symbols
    ts, df = p.symbol_duration, p.subcarrier_spacing
    eta = p.constellation.penalty
    num, den0, dxn, dyn, wxx, wxy, wyy, a_n, a_t, u2_q, dxt, dyt = terms
    # written as one expression each, so that no (n, D) temporary outlives
    # its use
    if kind == "monostatic":
        # kn = num / (c cross^2 + den0), cross = dxn vy - dyn vx
        kn = num / ((eta * 48.0 * ts**2 * (m**2 - 1)) * (dxn * vy - dyn * vx) ** 2 + den0)
    else:
        # kn = num / (c u1^2 + u2_q q_t^2 + den0), u1 = a_n q_n + a_t q_t,
        # q_n = vy dxn - vx dyn, q_t = vy dxt - vx dyt
        q_t = vy * dxt - vx * dyt
        kn = num / ((12.0 * df**2 * ts**2 * (k**2 - 1) * (m**2 - 1))
                    * (a_n * (vy * dxn - vx * dyn) + a_t * q_t) ** 2
                    + u2_q * q_t**2 + den0)
    return kn * wxx, kn * wxy, kn * wyy


def _used(info, used: np.ndarray):
    """The information entries where the link is used, zero elsewhere."""
    if used.all():
        return info
    return tuple(np.where(used, v, 0.0) for v in info)


def _one_velocity(p: SystemParams, link: SensingLink, lc: LinkConstants, t: TargetState,
                  used: np.ndarray | None = None):
    """Velocity information at the target's own velocity, as (n,) entries;
    zero where used is False."""
    info = _velocity_draws(p, link.kind, _velocity_terms(p, link, lc, used), *t.velocity)
    return tuple(v[:, 0] for v in info)


def node_velocity_efim(link: SensingLink, t: TargetState, p: SystemParams) -> np.ndarray:
    """Rank-one velocity information of a single link, global frame."""
    lc = _scalar_constants(link, t, p)
    if lc.status[0] == geom.BASELINE:
        raise SingularGeometryError("target on the tx-rx baseline")
    return _matrix(*(v[0] for v in _one_velocity(p, link, lc, _block(t))))


def _link_state_info(link: SensingLink, t: TargetState, p: SystemParams,
                     lc: LinkConstants | None = None) -> np.ndarray:
    """4x4 information over (x, y, vx, vy) of one link at one target
    position, global frame."""
    if lc is None:
        lc = _scalar_constants(link, t, p)
    e3 = np.diag([v[0] for v in efim_diagonal(p, lc.snr, lc.geometry.doa_local)])
    if link.kind == "monostatic":
        j = geom.jac_mono_state(link.rx, t, p.wavelength)
    else:
        j = geom.jac_bis_state(link.tx, link.rx, t, p.wavelength)
    return j.T @ e3 @ j


def link_information(p: SystemParams, links, t: TargetState, vx=None, vy=None) -> np.ndarray:
    """Information of each of L links at one target position, one row per
    link, for summing over many subsets of the links: position (xx, xy, yy)
    as an (L + 1, 3) array or, given the velocity components vx, vy of D
    headings, velocity (xx, xy, yy) as an (L + 1, 3, D) array. An unused
    link (see _link_rows) and the extra last row are zero, so a subset that
    adds its links' rows, in link order and from zero, gets exactly the
    sums of the network bounds."""
    t = _block(t)
    table, _ = _link_rows(p, links, t)
    if vx is None:
        info = np.zeros((len(links) + 1, 3))
    else:
        info = np.zeros((len(links) + 1, 3, np.size(vx)))
    for row, (link, lc, used) in zip(info, table):
        if not used[0]:
            continue
        if vx is None:
            row[:] = [v[0] for v in _position_info(p, link, lc, t)]
        else:
            row[:] = [v[0] for v in _velocity_draws(p, link.kind, _velocity_terms(p, link, lc),
                                                    vx, vy)]
    return info


# ---------------------------------------------------------------------------
# network aggregation


@dataclass
class BoundReport:
    """Bounds and per-link contributions for one target; for a block of n
    positions (see evaluate_bounds), (n,) arrays and (2, 2, n) stacks."""

    peb: float
    veb: float | None
    crlb_heading: float | None
    position_efim: np.ndarray
    velocity_efim: np.ndarray | None
    per_node: list[dict] = field(default_factory=list)
    flags: tuple[str, ...] = ()


def _add_flag(flags: list, where: np.ndarray, flag: str) -> None:
    """Append flag to the flags of the positions where the mask is set."""
    for i in np.flatnonzero(where).tolist():
        flags[i] += (flag,)


@np.errstate(divide="ignore", invalid="ignore")
def _network_sums(s: Scenario, t: TargetState):
    """(per_node, flags, informed, position sums, velocity sums) at the
    target's positions: _link_table, and the (xx, xy, yy) information of
    the links used at each position, added in link order from zero.
    per_node has an entry for every link, holding (n,) arrays (None where
    the link is used nowhere), and velocity only for a moving target."""
    table, flags, informed = _link_table(s, t)
    t = _block(t)
    n = len(t.position)
    moving = t.speed > 0.0
    pos_total = [np.zeros(n) for _ in range(3)]
    vel_total = [np.zeros(n) for _ in range(3)] if moving else None
    per_node = []
    for link, lc, used in table:
        entry = {"node_id": link.node_id, "kind": link.kind,
                 "snr_db": np.where(_no_constants(lc.status), math.nan, 10.0 * np.log10(lc.snr)),
                 "position_info": None}
        if moving:
            entry["velocity_info"] = None
        if used.any():
            entry["position_info"] = info = _used(_position_info(s.params, link, lc, t), used)
            for total, v in zip(pos_total, info):
                total += v
            if moving:
                entry["velocity_info"] = info = _one_velocity(s.params, link, lc, t, used)
                for total, v in zip(vel_total, info):
                    total += v
        per_node.append(entry)
    return per_node, flags, informed, pos_total, vel_total


def network_position_efim(s: Scenario, t: TargetState) -> FisherMatrix:
    """Sum of per-link position information in the global frame."""
    return FisherMatrix(labels=("x", "y"), values=_matrix(*(v[0] for v in _network_sums(s, t)[3])))


def _trace_inverse_2x2(xx, xy, yy):
    """Trace of the inverse of [[xx, xy], [xy, yy]], elementwise over
    arrays; +inf where numerically singular."""
    det = xx * yy - xy * xy
    # not (det <= rtol * |xx yy| or det not finite), NaN included
    bounded = (det > DET_RTOL * np.abs(xx * yy)) & (det < math.inf)
    return np.where(bounded, xx + yy, math.inf) / np.where(bounded, det, 1.0)


def network_peb(s: Scenario, t: TargetState) -> float:
    """Network position error bound, sqrt of the trace of the inverse
    summed information; +inf when the summed information is singular."""
    return float(np.sqrt(_trace_inverse_2x2(*_network_sums(s, t)[3]))[0])


def _heading_trig(heading):
    """(cos, sin, sin 2x) of the heading(s), as _polar_crlbs reads them."""
    c, s = np.cos(heading), np.sin(heading)
    return c, s, 2.0 * s * c


def _polar_crlbs(vxx, vxy, vyy, speed: float, trig):
    """(speed CRLB, heading CRLB, singular) from the xx, xy, yy entries of
    summed velocity information and _heading_trig of the heading;
    elementwise when they are arrays over headings (or over subsets or
    positions by headings, the trig terms broadcasting)."""
    det = vxx * vyy - vxy * vxy
    singular = (det <= DET_RTOL * np.abs(vxx * vyy)) | ~np.isfinite(det)
    safe_det = np.where(singular, 1.0, det)
    c, sn, s2 = trig
    crlb_speed = np.where(singular, np.inf, (vyy * c * c + vxx * sn * sn - vxy * s2) / safe_det)
    crlb_heading = np.where(
        singular, np.inf, (vxx * c * c + vyy * sn * sn + vxy * s2) / (safe_det * speed**2))
    return crlb_speed, crlb_heading, singular


def _velocity_bounds(total, t: TargetState, flags: list, informed: np.ndarray):
    """(veb, heading CRLB) arrays of a moving target from its summed
    velocity information; flags the informed positions where it is singular."""
    crlb_speed, crlb_heading, singular = _polar_crlbs(*total, t.speed, _heading_trig(t.heading))
    _add_flag(flags, singular & informed, "velocity-info-singular")
    return np.sqrt(crlb_speed), crlb_heading


def network_velocity_bounds(s: Scenario, t: TargetState) -> dict:
    """Velocity error bound and heading CRLB from per-link rank-one pieces.

    Requires a moving target; returns +inf values with a flag when the
    summed velocity information is numerically singular.
    """
    if t.speed == 0.0:
        raise UndefinedHeadingError("velocity bounds undefined at zero speed")
    _, flags, informed, _, total = _network_sums(s, t)
    veb, crlb_heading = _velocity_bounds(total, t, flags, informed)
    return {"veb": float(veb[0]), "crlb_heading": float(crlb_heading[0]),
            "velocity_efim": _matrix(*(v[0] for v in total)), "flags": flags[0]}


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
    table, flags, _ = _link_table(s, t, keep_baseline=True)
    flags = list(flags[0])
    total = np.zeros((4, 4))
    for link, lc, used in table:
        if used[0]:
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
    when the target moves.

    For a target whose position is an (n, 2) block, the report holds (n,)
    arrays, (2, 2, n) stacks, per-node (xx, xy, yy) arrays and a list of n
    flag tuples; a position that no link informs gets +inf and the one
    flag NO_INFORMATION, where a target with one position raises
    NoInformationError.
    """
    per_node, flags, informed, pos_total, vel_total = _network_sums(s, t)
    peb = np.sqrt(_trace_inverse_2x2(*pos_total))
    _add_flag(flags, np.isinf(peb) & informed, "position-info-singular")
    veb = crlb_heading = None
    if vel_total is not None:
        veb, crlb_heading = _velocity_bounds(vel_total, t, flags, informed)
    if np.ndim(t.position) == 2:
        return BoundReport(peb, veb, crlb_heading, _matrix(*pos_total),
                           None if vel_total is None else _matrix(*vel_total), per_node, flags)
    for entry in per_node:
        entry["snr_db"] = None if math.isnan(entry["snr_db"][0]) else float(entry["snr_db"][0])
        for key in ("position_info", "velocity_info"):
            if entry.get(key) is not None:
                entry[key] = _matrix(*(v[0] for v in entry[key]))
    return BoundReport(
        peb=float(peb[0]),
        veb=None if veb is None else float(veb[0]),
        crlb_heading=None if crlb_heading is None else float(crlb_heading[0]),
        position_efim=_matrix(*(v[0] for v in pos_total)),
        velocity_efim=None if vel_total is None else _matrix(*(v[0] for v in vel_total)),
        per_node=per_node,
        flags=flags[0],
    )


@dataclass(frozen=True)
class VelocityTable:
    """Per-position half of the velocity information of a scenario at n
    positions: each sensing link's kind, its used mask and _velocity_terms
    (an (L, 12, n, 1) array, zero information where the link is unused),
    and the positions' flags (see _link_table). table[a:b] is the table of
    positions a to b; heading_velocity_metrics takes it as the position."""

    kinds: tuple[str, ...]
    used: np.ndarray   # (L, n)
    terms: np.ndarray  # (L, 12, n, 1)
    flags: list

    def __len__(self) -> int:
        return len(self.flags)

    def __getitem__(self, rows: slice) -> "VelocityTable":
        return VelocityTable(self.kinds, self.used[:, rows], self.terms[:, :, rows],
                             self.flags[rows])


def velocity_table(s: Scenario, position, rcs: float = 1.0) -> VelocityTable:
    """The VelocityTable of a scenario at an (n, 2) block of positions, or
    at one position (a block of one), where no link informing it raises
    NoInformationError."""
    table, flags, _ = _link_table(s, TargetState(position=position, rcs=rcs))
    return VelocityTable(tuple(link.kind for link, _, _ in table),
                         np.array([used for _, _, used in table]),
                         np.array([_velocity_terms(s.params, link, lc, used)
                                   for link, lc, used in table]), flags)


def _velocity_sums(p: SystemParams, table: VelocityTable, vx, vy):
    """(xx, xy, yy) of the velocity information summed over the links of a
    table, added in link order from zero, at (n, D) velocity components."""
    total = [np.zeros((len(table), vx.shape[1])) for _ in range(3)]
    for kind, used, terms in zip(table.kinds, table.used, table.terms):
        if used.any():
            for tot, v in zip(total, _velocity_draws(p, kind, terms, vx, vy)):
                tot += v
    return total


@np.errstate(invalid="ignore")
def heading_velocity_metrics(s: Scenario, position, speed: float,
                             headings: np.ndarray, rcs: float = 1.0) -> dict:
    """Velocity bound and heading CRLB over an array of headings.

    Vectorized over headings for Monte-Carlo averaging: the per-position
    half of each link's information (velocity_table) is computed once, and
    only the velocity-dependent coefficient is evaluated per heading.
    Singular headings are reported in the mask; callers decide how to
    aggregate. For an (n, 2) block of positions, or a VelocityTable of n
    positions (whose rcs it was built with; rcs is then not read), headings
    is (n, D) (or (D,), shared), the results are (n, D) arrays and flags a
    list of n tuples; a position that no link informs is singular
    throughout and gets the one flag NO_INFORMATION, where one position
    raises NoInformationError.
    """
    if speed <= 0.0:
        raise UndefinedHeadingError("velocity bounds undefined at zero speed")
    if isinstance(position, VelocityTable):
        table, block = position, True
    else:
        table, block = velocity_table(s, position, rcs), np.ndim(position) == 2
    trig = _heading_trig(np.atleast_2d(np.asarray(headings, dtype=float)))
    total = _velocity_sums(s.params, table, speed * trig[0], speed * trig[1])
    crlb_speed, crlb_heading, singular = _polar_crlbs(*total, speed, trig)
    res = {"veb": np.sqrt(crlb_speed), "crlb_heading": crlb_heading,
           "singular": singular, "flags": table.flags}
    if block:
        return res
    return {key: value[0] for key, value in res.items()}
