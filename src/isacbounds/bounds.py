"""Network position and velocity error bounds.

Information from independent links adds: each link contributes a local
effective Fisher matrix, transformed to the global frame, and the network
bound is the trace of the inverse of the sum. Per-link velocity information
is rank one (a link only measures the radial velocity component), so
velocity bounds require at least two links with non-collinear geometry.

Every network bound reads one LinkTable, built once for a block of n target
positions by one loop over the sensing links (_link_rows). The loop calls
the per-link primitive, link_constants (a link's SNR, local DoA, ranges,
target offsets, bistatic observables and position Jacobian as (n,) arrays,
with a geom status per position), and keeps per link and position the
status, whether the link is used (status OK), and its information: the
position information and the velocity terms, each built only for a bound
that reads it and zero where the link is unused. A bound adds the rows
in link order from zero and inverts the sums as a stack. A degenerate
position is flagged, not raised, so that coverage maps can render
degenerate regions: geom.render_flags turns the table's status codes and a
bound's cell codes into flag strings, which are made only by the public
bounds and their callers.

The rank-one velocity piece kn * w w^T is computed in two halves: the
factors that do not depend on the velocity, per position (_velocity_terms,
the table's velocity terms; velocity_table builds such a table), and kn and
the three entries per velocity draw (_velocity_draws). Every velocity bound
uses both, so a Monte-Carlo heading average pays the per-position half
once per position, whatever the number of draws.

The public bounds take a target whose position is one point, evaluated as
a block of one, or an (n, 2) block (see TargetState). A block position
that no link informs gets +inf and the flag of geom.NO_INFORMATION; one point
raises NoInformationError instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import geom
from .errors import UndefinedHeadingError
from .link import FisherMatrix, LinkGeometry, efim_diagonal, link_snr
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


def node_velocity_efim(link: SensingLink, t: TargetState, p: SystemParams) -> np.ndarray:
    """Rank-one velocity information of a single link, global frame."""
    lc = link_constants(link, t, p)
    if _no_constants(lc.status[0]) or lc.status[0] == geom.BASELINE:
        geom.raise_status(lc.status[0], link.rx.id)
    return _matrix(*(v[0, 0] for v in _velocity_draws(p, link.kind, _velocity_terms(p, link, lc),
                                                        *t.velocity)))


def _link_state_info(link: SensingLink, t: TargetState, p: SystemParams) -> np.ndarray:
    """4x4 information over (x, y, vx, vy) of one link at one target
    position, global frame."""
    lc = _scalar_constants(link, t, p)
    e3 = np.diag([v[0] for v in efim_diagonal(p, lc.snr, lc.geometry.doa_local)])
    if link.kind == "monostatic":
        j = geom.jac_mono_state(link.rx, t, p.wavelength)
    else:
        j = geom.jac_bis_state(link.tx, link.rx, t, p.wavelength)
    return j.T @ e3 @ j


# ---------------------------------------------------------------------------
# the link table


@dataclass(frozen=True)
class LinkTable:
    """Every link's part in a network bound at n target positions (see the
    module docstring). A link is used at a position where its status is OK;
    its information is zero where it is unused. table[a:b] is the table of
    positions a to b; heading_velocity_metrics takes one as the position."""

    links: tuple[SensingLink, ...]
    status: np.ndarray           # (L, n) geom status codes
    used: np.ndarray             # (L, n) where the status is OK
    snr: np.ndarray              # (L, n) per-antenna SNR before symbol division
    position: np.ndarray | None  # (L, 3, n) position information (xx, xy, yy), if built
    velocity: np.ndarray | None  # (L, 12, n, 1) _velocity_terms, if built

    def __len__(self) -> int:
        return self.status.shape[1]

    def __getitem__(self, rows: slice) -> "LinkTable":
        def cut(stack):
            return None if stack is None else stack[:, :, rows]
        return LinkTable(self.links, self.status[:, rows], self.used[:, rows], self.snr[:, rows],
                         cut(self.position), cut(self.velocity))

    def flags(self, cells=(), draws=None, used=None) -> list[tuple[str, ...]]:
        """geom.render_flags of the positions: the status of every link
        where it is unused (or, given used, where that mask is False), then
        the cell codes and singular draws."""
        codes = self.status if used is None else np.where(used, geom.OK, self.status)
        return geom.render_flags([(lk.node_id, lk.rx.id) for lk in self.links], codes,
                                 cells, draws)


def _link_rows(p: SystemParams, links, t: TargetState, position: bool = True,
               velocity: bool = False) -> LinkTable:
    """The LinkTable of the given links at the n positions of a block
    target, with the position information and the velocity terms where
    position and velocity are set."""
    n = len(t.position)
    status = np.empty((len(links), n), dtype=np.int8)
    snr = np.empty((len(links), n))
    info = np.zeros((len(links), 3, n)) if position else None
    terms = np.zeros((len(links), len(VELOCITY_TERMS), n, 1)) if velocity else None
    for i, link in enumerate(links):
        lc = link_constants(link, t, p)
        status[i], snr[i] = lc.status, lc.snr
        used = lc.status == geom.OK
        if position and used.any():
            info[i] = np.where(used, _position_info(p, link, lc, t), 0.0)
        if velocity:
            terms[i] = _velocity_terms(p, link, lc, used)
    return LinkTable(tuple(links), status, status == geom.OK, snr, info, terms)


def _link_table(s: Scenario, t: TargetState, position: bool = True,
                velocity: bool = False) -> LinkTable:
    """_link_rows over all sensing links of a scenario; a target with one
    position that no link informs raises NoInformationError."""
    table = _link_rows(s.params, sensing_links(s), _block(t), position, velocity)
    if np.ndim(t.position) < 2 and not table.used.any():
        geom.raise_status(geom.NO_INFORMATION)
    return table


def _link_sum(info: np.ndarray) -> np.ndarray:
    """The rows of an (L, ...) stack of link information, added in link
    order from zero."""
    total = np.zeros(info.shape[1:])
    for row in info:
        total += row
    return total


def _velocity_rows(p: SystemParams, table: LinkTable, vx, vy) -> np.ndarray:
    """(L, 3, n, D) velocity information (xx, xy, yy) of each link of a
    table with velocity terms, at velocity components broadcasting against
    (n, 1) to (n, D); zero where the link is unused."""
    info = np.zeros((len(table.links), 3) + np.broadcast_shapes(np.shape(vx), (len(table), 1)))
    for row, link, terms, used in zip(info, table.links, table.velocity, table.used):
        if used.any():
            row[:] = _velocity_draws(p, link.kind, terms, vx, vy)
    return info


def link_information(p: SystemParams, links, t: TargetState, vx=None, vy=None) -> np.ndarray:
    """Information of each of L links at one target position, one row per
    link, for summing over many subsets of the links: the LinkTable's
    position (xx, xy, yy) as an (L + 1, 3) array or, given the velocity
    components vx, vy of D headings, velocity (xx, xy, yy) as an
    (L + 1, 3, D) array. An unused link and the extra last row are zero, so
    a subset that adds its links' rows, in link order and from zero, gets
    exactly the sums of the network bounds."""
    table = _link_rows(p, links, _block(t), position=vx is None, velocity=vx is not None)
    info = table.position[:, :, 0] if vx is None else _velocity_rows(p, table, vx, vy)[:, :, 0]
    return np.concatenate([info, np.zeros((1,) + info.shape[1:])])


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


@np.errstate(divide="ignore", invalid="ignore")
def _network_sums(s: Scenario, t: TargetState):
    """(table, velocity, position sums, velocity sums) at the target's
    positions: the LinkTable, the (L, 3, n) velocity information of its
    links at the target's velocity, and the (3, n) sums of both; the
    velocity ones only for a moving target."""
    moving = t.speed > 0.0
    table = _link_table(s, t, velocity=moving)
    vel = _velocity_rows(s.params, table, *t.velocity)[..., 0] if moving else None
    return table, vel, _link_sum(table.position), None if vel is None else _link_sum(vel)


def network_position_efim(s: Scenario, t: TargetState) -> FisherMatrix:
    """Sum of per-link position information in the global frame."""
    return FisherMatrix(labels=("x", "y"), values=_matrix(*_network_sums(s, t)[2][:, 0]))


def _singular(det, xx, yy):
    """Where a 2x2 information matrix with determinant det and diagonal xx,
    yy is numerically singular (det not above DET_RTOL |xx yy|, or not
    finite); elementwise over arrays."""
    return ~((det > DET_RTOL * np.abs(xx * yy)) & (det < math.inf))


def _trace_inverse_2x2(xx, xy, yy):
    """Trace of the inverse of [[xx, xy], [xy, yy]], elementwise over
    arrays; +inf where numerically singular."""
    det = xx * yy - xy * xy
    bounded = ~_singular(det, xx, yy)
    return np.where(bounded, xx + yy, math.inf) / np.where(bounded, det, 1.0)


def network_peb(s: Scenario, t: TargetState) -> float:
    """Network position error bound, sqrt of the trace of the inverse
    summed information; +inf when the summed information is singular."""
    return float(np.sqrt(_trace_inverse_2x2(*_network_sums(s, t)[2]))[0])


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
    singular = _singular(det, vxx, vyy)
    safe_det = np.where(singular, 1.0, det)
    c, sn, s2 = trig
    crlb_speed = np.where(singular, np.inf, (vyy * c * c + vxx * sn * sn - vxy * s2) / safe_det)
    crlb_heading = np.where(
        singular, np.inf, (vxx * c * c + vyy * sn * sn + vxy * s2) / (safe_det * speed**2))
    return crlb_speed, crlb_heading, singular


def network_velocity_bounds(s: Scenario, t: TargetState) -> dict:
    """Velocity error bound and heading CRLB from per-link rank-one pieces.

    Requires a moving target; returns +inf values with a flag when the
    summed velocity information is numerically singular.
    """
    if t.speed == 0.0:
        raise UndefinedHeadingError("velocity bounds undefined at zero speed")
    table, _, _, total = _network_sums(s, t)
    crlb_speed, crlb_heading, singular = _polar_crlbs(*total, t.speed, _heading_trig(t.heading))
    return {"veb": float(np.sqrt(crlb_speed)[0]), "crlb_heading": float(crlb_heading[0]),
            "velocity_efim": _matrix(*total[:, 0]),
            "flags": table.flags([(geom.VELOCITY_SINGULAR, singular)])[0]}


def network_velocity_bounds_exact(s: Scenario, t: TargetState) -> dict:
    """Velocity bound from the summed 4x4 state information.

    Sums the per-link (x, y, vx, vy) information, removes position by Schur
    complement, and reads the speed bound in polar coordinates. Tighter
    than network_velocity_bounds, which discards cross-information between
    links by reducing each link to its own rank-one velocity piece. Links
    on a tx-rx baseline stay: this form has no division by the ellipse guard.
    A speed bound that roundoff makes negative is reported as singular.
    """
    if t.speed == 0.0:
        raise UndefinedHeadingError("velocity bounds undefined at zero speed")
    table = _link_rows(s.params, sensing_links(s), _block(t), position=False)
    kept = ~_no_constants(table.status)
    if not kept.any():
        geom.raise_status(geom.NO_INFORMATION)
    total = np.zeros((4, 4))
    for link, keep in zip(table.links, kept[:, 0]):
        if keep:
            total += _link_state_info(link, t, s.params)
    i_p, i_pv, i_v = total[:2, :2], total[:2, 2:], total[2:, 2:]
    veb, code = math.inf, geom.POSITION_SINGULAR
    if not _singular(i_p[0, 0] * i_p[1, 1] - i_p[0, 1] * i_p[1, 0], i_p[0, 0], i_p[1, 1]):
        j_pol = geom.jac_polar_velocity(t.velocity)
        m_pol = j_pol.T @ (i_v - i_pv.T @ np.linalg.solve(i_p, i_pv)) @ j_pol
        det = m_pol[0, 0] * m_pol[1, 1] - m_pol[0, 1] * m_pol[1, 0]
        code = geom.VELOCITY_SINGULAR
        if not _singular(det, m_pol[0, 0], m_pol[1, 1]) and m_pol[1, 1] > 0.0:
            veb, code = math.sqrt(m_pol[1, 1] / det), geom.OK
    return {"veb_exact": veb,
            "flags": table.flags([(code, np.array([code != geom.OK]))], used=kept)[0]}


@np.errstate(divide="ignore", invalid="ignore")
def evaluate_bounds(s: Scenario, t: TargetState) -> BoundReport:
    """Full report for one target: position bound always, velocity bounds
    when the target moves.

    For a target whose position is an (n, 2) block, the report holds (n,)
    arrays, (2, 2, n) stacks, per-node (xx, xy, yy) arrays and a list of n
    flag tuples; a position that no link informs gets +inf and the one
    flag of geom.NO_INFORMATION, where a target with one position raises
    NoInformationError.
    """
    table, vel, pos_total, vel_total = _network_sums(s, t)
    peb = np.sqrt(_trace_inverse_2x2(*pos_total))
    cells = [(geom.POSITION_SINGULAR, np.isinf(peb))]
    veb = crlb_heading = None
    if vel is not None:
        crlb_speed, crlb_heading, singular = _polar_crlbs(*vel_total, t.speed,
                                                          _heading_trig(t.heading))
        veb = np.sqrt(crlb_speed)
        cells.append((geom.VELOCITY_SINGULAR, singular))
    flags = table.flags(cells)
    snr_db = np.where(_no_constants(table.status), math.nan, 10.0 * np.log10(table.snr))
    info = tuple  # a link's (3, n) information rows as per_node holds them
    if np.ndim(t.position) < 2:  # one position: scalars and 2x2 matrices
        peb, veb, crlb_heading = (None if v is None else float(v[0])
                                  for v in (peb, veb, crlb_heading))
        pos_total, vel_total = pos_total[:, 0], None if vel is None else vel_total[:, 0]
        snr_db = [None if math.isnan(v) else v for v in snr_db[:, 0].tolist()]
        flags, info = flags[0], lambda rows: _matrix(*rows[:, 0])
    per_node = []
    for i, link in enumerate(table.links):
        used = table.used[i].any()
        entry = {"node_id": link.node_id, "kind": link.kind, "snr_db": snr_db[i],
                 "position_info": info(table.position[i]) if used else None}
        if vel is not None:
            entry["velocity_info"] = info(vel[i]) if used else None
        per_node.append(entry)
    return BoundReport(peb, veb, crlb_heading, _matrix(*pos_total),
                       None if vel is None else _matrix(*vel_total), per_node, flags)


def velocity_table(s: Scenario, position, rcs: float = 1.0) -> LinkTable:
    """The LinkTable of a scenario, with the velocity terms and without the
    position information, at an (n, 2) block of positions, or at one
    position (a block of one), where no link informing it raises
    NoInformationError."""
    return _link_table(s, TargetState(position=position, rcs=rcs), position=False, velocity=True)


def _velocity_sums(p: SystemParams, table: LinkTable, vx, vy):
    """(xx, xy, yy) of the velocity information summed over the links of a
    table, added in link order from zero, at (n, D) velocity components."""
    total = [np.zeros((len(table), vx.shape[1])) for _ in range(3)]
    for link, used, terms in zip(table.links, table.used, table.velocity):
        if used.any():
            for tot, v in zip(total, _velocity_draws(p, link.kind, terms, vx, vy)):
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
    aggregate. For an (n, 2) block of positions, or a velocity_table of n
    positions (whose rcs it was built with; rcs is then not read), headings
    is (n, D) (or (D,), shared), the results are (n, D) arrays and flags a
    list of n tuples; a position that no link informs is singular
    throughout and gets the one flag of geom.NO_INFORMATION, where one position
    raises NoInformationError.
    """
    if speed <= 0.0:
        raise UndefinedHeadingError("velocity bounds undefined at zero speed")
    if isinstance(position, LinkTable):
        table, block = position, True
    else:
        table, block = velocity_table(s, position, rcs), np.ndim(position) == 2
    trig = _heading_trig(np.atleast_2d(np.asarray(headings, dtype=float)))
    total = _velocity_sums(s.params, table, speed * trig[0], speed * trig[1])
    crlb_speed, crlb_heading, singular = _polar_crlbs(*total, speed, trig)
    res = {"veb": np.sqrt(crlb_speed), "crlb_heading": crlb_heading,
           "singular": singular, "flags": table.flags()}
    if block:
        return res
    return {key: value[0] for key, value in res.items()}
