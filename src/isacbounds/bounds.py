"""Network position and velocity error bounds.

Information from independent links adds: each link contributes a local
effective Fisher matrix, transformed to the global frame, and the network
bound is the trace of the inverse of the sum. Per-link velocity information
is rank one (a link only measures the radial velocity component), so
velocity bounds require at least two links with non-collinear geometry.

Every network bound but the exact one reads one LinkTable, built once for
a block of n target positions by one loop over the sensing links
(_link_rows). The loop calls the per-link primitive, link_constants (a
link's SNR, local DoA, ranges and target offsets, as (n,) arrays, with a
geom status per position), and keeps per link and position the status,
whether the link is used (status OK), and its information: the position
information and the velocity terms, each built only for a bound that reads
it and zero where the link is unused. A bound adds the rows in link order
from zero and inverts the sums as a stack. A degenerate position is
flagged, not raised, so that coverage maps can render degenerate regions:
geom.render_flags turns the link status codes and a bound's cell codes
into flag strings, which are made only by the public bounds and their
callers. heading_velocity_metrics leaves the flags of a velocity_table it
is handed to its caller (engine.velocity_metrics renders a block's once,
with the singular-draw counts).

No information function reads a link's kind: a co-located node is a pair
whose tx is its rx (its d_tx is its d_rx). Both read _efim_and_rows, the
link's efim_diagonal and its delay and DoA rows (those of geom.jac_state).
_position_info maps them onto the global position. _velocity_terms is the
per-position half of the rank-one velocity piece kn * u u^T, the
Sherman-Morrison form of the link's own velocity Schur complement (the
table's velocity terms; velocity_table builds such a table); kn and the
three entries per velocity draw are the other half (_velocity_draws). At
velocity v, kn's denominator is den0 + (m1 . v)^2 + (m2 . v)^2, with a DoA
and a delay square (m2 = 0 for a co-located node, whose d_tx x d_rx is
exactly zero), so a Monte-Carlo heading average pays the per-position half
once per position. Only link_geometry and link_constants (which
degeneracies a link can have) and the per-node labels read the kind. The
exact bound reads link_constants and geom.jac_state in a loop of its own.

The public bounds take a target whose position is one point, evaluated as
a block of one, or an (n, 2) block (see TargetState), for which they return
(n,) arrays and n flag tuples; network_position_efim, one FisherMatrix,
takes one point. A block position that no link informs gets +inf and the
flag of geom.NO_INFORMATION; one point raises NoInformationError instead.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import geom
from .errors import BoundsError, UndefinedHeadingError
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
    """What the information of one link reads at n target positions, as
    (n,) arrays. Where the status is not OK the other fields may be inf or
    nan. A co-located node's d_tx is its d_rx (the same arrays) and its
    ranges are equal."""

    snr: np.ndarray             # per-antenna SNR before symbol division
    geometry: LinkGeometry      # ranges and local DoA at the rx
    d_tx: tuple                 # target minus tx position (x, y), m
    d_rx: tuple                 # target minus rx position (x, y), m
    status: np.ndarray          # geom status code: OK where the link informs


def _no_constants(status: np.ndarray) -> np.ndarray:
    """Where a link has no constants: the target is on a node or behind the
    rx array (the codes below BASELINE, where the scalar forms raise)."""
    return (status != geom.OK) & (status < geom.BASELINE)


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def link_constants(link: SensingLink, t: TargetState, p: SystemParams) -> LinkConstants:
    """Constants of one link at the target's positions (one position is a
    block of one), with the status of each position: OK, or the first geom
    code that applies. A separated pair is dropped where its ellipse
    degenerates (BASELINE) or where the determinant of its inverse-direction
    position Jacobian is zero or not finite (SINGULAR_JACOBIAN)."""
    t = _block(t)
    g, status = link_geometry(link, t)
    snr = link_snr(p, g, t.rcs, link.power_scale)["snr"]
    px, py = t.position[:, 0], t.position[:, 1]
    d_rx = (px - link.rx.position[0], py - link.rx.position[1])
    if link.kind == "monostatic":
        return LinkConstants(snr, g, d_rx, d_rx, status)
    obs, _ = geom.bis_observables(link.tx, link.rx, t, p.wavelength)
    ((j00, j01), (j10, j11)), ellipse = geom.jac_bis_position(obs)
    det = j00 * j11 - j01 * j10
    status = np.where(status == geom.OK, ellipse, status)
    status = np.where((status == geom.OK) & ((det == 0.0) | ~np.isfinite(det)),
                      geom.SINGULAR_JACOBIAN, status)
    return LinkConstants(snr, g, (px - link.tx.position[0], py - link.tx.position[1]), d_rx, status)


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
    obs, snr = geom.bis_observables(tx, rx, t, p.wavelength), lc.snr[0]
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
# per-link information, read from the link constants; symmetric 2x2 pieces
# are carried as their (xx, xy, yy) entries


def _matrix(xx, xy, yy) -> np.ndarray:
    """The symmetric matrix of the entries; a (2, 2, ...) stack for arrays."""
    return np.array([[xx, xy], [xy, yy]])


def _efim_and_rows(p: SystemParams, lc: LinkConstants):
    """(D, u, b) of one link at n positions: D = (D_fd, D_tau, D_theta), its
    efim_diagonal; u = d_tx / r_tx + d_rx / r_rx, c times its delay row, and
    b = (-dy_rx, dx_rx) / r_rx^2, its DoA row (geom.jac_state), as (x, y)."""
    (xt, yt), (xr, yr) = lc.d_tx, lc.d_rx
    r_tx, r_rx = lc.geometry.range_tx, lc.geometry.range_rx
    return (efim_diagonal(p, lc.snr, lc.geometry.doa_local),
            (xt / r_tx + xr / r_rx, yt / r_tx + yr / r_rx), (-yr / r_rx**2, xr / r_rx**2))


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _position_info(p: SystemParams, lc: LinkConstants):
    """Position information Q = D_tau / c^2 u u^T + D_theta b b^T of one
    link at the n positions of a block target, global frame, as its
    (xx, xy, yy) entries (see _efim_and_rows)."""
    (_, d_tau, d_theta), (ux, uy), (bx, by) = _efim_and_rows(p, lc)
    d_tau = d_tau / C**2
    return (d_tau * ux * ux + d_theta * bx * bx,
            d_tau * ux * uy + d_theta * bx * by,
            d_tau * uy * uy + d_theta * by * by)


# Rows of a link's velocity terms (see _velocity_terms), in order: the
# numerator of kn times each entry of u u^T, and the denominator of kn at
# velocity v, den0 + (m1 . v)^2 + (m2 . v)^2, a sum of squares.
VELOCITY_TERMS = ("nxx", "nxy", "nyy", "den0", "m1x", "m1y", "m2x", "m2y")


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _velocity_terms(p: SystemParams, lc: LinkConstants,
                    used: np.ndarray | None = None) -> np.ndarray:
    """Per-position half of the rank-one velocity information kn * u u^T of
    one link, the velocity Schur complement of its own (x, y, vx, vy)
    information: every factor that does not depend on the velocity, as the
    VELOCITY_TERMS rows of an (8, n, 1) array over the n positions, read
    from _efim_and_rows alone. Where used is False the terms are those of a
    link with no information (den0 = 1, the rest 0): exact zeros."""
    (d_fd, d_tau, d_theta), (ux, uy), (bx, by) = _efim_and_rows(p, lc)
    (xt, yt), (xr, yr) = lc.d_tx, lc.d_rx
    r3_tx, r_rx, lam = lc.geometry.range_tx**3, lc.geometry.range_rx, p.wavelength
    # Doppler position row a = M v / lam, M = sum_k p_k p_k^T / r_k^3, p_k = (-y_k, x_k)
    # (k = tx, rx). The link's information has the blocks Q + D_fd a a^T (position,
    # Q = _position_info), D_fd a u^T / lam (cross), D_fd u u^T / lam^2 (velocity),
    # whose Schur complement is, by Sherman-Morrison, D_fd / lam^2 u u^T over
    # 1 + D_fd a^T Q^-1 a. In the basis [u b], a^T Q^-1 a is
    # (c^2 / D_tau (a x b)^2 + (u x a)^2 / D_theta) / det[u b]^2; above and below
    # times den0 = D_theta det[u b]^2 leave the DoA square D_fd (u x a)^2 = (m1 . v)^2
    # and the delay square D_fd c^2 D_theta / D_tau (a x b)^2 = (m2 . v)^2, as
    # a x b = (d_tx x d_rx) / (lam r_rx^2 r_tx^3) p_tx . v (zero when d_tx is d_rx).
    den0 = d_theta * (ux * by - uy * bx) ** 2
    num = d_fd / lam**2 * den0
    c_tx, c_rx = (ux * xt + uy * yt) / r3_tx, (ux * xr + uy * yr) / r_rx**3
    s1 = np.sqrt(d_fd) / lam
    s2 = C / lam * np.sqrt(d_fd * d_theta / d_tau) * (xt * yr - yt * xr) / (r_rx**2 * r3_tx)
    terms = np.array([num * (ux * ux), num * (ux * uy), num * (uy * uy), den0,
                      -s1 * (c_tx * yt + c_rx * yr), s1 * (c_tx * xt + c_rx * xr),
                      -s2 * yt, s2 * xt])[:, :, None]
    if used is not None and not used.all():
        terms[:, ~used] = 0.0
        terms[3, ~used] = 1.0  # den0
    return terms


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _velocity_draws(terms, speed: float, trig):
    """Per-draw half: the (xx, xy, yy) entries of kn * u u^T, global frame,
    from a link's _velocity_terms (rows of (n, 1) columns), the speed and
    the _heading_trig of headings broadcasting against them: (n, D) for D
    headings per position give (n, D) entries, scalars (n, 1)."""
    nxx, nxy, nyy, den0, m1x, m1y, m2x, m2y = terms
    cos, sin = trig
    q = (speed * m1x) * cos + (speed * m1y) * sin
    den = q * q
    if m2x.any() or m2y.any():  # not a co-located node, whose m2 = 0 adds exact zeros
        q = (speed * m2x) * cos + (speed * m2y) * sin
        den += q * q
    den += den0
    return nxx / den, nxy / den, nyy / den


def node_velocity_efim(link: SensingLink, t: TargetState, p: SystemParams) -> np.ndarray:
    """Rank-one velocity information of a single link, global frame."""
    lc = link_constants(link, t, p)
    if _no_constants(lc.status[0]) or lc.status[0] == geom.BASELINE:
        geom.raise_status(lc.status[0], link.rx.id)
    trig = _heading_trig(t.heading) if t.speed > 0.0 else (0.0, 0.0)  # at rest: num / den0
    terms = _velocity_terms(p, lc)
    return _matrix(*(v[0, 0] for v in _velocity_draws(terms, t.speed, trig)))


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
    velocity: np.ndarray | None  # (L, 8, n, 1) _velocity_terms, if built

    def __len__(self) -> int:
        return self.status.shape[1]

    def __getitem__(self, rows: slice) -> "LinkTable":
        def cut(stack):
            return None if stack is None else stack[:, :, rows]
        return LinkTable(self.links, self.status[:, rows], self.used[:, rows], self.snr[:, rows],
                         cut(self.position), cut(self.velocity))

    def flags(self, cells=(), draws=None) -> list[tuple[str, ...]]:
        """geom.render_flags of the positions: the status of every link
        where it is unused, then the cell codes and singular draws."""
        return geom.render_flags([(lk.node_id, lk.rx.id) for lk in self.links], self.status,
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
            info[i] = np.where(used, _position_info(p, lc), 0.0)
        if velocity:
            terms[i] = _velocity_terms(p, lc, used)
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


def _velocity_rows(table: LinkTable, speed: float, trig) -> np.ndarray:
    """(L, 3, n, D) velocity information (xx, xy, yy) of each link of a
    table with velocity terms, at the speed and the _heading_trig of
    headings broadcasting against (n, 1) to (n, D); zero where the link is
    unused."""
    info = np.zeros((len(table.links), 3) + np.broadcast_shapes(trig[0].shape, (len(table), 1)))
    for row, terms, used in zip(info, table.velocity, table.used):
        if used.any():
            row[:] = _velocity_draws(terms, speed, trig)
    return info


def link_information(p: SystemParams, links, t: TargetState, speed=None, trig=None) -> np.ndarray:
    """Information of each of L links at one target position, one row per
    link, for summing over many subsets of the links: the LinkTable's
    position (xx, xy, yy) as an (L + 1, 3) array or, given the speed and
    the _heading_trig of D headings, velocity (xx, xy, yy) as an
    (L + 1, 3, D) array. An unused link and the extra last row are zero, so
    a subset that adds its links' rows, in link order and from zero, gets
    exactly the sums of the network bounds."""
    table = _link_rows(p, links, _block(t), position=trig is None, velocity=trig is not None)
    info = table.position[:, :, 0] if trig is None else _velocity_rows(table, speed, trig)[:, :, 0]
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
    vel = _velocity_rows(table, t.speed, _heading_trig(t.heading))[..., 0] if moving else None
    return table, vel, _link_sum(table.position), None if vel is None else _link_sum(vel)


def network_position_efim(s: Scenario, t: TargetState) -> FisherMatrix:
    """Sum of per-link position information in the global frame, at a
    target with one position (evaluate_bounds gives a block's stack)."""
    if np.ndim(t.position) == 2:
        raise BoundsError("network_position_efim takes one position; evaluate_bounds gives "
                          "the (2, 2, n) position information of a block")
    return FisherMatrix(labels=("x", "y"), values=_matrix(*_network_sums(s, t)[2][:, 0]))


def _singular(det, xx, yy):
    """Where a 2x2 information matrix with determinant det and diagonal xx,
    yy is numerically singular (det not above DET_RTOL ((xx + yy) / 2)^2,
    or not finite); elementwise over arrays. det / ((xx + yy) / 2)^2 is
    4 l1 l2 / (l1 + l2)^2 of the eigenvalues l1, l2, so the test does not
    depend on the frame the matrix is written in."""
    return ~((det > DET_RTOL * (0.5 * (xx + yy)) ** 2) & (det < math.inf))


def _trace_inverse_2x2(xx, xy, yy):
    """Trace of the inverse of [[xx, xy], [xy, yy]], elementwise over
    arrays; +inf where numerically singular."""
    det = xx * yy - xy * xy
    bounded = ~_singular(det, xx, yy)
    return np.where(bounded, xx + yy, math.inf) / np.where(bounded, det, 1.0)


def network_peb(s: Scenario, t: TargetState) -> float | np.ndarray:
    """Network position error bound, sqrt of the trace of the inverse
    summed information; +inf when the summed information is singular. A
    float for one position, (n,) for a block: evaluate_bounds(s, t).peb."""
    return evaluate_bounds(s, t).peb


def _heading_trig(heading):
    """(cos x, sin x) of the heading(s) x, which the per-draw velocity
    information and the polar CRLBs read."""
    return np.cos(heading), np.sin(heading)


def _polar_crlbs(vxx, vxy, vyy, speed: float, trig):
    """(speed CRLB, heading CRLB, singular) from the xx, xy, yy entries of
    summed velocity information and _heading_trig of the heading;
    elementwise when they are arrays over headings (or over subsets or
    positions by headings, the trig terms broadcasting)."""
    det = vxx * vyy - vxy * vxy
    singular = _singular(det, vxx, vyy)
    safe_det = np.where(singular, 1.0, det)
    cos, sin = trig
    cc, ss, sin2 = cos * cos, sin * sin, 2.0 * sin * cos
    crlb_speed = np.where(singular, np.inf, (vyy * cc + vxx * ss - vxy * sin2) / safe_det)
    crlb_heading = np.where(
        singular, np.inf, (vxx * cc + vyy * ss + vxy * sin2) / (safe_det * speed**2))
    return crlb_speed, crlb_heading, singular


def network_velocity_bounds(s: Scenario, t: TargetState) -> dict:
    """Velocity error bound and heading CRLB from per-link rank-one pieces.

    Requires a moving target; returns +inf values with a flag when the
    summed velocity information is numerically singular. A block of n
    positions gives (n,) values, a (2, 2, n) velocity_efim and n flag
    tuples, as network_velocity_bounds_exact.
    """
    if t.speed == 0.0:
        raise UndefinedHeadingError("velocity bounds undefined at zero speed")
    table, _, _, total = _network_sums(s, t)
    crlb_speed, crlb_heading, singular = _polar_crlbs(*total, t.speed, _heading_trig(t.heading))
    res = {"veb": np.sqrt(crlb_speed), "crlb_heading": crlb_heading,
           "velocity_efim": _matrix(*total),
           "flags": table.flags([(geom.VELOCITY_SINGULAR, singular)])}
    if np.ndim(t.position) == 2:
        return res
    return {"veb": float(res["veb"][0]), "crlb_heading": float(crlb_heading[0]),
            "velocity_efim": res["velocity_efim"][:, :, 0], "flags": res["flags"][0]}


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def network_velocity_bounds_exact(s: Scenario, t: TargetState) -> dict:
    """Velocity bound from the summed 4x4 state information.

    Sums the per-link (x, y, vx, vy) information J^T diag(efim_diagonal) J,
    J = geom.jac_state, removes position by Schur complement, and reads the
    speed bound with _polar_crlbs. Tighter than network_velocity_bounds,
    which reduces each link to its own rank-one velocity piece. Links on a
    tx-rx baseline stay: this form has no division by the ellipse guard. A
    speed bound that roundoff makes negative is reported as singular. A
    block of n positions gives n values and flags, as evaluate_bounds.
    """
    if t.speed == 0.0:
        raise UndefinedHeadingError("velocity bounds undefined at zero speed")
    p, links, block = s.params, sensing_links(s), _block(t)
    codes = np.empty((len(links), len(block.position)), dtype=np.int8)
    total = np.zeros((4, 4, len(block.position)))
    for i, link in enumerate(links):
        lc = link_constants(link, block, p)
        kept = ~_no_constants(lc.status)
        codes[i] = np.where(kept, geom.OK, lc.status)
        if kept.any():
            j = geom.jac_state(link.tx, link.rx, block, p.wavelength)
            je = j * np.array(efim_diagonal(p, lc.snr, lc.geometry.doa_local))[:, None]
            total += np.where(kept, sum(a[:, None] * b for a, b in zip(je, j)), 0.0)
    if np.ndim(t.position) < 2 and not (codes == geom.OK).any():
        geom.raise_status(geom.NO_INFORMATION)
    (pxx, pxy, bxx, bxy), (_, pyy, byx, byy), (_, _, vxx, vxy), (_, _, _, vyy) = total
    det = pxx * pyy - pxy * pxy
    ax, ay = (pyy * bxx - pxy * byx) / det, (pxx * byx - pxy * bxx) / det  # i_p^-1 i_pv
    cx, cy = (pyy * bxy - pxy * byy) / det, (pxx * byy - pxy * bxy) / det
    crlb_speed, _, singular = _polar_crlbs(vxx - (bxx * ax + byx * ay),
                                           vxy - (bxx * cx + byx * cy),
                                           vyy - (bxy * cx + byy * cy),
                                           t.speed, _heading_trig(t.heading))
    position_singular = _singular(det, pxx, pyy)
    singular = ~position_singular & (singular | ~(crlb_speed > 0.0))
    veb = np.sqrt(np.where(position_singular | singular, math.inf, crlb_speed))
    cells = [(geom.POSITION_SINGULAR, position_singular), (geom.VELOCITY_SINGULAR, singular)]
    flags = geom.render_flags([(lk.node_id, lk.rx.id) for lk in links], codes, cells)
    if np.ndim(t.position) == 2:
        return {"veb_exact": veb, "flags": flags}
    return {"veb_exact": float(veb[0]), "flags": flags[0]}


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


def _velocity_sums(table: LinkTable, speed: float, trig):
    """(xx, xy, yy) of the velocity information summed over the links of a
    table, added in link order from zero, at the speed and the (n, D) (or
    (1, D)) _heading_trig of the headings."""
    total = [np.zeros((len(table), trig[0].shape[1])) for _ in range(3)]
    for used, terms in zip(table.used, table.velocity):
        if used.any():
            for tot, v in zip(total, _velocity_draws(terms, speed, trig)):
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
    raises NoInformationError. Given a velocity_table, whose caller renders
    the flags it wants (LinkTable.flags), flags holds the table's status
    codes unrendered, one row of L per position: (n, L).
    """
    if speed <= 0.0:
        raise UndefinedHeadingError("velocity bounds undefined at zero speed")
    if isinstance(position, LinkTable):
        table, block, flags = position, True, position.status.T
    else:
        table, block = velocity_table(s, position, rcs), np.ndim(position) == 2
        flags = table.flags()
    trig = _heading_trig(np.atleast_2d(np.asarray(headings, dtype=float)))
    total = _velocity_sums(table, speed, trig)
    crlb_speed, crlb_heading, singular = _polar_crlbs(*total, speed, trig)
    res = {"veb": np.sqrt(crlb_speed), "crlb_heading": crlb_heading,
           "singular": singular, "flags": flags}
    if block:
        return res
    return {key: value[0] for key, value in res.items()}
