"""Coordinate transforms and analytic Jacobians.

Links local observables (delay, direction of arrival, Doppler shift) to the
global target position and velocity, for two-way links (co-located Tx/Rx)
and for separated Tx/Rx pairs. Local DoA is only valid inside the array
field of view (-pi/2, pi/2); targets behind the array raise OutOfFieldError.

local_doa, bis_observables and jac_bis_position also take an (n, 2) block of
target positions (a target whose position is one). They then do the same
arithmetic on (n,) arrays and return, in place of the raise, a status per
position: OK or the first degeneracy that applies, in the order of the codes
below. Given one position they compute a block of one and raise on its status.

The codes are also the package's one flag vocabulary: CODES maps each to
the exception and text the scalar forms raise and to the flag a network
bound reports instead, and render_flags turns an (L, n) array of link codes
and per-position cell codes into the flag strings of n positions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (InvalidBistaticRangeError, NoInformationError, OutOfFieldError,
                     SingularGeometryError, UndefinedHeadingError)
from .model import SPEED_OF_LIGHT, Node, TargetState, wrap_angle

C = SPEED_OF_LIGHT

# Denominator guard for the ellipse inversion, relative to the bistatic range.
BASELINE_DEGENERACY_RTOL = 1e-9

# Status of a target position for one link, where the scalar forms raise.
OK = 0
COINCIDENT = 1         # on the receiving (or monostatic) node
OUT_OF_FIELD = 2       # behind the receiving array
TX_COINCIDENT = 3      # on the transmitter of a separated pair
BASELINE = 4           # on a separated pair's tx-rx baseline: the ellipse degenerates
SINGULAR_JACOBIAN = 5  # a separated pair's position Jacobian is not invertible
# Codes of a position of a network bound (a cell), after the link codes.
NO_INFORMATION = 6     # no link informs the position
POSITION_SINGULAR = 7  # the summed position information is singular
VELOCITY_SINGULAR = 8  # the summed velocity information is singular

# code: (exception, raise text, flag text). {node} is the receiving node's
# id and {flag} the flag text; the raise text is the flag text where None.
# A cell code that only flags has no exception.
CODES = {
    COINCIDENT: (SingularGeometryError, None, "target coincides with node {node!r}"),
    OUT_OF_FIELD: (OutOfFieldError, "target behind array of node {node!r} (|doa| >= pi/2)",
                   "out-of-field"),
    TX_COINCIDENT: (SingularGeometryError, None, "target coincides with the tx node"),
    BASELINE: (SingularGeometryError, "{flag} (ellipse degenerates)",
               "target on the tx-rx baseline"),
    SINGULAR_JACOBIAN: (SingularGeometryError, None, "position jacobian of the pair is singular"),
    NO_INFORMATION: (NoInformationError, "no link contributes information", "no-information"),
    POSITION_SINGULAR: (None, None, "position-info-singular"),
    VELOCITY_SINGULAR: (None, None, "velocity-info-singular"),
}
# Flag of a Monte-Carlo cell with singular heading draws.
SINGULAR_DRAWS = "singular-draws={count}/{draws}"


def raise_status(status, node_id: str = "") -> None:
    """Raise the scalar forms' error for a status other than OK; node_id
    names the receiving node."""
    code = int(status)
    if code != OK:
        error, text, flag = CODES[code]
        raise error((text or "{flag}").format(flag=flag.format(node=node_id), node=node_id))


def render_flags(labels, codes: np.ndarray, cells=(), draws=None) -> list[tuple[str, ...]]:
    """Flags of n positions, a tuple of strings each. labels holds each of L
    links' (reporting node id, receiving node id) and codes an (L, n) array
    of their codes, OK where the link is used; cells holds (code, (n,) mask)
    pairs and draws (singular draw counts (n,), draws per position). A
    position gets each link's flag "<reporting node>: <text>", in link order,
    then each cell code where its mask is set and SINGULAR_DRAWS where its
    count is positive; a position where no link is used gets NO_INFORMATION
    alone."""
    flags = [()] * codes.shape[1]
    unused = codes != OK
    if not (cells or draws or unused.any()):  # the common case: nothing to flag
        return flags
    count, n_draws = draws or (np.zeros(codes.shape[1], dtype=int), 0)
    flagged = np.logical_or.reduce([unused.any(axis=0), count > 0] + [m for _, m in cells])
    for i in np.flatnonzero(flagged).tolist():
        if unused[:, i].all():
            flags[i] = (CODES[NO_INFORMATION][2],)
            continue
        flags[i] = tuple(f"{node}: " + CODES[code][2].format(node=rx)
                         for (node, rx), code in zip(labels, codes[:, i].tolist()) if code)
        flags[i] += tuple(CODES[code][2] for code, mask in cells if mask[i])
        if count[i]:
            flags[i] += (SINGULAR_DRAWS.format(count=count[i], draws=n_draws),)
    return flags


def positions(p) -> tuple[np.ndarray, bool]:
    """(an (n, 2) array of the positions, whether p was already a block):
    one position (x, y) gives a block of one."""
    xy = np.asarray(p, dtype=float)
    return xy.reshape(-1, 2), xy.ndim == 2


@dataclass(frozen=True)
class LocalObservables:
    """Observables of one link. The last four fields are populated only for
    separated Tx/Rx geometry (baseline and ellipse quantities). Fields are
    (n,) arrays in the block form of bis_observables."""

    delay: float          # s
    doa: float            # rad, in the receiver's local frame
    doppler: float        # Hz
    baseline: float | None = None        # m, Tx-Rx distance
    bistatic_range: float | None = None  # m, r_tx + r_rx
    look_angle: float | None = None      # rad, DoA measured from the Rx->Tx direction
    theta_shift: float | None = None     # rad, orientation minus Rx->Tx bearing


def global_to_local(p, node: Node) -> np.ndarray:
    """Express a global point in the node's local (boresight-aligned) frame;
    an (n, 2) block of points gives a (2, n) array."""
    xy = np.asarray(p, dtype=float)
    dx = xy[..., 0] - node.position[0]
    dy = xy[..., 1] - node.position[1]
    c, s = math.cos(node.orientation), math.sin(node.orientation)
    return np.array([dx * c + dy * s, -dx * s + dy * c])


def local_doa(node: Node, p):
    """(DoA in the node frame, range). Raises if coincident or out of field.

    For an (n, 2) block of positions: (doa, range, status) arrays, status
    COINCIDENT, OUT_OF_FIELD or OK."""
    xy, block = positions(p)
    lx, ly = global_to_local(xy, node)
    r = np.hypot(lx, ly)
    doa = np.arctan2(ly, lx)
    status = np.where(r == 0.0, COINCIDENT,
                      np.where(np.abs(doa) >= math.pi / 2, OUT_OF_FIELD, OK))
    if block:
        return doa, r, status
    raise_status(status[0], node.id)
    return float(doa[0]), float(r[0])


def mono_observables(node: Node, t: TargetState, wavelength: float) -> LocalObservables:
    """Two-way delay, local DoA, and Doppler for a co-located Tx/Rx node."""
    doa, r = local_doa(node, t.position)
    dx = t.position[0] - node.position[0]
    dy = t.position[1] - node.position[1]
    doppler = (2.0 / wavelength) * (dx * t.velocity[0] + dy * t.velocity[1]) / r
    return LocalObservables(delay=2.0 * r / C, doa=doa, doppler=doppler)


@np.errstate(divide="ignore", invalid="ignore")
def bis_observables(tx: Node, rx: Node, t: TargetState, wavelength: float):
    """One-way sum delay, Rx-local DoA, two-path Doppler, and the baseline /
    ellipse quantities of a separated Tx/Rx pair.

    For a target whose position is an (n, 2) block: (observables with (n,)
    array fields, status), status COINCIDENT, OUT_OF_FIELD, TX_COINCIDENT
    or OK."""
    xy, block = positions(t.position)
    px, py = xy[:, 0], xy[:, 1]
    dxt, dyt = px - tx.position[0], py - tx.position[1]
    dxr, dyr = px - rx.position[0], py - rx.position[1]
    r_tx = np.hypot(dxt, dyt)
    r_rx = np.hypot(dxr, dyr)
    doa, _, status = local_doa(rx, xy)
    status = np.where((status == OK) & (r_tx == 0.0), TX_COINCIDENT, status)
    vx, vy = t.velocity
    doppler = (1.0 / wavelength) * ((vx * dxt + vy * dyt) / r_tx + (vx * dxr + vy * dyr) / r_rx)
    baseline = math.hypot(tx.position[0] - rx.position[0], tx.position[1] - rx.position[1])
    beta = math.atan2(tx.position[1] - rx.position[1], tx.position[0] - rx.position[0])
    theta_shift = wrap_angle(rx.orientation - beta)
    fields = dict(delay=(r_tx + r_rx) / C, doa=doa, doppler=doppler,
                  bistatic_range=r_tx + r_rx, look_angle=wrap_angle(doa + theta_shift))
    if block:
        return LocalObservables(baseline=baseline, theta_shift=theta_shift, **fields), status
    raise_status(status[0], rx.id)
    return LocalObservables(baseline=baseline, theta_shift=theta_shift,
                            **{k: float(v[0]) for k, v in fields.items()})


def bistatic_range_to_distance(bistatic_range: float, baseline: float, look_angle: float) -> float:
    """Target-to-Rx distance from the range ellipse with foci at Tx and Rx."""
    if baseline < 0.0 or bistatic_range <= baseline:
        raise InvalidBistaticRangeError(
            f"bistatic range {bistatic_range} must exceed baseline {baseline}"
        )
    return (bistatic_range**2 - baseline**2) / (
        2.0 * (bistatic_range - baseline * math.cos(look_angle))
    )


def jac_mono_position(p_local) -> np.ndarray:
    """d(delay, doa)/d(local position) for a two-way link.

    Rows are (delay, doa), columns the local coordinates.
    """
    x, y = float(p_local[0]), float(p_local[1])
    r = math.hypot(x, y)
    if r == 0.0:
        raise SingularGeometryError("zero range")
    return np.array([
        [2.0 * x / (C * r), 2.0 * y / (C * r)],
        [-y / r**2, x / r**2],
    ])


@np.errstate(divide="ignore", invalid="ignore")
def jac_bis_position(obs: LocalObservables):
    """d(local position)/d(delay, doa) for a separated pair.

    Inverse-direction Jacobian: rows are the local coordinates, columns
    (delay, doa). Requires the ellipse quantities of bis_observables.
    Observables of a block give (a (2, 2, n) stack, status), status
    BASELINE where the ellipse degenerates, else OK.
    """
    if obs.bistatic_range is None:
        raise SingularGeometryError("observables carry no bistatic geometry")
    block = np.ndim(obs.bistatic_range) == 1
    rbar, th, thl = (np.reshape(v, -1) for v in (obs.bistatic_range, obs.doa, obs.look_angle))
    l, tsh = obs.baseline, obs.theta_shift
    cos_thl = np.cos(thl)
    guard = rbar - l * cos_thl
    status = np.where(guard <= BASELINE_DEGENERACY_RTOL * rbar, BASELINE, OK)
    den = 2.0 * guard**2
    ca = C * (l**2 + rbar**2 - 2.0 * l * rbar * cos_thl) / den
    cb = (l**2 - rbar**2) / den
    cos_th, sin_th = np.cos(th), np.sin(th)
    jac = np.array([
        [ca * cos_th, cb * (rbar * sin_th + l * math.sin(tsh))],
        [ca * sin_th, cb * (l * math.cos(tsh) - rbar * cos_th)],
    ])
    if block:
        return jac, status
    raise_status(status[0])
    return jac[:, :, 0]


def jac_rotation(angle: float) -> np.ndarray:
    """Global-to-local frame Jacobian (plain rotation, orthonormal)."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, s], [-s, c]])


def jac_mono_state(node: Node, t: TargetState, wavelength: float) -> np.ndarray:
    """d(doppler, delay, doa)/d(x, y, vx, vy) for a two-way link.

    Delay and DoA rows do not depend on velocity; the Doppler row couples
    position and velocity through the radial projection.
    """
    dx = t.position[0] - node.position[0]
    dy = t.position[1] - node.position[1]
    r = math.hypot(dx, dy)
    if r == 0.0:
        raise_status(COINCIDENT, node.id)
    vx, vy = t.velocity
    lam = wavelength
    return np.array([
        [2.0 / lam * dy * (dy * vx - dx * vy) / r**3,
         2.0 / lam * dx * (dx * vy - dy * vx) / r**3,
         2.0 / lam * dx / r,
         2.0 / lam * dy / r],
        [2.0 / C * dx / r, 2.0 / C * dy / r, 0.0, 0.0],
        [-dy / r**2, dx / r**2, 0.0, 0.0],
    ])


def jac_bis_state(tx: Node, rx: Node, t: TargetState, wavelength: float) -> np.ndarray:
    """d(doppler, delay, doa)/d(x, y, vx, vy) for a separated pair."""
    px, py = t.position
    xt, yt = px - tx.position[0], py - tx.position[1]
    xr, yr = px - rx.position[0], py - rx.position[1]
    r_tx = math.hypot(xt, yt)
    r_rx = math.hypot(xr, yr)
    if r_tx == 0.0 or r_rx == 0.0:
        raise SingularGeometryError("target coincides with tx or rx node")
    vx, vy = t.velocity
    lam = wavelength
    return np.array([
        [vx / lam * (yt**2 / r_tx**3 + yr**2 / r_rx**3)
         - vy / lam * (xt * yt / r_tx**3 + xr * yr / r_rx**3),
         -vx / lam * (xt * yt / r_tx**3 + xr * yr / r_rx**3)
         + vy / lam * (xt**2 / r_tx**3 + xr**2 / r_rx**3),
         xt / (lam * r_tx) + xr / (lam * r_rx),
         yt / (lam * r_tx) + yr / (lam * r_rx)],
        [xt / (C * r_tx) + xr / (C * r_rx), yt / (C * r_tx) + yr / (C * r_rx), 0.0, 0.0],
        [-yr / r_rx**2, xr / r_rx**2, 0.0, 0.0],
    ])


def jac_polar_velocity(v) -> np.ndarray:
    """d(vx, vy)/d(speed, heading); determinant equals the speed."""
    speed = math.hypot(float(v[0]), float(v[1]))
    if speed == 0.0:
        raise UndefinedHeadingError("polar velocity Jacobian undefined at zero speed")
    heading = math.atan2(float(v[1]), float(v[0]))
    c, s = math.cos(heading), math.sin(heading)
    return np.array([[c, -speed * s], [s, speed * c]])
