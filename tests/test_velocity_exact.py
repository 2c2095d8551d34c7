"""The exact joint velocity bound against a per-point, per-kind reference.

bounds.network_velocity_bounds_exact sums every link's (x, y, vx, vy)
information J^T diag(efim) J from one state Jacobian for both kinds of link
(geom.jac_state), at a block of positions, and removes position by a
closed-form 2x2 Schur complement. The reference below is the route it
replaced: per point, one Jacobian per link kind, a numeric solve for the
Schur complement, and the speed bound read from the polar transform of the
velocity information. Both raise, flag and return +inf alike, and finite
bounds agree to 1e-10 relative, at every point of the shipped scenarios,
and on random networks wherever the summed 4x4 is not singular to roundoff
(where it is ill-conditioned, to the roundoff of its condition number). On
one position the bound equals its value in a block.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isacbounds import bounds, engine, geom
from isacbounds.engine import GridSpec
from isacbounds.errors import NoInformationError
from isacbounds.link import efim_diagonal
from isacbounds.model import SPEED_OF_LIGHT as C
from isacbounds.model import TargetState

from conftest import load
from test_map_kernel import SCENARIOS, mixed_networks

REL = 1e-10
# Beyond this condition number of the summed 4x4 (block_condition) the two
# routes' roundoff may decide differently whether the bound is finite; no
# state of the random networks lies between 1e8 and 1e12.
MAX_COND = 1e12
# Either route's relative roundoff grows as eps times that condition number,
# which passes REL at about this one.
REL_COND = 1e6


def jac_mono_state(node, t, wavelength):
    """d(doppler, delay, doa)/d(x, y, vx, vy) of a two-way link."""
    dx = t.position[0] - node.position[0]
    dy = t.position[1] - node.position[1]
    r = math.hypot(dx, dy)
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


def jac_bis_state(tx, rx, t, wavelength):
    """d(doppler, delay, doa)/d(x, y, vx, vy) of a separated pair."""
    px, py = t.position
    xt, yt = px - tx.position[0], py - tx.position[1]
    xr, yr = px - rx.position[0], py - rx.position[1]
    r_tx = math.hypot(xt, yt)
    r_rx = math.hypot(xr, yr)
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


def link_state_info(link, t, p):
    """4x4 information over (x, y, vx, vy) of one link at one position."""
    lc = bounds.link_constants(link, t, p)
    e3 = np.diag([v[0] for v in efim_diagonal(p, lc.snr, lc.geometry.doa_local)])
    if link.kind == "monostatic":
        j = jac_mono_state(link.rx, t, p.wavelength)
    else:
        j = jac_bis_state(link.tx, link.rx, t, p.wavelength)
    return j.T @ e3 @ j


@np.errstate(over="ignore")  # the polar quotient, where the 4x4 is singular to roundoff
def reference_exact(s, t):
    """(veb_exact, flags, summed 4x4) at one position; raises
    NoInformationError where no link has constants."""
    p, links = s.params, bounds.sensing_links(s)
    status = np.array([bounds.link_constants(link, t, p).status for link in links])
    kept = ~bounds._no_constants(status)
    if not kept.any():
        geom.raise_status(geom.NO_INFORMATION)
    total = np.zeros((4, 4))
    for link, keep in zip(links, kept[:, 0]):
        if keep:
            total += link_state_info(link, t, p)
    i_p, i_pv, i_v = total[:2, :2], total[:2, 2:], total[2:, 2:]
    veb, code = math.inf, geom.POSITION_SINGULAR
    if not bounds._singular(i_p[0, 0] * i_p[1, 1] - i_p[0, 1] * i_p[1, 0], i_p[0, 0], i_p[1, 1]):
        j_pol = geom.jac_polar_velocity(t.velocity)
        m_pol = j_pol.T @ (i_v - i_pv.T @ np.linalg.solve(i_p, i_pv)) @ j_pol
        det = m_pol[0, 0] * m_pol[1, 1] - m_pol[0, 1] * m_pol[1, 0]
        code = geom.VELOCITY_SINGULAR
        if not bounds._singular(det, m_pol[0, 0], m_pol[1, 1]) and m_pol[1, 1] > 0.0:
            veb, code = math.sqrt(m_pol[1, 1] / det), geom.OK
    labels = [(link.node_id, link.rx.id) for link in links]
    flags = geom.render_flags(labels, np.where(kept, geom.OK, status),
                              [(code, np.array([code != geom.OK]))])
    return veb, flags[0], total


def block_condition(total):
    """Condition number of the 4x4 with its position and its velocity block
    each scaled to unit mean diagonal, so that, like the bound, it does not
    depend on the frame's orientation (scaling each axis on its own would
    hide an axis that holds only roundoff, such as vy where every link's
    Doppler row has a zero vy entry); inf where a block's trace is not
    positive."""
    d = np.repeat([np.trace(total[:2, :2]), np.trace(total[2:, 2:])], 2) / 2.0
    if not (d > 0.0).all():
        return math.inf
    return np.linalg.cond(total / np.sqrt(np.outer(d, d)))


def check_point(s, t, strict=True):
    """The exact bound at one position against the reference: the same
    raise, and the same flags and inf pattern and values within REL; unless
    strict, only where the summed 4x4 is not singular to roundoff, and
    within the roundoff of its condition number where that exceeds
    REL_COND. Returns the exact bound's result, None where both raise."""
    try:
        want, want_flags, total = reference_exact(s, t)
    except NoInformationError:
        try:
            bounds.network_velocity_bounds_exact(s, t)
        except NoInformationError:
            return None
        raise AssertionError(f"no raise at {t.position}")
    got = bounds.network_velocity_bounds_exact(s, t)
    cond = 0.0 if strict else block_condition(total)
    if cond > MAX_COND:
        return got
    assert got["flags"] == want_flags, t.position
    assert math.isinf(got["veb_exact"]) == math.isinf(want), t.position
    if math.isfinite(want):
        assert abs(got["veb_exact"] - want) <= REL * max(1.0, cond / REL_COND) * want, t.position
    return got


def grid_cells(step, lo=-6.0, hi=90.0):
    grid = GridSpec(lo, hi, lo, hi, step)
    return np.stack(np.meshgrid(grid.xs(), grid.ys()), axis=-1).reshape(-1, 2)


def test_shipped_scenarios_match_reference():
    rng = np.random.default_rng(22)
    cells = grid_cells(4.0)
    flagged = bounded = 0
    for name in SCENARIOS:
        s = engine.normalize_power(load(name))
        speeds = rng.uniform(1.0, 30.0, len(cells))
        headings = rng.uniform(-math.pi, math.pi, len(cells))
        for cell, speed, heading in zip(cells, speeds, headings):
            got = check_point(s, TargetState(position=cell, velocity=(
                speed * math.cos(heading), speed * math.sin(heading))))
            if got is not None:
                flagged += bool(got["flags"])
                bounded += math.isfinite(got["veb_exact"])
    assert flagged > 100 and bounded > 1000  # clean and flagged points alike


@settings(max_examples=40, deadline=None)
@given(s=mixed_networks(), speed=st.floats(0.5, 60.0), heading=st.floats(-math.pi, math.pi))
def test_random_mixed_networks_match_reference(s, speed, heading):
    s = engine.normalize_power(s)
    velocity = (speed * math.cos(heading), speed * math.sin(heading))
    cells = grid_cells(1.0, -1.0, 7.0)
    block = bounds.network_velocity_bounds_exact(s, TargetState(position=cells,
                                                                velocity=velocity))
    assert len(block["flags"]) == len(cells)
    for i, cell in enumerate(cells):
        got = check_point(s, TargetState(position=cell, velocity=velocity), strict=False)
        if got is None:  # no link has constants: the block flags it
            assert block["veb_exact"][i] == math.inf
            assert block["flags"][i] == (geom.CODES[geom.NO_INFORMATION][2],)
        else:
            assert block["veb_exact"][i] == got["veb_exact"]
            assert block["flags"][i] == got["flags"]
