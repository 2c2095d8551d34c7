"""The eight sum-of-squares velocity terms against the per-kind reference form.

bounds._velocity_terms writes each link's velocity information kn * w w^T
as eight terms whatever the link's kind (num times the entries of w w^T,
den0 and two scaled normals m1, m2: kn's denominator at velocity v is
den0 + (m1 . v)^2 + (m2 . v)^2). The reference below is the direct form:
twelve terms per link and a per-kind denominator evaluated at the velocity
components. Per link, cell and heading, the (xx, xy, yy) entries of both
agree to 1e-12 relative to the link's entry scale (|xx| + |yy|), and both
are exactly zero where the link is unused.
"""
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isacbounds import bounds, engine, geom
from isacbounds.engine import GridSpec
from isacbounds.model import SPEED_OF_LIGHT as C
from isacbounds.model import Node, Scenario, SystemParams, TargetState

from conftest import load
from test_map_kernel import SCENARIOS, mixed_networks

REL = 1e-12
SPEED = 22.0


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def reference_terms(p, link, lc, used):
    """The twelve per-position terms num, den0, dxn, dyn, wxx, wxy, wyy,
    a_n, a_t, u2_q, dxt, dyt as (12, n, 1); a monostatic link fills the
    first seven."""
    fr = p.frame
    k, m, nr = fr.k_subcarriers, fr.m_symbols, p.n_rx_ant
    ts, df, lam = p.symbol_duration, p.subcarrier_spacing, p.wavelength
    eta = p.constellation.penalty
    snr = lc.snr[:, None]
    cos2 = np.cos(lc.geometry.doa_local)[:, None] ** 2
    r_tx, r_rx = lc.geometry.range_tx[:, None], lc.geometry.range_rx[:, None]
    dxn, dyn = lc.d_rx[0][:, None], lc.d_rx[1][:, None]
    terms = np.zeros((12,) + snr.shape)
    if link.kind == "monostatic":
        num = (8.0 * math.pi**2 * nr * k * m * ts**2 * (m**2 - 1) * (nr**2 - 1)) * snr * cos2
        den0 = (eta * 3.0 * (nr**2 - 1) * lam**2) * r_rx**2 * cos2
        terms[:7] = num, den0, dxn, dyn, dxn * dxn, dxn * dyn, dyn * dyn
    else:
        dxt, dyt = lc.d_tx[0][:, None], lc.d_tx[1][:, None]
        dot_tn = dxn * dxt + dyn * dyt
        ell = r_tx * (dxn * dxn + dyn * dyn) + r_rx * dot_tn
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
    terms[:, ~used] = 0.0
    terms[1, ~used] = 1.0
    return terms


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def reference_draws(p, kind, terms, vx, vy):
    """(xx, xy, yy) of kn * w w^T at velocity components vx, vy."""
    fr = p.frame
    k, m = fr.k_subcarriers, fr.m_symbols
    ts, df = p.symbol_duration, p.subcarrier_spacing
    eta = p.constellation.penalty
    num, den0, dxn, dyn, wxx, wxy, wyy, a_n, a_t, u2_q, dxt, dyt = terms
    if kind == "monostatic":
        kn = num / ((eta * 48.0 * ts**2 * (m**2 - 1)) * (dxn * vy - dyn * vx) ** 2 + den0)
    else:
        q_t = vy * dxt - vx * dyt
        kn = num / ((12.0 * df**2 * ts**2 * (k**2 - 1) * (m**2 - 1))
                    * (a_n * (vy * dxn - vx * dyn) + a_t * q_t) ** 2
                    + u2_q * q_t**2 + den0)
    return kn * wxx, kn * wxy, kn * wyy


def assert_entries_match(got, want):
    """got and want, (xx, xy, yy) of one link, agree to REL of the link's
    entry scale; exactly where that scale is zero."""
    got, want = np.array(got), np.array(want)
    scale = np.abs(want[0]) + np.abs(want[2])
    assert np.isfinite(scale).all()
    assert (np.abs(got - want) <= REL * scale).all()


def assert_table_matches_reference(s, cells, headings, speed):
    """Every link of s at (n, 2) cells and (n, D) headings: identical used
    masks, entries within REL and exact zeros where unused."""
    p = s.params
    t = TargetState(position=cells)
    table = bounds._link_rows(p, bounds.sensing_links(s), t, position=False, velocity=True)
    assert table.velocity.shape[1] == len(bounds.VELOCITY_TERMS) == 8
    got_rows = bounds._velocity_rows(table, speed, bounds._heading_trig(headings))
    vx, vy = speed * np.cos(headings), speed * np.sin(headings)
    for link, used, got in zip(table.links, table.used, got_rows):
        lc = bounds.link_constants(link, t, p)
        assert (used == (lc.status == geom.OK)).all()
        want = reference_draws(p, link.kind, reference_terms(p, link, lc, used), vx, vy)
        assert_entries_match(got, want)
        assert (got[:, ~used] == 0.0).all()


def test_shipped_scenarios_match_reference():
    grid = GridSpec(-6.0, 90.0, -6.0, 90.0, 1.0)
    cells = np.stack(np.meshgrid(grid.xs(), grid.ys()), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(5)
    for name in SCENARIOS:
        s = engine.normalize_power(load(name))
        headings = rng.uniform(-math.pi, math.pi, (len(cells), 8))
        assert_table_matches_reference(s, cells, headings, SPEED)


# Node d's array edge passes 1e-12 rad beside cell (4, 6), whose den0 (as
# cos^2 of the DoA) nearly vanishes, and one of that cell's seed-7 headings
# lies 8e-4 rad from radial, where (m1 . v)^2 is small. Written as harmonics
# in 2x, den0 + s^2 (a + b cos 2x + c sin 2x), the denominator cancels there
# and is 2.3e-11 off the reference; as a sum of squares, 2.9e-14.
EDGE_NETWORK = Scenario(params=SystemParams(), power_policy="fixed_per_node", nodes=(
    Node(id="a", position=(0.0, 0.0), orientation=0.5, role="tx"),
    Node(id="b", position=(6.0, 0.0), orientation=2.0, role="rx", tx_id="a"),
    Node(id="c", position=(0.0, 6.0), orientation=-0.7, role="monostatic"),
    Node(id="d", position=(3.0, 2.0), orientation=-0.24497866312586414, role="monostatic")))


@settings(max_examples=40, deadline=None)
@given(s=mixed_networks(), speed=st.floats(0.5, 60.0), seed=st.integers(0, 9))
@example(s=EDGE_NETWORK, speed=1.0, seed=7)
def test_random_mixed_networks_match_reference(s, speed, seed):
    grid = GridSpec(-1.0, 7.0, -1.0, 7.0, 1.0)
    cells = np.stack(np.meshgrid(grid.xs(), grid.ys()), axis=-1).reshape(-1, 2)
    headings = np.random.default_rng(seed).uniform(-math.pi, math.pi, (len(cells), 4))
    assert_table_matches_reference(engine.normalize_power(s), cells, headings, speed)


def test_node_velocity_efim_at_rest_matches_reference():
    """At speed 0 kn is num / den0: node_velocity_efim against the
    reference at zero velocity components, on every usable link of every
    shipped scenario at a spread of positions."""
    positions = [(x, y) for x in (-5.5, 10.25, 37.0, 61.5, 88.75) for y in (3.5, 42.0, 77.25)]
    checked = 0
    for name in SCENARIOS:
        s = engine.normalize_power(load(name))
        p = s.params
        for link in bounds.sensing_links(s):
            for position in positions:
                t = TargetState(position=position)
                lc = bounds.link_constants(link, t, p)
                if lc.status[0] != geom.OK:
                    continue
                got = bounds.node_velocity_efim(link, t, p)
                want = reference_draws(p, link.kind,
                                       reference_terms(p, link, lc, lc.status == geom.OK),
                                       0.0, 0.0)
                assert_entries_match((got[0, 0], got[0, 1], got[1, 1]),
                                     tuple(v[0, 0] for v in want))
                checked += 1
    assert checked > 50
