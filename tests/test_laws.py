"""Metamorphic laws of the network bounds on random mixed-role networks.

Information from independent links adds and is positive semidefinite, and
the bounds depend on the geometry only through distances and angles, so:

- a rigid motion of the nodes and the target together changes no bound;
- under fixed_per_node, four times the power halves the PEB;
- adding a node never raises the PEB, the VEB at a given velocity or the
  velocity bounds of any heading draw, and never makes a finite one inf;
- the VEB of the summed 4x4 state information never exceeds the rank-one
  VEB of the same links;
- on every shipped scenario, headings x and x + pi give the same VEB and
  heading CRLB: a link's velocity information depends on the heading only
  through 2x;
- on every shipped scenario, the exact VEB at v and at -v is the same: the
  Doppler row's position entries are odd in v and its velocity entries do
  not depend on v, so the Schur complement of the summed 4x4 is even in v;
- on every shipped scenario, a monostatic node and a tx/rx pair at its
  position and orientation give the same PEB, VEB and heading CRLB and the
  same inf and flagged cells: a co-located node is a pair whose tx is its rx.

Targets sit at fractional offsets (0.37, 0.61) from the integer points the
nodes sit on: every line through two such points (a tx-rx baseline among
them) passes more than 1 mm from every target, so no target lies on or
next to a node or a baseline, where a bound changes discontinuously.
"""
import math
from dataclasses import replace

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isacbounds import bounds, engine
from isacbounds.engine import GridSpec
from isacbounds.errors import NoInformationError
from isacbounds.model import Node, TargetState

from conftest import load
from test_map_kernel import SCENARIOS, mixed_networks

REL = 1e-9
HEADINGS = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)
positions = st.tuples(st.integers(-1, 6), st.integers(-1, 6)).map(
    lambda p: (p[0] + 0.37, p[1] + 0.61))
velocities = st.tuples(st.floats(1.0, 30.0), st.floats(-math.pi, math.pi)).map(
    lambda v: (v[0] * math.cos(v[1]), v[0] * math.sin(v[1])))


def fixed(s):
    return replace(s, power_policy="fixed_per_node")


def no_higher(big, small):
    """big <= small up to roundoff, elementwise; a finite small stays finite."""
    big, small = np.asarray(big), np.asarray(small)
    finite = np.isfinite(small)
    assert np.isfinite(big[finite]).all()
    assert (big[finite] <= small[finite] * (1.0 + REL)).all()


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert (np.isinf(a) == np.isinf(b)).all()
    np.testing.assert_allclose(a[np.isfinite(a)], b[np.isfinite(b)], rtol=REL)


def report(s, t):
    try:
        return bounds.evaluate_bounds(engine.normalize_power(s), t)
    except NoInformationError:
        assume(False)


@settings(max_examples=60, deadline=None)
@given(s=mixed_networks(), pos=positions, vel=velocities,
       angle=st.floats(-math.pi, math.pi), shift=st.tuples(st.floats(-50, 50), st.floats(-50, 50)))
def test_rigid_motion_leaves_bounds_unchanged(s, pos, vel, angle, shift):
    c, sn = math.cos(angle), math.sin(angle)

    def spin(p):
        return (c * p[0] - sn * p[1], sn * p[0] + c * p[1])

    def move(p):
        x, y = spin(p)
        return (x + shift[0], y + shift[1])

    moved = replace(s, nodes=tuple(replace(n, position=move(n.position),
                                           orientation=n.orientation + angle) for n in s.nodes))
    a = report(s, TargetState(position=pos, velocity=vel))
    b = report(moved, TargetState(position=move(pos), velocity=spin(vel)))
    # the motion's roundoff, amplified by the condition number of the
    # summed information, stays below the tolerance where that is < 1e4
    for before, after, info in ((a.peb, b.peb, a.position_efim), (a.veb, b.veb, a.velocity_efim)):
        if np.linalg.cond(info) < 1e4:
            same(after, before)


@settings(max_examples=40, deadline=None)
@given(s=mixed_networks(), pos=positions)
def test_four_times_the_power_halves_the_peb(s, pos):
    s = fixed(s)
    louder = replace(s, params=replace(s.params, total_power=4.0 * s.params.total_power))
    t = TargetState(position=pos)
    same(report(louder, t).peb, report(s, t).peb / 2.0)


@st.composite
def extra_nodes(draw, s):
    """A node to add to s: monostatic, a tx, or an rx of one of s's txs."""
    txs = [n.id for n in s.nodes if n.role == "tx"]
    role = draw(st.sampled_from(("monostatic", "tx", "rx") if txs else ("monostatic", "tx")))
    coord = st.integers(0, 6).map(float)
    return Node(id="new", position=(draw(coord), draw(coord)),
                orientation=draw(st.floats(-math.pi, math.pi)), role=role,
                tx_id=draw(st.sampled_from(txs)) if role == "rx" else None,
                power_scale=draw(st.floats(0.25, 4.0)))


@settings(max_examples=80, deadline=None)
@given(s=mixed_networks(), pos=positions, vel=velocities, data=st.data())
def test_adding_a_node_never_raises_a_bound(s, pos, vel, data):
    small = fixed(s)
    big = replace(small, nodes=small.nodes + (data.draw(extra_nodes(small)),))
    t = TargetState(position=pos, velocity=vel)
    a, b = report(small, t), report(big, t)
    no_higher([b.peb, b.veb, b.crlb_heading], [a.peb, a.veb, a.crlb_heading])
    speed = math.hypot(*vel)
    ha = bounds.heading_velocity_metrics(small, pos, speed, HEADINGS)
    hb = bounds.heading_velocity_metrics(big, pos, speed, HEADINGS)
    for key in ("veb", "crlb_heading"):
        no_higher(hb[key], ha[key])
    assert not (hb["singular"] & ~ha["singular"]).any()


@settings(max_examples=60, deadline=None)
@given(s=mixed_networks(), pos=positions, vel=velocities)
def test_exact_veb_never_exceeds_rank_one_veb(s, pos, vel):
    s = engine.normalize_power(s)
    t = TargetState(position=pos, velocity=vel)
    try:
        rank_one = bounds.network_velocity_bounds(s, t)["veb"]
    except NoInformationError:
        assume(False)
    exact = bounds.network_velocity_bounds_exact(s, t)["veb_exact"]
    if math.isfinite(rank_one):
        assert exact <= rank_one * (1.0 + REL)



def test_opposite_headings_give_the_same_velocity_bounds():
    grid = GridSpec(-6.0, 90.0, -6.0, 90.0, 2.0)
    cells = np.stack(np.meshgrid(grid.xs(), grid.ys()), axis=-1).reshape(-1, 2)
    headings = np.random.default_rng(7).uniform(-math.pi, math.pi, (len(cells), 16))
    for name in SCENARIOS:
        s = engine.normalize_power(load(name))
        a = bounds.heading_velocity_metrics(s, cells, 22.0, headings)
        b = bounds.heading_velocity_metrics(s, cells, 22.0, headings + math.pi)
        assert (a["singular"] == b["singular"]).all() and not a["singular"].all()
        for key in ("veb", "crlb_heading"):
            assert (np.isinf(a[key]) == a["singular"]).all()
            np.testing.assert_allclose(b[key][~b["singular"]], a[key][~a["singular"]],
                                       rtol=1e-8)


def test_opposite_velocities_give_the_same_exact_veb():
    grid = GridSpec(-6.0, 90.0, -6.0, 90.0, 2.0)
    cells = np.stack(np.meshgrid(grid.xs(), grid.ys()), axis=-1).reshape(-1, 2)
    for name in SCENARIOS:
        s = engine.normalize_power(load(name))
        for vx, vy in ((22.0, 0.0), (-3.0, 15.0), (7.5, -9.25)):
            a = bounds.network_velocity_bounds_exact(s, TargetState(position=cells,
                                                                    velocity=(vx, vy)))
            b = bounds.network_velocity_bounds_exact(s, TargetState(position=cells,
                                                                    velocity=(-vx, -vy)))
            assert a["flags"] == b["flags"]
            finite = np.isfinite(a["veb_exact"])
            assert (np.isfinite(b["veb_exact"]) == finite).all() and finite.any()
            np.testing.assert_allclose(b["veb_exact"][finite], a["veb_exact"][finite],
                                       rtol=1e-12)


def as_pairs(s):
    """s with every monostatic node replaced by a tx node and an rx node of
    its own at the same position and orientation, in the node's place."""
    nodes = []
    for n in s.nodes:
        if n.role != "monostatic":
            nodes.append(n)
            continue
        tx = replace(n, id=f"{n.id}.tx", role="tx")
        nodes += [tx, replace(n, role="rx", tx_id=tx.id)]
    return replace(s, nodes=tuple(nodes))


def condition(table, speed, headings):
    """Condition number of the summed velocity information of a
    velocity_table at the speed and (n, D) headings."""
    xx, xy, yy = bounds._velocity_sums(table, speed, bounds._heading_trig(headings))
    half_trace = 0.5 * (xx + yy)
    root = np.sqrt(np.maximum(half_trace**2 - (xx * yy - xy * xy), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        return (half_trace + root) / (half_trace - root)


def test_colocated_node_equals_a_pair_at_its_place():
    # A co-located node's two ranges are its one local-frame range, a
    # pair's tx range is computed in the global frame: they can differ in
    # the last bit, and the velocity bounds amplify that by the condition
    # number kappa of the summed velocity information. So the velocity
    # bounds agree to 1e-12 where kappa <= 100 (most draws) and to
    # 1e-14 kappa beyond (measured: below 1.1e-15 kappa)
    grid = GridSpec(-6.0, 90.0, -6.0, 90.0, 2.0)
    cells = np.stack(np.meshgrid(grid.xs(), grid.ys()), axis=-1).reshape(-1, 2)
    headings = np.random.default_rng(11).uniform(-math.pi, math.pi, (len(cells), 16))
    for name in SCENARIOS:
        s = engine.normalize_power(load(name))
        pairs = engine.normalize_power(as_pairs(load(name)))
        a = bounds.evaluate_bounds(s, TargetState(position=cells))
        b = bounds.evaluate_bounds(pairs, TargetState(position=cells))
        assert [bool(f) for f in a.flags] == [bool(f) for f in b.flags]
        finite = np.isfinite(a.peb)
        assert (np.isfinite(b.peb) == finite).all() and finite.any()
        np.testing.assert_allclose(b.peb[finite], a.peb[finite], rtol=1e-12)
        va = bounds.heading_velocity_metrics(s, cells, 22.0, headings)
        vb = bounds.heading_velocity_metrics(pairs, cells, 22.0, headings)
        assert [bool(f) for f in va["flags"]] == [bool(f) for f in vb["flags"]]
        assert (va["singular"] == vb["singular"]).all() and not va["singular"].all()
        finite = ~va["singular"]
        kappa = condition(bounds.velocity_table(s, cells), 22.0, headings)[finite]
        rtol = 1e-12 * np.maximum(1.0, kappa / 100.0)
        for key in ("veb", "crlb_heading"):
            assert (np.isinf(va[key]) == va["singular"]).all()
            assert (np.isinf(vb[key]) == vb["singular"]).all()
            want, got = va[key][finite], vb[key][finite]
            assert (np.abs(got - want) <= rtol * want).all()
