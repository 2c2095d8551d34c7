"""Metamorphic laws of the network bounds on random mixed-role networks.

Information from independent links adds and is positive semidefinite, and
the bounds depend on the geometry only through distances and angles, so:

- a rigid motion of the nodes and the target together changes no bound;
- under fixed_per_node, four times the power halves the PEB;
- adding a node never raises the PEB, the VEB at a given velocity or the
  velocity bounds of any heading draw, and never makes a finite one inf;
- the VEB of the summed 4x4 state information never exceeds the rank-one
  VEB of the same links.

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
from isacbounds.errors import NoInformationError
from isacbounds.model import Node, TargetState

from test_map_kernel import mixed_networks

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

