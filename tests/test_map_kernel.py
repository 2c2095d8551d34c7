"""Chunked coverage maps against the per-cell route.

engine.heatmap evaluates chunks of cells through the block forms of the
per-link layers. Every cell must agree with engine.evaluate_metric at its
own position and cell index: values to 1e-12 relative, the same +inf cells
and identical flag strings, whatever the chunk size.
"""
import math
import string
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isacbounds import bounds, engine, geom
from isacbounds.engine import GridSpec, McConfig
from isacbounds.errors import ScenarioFormatError
from isacbounds.model import Node, Scenario, SystemParams

from conftest import load, map_rows

SCENARIOS = ("mono2", "mono4", "multistatic2", "multistatic3", "ring8")
METRICS = ("peb", "veb", "crlb_heading")
MC = McConfig(draws=16, seed=3)
# 6 m steps from -6 to 90: every shipped node position, the x = 42 and
# y = 42 baselines, and cells behind every array
GRID = GridSpec(-6.0, 90.0, -6.0, 90.0, 6.0)
# A velocity block budget under which GRID's 289 cells span at least three
# blocks of every scenario below, the last block and its last slice partial:
# 126-cell blocks of multistatic3 in 3-cell slices at 1,000 draws. The
# default budget makes 168-cell blocks of multistatic3, two for GRID.
SMALL_BLOCK_BYTES = 24 * 1024


def assert_matches_per_cell(s, grid, metric, mc, rows=None):
    if rows is None:
        rows = map_rows(engine.heatmap(s, grid, metric, mc))
    s = engine.normalize_power(s)
    cells = [(float(x), float(y)) for y in grid.ys() for x in grid.xs()]
    assert [(x, y) for x, y, _, _ in rows] == cells
    for index, ((x, y), (_, _, value, flag)) in enumerate(zip(cells, rows)):
        want, want_flag = engine.evaluate_metric(s, (x, y), metric, mc, index)
        assert flag == want_flag, (x, y)
        if math.isinf(want):
            assert value == want, (x, y)
        else:
            assert value == pytest.approx(want, rel=1e-12), (x, y)
    return rows


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("name", SCENARIOS)
def test_shipped_scenarios_match_per_cell_route(name, metric):
    rows = assert_matches_per_cell(load(name), GRID, metric, MC)
    flags = {flag for _, _, _, flag in rows}
    assert "" in flags and len(flags) > 1  # clean and flagged cells alike


def test_no_information_cells_carry_one_flag():
    s = Scenario(params=SystemParams(), nodes=(Node(id="a", position=(0.0, 0.0)),))
    rows = map_rows(engine.heatmap(s, GridSpec(-2.0, 2.0, -1.0, 1.0, 1.0), "veb", MC))
    behind = [(v, f) for x, _, v, f in rows if x < 0.0]
    assert behind and all(v == math.inf and f == "no-information" for v, f in behind)


def test_unknown_metric_rejected():
    with pytest.raises(ScenarioFormatError):
        engine.heatmap(load("mono2"), GRID, "rmse", MC)


@st.composite
def mixed_networks(draw):
    """Networks of 1-5 monostatic, tx and rx nodes on integer points of a
    small area, so that grid cells fall on nodes and on tx-rx baselines;
    orientations are random, so other cells lie behind arrays."""
    n = draw(st.integers(1, 5))
    ids = string.ascii_lowercase[:n]
    roles = draw(st.lists(st.sampled_from(("monostatic", "tx", "rx")), min_size=n, max_size=n))
    txs = [i for i, r in zip(ids, roles) if r == "tx"]
    coord = st.integers(0, 6).map(float)
    nodes = []
    for node_id, role in zip(ids, roles):
        tx_id = None
        if role == "rx":
            if not txs:
                role = "monostatic"
            else:
                tx_id = draw(st.sampled_from(txs))
        nodes.append(Node(id=node_id, position=(draw(coord), draw(coord)),
                          orientation=draw(st.floats(-math.pi, math.pi)), role=role,
                          tx_id=tx_id, power_scale=draw(st.floats(0.25, 4.0))))
    policy = draw(st.sampled_from(("fixed_per_node", "normalized_total")))
    try:
        return Scenario(params=SystemParams(), nodes=tuple(nodes), power_policy=policy)
    except ScenarioFormatError:  # no sensing link
        assume(False)


@settings(max_examples=40, deadline=None)
@given(s=mixed_networks(), data=st.data())
def test_random_mixed_networks_match_per_cell_route(s, data):
    metric = data.draw(st.sampled_from(METRICS))
    mc = McConfig(draws=data.draw(st.integers(1, 8)), seed=data.draw(st.integers(0, 9)))
    grid = GridSpec(-1.0, 7.0, -1.0, 7.0, 1.0)
    cells_per_chunk = data.draw(st.integers(1, 100))
    cell_bytes = 8 * (4 if metric == "peb" else mc.draws)
    with mock.patch.object(engine, "_CHUNK_BYTES", cell_bytes * cells_per_chunk):
        assert_matches_per_cell(s, grid, metric, mc)



@pytest.mark.parametrize("metric", ("veb", "crlb_heading"))
@pytest.mark.parametrize("name", ("mono4", "multistatic3", "ring8"))
def test_hoisted_velocity_blocks_match_per_cell_route(name, metric, monkeypatch):
    """At 1,000 draws a block's per-position table serves several slices of
    draws; the grid spans several blocks and ends in a partial block whose
    last slice is partial too."""
    mc = McConfig(draws=1000, seed=11)
    s = load(name)
    monkeypatch.setattr(engine, "_CHUNK_BYTES", SMALL_BLOCK_BYTES)
    with mock.patch.object(bounds, "velocity_table", wraps=bounds.velocity_table) as table, \
            mock.patch.object(bounds, "heading_velocity_metrics",
                              wraps=bounds.heading_velocity_metrics) as kernel:
        rows = map_rows(engine.heatmap(s, GRID, metric, mc))
    assert_matches_per_cell(s, GRID, metric, mc, rows)
    blocks = [len(c.args[1]) for c in table.call_args_list]
    slices = [len(c.args[1]) for c in kernel.call_args_list]
    assert len(blocks) >= 3 and sum(blocks) == len(rows) and blocks[-1] < blocks[0]
    assert sum(slices) == len(rows) and max(slices) < blocks[0] and slices[-1] < max(slices)
    flags = [flag for _, _, _, flag in rows]
    assert any("coincides with" in f for f in flags)
    assert any("out-of-field" in f for f in flags)
    if name == "multistatic3":
        assert any("baseline" in f for f in flags)
        assert any(value == math.inf for _, _, value, _ in rows)


def test_velocity_map_renders_each_block_flags_once(monkeypatch):
    """The per-slice kernel leaves a table's flags unrendered: a VEB map
    renders flags once per block, with the block's singular-draw counts."""
    mc = McConfig(draws=1000, seed=11)
    s = load("multistatic3")
    monkeypatch.setattr(engine, "_CHUNK_BYTES", SMALL_BLOCK_BYTES)
    with mock.patch.object(geom, "render_flags", wraps=geom.render_flags) as render, \
            mock.patch.object(bounds, "velocity_table", wraps=bounds.velocity_table) as table, \
            mock.patch.object(bounds, "heading_velocity_metrics",
                              wraps=bounds.heading_velocity_metrics) as kernel:
        rows = map_rows(engine.heatmap(s, GRID, "veb", mc))
    assert kernel.call_count > table.call_count == render.call_count >= 3
    first = kernel.call_args_list[0].args[1]
    flags = bounds.heading_velocity_metrics(s, first, mc.speed, mc.headings())["flags"]
    assert flags.shape == (len(first), len(first.links))
    assert_matches_per_cell(s, GRID, "veb", mc, rows)
