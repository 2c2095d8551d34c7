"""The batched subset scorer against the per-subset route it replaced.

Every subset of select_nodes / select_tx must score exactly (==) what
evaluate_metric gives on the subset's own power-normalized scenario, a
subset whose scenario fails validation or whose metric is unbounded must
score +inf, and the ranking must come out in the same order.
"""
import itertools
import math
import string
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from isacbounds import engine
from isacbounds.engine import McConfig, SelectionProblem
from isacbounds.errors import BoundsError, NoFeasibleSubsetError, ScenarioFormatError
from isacbounds.model import Node, Scenario, SystemParams

from conftest import load

SCENARIOS = ("mono2", "mono4", "multistatic2", "multistatic3", "ring8")
POLICIES = ("normalized_total", "fixed_per_node")
METRICS = ("peb", "veb", "crlb_heading")
# inside the area; on the tx1-rx1 and the tx1-rx2 baselines of the
# multistatic scenarios; behind the bottom node's array; on the bottom node
TARGETS = ((30.0, 40.0), (12.0, 51.0), (21.0, 21.0), (42.0, 42.0), (42.0, -5.0), (42.0, 0.0))
MC = McConfig(draws=24, seed=5)


def per_subset_ranking(s, subsets, target, metric, mc):
    """The per-subset route: rebuild, normalize and evaluate each subset."""
    scored = []
    for key, nodes in subsets:
        try:
            sub = engine.normalize_power(replace(s, nodes=nodes))
            value, _ = engine.evaluate_metric(sub, target, metric, mc)
        except BoundsError:
            value = math.inf
        scored.append((key, value))
    scored.sort(key=lambda kv: (kv[1], kv[0]))
    return tuple(scored)


def node_subsets(s, choose, candidates=None):
    by_id = {n.id: n for n in s.nodes}
    ids = sorted(candidates or by_id)
    return [(key, tuple(by_id[i] for i in key)) for key in itertools.combinations(ids, choose)]


def tx_subsets(s):
    return [((tx_id,), tuple(replace(n, role="tx", tx_id=None) if n.id == tx_id
                             else replace(n, role="rx", tx_id=tx_id) for n in s.nodes))
            for tx_id in sorted(n.id for n in s.nodes)]


def assert_same(select, expected):
    """select() ranks like expected, value for value, or raises when every
    expected value is +inf."""
    if all(math.isinf(v) for _, v in expected):
        with pytest.raises(NoFeasibleSubsetError):
            select()
        return
    result = select()
    got = dict(result.ranking)
    assert len(got) == len(result.ranking) == len(expected)
    for key, value in expected:
        assert got[key] == value or (math.isnan(got[key]) and math.isnan(value)), key
    if not any(math.isnan(v) for _, v in expected):
        assert result.ranking == expected
        assert (result.best, result.value) == expected[0]


def with_policy(s, policy):
    """The scenario under a power policy; fixed_per_node also gets unequal
    per-node power scales, which the scorer must carry per link."""
    if policy == "normalized_total":
        return replace(s, power_policy=policy)
    nodes = tuple(replace(n, power_scale=0.5 + 0.25 * i) for i, n in enumerate(s.nodes))
    return replace(s, nodes=nodes, power_policy=policy)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", SCENARIOS)
def test_select_nodes_matches_per_subset_route(name, policy):
    s = with_policy(load(name), policy)
    sizes = (1, 2, 4, 7, 8) if len(s.nodes) == 8 else range(1, len(s.nodes) + 1)
    for target, metric, choose in itertools.product(TARGETS, METRICS, sizes):
        problem = SelectionProblem(scenario=s, choose=choose, metric=metric,
                                   target=target, mc=MC)
        expected = per_subset_ranking(s, node_subsets(s, choose), target, metric, MC)
        assert_same(lambda: engine.select_nodes(problem), expected)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", SCENARIOS)
def test_select_tx_matches_per_subset_route(name, policy):
    s = with_policy(load(name), policy)
    for target, metric in itertools.product(TARGETS, METRICS):
        expected = per_subset_ranking(s, tx_subsets(s), target, metric, MC)
        assert_same(lambda: engine.select_tx(s, target, metric, MC), expected)


@pytest.mark.parametrize("policy", POLICIES)
def test_candidate_subset_matches_per_subset_route(policy):
    s = with_policy(load("multistatic3"), policy)
    candidates = ("rx3", "tx1", "rx1")
    for target, metric, choose in itertools.product(TARGETS, METRICS, (1, 2, 3)):
        problem = SelectionProblem(scenario=s, choose=choose, metric=metric, target=target,
                                   mc=MC, candidates=candidates)
        expected = per_subset_ranking(s, node_subsets(s, choose, candidates), target, metric, MC)
        assert_same(lambda: engine.select_nodes(problem), expected)


@pytest.mark.parametrize("metric", ("veb", "crlb_heading"))
@pytest.mark.parametrize("name", ("mono4", "multistatic3"))
def test_one_subset_chunks_match_per_subset_route(name, metric):
    # enough draws that a subset's velocity sums fill a whole chunk
    mc = McConfig(draws=1400, seed=2)
    assert 3 * mc.draws * 8 > engine._CHUNK_BYTES
    s = load(name)
    for target in TARGETS[:3]:
        problem = SelectionProblem(scenario=s, choose=2, metric=metric, target=target, mc=mc)
        expected = per_subset_ranking(s, node_subsets(s, 2), target, metric, mc)
        assert_same(lambda: engine.select_nodes(problem), expected)


def test_rx_only_subsets_score_inf_under_both_policies(multistatic3):
    for policy in POLICIES:
        s = with_policy(multistatic3, policy)
        res = engine.select_nodes(SelectionProblem(scenario=s, choose=3, metric="veb",
                                                   target=(30.0, 40.0), mc=MC))
        assert [key for key, v in res.ranking if math.isinf(v)] == [("rx1", "rx2", "rx3")]


def test_no_feasible_subset_raises(multistatic3):
    # every 1-subset is an rx without its tx or a tx without a receiver
    with pytest.raises(NoFeasibleSubsetError):
        engine.select_nodes(SelectionProblem(scenario=multistatic3, choose=1, metric="peb",
                                             target=(30.0, 40.0), mc=MC))


def test_duplicate_candidates_rejected(mono4):
    with pytest.raises(ScenarioFormatError):
        SelectionProblem(scenario=mono4, choose=2, metric="peb", target=(30.0, 40.0),
                         candidates=("bs1", "bs2", "bs1"))


def test_unknown_metric_rejected_by_select_tx(mono4):
    with pytest.raises(ScenarioFormatError):
        engine.select_tx(mono4, (30.0, 40.0), "speed", MC)


@st.composite
def mixed_networks(draw):
    """Small networks of monostatic, tx and rx nodes with unequal fixed
    power scales; ids are shuffled so node order differs from id order."""
    n = draw(st.integers(2, 6))
    ids = draw(st.permutations(string.ascii_lowercase[:8]))[:n]
    roles = draw(st.lists(st.sampled_from(("monostatic", "tx", "rx")), min_size=n, max_size=n))
    txs = [i for i, r in zip(ids, roles) if r == "tx"]
    coord = st.floats(0.0, 84.0)
    nodes = []
    for node_id, role in zip(ids, roles):
        tx_id = None
        if role == "rx":
            if txs:
                tx_id = draw(st.sampled_from(txs))
            else:
                role = "monostatic"
        nodes.append(Node(id=node_id, position=(draw(coord), draw(coord)),
                          orientation=draw(st.floats(-math.pi, math.pi)), role=role,
                          tx_id=tx_id, power_scale=draw(st.floats(0.25, 4.0))))
    try:
        return Scenario(params=SystemParams(), nodes=tuple(nodes), power_policy="fixed_per_node")
    except ScenarioFormatError:  # no sensing link
        assume(False)


@settings(max_examples=60, deadline=None)
@given(s=mixed_networks(), data=st.data())
def test_random_mixed_networks_match_per_subset_route(s, data):
    # half-metre points: on nodes and their baselines now and then, and a
    # hair's breadth off a node when a node coordinate is subnormal
    half_metres = st.integers(-20, 188).map(lambda v: v / 2.0)
    target = (data.draw(half_metres), data.draw(half_metres))
    metric = data.draw(st.sampled_from(METRICS))
    choose = data.draw(st.integers(1, len(s.nodes)))
    mc = McConfig(draws=8, seed=data.draw(st.integers(0, 9)))
    problem = SelectionProblem(scenario=s, choose=choose, metric=metric, target=target, mc=mc)
    expected = per_subset_ranking(s, node_subsets(s, choose), target, metric, mc)
    assert_same(lambda: engine.select_nodes(problem), expected)
    expected = per_subset_ranking(s, tx_subsets(s), target, metric, mc)
    assert_same(lambda: engine.select_tx(s, target, metric, mc), expected)
