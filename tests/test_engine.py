import json
import math
from dataclasses import replace

import numpy as np
import pytest

from isacbounds import (
    GridSpec,
    McConfig,
    SelectionProblem,
    TargetState,
    bounds,
    engine,
)
from isacbounds.errors import ScenarioFormatError


class TestLoadScenario:
    def test_minimal_document_gets_defaults(self):
        s = engine.load_scenario(
            '{"nodes": [{"id": "a", "position": [0, 0]}]}')
        assert s.params.active_subcarriers == 3168
        assert s.params.carrier_freq == 28e9
        assert s.nodes[0].role == "monostatic"
        assert s.power_policy == "fixed_per_node"

    def test_degrees_converted(self):
        s = engine.load_scenario(
            '{"nodes": [{"id": "a", "position": [0, 0], "orientation_deg": 90}]}')
        assert s.nodes[0].orientation == pytest.approx(math.pi / 2)

    def test_unknown_key_rejected_with_location(self):
        doc = '{"nodes": [{"id": "a", "position": [0, 0], "orientatoin_deg": 9}]}'
        with pytest.raises(ScenarioFormatError, match=r"nodes\[0\]"):
            engine.load_scenario(doc)

    def test_unknown_param_rejected(self):
        doc = '{"params": {"carier_freq": 1e9}, "nodes": [{"id": "a", "position": [0, 0]}]}'
        with pytest.raises(ScenarioFormatError, match="params"):
            engine.load_scenario(doc)

    def test_rx_referencing_missing_tx(self):
        doc = ('{"nodes": [{"id": "a", "position": [0, 0], "role": "rx", '
               '"tx_id": "nope"}, {"id": "b", "position": [5, 5]}]}')
        with pytest.raises(ScenarioFormatError):
            engine.load_scenario(doc)

    def test_invalid_json(self):
        with pytest.raises(ScenarioFormatError):
            engine.load_scenario("{nodes: [")

    @pytest.mark.parametrize("node", ['"position": [NaN, 0]', '"position": [0, Infinity]',
                                      '"position": [0, 0], "orientation_deg": NaN',
                                      '"position": [0, 0], "power_scale": NaN'])
    def test_non_finite_node_value_rejected(self, node):
        with pytest.raises(ScenarioFormatError, match="finite"):
            engine.load_scenario('{"nodes": [{"id": "a", %s}]}' % node)

    def test_round_trip(self, multistatic3, ring8):
        for s in (multistatic3, ring8):
            assert engine.load_scenario(engine.dump_scenario(s)) == s

    def test_round_trip_via_text(self, mono4):
        text = json.dumps(engine.dump_scenario(mono4))
        assert engine.load_scenario(text) == mono4

    def test_power_scale_under_normalized_total_rejected(self):
        doc = {"nodes": [{"id": "a", "position": [0, 0]},
                         {"id": "b", "position": [5, 5], "power_scale": 0.5}],
               "power_policy": "normalized_total"}
        with pytest.raises(ScenarioFormatError, match=r"nodes\[1\] \('b'\): power_scale"):
            engine.load_scenario(doc)
        doc["power_policy"] = "fixed_per_node"
        assert engine.load_scenario(doc).nodes[1].power_scale == 0.5

    def test_normalized_scenario_dumps_without_power_scale(self, mono4):
        doc = engine.dump_scenario(engine.normalize_power(mono4))
        assert not any("power_scale" in nd for nd in doc["nodes"])
        assert engine.load_scenario(doc) == mono4

    def test_constellation_names_and_points(self):
        s = engine.load_scenario(
            '{"params": {"constellation": "16qam"}, '
            '"nodes": [{"id": "a", "position": [0, 0]}]}')
        assert s.params.constellation.penalty == pytest.approx(17.0 / 9.0, rel=1e-12)
        rt = engine.load_scenario(engine.dump_scenario(s))
        assert rt.params.constellation == s.params.constellation


class TestNormalizePower:
    def test_four_monostatic_nodes_share_budget(self, mono4):
        s = engine.normalize_power(mono4)
        assert all(n.power_scale == 0.25 for n in s.nodes)
        budget = s.params.frac_subcarriers * s.params.total_power
        total = math.fsum(n.power_scale * budget for n in s.nodes
                          if n.role in ("monostatic", "tx"))
        assert total == budget  # power-of-two share: exact

    def test_single_tx_keeps_full_budget(self, multistatic3):
        s = engine.normalize_power(multistatic3)
        tx = s.node("tx1")
        assert tx.power_scale == 1.0
        assert all(n.power_scale == 1.0 for n in s.nodes)

    def test_three_transmitters_conserve_budget(self, params):
        from isacbounds.model import Node, Scenario
        nodes = tuple(Node(id=f"n{i}", position=(float(i) * 10.0, 0.0))
                      for i in range(3))
        s = engine.normalize_power(Scenario(params=params, nodes=nodes,
                                            power_policy="normalized_total"))
        budget = params.frac_subcarriers * params.total_power
        total = math.fsum(n.power_scale * budget for n in s.nodes)
        assert total == pytest.approx(budget, rel=1e-15)

    def test_fixed_policy_is_identity(self, mono4):
        fixed = replace(mono4, power_policy="fixed_per_node")
        assert engine.normalize_power(fixed) is fixed

    def test_idempotent(self, mono4):
        once = engine.normalize_power(mono4)
        assert engine.normalize_power(once) == once


class TestGridMcTypes:
    def test_grid_points_inclusive(self):
        g = GridSpec(0.0, 84.0, 0.0, 84.0, 1.0)
        assert g.xs().size == 85 and g.ys().size == 85
        assert g.xs()[-1] == 84.0

    def test_grid_validation(self):
        with pytest.raises(ScenarioFormatError):
            GridSpec(0.0, 10.0, 0.0, 10.0, 0.0)
        with pytest.raises(ScenarioFormatError):
            GridSpec(5.0, 5.0, 0.0, 10.0, 1.0)

    def test_mc_validation(self):
        with pytest.raises(ScenarioFormatError):
            McConfig(draws=0)

    def test_mc_substreams_decoupled(self):
        mc = McConfig(draws=8, seed=3)
        h0 = mc.headings(0)
        h1 = mc.headings(1)
        assert not np.array_equal(h0, h1)
        np.testing.assert_array_equal(h0, McConfig(draws=8, seed=3).headings(0))
        assert np.all((h0 >= 0.0) & (h0 < 2 * np.pi))


class TestEvaluateMetric:
    def test_peb_matches_direct(self, mono4):
        s = engine.normalize_power(mono4)
        value, flag = engine.evaluate_metric(s, (30.0, 30.0), "peb", McConfig())
        assert value == pytest.approx(
            bounds.network_peb(s, TargetState(position=(30.0, 30.0))), rel=1e-15)

    def test_velocity_metric_averages_headings(self, mono4):
        s = engine.normalize_power(mono4)
        mc = McConfig(draws=16, seed=5, speed=22.0)
        value, flag = engine.evaluate_metric(s, (30.0, 30.0), "veb", mc, cell_index=7)
        res = bounds.heading_velocity_metrics(s, (30.0, 30.0), 22.0, mc.headings(7))
        assert value == pytest.approx(float(res["veb"].mean()), rel=1e-15)

    def test_unknown_metric(self, mono4):
        with pytest.raises(ScenarioFormatError):
            engine.evaluate_metric(mono4, (0.0, 0.0), "rmse", McConfig())


class TestHeatmap:
    def test_mirror_symmetry(self, mono4):
        # the four-node layout is symmetric under swapping x and y
        grid = GridSpec(10.0, 70.0, 10.0, 70.0, 20.0)
        rows = engine.heatmap(mono4, grid, "peb", McConfig(draws=1))
        values = {(x, y): v for x, y, v, _ in rows}
        for (x, y), v in values.items():
            assert v == pytest.approx(values[(y, x)], rel=1e-9)

    def test_peb_cells_match_standalone(self, mono4):
        grid = GridSpec(20.0, 60.0, 20.0, 60.0, 20.0)
        rows = engine.heatmap(mono4, grid, "peb", McConfig(draws=1))
        s = engine.normalize_power(mono4)
        for x, y, v, _ in rows:
            assert v == pytest.approx(
                bounds.network_peb(s, TargetState(position=(x, y))), rel=1e-15)

    def test_baseline_cells_flagged(self, multistatic3):
        grid = GridSpec(42.0, 42.0001, 10.0, 70.0, 20.0)
        rows = engine.heatmap(multistatic3, grid, "peb", McConfig(draws=1))
        assert all("baseline" in flag for _, _, _, flag in rows)


class TestSweep:
    def test_peb_decreases_with_rx_antennas(self, mono4):
        t = TargetState(position=(70.0, 56.0))
        rows = engine.sweep(mono4, t, "n_rx_ant", [8, 16, 32, 64, 100], "peb")
        values = [r[3] for r in rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_veb_decreases_with_symbol_fraction(self, mono4):
        t = TargetState(position=(70.0, 30.0))
        mc = McConfig(draws=32, seed=11, speed=22.0)
        rows = engine.sweep(mono4, t, "frac_symbols", [0.1, 0.3, 0.6, 1.0], "veb", mc)
        values = [r[3] for r in rows]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_invalid_point_reported_not_skipped(self, mono4):
        t = TargetState(position=(70.0, 56.0))
        rows = engine.sweep(mono4, t, "frac_subcarriers", [0.2, 1e-4], "peb")
        assert math.isfinite(rows[0][3])
        assert math.isnan(rows[1][3])
        assert "invalid" in rows[1][4]

    def test_point_equals_standalone_evaluation(self, mono4):
        t = TargetState(position=(70.0, 56.0))
        rows = engine.sweep(mono4, t, "frac_subcarriers", [0.5], "peb")
        standalone = engine.normalize_power(
            replace(mono4, params=replace(mono4.params, frac_subcarriers=0.5)))
        assert rows[0][3] == bounds.network_peb(standalone, t)

    @pytest.mark.parametrize("parameter, value", [("n_rx_ant", math.nan), ("n_rx_ant", math.inf),
                                                  ("frac_symbols", -math.inf),
                                                  ("n_rx_ant", 2.5)])
    def test_non_finite_or_fractional_value_rejected(self, mono4, parameter, value):
        t = TargetState(position=(70.0, 56.0))
        with pytest.raises(ScenarioFormatError, match="finite|integers"):
            engine.sweep(mono4, t, parameter, [8, value])

    def test_unknown_parameter(self, mono4):
        with pytest.raises(ScenarioFormatError):
            engine.sweep(mono4, TargetState(position=(0, 0)), "carrier_freq",
                         [1e9], "peb")


class TestSelectNodes:
    def test_choose_all_returns_full_set(self, mono4):
        problem = SelectionProblem(scenario=mono4, choose=4, metric="peb",
                                   target=(30.0, 30.0), mc=McConfig(draws=4))
        res = engine.select_nodes(problem)
        assert res.best == ("bs1", "bs2", "bs3", "bs4")

    def test_symmetric_square_tie_breaks_lexicographically(self, params):
        from isacbounds.model import Node, Scenario
        half = 42.0
        nodes = tuple(
            Node(id=f"n{i}", position=pos,
                 orientation=math.atan2(-pos[1], -pos[0]), role="monostatic")
            for i, pos in enumerate([(half, 0.0), (0.0, half),
                                     (-half, 0.0), (0.0, -half)])
        )
        s = Scenario(params=params, nodes=nodes, power_policy="normalized_total")
        problem = SelectionProblem(scenario=s, choose=2, metric="peb",
                                   target=(0.0, 0.0), mc=McConfig(draws=4))
        res = engine.select_nodes(problem)
        ranking = dict(res.ranking)
        # orthogonal pairs are optimal and all tie; lexicographic first wins
        assert res.best == ("n0", "n1")
        for pair in (("n0", "n3"), ("n1", "n2"), ("n2", "n3")):
            assert ranking[pair] == pytest.approx(res.value, rel=1e-9)
        for pair in (("n0", "n2"), ("n1", "n3")):  # collinear through target
            assert ranking[pair] > res.value

    def test_subsets_without_tx_score_inf(self, multistatic3):
        # an rx-only subset fails Scenario validation; it must rank, not raise
        problem = SelectionProblem(scenario=multistatic3, choose=2, metric="peb",
                                   target=(30.0, 40.0), mc=McConfig(draws=4))
        res = engine.select_nodes(problem)
        assert res.best == ("rx1", "tx1")
        ranking = dict(res.ranking)
        for pair in (("rx1", "rx2"), ("rx1", "rx3"), ("rx2", "rx3")):
            assert ranking[pair] == math.inf

    def test_invariant_to_candidate_order(self, ring8):
        mc = McConfig(draws=8, seed=2)
        ids = tuple(n.id for n in ring8.nodes)
        p1 = SelectionProblem(scenario=ring8, choose=3, metric="peb",
                              target=(20.0, 60.0), mc=mc, candidates=ids)
        p2 = SelectionProblem(scenario=ring8, choose=3, metric="peb",
                              target=(20.0, 60.0), mc=mc, candidates=ids[::-1])
        assert engine.select_nodes(p1) == engine.select_nodes(p2)

    def test_ranking_matches_independent_recomputation(self, ring8):
        mc = McConfig(draws=16, seed=9, speed=22.0)
        problem = SelectionProblem(scenario=ring8, choose=2, metric="veb",
                                   target=(20.0, 60.0), mc=mc)
        res = engine.select_nodes(problem)
        by_id = {n.id: n for n in ring8.nodes}
        for ids, value in res.ranking[:5]:
            sub = engine.normalize_power(
                replace(ring8, nodes=tuple(by_id[i] for i in ids)))
            again, _ = engine.evaluate_metric(sub, (20.0, 60.0), "veb", mc)
            assert again == value


class TestSelectTx:
    def test_two_node_scenario_both_finite(self, params):
        from isacbounds.model import Node, Scenario
        nodes = (Node(id="a", position=(0.0, 0.0), orientation=0.7),
                 Node(id="b", position=(60.0, 0.0), orientation=math.pi - 0.7))
        s = Scenario(params=params, nodes=nodes, power_policy="normalized_total")
        res = engine.select_tx(s, (30.0, 25.0), "peb", McConfig(draws=4))
        assert len(res.ranking) == 2
        assert all(math.isfinite(v) for _, v in res.ranking)

    def test_deterministic_under_fixed_seed(self, ring8):
        mc = McConfig(draws=16, seed=4, speed=22.0)
        r1 = engine.select_tx(ring8, (70.0, 20.0), "veb", mc)
        r2 = engine.select_tx(ring8, (70.0, 20.0), "veb", mc)
        assert r1 == r2

    def test_metric_dependent_winner(self, ring8):
        mc = McConfig(draws=200, seed=7, speed=22.0)
        peb_best = engine.select_tx(ring8, (70.0, 20.0), "peb", mc).best
        veb_best = engine.select_tx(ring8, (70.0, 20.0), "veb", mc).best
        assert peb_best != veb_best

    def test_some_nodes_never_optimal(self, ring8):
        mc = McConfig(draws=100, seed=7, speed=22.0)
        winners = {
            engine.select_tx(ring8, target, metric, mc).best[0]
            for target in ((13.0, 21.0), (23.0, 64.0), (70.0, 20.0), (37.0, 50.0))
            for metric in ("peb", "veb")
        }
        assert winners < {n.id for n in ring8.nodes}

    def test_needs_two_nodes(self, params):
        from isacbounds.model import Node, Scenario
        s = Scenario(params=params, nodes=(Node(id="a", position=(0.0, 0.0)),))
        with pytest.raises(ScenarioFormatError):
            engine.select_tx(s, (10.0, 10.0))
