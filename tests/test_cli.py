import csv
import itertools
import json
import math
import pathlib

from unittest import mock

import pytest

from isacbounds import bounds, cli, engine, validation

SCENARIO_DIR = pathlib.Path(__file__).resolve().parents[1] / "scenarios"
MONO4 = str(SCENARIO_DIR / "mono4.json")
MULTI3 = str(SCENARIO_DIR / "multistatic3.json")


def run(argv):
    return cli.main(argv)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestParsing:
    def test_missing_scenario_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["peb", "--target", "70,56"])
        assert exc.value.code == 2

    def test_unknown_verb_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_target_string_is_usage_error(self, capsys):
        assert run(["peb", "--scenario", MONO4, "--target", "70;56"]) == 2

    def test_bad_grid_string(self, capsys):
        assert run(["heatmap", "--scenario", MONO4, "--grid", "0:84", "--mc", "2"]) == 2

    def test_mismatched_grid_steps(self, capsys):
        assert run(["heatmap", "--scenario", MONO4,
                    "--grid", "0:84:1,0:84:2", "--mc", "2"]) == 2


class TestPebVerb:
    def test_csv_output(self, tmp_path, capsys):
        out = tmp_path / "peb.csv"
        assert run(["peb", "--scenario", MONO4, "--target", "70,56",
                    "-o", str(out)]) == 0
        rows = read_csv(out)
        assert rows[0]["metric"] == "peb"
        assert float(rows[0]["value"]) > 0.0

    def test_stdout_default(self, capsys):
        assert run(["peb", "--scenario", MONO4, "--target", "70,56"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "x,y,metric,value,flag"

    def test_nine_significant_digits(self, tmp_path):
        out = tmp_path / "peb.csv"
        run(["peb", "--scenario", MONO4, "--target", "70,56", "-o", str(out)])
        value = read_csv(out)[0]["value"]
        mantissa = value.replace(".", "").replace("-", "").lstrip("0")
        assert len(mantissa.split("e")[0]) == 9


class TestVebVerb:
    def test_explicit_velocity(self, tmp_path):
        out = tmp_path / "veb.csv"
        assert run(["veb", "--scenario", MONO4, "--target", "70,30",
                    "--velocity", "15,10", "--exact", "-o", str(out)]) == 0
        rows = {r["metric"]: r for r in read_csv(out)}
        assert set(rows) == {"veb", "crlb_heading", "veb_exact"}
        assert float(rows["veb_exact"]["value"]) <= float(rows["veb"]["value"])

    def test_monte_carlo_average(self, tmp_path):
        out = tmp_path / "veb.csv"
        assert run(["veb", "--scenario", MONO4, "--target", "70,30",
                    "--mc", "16", "--seed", "7", "-o", str(out)]) == 0
        rows = {r["metric"]: r for r in read_csv(out)}
        assert float(rows["veb"]["value"]) > 0.0


    def test_monte_carlo_draws_once_for_both_metrics(self, capsys):
        with mock.patch.object(bounds, "velocity_table", wraps=bounds.velocity_table) as table, \
                mock.patch.object(bounds, "heading_velocity_metrics",
                                  wraps=bounds.heading_velocity_metrics) as kernel, \
                mock.patch.object(engine.McConfig, "headings", autospec=True,
                                  side_effect=engine.McConfig.headings) as headings:
            assert run(["veb", "--scenario", MONO4, "--target", "70,30", "--mc", "1000"]) == 0
        assert (table.call_count, kernel.call_count, headings.call_count) == (1, 1, 1)
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        s = engine.normalize_power(engine.load_scenario(pathlib.Path(MONO4).read_text()))
        for row, metric in zip(rows, ("veb", "crlb_heading")):
            value, flag = engine.evaluate_metric(s, (70.0, 30.0), metric, engine.McConfig())
            assert (row["metric"], row["value"], row["flag"]) == (metric, cli._fmt(value), flag)


class TestLinkVerb:
    def test_per_link_rows(self, tmp_path):
        out = tmp_path / "links.csv"
        assert run(["link", "--scenario", MULTI3, "--target", "60,50",
                    "-o", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 3
        assert {r["kind"] for r in rows} == {"bistatic"}
        assert all(float(r["crlb_tau"]) > 0 for r in rows)


class TestHeatmapVerb:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "map.csv"
        assert run(["heatmap", "--scenario", MONO4, "--grid",
                    "20:60:20,20:60:20", "--metric", "peb", "-o", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 9
        assert rows[0]["metric"] == "peb"

    def test_veb_metric_with_mc(self, tmp_path):
        out = tmp_path / "map.csv"
        assert run(["heatmap", "--scenario", MONO4, "--grid",
                    "30:50:10,30:50:10", "--metric", "veb", "--mc", "8",
                    "--seed", "7", "-o", str(out)]) == 0
        assert len(read_csv(out)) == 9


class TestSweepVerb:
    def test_rx_antenna_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--scenario", MONO4, "--target", "70,56",
                    "--parameter", "n_rx_ant", "--values", "8,16,32",
                    "--metric", "peb", "-o", str(out)]) == 0
        rows = read_csv(out)
        values = [float(r["metric_value"]) for r in rows]
        assert values[0] > values[1] > values[2]


class TestSelectVerbs:
    def test_select_bs(self, tmp_path):
        out = tmp_path / "sel.csv"
        assert run(["select-bs", "--scenario", MONO4, "--target", "30,30",
                    "--choose", "2", "--metric", "peb", "--mc", "4",
                    "-o", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 6  # C(4, 2)
        assert rows[0]["selected"] == "1"

    def test_select_tx(self, tmp_path):
        out = tmp_path / "sel.csv"
        assert run(["select-tx", "--scenario", MONO4, "--target", "30,30",
                    "--metric", "peb", "--mc", "4", "-o", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        assert sum(int(r["selected"]) for r in rows) == 1


class TestExitCodes:
    def test_io_error_exits_3(self, capsys):
        code = run(["peb", "--scenario", MONO4, "--target", "70,56",
                    "-o", "/nonexistent-dir/out.csv"])
        assert code == 3

    def test_missing_scenario_file_exits_3(self, capsys):
        assert run(["peb", "--scenario", "/no/such/file.json",
                    "--target", "70,56"]) == 3

    def test_no_information_exits_4(self, tmp_path, capsys):
        doc = {"nodes": [{"id": "a", "position": [0.0, 0.0],
                          "orientation_deg": 0.0}]}
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        # target behind the single node's array: nothing senses it
        assert run(["peb", "--scenario", str(path), "--target=-10,1"]) == 4

    def test_malformed_scenario_exits_2(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text('{"nodes": []}')
        assert run(["peb", "--scenario", str(path), "--target", "1,1"]) == 2


class TestEmitTable:
    def test_empty_rows_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        cli.emit_table([], ["a", "b"], "csv", str(out))
        assert out.read_text() == "a,b\n"

    def test_inf_csv_literal(self, tmp_path):
        out = tmp_path / "inf.csv"
        cli.emit_table([{"x": 1.0, "value": math.inf, "flag": "singular"}],
                       ["x", "value", "flag"], "csv", str(out))
        assert read_csv(out)[0]["value"] == "inf"

    def test_inf_json_null_with_flag(self, tmp_path):
        out = tmp_path / "inf.json"
        cli.emit_table([{"x": 1.0, "value": math.inf, "flag": ""}],
                       ["x", "value", "flag"], "json", str(out))
        rec = json.loads(out.read_text())[0]
        assert rec["value"] is None
        assert rec["flag"] == "infinite"

    def test_json_round_trip_precision(self, tmp_path):
        out = tmp_path / "v.json"
        value = 0.1234567891234
        cli.emit_table([{"value": value, "flag": ""}], ["value", "flag"],
                       "json", str(out))
        rec = json.loads(out.read_text())[0]
        assert rec["value"] == pytest.approx(value, rel=1e-9)


class TestValidateVerb:
    def test_quick_validation_passes(self, capsys):
        assert run(["validate", "--draws", "3", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_failed_check_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(validation, "check_degeneracy",
                            lambda rng, draws: validation.CheckResult("degeneracy", 1.0, 1e-9))
        assert run(["validate", "--draws", "3", "--seed", "1"]) == 1
        captured = capsys.readouterr()
        assert "degeneracy,1,1e-09,FAIL" in captured.out.splitlines()
        assert captured.err == "1 check(s) failed\n"


def write_doc(tmp_path, nodes, name="s.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"nodes": nodes, "power_policy": "normalized_total"}))
    return str(path)


COMMA_NODES = [{"id": "bs,1", "position": [42.0, 0.0], "orientation_deg": 90.0},
               {"id": "bs2", "position": [0.0, 42.0], "orientation_deg": 0.0}]


class TestCsvQuoting:
    def test_comma_in_node_id_reads_back(self, tmp_path):
        out = tmp_path / "sel.csv"
        assert run(["select-bs", "--scenario", write_doc(tmp_path, COMMA_NODES),
                    "--target", "30,30", "--choose", "1", "-o", str(out)]) == 0
        rows = read_csv(out)
        assert sorted(r["nodes"] for r in rows) == ["bs,1", "bs2"]
        assert all(r["metric"] == "peb" and float(r["value"]) > 0.0 for r in rows)

    def test_comma_in_flag_reads_back(self, tmp_path):
        out = tmp_path / "peb.csv"
        # behind the array of bs,1, seen by bs2 only
        assert run(["peb", "--scenario", write_doc(tmp_path, COMMA_NODES),
                    "--target", "30,-5", "-o", str(out)]) == 0
        (row,) = read_csv(out)
        assert row["flag"].startswith("bs,1: out-of-field")
        assert row["metric"] == "peb"

    def test_plain_rows_unquoted(self, tmp_path, capsys):
        rows = [{"x": 1.0, "y": 2.5, "metric": "peb", "value": math.inf, "flag": ""},
                {"x": 3.0, "y": 0.1234567891234, "metric": "peb", "value": 7,
                 "flag": "rx2: target on the tx-rx baseline;position-info-singular"}]
        cli.emit_table(rows, ["x", "y", "metric", "value", "flag"], "csv", None)
        assert capsys.readouterr().out == (
            "x,y,metric,value,flag\n"
            "1,2.5,peb,inf,\n"
            "3,0.123456789,peb,7,rx2: target on the tx-rx baseline;position-info-singular\n")


class TestNonFiniteArguments:
    @pytest.mark.parametrize("target", ["inf,30", "nan,nan", "30,-inf", "1e999,3"])
    def test_peb_target(self, target, capsys):
        assert run(["peb", "--scenario", MONO4, "--target", target]) == 2
        assert "finite" in capsys.readouterr().err

    def test_select_bs_target(self, capsys):
        assert run(["select-bs", "--scenario", MONO4, "--target", "nan,30",
                    "--choose", "2"]) == 2
        assert "finite" in capsys.readouterr().err

    def test_veb_velocity(self, capsys):
        assert run(["veb", "--scenario", MONO4, "--target", "30,30",
                    "--velocity", "inf,0"]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["0:inf:1,0:84:1", "0:nan:1,0:nan:1"])
    def test_heatmap_grid(self, grid, capsys):
        assert run(["heatmap", "--scenario", MONO4, "--grid", grid]) == 2
        assert "finite" in capsys.readouterr().err

    def test_peb_rcs(self, capsys):
        assert run(["peb", "--scenario", MONO4, "--target", "30,30", "--rcs", "nan"]) == 2
        assert "rcs must be positive and finite" in capsys.readouterr().err

    def test_heatmap_rcs(self, capsys):
        assert run(["heatmap", "--scenario", MONO4, "--grid", "30:32:1,30:32:1",
                    "--rcs", "inf"]) == 2
        assert "rcs must be positive and finite" in capsys.readouterr().err

    def test_veb_speed(self, capsys):
        assert run(["veb", "--scenario", MONO4, "--target", "30,30", "--mc", "8",
                    "--speed", "nan"]) == 2
        assert "speed must be positive and finite" in capsys.readouterr().err

    def test_heatmap_speed(self, capsys):
        assert run(["heatmap", "--scenario", MONO4, "--grid", "30:32:1,30:32:1",
                    "--metric", "veb", "--mc", "8", "--speed", "inf"]) == 2
        assert "speed must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("carrier_freq", "NaN"), ("noise_psd", "Infinity")])
    def test_scenario_params(self, tmp_path, key, value, capsys):
        # json.dumps cannot write these, json.loads reads them
        path = tmp_path / "s.json"
        path.write_text('{"params": {"%s": %s}, "nodes": [{"id": "a", "position": [0, 0]}]}'
                        % (key, value))
        assert run(["peb", "--scenario", str(path), "--target", "30,30"]) == 2
        assert f"params: {key} must be positive and finite" in capsys.readouterr().err


    @pytest.mark.parametrize("parameter, values, message", [
        ("n_rx_ant", "nan", "n_rx_ant sweep values must be finite integers, got nan"),
        ("n_rx_ant", "8,1e400", "n_rx_ant sweep values must be finite integers, got inf"),
        ("n_rx_ant", "8,2.5", "n_rx_ant sweep values must be finite integers, got 2.5"),
        ("frac_subcarriers", "0.2,-inf",
         "frac_subcarriers sweep values must be finite numbers, got -inf"),
    ])
    def test_sweep_values(self, parameter, values, message, capsys):
        assert run(["sweep", "--scenario", MONO4, "--target", "30,30",
                    "--parameter", parameter, "--values", values]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""

    def test_sweep_out_of_range_integer_is_an_invalid_row(self, capsys):
        assert run(["sweep", "--scenario", MONO4, "--target", "30,30",
                    "--parameter", "n_rx_ant", "--values", "0,8"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert rows[0]["flag"].startswith("invalid: ") and rows[1]["flag"] == ""


class TestPowerScaleUnderNormalizedTotal:
    def test_exits_2_naming_the_node(self, tmp_path, capsys):
        nodes = [dict(COMMA_NODES[1], power_scale=0.5)]
        assert run(["peb", "--scenario", write_doc(tmp_path, nodes), "--target", "30,30"]) == 2
        assert "nodes[0] ('bs2'): power_scale" in capsys.readouterr().err


class TestLargeSelection:
    """8-of-16 on a ring: 12,870 subsets through the CLI."""

    @pytest.mark.parametrize("metric_args", [["--metric", "peb"],
                                             ["--metric", "veb", "--mc", "200"]])
    def test_eight_of_sixteen_ring(self, tmp_path, metric_args):
        nodes = []
        for k in range(16):
            a = 2.0 * math.pi * k / 16
            nodes.append({"id": f"n{k:02d}",
                          "position": [42.0 + 42.0 * math.cos(a), 42.0 + 42.0 * math.sin(a)],
                          "orientation_deg": math.degrees(a) + 180.0})
        out = tmp_path / "sel.csv"
        assert run(["select-bs", "--scenario", write_doc(tmp_path, nodes),
                    "--target", "40,45", "--choose", "8", "-o", str(out)] + metric_args) == 0
        rows = read_csv(out)
        ids = sorted(n["id"] for n in nodes)
        assert len(rows) == math.comb(16, 8) == 12870
        assert {r["nodes"] for r in rows} == {"+".join(c) for c in itertools.combinations(ids, 8)}
        values = [float(r["value"]) for r in rows]
        assert values == sorted(values)
        assert math.isfinite(values[0])
        assert [int(r["rank"]) for r in rows] == list(range(1, len(rows) + 1))
        assert [int(r["selected"]) for r in rows] == [1] + [0] * (len(rows) - 1)
