"""Smoke test of the experiment scripts: each main() runs with tiny
arguments and writes its CSVs, each with its header and rows, and
compare_outputs finds a checkout's outputs identical to its own."""
import csv
import importlib.util
import pathlib
import re

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"

MAP_HEADER = ["x", "y", "metric", "value", "flag"]
SWEEP_HEADER = ["parameter", "value", "metric", "metric_value", "flag"]

# script -> (tiny arguments, files written, {file name pattern: header})
CASES = {
    "run_heatmaps": (["--step", "21", "--draws", "4"], 4, {"heatmap_*.csv": MAP_HEADER}),
    "run_sweeps": (["--draws", "4"], 16, {"sweep_*.csv": SWEEP_HEADER}),
    "run_selection": (["--draws", "4"], 2, {
        "select_bs.csv": ["target_x", "target_y", "metric", "best", "value"],
        "select_tx.csv": ["target_x", "target_y", "metric", "best_tx", "value"]}),
}


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_writes_csvs(name, tmp_path):
    argv, n_files, headers = CASES[name]
    assert load_script(name).main(argv + ["--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.iterdir())) == n_files
    for pattern, header in headers.items():
        paths = sorted(tmp_path.glob(pattern))
        assert paths, pattern
        for path in paths:
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows[0] == header, path.name
            assert len(rows) > 1 and all(len(row) == len(header) for row in rows[1:]), path.name


def test_compare_outputs_of_one_checkout_agree(monkeypatch, capsys):
    # the same checkout on both sides: every output byte-identical, exit 0
    monkeypatch.chdir(SCRIPTS.parent)
    argv = ["--parent", ".", "--change", ".", "--step", "42", "--draws", "2"]
    assert load_script("compare_outputs").main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    compared, identical = re.fullmatch(r"outputs compared: (\d+), byte-identical: (\d+)",
                                       out[0]).groups()
    assert compared == identical and int(compared) > 0
    assert out[-1] == "row-count, flag, text or inf/nan differences: 0"
