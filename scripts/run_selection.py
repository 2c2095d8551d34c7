#!/usr/bin/env python3
"""Node-subset and transmitter selection on the eight-node ring.

For each test target, picks the 4-of-8 monostatic subset and the best
transmitter (all other nodes receiving) that minimize each metric.
"""
import argparse
import itertools
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from isacbounds import McConfig, SelectionProblem, load_scenario, select_nodes, select_tx
from isacbounds.cli import Column, Table, emit_table

ROOT = pathlib.Path(__file__).resolve().parents[1]

BS_TARGETS = ((12.0, 51.0), (42.0, 42.0), (70.0, 20.0))
TX_TARGETS = ((13.0, 21.0), (23.0, 64.0), (70.0, 20.0), (37.0, 50.0))
METRICS = ("peb", "veb", "crlb_heading")


def selection_table(cases, results, column: str, best) -> Table:
    """One row per (target, metric) case: its best choice and value."""
    return Table({
        "target_x": Column([target[0] for target, _ in cases], True),
        "target_y": Column([target[1] for target, _ in cases], True),
        "metric": Column([metric for _, metric in cases]),
        column: Column(best),
        "value": Column([res.value for res in results], True),
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--draws", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=str(ROOT / "results"))
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    scenario = load_scenario((ROOT / "scenarios" / "ring8.json").read_text())
    mc = McConfig(draws=args.draws, seed=args.seed, speed=22.0)

    cases = list(itertools.product(BS_TARGETS, METRICS))
    results = [select_nodes(SelectionProblem(scenario=scenario, choose=4, metric=metric,
                                             target=target, mc=mc)) for target, metric in cases]
    path = outdir / "select_bs.csv"
    emit_table(selection_table(cases, results, "best", ["+".join(res.best) for res in results]),
               "csv", str(path))
    print(path)

    cases = list(itertools.product(TX_TARGETS, METRICS))
    results = [select_tx(scenario, target, metric, mc) for target, metric in cases]
    path = outdir / "select_tx.csv"
    emit_table(selection_table(cases, results, "best_tx", [res.best[0] for res in results]),
               "csv", str(path))
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
