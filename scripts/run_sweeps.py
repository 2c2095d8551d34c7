#!/usr/bin/env python3
"""Bound-versus-parameter sweeps for the shipped scenarios.

Position bound at (70, 56) versus the sensing subcarrier fraction and the
receive array size; velocity bound at (70, 30) versus the sensing symbol
fraction and the receive array size. One CSV per (scenario, parameter).
"""
import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from isacbounds import McConfig, TargetState, load_scenario, sweep
from isacbounds.cli import emit_table, sweep_table

ROOT = pathlib.Path(__file__).resolve().parents[1]

PEB_TARGET = (70.0, 56.0)
VEB_TARGET = (70.0, 30.0)


def run(outdir, scenario_name, target, parameter, values, metric, mc) -> None:
    scenario = load_scenario((ROOT / "scenarios" / f"{scenario_name}.json").read_text())
    rows = sweep(scenario, TargetState(position=target), parameter, values, metric, mc)
    path = outdir / f"sweep_{scenario_name}_{metric}_{parameter}.csv"
    emit_table(sweep_table(parameter, rows), "csv", str(path))
    print(path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--draws", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=str(ROOT / "results"))
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    mc = McConfig(draws=args.draws, seed=args.seed, speed=22.0)

    fracs = list(np.round(np.arange(0.1, 1.0001, 0.05), 4))
    antennas = [8, 16, 24, 32, 48, 64, 80, 100]
    for name in ("mono2", "mono4", "multistatic2", "multistatic3"):
        run(outdir, name, PEB_TARGET, "frac_subcarriers", fracs, "peb", mc)
        run(outdir, name, PEB_TARGET, "n_rx_ant", antennas, "peb", mc)
        run(outdir, name, VEB_TARGET, "frac_symbols", fracs, "veb", mc)
        run(outdir, name, VEB_TARGET, "n_rx_ant", antennas, "veb", mc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
