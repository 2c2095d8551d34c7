#!/usr/bin/env python3
"""Coverage maps over the 84 m x 84 m area for the shipped scenarios.

Writes results/heatmap_<scenario>_<metric>.csv with columns x,y,metric,value,flag.
Velocity metrics are averaged over Monte-Carlo headings at 22 m/s.
"""
import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from isacbounds import GridSpec, McConfig, heatmap, load_scenario
from isacbounds.cli import emit_table, map_table

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--step", type=float, default=1.0, help="grid step in m")
    ap.add_argument("--draws", type=int, default=1000, help="Monte-Carlo heading draws")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=str(ROOT / "results"))
    args = ap.parse_args(argv)

    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    grid = GridSpec(0.0, 84.0, 0.0, 84.0, args.step)
    mc = McConfig(draws=args.draws, seed=args.seed, speed=22.0)

    for name in ("mono4", "multistatic3"):
        scenario = load_scenario((ROOT / "scenarios" / f"{name}.json").read_text())
        for metric in ("peb", "veb"):
            t0 = time.time()
            result = heatmap(scenario, grid, metric, mc)
            path = outdir / f"heatmap_{name}_{metric}.csv"
            emit_table(map_table(result, metric), "csv", str(path))
            print(f"{path} ({time.time() - t0:.1f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
