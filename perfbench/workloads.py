"""Seeded inputs and CLI jobs of the benchmark workloads (stdlib only).

Every input the program sees is made here from the workload seed: the
scenario documents and the grid, target and Monte-Carlo arguments. The
same seed gives the same files and argument lists.
"""
from __future__ import annotations

import json
import math
import os
import random

AREA = 84.0           # side of the square area, m
DEFAULT_SEED = 0      # the seed whose outputs are stored under reference/
MC_DRAWS = 1000
RING_NODES = 14
RING_CHOOSE = 7

# Why each workload is in the benchmark (also in README.md).
WORKLOADS = {
    "map_peb": "per-cell, per-link constants dominate: derive_frame and "
               "constellation_penalty take ~60% of the cell time; no Monte-Carlo draws",
    "map_veb": "per-draw array arithmetic dominates (heading_velocity_metrics, rank-one "
               "coefficients); per-link constants ~30%, so PEB-path work moves it less",
    "select_ring": "every subset recomputes the same per-link information at one target "
                   "and rebuilds a Scenario; a per-target link cache shows here",
}


def _node(node_id, x, y, facing_deg, role="monostatic", tx_id=None):
    doc = {"id": node_id, "position": [x, y], "orientation_deg": facing_deg, "role": role}
    if tx_id is not None:
        doc["tx_id"] = tx_id
    return doc


def _midpoint_nodes():
    """(x, y, facing) of the four side midpoints, arrays facing the centre."""
    h = AREA / 2.0
    return [(h, 0.0, 90.0), (0.0, h, 0.0), (h, AREA, -90.0), (AREA, h, 180.0)]


def mono4_doc() -> dict:
    """Four monostatic nodes at the side midpoints (as scenarios/mono4.json)."""
    nodes = [_node(f"bs{i + 1}", x, y, f) for i, (x, y, f) in enumerate(_midpoint_nodes())]
    return {"params": {}, "nodes": nodes, "power_policy": "normalized_total"}


def multistatic3_doc() -> dict:
    """Transmitter at the bottom midpoint, receivers at the other three
    (as scenarios/multistatic3.json)."""
    (tx, ty, tf), *rest = _midpoint_nodes()
    nodes = [_node("tx1", tx, ty, tf, role="tx")]
    nodes += [_node(f"rx{i + 1}", x, y, f, role="rx", tx_id="tx1")
              for i, (x, y, f) in enumerate(rest)]
    return {"params": {}, "nodes": nodes, "power_policy": "normalized_total"}


def ring_doc(rng: random.Random) -> tuple[dict, tuple[float, float]]:
    """RING_NODES monostatic nodes on the circle inscribed in the area, each
    facing the centre, with jittered angles; and a target well inside the
    circle, so every link of every subset sees it."""
    h = AREA / 2.0
    spacing = 2.0 * math.pi / RING_NODES
    nodes = []
    for k in range(RING_NODES):
        a = k * spacing + rng.uniform(-0.25, 0.25) * spacing
        x, y = round(h + h * math.cos(a), 6), round(h + h * math.sin(a), 6)
        facing = round(math.degrees(a) + 180.0, 6)
        nodes.append(_node(f"n{k:02d}", x, y, facing))
    r, phi = 30.0 * math.sqrt(rng.random()), 2.0 * math.pi * rng.random()
    target = (round(h + r * math.cos(phi), 3), round(h + r * math.sin(phi), 3))
    return {"params": {}, "nodes": nodes, "power_policy": "normalized_total"}, target


def _write(path: str, doc: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return path


def _heatmap_job(name, scenario, grid, metric, items, seed=None):
    argv = ["heatmap", "--scenario", scenario, "--grid", grid, "--metric", metric]
    if metric != "peb":
        argv += ["--mc", str(MC_DRAWS), "--seed", str(seed)]
    return {"name": name, "verb": "heatmap", "metric": metric, "scenario": scenario,
            "grid": grid, "mc_draws": MC_DRAWS, "mc_seed": seed, "items": items, "argv": argv}


def make_jobs(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the workload's input files into workdir and return its jobs.

    A job is one CLI invocation: its argument list (the caller adds
    "-o <file>"), number of work items, and what the correctness check needs
    to re-derive its output.
    """
    rng = random.Random(seed)
    docs = {"mono4": mono4_doc(), "multistatic3": multistatic3_doc()}
    if workload == "map_peb":
        # The origin shift stays away from 0 so no cell lies exactly on a
        # node's array line; the flagged-cell pattern is then the same for
        # every seed and the call counts repeat.
        sx, sy = (round(rng.uniform(0.05, 0.95), 3) for _ in range(2))
        grid = f"{sx}:{sx + AREA}:1,{sy}:{sy + AREA}:1"
        return [_heatmap_job(f"{name}_peb", _write(os.path.join(workdir, f"{name}.json"), doc),
                             grid, "peb", 85 * 85)
                for name, doc in docs.items()]
    if workload == "map_veb":
        grid = f"0:{AREA:g}:2,0:{AREA:g}:2"
        return [_heatmap_job(f"{name}_veb", _write(os.path.join(workdir, f"{name}.json"), doc),
                             grid, "veb", 43 * 43, seed=seed)
                for name, doc in docs.items()]
    if workload == "select_ring":
        doc, target = ring_doc(rng)
        scenario = _write(os.path.join(workdir, "ring14.json"), doc)
        jobs = []
        for metric in ("peb", "veb"):
            jobs.append({
                "name": f"ring14_{metric}", "verb": "select-bs", "metric": metric,
                "scenario": scenario, "target": list(target), "choose": RING_CHOOSE,
                "mc_draws": MC_DRAWS, "mc_seed": seed,
                "items": math.comb(RING_NODES, RING_CHOOSE),
                "argv": ["select-bs", "--scenario", scenario,
                         "--target", f"{target[0]},{target[1]}",
                         "--choose", str(RING_CHOOSE), "--metric", metric,
                         "--mc", str(MC_DRAWS), "--seed", str(seed)],
            })
        return jobs
    raise KeyError(workload)
