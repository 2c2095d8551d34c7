"""Correctness checks on the CLI outputs of the benchmark jobs.

Two independent checks, each returning a list of problems (empty = pass):

- against reference outputs that the seed code produced for the default
  seed (reference/*.csv.gz): same rows, values within RTOL, the same
  non-finite cells and the same flagged cells or subsets. Only whether a
  flag is present is compared, not its text, so flag codes may change;
- on any seed, a seeded sample of cells or subsets recomputed through a
  second public route: bounds.evaluate_bounds for PEB cells,
  bounds.heading_velocity_metrics with McConfig.headings(cell) for VEB
  cells, and engine.evaluate_metric for subsets (always the reported best).

self_test() shows that the checks catch one cell scaled by 1 + 1e-6 and one
finite cell turned into inf.
"""
from __future__ import annotations

import csv
import gzip
import itertools
import math
import os
import random

import numpy as np

from isacbounds import bounds, engine
from isacbounds.errors import NoInformationError
from isacbounds.model import Scenario, TargetState

# The CLI prints 9 significant digits (relative rounding error <= 5e-9); a
# later kernel may move the last printed digit, and a 1e-6 change must fail.
RTOL = 1e-7
SAMPLE = 12        # cells or subsets re-derived per job output
MAX_PROBLEMS = 5   # problems listed per output; any further ones share one line
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


def reference_path(workload: str, job_name: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.{job_name}.csv.gz")


def read_rows(path: str) -> list[dict]:
    opener = gzip.open if path.endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _same(got: float, want: float) -> bool:
    if math.isfinite(got) and math.isfinite(want):
        return abs(got - want) <= RTOL * abs(want)
    return got == want or (math.isnan(got) and math.isnan(want))


class _Problems(list):
    def add(self, text: str) -> None:
        if len(self) < MAX_PROBLEMS:
            self.append(text)
        elif len(self) == MAX_PROBLEMS:
            self.append("further problems not listed")


# ---------------------------------------------------------------------------
# heatmaps


def _grid(job) -> engine.GridSpec:
    (x0, x1, step), (y0, y1, _) = (tuple(float(v) for v in axis.split(":"))
                                   for axis in job["grid"].split(","))
    return engine.GridSpec(x_min=x0, x_max=x1, y_min=y0, y_max=y1, step=step)


def _load(job) -> Scenario:
    with open(job["scenario"], encoding="utf-8") as fh:
        return engine.normalize_power(engine.load_scenario(fh.read()))


def _cells(job) -> list[tuple[float, float]]:
    grid = _grid(job)
    return [(float(x), float(y)) for y in grid.ys() for x in grid.xs()]


def _cell_value(job, s: Scenario, index: int, pos) -> tuple[float, bool]:
    """(value, flagged) of one cell through the second route."""
    if job["metric"] == "peb":
        try:
            report = bounds.evaluate_bounds(s, TargetState(position=pos))
        except NoInformationError:
            return math.inf, True
        return report.peb, bool(report.flags)
    mc = engine.McConfig(draws=job["mc_draws"], seed=job["mc_seed"])
    try:
        res = bounds.heading_velocity_metrics(s, pos, mc.speed, mc.headings(index))
    except NoInformationError:
        return math.inf, True
    singular = bool(res["singular"].any())
    values = res["veb"] if job["metric"] == "veb" else res["crlb_heading"]
    value = math.inf if singular else float(np.mean(values))
    return value, singular or bool(res["flags"])


def _check_map(job, rows, seed, reference) -> _Problems:
    problems = _Problems()
    cells = _cells(job)
    if len(rows) != len(cells):
        problems.add(f"{len(rows)} rows, expected {len(cells)}")
        return problems
    for i, (row, (x, y)) in enumerate(zip(rows, cells)):
        if not (_same(float(row["x"]), x) and _same(float(row["y"]), y)):
            problems.add(f"row {i}: position {row['x']},{row['y']}, expected {x},{y}")
        if row["metric"] != job["metric"]:
            problems.add(f"row {i}: metric {row['metric']!r}")
    if reference is not None:
        if len(reference) != len(rows):
            problems.add(f"{len(rows)} rows, reference has {len(reference)}")
        else:
            inf_got = {i for i, r in enumerate(rows) if not math.isfinite(float(r["value"]))}
            inf_ref = {i for i, r in enumerate(reference) if not math.isfinite(float(r["value"]))}
            if inf_got != inf_ref:
                problems.add(f"non-finite cells differ from reference: "
                             f"{sorted(inf_got ^ inf_ref)[:5]}")
            flag_got = {i for i, r in enumerate(rows) if r["flag"]}
            flag_ref = {i for i, r in enumerate(reference) if r["flag"]}
            if flag_got != flag_ref:
                problems.add(f"flagged cells differ from reference: "
                             f"{sorted(flag_got ^ flag_ref)[:5]}")
            for i, (got, ref) in enumerate(zip(rows, reference)):
                if not _same(float(got["value"]), float(ref["value"])):
                    problems.add(f"cell {i}: {got['value']} vs reference {ref['value']}")
    s = _load(job)
    for i in sample_indices(job, seed, len(rows)):
        value, flagged = _cell_value(job, s, i, cells[i])
        got = float(rows[i]["value"])
        if not _same(got, value):
            problems.add(f"cell {i}: {rows[i]['value']} vs recomputed {value!r}")
        if bool(rows[i]["flag"]) != flagged:
            problems.add(f"cell {i}: flag {rows[i]['flag']!r}, recomputed flagged={flagged}")
    return problems


# ---------------------------------------------------------------------------
# subset selection


def _check_selection(job, rows, seed, reference) -> _Problems:
    problems = _Problems()
    with open(job["scenario"], encoding="utf-8") as fh:
        s = engine.load_scenario(fh.read())
    by_id = {n.id: n for n in s.nodes}
    expected = {"+".join(c) for c in itertools.combinations(sorted(by_id), job["choose"])}
    subsets = [r["nodes"] for r in rows]
    if len(rows) != len(expected) or set(subsets) != expected:
        problems.add(f"{len(rows)} ranked subsets, expected all {len(expected)}")
        return problems
    values = [float(r["value"]) for r in rows]
    key = [(math.inf if math.isnan(v) else v) for v in values]
    if any(b < a for a, b in zip(key, key[1:])):
        problems.add("ranking is not sorted by value")
    if [int(r["rank"]) for r in rows] != list(range(1, len(rows) + 1)):
        problems.add("ranks are not 1..N")
    if [int(r["selected"]) for r in rows] != [1] + [0] * (len(rows) - 1):
        problems.add("exactly the rank-1 subset must be selected")
    if not math.isfinite(values[0]):
        problems.add(f"best subset has value {rows[0]['value']}")
    if reference is not None:
        ref = {r["nodes"]: float(r["value"]) for r in reference}
        if set(ref) != set(subsets):
            problems.add("subsets differ from reference")
        else:
            inf_got = {n for n, v in zip(subsets, values) if not math.isfinite(v)}
            inf_ref = {n for n, v in ref.items() if not math.isfinite(v)}
            if inf_got != inf_ref:
                problems.add(f"non-finite subsets differ from reference: "
                             f"{sorted(inf_got ^ inf_ref)[:3]}")
            for n, v in zip(subsets, values):
                if not _same(v, ref[n]):
                    problems.add(f"subset {n}: {v!r} vs reference {ref[n]!r}")
            if not _same(ref[subsets[0]], min(ref.values())):
                problems.add(f"selected {subsets[0]}, reference best differs")
    mc = engine.McConfig(draws=job["mc_draws"], seed=job["mc_seed"])
    target = tuple(job["target"])
    for i in sample_indices(job, seed, len(rows)):
        nodes = tuple(by_id[n] for n in subsets[i].split("+"))
        sub = engine.normalize_power(Scenario(params=s.params, nodes=nodes,
                                              power_policy=s.power_policy))
        value, _ = engine.evaluate_metric(sub, target, job["metric"], mc)
        if not _same(values[i], value):
            problems.add(f"subset {subsets[i]}: {rows[i]['value']} vs recomputed {value!r}")
    return problems


# ---------------------------------------------------------------------------


def sample_indices(job, seed: int, n_rows: int) -> list[int]:
    """Seeded sample of row indices; a ranking always includes its best row."""
    rng = random.Random(f"{seed}:{job['name']}")
    picked = sorted(rng.sample(range(n_rows), min(SAMPLE, n_rows)))
    if job["verb"] == "select-bs" and 0 not in picked:
        picked = [0] + picked[:-1]
    return picked


def check_rows(job, rows, seed: int, reference) -> list[str]:
    """Problems with one job's output rows (empty list: correct)."""
    if job["verb"] == "heatmap":
        return list(_check_map(job, rows, seed, reference))
    return list(_check_selection(job, rows, seed, reference))


def check_output(job, path: str, seed: int, reference) -> list[str]:
    """Problems with one output file of a job (empty list: correct)."""
    try:
        rows = read_rows(path)
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        return [f"unreadable output: {exc}"]
    try:
        return check_rows(job, rows, seed, reference)
    except (KeyError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def self_test(job, rows, seed: int, reference) -> list[str]:
    """Failures of the checker itself: each perturbed copy of a correct
    output must be reported. Returns what it failed to catch."""
    finite = [i for i in sample_indices(job, seed, len(rows))
              if math.isfinite(float(rows[i]["value"]))]
    i = finite[0]
    misses = []
    for label, value in (("scaled by 1+1e-6", repr(float(rows[i]["value"]) * (1.0 + 1e-6))),
                         ("turned into inf", "inf")):
        perturbed = list(rows)
        perturbed[i] = dict(rows[i], value=value)
        if not check_rows(job, perturbed, seed, reference):
            misses.append(f"row {i} {label} was not caught")
    return misses
