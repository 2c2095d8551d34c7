"""Command-line interface.

Every verb writes its output through one writer, emit_table, as CSV or
JSON. It takes a Table of named columns, not rows: each column is formatted
in one pass ('{:.9g}' over a float column), and a column given per distinct
value (a map's grid coordinates, a constant metric name) formats each of
its values once. Rows are made only as the csv writer streams them.

Exit codes: 0 success, 1 a validation check failed (validate), 2 usage or
malformed input, 3 I/O failure, 4 computation infeasible (no information or
no feasible subset).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

from . import bounds, engine, validation
from .errors import (
    BoundsError,
    NoFeasibleSubsetError,
    NoInformationError,
    ScenarioFormatError,
)
from .link import link_snr, scalar_crlbs
from .model import TargetState

EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INFEASIBLE = 4


class Column(NamedTuple):
    """One output column. values holds a value per row or, given index, one
    per distinct value, index[row] being the position of the row's value
    (-1: a blank cell), so each distinct value is formatted once. A float
    column is written '{:.9g}' (inf and nan as such; in JSON a number, or
    null where not finite, which flags the row); any other value with str
    (in JSON as it is). A blank cell is written empty, null in JSON."""

    values: Sequence
    floats: bool = False
    index: Sequence[int] | None = None


def constant(value, n_rows: int, floats: bool = False) -> Column:
    """A column holding one value in every row."""
    return Column([value], floats, [0] * n_rows)


class Table:
    """Named columns of one length, in output order: what emit_table writes.
    len() is the row count."""

    def __init__(self, columns: dict[str, Column]):
        lengths = {len(col.values if col.index is None else col.index)
                   for col in columns.values()}
        if len(lengths) > 1:
            raise ValueError(f"columns of different lengths: {sorted(lengths)}")
        self.columns = columns
        self.n_rows = lengths.pop() if lengths else 0

    def __len__(self) -> int:
        return self.n_rows


_FLOAT = "{:.9g}".format


def _cells(col: Column, fn, blank):
    """fn of each of a column's values, once per distinct value, per row."""
    values = col.values.tolist() if isinstance(col.values, np.ndarray) else col.values
    done = list(map(fn, values))
    if col.index is None:
        return done
    done.append(blank)  # index -1
    return map(done.__getitem__, col.index)


def _json_float(value):
    return float(_FLOAT(value)) if math.isfinite(value) else None


def _records(table: Table) -> list[dict]:
    """JSON records of a table's rows; a row with a non-finite float
    (outside its "flag" column) and no flag gets the flag "infinite"."""
    names = list(table.columns)
    cols = [_cells(col, _json_float if col.floats else _identity, None)
            for col in table.columns.values()]
    records = [dict(zip(names, row)) for row in zip(*cols)]
    bad = [_cells(col, _not_finite, False)
           for name, col in table.columns.items() if col.floats and name != "flag"]
    for rec, row_bad in zip(records, zip(*bad)):
        if any(row_bad) and not rec.get("flag"):
            rec["flag"] = "infinite"
    return records


def _identity(value):
    return value


def _not_finite(value) -> bool:
    return not math.isfinite(value)


def emit_table(table: Table, fmt: str, path: str | None) -> None:
    """Write a table as CSV (header + 9-significant-digit floats, inf
    literal; fields holding a comma or quote are quoted) or JSON (records;
    non-finite values become null and raise the flag). Each column is
    formatted in one pass, each distinct value once (see Column)."""
    records = _records(table) if fmt == "json" else None
    out = (contextlib.nullcontext(sys.stdout) if path is None
           else open(path, "w", encoding="utf-8", newline=""))
    with out as fh:
        if fmt == "json":
            fh.write(json.dumps(records, indent=2) + "\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(table.columns)
            writer.writerows(zip(*(_cells(col, _FLOAT if col.floats else str, "")
                                   for col in table.columns.values())))


def map_table(result: engine.Heatmap, metric: str) -> Table:
    """The x, y, metric, value, flag table of a heatmap, each grid
    coordinate formatted once."""
    nx, ny = len(result.xs), len(result.ys)
    return Table({
        "x": Column(result.xs, True, list(range(nx)) * ny),
        "y": Column(result.ys, True, np.repeat(np.arange(ny), nx).tolist()),
        "metric": constant(metric, nx * ny),
        "value": Column(result.values, True),
        "flag": Column(result.flags),
    })


def sweep_table(parameter: str, rows) -> Table:
    """The table of engine.sweep's rows; n_rx_ant values are integers."""
    params, values, metrics, metric_values, flags = list(zip(*rows)) or [()] * 5
    return Table({
        "parameter": Column(params),
        "value": Column(values, floats=parameter != "n_rx_ant"),
        "metric": Column(metrics),
        "metric_value": Column(metric_values, True),
        "flag": Column(flags),
    })


def _parse_pair(text: str, what: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ScenarioFormatError(f"{what} must be 'X,Y', got {text!r}")
    try:
        pair = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ScenarioFormatError(f"{what} must be numeric, got {text!r}") from exc
    if not all(map(math.isfinite, pair)):
        raise ScenarioFormatError(f"{what} must be finite, got {text!r}")
    return pair


def _parse_grid(text: str) -> engine.GridSpec:
    axes = text.split(",")
    if len(axes) != 2:
        raise ScenarioFormatError(f"grid must be 'x0:x1:step,y0:y1:step', got {text!r}")
    spans = []
    for axis in axes:
        parts = axis.split(":")
        if len(parts) != 3:
            raise ScenarioFormatError(f"grid axis must be 'min:max:step', got {axis!r}")
        try:
            spans.append(tuple(float(p) for p in parts))
        except ValueError as exc:
            raise ScenarioFormatError(f"grid axis must be numeric, got {axis!r}") from exc
    if spans[0][2] != spans[1][2]:
        raise ScenarioFormatError("grid steps must match on both axes")
    return engine.GridSpec(x_min=spans[0][0], x_max=spans[0][1],
                           y_min=spans[1][0], y_max=spans[1][1], step=spans[0][2])


def _load_scenario(path: str) -> engine.Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return engine.load_scenario(fh.read())


def _mc_from_args(args) -> engine.McConfig:
    return engine.McConfig(draws=args.mc, seed=args.seed, speed=args.speed)


def _add_common(p: argparse.ArgumentParser, target_required: bool = True) -> None:
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    if target_required:
        p.add_argument("--target", required=True, help="target position 'X,Y' in m")
    p.add_argument("--rcs", type=float, default=1.0, help="target radar cross-section m^2")
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_mc(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mc", type=int, default=1000, help="Monte-Carlo heading draws")
    p.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed")
    p.add_argument("--speed", type=float, default=22.0, help="target speed m/s")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="isac-bounds",
        description="Position/velocity error bounds for OFDM MIMO sensing networks",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("link", help="per-link SNR and parameter bounds at a target")
    _add_common(p)

    p = sub.add_parser("peb", help="network position error bound at a target")
    _add_common(p)

    p = sub.add_parser("veb", help="network velocity bounds at a target")
    _add_common(p)
    p.add_argument("--velocity", default=None,
                   help="explicit velocity 'VX,VY' m/s (skips Monte-Carlo averaging)")
    p.add_argument("--exact", action="store_true",
                   help="also report the summed-state-information bound")
    _add_mc(p)

    p = sub.add_parser("heatmap", help="metric over a grid of target positions")
    _add_common(p, target_required=False)
    p.add_argument("--grid", required=True, help="grid 'x0:x1:step,y0:y1:step' in m")
    p.add_argument("--metric", choices=engine.METRICS, default="peb")
    _add_mc(p)

    p = sub.add_parser("sweep", help="metric versus one system parameter")
    _add_common(p)
    p.add_argument("--parameter", required=True, choices=engine.SWEEP_PARAMETERS)
    p.add_argument("--values", required=True, help="comma-separated parameter values")
    p.add_argument("--metric", choices=engine.METRICS, default="peb")
    _add_mc(p)

    p = sub.add_parser("select-bs", help="best node subset for a metric at a target")
    _add_common(p)
    p.add_argument("--choose", type=int, required=True, help="subset size")
    p.add_argument("--metric", choices=engine.METRICS, default="peb")
    _add_mc(p)

    p = sub.add_parser("select-tx", help="best transmitting node for a metric at a target")
    _add_common(p)
    p.add_argument("--metric", choices=engine.METRICS, default="peb")
    _add_mc(p)

    p = sub.add_parser("validate", help="run the numeric oracle self-checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=50)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return ap


_LINK_MEASURES = ("range_tx_m", "range_rx_m", "doa_deg", "snr_db", "snr_postdiv_db")
_LINK_CRLBS = ("crlb_alpha", "crlb_phi", "crlb_fd", "crlb_tau", "crlb_theta", "crlb_range",
               "crlb_bistatic_range")


def _run_link(args) -> int:
    s = engine.normalize_power(_load_scenario(args.scenario))
    t = TargetState(position=_parse_pair(args.target, "--target"), rcs=args.rcs)
    links = bounds.sensing_links(s)
    columns = {name: [] for name in _LINK_MEASURES + _LINK_CRLBS}
    scored, flags = [], []  # per link: its row, -1 where it raised (blank CRLBs); its flag
    for i, lk in enumerate(links):
        try:
            g = bounds.link_geometry(lk, t)
            snr = link_snr(s.params, g, t.rcs, lk.power_scale)
            crlbs = scalar_crlbs(s.params, g, t.rcs, lk.power_scale)
        except BoundsError as exc:
            values, row, flag = [math.nan] * len(columns), -1, str(exc)
        else:
            values = [g.range_tx, g.range_rx, math.degrees(g.doa_local),
                      10.0 * math.log10(snr["snr"]), 10.0 * math.log10(snr["snr_postdiv"]),
                      *(crlbs[name] for name in _LINK_CRLBS)]
            row, flag = i, ""
        for column, value in zip(columns.values(), values):
            column.append(value)
        scored.append(row)
        flags.append(flag)
    emit_table(Table({
        "node": Column([lk.node_id for lk in links]),
        "kind": Column([lk.kind for lk in links]),
        **{name: Column(columns[name], True) for name in _LINK_MEASURES},
        **{name: Column(columns[name], True, scored) for name in _LINK_CRLBS},
        "flag": Column(flags),
    }), args.format, args.output)
    return 0


def _emit_point(args, pos, results) -> int:
    """Emit (metric, value, flag tuple) results at one target position."""
    metrics, values, flags = zip(*results)
    n = len(results)
    emit_table(Table({
        "x": constant(pos[0], n, floats=True),
        "y": constant(pos[1], n, floats=True),
        "metric": Column(metrics),
        "value": Column(values, True),
        "flag": Column(list(map(";".join, flags))),
    }), args.format, args.output)
    return 0


def _run_peb(args) -> int:
    s = engine.normalize_power(_load_scenario(args.scenario))
    pos = _parse_pair(args.target, "--target")
    report = bounds.evaluate_bounds(s, TargetState(position=pos, rcs=args.rcs))
    return _emit_point(args, pos, [("peb", report.peb, report.flags)])


def _run_veb(args) -> int:
    s = engine.normalize_power(_load_scenario(args.scenario))
    pos = _parse_pair(args.target, "--target")
    if args.velocity is None:
        means, flags = engine.velocity_metrics(s, [pos], _mc_from_args(args), rcs=args.rcs)
        return _emit_point(args, pos, [(metric, float(values[0]), flags[0])
                                       for metric, values in means.items()])
    t = TargetState(position=pos, velocity=_parse_pair(args.velocity, "--velocity"), rcs=args.rcs)
    res = bounds.network_velocity_bounds(s, t)
    results = [(metric, res[metric], res["flags"]) for metric in ("veb", "crlb_heading")]
    if args.exact:
        ex = bounds.network_velocity_bounds_exact(s, t)
        results.append(("veb_exact", ex["veb_exact"], ex["flags"]))
    return _emit_point(args, pos, results)


def _run_heatmap(args) -> int:
    result = engine.heatmap(_load_scenario(args.scenario), _parse_grid(args.grid), args.metric,
                            _mc_from_args(args), rcs=args.rcs)
    emit_table(map_table(result, args.metric), args.format, args.output)
    return 0


def _run_sweep(args) -> int:
    s = _load_scenario(args.scenario)
    t = TargetState(position=_parse_pair(args.target, "--target"), rcs=args.rcs)
    try:
        values = [float(v) for v in args.values.split(",") if v != ""]
    except ValueError as exc:
        raise ScenarioFormatError(f"--values must be numeric, got {args.values!r}") from exc
    rows = engine.sweep(s, t, args.parameter, values, args.metric, _mc_from_args(args))
    emit_table(sweep_table(args.parameter, rows), args.format, args.output)
    return 0


def _emit_ranking(args, result: engine.SelectionResult, column: str) -> int:
    """Emit a selection ranking, each subset's node ids joined with '+'."""
    subsets, values = zip(*result.ranking)
    n = len(subsets)
    selected = [0] * n
    selected[subsets.index(result.best)] = 1
    emit_table(Table({
        "rank": Column(range(1, n + 1)),
        column: Column(list(map("+".join, subsets))),
        "metric": constant(args.metric, n),
        "value": Column(values, True),
        "selected": Column(selected),
    }), args.format, args.output)
    return 0


def _run_select_bs(args) -> int:
    problem = engine.SelectionProblem(
        scenario=_load_scenario(args.scenario), choose=args.choose, metric=args.metric,
        target=_parse_pair(args.target, "--target"), mc=_mc_from_args(args))
    return _emit_ranking(args, engine.select_nodes(problem), "nodes")


def _run_select_tx(args) -> int:
    result = engine.select_tx(_load_scenario(args.scenario), _parse_pair(args.target, "--target"),
                              args.metric, _mc_from_args(args))
    return _emit_ranking(args, result, "tx")


def _run_validate(args) -> int:
    checks = validation.run_validation(seed=args.seed, draws=args.draws)
    emit_table(Table({
        "check": Column([c.name for c in checks]),
        "max_error": Column([c.max_error for c in checks], True),
        "tolerance": Column([c.tolerance for c in checks], True),
        "status": Column(["PASS" if c.passed else "FAIL" for c in checks]),
    }), args.format, args.output)
    failed = [c for c in checks if not c.passed]
    if failed:
        print(f"{len(failed)} check(s) failed", file=sys.stderr)
        return 1
    return 0


_RUNNERS = {
    "link": _run_link,
    "peb": _run_peb,
    "veb": _run_veb,
    "heatmap": _run_heatmap,
    "sweep": _run_sweep,
    "select-bs": _run_select_bs,
    "select-tx": _run_select_tx,
    "validate": _run_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.verb](args)
    except (NoInformationError, NoFeasibleSubsetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
