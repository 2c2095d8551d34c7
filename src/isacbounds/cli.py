"""Command-line interface.

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


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        if math.isinf(value) or math.isnan(value):
            return None
        return float(f"{value:.9g}")
    return value


def emit_table(rows: list[dict], columns: list[str], fmt: str, path: str | None) -> None:
    """Write rows as CSV (header + 9-significant-digit floats, inf literal;
    fields holding a comma or quote are quoted) or JSON (records; non-finite
    values become null and raise the flag)."""
    if fmt == "json":
        records = []
        for row in rows:
            rec = {col: _json_value(row.get(col)) for col in columns}
            nonfinite = any(
                rec[col] is None and isinstance(row.get(col), float)
                for col in columns if col != "flag")
            if nonfinite and not rec.get("flag"):
                rec["flag"] = "infinite"
            records.append(rec)
    out = (contextlib.nullcontext(sys.stdout) if path is None
           else open(path, "w", encoding="utf-8", newline=""))
    with out as fh:
        if fmt == "json":
            fh.write(json.dumps(records, indent=2) + "\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows([_fmt(row.get(col, "")) for col in columns] for row in rows)


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


def _run_link(args) -> int:
    s = engine.normalize_power(_load_scenario(args.scenario))
    t = TargetState(position=_parse_pair(args.target, "--target"), rcs=args.rcs)
    rows = []
    for lk in bounds.sensing_links(s):
        row = {"node": lk.node_id, "kind": lk.kind}
        try:
            g = bounds.link_geometry(lk, t)
            snr = link_snr(s.params, g, t.rcs, lk.power_scale)
            crlbs = scalar_crlbs(s.params, g, t.rcs, lk.power_scale)
            row.update(
                range_tx_m=g.range_tx, range_rx_m=g.range_rx,
                doa_deg=math.degrees(g.doa_local),
                snr_db=10.0 * math.log10(snr["snr"]),
                snr_postdiv_db=10.0 * math.log10(snr["snr_postdiv"]),
                flag="", **crlbs,
            )
        except BoundsError as exc:
            row.update(range_tx_m=math.nan, range_rx_m=math.nan, doa_deg=math.nan,
                       snr_db=math.nan, snr_postdiv_db=math.nan, flag=str(exc))
        rows.append(row)
    columns = ["node", "kind", "range_tx_m", "range_rx_m", "doa_deg", "snr_db",
               "snr_postdiv_db", "crlb_alpha", "crlb_phi", "crlb_fd", "crlb_tau",
               "crlb_theta", "crlb_range", "crlb_bistatic_range", "flag"]
    emit_table(rows, columns, args.format, args.output)
    return 0


def _emit_point(args, pos, results) -> int:
    """Emit (metric, value, flag tuple) results at one target position."""
    rows = [{"x": pos[0], "y": pos[1], "metric": metric, "value": value, "flag": ";".join(flags)}
            for metric, value, flags in results]
    emit_table(rows, ["x", "y", "metric", "value", "flag"], args.format, args.output)
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
    cells = engine.heatmap(_load_scenario(args.scenario), _parse_grid(args.grid), args.metric,
                           _mc_from_args(args), rcs=args.rcs)
    rows = [{"x": x, "y": y, "metric": args.metric, "value": v, "flag": f}
            for (x, y, v, f) in cells]
    emit_table(rows, ["x", "y", "metric", "value", "flag"], args.format, args.output)
    return 0


def _run_sweep(args) -> int:
    s = _load_scenario(args.scenario)
    t = TargetState(position=_parse_pair(args.target, "--target"), rcs=args.rcs)
    try:
        values = [float(v) for v in args.values.split(",") if v != ""]
    except ValueError as exc:
        raise ScenarioFormatError(f"--values must be numeric, got {args.values!r}") from exc
    rows = [{"parameter": p, "value": v, "metric": m, "metric_value": mv, "flag": f}
            for (p, v, m, mv, f) in engine.sweep(s, t, args.parameter, values,
                                                 args.metric, _mc_from_args(args))]
    emit_table(rows, ["parameter", "value", "metric", "metric_value", "flag"],
               args.format, args.output)
    return 0


def _emit_ranking(args, result: engine.SelectionResult, column: str) -> int:
    """Emit a selection ranking, each subset's node ids joined with '+'."""
    rows = [{"rank": i + 1, column: "+".join(ids), "metric": args.metric,
             "value": value, "selected": int(ids == result.best)}
            for i, (ids, value) in enumerate(result.ranking)]
    emit_table(rows, ["rank", column, "metric", "value", "selected"], args.format, args.output)
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
    rows = [{"check": c.name, "max_error": c.max_error, "tolerance": c.tolerance,
             "status": "PASS" if c.passed else "FAIL"} for c in checks]
    emit_table(rows, ["check", "max_error", "tolerance", "status"],
               args.format, args.output)
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
