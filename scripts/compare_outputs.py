#!/usr/bin/env python3
"""Compare the printed outputs of two checkouts of isacbounds.

Runs one battery of CLI calls against each checkout's own `src`, each in a
fresh interpreter, on the shipped scenarios of that checkout, and compares
the outputs cell by cell. Per scenario the battery is:

- heatmaps of veb and crlb_heading at STEP m over -6..90 with DRAWS
  headings, and of peb at STEP / 4 m;
- `peb`, `veb --mc DRAWS` and `veb --velocity 15,-7 --exact` at 6 targets,
  and `link` at 5;
- `select-bs --choose 2`, `select-tx` and a `sweep` of n_rx_ant over
  1, 2, 4 and 16, each for peb, veb and crlb_heading.

`validate` reads no scenario and prints roundoff measurements, so it is
not in the battery. An output is its CSV, its exit code and its stderr.

Prints how many outputs were compared and how many are byte-identical, how
many numeric values changed and the largest relative change, and every
row-count, flag, text or inf/nan difference. Exits 0 when there is none
of the last kind, 1 when there is one, 2 when a checkout cannot be run.

    python scripts/compare_outputs.py --parent ../parent --change .
"""
import argparse
import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

TARGETS = ("70,56", "70,30", "42,42", "10,20", "42,30", "84,84")
SELECT_TARGET = "70,30"
METRICS = ("peb", "veb", "crlb_heading")

# Runs in a fresh interpreter: argv is (src dir, output dir); the jobs, a
# JSON list of [name, cli arguments], come on stdin. Writes each output to
# <name>.csv and {name: [exit code, stderr]} to status.json.
CHILD = r"""
import contextlib, io, json, pathlib, sys
src, out = pathlib.Path(sys.argv[1]).resolve(), pathlib.Path(sys.argv[2])
sys.path.insert(0, str(src))
from isacbounds import cli
assert pathlib.Path(cli.__file__).resolve().is_relative_to(src), cli.__file__
status = {}
for name, argv in json.load(sys.stdin):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["-o", str(out / (name + ".csv"))])
        except SystemExit as exc:
            code = exc.code
    status[name] = [code, err.getvalue()]
(out / "status.json").write_text(json.dumps(status))
"""


def jobs(scenarios: pathlib.Path, step: float, draws: int) -> list:
    """[name, cli arguments] of the battery on every scenario of a checkout."""
    mc = ["--mc", str(draws)]
    grid = f"--grid=-6:90:{step:g},-6:90:{step:g}"  # '=': the value starts with '-'
    out = []
    for path in sorted(scenarios.glob("*.json")):
        sc, name = ["--scenario", str(path)], path.stem
        out.append([f"{name}_heatmap_peb",
                    ["heatmap", *sc, f"--grid=-6:90:{step / 4:g},-6:90:{step / 4:g}"]])
        for metric in METRICS[1:]:
            out.append([f"{name}_heatmap_{metric}",
                        ["heatmap", *sc, grid, "--metric", metric, *mc]])
        for k, target in enumerate(TARGETS):
            tg = ["--target", target]
            out.append([f"{name}_peb_{k}", ["peb", *sc, *tg]])
            out.append([f"{name}_veb_mc_{k}", ["veb", *sc, *tg, *mc]])
            out.append([f"{name}_veb_exact_{k}", ["veb", *sc, *tg, "--velocity", "15,-7",
                                                  "--exact"]])
            if k < 5:
                out.append([f"{name}_link_{k}", ["link", *sc, *tg]])
        tg = ["--target", SELECT_TARGET]
        for metric in METRICS:
            m = ["--metric", metric, *mc]
            out.append([f"{name}_select_bs_{metric}", ["select-bs", *sc, *tg, "--choose", "2", *m]])
            out.append([f"{name}_select_tx_{metric}", ["select-tx", *sc, *tg, *m]])
            out.append([f"{name}_sweep_{metric}", ["sweep", *sc, *tg, "--parameter", "n_rx_ant",
                                                   "--values", "1,2,4,16", *m]])
    return out


def run_checkout(root: pathlib.Path, out: pathlib.Path, step: float, draws: int) -> dict:
    """Run the battery on a checkout; {name: (exit code, stderr)}."""
    if not (root / "src" / "isacbounds").is_dir():
        print(f"error: {root} has no src/isacbounds", file=sys.stderr)
        raise SystemExit(2)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run([sys.executable, "-c", CHILD, str(root / "src"), str(out)],
                          input=json.dumps(jobs(root / "scenarios", step, draws)),
                          capture_output=True, text=True, env=env, cwd=out)
    if proc.returncode != 0:
        print(f"{proc.stderr}error: the battery failed on {root}", file=sys.stderr)
        raise SystemExit(2)
    return {k: tuple(v) for k, v in json.loads((out / "status.json").read_text()).items()}


def read_rows(path: pathlib.Path) -> list:
    if not path.exists():
        return []
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def as_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare(name: str, a: list, b: list, report: dict) -> None:
    """Compare two outputs' rows cell by cell into the report."""
    if len(a) != len(b):
        report["hard"].append(f"{name}: row count {len(a)} -> {len(b)}")
        return
    header = a[0] if a else []
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra == rb:
            report["numeric"] += sum(as_float(c) is not None for c in ra)
            continue
        if len(ra) != len(rb):
            report["hard"].append(f"{name} row {i}: {ra} -> {rb}")
            continue
        for j, (ca, cb) in enumerate(zip(ra, rb)):
            column = header[j] if j < len(header) else str(j)
            fa, fb = as_float(ca), as_float(cb)
            if fa is not None and fb is not None:
                report["numeric"] += 1
            if ca == cb:
                continue
            where = f"{name} row {i} {column}: {ca!r} -> {cb!r}"
            if fa is None or fb is None:
                kind = "flag" if column == "flag" else "text"
                report["hard"].append(f"{kind} {where}")
            elif not (math.isfinite(fa) and math.isfinite(fb)):
                report["hard"].append(f"inf/nan {where}")
            else:
                rel = abs(fa - fb) / max(abs(fa), abs(fb))
                report["changed"].append((rel, where))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="checkout to compare against")
    ap.add_argument("--change", required=True, help="checkout under review")
    ap.add_argument("--step", type=float, default=1.0, help="map grid step in m")
    ap.add_argument("--draws", type=int, default=200, help="Monte-Carlo heading draws")
    args = ap.parse_args(argv)
    if not (args.step > 0.0 and math.isfinite(args.step)) or args.draws < 1:
        ap.error("--step must be positive and finite and --draws at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        outs = [pathlib.Path(tmp) / side for side in ("parent", "change")]
        status = []
        for root, out in zip((args.parent, args.change), outs):
            out.mkdir()
            status.append(run_checkout(pathlib.Path(root).resolve(), out, args.step, args.draws))
        report = {"numeric": 0, "changed": [], "hard": []}
        identical = 0
        names = sorted(set(status[0]) | set(status[1]))
        for name in names:
            sa, sb = status[0].get(name), status[1].get(name)
            if sa != sb:
                report["hard"].append(f"text {name}: exit code and stderr {sa} -> {sb}")
            pa, pb = (out / f"{name}.csv" for out in outs)
            bytes_a = pa.read_bytes() if pa.exists() else None
            bytes_b = pb.read_bytes() if pb.exists() else None
            identical += sa == sb and bytes_a == bytes_b
            compare(name, read_rows(pa), read_rows(pb), report)

    changed = sorted(report["changed"], reverse=True)
    codes = sorted({code for code, _ in status[1].values()})
    print(f"outputs compared: {len(names)}, byte-identical: {identical}")
    print("exit codes of the change: " + ", ".join(
        f"{code}: {sum(c == code for c, _ in status[1].values())}" for code in codes))
    print(f"numeric values changed: {len(changed)} of {report['numeric']}, largest relative "
          f"change: {changed[0][0] if changed else 0.0:.3g}")
    for rel, where in changed[:20]:
        print(f"  changed {rel:.3g}: {where}")
    if len(changed) > 20:
        print(f"  ... and {len(changed) - 20} more")
    print(f"row-count, flag, text or inf/nan differences: {len(report['hard'])}")
    for line in report["hard"]:
        print(f"  {line}")
    return 1 if report["hard"] else 0


if __name__ == "__main__":
    sys.exit(main())
