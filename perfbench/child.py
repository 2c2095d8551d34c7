"""The two fresh-interpreter steps of a run, started by run.py.

    python3 perfbench/child.py jobs  --root . --workdir DIR --seconds S --trace 0|1
    python3 perfbench/child.py check --root . --workdir DIR --workload W --seed N

`jobs` runs the workload's CLI jobs through isacbounds.cli.main(argv), one
after the other (closed loop, one client, no pool), and writes every job's
wall time and output file to jobs_done.json. It checks nothing, so its peak
memory is the jobs' own. With --trace 0 it runs whole passes until the next
one would overrun --seconds, with a host-speed probe (hostspeed.py) that
adds to each job the mean reference-loop time measured while it ran;
with --trace 1 it runs one untraced pass, then one traced pass, and adds
the per-layer metrics of the traced one.

`check` checks every output that `jobs` wrote (check.py), runs the checker
self-test on each job's first correct output, and writes checked.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import traceback
from time import perf_counter

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))


def _import_cli(root: str):
    """isacbounds.cli from root/src, and nowhere else."""
    src = os.path.join(os.path.abspath(root), "src")
    sys.path[:0] = [src, HERE]
    from isacbounds import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"isacbounds was imported from {cli.__file__}, not {src}")
    return cli


def _run_job(cli, argv) -> tuple[int, str]:
    """(exit code, error) of one CLI invocation."""
    try:
        return cli.main(argv), ""
    except SystemExit as exc:  # argparse rejects its arguments
        return (exc.code if isinstance(exc.code, int) else 2), ""
    except Exception:  # a traceback is a failed job, not a failed benchmark
        return 1, traceback.format_exc(limit=3)


def _run_pass(cli, jobs, workdir, label, tracer=None, probe=None) -> list[dict]:
    samples = []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        output = os.path.join(workdir, f"{job['name']}.{label}.csv")
        t0 = perf_counter()
        code, error = _run_job(cli, job["argv"] + ["-o", output])
        t1 = perf_counter()
        samples.append({"job": job["name"], "seconds": t1 - t0,
                        "loop_s": probe.loop_seconds(t0, t1) if probe else None,
                        "exit_code": code, "error": error, "items": job["items"],
                        "output": output})
    return samples


def run_jobs(args, jobs) -> dict:
    import numpy
    cli = _import_cli(args.root)
    per_layer = None
    spans = 0
    start = perf_counter()
    if args.trace:
        from tracing import Tracer
        untraced = _run_pass(cli, jobs, args.workdir, "untraced")
        tracer = Tracer()
        tracer.install()
        try:
            traced = _run_pass(cli, jobs, args.workdir, "traced", tracer)
        finally:
            tracer.uninstall()
        samples = untraced + traced
        per_layer = tracer.metrics()
        overhead = sum(s["seconds"] for s in traced) - sum(s["seconds"] for s in untraced)
        per_layer["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        spans = tracer.write_spans(os.path.join(args.workdir, "spans.csv.gz"))
    else:
        samples = []
        with hostspeed.SpeedProbe() as probe:
            while True:
                t_pass = perf_counter()
                samples += _run_pass(cli, jobs, args.workdir,
                                     f"pass{len(samples) // len(jobs)}", probe=probe)
                now = perf_counter()
                if now - start + (now - t_pass) > args.seconds:
                    break
    return {
        "samples": samples,
        "per_layer": per_layer,
        "spans_written": spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "measured_s": perf_counter() - start,
    }


def check_outputs(args, jobs) -> dict:
    _import_cli(args.root)
    import check
    from workloads import DEFAULT_SEED

    with open(os.path.join(args.workdir, "jobs_done.json"), encoding="utf-8") as fh:
        samples = json.load(fh)["samples"]
    by_name = {job["name"]: job for job in jobs}
    references = {}
    if args.seed == DEFAULT_SEED:
        references = {name: check.read_rows(check.reference_path(args.workload, name))
                      for name in by_name}
    problems, self_test = [], {}
    for sample in samples:
        name = sample["job"]
        if sample["exit_code"] != 0:
            problems.append([f"exit code {sample['exit_code']}", sample["error"]])
            continue
        job, reference = by_name[name], references.get(name)
        found = check.check_output(job, sample["output"], args.seed, reference)
        problems.append(found)
        if not found and name not in self_test:
            rows = check.read_rows(sample["output"])
            self_test[name] = check.self_test(job, rows, args.seed, reference)
    return {"problems": problems, "self_test": self_test,
            "reference_checked": bool(references)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("step", choices=("jobs", "check"))
    ap.add_argument("--root", required=True, help="checkout root holding src/isacbounds")
    ap.add_argument("--workdir", required=True, help="directory holding jobs.json")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    args = ap.parse_args(argv)

    with open(os.path.join(args.workdir, "jobs.json"), encoding="utf-8") as fh:
        jobs = json.load(fh)
    if args.step == "jobs":
        result, name = run_jobs(args, jobs), "jobs_done.json"
    else:
        result, name = check_outputs(args, jobs), "checked.json"
    with open(os.path.join(args.workdir, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
