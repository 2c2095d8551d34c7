"""Layered benchmark of the isacbounds CLI: coverage maps and subset search.

Run from the root of a checkout:

    python3 perfbench/run.py --workload map_peb --seed 0 --seconds 20 --trace 0

It writes the workload's seeded inputs, times set-up in fresh interpreters,
runs the jobs in one fresh interpreter and then checks every output in
another (child.py). Every time is corrected for the drifting speed of a
shared host by a reference loop timed while it runs (hostspeed.py). It prints
one line per metric, name and unit, and as its last line a JSON object
{correct, attempted, failed, metrics}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.
See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
from workloads import WORKLOADS, make_jobs  # noqa: E402

SETUP_SAMPLES = 11
DEADLINE_S = 170.0  # a run, set-up included, always ends inside three minutes

# Set-up as a user pays it: a fresh interpreter imports the CLI and loads
# and validates the scenario documents of the workload.
SETUP_PROBE = """\
import sys
src = sys.argv[1]
sys.path.insert(0, src)
import isacbounds.cli
if not isacbounds.cli.__file__.startswith(src):
    sys.exit("isacbounds imported from " + isacbounds.cli.__file__)
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        isacbounds.cli.engine.load_scenario(fh.read())
"""


def _child_env() -> dict:
    """The environment of every child: no worker pool, single-threaded BLAS."""
    env = dict(os.environ)
    env.pop("ISAC_BOUNDS_THREADS", None)
    env.pop("PYTHONPATH", None)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def _machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform(),
            "python": platform.python_version(),
            "processes": "one job process per run; jobs run one after another "
                         "(closed loop, one client, no worker pool, ISAC_BOUNDS_THREADS unset)"}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _time_setup(scenarios: list[str], env: dict, deadline: float) -> list[float]:
    src = os.path.join(ROOT, "src")
    times = []
    with hostspeed.SpeedProbe() as probe:
        for _ in range(SETUP_SAMPLES):
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, src, *scenarios],
                                  env=env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - perf_counter()))
            t1 = perf_counter()
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
            times.append(hostspeed.corrected(t1 - t0, probe.loop_seconds(t0, t1)))
    return times


def _step(argv: list[str], env: dict, deadline: float, workdir: str, result: str) -> dict:
    """Run one child.py step in a fresh interpreter and load its JSON result."""
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[2]} step exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    with open(os.path.join(workdir, result), encoding="utf-8") as fh:
        return json.load(fh)


def _end_to_end(child: dict, jobs: list[dict], setup: list[float]) -> tuple[dict, list[str]]:
    samples = child["samples"]
    for s in samples:
        s["corrected_s"] = hostspeed.corrected(s["seconds"], s["loop_s"])
    per_job = {job["name"]: [s["corrected_s"] for s in samples if s["job"] == job["name"]]
               for job in jobs}
    medians = [statistics.median(v) for v in per_job.values()]
    done = sum(s["items"] for s in samples if not s["problems"])
    busy = sum(s["corrected_s"] for s in samples)
    wall = sum(s["seconds"] for s in samples)
    metrics = {
        "job_p50_s": {"value": statistics.fmean(medians), "unit": "s"},
        "items_per_s": {"value": done / busy, "unit": "items/s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
    }
    n = {name: len(v) for name, v in per_job.items()}
    raw = statistics.fmean(statistics.median(s["seconds"] for s in samples
                                             if s["job"] == name) for name in per_job)
    notes = {
        "job_p50_s": "mean over jobs of each job's median wall time at reference host "
                     f"speed (uncorrected {raw:.4g} s); samples "
                     + ", ".join(f"{k} n={v}" for k, v in n.items()),
        "items_per_s": f"{done} items in {busy:.3f} s of job time at reference host speed "
                       f"({wall:.3f} s wall); items per job "
                       + ", ".join(f"{job['name']}={job['items']}" for job in jobs),
        "setup_s": f"median of {len(setup)} fresh interpreters at reference host speed: "
                   "import isacbounds.cli and load the workload's scenario documents",
        "peak_rss_mb": "high-water resident memory of the job process",
    }
    return metrics, [f"  ({notes[k]})" for k in metrics]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Layered benchmark of the isacbounds CLI.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "isacbounds", "cli.py")):
        return _fail(f"no isacbounds sources under {os.path.join(ROOT, 'src')}")
    workdir = os.path.join(ROOT, ".bench_build", "perfbench",
                           f"{args.workload}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    jobs = make_jobs(args.workload, args.seed, workdir)
    with open(os.path.join(workdir, "jobs.json"), "w", encoding="utf-8") as fh:
        json.dump(jobs, fh, indent=1)

    env = _child_env()
    setup = []
    step = [sys.executable, os.path.join(HERE, "child.py")]
    common = ["--root", ROOT, "--workdir", workdir]
    try:
        if not args.trace:
            setup = _time_setup(sorted({job["scenario"] for job in jobs}), env, deadline)
        child = _step(step + ["jobs", *common, "--seconds", str(args.seconds),
                              "--trace", str(args.trace)], env, deadline, workdir, "jobs_done.json")
        checked = _step(step + ["check", *common, "--workload", args.workload,
                                "--seed", str(args.seed)], env, deadline, workdir, "checked.json")
    except (subprocess.TimeoutExpired, RuntimeError) as exc:
        return _fail(str(exc))

    samples = child["samples"]
    for sample, problems in zip(samples, checked["problems"]):
        sample["problems"] = problems
    failed = sum(1 for s in samples if s["problems"])
    misses = [m for found in checked["self_test"].values() for m in found]
    untested = [job["name"] for job in jobs if job["name"] not in checked["self_test"]]
    correct = failed == 0 and not misses and not untested
    if args.trace:
        metrics, notes = child["per_layer"], []
    else:
        metrics, notes = _end_to_end(child, jobs, setup)

    machine = dict(_machine(), numpy=child["numpy"])
    print(f"workload {args.workload}: {WORKLOADS[args.workload]}")
    print(f"seed {args.seed}, {len(samples)} jobs in {child['measured_s']:.1f} s, "
          f"trace {args.trace}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for line in notes:
        print(line)
    print(f"failed_frac = {failed}/{len(samples)} = {failed / len(samples):.3g} "
          f"(reference outputs compared: {checked['reference_checked']})")
    print("checker self-test: " + ("caught every perturbed output" if not (misses or untested)
                                   else f"missed {misses}, not run on {untested}"))
    for s in samples:
        for problem in s["problems"]:
            print(f"FAILED {s['job']}: {problem}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "metrics": metrics, "samples": samples,
              "setup_samples_s": setup, "self_test": checked["self_test"]}
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": len(samples), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
