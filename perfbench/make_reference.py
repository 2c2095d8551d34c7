"""Regenerate reference/*.csv.gz: the outputs of every workload's jobs on
the default seed, which the correctness check compares against.

    python3 perfbench/make_reference.py

Run it only from a commit whose outputs are trusted; the stored files pin
the results a faster implementation must reproduce.
"""
from __future__ import annotations

import gzip
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from isacbounds import cli  # noqa: E402

from check import REFERENCE_DIR, reference_path  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_jobs  # noqa: E402


def main() -> int:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-ref-") as workdir:
        for workload in WORKLOADS:
            for job in make_jobs(workload, DEFAULT_SEED, workdir):
                output = os.path.join(workdir, f"{job['name']}.csv")
                if cli.main(job["argv"] + ["-o", output]) != 0:
                    raise SystemExit(f"{workload}/{job['name']} failed")
                with open(output, "rb") as src:
                    data = src.read()
                with open(reference_path(workload, job["name"]), "wb") as raw, \
                        gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as gz:
                    gz.write(data)
                rows = data.count(b"\n") - 1
                print(f"{workload}/{job['name']}: {rows} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
