"""Correction of the benchmark's timings for the speed of a shared host.

On a small shared virtual machine the speed of the cores drifts by tens of
percent within seconds, and process CPU time drifts with wall time, so the
slow-down is contention for the physical cores, not time stolen from the
process. Medians over one run do not remove a drift that lasts longer than
the run. So while a run times its work, a SpeedProbe thread runs a short
fixed reference loop, shaped like the program's own work but never touching
isacbounds, every PERIOD_S seconds and records the loop's CPU time. A timed
section's wall time is then scaled to the speed at which that loop takes
REFERENCE_LOOP_S:

    corrected = wall * REFERENCE_LOOP_S / loop_s

where loop_s is the mean loop time of the probes made during the section.
A change to the program leaves the loop alone, so it moves the corrected
time by the same share as the wall time.
"""
from __future__ import annotations

import math
import statistics
import threading
from dataclasses import dataclass
from time import perf_counter, thread_time

import numpy as np

REFERENCE_LOOP_S = 0.0009  # about the loop's mean time on the host of the seed numbers
PERIOD_S = 0.05
MIN_WINDOW_S = 0.5  # a shorter section is judged by the probes of the 0.5 s up to its end
_X = np.linspace(0.0, 1.0, 1000)
_POINTS = [1 + 1j, -1 + 1j, 1 - 1j, -1 - 1j]
_M = np.array([[2.0, 0.3], [0.3, 1.5]])


@dataclass(frozen=True)
class _Record:
    a: float
    b: float
    key: int

    @property
    def product(self) -> float:
        return self.a * self.b


def _reference_loop() -> float:
    """Fixed work shaped like the program's: small frozen dataclasses, scalar
    math, many numpy calls on tiny arrays, and a few on 1,000-element ones."""
    acc, table = 0.0, {}
    for i in range(150):
        rec = _Record(i * 0.5, 1.0 / (i + 1), i)
        table[rec.key] = rec.product
        acc += math.hypot(rec.a, rec.b) + table[rec.key]
        if i % 5 == 0:
            power = np.abs(np.asarray(_POINTS)) ** 2
            acc += float(np.mean(1.0 / power)) + float(np.linalg.inv(_M * (1 + i * 1e-3))[0, 0])
    for _ in range(8):
        acc += float((np.cos(_X) * _X + np.sqrt(_X + 1.0)).sum())
    return acc


def corrected(wall: float, loop_s: float) -> float:
    """wall seconds scaled to the host speed at which the loop takes REFERENCE_LOOP_S."""
    return wall * REFERENCE_LOOP_S / loop_s


class SpeedProbe:
    """A thread timing the reference loop every PERIOD_S while the probe is open.

    The loop is timed in the probe thread's own CPU time, so waiting for
    the interpreter lock held by the timed work does not count.

        with SpeedProbe() as probe:
            t0 = perf_counter(); work(); t1 = perf_counter()
            loop_s = probe.loop_seconds(t0, t1)
    """

    def __init__(self) -> None:
        self._samples: list[tuple[float, float]] = []  # (perf_counter at start, CPU s)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._first = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed-probe", daemon=True)

    def __enter__(self) -> SpeedProbe:
        self._thread.start()
        self._first.wait()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while True:
            start, cpu = perf_counter(), thread_time()
            _reference_loop()
            with self._lock:
                self._samples.append((start, thread_time() - cpu))
            self._first.set()
            if self._stop.wait(PERIOD_S):
                return

    def loop_seconds(self, start: float, end: float) -> float:
        """Mean loop time of the probes started between start and end, or in
        the MIN_WINDOW_S before end if the section was shorter.

        The probes are evenly spaced in time, so their mean is the section's
        mean slow-down; a median would ignore a slow spell that covers less
        than half of the section."""
        lo = min(start, end - MIN_WINDOW_S)
        with self._lock:
            inside = [cpu for t, cpu in self._samples if lo <= t <= end]
        if not inside:
            raise RuntimeError(f"no host-speed probe between {lo:.3f} and {end:.3f} s")
        return statistics.fmean(inside)
