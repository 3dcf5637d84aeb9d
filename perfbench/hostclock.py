"""Times operations against a calibration unit run next to each of them.

The host is a shared virtual machine whose CPUs change speed under a
neighbour's load: a CPU runs at one of two speeds, about 1.6x apart, and
flips between them within a second, while the share of slow time drifts
over minutes. Steal time stays near zero, so CPU time rises with wall
time. A run of tens of seconds can fall mostly in a slow stretch, and no
statistic over its own timings can undo that.

So the host's speed is sampled next to every timed operation with a fixed
calibration unit: a pure-Python loop and a few small numpy calls, the
same mix of interpreter and library work the workloads do. run.py pins
the benchmark and its children to one CPU, so the samples are taken on
the CPU the operation runs on. An operation's reference time is its wall
time scaled to the speed at which the unit takes ``REF_UNIT_S``:

    ref = wall * REF_UNIT_S / (mean unit time around the operation)

An in-process operation is bracketed by a sample before and one after.
A child process runs for over a second, long enough for the speed to
flip, so the clock also samples while it runs: it wakes every
``PROCESS_SAMPLE_S``, runs one unit, and sleeps again, which takes about
2% of the child's CPU.

A change to epashrink moves the wall time and not the unit, so it moves
the reference time by the same share. A slow stretch moves both, and the
ratio cancels most of it. The unit's work never changes: that would
rescale every figure the benchmark has reported.
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import time

import numpy as np

REF_UNIT_S = 1e-3  # the unit takes 0.7 ms on a fast CPU here, 1.1 ms on a slow one
PROCESS_SAMPLE_S = 0.05
_LOOP = 5000
_VECTOR = np.linspace(0.0, 1.0, 4096)


def calibration_unit() -> int:
    """The fixed work whose time measures the host's speed."""
    acc = 0
    for i in range(_LOOP):
        acc += i * i % 7
    v = _VECTOR
    for _ in range(12):
        v = np.sin(v) + 1.0
    return acc + int(v[0])


def unit_time() -> float:
    t0 = time.perf_counter()
    calibration_unit()
    return time.perf_counter() - t0


def mean_unit(times: list) -> float:
    """Mean unit time, without units that the scheduler cut into (a unit
    run beside a child process is sometimes preempted for a whole slice)."""
    cap = 3.0 * statistics.median(times)
    return statistics.fmean([t for t in times if t <= cap])


class HostClock:
    """Wall and reference times of operations, with the host's speed
    sampled around each one.

    A sample before or after an operation is the median of three units,
    which sheds a unit hit by an interrupt.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = self.sample()

    def sample(self) -> float:
        unit = statistics.median(unit_time() for _ in range(3))
        self.samples.append(unit)
        return unit

    def call(self, fn, *args, **kwargs):
        """Run ``fn``; return (its result, wall seconds, reference seconds).

        If ``fn`` raises, the exception propagates and nothing is timed.
        """
        before = self._last
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            wall = time.perf_counter() - t0
            self._last = self.sample()
        return result, wall, wall * REF_UNIT_S * 2.0 / (before + self._last)

    def run(self, cmd: list, **popen_kwargs):
        """Run a child process to its end, sampling the host's speed while
        it runs. Returns (exit code, resource usage, wall seconds,
        reference seconds)."""
        units = [self._last]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, **popen_kwargs)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], PROCESS_SAMPLE_S)[0]:
                units.append(unit_time())
            wall = time.perf_counter() - t0
        finally:
            os.close(pidfd)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self._last = self.sample()
        self.samples.extend(units[1:])
        units.append(self._last)
        return proc.returncode, usage, wall, wall * REF_UNIT_S / mean_unit(units)

    def speed(self) -> float:
        """The host's median speed over this clock's samples, 1 = reference."""
        return REF_UNIT_S / statistics.median(self.samples)
