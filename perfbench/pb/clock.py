"""A speed-corrected clock for timing the program on a shared box.

The benchmark runs on a few virtual CPUs of a shared host, whose speed
changes under it: a fixed pure-Python loop ran anywhere from 0.6 to 1.4
times its median speed, in stretches of seconds to minutes, as other
tenants' load came and went. Raw times of identical work moved with it
(table1 passes of one program process, same order, same counts: 8.4 to
13.4 s). So every time the benchmark reports is read off a clock that
runs at the box's current speed relative to a fixed reference.

A sampler process, on the same CPU as the program, wakes every
:data:`PERIOD_S`, times a fixed loop (:func:`probe`) and records
``(when, how long)``. The scheduler runs the woken sampler ahead of the
program, so each sample sees the CPU the program is running on, at that
moment. :class:`Clock` turns the samples into a virtual time: over each
stretch between samples, wall time is scaled by :data:`REFERENCE_S`
over the loop's time then (a running median of :data:`WINDOW` samples,
so a sample an interrupt lands in does not count). A program interval
then reads as the time it would take on a CPU that runs the loop in
exactly :data:`REFERENCE_S`. Same work, same reading, whatever the box
is doing; a program that does more work reads longer, as it would on
any fixed box.

Usage of the sampler: ``python3 -m pb.clock --out FILE``; it writes
its samples to ``FILE`` when sent SIGTERM.
"""

from __future__ import annotations

import argparse
import bisect
import json
import signal
import statistics
import subprocess
import sys
import time
from typing import List, Sequence, Tuple

#: The loop's time on the reference CPU: its median on the 2-vCPU box
#: the benchmark was tuned on.
REFERENCE_S = 0.0005

#: Seconds between two samples.
PERIOD_S = 0.05

#: Samples in the running median that gives each stretch its speed.
WINDOW = 9


def probe() -> float:
    """Seconds the fixed loop takes now: dictionary updates and integer
    arithmetic, the interpreter work the program itself is made of."""
    started = time.perf_counter()
    table: dict = {}
    total = 0
    for i in range(2000):
        key = (i * 7919) & 255
        table[key] = table.get(key, 0) + i
        total += key & 3
    return time.perf_counter() - started


class Clock:
    """Virtual time from ``(wall time, loop seconds)`` samples, wall time
    on ``time.perf_counter`` (one system-wide clock, so the samples and
    the times the program's processes record agree)."""

    def __init__(self, samples: Sequence[Tuple[float, float]]):
        if not samples:
            raise ValueError("no clock samples")
        samples = sorted(samples)
        self.times = [when for when, _ in samples]
        loops = [loop for _, loop in samples]
        #: The loop's median time over the samples, for the report.
        self.loop_s = statistics.median(loops)
        half = WINDOW // 2
        self.rates = [
            REFERENCE_S / statistics.median(loops[max(0, i - half): i + half + 1])
            for i in range(len(loops))
        ]
        self.virtual = [0.0]
        for i in range(1, len(samples)):
            step = self.times[i] - self.times[i - 1]
            self.virtual.append(
                self.virtual[-1] + step * (self.rates[i - 1] + self.rates[i]) / 2
            )

    def at(self, wall: float) -> float:
        """Virtual time at ``wall`` (extrapolated at the nearest sample's
        speed outside the sampled stretch)."""
        times = self.times
        i = bisect.bisect_right(times, wall)
        if i == 0:
            return self.virtual[0] - (times[0] - wall) * self.rates[0]
        if i == len(times):
            return self.virtual[-1] + (wall - times[-1]) * self.rates[-1]
        fraction = (wall - times[i - 1]) / (times[i] - times[i - 1])
        rate = self.rates[i - 1] + fraction * (self.rates[i] - self.rates[i - 1])
        return self.virtual[i - 1] + (wall - times[i - 1]) * (self.rates[i - 1] + rate) / 2

    def span(self, start: float, end: float) -> float:
        """Virtual seconds between two wall times."""
        return self.at(end) - self.at(start)

    def scale(self, start: float, end: float) -> float:
        """Virtual over wall seconds between two wall times: the factor
        that puts a CPU time spent in that stretch on this clock."""
        return self.span(start, end) / (end - start) if end > start else 1.0


class Sampler:
    """The sampler process for a ``with`` block; after it, ``clock`` is
    the :class:`Clock` of the samples it took. The process inherits the
    caller's CPU affinity, so it samples the CPU the program runs on."""

    def __init__(self, env: dict, out: str):
        self.env = env
        self.out = out
        self.clock: Clock

    def __enter__(self) -> "Sampler":
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "pb.clock", "--out", self.out],
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
        )
        # Start timing only once it samples, so no program start-up
        # shares the CPU with the sampler's own.
        if self.proc.stdout.readline().strip() != "sampling":
            self.__exit__(RuntimeError, None, None)
            raise RuntimeError("clock sampler failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        if exc_info[0] is None:
            with open(self.out, encoding="utf-8") as handle:
                self.clock = Clock([tuple(sample) for sample in json.load(handle)])


def _sample(out: str) -> None:
    stopping: List[bool] = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    samples = [(time.perf_counter(), probe())]
    print("sampling", flush=True)
    while not stopping:
        time.sleep(PERIOD_S)
        started = time.perf_counter()
        samples.append((started, probe()))
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(samples, handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True)
    _sample(parser.parse_args(argv).out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
