"""Host speed: a fixed pure-Python loop, timed between pieces of measured work.

The benchmark runs on virtual CPUs of a shared host, whose speed for the same
Python code drifts by tens of percent within minutes (other tenants, the
host's clock).  Identical rounds then take different times, and a run's
median follows the host rather than the program.  So the benchmark times a
fixed calibration loop right before and right after each piece of measured
work, on the same CPU, and reports each measured duration scaled to the
loop's reference time::

    scaled = measured * REFERENCE_S / mean(loop before, loop after)

A scaled time is the time the work would take on a host that runs the loop
in ``REFERENCE_S``: a program change moves it in proportion, a change in the
host's speed much less.  The loop is benchmark code and never changes with
the program.  The garbage collector is paused while it runs, so a large
program heap does not slow it.
"""

from __future__ import annotations

import gc
import os
import time
from typing import List, Sequence

ARITHMETIC_ITERATIONS = 20_000
CHAIN_LENGTH = 10_000
REFERENCE_S = 0.0049
"""The loop's median time on the machine the benchmark was defined on (a
2-vCPU Intel Xeon virtual machine, Python 3.11), so scaled times read close
to that machine's wall times."""
SAMPLES = 5
"""Each calibration is the median of this many runs of the loop."""


class _Node:
    __slots__ = ("next", "value")

    def __init__(self, next_node, value: int) -> None:
        self.next = next_node
        self.value = value


def _loop() -> int:
    """Integer arithmetic, then a chain of small objects built and walked.

    Over six minutes of host drift, the log of the program's time moved
    1.4 times as much as that of plain arithmetic, and 0.9 times as much as
    that of building and walking small objects; a blend of about one third
    arithmetic and two thirds objects moved with it (slope 1.0) and left the
    smallest residual.  The loop spends about those shares of its time on
    each part.
    """
    total = 0
    for index in range(ARITHMETIC_ITERATIONS):
        total += index * index % 7
    chain = None
    for index in range(CHAIN_LENGTH):
        chain = _Node(chain, index)
    while chain is not None:
        total += chain.value
        chain = chain.next
    return total


def calibrate() -> float:
    """Seconds the host takes for one loop now (the median of ``SAMPLES``)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(SAMPLES):
            started = time.perf_counter()
            _loop()
            times.append(time.perf_counter() - started)
    finally:
        if enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]


def factor(before: float, after: float) -> float:
    """What a duration measured between two calibrations is multiplied by."""
    return REFERENCE_S / ((before + after) / 2.0)


def scale(durations: Sequence[float], calibrations: Sequence[float]) -> List[float]:
    """Scale each duration by the calibrations on either side of it.

    ``calibrations`` has one entry more than ``durations``: the one before
    the first piece of work, then one after each piece.
    """
    if len(calibrations) != len(durations) + 1:
        raise ValueError(f"{len(durations)} durations need {len(durations) + 1} calibrations")
    return [
        duration * factor(before, after)
        for duration, before, after in zip(durations, calibrations, calibrations[1:])
    ]


def pin_to_one_cpu() -> None:
    """Run this process, and the processes and threads it starts later, on one CPU.

    Where the OS does not allow it, the benchmark measures unpinned.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, cpus[-1:])
    except (AttributeError, OSError):
        pass
