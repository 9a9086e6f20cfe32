"""Speed reference for the benchmark's timings.

On a shared host the same operation can take 20-40% longer from one second
to the next, and the typical time drifts by as much over tens of minutes,
because other tenants' load changes how fast this process runs.  So while
an operation runs, ``SpeedSampler`` times a short calibration slice every
``INTERVAL_S`` seconds (and a few right before and after), from a SIGALRM
handler in the same thread.  The benchmark subtracts the slices from the
operation's wall time and scales the rest by ``REFERENCE_S`` over the mean
slice time: it reports seconds on a host where one slice takes
``REFERENCE_S``.  A slice is a pure-Python tree walk with float arithmetic,
the same kind of interpreter work funcdecomp does, and shares no code with
funcdecomp, so a change to funcdecomp cannot move it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

REFERENCE_S = 0.005
INTERVAL_S = 0.1
EDGE_SLICES = 5
_DEPTH = 10
_REPS = 20


def _tree(depth: int, k: int) -> tuple:
    if depth == 0:
        return ("x", k % 8)
    op = "pow" if depth % 3 == 0 else ("add" if depth % 2 else "mul")
    return (op, _tree(depth - 1, 2 * k), _tree(depth - 1, 2 * k + 1))


def _walk(node: tuple, x: list[float]) -> float:
    tag = node[0]
    if tag == "x":
        return x[node[1]]
    a = _walk(node[1], x)
    b = _walk(node[2], x)
    if tag == "add":
        return a + b
    if tag == "mul":
        return a * b
    return math.pow(abs(a), 1.0 / (1.0 + abs(b)))


_TREE = _tree(_DEPTH, 0)


def calibrate() -> float:
    """Seconds for one slice: a fixed amount of pure-Python work."""
    x = [0.5 + 0.125 * i for i in range(8)]
    start = time.perf_counter()
    total = 0.0
    for rep in range(_REPS):
        x[rep % 8] += 1e-3
        total += _walk(_TREE, x)
    elapsed = time.perf_counter() - start
    if not math.isfinite(total):
        raise ArithmeticError("calibration loop diverged")
    return elapsed


class SpeedSampler:
    """Calibration slices around and during one measured stretch of the
    main thread: ``start()``, the work, ``stop()``.  The timer is one-shot
    and re-armed after each slice, so the work always gets ``INTERVAL_S``
    between slices however slow the host is."""

    def __init__(self) -> None:
        self.slices: list[tuple[float, float]] = []  # (end time, seconds)
        self._active = False
        self._previous = None

    def _slice(self) -> None:
        seconds = calibrate()
        self.slices.append((time.perf_counter(), seconds))

    def _tick(self, *_signal_args: object) -> None:
        self._slice()
        if self._active:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        for _ in range(EDGE_SLICES):
            self._slice()
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_SLICES):
            self._slice()

    def inside(self, start: float, end: float) -> float:
        """Seconds spent in slices that ended within ``[start, end]``."""
        return math.fsum(s for t, s in self.slices if start < t <= end)

    def mean(self) -> float:
        return statistics.fmean(s for _, s in self.slices)
