"""Timing helpers: the speed probe, the per-call wall cap and the
percentile rule.

The machines this runs on share their cores, and their speed drifts by
20-30% within seconds.  While a ``SpeedProbe`` is active, a CPU-time
timer signal runs a fixed pure-Python kernel every PROBE_INTERVAL_S, and
the caller probes between operations too, so probes are at most about an
interval apart.  An operation's wall time, less the probes that
ran inside it, is rescaled by the kernel times measured during it or,
for a short operation, close to it: the result is seconds at a
reference speed, where the kernel takes REF_KERNEL_S.  The kernel belongs to the benchmark, so a
change to the package cannot speed it up.

The cap is enforced from outside the package with a wall-clock interval
timer: the searches it guards are pure Python, so SIGALRM interrupts them
between bytecodes.  A capped call is recorded at the cap, not as a
failure.
"""
from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

# candidate percentiles for a tail figure, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


REF_KERNEL_S = 0.0008  # the kernel's time at the reference speed
PROBE_INTERVAL_S = 0.025
SCALE_WINDOW_S = 0.25  # probes this close to a short operation set its factor
MIN_INSIDE = 8  # probes inside an operation that make it long


def _queens(n: int) -> int:
    """Count n-queens solutions by bitmask backtracking."""
    full = (1 << n) - 1
    count = 0

    def place(cols: int, left: int, right: int) -> None:
        nonlocal count
        if cols == full:
            count += 1
            return
        free = full & ~(cols | left | right)
        while free:
            bit = free & -free
            free ^= bit
            place(cols | bit, ((left | bit) << 1) & full, (right | bit) >> 1)

    place(0, 0, 0)
    return count


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    _queens(8)
    return time.perf_counter() - start


class SpeedProbe:
    """Kernel timings taken from a SIGPROF handler while active; use as a
    context manager in the main thread."""

    def __init__(self, interval: float = PROBE_INTERVAL_S):
        self.interval = interval
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._busy = False

    def probe(self, *signal_args) -> None:
        if self._busy:  # the timer fired during a probe
            return
        self._busy = True
        try:
            start = time.perf_counter()
            _queens(8)
            self.starts.append(start)
            self.seconds.append(time.perf_counter() - start)
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self.probe()
        self._previous = signal.signal(signal.SIGPROF, self.probe)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self.probe()

    def maybe_probe(self) -> None:
        """Probe unless the last probe started less than an interval ago."""
        if time.perf_counter() - self.starts[-1] >= self.interval:
            self.probe()

    def recent_scale(self, count: int = 9) -> float:
        """Reference seconds per wall second, from the latest probes."""
        return REF_KERNEL_S / statistics.median(self.seconds[-count:])

    def measure(self, begin: float, end: float) -> tuple[float, float]:
        """(wall seconds between ``begin`` and ``end`` less the probes run
        in between, factor taking them to reference seconds).  A long
        interval is scaled by the mean kernel time of the probes inside it,
        its time-weighted speed; a short one by the median of the probes
        within SCALE_WINDOW_S of it, since one probe alone is noisy."""
        first = bisect.bisect_left(self.starts, begin)
        last = bisect.bisect_left(self.starts, end)
        inside = self.seconds[first:last]
        if len(inside) >= MIN_INSIDE:
            kernel = sum(inside) / len(inside)
        else:
            lo = bisect.bisect_left(self.starts, begin - SCALE_WINDOW_S)
            hi = bisect.bisect_right(self.starts, end + SCALE_WINDOW_S)
            kernel = statistics.median(self.seconds[lo:hi])
        return end - begin - sum(inside), REF_KERNEL_S / kernel


class CapExceeded(BaseException):
    """Raised inside a capped call when its wall cap expires.  A
    BaseException, so that no ``except Exception`` in the package can
    swallow it."""


def _on_alarm(signum, frame):
    raise CapExceeded


def call_with_cap(fn, cap_s: float | None):
    """Run ``fn()``; return ``(result, capped)``.

    With a cap, the call is interrupted once ``cap_s`` wall seconds have
    passed, and ``(None, True)`` is returned.  Must run in the main thread.
    """
    if cap_s is None:
        return fn(), False
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CapExceeded:
        return None, True
    finally:
        signal.signal(signal.SIGALRM, previous)
    return result, False


def tail_level(n: int) -> float | None:
    """The highest percentile in TAIL_LADDER with at least MIN_BEYOND of
    ``n`` samples above its nearest-rank position, or None."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100 * n) >= MIN_BEYOND:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a nonempty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]
