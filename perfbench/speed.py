"""Host-speed probe: wall times scaled to the machine's uncontended speed.

The benchmark runs on a shared virtual machine whose speed switches
between two levels as the host's other tenants come and go: a fixed
piece of work takes about 1.0x or 1.5x its fastest time, in stretches of
a fraction of a second to minutes.  Those stretches move a wall time by up
to half, and the share of slow stretches drifts over minutes, so medians
of raw wall times drift with it.

The probe times `calibrate()` right before and after a measured interval
and, through SIGALRM, every INTERVAL_S of wall time during it.  A wall
time scaled by REF_S times the mean of 1/calibration over those samples
is the time the interval would have taken with calibrate() at REF_S.  The
probe's own time during the interval is reported so it can be
subtracted.
"""

from __future__ import annotations

import gc
import signal
import time

CAL_LOOP = 1700
CAL_ITEMS = 600
# calibrate() on this benchmark's reference machine (a 2-vCPU Intel Xeon
# virtual machine at 2.1 GHz, Python 3.11) in its fast state.
REF_S = 0.00023
INTERVAL_S = 0.02


def calibrate() -> float:
    """Seconds one fixed piece of work takes now: an integer loop, then
    filling and scanning a dict of small tuples, the two in about equal
    time.  cgm's commands slow down with the machine more than the loop
    alone and some less than the dict work alone; the mix tracks them
    best.  Collection is paused so that a collection of the program's heap
    is not timed."""
    t0 = time.perf_counter()
    collecting = gc.isenabled()
    gc.disable()
    s = 0
    for i in range(CAL_LOOP):
        s += i * i // 7
    d = {}
    for i in range(CAL_ITEMS):
        k = (i & 31, i >> 5)
        d[k] = (k, i)
    for k, v in d.items():
        s += v[0] == k
    if collecting:
        gc.enable()
    return time.perf_counter() - t0


class Probe:
    """Samples calibrate() around and during a `with` block."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.overhead_s = 0.0

    def _tick(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.overhead_s += time.perf_counter() - t0

    def __enter__(self) -> "Probe":
        self.samples = [calibrate()]
        self.overhead_s = 0.0
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        # Ignored, not default: an alarm still pending would end the process.
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self.samples.append(calibrate())

    def scale(self) -> float:
        """Factor from wall seconds during the block to reference seconds."""
        return REF_S * sum(1 / c for c in self.samples) / len(self.samples)
