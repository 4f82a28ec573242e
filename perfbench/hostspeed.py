"""Op times corrected for the speed of a shared host's core.

On a shared virtual machine the speed of a core moves by a quarter within
seconds as other tenants come and go, and CPU time does not remove that: on
a 2-vCPU Xeon virtual machine (2.1 GHz) the same pair of recovery round
trips, making the same 95 k oracle queries, took 2.4 to 3.3 s of thread CPU
time.  ``HostClock`` samples the core's speed while ops run: every
``PERIOD_S`` of this process's CPU time (``SIGVTALRM``) it times a fixed
pure-Python burst, with the garbage collector off so that the burst never
depends on the library's heap.  An op's CPU time, less the time spent in
samples, is scaled by ``REF_BURST_S / mean burst time`` over the samples
taken while it ran, or over the last ``WINDOW`` samples for ops too short
to hold that many.  The result is the op's time on a core that runs the
burst in ``REF_BURST_S``, about the burst's time on that virtual machine.
The sampling costs under 1 % of CPU time.
"""

from __future__ import annotations

import gc
import signal
import statistics
from array import array
from time import thread_time

PERIOD_S = 0.02
WINDOW = 16
REF_BURST_S = 1.5e-4
BURST_STEPS = 200


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        self.a = a
        self.b = b

    def affine(self, y: float) -> float:
        return self.a * y + self.b


def burst() -> None:
    """Fixed interpreter work like the library's: float arithmetic,
    small-dict updates, object construction and method calls.  Of the
    bursts tried, this mix tracked the recovery workload's CPU time best;
    bursts that walk a large list or dict tracked it worse or not at all."""
    x = 0.0
    d = {}
    get = d.get
    for i in range(BURST_STEPS):
        k = i & 31
        d[k] = get(k, 0.0) + x * 0.5
        x = (x + i * 1.000001) % 97.0
    p = _Pair(1.5, 0.25)
    acc = 0.0
    for i in range(BURST_STEPS):
        q = _Pair(acc, i)
        acc = p.affine(q.b) * 1e-3 + q.a * 0.5


class HostClock:
    """Times ops in host-speed-corrected seconds; see the module docstring.

    ``begin()`` then ``end()`` around an op returns (cpu_s, ref_s): its CPU
    time without the samples taken during it, and that time scaled to the
    reference speed."""

    def __init__(self) -> None:
        self.samples = array("d")
        self.spent = 0.0          # CPU seconds spent in samples so far
        self._busy = False
        self._previous = None
        self._mark = (0, 0.0, 0.0)

    def _sample(self, *_) -> None:
        if self._busy:
            return
        self._busy = True
        t = thread_time()
        enabled = gc.isenabled()
        gc.disable()
        try:
            t1 = thread_time()
            burst()
            self.samples.append(thread_time() - t1)
        finally:
            if enabled:
                gc.enable()
            self.spent += thread_time() - t
            self._busy = False

    def start(self) -> None:
        """Seed the window with samples taken now, then sample periodically."""
        burst()   # warm-up, not recorded
        for _ in range(WINDOW):
            self._sample()
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGVTALRM, self._previous)
            self._previous = None

    # The clock is read before the sample bookkeeping in ``begin`` and after
    # it in ``end``, so a sample landing in between is never subtracted
    # without having been timed.
    def begin(self) -> None:
        t0 = thread_time()
        self._mark = (len(self.samples), self.spent, t0)

    def end(self) -> tuple[float, float]:
        spent = self.spent
        t = thread_time()
        n0, spent0, t0 = self._mark
        cpu = t - t0 - (spent - spent0)
        during = self.samples[n0:]
        if len(during) < WINDOW:
            during = self.samples[-WINDOW:]
        return cpu, cpu * REF_BURST_S / statistics.fmean(during)

    def mean_burst_s(self) -> float:
        return statistics.fmean(self.samples)
