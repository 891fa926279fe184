"""Machine speed sampled from inside the measured process.

The benchmark runs on shared hosts where neighbours slow the same work by up
to half, in spells that last from seconds to minutes.  Medians over a run
cannot remove a slowdown that lasts the whole run, so each run also measures
how fast the machine was while it ran.

A `SpeedProbe` sets a SIGALRM interval timer.  At every tick the handler
times `kernel`, fixed work that uses nothing from rdslab.  A tick lands
between two bytecodes of whatever the process is doing, so the samples spread
evenly over the timed region, long native calls excepted.  The share of full
speed over a region is the mean of `KERNEL_REF_S / sample` over the samples
taken in it.  `ProbeWindow.scale` takes the handler's own time out of a
measured time and multiplies by that share.  The result reads in reference
seconds: what the work would take on the reference machine when nothing
slows it.  A change to the program moves the scaled time by the same share as
the raw time, because the kernel does not depend on the program.
"""

from __future__ import annotations

import marshal
import signal
import statistics
import time

_CODE = marshal.dumps(compile(
    "".join(f"def f{i}(a, b={i}):\n    return [a, b, 'k{i}', ({i}, a)]\n" for i in range(250)),
    "<kernel>", "exec"))


def kernel() -> int:
    """An arithmetic loop, an unmarshal of compiled code, and small allocations.

    Among the kernels tried, this mix tracked the slowdown of both the
    workloads and the import that set-up time measures best.  It needs only
    the standard library, so it runs before numpy is imported.
    """
    s = 0
    for i in range(4000):
        s = (s + i * i) % 1000003
    marshal.loads(_CODE)
    d = {}
    for i in range(800):
        d[str(i)] = (i, [i], {"a": i})
    return s + len(d)


# A round figure near the fastest samples taken while the workloads ran on a
# shared 2-core KVM guest (Intel Xeon, Python 3.11).  It fixes the scale of
# reference seconds and is the same for every commit that is compared.
KERNEL_REF_S = 1.2e-3


class SpeedProbe:
    """Samples the kernel every `period_s` seconds while it is entered."""

    def __init__(self, period_s: float):
        self.period_s = period_s
        self.samples = []     # kernel times, in the order taken
        self.handler_s = 0.0  # total time spent sampling
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def window(self) -> "ProbeWindow":
        """Start a timed region; take one sample now so it never lacks one."""
        self._sample()
        return ProbeWindow(self, len(self.samples) - 1, self.handler_s)


class ProbeWindow:
    def __init__(self, probe: SpeedProbe, first: int, handler_s: float):
        self.probe = probe
        self.first = first
        self.handler_s = handler_s

    def speed(self) -> float:
        """Share of reference full speed over the samples since the window began."""
        return statistics.fmean(KERNEL_REF_S / k for k in self.probe.samples[self.first:])

    def scale(self, seconds: float) -> float:
        """`seconds` measured inside the window, in reference seconds."""
        return (seconds - (self.probe.handler_s - self.handler_s)) * self.speed()
