"""Speed probe: a timed stretch's wall time, rescaled to a reference CPU speed.

On a shared VM the speed of a vCPU swings by about 1.5x within seconds
and drifts over minutes, so the raw wall time of the same code spreads by
20-40% between runs a few minutes apart.  While a stretch runs,
`SpeedProbe` runs a short, fixed pure-Python kernel on the main thread
every `INTERVAL_S` seconds (from a SIGALRM handler) and times it.  The
kernel's mean time over `REFERENCE_S` is the slowdown the stretch ran at;
each sample is first clipped at twice the median, so that the few samples
another thread preempted do not count as a slow CPU.  The stretch's wall
time, less the probe's own time, divided by that slowdown is its time at
reference speed.

The kernel uses nothing from euclidpt, numpy or scipy, so a change to the
program moves the rescaled time just as it moves the wall time.  The
module imports only the standard library, so the set-up interpreters can
load it before they import anything they time.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
# About the kernel's median time, sampled as the probe samples it, on the
# 2-vCPU Xeon VM (2.0 GHz, Python 3.11.7) where the baseline was recorded,
# so rescaled times read as seconds on that machine at its median speed.
# Changing it rescales every reported time.
REFERENCE_S = 2.3e-4


def kernel():
    acc, seen = 0.0, {}
    for i in range(1000):
        acc += (i % 7) * 0.5
        seen[i & 63] = acc
    return acc


class SpeedProbe:
    """Context manager timing one stretch; `sampling=False` gives the plain wall time."""

    def __init__(self, sampling=True):
        self.sampling = sampling
        self.samples = []
        self.probe_s = 0.0          # time spent in the probe, inside the stretch
        self.wall = 0.0
        self._previous = None
        self._start = 0.0

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        kernel()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.probe_s += took

    def __enter__(self):
        if self.sampling:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            if not self.samples:        # a stretch shorter than one interval
                self._sample()
                self.probe_s = 0.0      # that sample ran outside the stretch
        return False

    @property
    def net(self):
        """Wall time less the probe's own."""
        return self.wall - self.probe_s

    @property
    def slowdown(self):
        if not self.sampling:
            raise ValueError("the stretch was timed without sampling")
        cap = 2.0 * sorted(self.samples)[len(self.samples) // 2]
        return sum(min(t, cap) for t in self.samples) / len(self.samples) / REFERENCE_S

    @property
    def rescaled(self):
        """Time the stretch would have taken at reference speed."""
        return self.net / self.slowdown
