"""Host-speed sampler: times a fixed reference kernel every few milliseconds.

The benchmark's host is shared, and the speed of the same code on it drifts
by 10-40% over tens of seconds, CPU time included.  A pass cannot be paused to
time a reference before and after every slice of it, so the reference runs
inside the pass instead: an interval timer raises SIGALRM every ``PERIOD_S``
and the handler times ``kernel()`` on the same core, interleaved with the
program at that moment.  The handler runs between Python bytecodes, so during
a long C call the signal waits until the call returns.

``Sampler.stop()`` gives the elapsed time net of the handler's own time and
that net time scaled to the reference speed: ``net * mean(REF_S / t_i)`` over
the kernel times ``t_i``.  The mean of ``REF_S / t_i`` is the host's speed
relative to the reference, averaged over the sampled moments, so the scaled
time is what the pass would have taken on a host running the kernel in
exactly ``REF_S``.  A change to the program moves the net time and not the
kernel, so it moves the scaled time by the same share.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.01
# the kernel's typical time on the host named in README.md; any constant
# works, this one keeps scaled times close to that host's wall times
REF_S = 4.0e-4

_LIST = list(range(64))
_RNG = np.random.default_rng(12345)
_KEYS = _RNG.integers(0, 1 << 20, size=1024)
_WEIGHTS = _RNG.random(1024)


def kernel() -> float:
    """Fixed work, about half interpreter and half small numpy calls.

    The interpreter half tracks step-by-step Python code such as the
    protocol and SGD loops; the numpy half (sort, bincount, search on
    1024 keys) tracks array code such as the empirical pair losses.  On
    the reference host the two halves take about the same time.
    """
    total = 0
    table = {}
    for i in range(1200):
        total += (i * i) % 7
        table[i & 63] = total
    for _ in range(40):
        total += sum(_LIST) + len(sorted(table))
    keys = np.unique(_KEYS)
    bins = np.bincount(_KEYS & 1023, weights=_WEIGHTS, minlength=1024)
    found = np.searchsorted(keys, _KEYS)
    return total + float(bins.sum()) + int(found[-1])


# Run once now, so that every lazy import the kernel triggers is done before
# a handler can interrupt the program inside an import of its own.
kernel()


class Sampler:
    """Times ``kernel()`` on every SIGALRM between ``start()`` and ``stop()``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._started = 0.0

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def start(self) -> None:
        self.samples.clear()
        self.handler_s = 0.0
        signal.signal(signal.SIGALRM, self._on_alarm)
        self._started = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    @staticmethod
    def disarm() -> None:
        """Stop the timer; safe to call at any time, on any path out."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def stop(self) -> dict:
        """Stop sampling; the elapsed time raw, net of the handler, and scaled."""
        self.disarm()
        elapsed = time.perf_counter() - self._started
        if not self.samples:
            raise RuntimeError("host-speed sampler took no samples")
        speed = sum(REF_S / t for t in self.samples) / len(self.samples)
        net = elapsed - self.handler_s
        return {"raw_s": elapsed, "net_s": net, "ref_s": net * speed, "speed": speed,
                "handler_s": self.handler_s, "samples": len(self.samples)}
