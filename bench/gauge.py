"""Machine-speed gauge for timings taken on a shared, noisy machine.

On a small virtual machine the speed of a core drifts by tens of percent
over seconds and minutes as other tenants load the host, so the raw wall
time of the same pass spreads too widely to compare two commits.  The
gauge is a fixed piece of work that uses only the standard library, so no
change to gaasim or numpy can change its cost: an interpreter loop and
``%.15g`` float formatting, about 1 ms of it.  It touches almost no memory,
and it is long enough that the cold caches a pass leaves behind cost
little of a sample.  A `Sampler` times it every 100 ms while a pass runs,
on the same core and at the same moments, and a timing divided by the mean
gauge time cancels the drift.
"""

from __future__ import annotations

import signal
import time

#: about the median gauge time on a 2-vCPU KVM guest (Xeon model 207,
#: Python 3.11.7); it only scales normalized timings back to seconds
REFERENCE_GAUGE_S = 1e-3

#: wall time between two samples; a sample costs about 1 % of it
SAMPLE_INTERVAL_S = 0.1


def gauge() -> float:
    """Seconds taken by one round of the fixed reference work."""
    start = time.perf_counter()
    acc = 0
    for i in range(4800):
        acc += i * i
    for i in range(320):
        # one operand, so no tuple: the gauge allocates no object the cyclic
        # garbage collector tracks and never triggers a collection of the
        # program's heap inside a sample
        "%.15g" % (acc / (i + 7.0))
        "%.15g" % (1.0 / (acc + i + 1.0))
    return time.perf_counter() - start


class Sampler:
    """Times the gauge on SIGALRM every SAMPLE_INTERVAL_S of wall time.

    The handler runs between bytecodes of the main thread, so a sample
    waits for a long call into C code to return; it still falls inside
    the interval being measured.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._marked = 0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(gauge())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.samples.append(gauge())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> float:
        """Mean gauge time since the previous mark, with one fresh sample."""
        self.samples.append(gauge())
        window = self.samples[self._marked:]
        self._marked = len(self.samples)
        return sum(window) / len(window)


def normalize(seconds: float, gauge_s: float) -> float:
    """A timing taken while the gauge read `gauge_s`, at reference speed."""
    return seconds * REFERENCE_GAUGE_S / gauge_s
