"""Reference speed: a fixed piece of work timed all through a run.

On a shared machine the speed of one thread swings by tens of percent,
flickering between fast and slow within tens of milliseconds (a 2-vCPU
Xeon sandbox showed the same 12-leaf `exact_mle` call take 1.6 s and
2.9 s, and a fixed 100 µs loop take 100-240 µs from one 20 ms stretch to
the next).  Reference samples taken only before and after a measurement
miss most of that.  So the benchmark runs a `Speedometer`: a timer
signal interrupts the process every PERIOD_S and times the reference
work, and every time the benchmark reports is wall time rescaled to a
fixed reference speed:

    scaled = (wall - time spent sampling) * mean(REFERENCE_S / sample)

over the samples taken during the measurement (and the last one before
it).  Averaging speeds, not sample times, weighs each stretch of wall
time by the work the machine did in it, and keeps a sample stretched by
a preemption from counting for more than a slow stretch.

The reference work mixes what jetclust spends its time on (frozen
dataclass arithmetic, `math` calls, dict inserts and a small numpy
matmul with tanh).  It lives here, not in `src/`, so a change to
jetclust moves the scaled times and a change of machine speed does not.
"""

import math
import signal
import statistics
import time
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

# The reference work's typical time on the machine the benchmark was
# written on; it fixes the unit, so scaled times read close to wall times
# there.  Changing it rescales every time metric.
REFERENCE_S = 150e-6
PERIOD_S = 0.02


@dataclass(frozen=True, slots=True)
class _P:
    e: float
    x: float
    y: float
    z: float

    def __add__(self, o: "_P") -> "_P":
        return _P(self.e + o.e, self.x + o.x, self.y + o.y, self.z + o.z)


_POINTS = [_P(10.0 + k, 0.1 * k, 0.2, 0.3 * k) for k in range(12)]
_W = np.random.default_rng(0).normal(size=(13, 64))
_X = np.random.default_rng(1).normal(size=(30, 13))


def _work() -> float:
    acc = 0.0
    table = {}
    for i in range(len(_POINTS)):
        for j in range(i + 1, len(_POINTS)):
            q = _POINTS[i] + _POINTS[j]
            t = q.e * q.e - q.x * q.x - q.y * q.y - q.z * q.z
            acc += math.log1p(t) - 0.5 * t / (1.0 + t)
            table[i, j] = t
    return acc + float(np.tanh(_X @ _W).sum()) + len(table)


class Speedometer:
    """Samples the machine's speed every PERIOD_S of wall time while it
    runs (`with METER:`), from SIGALRM handlers in the main thread."""

    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter at each sample's start
        self.ends: list[float] = []
        self.speeds: list[float] = []  # REFERENCE_S / seconds of the timed repeat
        self._previous = None

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        _work()  # warms the caches the interrupted code took over
        t1 = time.perf_counter()
        _work()
        t2 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t2)
        self.speeds.append(REFERENCE_S / (t2 - t1))

    def scaled(self, start: float, end: float) -> float:
        """Seconds the wall interval [start, end] (perf_counter readings)
        takes at the reference speed."""
        if not self.speeds:
            raise RuntimeError("the speedometer has taken no sample; run inside `with METER:`")
        first = bisect_left(self.starts, start)  # samples inside begin here
        last = bisect_left(self.starts, end)
        own = sum(self.ends[k] - self.starts[k] for k in range(first, last))
        speed = statistics.fmean(self.speeds[max(first - 1, 0):max(last, 1)])
        return (end - start - own) * speed


METER = Speedometer()


def scaled(start: float, end: float) -> float:
    """`METER.scaled`: wall interval [start, end] at the reference speed."""
    return METER.scaled(start, end)

