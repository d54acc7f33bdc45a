"""Host-speed probe: fixed reference work timed all through a run.

On a shared 2-core virtual machine the speed for the same single-threaded
work swings by up to 1.7x over seconds to minutes (a fixed Python loop
measured 14 to 20 ms, switching every few seconds). Raw times then spread by 20-50%
from run to run whatever the statistic. So every time the benchmark reports
is at *reference speed*: the raw time multiplied by REFERENCE_S over the
mean of the probe readings taken while it ran (or the last one before it,
for an operation shorter than the probe interval), that is, seconds on a
host where one probe takes exactly 1 ms. The probe never touches the program: a faster
program lowers the reported times in proportion, a slower host does not
raise them. Raw times are printed next to the reported ones.

The probe mixes the three kinds of work lshlab does, in about equal parts:
exact Fraction comparisons, dict and integer bit work in the interpreter,
and a numpy butterfly over a small array. In a 100 s recording on that
machine, dividing by this mix cut the window-to-window variation of query,
Monte Carlo, spectrum, MinHash-curve and text-load operations from 17-23%
to 8-10%. The probe runs every 0.2 s on a timer signal, inside operations
as well, so a long operation is converted by the host speed it actually
saw; its own time (about 1%) is taken out of the operation's timing but
stays in whatever trace span it interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

REFERENCE_S = 1e-3
INTERVAL_S = 0.2
MIN_PROBES = 5

_WEIGHTS = [Fraction(1, 144)] * 144
_ROWS = 1 << 9
_MATRIX = np.random.default_rng(0).random((_ROWS, 64))


def _reference_work() -> float:
    w0 = _WEIGHTS[0]
    same = 0
    for _ in range(8):
        same += all(w == w0 for w in _WEIGHTS)
    counts: dict = {}
    for i in range(2500):
        v = (i * 2654435761) & 0xFFFFF
        counts[v & 255] = counts.get(v & 255, 0) + v.bit_count()
    out = _MATRIX
    h = 1
    while h < _ROWS:  # Walsh-Hadamard butterflies, as in the spectral layer
        out = out.reshape(_ROWS // (2 * h), 2, h, 64)
        out = np.stack([out[:, 0] + out[:, 1], out[:, 0] - out[:, 1]], axis=1).reshape(_ROWS, 64)
        h *= 2
    return same + len(counts) + float(out[0, 0])


def mean_reading(n: int = MIN_PROBES) -> float:
    readings = []
    for _ in range(n):
        t0 = time.perf_counter()
        _reference_work()
        readings.append(time.perf_counter() - t0)
    return statistics.fmean(readings)


class SpeedProbe:
    """Runs the reference work on a timer signal, in the main thread, every
    INTERVAL_S while active. `during(mark)` gives the probe readings since
    `mark`, and how long they took, so callers can take probe time out of an
    operation's timing and convert the rest to reference seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        _reference_work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        for _ in range(MIN_PROBES):
            self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def convert(self, mark: tuple[int, float], raw_s: float) -> tuple[float, float]:
        """(time without probing, the same in reference seconds) for work
        that started at `mark` and took `raw_s` of wall time."""
        n0, spent0 = mark
        work = raw_s - (self.spent - spent0)
        readings = self.samples[n0:] or self.samples[-1:]
        return work, work * REFERENCE_S / statistics.fmean(readings)

    def scale(self, mark: tuple[int, float] = (0, 0.0)) -> float:
        """Factor from raw to reference seconds since `mark` (default: the whole run)."""
        return REFERENCE_S / statistics.fmean(self.samples[mark[0]:])
