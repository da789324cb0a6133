"""A fixed reference computation that measures how fast this machine runs now.

On a shared host the speed of one core drifts by up to 2x within seconds,
far more than any change a benchmark has to resolve.  ``slowness`` times a
fixed mix of the operations pulsefront's solvers spend their time in
(interpreted Python arithmetic and calls, short NumPy vector expressions, a
banded tridiagonal solve), using none of pulsefront's code, so no change to
the program moves it.  ``Meter`` samples it throughout a stretch of work and
divides each piece of the work's wall time by the slowness measured around
that piece, which removes most of the host's drift.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.linalg import solve_banded

# median time of _REPS steps on the machine the bounds were set on (2-core
# Xeon, Python 3.11, NumPy 2.4, SciPy 1.17); scaled times are in seconds of a
# machine that runs them in exactly this time
REFERENCE_SECONDS = 0.125

_N = 511
_REPS = 1800
# a sample taken while work runs: about 20 ms, every half second
SAMPLE_REPS = 300
SAMPLE_INTERVAL = 0.5


def _step(w: np.ndarray, ab: np.ndarray, k: int) -> float:
    rhs = w[1:-1] + 0.01 * (0.5 * (w[2:] - w[:-2]) - 0.3 * w[1:-1])
    x = solve_banded((1, 1), ab, rhs)
    acc = float(np.max(x))
    for j in range(24):
        acc = acc * 0.999 + j * 1e-3 + k * 1e-9
    return acc


def slowness(reps: int = _REPS) -> float:
    """Wall time of ``reps`` reference steps over their time on the reference machine."""
    w = np.linspace(0.0, 1.0, _N + 2) ** 2
    ab = np.empty((3, _N))
    ab[0] = -0.3
    ab[1] = 1.6
    ab[2] = -0.3
    t0 = time.perf_counter()
    for k in range(reps):
        _step(w, ab, k)
    return (time.perf_counter() - t0) / (REFERENCE_SECONDS * reps / _REPS)


class Meter:
    """Times one stretch of work (``with meter:``), in raw and reference seconds.

    A slowness sample is taken on entry, on exit, and every SAMPLE_INTERVAL
    seconds in between, from a SIGALRM handler that runs between two Python
    bytecodes of the work.  The samples change no state of the work.  Each
    piece of work between two samples is divided by the mean of those two
    samples; the samples' own time is left out of both results.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.wall = 0.0
        self.scaled = 0.0
        self._last_end = 0.0
        self._busy = False
        self._previous = None  # the SIGALRM handler to restore on exit

    def _sample(self, *_signal_args) -> None:
        if self._busy:  # a tick that lands while a sample runs is dropped
            return
        self._busy = True
        start = time.perf_counter()
        s = slowness(SAMPLE_REPS)
        piece = start - self._last_end
        self.wall += piece
        self.scaled += piece / (0.5 * (self.samples[-1] + s))
        self.samples.append(s)
        self._last_end = time.perf_counter()
        self._busy = False

    def __enter__(self) -> Meter:
        self.samples = [slowness(SAMPLE_REPS)]
        self.wall = self.scaled = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._last_end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
