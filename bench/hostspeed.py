"""Host-speed reference for the benchmark's end-to-end times.

The shared host the benchmark is built for changes speed for minutes at a
time (runs of the same code moved by up to 1.9x), and CPU time moves with
wall time, so raw timings follow the host more than the code.  A fixed
piece of numpy work that does not use nk6 -- batched contractions of
rank-3 tensors and a loop over small arrays, the kinds of work nk6's layers
do -- reads the host's speed.  `Probe` runs it every PERIOD_S seconds of a
run, from a SIGALRM handler, so it samples the host while long ops run
too; the probe's own time is taken out of the op times.

`speed(times)` is REF_S over the mean probe time: 1.0 where the reference
takes REF_S seconds, below 1 on a slower host.  run.py scales the run's
times by it to that reference speed.
"""

import signal
import time

import numpy as np

PERIOD_S = 0.2     # one probe per this much wall time
REF_S = 0.003      # probe time at reference host speed: the median on a shared 2-core x86-64 host

_RNG = np.random.default_rng(12345)
_BATCH = _RNG.standard_normal((1024, 3, 3, 3))
_VEC = _RNG.standard_normal((1024, 3))
_SMALL = _RNG.standard_normal((3, 3, 3))


def reference():
    """The fixed work whose time reads the host's speed; returns its time."""
    t0 = time.perf_counter()
    for _ in range(4):
        v2 = np.einsum("nkij,ni,nj->nk", _BATCH, _VEC, _VEC)
        np.einsum("nkij,nkij->n", _BATCH, _BATCH)
        np.linalg.norm(v2 - np.sum(v2 * _VEC, axis=-1)[:, None] * _VEC, axis=-1).max()
    u = _SMALL[0, 0]
    for _ in range(150):
        x = np.einsum("kij,i,j->k", _SMALL, u, u)
        u = x / np.linalg.norm(x)
    return time.perf_counter() - t0


def speed(times):
    return REF_S / (sum(times) / len(times))


class Probe:
    """Runs `reference()` every PERIOD_S seconds between start() and stop().

    `times` holds each probe's time and `total` their sum, which callers
    subtract from the wall time they measure around an op."""

    def __init__(self):
        self.times = []
        self.total = 0.0
        self._busy = False
        self._old = None

    def _tick(self, signum, frame):
        if self._busy:          # a late tick while the last probe still runs
            return
        self._busy = True
        t0 = time.perf_counter()
        try:
            self.times.append(reference())
        finally:
            self.total += time.perf_counter() - t0
            self._busy = False

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
