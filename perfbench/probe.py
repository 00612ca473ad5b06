"""Machine-speed probe: a fixed loop, timed between commands.

On a shared host the speed of the same code swings by up to 1.8x, within
seconds and for minutes at a time, as other tenants load the cores (seen on a
2-vCPU VM with a fixed pure-Python loop: identical CPU and wall time, no steal
time).  A median over passes cannot remove a swing that lasts a whole run, so
the end-to-end times are scaled by the probe, sampled every EVERY_S between
commands: they are multiplied by the probe's nominal time over the run's
median probe time, and read in seconds of a machine on which the probe takes
its nominal time (about its time on an idle core of that VM).  One factor
per run: single probes are too noisy to correct single commands, but their
median follows the drift from run to run.  The one-thread probe mixes an
interpreter loop and numpy array passes, like the program.

A command is scaled by a probe that runs as it does.  Commands without a
thread pool get the one-thread probe.  Pool commands whose work holds the GIL
(the sampled and pure-Python paths of scan-sparse) get a probe that runs an
interpreter loop in a pool of as many threads: their time depends on how the
threads hand the GIL over, which swings with the load on the other cores and
which the one-thread probe does not see (on scan-sparse, six runs, the
spread of the p95 command time was 0.056 of its median with the one-thread
probe and 0.031 with the pool probe).  Scans whose pool keeps several cores
busy (the bitset scans of scan-dense) get a probe that runs the numpy array
passes, which release the GIL, in a pool of as many threads: in ten runs
where the one-thread probe slowed by a quarter, those scans did not slow at
all, and left unscaled they followed the machine's drift (wall_s spread 0.13
of its median over ten runs).
"""

from __future__ import annotations

import statistics
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

# nominal times of the one-thread, GIL-bound pool and parallel pool probes;
# with two threads the pool probes took 1.6x and 0.46x the one-thread probe's
# time, side by side
NOMINAL_S = 0.005
POOL_NOMINAL_S = 0.008
PARALLEL_NOMINAL_S = 0.0023
EVERY_S = 0.1


def _array_passes(_=None) -> int:
    a = np.arange(65_536, dtype=np.uint64)
    for _ in range(16):
        a = (a * np.uint64(0x9E3779B1)) ^ (a >> np.uint64(7))
    return int(a[-1])


def _loop() -> int:
    x = 0
    for i in range(30_000):
        x += i * i % 7
    return x + _array_passes()


def _chunk(_) -> int:
    # about one GIL switch interval (5 ms), so that the threads hand it over
    x = 0
    for i in range(60_000):
        x += i * i % 7
    return x


def _pool_loop(threads: int, work) -> int:
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return sum(pool.map(work, range(threads)))


class Probe:
    """Probe durations over a run, for commands run on ``threads`` threads,
    whose pool keeps that many cores busy if ``parallel``."""

    def __init__(self, threads: int = 1, parallel: bool = False):
        self.threads = threads
        self.parallel = parallel
        if threads == 1:
            self.nominal_s = NOMINAL_S
        else:
            self.nominal_s = PARALLEL_NOMINAL_S if parallel else POOL_NOMINAL_S
        self.secs: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        start = perf_counter()
        if self.threads == 1:
            _loop()
        else:
            _pool_loop(self.threads, _array_passes if self.parallel else _chunk)
        self._last = perf_counter()
        self.secs.append(self._last - start)

    def maybe(self) -> None:
        """Sample if the last sample is more than EVERY_S old."""
        if perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self) -> float:
        """The nominal time over the median probe time."""
        return self.nominal_s / statistics.median(self.secs)
