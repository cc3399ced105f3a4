"""Reference-speed clock.

The speed of a shared machine drifts, between runs and within one, so
every end-to-end time is divided by the time of a fixed pure-Python
kernel measured in the same run, interleaved with the operations, and
multiplied by a fixed nominal kernel time.  The results keep their units
(s, ms, 1/s): they read as times on a machine on which the kernel takes
NOMINAL_KERNEL_S.

An operation's time is divided by the median of the kernel samples taken
right before it, during it and right after it.  Samples during an
operation come from an interval timer: every INTERVAL_S the signal
handler runs the kernel once, and the handler's time is taken out of the
operation's time.  Long operations thus follow a drift within them, and
short ones (no tick) use the samples around them.  Operations that run in
a child process are scaled by the median of all the run's samples, taken
in a fresh interpreter after each operation.

The kernel does Fraction, int and dict work, like the program, and
imports nothing from it.
"""

import signal
import statistics
import time
from fractions import Fraction

# the kernel's median time on the machine the README's figures come from
NOMINAL_KERNEL_S = 0.010
# one kernel sample per INTERVAL_S of operation time: about 5 % overhead
INTERVAL_S = 0.2


def kernel():
    counts = {}
    x = 1
    for i in range(300):
        acc = Fraction(0)
        for j in range(1, 9):
            acc += Fraction(i % 7 + j, j + 1)
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        key = (acc.numerator % 101, x % 13)
        counts[key] = counts.get(key, 0) + 1
    return len(counts)


def time_kernel():
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class RefClock:
    """Kernel samples of one process.

    `between[j]` holds the samples taken before operation j (after
    operation j - 1), `inside[j]` those taken during it.
    """

    def __init__(self):
        self.between = []
        self.inside = []
        self._ticks = []
        self._paused = 0.0

    @property
    def samples(self):
        return [t for group in self.between + self.inside for t in group]

    def sample(self, times=1):
        self.between.append([time_kernel() for _ in range(times)])

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self._ticks.append(time_kernel())
        self._paused += time.perf_counter() - start

    def timed(self, call, ticks=True):
        """(outcome, raw seconds of CALL without the kernel ticks).

        The outcome is CALL's result, or the exception it raised.  The
        ticks' samples go to `inside`, one sample after CALL to `between`.
        """
        self._ticks, self._paused = [], 0.0
        if ticks:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        start = time.perf_counter()
        try:
            outcome = call()
        except Exception as err:  # the caller reports it as a failure
            outcome = err
        finally:
            if ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            if ticks:
                signal.signal(signal.SIGALRM, previous)
        self.inside.append(self._ticks)
        self.sample()
        return outcome, elapsed - self._paused

    def scale(self):
        """Factor from raw to reference seconds over the whole run."""
        return NOMINAL_KERNEL_S / statistics.median(self.samples)


def scaled(times, between, inside):
    """Reference-speed times of the operations of one run."""
    return [t * NOMINAL_KERNEL_S
            / statistics.median(between[j] + inside[j] + between[j + 1])
            for j, t in enumerate(times)]


def scaled_by_run(times, between):
    """Reference-speed times, every operation scaled by the median of all
    the run's samples: for operations that run in another process, which
    may run on another core than the samples."""
    kernel_s = statistics.median(t for group in between for t in group)
    return [t * NOMINAL_KERNEL_S / kernel_s for t in times]
