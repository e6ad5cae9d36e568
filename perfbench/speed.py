"""Machine-speed probe: rescales measured times to one reference speed.

The benchmark runs on a few cores of a shared host whose speed changes by up
to 1.5x for seconds at a time, as neighbours come and go; a fixed pure-Python
loop slows with it.  Timed intervals of one run, and medians of ten runs,
moved by 20-30% with the host alone.  So while the benchmark times anything,
a timer interrupts it every INTERVAL_S and runs a fixed reference loop
(`reference_loop`), taking a sample of the host's current speed.  A timed
interval is then reported as

    (its length - the probe's own time inside it) * mean(REFERENCE_S / sample)

over the samples taken within WINDOW_S of it: the seconds it would have
taken at the speed at which the reference loop takes REFERENCE_S.  A change
that makes the library faster lowers this number as it lowers the raw time;
the reference loop is the benchmark's own code, and the library never runs
it.  The loop mixes what the library spends its time on (tuple keys, dict
updates, hashing and Fraction arithmetic), so that it slows with the host
by about the same factor as the library's own code.
"""

import gc
import signal
import time
from bisect import bisect_left
from fractions import Fraction

INTERVAL_S = 0.05
WINDOW_S = 0.25
# reference_loop's time at the faster of the two speeds seen on a 2-vCPU
# Intel Xeon VM under Python 3.11
REFERENCE_S = 0.00055


def reference_loop():
    d = {}
    s = 0
    f = Fraction(0)
    for i in range(1500):
        t = (i, i % 7, i % 11)
        d[t] = d.get(t, 0) + 1
        s += hash(t) & 255
        if i % 50 == 0:
            f += Fraction(i, 7)
    return s, f


class Probe:
    """Samples the reference loop on a SIGALRM timer while running."""

    def __init__(self):
        self.starts = []    # when each sample began
        self.ends = []      # when the handler returned
        self.loops = []     # the reference loop's time in each sample

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame):
        # the faster of two loops, so that one interrupt does not read as a
        # slow host; no collection inside, where it would be charged to the
        # probe instead of to the work that made the garbage
        perf = time.perf_counter
        gc_was_on = gc.isenabled()
        gc.disable()
        a = perf()
        reference_loop()
        b = perf()
        reference_loop()
        c = perf()
        if gc_was_on:
            gc.enable()
        self.starts.append(a)
        self.loops.append(min(b - a, c - b))
        self.ends.append(perf())

    def net(self, a, b):
        """Length of [a, b] without the probe's own samples inside it."""
        i, j = bisect_left(self.starts, a), bisect_left(self.starts, b)
        return (b - a) - sum(self.ends[k] - self.starts[k] for k in range(i, j))

    def speed(self, a, b):
        """mean(REFERENCE_S / sample) over the samples near [a, b]; the
        nearest sample when none lies within WINDOW_S."""
        if not self.loops:
            raise RuntimeError("the speed probe took no samples")
        i = bisect_left(self.starts, a - WINDOW_S)
        j = bisect_left(self.starts, b + WINDOW_S)
        if i == j:
            i = min(i, len(self.loops) - 1)
            if i > 0 and a - self.starts[i - 1] < self.starts[i] - b:
                i -= 1
            j = i + 1
        return sum(REFERENCE_S / t for t in self.loops[i:j]) / (j - i)

    def scaled(self, a, b):
        """Seconds [a, b] would have taken at the reference speed."""
        return self.net(a, b) * self.speed(a, b)
