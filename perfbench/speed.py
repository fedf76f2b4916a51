"""How fast the processor runs Python code right now, for normalising times.

On a small shared host the processor given to the benchmark switches
between a fast phase and one up to 1.8 times slower, for under a second to
minutes at a time, and its CPU time rises with its wall time, so neither
clock repeats from run to run.  A Gauge times a fixed pure-Python
reference loop, which uses nothing from hexacent, at points spread over
the measured work: once before and once after each measured block, and,
while the interval timer is on, every INTERVAL_S of CPU time from a
SIGPROF handler.  A block's cost is its CPU time, less the time of the
samples taken inside it, over the mean time of the samples around and
inside it.  It is a count of reference loops, so a slow phase stretches
both and the ratio stays put, while a change to hexacent moves the
numerator alone.  A cost times REFERENCE_S reads as seconds at the speed
of the machine the benchmark was written on.

Times are the thread's CPU time: the worker has one thread, and while an
interval timer is armed, Linux advances the process CPU clock only at
scheduler ticks.
"""

import contextlib
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.15
# CPU seconds of one reference() on the machine the benchmark was written
# on (2-CPU x86-64 guest, Python 3.11.7), outside the host's slow phases
REFERENCE_S = 0.003


def reference():
    """Fixed work in the mix of the workloads: Fraction and big-int
    arithmetic, float arithmetic, calls, tuples and lists (about 3 ms)."""
    s = 0
    pts = []
    x = y = 0.0
    for i in range(1, 601):
        f = Fraction(i * 7919 % 1009 + 1, i % 97 + 2)
        g = f * Fraction(i % 13 + 1, i % 11 + 3) + f
        s += g.numerator * g.denominator
        x = x * 0.5 + (i % 7) * 1.25
        y = y * 0.25 + x * x
        pts.append((x - y, i))
    pts.sort()
    return s, pts[0]


class Gauge:
    def __init__(self):
        self.samples = []  # CPU seconds of each run of reference()
        self._timer = False
        self._busy = False

    def take(self):
        if self._busy:  # a signal came during a sample
            return
        self._busy = True
        t = time.thread_time()
        reference()
        self.samples.append(time.thread_time() - t)
        self._busy = False

    def _on_signal(self, signum, frame):
        self.take()

    def start_timer(self, interval_s=INTERVAL_S):
        """Sample also every interval_s of this process's CPU time."""
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, interval_s, interval_s)
        self._timer = True

    def stop_timer(self):
        if self._timer:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
            self._timer = False

    @contextlib.contextmanager
    def measure(self, out):
        """Measure the block; appends (cost in reference loops, CPU
        seconds without the samples, mean seconds of a sample) to the list
        out."""
        self.take()
        first = len(self.samples) - 1
        t = time.thread_time()
        yield
        cpu = time.thread_time() - t
        inside = sum(self.samples[first + 1:])
        self.take()
        net = cpu - inside
        ref = statistics.fmean(self.samples[first:])
        out.append((net / ref, net, ref))
