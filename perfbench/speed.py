"""Host-speed calibration of the timings.

The benchmark runs on shared virtual machines.  There the speed of the
same pure-Python work swings by 10-30% from one second to the next and
drifts over minutes, with CPU time equal to wall time: other tenants slow
the core down rather than take it away.  Raw wall times of runs made a few
minutes apart therefore differ by more than the regressions the benchmark
must catch.

So each timed operation is measured by a `Meter`, which samples the host
speed with `unit()`, a fixed piece of pure-Python work of the engine's
kind: BOUNDARY_UNITS units right before the operation, BOUNDARY_UNITS right
after it, and, while it runs, one unit every INTERVAL seconds from a
SIGALRM handler.  The time spent in the handler is taken out of the
operation's time.  The operation's time is then scaled by REFERENCE_UNIT_S
over the mean time of a unit, so it reads in seconds at the reference
speed: the speed at which a unit takes REFERENCE_UNIT_S.  A slower program
still shows in full, because the units run no program code; a slower host
slows the units too and cancels.
"""

import gc
import signal
import time
from fractions import Fraction

# unit() time on an Intel Xeon vCPU of a shared 2-vCPU VM at its usual
# speed (Python 3.11), so that calibrated seconds read close to wall
# seconds there
REFERENCE_UNIT_S = 0.005
BOUNDARY_UNITS = 5
INTERVAL = 0.15


def unit():
    """The fixed calibration work: row additions over F2 (the matrix
    kernels), dict updates on tuple keys (the memos and symbol tables) and
    Fraction sums (the Q scalars)."""
    rows = [[(i * j) % 2 for j in range(40)] for i in range(40)]
    for r in range(12):
        for i in range(40):
            rows[i] = [x ^ y for x, y in zip(rows[i], rows[(i + r) % 40])]
    d = {}
    for i in range(16000):
        k = (i % 31, i % 29)
        d[k] = d.get(k, 0) + i
    f = Fraction(0)
    for i in range(300):
        f += Fraction(1, i % 97 + 1)


class Meter:
    """Context manager timing one operation.  After exit, `raw` is its wall
    seconds without the sampling, `scale` the factor to the reference
    speed, and `seconds` their product.  With calibrate False nothing is
    sampled and `scale` is 1; with sample False only the boundary units
    run (traced runs, whose span times must not include sampling)."""

    def __init__(self, clock=time.monotonic, calibrate=True, sample=True):
        self.clock = clock
        self.calibrate = calibrate
        self.sample = calibrate and sample
        self.units = 0
        self.unit_s = 0.0
        self.paused = 0.0

    def _run(self, n):
        # the collector stays off so that the units neither pay for nor
        # take over collections of the program's garbage
        collecting = gc.isenabled()
        gc.disable()
        t0 = self.clock()
        for _ in range(n):
            unit()
        self.unit_s += self.clock() - t0
        self.units += n
        if collecting:
            gc.enable()

    def _tick(self, signum, frame):
        t0 = self.clock()
        self._run(1)
        self.paused += self.clock() - t0

    def first_scale(self):
        """Scale given by the units run so far."""
        return REFERENCE_UNIT_S * self.units / self.unit_s if self.calibrate else 1.0

    def __enter__(self):
        if self.calibrate:
            self._run(BOUNDARY_UNITS)
        if self.sample:
            self._old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.t0 = self.clock()
        return self

    def __exit__(self, *exc):
        t1 = self.clock()
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old)
        self.raw = t1 - self.t0 - self.paused
        if self.calibrate:
            self._run(BOUNDARY_UNITS)
        self.scale = self.first_scale()
        self.seconds = self.raw * self.scale
        return False
