"""Host-speed probe: normalises timings for the speed of a shared host.

On a shared host the same pass of a workload runs at speeds that differ
by a third or more from one minute to the next, and CPU time tracks wall
time, so the spread is the host's, not the program's.  A SpeedProbe
measures that speed while a pass runs: a SIGALRM timer interrupts the
pass every INTERVAL_S seconds, and the handler times one sample of fixed
calibration work, sparse integer-polynomial arithmetic in the style of
the hdeform kernel.  The calibration is frozen here, independent of
hdeform, so a change to hdeform cannot move it.

Timings of the pass are then reported as *reference seconds*: each
timed interval, less the probe time inside it, is divided by the local
slowness, the mean time of the samples taken inside the interval and of
PAD samples on either side of it, over REF_SAMPLE_S.  That is the time
the interval would take on a host where a calibration sample takes
REF_SAMPLE_S seconds.  Host speed moves within a fraction of a second,
so the local mean tracks it better than a mean over the whole pass.  A
slower program reads slower at any host speed; a slower host reads the
same.  The handler runs in the main thread between bytecodes, so a
sample lies wholly inside or wholly outside any interval the pass
times, and its time is subtracted exactly.
"""

import bisect
import itertools
import signal
import time

INTERVAL_S = 0.025
# About the mean sample time inside a pass on a 2-vCPU x86-64 host.  A
# fixed scale: changing it or the calibration rescales every reported
# time.
REF_SAMPLE_S = 0.003
# Samples on either side of an interval that count towards its slowness.
# Host speed moves within tens of milliseconds, so one is best for a
# request or a job; set-up, a short interval timed once a pass, uses
# more, as a single sample or two is too noisy for it.
PAD = 1
SETUP_PAD = 40


_NVARS = 4


def _poly(seed, terms):
    """A fixed pseudo-random polynomial (a linear congruential stream,
    so the calibration does not depend on the random module)."""
    poly, x = {}, seed
    for _ in range(terms):
        exp = []
        for _ in range(_NVARS):
            x = (1103515245 * x + 12345) % 2147483648
            exp.append((x >> 16) % 5)
        x = (1103515245 * x + 12345) % 2147483648
        poly[tuple(exp)] = (x - 1073741824) * 1000003
    return poly


_A = _poly(7, 14)
_B = _poly(11, 14)
_C = _poly(13, 6)


def _mul(a, b):
    res = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = res.get(e, 0) + ca * cb
            if s:
                res[e] = s
            else:
                res.pop(e, None)
    return res


def _content(a):
    g = 0
    for c in a.values():
        g = _gcd(g, c)
    return g


def _gcd(x, y):
    x, y = abs(x), abs(y)
    while y:
        x, y = y, x % y
    return x


def _calibration_work():
    p = _mul(_A, _B)
    q = _mul(p, _C)
    g = _content(q)
    return len(q), g


class SpeedProbe:
    """Samples host speed from a SIGALRM handler while a pass runs."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.starts = []
        self.durations = []
        self._prefix = None
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._prefix = list(itertools.accumulate(self.durations, initial=0.0))

    def _tick(self, signum, frame):
        # A signal that arrives during a sample (a stall of the host) would
        # run this handler inside itself; skip it, so samples never nest
        # and their start times stay sorted.
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        _calibration_work()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)
        self._busy = False

    def spent(self, t0, t1):
        """Probe time inside [t0, t1] (perf_counter readings)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        return self._prefix[hi] - self._prefix[lo]

    def slowness(self, t0, t1, pad=PAD):
        """Local slowness of [t0, t1], from its samples and `pad` samples
        on either side: 1.0 at reference speed, above 1 on a slower host.
        1.0 when the pass took no sample at all."""
        lo = max(0, bisect.bisect_left(self.starts, t0) - pad)
        hi = min(len(self.starts), bisect.bisect_left(self.starts, t1) + pad)
        if hi <= lo:
            return 1.0
        return (self._prefix[hi] - self._prefix[lo]) / (hi - lo) / REF_SAMPLE_S

    def reference_s(self, t0, t1):
        """[t0, t1] less the probe time in it, in reference seconds."""
        return (t1 - t0 - self.spent(t0, t1)) / self.slowness(t0, t1)
