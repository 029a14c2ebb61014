"""Machine-speed probe: scales op times to a nominal machine speed.

The VMs this benchmark runs on move between speed phases that last
seconds to tens of seconds and lie up to 1.7x apart (a fixed pure-Python
loop timed in 1 s blocks for two minutes ranged from 0.77 to 1.32 of its
median).  Longer runs do not average that out: the spread between the
quartiles of that loop's time was still 0.2 in 20 s windows.  The phases
slow all work in the process alike, so the ratio of an op's time to the
time of a fixed reference loop run beside it is steady (the same two
minutes gave a quartile spread of 0.02 for the ratio in 5 s windows).

While a ``Probe`` is active, a ``SIGALRM`` every ``INTERVAL_S`` runs
``reference_work`` in the main thread, between two bytecodes of whatever
runs there, and records when it ran and how long it took.  Afterwards
``calibrated(t0, dt)`` turns the wall time ``dt`` of an interval that
started at ``t0`` into seconds at the nominal speed: it removes the
probes that ran inside the interval, then scales the rest by
``NOMINAL_S`` over the mean probe time around the interval.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

#: Time between two probes.
INTERVAL_S = 0.25
#: Probes this far before and after an interval also measure its speed.
PAD_S = 0.6
#: Time of ``reference_work`` at the nominal speed: about its median on a
#: 2-vCPU VM with Python 3.11.7, so calibrated seconds read like wall
#: seconds there.
NOMINAL_S = 0.002
#: Iterations of the reference loop.
REFERENCE_ITERS = 4000


def reference_work() -> float:
    """A fixed pure-Python loop with the kinds of work ``lam`` does: tuple
    keys into a dict, float arithmetic and small ``Fraction`` products."""
    table: dict[tuple[int, int], float] = {}
    total = 0.0
    q = Fraction(1, 3)
    for i in range(REFERENCE_ITERS):
        key = (i & 31, i & 7)
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] ** 0.5
        if i % 64 == 0:
            q = q * Fraction(i + 1, i + 2)
    return total + float(q)


class Probe:
    """Samples the machine speed while active; see the module docstring.

    ``samples`` holds (start, duration) of every probe.  Outside a ``with``
    block nothing is sampled, and an inactive probe leaves times as they
    are."""

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def sample(self) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.samples.append((t0, time.perf_counter() - t0))

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Probe":
        for _ in range(3):  # warm the loop up; these are not samples
            reference_work()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def _within(self, lo: float, hi: float) -> list[float]:
        return [d for t, d in self.samples if lo <= t < hi]

    def calibrated(self, t0: float, dt: float) -> float:
        """Seconds at the nominal speed for the wall interval [t0, t0 + dt]."""
        if not self.samples:
            return dt
        own = sum(self._within(t0, t0 + dt))
        pad = PAD_S
        around = self._within(t0 - pad, t0 + dt + pad)
        while len(around) < 3 and pad < 1e3:
            pad *= 2
            around = self._within(t0 - pad, t0 + dt + pad)
        return (dt - own) * NOMINAL_S / statistics.fmean(around)

    def speed(self) -> float:
        """Median probe speed over the run, relative to the nominal speed."""
        return NOMINAL_S / statistics.median(d for _, d in self.samples)
