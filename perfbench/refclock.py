"""A clock that runs at the host's current speed.

On a shared host a pure-Python loop can run up to 2.4 times as slowly as
usual, in spells from tens of milliseconds to minutes, when neighbours load
the same physical cores.  Wall times then move with the neighbours, not
with the program.  This clock corrects for that.  A timer interrupts the
process every TICK_S seconds and times a fixed probe loop.  The wall time
from one tick to the next is scaled by PROBE_REF_S over the mean time of
the last two probes.  So a reading is the time the work done so far would
have taken on a host where the probe takes PROBE_REF_S.  The probe's own
time is left out.  A tick changes only the rate of the time still to come,
never a reading already given, so readings never decrease.

The probe does what the package does most: small dict and tuple work
through the interpreter.  On a 2-vCPU KVM guest it slowed by the same
factor as the package's word arithmetic in that host's slow spells, to
within a few percent.  Use one clock per process; it owns SIGALRM while
it is running.
"""

from __future__ import annotations

import signal
import time

TICK_S = 0.005
# The probe's time on a quiet 2-vCPU x86-64 KVM guest under CPython 3.11;
# it only scales readings, so any fixed value gives the same spreads.
PROBE_REF_S = 0.000155


def probe():
    """The fixed loop timed at every tick."""
    table = {}
    acc = 0
    for i in range(600):
        key = (i & 31, i % 5)
        table[key] = table.get(key, 0) + i
        pair = (i, acc)
        acc = (acc + pair[0] ^ len(table)) & 0xFFFF
    return acc


class RefClock:
    """``now()`` gives seconds at reference speed since the clock started.

    Use it as a context manager: the timer runs only inside the block."""

    def __init__(self, tick_s=TICK_S):
        self.tick_s = tick_s
        self.ref_s = PROBE_REF_S
        self._wall = time.perf_counter
        self._ticks = 0
        self._done = 0.0  # reference seconds up to self._last
        self._last = 0.0  # wall time of the last tick, after its probe
        self._rate = 1.0  # reference seconds per wall second since then
        self._probe_s = PROBE_REF_S  # the probe's time at the last tick
        self.probe_times = []

    def _time_probe(self):
        start = self._wall()
        probe()
        return self._wall() - start

    def _tick(self, signum, frame):
        reached = self._wall()
        probe_s = self._time_probe()
        self._done += (reached - self._last) * self._rate
        self._rate = self.ref_s * 2.0 / (self._probe_s + probe_s)
        self._probe_s = probe_s
        self.probe_times.append(probe_s)
        self._ticks += 1
        self._last = self._wall()

    def now(self):
        # The timer's handler runs between two bytecodes of this method;
        # read again if a tick landed while the fields were read.
        while True:
            ticks = self._ticks
            done, last, rate = self._done, self._last, self._rate
            reached = self._wall()
            if ticks == self._ticks:
                return done + (reached - last) * rate

    def __enter__(self):
        self._probe_s = self._time_probe()
        self._rate = self.ref_s / self._probe_s
        self._last = self._wall()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
