"""The host's speed, measured while the benchmark runs.

The host this benchmark was built on gives each core a speed that
changes many times a second and drifts over minutes, by up to 1.5 times;
process CPU time slows with it.  Wall times of the same work therefore
spread between runs by more than the benchmark's bounds allow.

A ``SpeedProbe`` runs a fixed calibration round (integer, ``Fraction``,
tuple, dict and string work, the kinds the package does) every
``INTERVAL_S`` from a ``SIGALRM`` handler in the benchmark's own thread,
so on the core the timed work runs on, and times it by that thread's CPU
time.  ``scale(since)`` turns a time measured since a mark into seconds
on a reference host, one on which a round takes ``REFERENCE_S``.
Callers subtract ``spent`` (the rounds' own time) from the intervals
they time.  The rounds do not depend on the package, so a change to the
package moves the scaled times as it moves the wall times.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from fractions import Fraction

INTERVAL_S = 0.02
# about one round's time on the 2-core host the baseline was measured on
REFERENCE_S = 0.0005


def calibration_round() -> None:
    acc = 0
    for i in range(1500):
        acc += i * i % 7
    xs = [Fraction(i % 5 + 1, i % 3 + 2) for i in range(8)]
    total = Fraction(0)
    for a in xs:
        for b in xs[:4]:
            total += a * b
    counts: dict = {}
    for i in range(80):
        key = tuple(range(i % 9))
        counts[key[::-1]] = counts.get(key, 0) + 1
    "".join(sorted(str(k) for k in counts))


class SpeedProbe:
    def __init__(self):
        self.rounds = array("d")
        self.spent = 0.0
        self._previous = None

    def _round(self, signum=None, frame=None) -> None:
        # CPU time of this thread: a child sharing the core may preempt a
        # round, and that wait is neither the core's speed nor a delay
        # the round adds to the child
        t0 = time.thread_time()
        calibration_round()
        dt = time.thread_time() - t0
        self.rounds.append(dt)
        self.spent += dt

    def start(self) -> "SpeedProbe":
        self._round()  # so that every interval has a round to scale by
        self._previous = signal.signal(signal.SIGALRM, self._round)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def mark(self) -> int:
        return len(self.rounds)

    def scale(self, since: int) -> float:
        """Factor from seconds measured since ``mark()`` returned ``since``
        to seconds on the reference host; with no round since, the latest."""
        window = self.rounds[since:] or self.rounds[-1:]
        return REFERENCE_S / statistics.fmean(window)

    def summary(self) -> dict:
        return {"rounds": len(self.rounds), "round_median_s": statistics.median(self.rounds),
                "interval_s": INTERVAL_S, "reference_s": REFERENCE_S}
