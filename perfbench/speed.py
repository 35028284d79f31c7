"""Machine speed, measured with a fixed reference computation.

The benchmark runs on shared hosts whose speed drifts: a fixed loop of
Fraction arithmetic has been seen to run 1.3 to 1.9 times slower for
one to several seconds at a time, with no CPU steal, so CPU time drifts
as much as wall time.  A run therefore times a small reference
computation next to the operations it measures, and scales the wall
time of each operation by the machine speed measured around it,

    speed = REFERENCE_S / (mean time of the nearby reference probes)

so that the reported times are those the operations would take on a
machine where the reference computation takes REFERENCE_S.  The
reference computation is the benchmark's own (exact polynomial product
and long division over Fraction, the kind of work latkern does); it
never calls latkern, so a change to latkern leaves it untouched.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# About the time of one reference_work() on a 2-vCPU x86-64 host under
# Python 3.11.7.  It sets the scale of the reported times, not their
# spread; comparisons between commits do not depend on it.
REFERENCE_S = 0.0020


def reference_work() -> list:
    """Product of two fixed degree-13 polynomials over Fraction, then the
    remainder of the product by the first (a long division)."""
    a = [Fraction(i * 7 + 3, i + 2) for i in range(14)]
    b = [Fraction(5 - i, 2 * i + 1) for i in range(14)]
    prod = [Fraction(0)] * 27
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    rem, lead = prod, a[-1]
    while len(rem) >= len(a):
        q = rem[-1] / lead
        off = len(rem) - len(a)
        for k, c in enumerate(a):
            rem[off + k] -= q * c
        rem.pop()
    return rem


def probe() -> float:
    """Seconds for one reference_work(), with the cyclic collector off so
    that garbage left by the measured program does not land in it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Meter:
    """Measures the machine's speed next to timed work.

    After each piece of timed work, sample() runs probes until they have
    taken SHARE of its time (at least one probe), so probe time is spread
    over the run in proportion to the work.  The host's speed changes
    within a second or two, faster than a run, so each piece of work is
    scaled by the speed of the probes taken just before and just after it
    (local_speed), not by one speed for the whole run.
    """

    SHARE = 0.1
    WINDOW_PROBES = 16   # fewest probes a local speed is taken over

    def __init__(self):
        self.samples = []   # (probes, probe seconds) after each piece

    @property
    def count(self) -> int:
        return sum(c for c, _ in self.samples)

    @property
    def total(self) -> float:
        return sum(t for _, t in self.samples)

    def sample(self, seconds: float) -> None:
        spent, count = 0.0, 0
        while True:
            spent += probe()
            count += 1
            if spent >= self.SHARE * seconds:
                break
        self.samples.append((count, spent))

    def speed(self) -> float:
        """Machine speed relative to the reference over all probes: above
        1 when faster."""
        return REFERENCE_S * self.count / self.total

    def local_speed(self, i: int) -> float:
        """Speed around piece i: the probes sampled just before it (after
        piece i - 1) and just after it, widened on both sides until the
        window holds WINDOW_PROBES probes or every sample."""
        last = len(self.samples) - 1
        lo, hi = max(0, i - 1), i
        count = sum(c for c, _ in self.samples[lo:hi + 1])
        while count < self.WINDOW_PROBES and (lo > 0 or hi < last):
            if lo > 0:
                lo -= 1
                count += self.samples[lo][0]
            if hi < last:
                hi += 1
                count += self.samples[hi][0]
        spent = sum(t for _, t in self.samples[lo:hi + 1])
        return REFERENCE_S * count / spent

    def scale(self, seconds: list) -> list:
        """The pieces' wall times at the reference speed; piece i is the
        one sampled i-th."""
        if len(seconds) != len(self.samples):
            raise ValueError("one sample per piece of work is needed")
        return [t * self.local_speed(i) for i, t in enumerate(seconds)]
