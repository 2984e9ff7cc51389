"""Tiny deterministic generator for reproducible random checks.

xorshift64 with the classic 13/7/17 shift triple.  Not for statistics;
the point is that a seed printed in a failure report replays the exact
sample on any machine and Python version, which random.Random does not
promise across versions.
"""

from __future__ import annotations

__all__ = ["XorShift64"]

MASK64 = (1 << 64) - 1


class XorShift64:

    def __init__(self, seed):
        state = seed & MASK64
        if state == 0:
            state = 0x9E3779B97F4A7C15
        self.state = state

    def next64(self):
        x = self.state
        x ^= (x << 13) & MASK64
        x ^= x >> 7
        x ^= (x << 17) & MASK64
        self.state = x
        return x

    def randrange(self, n):
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next64() % n

    def choice(self, seq):
        if not seq:
            raise ValueError("choice from empty sequence")
        return seq[self.randrange(len(seq))]
