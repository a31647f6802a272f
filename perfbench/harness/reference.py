"""A fixed reference kernel that measures how fast the machine runs.

On a shared host the speed of the processor drifts, by up to a factor of
two over periods of seconds to minutes, and every timing of a run moves
with it.  The benchmark runs this kernel between operations, in proportion
to their time, and scales its timings by how long the kernel took: a
timing in reference seconds is the wall time multiplied by
``NOMINAL_S / (the mean time of one kernel round during the run)``.

The kernel does the kind of work the program does, in the benchmark's own
code, so that a change to the program cannot change it: exact rational
Gauss-Jordan elimination (as in the LP engine's re-solves) and truncated
division of series with rational digits (as in gross-number division).
"""

from __future__ import annotations

import gc
import random
from fractions import Fraction
from time import perf_counter
from typing import Dict, List

# Seconds one round takes at the usual speed of a 2-vCPU Intel Xeon host
# running Python 3.11.7; reference seconds equal wall seconds at that speed.
NOMINAL_S = 0.002
# Seconds of operations per kernel round run after them.
SECONDS_PER_ROUND = 0.02

_SIZE = 6
_rng = random.Random(20111)
_MATRIX = [[Fraction(_rng.randint(-9, 9)) for _ in range(_SIZE + 2)] for _ in range(_SIZE)]
_NUMERATOR = {p: Fraction(_rng.randint(1, 9), _rng.randint(1, 9)) for p in (2, 1, 0, -1)}
_DIVISOR = {p: Fraction(_rng.randint(1, 9), _rng.randint(1, 9)) for p in (1, 0, -1)}
_ORDER = 8


def _solve() -> List[List[Fraction]]:
    rows = [row[:] for row in _MATRIX]
    for col in range(_SIZE):
        pivot = next(r for r in range(col, _SIZE) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inverse = 1 / rows[col][col]
        rows[col] = [x * inverse for x in rows[col]]
        for r in range(_SIZE):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[_SIZE:] for row in rows]


def _divide(a: Dict[int, Fraction], b: Dict[int, Fraction], order: int) -> Dict[int, Fraction]:
    """Long division of series in descending powers, `order` levels deep."""
    lead = max(b)
    remainder, quotient = dict(a), {}
    top = max(remainder)
    for power in range(top - lead, top - lead - order, -1):
        digit = remainder.pop(power + lead, Fraction(0)) / b[lead]
        if digit:
            quotient[power] = digit
            for p, d in b.items():
                if p != lead:
                    remainder[power + p] = remainder.get(power + p, Fraction(0)) - digit * d
    return quotient


def kernel_round() -> None:
    _solve()
    _divide(_NUMERATOR, _DIVISOR, _ORDER)


def rounds_for(seconds: float) -> int:
    """Kernel rounds to run after `seconds` of operations."""
    return max(1, round(seconds / SECONDS_PER_ROUND))


class Speedometer:
    """Sums the time of kernel rounds run through a run."""

    def __init__(self) -> None:
        self.rounds = 0
        self.seconds = 0.0

    def sample(self, rounds: int) -> None:
        # The kernel makes no reference cycles; with the collector off, a
        # collection of the program's heap does not land inside it.
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            for _ in range(rounds):
                kernel_round()
            self.seconds += perf_counter() - start
            self.rounds += rounds
        finally:
            if enabled:
                gc.enable()

    def scale(self) -> float:
        """Reference seconds per wall second over the samples so far."""
        return NOMINAL_S * self.rounds / self.seconds
