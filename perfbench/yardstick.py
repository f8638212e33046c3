"""A fixed reference computation that times the machine, not ccr_lab.

The host this benchmark runs on is shared: the same pass can take twice as
long for minutes at a time while other tenants are busy, and CPU time
slows with wall time, so the slowdown is not time stolen from the process.
A run therefore times this yardstick after every pass and reports each pass
in yardstick units, scaled to seconds at NOMINAL_S.  A slower ccr_lab still
reads slower; a slower host slows both and cancels.  One yardstick is short
and itself noisy, so a pass is scaled by the median of the WINDOW
yardsticks timed nearest to it.

The yardstick mixes the two kinds of work the workloads do: interpreted
Python on dicts, tuples, complex numbers and fractions, and numpy on arrays
from one thread (a small symmetric eigensolve and in-place passes over a
grid-sized array).  It allocates no large temporaries, so its time does not
depend on what the allocator kept from the workload's own arrays.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

NOMINAL_S = 0.1  # a figure reads in seconds on a host where one yardstick takes this long
PY_STEPS = 24000
FRACTION_STEPS = 1500
NUMPY_SWEEPS = 20
WINDOW = 8  # the 4 yardsticks timed before an interval and the 4 after it


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(1412)
        a = rng.standard_normal((96, 96))
        self.sym = a + a.T
        self.grid = rng.standard_normal(1 << 19)
        self.work = np.empty_like(self.grid)
        self.small = np.arange(64.0)

    def _python(self):
        table = {}
        acc = 0j
        for i in range(PY_STEPS):
            key = (i % 31, i % 37)
            table[key] = table.get(key, 0) + 1
            acc += complex(i % 13, 1.0) * complex(0.5, -(i % 7))
        q = Fraction(0)
        for i in range(FRACTION_STEPS):
            q = q * Fraction(1, 2) + Fraction(i % 11, i % 5 + 1)
        return len(table) + acc.real + float(q)

    def _numpy(self):
        total = float(np.linalg.eigvalsh(self.sym)[0])
        for _ in range(NUMPY_SWEEPS):
            np.abs(self.grid, out=self.work)
            np.sqrt(self.work, out=self.work)
            np.multiply(self.work, self.grid, out=self.work)
            total += float(self.work.sum())
        for _ in range(150):
            total += float(np.dot(self.small, self.small))
        return total

    def time(self):
        """Wall time of one yardstick, in seconds."""
        start = time.perf_counter()
        self._python()
        self._numpy()
        return time.perf_counter() - start


def scaled(seconds, yard_s, after):
    """An interval of `seconds` in yardstick seconds.  `yard_s` holds the
    yardstick times of a run in order, and yard_s[after] is the first one
    timed after the interval."""
    near = yard_s[max(0, after - WINDOW // 2): after + WINDOW // 2]
    return seconds * NOMINAL_S / statistics.median(near)
