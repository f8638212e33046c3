"""Result checking for benchmark passes.

Every comparison of a ccr_lab output with its oracle is one checked
operation.  A failed comparison, or an exception that ends a pass early, is
recorded by name so the summary says what broke, not only how often.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

DIGITS_CAP = 16.0


def digits(rel_err):
    """Correct digits for a relative error, capped at DIGITS_CAP."""
    if rel_err <= 0.0:
        return DIGITS_CAP
    if not math.isfinite(rel_err):
        return 0.0
    return min(DIGITS_CAP, -math.log10(rel_err))


class Checker:
    """Counts checked operations, failures by name and the worst accuracy."""

    def __init__(self):
        self.attempted = 0
        self.failures = Counter()
        self.worst_digits = DIGITS_CAP
        self.worst_check = None

    def ok(self, name, condition):
        self.attempted += 1
        if not condition:
            self.failures[name] += 1

    def equal(self, name, got, want):
        """Exact comparison, for rational results and round trips."""
        self.ok(name, got == want)

    def close(self, name, got, want, tol, scale=0.0):
        """Relative comparison of scalars or arrays; the error is taken
        against max(|want|, scale) and also feeds accuracy_digits."""
        got = np.asarray(got)
        want = np.asarray(want)
        if got.shape != want.shape:
            self.ok(name, False)
            return
        ref = max(float(np.max(np.abs(want), initial=0.0)), float(scale))
        err = float(np.max(np.abs(got - want), initial=0.0))
        rel = err / ref if ref > 0.0 else (0.0 if err == 0.0 else math.inf)
        if not math.isfinite(rel):
            rel = math.inf
        if digits(rel) < self.worst_digits:
            self.worst_digits, self.worst_check = digits(rel), name
        self.ok(name, rel <= tol)

    def raised(self, name, exc):
        self.attempted += 1
        self.failures[f"{name}: {type(exc).__name__}"] += 1

    @property
    def failed(self):
        return sum(self.failures.values())
