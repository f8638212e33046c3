"""Gaussian (quasifree) states over the commutation-relation algebra.

A state here is determined by its two-point kernel; higher moments come from
the pairing expansion, odd moments vanish.  The even moment on n slots is the
hafnian of the slot-ordered two-point matrix, computed by a memoised pairing
recursion over sets of free slots in O(n * phi**n) operations (phi the golden
ratio), not by listing the (n-1)!! pairings.  Evaluation works on elements in
any word order because the kernel's antisymmetric part carries the
commutator, so no normal-forming is required first.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .ccr_core import FLOAT, AlgebraElement, PairingForm, _finite, _labels, _pair_table, coerce
from .errors import (
    DegreeGuardError,
    IncompleteKernelError,
    KernelInconsistencyError,
    ValidationError,
    call_outside,
)

__all__ = [
    "TwoPointKernel",
    "QuasifreeState",
    "GramReport",
    "npoint",
    "evaluate",
    "gram_positivity",
]

# npoint's memoised sum grows like phi**n; measured on a dense complex kernel
# (2-vCPU VM, Python 3.11), one call takes about 0.12 s at n = 22 and 0.4 s
# at n = 24.
NPOINT_GUARD = 22
_GRAM_DEGREE_GUARD = 4
_KERNEL_TOL = 1e-10  # relative; exchange checks, pair bound, Gram certificate


class TwoPointKernel:
    """Complex two-point table over a finite generator set.

    Accepts either a dict over ordered index pairs or a callable plus a
    generator list; the callable is tabulated once at construction.  The
    construction checks, to 1e-10 relative to max(1, largest entry):

    * generator labels are integers, keys index pairs and entries numbers,
      and a declared generator list covers every label of a table
      (otherwise ValidationError; a list wider than the table raises
      IncompleteKernelError);
    * every entry is finite, its modulus included (otherwise
      ValidationError);
    * the real part is symmetric and the imaginary part antisymmetric
      (equivalently, the kernel differs from its transpose by i times a real
      antisymmetric form);
    * the diagonal is real and non-negative;
    * if an expected pairing form is supplied, twice the imaginary part
      reproduces it entry for entry.
    """

    def __init__(self, table, generators=None, pairing=None):
        if pairing is not None and not isinstance(pairing, PairingForm):
            raise ValidationError("the declared pairing must be a PairingForm")
        if callable(table):
            if generators is None:
                raise ValidationError("a kernel callback needs a generator list")
            gens = _labels(generators)
            raw = call_outside(
                "kernel callback", lambda: {(i, j): table(i, j) for i in gens for j in gens}
            )
        else:
            raw = _pair_table(table, "two-point table")
            labels = {i for pair in raw for i in pair}
            gens = tuple(sorted(labels)) if generators is None else _labels(generators)
            if not labels <= set(gens):
                missing = sorted(labels - set(gens))
                raise ValidationError(f"generator list misses labels {missing} of the table")
        self.generators = gens
        self.entries = {pair: coerce(v, FLOAT) for pair, v in raw.items()}
        self._verify(pairing)

    def _verify(self, pairing):
        for (i, j), v in self.entries.items():
            if not math.isfinite(math.hypot(v.real, v.imag)):
                raise ValidationError(
                    f"two-point kernel entry ({i},{j}) = {v!r} is not finite"
                )
        scale = max([abs(v) for v in self.entries.values()], default=0.0)
        tol = _KERNEL_TOL * max(scale, 1.0)
        for i in self.generators:
            for j in self.generators:
                a = self._get(i, j)
                b = self._get(j, i)
                if abs(a.real - b.real) > tol:
                    raise KernelInconsistencyError(
                        f"real part not symmetric at ({i},{j}): "
                        f"{a.real!r} vs {b.real!r}"
                    )
                if abs(a.imag + b.imag) > tol:
                    raise KernelInconsistencyError(
                        f"imaginary part not antisymmetric at ({i},{j})"
                    )
                if pairing is not None:
                    e = coerce(pairing.value(i, j), FLOAT).real
                    if abs(2.0 * a.imag - e) > max(tol, _KERNEL_TOL * abs(e)):
                        raise KernelInconsistencyError(
                            f"2 Im omega2({i},{j}) = {2 * a.imag!r} does not "
                            f"match the declared pairing {e!r}"
                        )
            d = self._get(i, i)
            if abs(d.imag) > tol or d.real < -tol:
                raise KernelInconsistencyError(
                    f"diagonal entry ({i},{i}) = {d!r} must be real and >= 0"
                )

    def _get(self, i, j):
        try:
            return self.entries[(i, j)]
        except KeyError:
            raise IncompleteKernelError(
                f"two-point kernel has no entry for ({i}, {j})"
            ) from None

    def value(self, i, j):
        """omega_2(i, j)."""
        return self._get(*_labels((i, j)))

    def pairing_value(self, i, j):
        """The antisymmetric form recovered as twice the imaginary part."""
        return 2.0 * self.value(i, j).imag

    def pairing_form(self):
        entries = {}
        for a, i in enumerate(self.generators):
            for j in self.generators[a + 1 :]:
                v = self.pairing_value(i, j)
                if v:
                    entries[(i, j)] = v
        return PairingForm(entries)


class QuasifreeState:
    """Quasifree state for a two-point kernel.

    The constructor enforces the pair bound
    |E(f,g)|^2 / 4 <= omega2(f,f) omega2(g,g), to 1e-10 max(1, |entry|)^2,
    on every generator pair, a necessary condition for positivity.
    Positivity itself is only ever certified on explicit finite families via
    gram_positivity.
    """

    def __init__(self, kernel: TwoPointKernel):
        if not isinstance(kernel, TwoPointKernel):
            raise ValidationError("a quasifree state needs a TwoPointKernel")
        self.kernel = kernel
        bad = self.cauchy_schwarz_violations()
        if bad:
            i, j, lhs, rhs = bad[0]
            raise KernelInconsistencyError(
                f"pair bound fails at ({i},{j}): |E|^2/4 = {lhs:.6g} "
                f"> {rhs:.6g} = omega2(f,f) omega2(g,g)"
            )

    def cauchy_schwarz_violations(self):
        """Pairs violating |E(f,g)|^2/4 <= omega2(f,f) omega2(g,g).  The
        terms are compared in units of a power of two above the largest
        entry, an exact rescaling under which no square overflows."""
        out = []
        value = self.kernel.value
        gens = self.kernel.generators
        scale = max(
            [abs(v) for v in self.kernel.entries.values()], default=0.0
        )
        unit = math.ldexp(1.0, math.frexp(max(scale, 1.0))[1])
        slack = _KERNEL_TOL * (max(scale, 1.0) / unit) ** 2
        for a, i in enumerate(gens):
            for j in gens[a + 1 :]:
                lhs = (value(i, j).imag / unit) ** 2
                rhs = (value(i, i).real / unit) * (value(j, j).real / unit)
                if lhs > rhs + slack:
                    out.append((i, j, lhs * unit * unit, rhs * unit * unit))
        return out


def npoint(state, indices):
    """Moment of the state on an ordered index list.

    Zero for odd length, one for the empty list, otherwise the sum over
    perfect matchings of products of two-point values taken in slot order,
    i.e. the hafnian of w[a, b] = omega2(indices[a], indices[b]), a < b.

    The sum is computed by a memoised recursion: the lowest free slot is
    paired with each other free slot, and the partial sums of all pairings
    that leave the same set of free slots are merged into one.  An n-slot
    moment visits F(n+1) such sets (a Fibonacci number, 1597 at n = 16)
    with at most n - 1 partners each, so it costs O(n * phi**n)
    multiply-adds with phi the golden ratio, against n/2 * (n-1)!! for
    listing the pairings; the table itself costs n(n-1)/2 kernel lookups.

    Slot labels must be integers (Python or numpy); anything else raises
    ValidationError, as do a state that is not a QuasifreeState, an even n
    above NPOINT_GUARD and a moment that overflows.
    """
    return _finite(_moment(_lookup(state), _slots(indices)), FLOAT)


def _lookup(state):
    """The kernel lookup of a quasifree state, else ValidationError."""
    if not isinstance(state, QuasifreeState):
        raise ValidationError(f"expected a QuasifreeState, got {state!r}")
    return state.kernel._get


def _slots(indices):
    try:
        return [operator.index(i) for i in indices]
    except TypeError:
        raise ValidationError(
            f"npoint needs an iterable of integer slot labels, got {indices!r}"
        ) from None


def _moment(value, idx):
    """npoint on slot labels read already, through the kernel lookup value."""
    n = len(idx)
    if n == 0:
        return 1.0 + 0.0j
    if n % 2:
        return 0.0 + 0.0j
    if n > NPOINT_GUARD:
        raise ValidationError(f"n={n} exceeds the pairing guard {NPOINT_GUARD}")
    if n == 2:
        # one pair needs no table; this is the commonest call, e.g. every
        # Gram entry of a degree-1 family
        return value(idx[0], idx[1])
    # Slots are bits.  rows[1 << a] lists (1 << b, omega2(idx[a], idx[b]))
    # for every b > a; `layer` maps each set of free slots to the sum, over
    # every way of reaching it, of the products of the pairs chosen so far,
    # starting from slot 0 paired with each other slot.
    rows = {
        1 << a: [(1 << b, value(idx[a], idx[b])) for b in range(a + 1, n)]
        for a in range(n - 1)
    }
    layer = {((1 << n) - 2) ^ bit: w for bit, w in rows[1]}
    for _ in range(n // 2 - 1):
        nxt = {}
        get = nxt.get
        for free, partial in layer.items():
            low = free & -free
            rest = free ^ low
            for bit, w in rows[low]:
                if rest & bit:
                    key = rest ^ bit
                    nxt[key] = get(key, 0j) + partial * w
        layer = nxt
    return layer[0]


def evaluate(state, element: AlgebraElement):
    """Linear extension of the moments to a full algebra element; a value
    that is not finite raises ValidationError."""
    value = _lookup(state)
    if not isinstance(element, AlgebraElement):
        raise ValidationError(f"evaluate expects an AlgebraElement, got {element!r}")
    total = 0.0 + 0.0j
    for word, coeff in element.terms.items():
        total += coerce(coeff, FLOAT) * _moment(value, word)
    return _finite(total, FLOAT)


@dataclass(frozen=True)
class GramReport:
    min_eigenvalue: float
    threshold: float
    psd: bool
    gram: object
    hermiticity_residual: float


def gram_positivity(state, elements):
    """Gram-matrix positivity certificate on a finite element family.

    G_ij is the state value of star(a_i) a_j.  With u_1..u_k the distinct
    words of the family (in order of first appearance) and A the k x n
    matrix of its coefficients, a_j = sum_i A_ij u_i, that is G = A^H M A
    for the word-moment matrix M_ij = npoint(reverse(u_i) u_j).  M is
    filled in full, one moment per word pair, with no triangle mirrored, so
    that a kernel breaking its exchange relation shows in G.  A G that is
    not finite (coefficients past the float range, or products that
    overflow) raises ValidationError.  G must be hermitian within a
    relative 1e-8; its minimal eigenvalue is compared against -1e-10 times
    the trace.  Elements above degree 4 are refused.
    """
    try:
        elems = [AlgebraElement(a.terms, FLOAT) for a in elements]
    except (TypeError, AttributeError):
        raise ValidationError("elements must be an iterable of algebra elements") from None
    for a in elems:
        if a.degree > _GRAM_DEGREE_GUARD:
            raise DegreeGuardError(
                f"family contains degree {a.degree} > guard {_GRAM_DEGREE_GUARD}"
            )
    value = _lookup(state)
    words = list(dict.fromkeys(w for a in elems for w in a.terms))
    k, n = len(words), len(elems)
    A = np.array([[a.terms.get(w, 0) for a in elems] for w in words], complex).reshape(k, n)
    M = np.array([[_moment(value, u[::-1] + v) for v in words] for u in words], complex)
    with np.errstate(all="ignore"):  # a G that overflows is refused below
        G = A.conj().T @ M.reshape(k, k) @ A
    if not np.isfinite(G).all():
        raise ValidationError("the Gram matrix is not finite")
    scale = max(1.0, np.abs(G).max()) if G.size else 1.0
    herm = np.abs(G - G.conj().T).max() if G.size else 0.0
    if herm > 1e-8 * scale:
        raise KernelInconsistencyError(
            f"Gram matrix is not hermitian (residual {herm:.3e}); "
            "the two-point kernel violates its exchange relation"
        )
    if n == 0:
        return GramReport(0.0, 0.0, True, G, float(herm))
    sym = (G + G.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(sym)
    trace = float(np.trace(sym).real)
    threshold = -_KERNEL_TOL * trace
    min_eig = float(eigs[0])
    return GramReport(min_eig, threshold, min_eig >= threshold, G, float(herm))

