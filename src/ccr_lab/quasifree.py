"""Gaussian (quasifree) states over the commutation-relation algebra.

A state here is determined by its two-point kernel; higher moments come from
the pairing expansion, odd moments vanish.  The even moment on n slots is the
hafnian of the slot-ordered two-point matrix, computed by a memoised pairing
recursion over sets of free slots in O(n * phi**n) operations (phi the golden
ratio), not by listing the (n-1)!! pairings.  That recursion, _pairing_sum,
is written once: npoint and evaluate run it on scalar pair weights, and the
Gram certificate runs it once per block of moments of one slot count, on
arrays of pair weights gathered by broadcasting from a dense table of the
kernel, so that a family's word moments cost a few numpy operations per
block rather than a Python call each.  Evaluation works on elements in any word order because the kernel's
antisymmetric part carries the commutator, so no normal-forming is required
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ccr_core import (
    FLOAT,
    AlgebraElement,
    OrderingKernel,
    PairingForm,
    _labels,
    _pair_table,
    _ReadOnlyDict,
    coerce,
)
from .errors import (
    DegreeGuardError,
    IncompleteKernelError,
    KernelInconsistencyError,
    ValidationError,
    call_outside,
    float_range,
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


class TwoPointKernel(OrderingKernel):
    """Complex two-point table over a finite generator set: the ordering
    kernel kappa = omega, with pairing E = 2 Im omega formed at construction.

    Accepts either a dict over ordered index pairs or a callable plus a
    generator list; the callable is tabulated once at construction.  The
    construction checks, to 1e-10 relative to max(1, largest entry):

    * generator labels are distinct integers, keys index pairs and entries
      numbers, and a declared generator list covers every label of a table
      (otherwise ValidationError; a list wider than the table raises
      IncompleteKernelError);
    * every entry is a float scalar, read by coerce's rule, and so is every
      entry of E (otherwise ValidationError);
    * the real part is symmetric and the imaginary part antisymmetric
      (equivalently, the kernel differs from its transpose by i times a real
      antisymmetric form);
    * the diagonal is real and non-negative;
    * if an expected pairing form is supplied, twice the imaginary part
      reproduces it entry for entry.

    These stand in for OrderingKernel's 1e-12 check.  Where a plain kernel
    reads an absent pair as zero, value and scalar raise IncompleteKernelError
    on a label outside the generators.  Immutable; ``entries`` is read-only,
    as every ordering kernel's is, so ``pairing`` cannot go stale.
    """

    __slots__ = ("generators",)

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
        if len(set(gens)) != len(gens):
            raise ValidationError("generator labels must be distinct")
        object.__setattr__(self, "generators", gens)
        entries = _ReadOnlyDict({pair: coerce(v, FLOAT) for pair, v in raw.items()})
        object.__setattr__(self, "entries", entries)
        self._verify(pairing)
        E = {(i, j): 2.0 * self._get(i, j).imag for a, i in enumerate(gens) for j in gens[a + 1 :]}
        object.__setattr__(self, "pairing", PairingForm(E))

    def _verify(self, pairing):
        scale = max([abs(v) for v in self.entries.values()], default=0.0)
        tol = _KERNEL_TOL * max(scale, 1.0)
        for i in self.generators:
            for j in self.generators:
                a, b = self._get(i, j), self._get(j, i)
                if abs(a.real - b.real) > tol:
                    raise KernelInconsistencyError(
                        f"real part not symmetric at ({i},{j}): {a.real!r} vs {b.real!r}"
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
            raise IncompleteKernelError(f"two-point kernel has no entry for ({i}, {j})") from None


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
    return coerce(_moment(_kernel_of(state), _labels(indices)), FLOAT)


def _kernel_of(state):
    """The kernel of a quasifree state, else ValidationError."""
    if not isinstance(state, QuasifreeState):
        raise ValidationError(f"expected a QuasifreeState, got {state!r}")
    return state.kernel


def _moment(kernel, idx):
    """npoint on slot labels read already."""
    n = len(idx)
    if n == 0:
        return 1.0 + 0.0j
    if n % 2:
        return 0.0 + 0.0j
    if n > NPOINT_GUARD:
        raise ValidationError(f"n={n} exceeds the pairing guard {NPOINT_GUARD}")
    if n == 2:
        # one pair needs no table: 2-slot moments of npoint and evaluate
        # (Gram entries are summed by _word_moments instead)
        return kernel._get(idx[0], idx[1])
    entries = kernel.entries
    try:
        rows = {
            1 << a: [(1 << b, entries[idx[a], idx[b]]) for b in range(a + 1, n)]
            for a in range(n - 1)
        }
    except KeyError as absent:  # the first absent pair, in the order of rows
        kernel._get(*absent.args[0])  # raises IncompleteKernelError
    return _pairing_sum(rows, n)


def _pairing_sum(rows, n):
    """The sum over the perfect matchings of n >= 2 slots of the products of
    their pair weights: the one pairing recursion.

    Slots are bits.  rows[1 << a] lists (1 << b, w_ab) for every b > a, in
    that order; a weight is a complex scalar, or an array of such weights,
    one per moment, when a block of moments is summed at once: arrays of
    shapes (rows, 1), (1, cols) and (rows, cols) broadcast to the block.
    `layer` maps each set of free slots to the sum, over every way of
    reaching it, of the products of the pairs chosen so far, starting from
    slot 0 paired with each other slot.
    """
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
    kernel = _kernel_of(state)
    if not isinstance(element, AlgebraElement):
        raise ValidationError(f"evaluate expects an AlgebraElement, got {element!r}")
    total = 0.0 + 0.0j
    for word, coeff in element.terms.items():
        total += coerce(coeff, FLOAT) * _moment(kernel, word)
    return coerce(total, FLOAT)


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
    that a kernel breaking its exchange relation shows in G.  The moments
    are summed in blocks, one per pair of word lengths (see _word_moments):
    the pairing recursion runs once per block on arrays of pair weights, so
    the cost per moment is numpy's, not one Python call's.  A label outside
    the kernel's generators raises IncompleteKernelError, as npoint would
    for the first moment that needs it in row-major order.

    Elements must be AlgebraElements (exact ones are read in float mode);
    anything else, such as a normal-ordered element, raises ValidationError.
    A moment past the float range, or a G that is not finite (coefficients
    past the float range, or products that overflow, in G or in its
    symmetrisation and trace) raises ValidationError.  G must be hermitian
    to 1e-8 of max(1, max|G|): the floor stays because G can cancel far
    below the scale of its moments and coefficients, and its rounding error
    does not.  Its minimal eigenvalue is compared against -1e-10 times the
    trace.  Elements above degree 4 are refused.
    """
    try:
        elems = list(elements)
    except TypeError:
        raise ValidationError("elements must be an iterable of algebra elements") from None
    for a in elems:
        if not isinstance(a, AlgebraElement):
            raise ValidationError(f"gram_positivity expects AlgebraElements, got {a!r}")
        if a.degree > _GRAM_DEGREE_GUARD:
            raise DegreeGuardError(
                f"family contains degree {a.degree} > guard {_GRAM_DEGREE_GUARD}"
            )
    elems = [a if a.mode == FLOAT else AlgebraElement(a.terms, FLOAT) for a in elems]
    words = list(dict.fromkeys(w for a in elems for w in a.terms))
    k, n = len(words), len(elems)
    A = np.array([[a.terms.get(w, 0) for a in elems] for w in words], complex).reshape(k, n)
    M = _word_moments(_kernel_of(state), words)
    with float_range("the Gram matrix is not finite: A^H M A"):
        G = A.conj().T @ M @ A
        herm = float(np.abs(G - G.conj().T).max(initial=0.0))
        if herm > 1e-8 * max(1.0, np.abs(G).max(initial=0.0)):
            raise KernelInconsistencyError(
                f"Gram matrix is not hermitian (residual {herm:.3e}); "
                "the two-point kernel violates its exchange relation"
            )
        if n == 0:
            return GramReport(0.0, 0.0, True, G, herm)
        sym = (G + G.conj().T) / 2.0
        min_eig = float(np.linalg.eigvalsh(sym)[0])
        threshold = -_KERNEL_TOL * float(np.trace(sym).real)
    return GramReport(min_eig, threshold, min_eig >= threshold, G, herm)


# word pairs per block step: bounds the pair-weight arrays of an 8-slot
# block to about 7 MB whatever the family's size
_BLOCK_CELLS = 1 << 14


def _word_moments(kernel, words):
    """M[u, v] = npoint(reverse(words[u]) + words[v]) for every pair of
    distinct words, each computed on its own, by blocks of the word pairs
    of lengths (p, q): 0 for p + q odd, 1 for the empty word's own pair,
    and otherwise one _pairing_sum per step of at most _BLOCK_CELLS word
    pairs in row-major order.  Slot a's table positions at[a] are a column
    over the step's rows for a letter of reverse(u) and a row over its
    columns for a letter of v, so table[at[a], at[b]] broadcasts to the
    pair's weights and the sum to the step's block (one row or column when
    the block holds the empty word).  A label outside the kernel's
    generators raises first, as npoint would for the first moment needing
    it in row-major order.  The table is read through the kernel's lookup,
    which names an absent pair.
    """
    labels = sorted({i for w in words for i in w})
    outside = set(labels).difference(kernel.generators)
    if outside:
        for u in words:
            for v in words:
                if not (len(u) + len(v)) % 2 and outside.intersection(u + v):
                    _moment(kernel, u[::-1] + v)  # raises, as npoint would
    where = {i: x for x, i in enumerate(labels)}
    table = np.array([[kernel._get(i, j) for j in labels] for i in labels], complex)
    table = table.reshape(len(labels), len(labels))
    groups = {}
    for x, w in enumerate(words):
        groups.setdefault(len(w), []).append(x)
    slots = {
        p: np.array([[where[i] for i in words[x]] for x in xs], int).reshape(len(xs), p)
        for p, xs in groups.items()
    }
    M = np.zeros((len(words), len(words)), complex)
    for x in groups.get(0, ()):
        M[x, x] = 1.0
    with float_range("the Gram matrix is not finite: a moment"):
        for p, us in groups.items():
            for q, vs in groups.items():
                n = p + q
                if n % 2 or not n:
                    continue
                step = max(1, _BLOCK_CELLS // len(vs))
                for lo in range(0, len(us), step):
                    at = [*slots[p][lo : lo + step, ::-1].T[..., None], *slots[q].T[:, None]]
                    rows = {
                        1 << a: [(1 << b, table[at[a], at[b]]) for b in range(a + 1, n)]
                        for a in range(n - 1)
                    }
                    M[np.ix_(us[lo : lo + step], vs)] = _pairing_sum(rows, n)
    return M
