"""Normal ordering, Wick products, ordering-change maps, and the
point-split stress tensor.

An ordering kernel kappa assigns a contraction value to every ordered
generator pair.  Its antisymmetric part must equal (i/2)E for the ambient
pairing form E; under that constraint the ordered monomials
:phi(i1)...phi(in): are symmetric in their arguments, so sorted words are
canonical labels, and commutators come out the same for every admissible
kappa.

normal_order, unorder, wick_product and alpha_map are each a sum over
partial matchings of letters, weighted by kappa, -kappa, kappa across the
two factors only, and a difference table d; so is ccr_core.normal_form,
under the kernel whose ordered monomials are sorted plain products.  One
routine, ccr_core._contract, computes all five.

Tensor-level operations (WickTensor, DifferenceKernel, alpha_map) work over
a finite generator basis of at most 8 labels.  Exact tensors hold
ExactComplex entries in object arrays; float tensors are complex128.
alpha_map reads a tensor as ordered monomials, contracts those and writes
the result back as tensors.

The stress tensor block at the bottom uses the mostly-plus flat metric
diag(-1, 1, 1, 1), evaluates second derivatives of a smooth symmetric
two-point kernel by 4th order central differences at two step sizes, and
combines them with one Richardson pass.  The wave-operator combination
entering the trace fix is m^2 - box, the operator that annihilates plane
waves in this signature.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ccr_core import (
    EXACT,
    FLOAT,
    AlgebraElement,
    ExactComplex,
    PairingForm,
    _accumulate,
    _contract,
    _Frozen,
    _labels,
    _listed_parts,
    _listed_value,
    _pair_table,
    _WordCombination,
    coerce,
    is_exact,
)
from .errors import (
    DegreeGuardError,
    InvalidDifferenceError,
    InvalidSymmetryError,
    OrderingKernelInvalidError,
    ResolutionError,
    ScalarModeMismatchError,
    ValidationError,
    as_finite,
    as_finite_array,
    as_finite_complex,
    asymmetry,
    call_outside,
    float_range,
)
from .minkowski_kernel import KernelParams
from .quasifree import TwoPointKernel

__all__ = [
    "OrderingKernel",
    "NormalOrderedElement",
    "normal_order",
    "unorder",
    "wick_product",
    "WickTensor",
    "DifferenceKernel",
    "alpha_map",
    "word_tensor",
    "element_to_tensors",
    "tensors_to_element",
    "tensor_to_json",
    "tensor_from_json",
    "phi2_H_expectation",
    "TwoPointTable",
    "StressEnergyResult",
    "stress_energy",
]

_WICK_DEGREE_GUARD = 4
_TENSOR_DEGREE_GUARD = 6
_BASIS_GUARD = 8


_I = ExactComplex(0, 1)


def _mode_of(*values):
    # exact arithmetic when every value allows it, float otherwise
    return EXACT if all(map(is_exact, values)) else FLOAT


class OrderingKernel(_Frozen):
    """Reference contraction table for normal ordering.

    ``table`` maps ordered generator pairs (i, j) to kappa(i, j); missing
    entries read as zero, and entries that are not exact are float scalars,
    read by coerce's rule, as are exact ones that a float entry or pairing
    puts in float mode.  ``pairing`` is the ambient antisymmetric form E.
    The constructor enforces kappa(i, j) - kappa(j, i) = i E(i, j) on every
    pair seen in either structure, exactly for rational entries and to
    1e-12 otherwise.  A kernel taken from a state by from_state_kernel
    carries the state's check instead, to 1e-10 of max(1, largest entry).
    """

    __slots__ = ("entries", "pairing")

    def __init__(self, table, pairing):
        if not isinstance(pairing, PairingForm):
            raise ValidationError("pairing must be a PairingForm")
        entries = {}
        for key, v in _pair_table(table, "ordering-kernel table").items():
            if not is_exact(v):
                v = coerce(v, FLOAT)
            if v:
                entries[key] = v
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "pairing", pairing)
        self._check_antisymmetric_part()

    def _check_antisymmetric_part(self):
        seen = set()
        for (i, j) in self.entries:
            seen.add((min(i, j), max(i, j)))
        for (i, j) in self.pairing.entries:
            seen.add((i, j))
        for (i, j) in sorted(seen):
            if i == j:
                continue
            a, b, e = self.value(i, j), self.value(j, i), self.pairing.value(i, j)
            mode = _mode_of(a, b, e)
            a, b, e = (coerce(v, mode) for v in (a, b, e))
            delta = a - b - e * coerce(_I, mode)
            if mode == EXACT:
                bad = bool(delta)
            else:
                # a, b and e were read with finite moduli, delta may not have
                # one: hypot returns inf where abs() raises
                scale = max(1.0, abs(a), abs(b), abs(e))
                bad = math.hypot(delta.real, delta.imag) > 1e-12 * scale
            if bad:
                raise OrderingKernelInvalidError(
                    f"kappa({i},{j}) - kappa({j},{i}) != i E({i},{j}); "
                    "commutators would depend on the ordering kernel"
                )

    def value(self, i, j):
        """kappa(i, j) as stored, zero when absent."""
        return self.entries.get(_labels((i, j)), 0)

    def scalar(self, i, j, mode):
        """kappa(i, j) coerced to the requested scalar mode; float entries
        raise ScalarModeMismatchError in exact mode."""
        return coerce(self.value(i, j), mode)

    @classmethod
    def from_symmetric_part(cls, symmetric, pairing):
        """Build kappa = S + (i/2)E from a symmetric table S.

        S entries may be given for one orientation only; the mirror is
        filled in.  Rational S and E entries produce an exact kernel.
        """
        if not isinstance(pairing, PairingForm):
            raise ValidationError("pairing must be a PairingForm")
        sym = {}
        for key, v in _pair_table(symmetric, "symmetric part").items():
            rkey = key[::-1]
            if rkey in sym and sym[rkey] != v:
                raise ValidationError(
                    f"symmetric part disagrees with itself at {key}"
                )
            sym[key] = v
            sym[rkey] = v
        gens = sorted(
            {g for pair in sym for g in pair}
            | {g for pair in pairing.entries for g in pair}
        )
        half_i = _I * Fraction(1, 2)
        entries = {}
        for i in gens:
            for j in gens:
                s = sym.get((i, j), 0)
                e = pairing.value(i, j)
                mode = _mode_of(s, e)
                entries[(i, j)] = coerce(s, mode) + coerce(e, mode) * coerce(half_i, mode)
        return cls(entries, pairing)

    @classmethod
    def from_state_kernel(cls, kernel):
        """Wrap a quasifree.TwoPointKernel: its entries become kappa and its
        pairing_form() the pairing E.  The kernel checked the exchange
        relation when it was built, to 1e-10 of max(1, largest entry), and
        that check is the one this kernel carries."""
        if not isinstance(kernel, TwoPointKernel):
            raise ValidationError("from_state_kernel expects a quasifree.TwoPointKernel")
        out = object.__new__(cls)
        object.__setattr__(out, "entries", {k: v for k, v in kernel.entries.items() if v})
        object.__setattr__(out, "pairing", kernel.pairing_form())
        return out

    def __repr__(self):
        return f"OrderingKernel({len(self.entries)} entries)"


class NormalOrderedElement(_WordCombination):
    """Finite combination of ordered monomials.

    ``terms`` maps sorted generator words to scalars; the word (i1, ..., in)
    labels :phi(i1)...phi(in): with respect to whichever kernel produced the
    expansion.  The empty word is the unit.  Scalars follow the same
    exact/float mode split as AlgebraElement, and words are sorted on the
    way in, since ordered monomials are symmetric in their arguments.
    """

    __slots__ = ()

    @staticmethod
    def _canonical(word):
        return tuple(sorted(_WordCombination._canonical(word)))

    @classmethod
    def monomial(cls, word, mode=EXACT, coefficient=1):
        return cls({_labels(word): coefficient}, mode)

    def __repr__(self):
        body = ", ".join(f"{w}: {c!r}" for w, c in sorted(self.terms.items()))
        return f"NormalOrderedElement({{{body}}}, mode={self.mode!r})"


def _kernel_table(kernel, elements, mode):
    # kappa on the letters the elements use, read once in the scalar mode;
    # float entries raise ScalarModeMismatchError in exact mode
    if not isinstance(kernel, OrderingKernel):
        raise ValidationError("the ordering kernel must be an OrderingKernel")
    letters = {g for e in elements for w in e.terms for g in w}
    pairs = [(i, j) for i in letters for j in letters if (i, j) in kernel.entries]
    return {p: coerce(kernel.entries[p], mode) for p in pairs}


def normal_order(a: AlgebraElement, kernel: OrderingKernel) -> NormalOrderedElement:
    """Expand an algebra element in the ordered-monomial basis of ``kernel``.

    Wick's theorem: a word phi(w1)...phi(wn) is the sum over partial
    matchings M of its slots of prod kappa(w_a, w_b) over the pairs a < b
    in M, times the ordered monomial of the unmatched letters.  Exact input
    stays exact.
    """
    if not isinstance(a, AlgebraElement):
        raise ValidationError("normal_order expects an AlgebraElement")
    weight = _kernel_table(kernel, (a,), a.mode)
    terms = _contract([((), w, c) for w, c in a.terms.items()], weight)
    return NormalOrderedElement._new(terms, a.mode)


def unorder(a: NormalOrderedElement, kernel: OrderingKernel) -> AlgebraElement:
    """Inverse of normal_order: rewrite ordered monomials as plain products.

    The inverse Wick formula: :phi(w1)...phi(wn): is the sum over partial
    matchings M of (-1)^|M| prod kappa(w_a, w_b) over the pairs a < b in M,
    times the plain product of the unmatched letters in order.  Ordered
    monomials are stored with sorted words, so every product is already in
    normal form.
    """
    if not isinstance(a, NormalOrderedElement):
        raise ValidationError("unorder expects a NormalOrderedElement")
    weight = {p: -k for p, k in _kernel_table(kernel, (a,), a.mode).items()}
    terms = _contract([((), w, c) for w, c in a.terms.items()], weight)
    return AlgebraElement._new(terms, a.mode)


def wick_product(
    a: NormalOrderedElement, b: NormalOrderedElement, kernel: OrderingKernel
) -> NormalOrderedElement:
    """Product of two ordered elements, re-expanded in the ordered basis.

    :A::B: is the sum over partial matchings that pair letters of A only
    with letters of B, of prod kappa(a_i, b_j) over the pairs, times the
    ordered monomial of every unmatched letter.  Exact input stays exact.
    Inputs above degree 4 are rejected.
    """
    if not isinstance(a, NormalOrderedElement) or not isinstance(b, NormalOrderedElement):
        raise ValidationError("wick_product expects two NormalOrderedElements")
    if a.degree > _WICK_DEGREE_GUARD or b.degree > _WICK_DEGREE_GUARD:
        raise DegreeGuardError(
            f"wick_product degree guard is {_WICK_DEGREE_GUARD}; "
            f"got {a.degree} and {b.degree}"
        )
    a._check_mode(b)
    weight = _kernel_table(kernel, (a, b), a.mode)
    starts = [(wa, wb, ca * cb) for wa, ca in a.terms.items() for wb, cb in b.terms.items()]
    return NormalOrderedElement._new(_contract(starts, weight, pool=True), a.mode)


# tensors over a finite basis


def _basis(labels):
    basis = _labels(labels)
    if not 0 < len(basis) <= _BASIS_GUARD:
        raise ValidationError(f"basis size must be between 1 and {_BASIS_GUARD}")
    if len(set(basis)) != len(basis):
        raise ValidationError("basis labels must be distinct")
    return basis


class _BasisTable(_Frozen):
    """Immutable symmetric table over a basis of 1 to 8 distinct labels.

    Each of the ``degree`` slots runs over ``basis`` and the table is
    symmetric under slot exchange, so ``entries`` holds only {sorted tuple
    of basis positions: nonzero value}, ExactComplex in exact mode and, in
    float mode, complex values that pass coerce's float-scalar rule.  The
    constructor reads a dense array (a ``mode`` of None means exact for
    object dtype) with finite float entries, symmetric to 1e-12 of its
    largest entry or exactly in exact mode.  ``array`` is the dense table,
    built once from the entries and read-only.  Subclasses set the allowed
    ranks, the name used in messages and the errors for a table that is not
    symmetric or not finite.
    """

    __slots__ = ("basis", "degree", "mode", "entries", "_array")

    _ranks = range(_TENSOR_DEGREE_GUARD + 1)
    _what = "table"
    _asymmetric = InvalidSymmetryError
    _nonfinite = ValidationError

    def __init__(self, basis, array, mode=None):
        basis = _basis(basis)
        try:
            arr = np.asarray(array)
        except ValueError:
            raise ValidationError(f"{self._what} is a ragged array") from None
        if mode is None:
            mode = EXACT if arr.dtype == object else FLOAT
        if mode == EXACT:
            arr = np.array([coerce(v, EXACT) for v in arr.flat], dtype=object).reshape(arr.shape)
        elif mode == FLOAT:
            try:
                arr = arr.astype(complex)
            except (TypeError, ValueError):
                raise ValidationError(f"{self._what} has non-numeric entries") from None
            if not np.isfinite(arr).all():
                raise self._nonfinite(f"{self._what} has non-finite entries")
        else:
            raise ValidationError(f"unknown scalar mode {mode!r}")
        if arr.ndim not in self._ranks:
            raise ValidationError(f"{self._what} of rank {arr.ndim} is not supported")
        if any(d != len(basis) for d in arr.shape):
            raise ValidationError(
                f"{self._what} shape {arr.shape} does not match basis size {len(basis)}"
            )
        heads = np.sort(np.indices(arr.shape).reshape(arr.ndim, arr.size), axis=0)
        self._check_orbits(arr.reshape(-1), np.ravel_multi_index(heads, arr.shape), mode)
        indices = itertools.combinations_with_replacement(range(len(basis)), arr.ndim)
        self._set(basis, arr.ndim, mode, {idx: arr.item(idx) for idx in indices})

    def _set(self, basis, degree, mode, entries):
        # the one writer: entries read from an array and entries computed
        # internally obey the same float-scalar rule
        entries = {idx: v for idx, v in entries.items() if v}
        if mode == FLOAT:
            try:
                for v in entries.values():
                    as_finite_complex(v, self._what)
            except ValidationError as exc:
                raise self._nonfinite(*exc.args) from None
        for name, value in zip(_BasisTable.__slots__, (basis, degree, mode, entries, None)):
            object.__setattr__(self, name, value)
        return self

    @classmethod
    def _new(cls, basis, degree, mode, entries):
        # internal results, keyed and in mode already
        return object.__new__(cls)._set(basis, degree, mode, entries)

    @classmethod
    def _check_orbits(cls, values, heads, mode):
        # each entry of a flat table against its orbit's sorted-index entry,
        # values[heads]: equal in exact mode, to 1e-12 of the largest entry otherwise
        if mode == EXACT:
            bad = (values != values[heads]).any()
        else:
            bad = asymmetry(values, lambda q: q[heads]) > 1e-12
        if bad:
            raise cls._asymmetric(f"{cls._what} is not symmetric under slot exchange")

    def __reduce__(self):
        # the dense array is a cache, restored unbuilt
        thaw, (cls, slots) = super().__reduce__()
        return thaw, (cls, {**slots, "_array": None})

    @property
    def array(self):
        if self._array is None:
            arr = np.full((len(self.basis),) * self.degree, coerce(0, self.mode))
            for idx, v in self.entries.items():
                for perm in set(itertools.permutations(idx)):
                    arr[perm] = v
            arr.flags.writeable = False
            object.__setattr__(self, "_array", arr)
        return self._array

    def _combine(self, other, op):
        if type(other) is not type(self):
            return NotImplemented
        if (self.basis, self.degree) != (other.basis, other.degree):
            raise ValidationError(f"cannot combine {self._what}s of different bases or ranks")
        if self.mode != other.mode:
            raise ScalarModeMismatchError(f"cannot mix {self.mode} and {other.mode} {self._what}s")
        a, b, zero = self.entries, other.entries, coerce(0, self.mode)
        entries = {idx: op(a.get(idx, zero), b.get(idx, zero)) for idx in a.keys() | b.keys()}
        return self._new(self.basis, self.degree, self.mode, entries)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def scale(self, c):
        # through numpy, whose complex product rounds unlike Python's
        c = coerce(c, self.mode)
        with float_range(f"scaled {self._what}"):
            values = (np.array(list(self.entries.values())) * c).tolist()
        return self._new(self.basis, self.degree, self.mode, dict(zip(self.entries, values)))


class WickTensor(_BasisTable):
    """Symmetric coefficient tensor of a smeared ordered monomial.

    The rank-n array over ``basis`` holds the coefficient of
    :phi(b_{i1})...phi(b_{in}): at index (i1, ..., in).  Degree 0 is a 0-d
    array holding a multiple of the unit.
    """

    __slots__ = ()

    _what = "coefficient tensor"

    def star(self):
        """Entrywise conjugate, the coefficient tensor of the adjoint."""
        entries = {idx: v.conjugate() for idx, v in self.entries.items()}
        return WickTensor._new(self.basis, self.degree, self.mode, entries)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, WickTensor):
            return NotImplemented
        mine = (self.basis, self.mode, self.degree, self.entries)
        return mine == (other.basis, other.mode, other.degree, other.entries)

    def __repr__(self):
        return f"WickTensor(degree={self.degree}, basis={self.basis}, mode={self.mode!r})"


class DifferenceKernel(_BasisTable):
    """Symmetric difference table between two ordering kernels.

    Only the symmetric part of a kernel difference acts on ordered
    monomials (the antisymmetric parts agree by the E constraint and
    cancel), so symmetry is enforced here rather than assumed downstream.
    """

    __slots__ = ()

    _ranks = (2,)
    _what = "difference table"
    _asymmetric = _nonfinite = InvalidDifferenceError

    @property
    def matrix(self):
        """The difference table, indexed by basis positions."""
        return self.array

    @classmethod
    def from_orderings(cls, kernel_new, kernel_old, basis):
        """Symmetric part of kappa_new - kappa_old over ``basis``.

        This is the difference that alpha_map needs to re-expand
        kernel_old-ordered monomials in the kernel_new basis.
        """
        if not all(isinstance(k, OrderingKernel) for k in (kernel_new, kernel_old)):
            raise ValidationError("from_orderings expects two OrderingKernels")
        basis = _basis(basis)
        mode = _mode_of(
            *(k.value(i, j) for k in (kernel_new, kernel_old) for i in basis for j in basis)
        )
        half = coerce(Fraction(1, 2), mode)
        diff = [[kernel_new.scalar(i, j, mode) - kernel_old.scalar(i, j, mode) for j in basis]
                for i in basis]
        pairs = itertools.combinations_with_replacement(range(len(basis)), 2)
        entries = {(p, q): (diff[p][q] + diff[q][p]) * half for p, q in pairs}
        return cls._new(basis, 2, mode, entries)

    def __repr__(self):
        return f"DifferenceKernel(basis={self.basis}, mode={self.mode!r})"


def alpha_map(d: DifferenceKernel, w: WickTensor) -> dict:
    """Change-of-ordering image of one tensor monomial.

    Re-expands W(w), ordered against kappa_old, in the basis ordered
    against kappa_new, where d is the symmetric part of kappa_new -
    kappa_old: each ordered monomial :phi(w1)...phi(wn): maps to the sum
    over partial matchings M of its slots of prod d(w_a, w_b) over the
    pairs in M, times the ordered monomial of the unmatched letters.
    Returns a dict mapping degree n - 2k to the tensor of the terms with k
    pairs; degrees whose tensor vanishes are left out, and the degree-n
    piece is w itself.  With d = 0 this is the identity {n: w}.  Exact
    input with an exact difference stays exact, which is what makes the
    composition law and the normal_order cross-check exact statements
    rather than tolerances.
    """
    if not isinstance(d, DifferenceKernel) or not isinstance(w, WickTensor):
        raise ValidationError("alpha_map expects (DifferenceKernel, WickTensor)")
    if d.basis != w.basis:
        raise ValidationError("difference table and tensor bases differ")
    if d.mode != w.mode:
        raise ScalarModeMismatchError(f"cannot mix {d.mode} difference with {w.mode} tensor")
    weight = {}
    for (p, q), v in d.entries.items():
        weight[(w.basis[p], w.basis[q])] = weight[(w.basis[q], w.basis[p])] = v
    starts = [((), word, c) for word, c in tensors_to_element([w]).terms.items()]
    lower = {u: c for u, c in _contract(starts, weight).items() if len(u) < w.degree}
    return {w.degree: w, **_tensors(lower, w.basis, w.mode)}


def _orderings(word):
    # number of distinct orderings of a word, n! / prod(mult!)
    counts = Counter(word).values()
    return math.factorial(len(word)) // math.prod(map(math.factorial, counts))


def _tensors(terms, basis, mode):
    # {degree: WickTensor} of {word: coefficient}; a word's entry, at its
    # sorted basis positions, is its coefficient over _orderings(word)
    basis = _basis(basis)
    index_of = {b: p for p, b in enumerate(basis)}
    tables = {}
    for word, coeff in terms.items():
        n = len(word)
        if n > _TENSOR_DEGREE_GUARD:
            raise ValidationError(
                f"word length {n} exceeds tensor degree guard {_TENSOR_DEGREE_GUARD}"
            )
        try:
            positions = tuple(sorted(index_of[g] for g in word))
        except KeyError as exc:
            raise ValidationError(f"word uses generator {exc.args[0]} outside the basis")
        tables.setdefault(n, {})[positions] = coeff * coerce(Fraction(1, _orderings(word)), mode)
    return {n: WickTensor._new(basis, n, mode, entries) for n, entries in tables.items()}


def word_tensor(word, basis, mode=EXACT):
    """Symmetric tensor t with W(t) equal to the single ordered monomial.

    Every distinct permutation of the word's index tuple carries the weight
    prod(mult!) / n!, so summing over all index tuples reproduces the
    monomial with coefficient one.
    """
    word = _labels(word)
    if mode not in (EXACT, FLOAT):
        raise ValidationError(f"unknown scalar mode {mode!r}")
    return _tensors({word: coerce(1, mode)}, basis, mode)[len(word)]


def element_to_tensors(a: NormalOrderedElement, basis) -> dict:
    """Split an ordered element into homogeneous coefficient tensors."""
    if not isinstance(a, NormalOrderedElement):
        raise ValidationError("element_to_tensors expects a NormalOrderedElement")
    return _tensors(a.terms, basis, a.mode)


def tensors_to_element(parts) -> NormalOrderedElement:
    """Resum homogeneous coefficient tensors into an ordered element.

    ``parts`` is any iterable of WickTensors of one scalar mode (a dict from
    alpha_map works: its values are used); no parts give the exact zero.
    The inverse weight n!/prod(mult!) undoes word_tensor's normalization.
    """
    try:
        parts = list(parts.values() if isinstance(parts, dict) else parts)
    except TypeError:
        parts = None
    if parts is None or not all(isinstance(w, WickTensor) for w in parts):
        raise ValidationError("tensors_to_element expects an iterable of WickTensors")
    mode = parts[0].mode if parts else EXACT
    terms = {}
    for w in parts:
        if w.mode != mode:
            raise ScalarModeMismatchError("mixed scalar modes in tensor list")
        for idx in sorted(w.entries):
            word = tuple(w.basis[p] for p in idx)
            _accumulate(terms, word, w.entries[idx] * coerce(_orderings(idx), mode))
    return NormalOrderedElement(terms, mode)


def tensor_to_json(w: WickTensor) -> str:
    """The "ccr-lab/1" wick-tensor listing: degree, basis, mode and one row
    [index, re, im] for every index of each nonzero orbit (all orderings of
    a sorted index) in lexicographic order, rationals as strings in exact
    mode.  tensor_from_json requires every orbit to be listed whole."""
    if not isinstance(w, WickTensor):
        raise ValidationError("tensor_to_json expects a WickTensor")
    rows = []
    for idx, v in w.entries.items():
        value = _listed_parts(v) if w.mode == EXACT else [v.real, v.imag]
        rows.extend([list(perm), *value] for perm in set(itertools.permutations(idx)))
    rows.sort(key=operator.itemgetter(0))
    data = {"schema": "ccr-lab/1", "kind": "wick-tensor", "degree": w.degree,
            "basis": list(w.basis), "mode": w.mode, "entries": rows}
    return json.dumps(data, sort_keys=True)


def tensor_from_json(text: str) -> WickTensor:
    """Inverse of tensor_to_json; malformed input raises ValidationError, and
    an orbit listed in part or whose entries disagree raises
    InvalidSymmetryError: in float mode, a listed entry may differ from its
    orbit's sorted-index entry by 1e-12 of the listing's largest entry, as
    WickTensor reads a dense array.  Entries must be written as
    tensor_to_json writes them; any other form, a decimal exponent such as
    "1e1000000" among them, is refused."""
    try:
        data = json.loads(text)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"tensor json does not parse: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError("tensor json must be an object")
    for key in ("kind", "degree", "basis", "mode", "entries"):
        if key not in data:
            raise ValidationError(f"tensor json is missing key {key!r}")
    if data["kind"] != "wick-tensor":
        raise ValidationError(f"unexpected kind {data['kind']!r}")
    mode = data["mode"]
    if mode not in (EXACT, FLOAT):
        raise ValidationError(f"unknown scalar mode {mode!r}")
    basis = _basis(data["basis"])
    orbits = {}
    try:
        n = operator.index(data["degree"])
        if not 0 <= n <= _TENSOR_DEGREE_GUARD:
            raise ValidationError(f"degree {n} is outside the tensor guard")
        for idx, re, im in data["entries"]:
            idx = _labels(idx)
            if len(idx) != n or any(not 0 <= i < len(basis) for i in idx):
                raise ValidationError(f"entry index {idx} is out of range")
            orbits.setdefault(tuple(sorted(idx)), {})[idx] = _listed_value(re, im, mode)
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ValidationError(f"malformed tensor json entry: {exc!r}") from None
    entries, values, heads = {}, [], []
    for idx, orbit in orbits.items():
        if len(orbit) != _orderings(idx):
            raise InvalidSymmetryError(f"orbit {idx} is listed in part")
        entries[idx] = orbit.pop(idx)
        heads += [len(values)] * _orderings(idx)  # the sorted index heads its orbit
        values += [entries[idx], *orbit.values()]
    WickTensor._check_orbits(np.array(values, complex if mode == FLOAT else object), heads, mode)
    return WickTensor._new(basis, n, mode, entries)


# coincidence limits


def phi2_H_expectation(params: KernelParams, x=None, perturbation=None) -> float:
    """Expectation of the ordered square against the parametrix subtraction.

    The value is the coincidence limit of the remainder w = W - H: the
    t = 0 value of the series minkowski_kernel.remainder_w sums, where only
    c_0 survives at every parametrix order, so it is the closed form
    (m^2/16 pi^2) (2 log(m lam/2) - 1 + 2 gamma).  It does not depend on
    the spacetime point x for the translation-invariant vacuum; a smooth
    symmetric perturbation kernel (a callable s(x, y)) shifts it by its own
    diagonal s(x, x); a perturbation that fails raises ValidationError.  A
    value that overflows a float is refused.
    """
    if not isinstance(params, KernelParams):
        raise ValidationError("phi2_H_expectation expects KernelParams")
    if params.m <= 0:
        raise ValidationError("the coincidence remainder needs m > 0")
    if params.eps != 0:
        raise ValidationError("state values require eps = 0, not a regulator")
    x = as_finite_array((0.0, 0.0, 0.0, 0.0) if x is None else x, "x")
    if x.shape != (4,):
        raise ValidationError("x must have 4 components")
    m = params.m
    log_lam = 2.0 * math.log(0.5 * m * params.lam)
    value = m * m / (16.0 * math.pi**2) * (log_lam - 1.0 + 2.0 * np.euler_gamma)
    if perturbation is not None:
        x = tuple(x.tolist())
        s = call_outside("perturbation kernel", perturbation, x, x)
        value += as_finite(np.real(s), "perturbation diagonal")
    return as_finite(value, "coincidence value")  # a Python float sum


# point-split stress tensor, flat metric diag(-1, 1, 1, 1)

_ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


class TwoPointTable:
    """Translation-invariant two-point kernel sampled on a uniform 4-d grid.

    Stores samples of W(x - y) on the product of four uniform, strictly
    increasing axes (steps equal to 1e-9 of the largest), each symmetric
    about zero to 1e-9 of its largest entry; W must be even under negation
    of the separation (that is the kernel symmetry w(x, y) = w(y, x)) to
    1e-10 of its largest sample.  An axis or a pair of points whose
    difference leaves the float range is refused, as is an interpolated
    value that does.  Evaluation interpolates with separable cubic
    Lagrange polynomials.  ``grid_spacing`` is what stress_energy checks
    its difference step against.
    """

    def __init__(self, axes, values):
        try:
            axes = tuple(as_finite_array(a, "separation axis") for a in axes)
        except TypeError:
            raise ValidationError("axes must be a sequence of 4 arrays") from None
        if len(axes) != 4:
            raise ValidationError("need exactly 4 separation axes")
        spacings = []
        for a in axes:
            if a.ndim != 1 or a.size < 4:
                raise ValidationError("each axis needs at least 4 samples")
            with float_range("separation axis"):
                steps = np.diff(a)
                if steps.min() <= 0:
                    raise ValidationError("axes must be strictly increasing")
                if steps.max() - steps.min() > 1e-9 * steps.max():
                    raise ValidationError("axes must be uniform")
                spacings.append(float(steps.mean()))
            if asymmetry(a, lambda q: -q[::-1]) > 1e-9:
                raise ValidationError("axes must be symmetric about zero")
        values = as_finite_array(values, "table values")
        if values.shape != tuple(a.size for a in axes):
            raise ValidationError(
                f"value array shape {values.shape} does not match the axes"
            )
        if asymmetry(values, lambda q: q[::-1, ::-1, ::-1, ::-1]) > 1e-10:
            raise ValidationError(
                "table is not even in the separation; the kernel would not be symmetric"
            )
        self.axes = axes
        self.values = values
        self.spacings = tuple(spacings)
        self.grid_spacing = max(spacings)

    def _axis_weights(self, axis_index, t):
        a = self.axes[axis_index]
        s = self.spacings[axis_index]
        u = (t - a[0]) / s
        if u < -1e-9 or u > a.size - 1 + 1e-9:
            raise ValidationError(
                f"separation component {t} is outside the table range"
            )
        i0 = int(np.floor(u)) - 1
        i0 = min(max(i0, 0), a.size - 4)
        v = u - i0
        w = np.empty(4)
        for mnode in range(4):
            prod = 1.0
            for p in range(4):
                if p != mnode:
                    prod *= (v - p) / (mnode - p)
            w[mnode] = prod
        return i0, w

    def __call__(self, xp, yp):
        xp, yp = as_finite_array(xp, "point"), as_finite_array(yp, "point")
        if xp.shape != (4,) or yp.shape != (4,):
            raise ValidationError("points must have 4 components")
        starts, weights = [], []
        with float_range("separation"):
            delta = xp - yp
            for d in range(4):
                i0, w = self._axis_weights(d, delta[d])
                starts.append(i0)
                weights.append(w)
        block = self.values[
            starts[0] : starts[0] + 4,
            starts[1] : starts[1] + 4,
            starts[2] : starts[2] + 4,
            starts[3] : starts[3] + 4,
        ]
        # einsum reports no overflow to float_range
        value = np.einsum("a,b,c,d,abcd->", *weights, block)
        return as_finite(value, "interpolated kernel value")


@dataclass(frozen=True)
class StressEnergyResult:
    """Point-split stress tensor and the pieces acceptance checks need.

    tensor: the symmetric 4x4 component array T_ab.
    trace: eta^{ab} T_ab.
    kg_diagonal: (m^2 - box_x) w at coincidence, the scalar whose -1/3
        g_ab multiple is the conservation fix.
    step: the coarse difference step actually used.
    """

    tensor: np.ndarray
    trace: float
    kg_diagonal: float
    step: float


def _second_blocks(w, x, h):
    # value, both-x second derivatives, mixed x/y second derivatives; w is
    # symmetric, w(x, y) = w(y, x), so the both-y block equals the both-x one
    # and the mixed block is symmetric; numpy floats, so float_range sees them
    def f(dx, dy):
        return np.float64(as_finite(call_outside("two-point kernel", w, x + dx, x + dy),
                                    "kernel value"))

    zero = np.zeros(4)
    f0 = f(zero, zero)

    def dir2(ex, ey):
        # 4th order second derivative along the (ex, ey) displacement
        return (
            -f(-2 * h * ex, -2 * h * ey)
            + 16.0 * f(-h * ex, -h * ey)
            - 30.0 * f0
            + 16.0 * f(h * ex, h * ey)
            - f(2 * h * ex, 2 * h * ey)
        ) / (12.0 * h * h)

    eye = np.eye(4)
    xdiag = np.array([dir2(eye[a], zero) for a in range(4)])
    xx = np.diag(xdiag)
    xy = np.zeros((4, 4))
    for a in range(4):
        for b in range(a, 4):
            both = dir2(eye[a], eye[b])
            xy[a, b] = xy[b, a] = 0.5 * (both - xdiag[a] - xdiag[b])
            if b > a:
                both = dir2(eye[a] + eye[b], zero)
                xx[a, b] = xx[b, a] = 0.5 * (both - xdiag[a] - xdiag[b])
    return f0, xx, xy


def stress_energy(w, x, mass, xi=0.0, step=0.05) -> StressEnergyResult:
    """Stress tensor of a smooth symmetric two-point kernel at a point.

    ``w`` is a callable w(x4, y4) -> real, or a TwoPointTable.  The operator
    applied before the coincidence limit is, with g = diag(-1,1,1,1) and
    unprimed/primed derivatives acting on the first/second slot,

        (1 - 2 xi) d_a d'_b  -  2 xi d_a d_b
        + g_ab (2 xi box_x + (2 xi - 1/2) g^{cd} d_c d'_d - m^2 / 2)
        - (1/3) g_ab (m^2 - box_x)

    The Einstein-tensor term of the curved-space operator vanishes here; the
    tensor without the last term is tensor + g_ab kg_diagonal / 3.
    Derivatives use 4th order central stencils at ``step`` and half of it,
    Richardson-combined; a gridded kernel must resolve the finer stencil,
    else the resolution guard fires.
    """
    x = as_finite_array(x, "x")
    if x.shape != (4,):
        raise ValidationError("x must have 4 components")
    mass = as_finite(mass, "mass")
    if mass < 0:
        raise ValidationError("mass must be >= 0")
    xi = as_finite(xi, "xi")
    step = as_finite(step, "difference step")
    if not (step > 0 and (step / 2.0) * (step / 2.0) > 0.0 and 12.0 * step * step < math.inf):
        raise ValidationError("difference step must be positive, its square in the float range")
    spacing = getattr(w, "grid_spacing", None)
    if spacing is not None and step < 2.0 * float(spacing):
        raise ResolutionError(
            f"difference step {step} needs at least two grid spacings "
            f"(grid has {spacing})"
        )
    if not callable(w):
        raise ValidationError("w must be callable or a TwoPointTable")

    with float_range("stress tensor"):
        v_c, xx_c, xy_c = _second_blocks(w, x, step)
        v_f, xx_f, xy_f = _second_blocks(w, x, step / 2.0)
        # one Richardson pass on the 4th order stencils
        value = v_f
        xx = (16.0 * xx_f - xx_c) / 15.0
        xy = (16.0 * xy_f - xy_c) / 15.0

        box_x = -xx[0, 0] + xx[1, 1] + xx[2, 2] + xx[3, 3]
        cross = -xy[0, 0] + xy[1, 1] + xy[2, 2] + xy[3, 3]
        kg_diag = mass * mass * value - box_x

        tensor = (
            (1.0 - 2.0 * xi) * xy
            - 2.0 * xi * xx
            + _ETA * (2.0 * xi * box_x + (2.0 * xi - 0.5) * cross - 0.5 * mass * mass * value)
            - (_ETA / 3.0) * kg_diag
        )
        trace = float(-tensor[0, 0] + tensor[1, 1] + tensor[2, 2] + tensor[3, 3])
    return StressEnergyResult(
        tensor=tensor, trace=trace, kg_diagonal=float(kg_diag), step=step
    )
