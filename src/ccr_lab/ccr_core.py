r"""Symbolic unital *-algebra over abstract hermitian generators phi(i) with
the exchange relation

    phi(j) phi(i)  =  phi(i) phi(j) - i E_ij 1        (j > i),

where E is an antisymmetric real pairing on generator indices.  Elements are
finite linear combinations of words over the generator alphabet; the canonical
representative of an element has every word sorted in non-decreasing index
order, and ``normal_form`` computes it.  Scalars come in two modes: exact
complex rationals (the default for identity checking) and ordinary complex
floats.

>>> E = PairingForm({(1, 2): 1})
>>> a = AlgebraElement.generator(2) * AlgebraElement.generator(1)
>>> print(element_to_text(normal_form(a, E)))
0/1+-1/1*i + 1/1+0/1*i*phi(1)phi(2)

That is phi(2)phi(1) = phi(1)phi(2) - i, the single-swap case of the
relation.  Star reverses words and conjugates coefficients; the generators
themselves are hermitian, so no index decoration is needed.

An ordering kernel (OrderingKernel) is a contraction table kappa with
antisymmetric part (i/2)E; normal_form orders against kappa(l, g) = i E(l, g)
for l > g, wick_hadamard against any other.  A quasifree state's two-point
function omega has antisymmetric part (i/2)E for E = 2 Im omega, so its
table is one: quasifree.TwoPointKernel is the subclass with the state's check.
"""

from __future__ import annotations

import json
import math
import operator
import re as _re
from fractions import Fraction
from itertools import product as _cartesian

import numpy as np

from .errors import (
    ArityError,
    InvalidSymmetryError,
    OrderingKernelInvalidError,
    ScalarModeMismatchError,
    ValidationError,
    as_finite,
    as_finite_complex,
    float_range,
)

__all__ = [
    "ExactComplex",
    "AlgebraElement",
    "PairingForm",
    "InducedMap",
    "multiply",
    "star",
    "normal_form",
    "commutator",
    "simplicity_probe",
    "find_simplicity_witness",
    "element_to_text",
    "element_from_text",
]

EXACT = "exact"
FLOAT = "float"


class _Frozen:
    """Base of the immutable slot classes.  Slots are written once, through
    object.__setattr__; assigning or deleting one raises AttributeError.  A
    copy or pickle restores the stored slots as they are, without running
    the constructor, whose checks may be stricter than the ones a stored
    value passed."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        names = [n for c in type(self).__mro__ for n in c.__dict__.get("__slots__", ())]
        return _thaw, (type(self), {n: getattr(self, n) for n in names})


def _thaw(cls, slots):
    """An instance of cls holding the given slot values, as stored."""
    out = object.__new__(cls)
    for name, value in slots.items():
        object.__setattr__(out, name, value)
    return out


class _ReadOnlyDict(dict):
    """A dict whose every edit raises TypeError; it copies and pickles by its items."""

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("the table is read-only: it was fixed when built")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return type(self), (dict(self),)


class ExactComplex(_Frozen):
    """Complex rational (a + b i) / d, stored as the three ints (a, b, d).

    The stored form is in lowest terms, gcd(a, b, d) = 1, with d > 0, so
    equal values store equal ints.  One denominator makes a sum or product
    integer arithmetic and one gcd, where a pair of Fractions takes four
    Fraction products and two sums, each reduced by its own gcd.  ``re``
    and ``im`` read the parts back as Fractions.

    Immutable; arithmetic never rounds.  Parts that are not finite
    rationals raise ValidationError.
    """

    __slots__ = ("_abd",)

    def __init__(self, re=0, im=0):
        try:
            x, y = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in (re, im)]
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"parts {re!r}, {im!r} are not finite rationals") from None
        # over the lcm of two lowest-terms denominators the ints share no factor
        d = math.lcm(x.denominator, y.denominator)
        abd = x.numerator * (d // x.denominator), y.numerator * (d // y.denominator), d
        object.__setattr__(self, "_abd", abd)

    @property
    def re(self):
        return Fraction(self._abd[0], self._abd[2])

    @property
    def im(self):
        return Fraction(self._abd[1], self._abd[2])

    def __add__(self, other):
        if not isinstance(other, ExactComplex):
            if isinstance(other, _WordCombination):
                return NotImplemented  # an element's own scalar rule decides
            other = coerce(other, EXACT)
        a, b, d = self._abd
        c, e, f = other._abd
        if d == f:
            return _exact(a + c, b + e, d)
        return _exact(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _WordCombination):
            return NotImplemented
        return self + -coerce(other, EXACT)

    def __rsub__(self, other):
        if isinstance(other, _WordCombination):
            return NotImplemented
        return coerce(other, EXACT) + -self

    def __mul__(self, other):
        if not isinstance(other, ExactComplex):
            if isinstance(other, _WordCombination):
                return NotImplemented
            other = coerce(other, EXACT)
        a, b, d = self._abd
        c, e, f = other._abd
        return _exact(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __neg__(self):
        a, b, d = self._abd
        return _exact(-a, -b, d)

    def conjugate(self):
        a, b, d = self._abd
        return _exact(a, -b, d)

    def __bool__(self):
        return self._abd[:2] != (0, 0)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return self._abd == other._abd

    def __hash__(self):
        a, b, d = self._abd
        # a real value hashes as the int or Fraction it equals
        return hash(Fraction(a, d)) if b == 0 else hash(self._abd)

    def __complex__(self):
        a, b, d = self._abd
        return complex(a / d, b / d)

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"


def _exact(a, b, d):
    """ExactComplex (a + b i) / d for ints a, b and d > 0, in lowest terms."""
    g = math.gcd(a, b, d)
    z = object.__new__(ExactComplex)
    object.__setattr__(z, "_abd", (a // g, b // g, d // g))
    return z


_EXACT_TYPES = (ExactComplex, int, Fraction)


def is_exact(x):
    """True for the scalars exact mode accepts: ints, Fractions, ExactComplex."""
    return isinstance(x, _EXACT_TYPES)


def coerce(x, mode):
    """x as a scalar of the given mode: ExactComplex in exact mode, complex
    in float mode.

    Exact mode takes only exact scalars (see is_exact) and raises
    ScalarModeMismatchError for anything else, floats included.  Float mode
    takes any number, exact ones too, under the one rule for a float
    scalar (errors.as_finite_complex): its modulus must be a finite float.
    Anything else raises ValidationError.
    """
    if mode == EXACT:
        if isinstance(x, ExactComplex):
            return x
        if is_exact(x):
            return ExactComplex(x)
        raise ScalarModeMismatchError(
            f"cannot use {type(x).__name__} in exact-mode arithmetic"
        )
    return as_finite_complex(x, "scalar")


def _labels(seq):
    """Generator labels as a tuple of ints; floats, strings and non-iterables
    raise ValidationError rather than being truncated or leaking TypeError."""
    try:
        return tuple(map(operator.index, seq))
    except TypeError:
        raise ValidationError(f"generator labels must be integers, got {seq!r}") from None


def _table(table, what):
    """A table of entries as a dict: None (empty), a mapping or an iterable
    of (key, value) pairs; anything else raises ValidationError rather than
    leaking TypeError."""
    try:
        return dict(() if table is None else table)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a mapping, got {table!r}") from None


def _pair_table(table, what):
    """A table keyed by index pairs, {(i, j): value}; a key that is not a
    pair of integer labels raises ValidationError."""
    out = {}
    for key, v in _table(table, what).items():
        key = _labels(key)
        if len(key) != 2:
            raise ValidationError(f"{what} key {key!r} is not an index pair")
        out[key] = v
    return out


def _word(word):
    word = _labels(word)
    if word and min(word) < 0:
        raise ValidationError("generator indices must be non-negative")
    return word


class _WordCombination(_Frozen):
    """Immutable finite linear combination of generator words.

    terms maps canonical words (tuples of generator indices) to nonzero
    scalars; the empty word is the unit.  mode is "exact" or "float" and is
    fixed per element; operations between elements require equal modes and
    equal types.  Subclasses differ only in _canonical, which validates a
    word and returns its canonical form.
    """

    __slots__ = ("terms", "mode")

    _canonical = staticmethod(_word)

    def __init__(self, terms=None, mode=EXACT):
        if mode not in (EXACT, FLOAT):
            raise ValidationError(f"unknown scalar mode {mode!r}")
        clean = {}
        for word, coeff in _table(terms, "element terms").items():
            word = self._canonical(word)
            coeff = coerce(coeff, mode)
            if coeff:
                total = clean[word] + coeff if word in clean else coeff
                if total:
                    clean[word] = total
                else:
                    del clean[word]
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "mode", mode)

    @classmethod
    def _new(cls, terms, mode):
        # internal results: words already canonical, scalars already in
        # mode, so only the zero coefficients are dropped; an overflow of
        # Python float arithmetic is refused
        terms = {w: c for w, c in terms.items() if c}
        if mode == FLOAT:
            for c in terms.values():
                as_finite_complex(c, "a float coefficient")
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "mode", mode)
        return out

    @classmethod
    def zero(cls, mode=EXACT):
        return cls({}, mode)

    @classmethod
    def unit(cls, mode=EXACT):
        return cls({(): 1}, mode)

    @property
    def degree(self):
        """Filtration degree: longest word length, 0 for scalars and zero."""
        return max((len(w) for w in self.terms), default=0)

    def coefficient(self, word):
        return self.terms.get(self._canonical(word), coerce(0, self.mode))

    def unit_coefficient(self):
        return self.coefficient(())

    def _check_mode(self, other):
        if self.mode != other.mode:
            raise ScalarModeMismatchError(
                f"cannot combine {self.mode} and {other.mode} elements"
            )

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_mode(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] + c if w in out else c
        return self._new(out, self.mode)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = coerce(c, self.mode)
        return self._new({w: coeff * c for w, coeff in self.terms.items()}, self.mode)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.mode == other.mode and self.terms == other.terms

    def __hash__(self):
        return hash((self.mode, frozenset(self.terms.items())))


class AlgebraElement(_WordCombination):
    """Finite linear combination of generator words plus the unit.

    terms maps words (tuples of generator indices) to nonzero scalars, each
    word kept in the order given; the empty word is the unit.  mode is
    "exact" or "float" and is fixed per element; operations between
    elements require equal modes.
    """

    __slots__ = ()

    @classmethod
    def generator(cls, index, mode=EXACT):
        return cls({(index,): 1}, mode)

    @classmethod
    def from_vector(cls, vector, mode=EXACT):
        """Degree-one element sum_g vector[g] * phi(g) from a dict."""
        return cls({(g,): c for g, c in _table(vector, "vector").items()}, mode)

    def is_zero(self):
        return not self.terms

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def star(self):
        return star(self)

    def __repr__(self):
        return f"<AlgebraElement {element_to_text(self)!r} ({self.mode})>"


class PairingForm(_Frozen):
    """Antisymmetric real pairing E on generator indices.

    Stored triangularly and read-only: entries[(i, j)] = E_ij for i < j.
    Missing pairs are zero.  Entry values may be Fraction/int (usable in
    both scalar modes) or finite reals, read as floats by errors.as_finite
    (float mode only); anything else, or a key that is not an index pair,
    raises ValidationError.
    """

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        clean = {}
        for (i, j), v in _pair_table(entries, "pairing entries").items():
            if not isinstance(v, (int, Fraction)):
                v = as_finite(v, f"pairing entry ({i},{j})")
            if i == j:
                if v:
                    raise ValidationError("diagonal pairing entries must vanish")
                continue
            if i > j:
                i, j, v = j, i, -v
            if v:
                clean[(i, j)] = v
        object.__setattr__(self, "entries", _ReadOnlyDict(clean))

    def value(self, i, j):
        """E(i, j), antisymmetric in the arguments."""
        i, j = _labels((i, j))
        if i == j:
            return 0
        if i < j:
            return self.entries.get((i, j), 0)
        return -self.entries.get((j, i), 0)

    def matrix(self, generators):
        """Float matrix of E restricted to an ordered generator list; an entry
        past the float range raises ValidationError."""
        gens = _labels(generators)
        try:
            rows = [[float(self.value(p, q)) for q in gens] for p in gens]
        except OverflowError:
            raise ValidationError("pairing entries lie outside the float range") from None
        return np.array(rows).reshape(len(gens), len(gens))

    def is_weakly_nondegenerate(self, generators):
        """True iff E on the generators has full rank at relative cutoff 1e-10."""
        mat = self.matrix(generators)
        if mat.size == 0:
            return True
        rank = np.linalg.matrix_rank(mat, tol=1e-10 * max(1.0, abs(mat).max()))
        return rank == len(mat)

    def to_json(self):
        """{"pairing": [[i, j, E_ij], ...]} for i < j, in _json_scalar's form."""
        rows = [
            [i, j, str(Fraction(v)) if is_exact(v) else float(v)]
            for (i, j), v in sorted(self.entries.items())
        ]
        return json.dumps({"pairing": rows}, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        """Inverse of to_json: exact entries come back as Fractions, float
        ones as floats; a value in any other form raises ValidationError."""
        try:
            rows = json.loads(text)["pairing"]
            entries = {(i, j): _json_scalar(v, "pairing entry") for i, j, v in rows}
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"malformed pairing json: {exc!r}") from None
        return cls(entries)

    def __eq__(self, other):
        if not isinstance(other, PairingForm):
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"PairingForm({self.entries!r})"


_I = ExactComplex(0, 1)


def _mode_of(*values):
    # exact arithmetic when every value allows it, float otherwise
    return EXACT if all(map(is_exact, values)) else FLOAT


class OrderingKernel(_Frozen):
    """Reference contraction table for normal ordering.

    ``table`` maps ordered generator pairs (i, j) to kappa(i, j); missing
    entries read as zero, and entries that are not exact are float scalars,
    read by coerce's rule, as are exact ones that a float entry or pairing
    puts in float mode, and are stored read-only in ``entries``, which
    copies and pickles.  ``pairing`` is the ambient antisymmetric form E.
    The constructor enforces kappa(i, j) - kappa(j, i) = i E(i, j) on every
    pair seen in either structure, exactly for rational entries and to
    1e-12 otherwise.  quasifree.TwoPointKernel, the one subclass, carries
    the state's check instead, to 1e-10 of max(1, largest entry).
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
        object.__setattr__(self, "entries", _ReadOnlyDict(entries))
        object.__setattr__(self, "pairing", pairing)
        # the antisymmetric part, on every pair seen in either structure
        seen = {(min(p), max(p)) for p in entries if p[0] != p[1]}
        for (i, j) in sorted(seen.union(pairing.entries)):
            a, b, e = self.value(i, j), self.value(j, i), pairing.value(i, j)
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
        """kappa(i, j) as stored; absent, zero (a state kernel raises instead)."""
        return self._get(*_labels((i, j)))

    def _get(self, i, j):
        return self.entries.get((i, j), 0)

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
                raise ValidationError(f"symmetric part disagrees with itself at {key}")
            sym[key] = v
            sym[rkey] = v
        gens = sorted({g for pair in [*sym, *pairing.entries] for g in pair})
        half_i = _I * Fraction(1, 2)
        entries = {}
        for i, j in _cartesian(gens, repeat=2):
            s, e = sym.get((i, j), 0), pairing.value(i, j)
            mode = _mode_of(s, e)
            entries[(i, j)] = coerce(s, mode) + coerce(e, mode) * coerce(half_i, mode)
        return OrderingKernel(entries, pairing)  # not cls: a state kernel is built otherwise

    @classmethod
    def from_state_kernel(cls, kernel):
        """A quasifree.TwoPointKernel as it is: kappa = omega, E = 2 Im omega,
        and the state's check it passed when built.  This module cannot import
        quasifree, so the state kernel is known by its type: the one subclass."""
        if type(kernel) is OrderingKernel or not isinstance(kernel, OrderingKernel):
            raise ValidationError("from_state_kernel expects a quasifree.TwoPointKernel")
        return kernel

    def __repr__(self):
        return f"{type(self).__name__}({len(self.entries)} entries)"


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Concatenation product, bilinear over the stored terms."""
    if not isinstance(a, AlgebraElement) or not isinstance(b, AlgebraElement):
        raise ValidationError("multiply expects AlgebraElement operands")
    a._check_mode(b)
    out = {}
    for wa, ca in a.terms.items():
        for wb, cb in b.terms.items():
            w = wa + wb
            out[w] = out[w] + ca * cb if w in out else ca * cb
    return AlgebraElement._new(out, a.mode)


def star(a: AlgebraElement) -> AlgebraElement:
    """Involution: reverse every word, conjugate every coefficient."""
    if not isinstance(a, AlgebraElement):
        raise ValidationError("star expects an AlgebraElement")
    return AlgebraElement._new(
        {w[::-1]: c.conjugate() for w, c in a.terms.items()}, a.mode
    )


def _accumulate(table, key, value):
    if key in table:
        value = table[key] + value
    if value:
        table[key] = value
    else:
        table.pop(key, None)


def _contract(starts, weight, pool=False):
    """Sum over partial matchings, one letter at a time.

    ``starts`` yields (open, letters, coefficient), ``open`` a sorted word.
    Each letter g either contracts with one open letter l, at weight[(l,
    g)], or stays unmatched: it joins the open letters, or a closed pool
    that nothing contracts with when ``pool`` is true.  States with equal
    open and pooled letters are merged, so m open copies of l give one term
    of weight m * weight[(l, g)].  Returns {sorted unmatched word: coeff}.
    """
    out = {}
    for start, letters, coeff in starts:
        states = {(start, ()): coeff}
        for g in letters:
            grown = {}
            for (open_, closed), c in states.items():
                if pool:
                    _accumulate(grown, (open_, tuple(sorted(closed + (g,)))), c)
                else:
                    _accumulate(grown, (tuple(sorted(open_ + (g,))), closed), c)
                for i, l in enumerate(open_):
                    if i and open_[i - 1] == l:
                        continue
                    k = weight.get((l, g))
                    if k is not None:
                        m = open_.count(l)
                        term = c * k if m == 1 else c * k * m
                        _accumulate(grown, (open_[:i] + open_[i + 1 :], closed), term)
            states = grown
        for (open_, closed), c in states.items():
            _accumulate(out, tuple(sorted(open_ + closed)), c)
    return out


def normal_form(a: AlgebraElement, E: PairingForm) -> AlgebraElement:
    """Canonical representative with all words sorted non-decreasingly.

    Sorting a word is Wick's theorem for the ordering kernel kappa(l, g) =
    i E(l, g) for l > g, else 0: its antisymmetric part is (i/2)E, and its
    ordered monomial of a sorted word is the sorted plain product.  So a
    word is the sum over partial matchings of its slots of prod kappa(w_a,
    w_b) over the pairs a < b, times the sorted product of the unmatched
    letters.  E is read once, over the letters the element uses; exact
    elements need rational E entries there.
    """
    if not isinstance(a, AlgebraElement) or not isinstance(E, PairingForm):
        raise ValidationError("normal_form expects (AlgebraElement, PairingForm)")
    minus_i = coerce(ExactComplex(0, -1), a.mode)
    letters = {g for w in a.terms for g in w}
    pairs = [(i, j) for i in letters for j in letters if (i, j) in E.entries]
    weight = {(j, i): coerce(E.entries[(i, j)], a.mode) * minus_i for i, j in pairs}
    terms = _contract([((), w, c) for w, c in a.terms.items()], weight)
    return AlgebraElement._new(terms, a.mode)


def commutator(a: AlgebraElement, b: AlgebraElement, E: PairingForm) -> AlgebraElement:
    """normal_form(ab - ba, E)."""
    return normal_form(multiply(a, b) - multiply(b, a), E)


class InducedMap:
    """(Anti-)homomorphism phi(g_j) -> sum_i sigma[i, j] phi(g_i).

    parity "preserving" gives a linear *-homomorphism; "reversing" gives the
    anti-linear variant that conjugates scalars.  Word order is kept either
    way; only the coefficients see the difference.  sigma must carry E to
    +E (or -E) within 1e-9 times max(1, largest E entry).
    """

    def __init__(self, sigma, generators, E, parity):
        if not isinstance(E, PairingForm):
            raise ValidationError("InducedMap needs a PairingForm")
        gens = list(_labels(generators))
        n = len(gens)
        try:
            rows = [[coerce(x, FLOAT) for x in row] for row in sigma]
        except TypeError:
            raise ValidationError("sigma must be a matrix of numbers") from None
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValidationError("sigma must be square over the generator list")
        if not all(z.imag == 0 for row in rows for z in row):
            raise ValidationError("sigma entries must be real numbers")
        mat = np.array([[z.real for z in row] for row in rows])
        if parity not in ("preserving", "reversing"):
            raise ValidationError("parity must be 'preserving' or 'reversing'")
        Emat = E.matrix(gens)
        scale = abs(Emat).max(initial=1.0)
        with float_range("sigma^T E sigma"):
            transported = mat.T @ Emat @ mat
            if parity == "preserving":
                residual = abs(transported - Emat).max(initial=0.0)
            else:
                residual = abs(transported + Emat).max(initial=0.0)
        if not residual <= 1e-9 * scale:
            raise InvalidSymmetryError(
                f"sigma does not {parity.rstrip('ing')}e E: residual {residual:.3e}"
            )
        self.sigma = sigma
        self.generators = gens
        self.parity = parity
        self._column = {
            g: [(gens[i], row) for i, row in enumerate(col) if row]
            for g, col in zip(gens, (tuple(c) for c in zip(*sigma)))
        }

    def _image_of_generator(self, g, mode):
        if g not in self._column:
            raise ValidationError(f"generator {g} outside the map's span")
        return AlgebraElement(
            {(target,): coerce(entry, mode) for target, entry in self._column[g]}, mode
        )

    def __call__(self, a: AlgebraElement) -> AlgebraElement:
        if not isinstance(a, AlgebraElement):
            raise ValidationError("an InducedMap acts on AlgebraElements")
        out = AlgebraElement.zero(a.mode)
        for word, coeff in a.terms.items():
            if self.parity == "reversing":
                coeff = coeff.conjugate()
            piece = AlgebraElement({(): coeff}, a.mode)
            for g in word:
                piece = multiply(piece, self._image_of_generator(g, a.mode))
            out = out + piece
        return out


def simplicity_probe(a: AlgebraElement, probes, E: PairingForm):
    """Coefficient of the unit in [...[a, phi(u_1)], ..., phi(u_k)].

    probes is a list of generator-span vectors (dicts index -> coefficient)
    whose length must equal the top degree of a; multiples of the unit accept
    any probe list and give zero.
    """
    if not isinstance(a, AlgebraElement):
        raise ValidationError("simplicity_probe expects an AlgebraElement")
    try:
        probes = list(probes)
    except TypeError:
        raise ValidationError(f"probes must be a list of vectors, got {probes!r}") from None
    k = a.degree
    if k > 0 and len(probes) != k:
        raise ArityError(
            f"element of degree {k} needs exactly {k} probes, got {len(probes)}"
        )
    x = a
    for u in probes:
        x = commutator(x, AlgebraElement.from_vector(u, a.mode), E)
    return x.unit_coefficient()


def find_simplicity_witness(a: AlgebraElement, E: PairingForm, generators):
    """Search standard-basis probe tuples until the probe scalar is nonzero.

    Returns (probes, value) or None.  For weakly non-degenerate E and a not
    proportional to the unit this search succeeds on small generator sets;
    with degenerate E it may legitimately fail.
    """
    if not isinstance(a, AlgebraElement):
        raise ValidationError("find_simplicity_witness expects an AlgebraElement")
    gens = _labels(generators)
    k = a.degree
    if k == 0:
        return None
    for combo in _cartesian(gens, repeat=k):
        probes = [{g: 1} for g in combo]
        value = simplicity_probe(a, probes, E)
        if value:
            return probes, value
    return None


# ------------------------------------------------------ JSON scalar grammar

_RATIONAL = _re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _json_scalar(x, what):
    """A real scalar of "ccr-lab/1" JSON: a "p" or "p/q" string reads as a
    Fraction, a number (not a bool) as a float through errors.as_finite; any
    other form, "1e1000000" among them, raises ValidationError."""
    try:
        if isinstance(x, str) and _RATIONAL.fullmatch(x):
            return Fraction(x)
        if isinstance(x, (int, float)) and not isinstance(x, bool):
            return as_finite(x, what)
    except (ValidationError, ValueError, ZeroDivisionError):
        pass
    raise ValidationError(f"{what} {x!r} is not a listed scalar")


def _reduced_parts(z):
    """The real and imaginary parts of an ExactComplex, each as the
    (numerator, denominator) pair in lowest terms that its Fraction holds,
    read from the stored ints."""
    a, b, d = z._abd
    g, h = math.gcd(a, d), math.gcd(b, d)
    return (a // g, d // g), (b // h, d // h)


def _listed_parts(z):
    """[re, im] of an ExactComplex as its listing writes them, each the
    string str(Fraction) gives: "p", or "p/q" in lowest terms."""
    return [str(p) if q == 1 else f"{p}/{q}" for p, q in _reduced_parts(z)]


def _listed_value(re, im, mode):
    """A listed complex entry [re, im]: rationals in exact mode, numbers in
    float mode."""
    parts = _json_scalar(re, "listed part"), _json_scalar(im, "listed part")
    if all(isinstance(x, Fraction if mode == EXACT else float) for x in parts):
        return ExactComplex(*parts) if mode == EXACT else complex(*parts)
    raise ValidationError(f"listed entry {[re, im]!r} is not a listed {mode} value")


# ---------------------------------------------------------------- text form

def _format_scalar(c):
    if isinstance(c, ExactComplex):
        (p, q), (r, s) = _reduced_parts(c)
        return f"{p}/{q}+{r}/{s}*i"
    return f"{c.real!r}+{c.imag!r}*i"


_EXACT_COEFF = _re.compile(r"^(-?\d+)/(\d+)\+(-?\d+)/(\d+)\*i$")
_GEN = _re.compile(r"phi\((\d+)\)")
_WORD = _re.compile(r"(?:phi\(\d+\))+")


def element_to_text(a: AlgebraElement) -> str:
    """Canonical text form: sum of coeff*phi(i1)...phi(ik) terms.

    Terms are ordered by (word length, word); the unit term is a bare
    coefficient.  Exact coefficients print as p/q+r/s*i.
    """
    if not isinstance(a, AlgebraElement):
        raise ValidationError("element_to_text expects an AlgebraElement")
    if not a.terms:
        return "0"
    parts = []
    for word in sorted(a.terms, key=lambda w: (len(w), w)):
        coeff = _format_scalar(a.terms[word])
        if word:
            gens = "".join(f"phi({g})" for g in word)
            parts.append(f"{coeff}*{gens}")
        else:
            parts.append(coeff)
    return " + ".join(parts)


def _decimal(digits):
    """int of a digit string; past Python's conversion limit, ValidationError."""
    try:
        return int(digits)
    except ValueError:
        raise ValidationError(f"integer of {len(digits)} digits is too long") from None


def _parse_scalar(text, mode):
    m = _EXACT_COEFF.match(text)
    if m:
        p, q, r, s = map(_decimal, m.groups())
        if not (q and s):
            raise ValidationError(f"coefficient {text!r} has a zero denominator")
        return coerce(ExactComplex(Fraction(p, q), Fraction(r, s)), mode)
    if mode == EXACT:
        raise ValidationError(f"coefficient {text!r} is not in p/q+r/s*i form")
    pieces = _re.split(r"(?<![eE])\+", text)
    if len(pieces) != 2 or not pieces[1].endswith("*i"):
        raise ValidationError(f"cannot parse float coefficient {text!r}")
    try:
        return complex(float(pieces[0]), float(pieces[1][:-2]))
    except ValueError:
        raise ValidationError(f"cannot parse float coefficient {text!r}") from None


def element_from_text(text: str, mode=EXACT) -> AlgebraElement:
    """Inverse of element_to_text."""
    if not isinstance(text, str):
        raise ValidationError(f"element text must be a string, got {text!r}")
    text = text.strip()
    if text == "0":
        return AlgebraElement.zero(mode)
    terms = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if "*phi(" in chunk:
            coeff_text, _, word_text = chunk.partition("*phi(")
            word_text = "phi(" + word_text
            if not _WORD.fullmatch(word_text):
                raise ValidationError(f"malformed generator word {word_text!r}")
            word = tuple(map(_decimal, _GEN.findall(word_text)))
        else:
            coeff_text, word = chunk, ()
        coeff = _parse_scalar(coeff_text, mode)
        terms[word] = terms[word] + coeff if word in terms else coeff
    return AlgebraElement(terms, mode)
