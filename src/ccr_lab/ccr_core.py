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
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
import operator
import re as _re
from fractions import Fraction
from itertools import product as _cartesian

from .errors import (
    ArityError,
    InvalidSymmetryError,
    ScalarModeMismatchError,
    ValidationError,
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


class ExactComplex:
    """Complex number with Fraction real and imaginary parts.

    Immutable; arithmetic never rounds.  Parts that are not finite
    rationals raise ValidationError.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        try:
            parts = Fraction(re), Fraction(im)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"parts {re!r}, {im!r} are not finite rationals") from None
        object.__setattr__(self, "re", parts[0])
        object.__setattr__(self, "im", parts[1])

    @classmethod
    def _of(cls, re, im):
        # results of Fraction arithmetic are Fractions already; skip the
        # re-coercion __init__ would do
        z = object.__new__(cls)
        object.__setattr__(z, "re", re)
        object.__setattr__(z, "im", im)
        return z

    def __setattr__(self, name, value):
        raise AttributeError("ExactComplex is immutable")

    def __add__(self, other):
        other = coerce(other, EXACT)
        return ExactComplex._of(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = coerce(other, EXACT)
        return ExactComplex._of(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return coerce(other, EXACT) - self

    def __mul__(self, other):
        other = coerce(other, EXACT)
        return ExactComplex._of(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return ExactComplex._of(-self.re, -self.im)

    def conjugate(self):
        return ExactComplex._of(self.re, -self.im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ExactComplex(other)
        if not isinstance(other, ExactComplex):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"ExactComplex({self.re!r}, {self.im!r})"


_EXACT_TYPES = (ExactComplex, int, Fraction)


def is_exact(x):
    """True for the scalars exact mode accepts: ints, Fractions, ExactComplex."""
    return isinstance(x, _EXACT_TYPES)


def coerce(x, mode):
    """x as a scalar of the given mode: ExactComplex in exact mode, complex
    in float mode.

    Exact mode takes only exact scalars (see is_exact) and raises
    ScalarModeMismatchError for anything else, floats included; float mode
    takes any number, exact ones too.  Anything that is not a number raises
    ValidationError.
    """
    if mode == EXACT:
        if isinstance(x, ExactComplex):
            return x
        if is_exact(x):
            return ExactComplex(x)
        raise ScalarModeMismatchError(
            f"cannot use {type(x).__name__} in exact-mode arithmetic"
        )
    if not isinstance(x, str):
        try:
            return complex(x)
        except TypeError:
            pass
        except OverflowError:
            raise ValidationError("scalar is outside the float range") from None
    raise ValidationError(f"scalar {x!r} is not a number")


def _finite(x, mode):
    """coerce(x, mode), refusing a float-mode value that is not finite."""
    x = coerce(x, mode)
    if mode == FLOAT and not cmath.isfinite(x):
        raise ValidationError(f"scalar {x!r} is not finite")
    return x


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


class _WordCombination:
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
            coeff = _finite(coeff, mode)
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
        # mode, so only the zero coefficients are dropped; a float overflow
        # is refused
        terms = {w: c for w, c in terms.items() if c}
        if mode == FLOAT and not all(map(cmath.isfinite, terms.values())):
            raise ValidationError("a float coefficient overflows: it is not finite")
        out = object.__new__(cls)
        object.__setattr__(out, "terms", terms)
        object.__setattr__(out, "mode", mode)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

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
        c = _finite(c, self.mode)
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


class PairingForm:
    """Antisymmetric real pairing E on generator indices.

    Stored triangularly: entries[(i, j)] = E_ij for i < j.  Missing pairs are
    zero.  Entry values may be Fraction/int (usable in both scalar modes) or
    finite real floats (float mode only); anything else, or a key that is
    not an index pair, raises ValidationError.
    """

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        clean = {}
        for (i, j), v in _pair_table(entries, "pairing entries").items():
            if not isinstance(v, numbers.Real) or not (is_exact(v) or math.isfinite(v)):
                raise ValidationError(
                    f"pairing entry ({i},{j}) = {v!r} is not a finite real number"
                )
            if i == j:
                if v:
                    raise ValidationError("diagonal pairing entries must vanish")
                continue
            if i > j:
                i, j, v = j, i, -v
            if v:
                clean[(i, j)] = v
        object.__setattr__(self, "entries", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PairingForm is immutable")

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
        import numpy as np

        gens = _labels(generators)
        try:
            rows = [[float(self.value(p, q)) for q in gens] for p in gens]
        except OverflowError:
            raise ValidationError("pairing entries lie outside the float range") from None
        return np.array(rows).reshape(len(gens), len(gens))

    def is_weakly_nondegenerate(self, generators):
        """True iff E on the generators has full rank at relative cutoff 1e-10."""
        import numpy as np

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
        import numpy as np

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
        if not all(z.imag == 0 and math.isfinite(z.real) for row in rows for z in row):
            raise ValidationError("sigma entries must be finite real numbers")
        mat = np.array([[z.real for z in row] for row in rows])
        if parity not in ("preserving", "reversing"):
            raise ValidationError("parity must be 'preserving' or 'reversing'")
        Emat = E.matrix(gens)
        scale = abs(Emat).max(initial=1.0)
        with np.errstate(all="ignore"):  # an overflow to NaN fails the check below
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
    Fraction, a finite number (not a bool) as a float; any other form,
    "1e1000000" among them, raises ValidationError."""
    try:
        if isinstance(x, str) and _RATIONAL.fullmatch(x):
            return Fraction(x)
        if isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x):
            return float(x)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise ValidationError(f"{what} {x!r} is not a listed scalar")


def _listed_value(re, im, mode):
    """A listed complex entry [re, im]: rationals in exact mode, numbers in
    float mode."""
    parts = _json_scalar(re, "listed part"), _json_scalar(im, "listed part")
    if all(isinstance(x, Fraction if mode == EXACT else float) for x in parts):
        return ExactComplex._of(*parts) if mode == EXACT else complex(*parts)
    raise ValidationError(f"listed entry {[re, im]!r} is not a listed {mode} value")


# ---------------------------------------------------------------- text form

def _format_scalar(c):
    if isinstance(c, ExactComplex):
        re_, im_ = c.re, c.im
        return (
            f"{re_.numerator}/{re_.denominator}"
            f"+{im_.numerator}/{im_.denominator}*i"
        )
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
