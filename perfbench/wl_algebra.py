"""Workload `algebra`: exact CCR and Wick algebra plus the float-mode state
checks on six generators.

The exact half normal-forms and normal-orders plain words, unorders ordered
monomials, takes Wick products, maps a tensor through an ordering change and
round-trips tensors and elements through their JSON and text forms.  The
float half repeats the normal forms in float mode, certifies positivity of a
quasifree state on a degree <= 2 family, and evaluates the state on
unordered products, where omega(unorder(:A:)) must equal A's unit
coefficient because the ordering kernel is the state's own.  The float half
uses quasifree only on short words, so a change that speeds long moments but
slows short ones shows here.  A pass repeats all of this on DRAWS
independent draws of the inputs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ccr_lab.ccr_core import EXACT, FLOAT, AlgebraElement, ExactComplex
from ccr_lab.wick_hadamard import NormalOrderedElement, WickTensor
from oracles import (
    hermite_alpha_coeff,
    normal_order_oracle,
    random_pure_pair,
    unorder_oracle,
    wick_moment,
)

GENS = (1, 2, 3, 4, 5, 6)
ONE = ExactComplex(1)
# Exact-algebra cost varies by about +-15% between single draws (word
# compositions and fraction sizes), which is more than a run-to-run bound
# can absorb, so a pass covers several independent draws.
DRAWS = 4


@dataclass(frozen=True)
class Inputs:
    pairing: dict  # (i, j) -> Fraction, i < j
    sym: dict  # symmetric part of the exact ordering kernel
    sym2: dict  # a second kernel, the target of the ordering change
    words: tuple  # plain words, normal-formed and normal-ordered
    nwords: tuple  # sorted words, unordered
    wick_pairs: tuple  # pairs of sorted words, Wick-multiplied
    alpha_word: tuple
    two_point: dict  # float state kernel mu + (i/2) tau
    family: tuple  # float elements, each {word: coefficient}
    ordered: tuple  # float ordered elements, each {sorted word: coefficient}


def _fraction(rng):
    num = int(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Fraction(num, int(rng.integers(1, 5)))


def _word(rng, n):
    return tuple(int(g) for g in rng.choice(GENS, size=n))


def _coeff(rng):
    return complex(rng.normal(), rng.normal())


def build(rng, reduced=False):
    """Seeded inputs: DRAWS independent draws, one when `reduced` (the
    warm-up and smoke size)."""
    return tuple(_draw(rng, reduced) for _ in range(1 if reduced else DRAWS))


def _draw(rng, reduced):
    pairing = {(i, j): _fraction(rng) for i in GENS for j in GENS if i < j}
    sym = {(i, j): ExactComplex(_fraction(rng), 0 if i == j else _fraction(rng))
           for i in GENS for j in GENS if i <= j}
    sym2 = {(i, j): ExactComplex(_fraction(rng)) for i in GENS for j in GENS if i <= j}
    word_lengths = (3, 4) if reduced else (6, 7, 8)
    nword_lengths = (3,) if reduced else (6, 8)
    wick_degrees = ((2, 2),) if reduced else ((4, 4), (3, 4))
    words = tuple(_word(rng, n) for n in word_lengths)
    nwords = tuple(tuple(sorted(_word(rng, n))) for n in nword_lengths)
    wick_pairs = tuple(
        (tuple(sorted(_word(rng, a))), tuple(sorted(_word(rng, b)))) for a, b in wick_degrees
    )
    alpha_word = tuple(sorted(_word(rng, 2 if reduced else 4)))

    mu, tau = random_pure_pair(rng, len(GENS) // 2)
    K = mu + 0.5j * tau
    two_point = {(i, j): complex(K[i - 1, j - 1]) for i in GENS for j in GENS}
    n_quadratic = 2 if reduced else 25
    family = [{(): 1.0}] + [{(g,): 1.0} for g in GENS]
    for _ in range(n_quadratic):
        a, b = _word(rng, 2)
        family.append({(a, b): _coeff(rng), (a,): _coeff(rng), (): _coeff(rng)})
    ordered_degrees = (2,) if reduced else (2, 4, 6, 6, 8, 8)
    ordered = tuple(
        {tuple(sorted(_word(rng, n))): _coeff(rng),
         tuple(sorted(_word(rng, n - 2))): _coeff(rng),
         (): _coeff(rng)}
        for n in ordered_degrees
    )
    return Inputs(pairing, sym, sym2, words, nwords, wick_pairs, alpha_word,
                  two_point, tuple(family), ordered)


# ------------------------------------------------------------------ oracle

def _kappa(inp):
    """Exact kappa(i, j) = sym(i, j) + (i/2) E(i, j), from the inputs alone."""
    def value(i, j):
        s = inp.sym[(min(i, j), max(i, j))]
        if i == j:
            return s
        e = inp.pairing[(i, j)] if i < j else -inp.pairing[(j, i)]
        return s + ExactComplex(0, e / 2)
    return value


def _add(table, word, c):
    table[word] = table[word] + c if word in table else c


def _clean(table):
    return {w: c for w, c in table.items() if c}


def _sorted_form(word, kappa):
    # plain word -> ordered monomials -> plain sorted words; unorder_oracle
    # keeps the letters of a sorted word in order, so the result is sorted
    out = {}
    for nword, c in normal_order_oracle(word, kappa, ONE).items():
        for w, d in unorder_oracle(nword, kappa, ONE).items():
            _add(out, w, c * d)
    return _clean(out)


def _wick_oracle(a, b, kappa):
    out = {}
    for wa, ca in unorder_oracle(a, kappa, ONE).items():
        for wb, cb in unorder_oracle(b, kappa, ONE).items():
            for w, c in normal_order_oracle(wa + wb, kappa, ONE).items():
                _add(out, w, ca * cb * c)
    return _clean(out)


def _difference(inp):
    # d = kappa_new - kappa_old on the basis, symmetric because both kernels
    # share the pairing; kappa_new is the exact kernel, kappa_old uses sym2
    size = len(GENS)
    d = np.empty((size, size), dtype=object)
    for p, i in enumerate(GENS):
        for q, j in enumerate(GENS):
            key = (min(i, j), max(i, j))
            d[p, q] = inp.sym[key] - inp.sym2[key]
    return d


def _alpha_oracle(inp):
    """Degree -> tensor entries of the ordering-change image, by explicit
    contraction loops times the pair-marking count n!/(k!(n-2k)!2^k)."""
    n = len(inp.alpha_word)
    pos = [GENS.index(g) for g in inp.alpha_word]
    weight = Fraction(1, len(set(itertools.permutations(pos))))
    tensor = {}
    for perm in set(itertools.permutations(pos)):
        tensor[perm] = ExactComplex(weight)
    d = _difference(inp)
    out = {}
    current = tensor
    for k in range(n // 2 + 1):
        coeff = ExactComplex(hermite_alpha_coeff(n, k))
        entries = {idx: v * coeff for idx, v in current.items() if v}
        if k == 0 or entries:
            out[n - 2 * k] = entries
        nxt = {}
        for idx, v in current.items():
            if len(idx) < 2:
                continue
            _add(nxt, idx[2:], d[idx[0], idx[1]] * v)
        current = nxt
    return out


def _omega_scale(terms, two_point):
    """Sum of |term| over every product of kernel values that
    omega(unorder(:A:)) adds up: the scale for its roundoff."""
    def kappa(i, j):
        return abs(two_point[(i, j)])
    total = 0.0
    for word, c in terms.items():
        for rest, d in unorder_oracle(word, kappa, 1.0).items():
            total += abs(c) * abs(d) * wick_moment(rest, kappa)
    return total


@dataclass(frozen=True)
class Oracle:
    normal_order: tuple
    normal_form: tuple
    normal_form_float: tuple
    unorder: tuple
    wick: tuple
    alpha: dict
    unit_coefficients: tuple
    omega_scales: tuple


def oracle(draws):
    return tuple(_draw_oracle(inp) for inp in draws)


def _draw_oracle(inp):
    kappa = _kappa(inp)
    forms = tuple(_sorted_form(w, kappa) for w in inp.words)
    return Oracle(
        normal_order=tuple(_clean(normal_order_oracle(w, kappa, ONE)) for w in inp.words),
        normal_form=forms,
        normal_form_float=tuple({w: complex(c) for w, c in f.items()} for f in forms),
        unorder=tuple(_clean(unorder_oracle(w, kappa, ONE)) for w in inp.nwords),
        wick=tuple(_wick_oracle(a, b, kappa) for a, b in inp.wick_pairs),
        alpha=_alpha_oracle(inp),
        unit_coefficients=tuple(complex(e.get((), 0.0)) for e in inp.ordered),
        omega_scales=tuple(_omega_scale(e, inp.two_point) for e in inp.ordered),
    )


# -------------------------------------------------------------------- pass

def run(lib, draws):
    return [_run_draw(lib, inp) for inp in draws]


def _run_draw(lib, inp):
    out = {}
    E = lib.PairingForm(inp.pairing)
    E_float = lib.PairingForm({k: float(v) for k, v in inp.pairing.items()})
    kappa = lib.ordering_kernel(inp.sym, E)
    kappa2 = lib.ordering_kernel(inp.sym2, E)

    ordered, forms, forms_float, texts = [], [], [], []
    for w in inp.words:
        ordered.append(lib.normal_order(AlgebraElement({w: 1}, EXACT), kappa))
        nf = lib.normal_form(AlgebraElement({w: 1}, EXACT), E)
        nf_float = lib.normal_form(AlgebraElement({w: 1}, FLOAT), E_float)
        forms.append(nf)
        forms_float.append(nf_float)
        for a in (nf, nf_float):
            texts.append((a, lib.element_from_text(lib.element_to_text(a), a.mode)))
    out["normal_order"] = ordered
    out["normal_form"] = forms
    out["normal_form_float"] = forms_float
    out["text_roundtrip"] = texts
    out["unorder"] = [
        lib.unorder(NormalOrderedElement.monomial(w), kappa) for w in inp.nwords
    ]
    out["wick"] = [
        lib.wick_product(NormalOrderedElement.monomial(a), NormalOrderedElement.monomial(b), kappa)
        for a, b in inp.wick_pairs
    ]
    d = lib.difference_kernel(kappa, kappa2, GENS)
    alpha = lib.alpha_map(d, lib.word_tensor(inp.alpha_word, GENS))
    out["alpha"] = alpha
    out["tensor_roundtrip"] = [
        (t, lib.tensor_from_json(lib.tensor_to_json(t))) for t in alpha.values()
    ]

    kernel = lib.TwoPointKernel(inp.two_point, generators=list(GENS))
    state = lib.QuasifreeState(kernel)
    family = [AlgebraElement(terms, FLOAT) for terms in inp.family]
    out["gram"] = lib.gram_positivity(state, family)
    state_kappa = lib.state_ordering_kernel(kernel)
    out["omega"] = [
        lib.evaluate(state, lib.unorder(NormalOrderedElement(terms, FLOAT), state_kappa))
        for terms in inp.ordered
    ]
    return out


def _tensor_entries(t):
    return {idx: t.array[idx] for idx in np.ndindex(*t.array.shape) if t.array[idx]}


def _aligned_coefficients(got, want):
    words = sorted(set(got.terms) | set(want))
    return [got.terms.get(w, 0.0) for w in words], [want.get(w, 0.0) for w in words]


def verify(outs, draws, oracles, check):
    for out, orc in zip(outs, oracles):
        _verify_draw(out, orc, check)


def _verify_draw(out, orc, check):
    for got, want in zip(out["normal_order"], orc.normal_order):
        check.equal("normal_order", got.terms, want)
    for got, want in zip(out["normal_form"], orc.normal_form):
        check.equal("normal_form.exact", got.terms, want)
    for got, want in zip(out["normal_form_float"], orc.normal_form_float):
        g, w = _aligned_coefficients(got, want)
        check.close("normal_form.float", g, w, tol=1e-12)
    for a, back in out["text_roundtrip"]:
        check.equal("element_text_roundtrip", back, a)
    for got, want in zip(out["unorder"], orc.unorder):
        check.equal("unorder", got.terms, want)
    for got, want in zip(out["wick"], orc.wick):
        check.equal("wick_product", got.terms, want)
    check.equal("alpha_map.degrees", set(out["alpha"]), set(orc.alpha))
    for n, t in out["alpha"].items():
        check.equal("alpha_map", _tensor_entries(t), orc.alpha.get(n))
    for t, back in out["tensor_roundtrip"]:
        check.ok("tensor_json_roundtrip", isinstance(back, WickTensor) and back == t)
    check.ok("gram_positivity.psd", out["gram"].psd)
    for got, want, scale in zip(out["omega"], orc.unit_coefficients, orc.omega_scales):
        check.close("omega_of_ordered", got, want, tol=1e-10, scale=scale)
