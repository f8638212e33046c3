"""Tests for ordering kernels, Wick expansion, ordering changes, and the
point-split stress tensor."""

from __future__ import annotations

import cmath
import copy
import functools
import itertools
import json
import math
import pickle
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccr_lab.ccr_core import (
    EXACT,
    FLOAT,
    AlgebraElement,
    ExactComplex,
    PairingForm,
    element_from_text,
    multiply,
    normal_form,
    simplicity_probe,
    star,
)
from ccr_lab import wick_hadamard
from ccr_lab.errors import (
    CcrLabError,
    DegreeGuardError,
    IncompleteKernelError,
    InvalidDifferenceError,
    InvalidSymmetryError,
    OrderingKernelInvalidError,
    ResolutionError,
    ScalarModeMismatchError,
    ValidationError,
)
from ccr_lab.minkowski_kernel import KernelParams
from ccr_lab.quasifree import QuasifreeState, TwoPointKernel, evaluate
from ccr_lab.wick_hadamard import (
    DifferenceKernel,
    NormalOrderedElement,
    OrderingKernel,
    TwoPointTable,
    WickTensor,
    alpha_map,
    element_to_tensors,
    normal_order,
    phi2_H_expectation,
    stress_energy,
    tensor_from_json,
    tensor_to_json,
    tensors_to_element,
    unorder,
    wick_product,
    word_tensor,
)

from oracles import (
    bose_energy_density_and_pressure,
    coincidence_remainder,
    hadamard_v_coefficients,
    hermite_alpha_coeff,
    normal_order_oracle,
    thermal_smooth_kernel,
    unorder_oracle,
)

GENS = (1, 2, 3, 4)
E4 = PairingForm(
    {
        (1, 2): Fraction(1),
        (1, 3): Fraction(1, 2),
        (2, 4): Fraction(-1, 3),
        (3, 4): Fraction(2),
    }
)


def exact(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


def gen(i):
    return AlgebraElement.generator(i, mode=EXACT)


ONE = ExactComplex(1)

# a fixed exact kernel used by the example tests
KAPPA = OrderingKernel.from_symmetric_part(
    {
        (1, 1): exact(1),
        (2, 2): exact(1, 0),
        (3, 3): exact(2),
        (4, 4): exact(1, 0),
        (1, 2): exact(1, 3),
        (1, 3): exact(-1, 2),
        (1, 4): exact(0),
        (2, 3): exact(Fraction(2, 3)),
        (2, 4): exact(0, 1),
        (3, 4): exact(Fraction(-1, 2), Fraction(1, 5)),
    },
    E4,
)


# ------------------------------------------------------------ strategies

fracs = st.fractions(min_value=-2, max_value=2, max_denominator=3)
scalars = st.builds(exact, fracs, fracs)
words6 = st.lists(st.integers(min_value=1, max_value=4), max_size=6).map(tuple)
words4 = st.lists(st.integers(min_value=1, max_value=4), max_size=4).map(tuple)
elements6 = st.dictionaries(words6, scalars, max_size=3).map(
    lambda terms: AlgebraElement(terms, mode=EXACT)
)


@st.composite
def exact_kernels(draw):
    table = {}
    for p, i in enumerate(GENS):
        for j in GENS[p:]:
            table[(i, j)] = ExactComplex(draw(fracs), draw(fracs))
    return OrderingKernel.from_symmetric_part(table, E4)


@st.composite
def difference_tables(draw, real_only=False):
    arr = np.empty((len(GENS), len(GENS)), dtype=object)
    for p in range(len(GENS)):
        for q in range(p, len(GENS)):
            v = ExactComplex(draw(fracs), 0 if real_only else draw(fracs))
            arr[p, q] = v
            arr[q, p] = v
    return DifferenceKernel(GENS, arr)


@st.composite
def float_kernels(draw):
    # a float symmetric part with E4's antisymmetric part: the E constraint
    # holds; entries below 1e-6 read as zero, so no product underflows
    reals = st.floats(min_value=-2, max_value=2).map(lambda x: x if abs(x) > 1e-6 else 0.0)
    table = {}
    for p, i in enumerate(GENS):
        for j in GENS[p:]:
            table[(i, j)] = complex(draw(reals), draw(reals))
    return OrderingKernel.from_symmetric_part(table, E4)


def kappa_fn(kernel, mode=EXACT):
    return lambda i, j: kernel.scalar(i, j, mode)


def abs_kappa_fn(kernel):
    return lambda i, j: abs(kernel.scalar(i, j, FLOAT))


def assert_close_to_oracle(got, want, scale):
    """Float terms against oracle terms, each within 1e-12 of the oracle's
    sum of absolute products for that word."""
    for w in set(got) | set(want):
        assert abs(got.get(w, 0) - want.get(w, 0)) <= 1e-12 * scale.get(w, 0.0), w


# --------------------------------------------------- ordering kernel type

def test_kernel_rejects_wrong_antisymmetric_part():
    # zero kernel cannot match a nonzero pairing form
    with pytest.raises(OrderingKernelInvalidError):
        OrderingKernel({}, E4)
    # float table with the wrong imaginary split
    with pytest.raises(OrderingKernelInvalidError):
        OrderingKernel({(1, 2): 0.3 + 0.2j, (2, 1): 0.3 - 0.2j}, PairingForm({(1, 2): 1.0}))


def test_kernel_refuses_tables_that_are_not_mappings():
    with pytest.raises(ValidationError):
        OrderingKernel(5, E4)
    with pytest.raises(ValidationError):
        OrderingKernel.from_symmetric_part(5, E4)


@pytest.mark.parametrize("key", [(1, 2, 3), (1,), 5, "ab"])
def test_kernel_tables_are_keyed_by_index_pairs(key):
    # a three-index key once built a kernel of E alone from the symmetric part
    with pytest.raises(ValidationError):
        OrderingKernel({key: 1}, E4)
    with pytest.raises(ValidationError):
        OrderingKernel.from_symmetric_part({key: 1}, E4)
    with pytest.raises(ValidationError):
        OrderingKernel.from_symmetric_part({(1, 2): 1}, 5)


def test_float_kernel_with_correct_split_passes():
    k = OrderingKernel(
        {(1, 2): 0.3 + 0.5j, (2, 1): 0.3 - 0.5j}, PairingForm({(1, 2): 1.0})
    )
    assert k.value(1, 2) == 0.3 + 0.5j


def test_from_symmetric_part_splits_exactly():
    val = KAPPA.value(1, 2)
    assert val - KAPPA.value(2, 1) == ExactComplex(0, Fraction(1))
    assert KAPPA.scalar(1, 2, EXACT) == exact(1, 3) + ExactComplex(0, Fraction(1, 2))


def test_from_state_kernel_wraps_quasifree_table():
    table = {
        (1, 1): 1.0,
        (2, 2): 1.0,
        (1, 2): 0.2 + 0.5j,
        (2, 1): 0.2 - 0.5j,
    }
    tp = TwoPointKernel(table)
    k = OrderingKernel.from_state_kernel(tp)
    assert k.value(1, 2) == 0.2 + 0.5j
    assert k.pairing.value(1, 2) == pytest.approx(1.0)


def test_from_state_kernel_carries_the_state_check():
    # a skew of 5e-11 in the real part is inside the state's bound, 1e-10 of
    # the largest entry, but outside the constructor's 1e-12 per pair
    table = {(1, 1): 1.0, (2, 2): 1.0, (1, 2): 0.5 + 0.25j, (2, 1): 0.5 + 5e-11 - 0.25j}
    tp = TwoPointKernel(table)
    QuasifreeState(tp)
    k = OrderingKernel.from_state_kernel(tp)
    assert k.entries == table
    assert k.pairing.value(1, 2) == 0.5
    with pytest.raises(OrderingKernelInvalidError):
        OrderingKernel(table, k.pairing)
    plain = OrderingKernel.from_symmetric_part({}, k.pairing)
    for junk in (5, None, table, plain, QuasifreeState(tp)):
        with pytest.raises(ValidationError):
            OrderingKernel.from_state_kernel(junk)


def _dyadic_state_kernel():
    # omega = S + (i/2) E with dyadic S and E, so Re omega and 2 Im omega are
    # read back exactly; omega(2, 4) and omega(4, 2) are stored zeros
    S = {(1, 1): 1.0, (2, 2): 0.75, (3, 3): 1.5, (4, 4): 1.0, (1, 2): 0.25, (1, 3): -0.125,
         (1, 4): 0.5, (2, 3): 0.375, (3, 4): -0.25}
    E = {(1, 2): 0.5, (1, 3): -0.25, (2, 3): 1.0, (3, 4): 0.75}
    table = {}
    for i, j in itertools.product(range(1, 5), repeat=2):
        s, e = S.get((min(i, j), max(i, j)), 0.0), E.get((i, j), -E.get((j, i), 0.0))
        table[(i, j)] = complex(s, e / 2)
    tp = TwoPointKernel(table)
    QuasifreeState(tp)
    sym = {key: v.real for key, v in tp.entries.items()}
    return tp, OrderingKernel.from_symmetric_part(sym, tp.pairing)


def test_a_state_kernel_is_its_own_ordering_kernel():
    tp, plain = _dyadic_state_kernel()
    assert issubclass(TwoPointKernel, OrderingKernel) and "OrderingKernel" in wick_hadamard.__all__
    assert OrderingKernel.from_state_kernel(tp) is tp
    assert repr(tp) == "TwoPointKernel(16 entries)"
    # the two kernels are equal exactly: the state's table without its
    # stored zeros, and the one pairing E = 2 Im omega
    assert tp.entries[(2, 4)] == tp.entries[(4, 2)] == 0
    assert {key: v for key, v in tp.entries.items() if v} == plain.entries
    assert plain.pairing is tp.pairing
    assert tp.pairing == PairingForm({(1, 2): 0.5, (1, 3): -0.25, (2, 3): 1.0, (3, 4): 0.75})
    # from_symmetric_part makes a plain kernel, whichever class it is read from
    assert type(TwoPointKernel.from_symmetric_part({}, tp.pairing)) is OrderingKernel


def test_ordering_against_a_state_kernel_reads_it_as_its_plain_twin():
    tp, plain = _dyadic_state_kernel()
    other = OrderingKernel.from_symmetric_part({(1, 1): 0.5, (2, 4): -0.25}, tp.pairing)
    words = [(2, 4), (4, 2, 4), (1, 2, 3, 4), (4, 3, 2, 1), (3, 1, 3, 2)]
    for w in words:
        a = AlgebraElement({w: 1.5 - 0.25j, (): 2.0}, FLOAT)
        assert normal_order(a, tp) == normal_order(a, plain)
        n = NormalOrderedElement({w: 0.5 + 0.5j}, FLOAT)
        assert unorder(n, tp) == unorder(n, plain)
        for v in words:
            m = NormalOrderedElement.monomial(v, FLOAT)
            assert wick_product(n, m, tp) == wick_product(n, m, plain)
    for basis in ([1, 2, 3, 4], [4, 2]):
        for pair in ((tp, other), (other, tp), (tp, tp)):
            twin = [plain if k is tp else k for k in pair]
            d, e = (DifferenceKernel.from_orderings(*ks, basis) for ks in (pair, twin))
            assert (d.basis, d.mode, d.entries) == (e.basis, e.mode, e.entries)
    # stored zeros contract to nothing, so an exact element whose letters
    # meet only those is ordered exactly; a float entry refuses exact mode
    zero_row = TwoPointKernel({(1, 1): 1.0, (1, 2): 0.0, (2, 1): 0.0, (2, 2): 0.0})
    assert unorder(NormalOrderedElement.monomial((2, 2)), zero_row) == AlgebraElement({(2, 2): 1})
    assert normal_order(AlgebraElement({(2, 2): 1}), zero_row).terms == {(2, 2): 1}
    with pytest.raises(ScalarModeMismatchError, match="exact-mode"):
        unorder(NormalOrderedElement.monomial((1, 2)), zero_row)


def test_a_state_kernel_refuses_a_label_outside_its_generators():
    # a plain kernel reads an absent pair as zero; a state kernel, even one
    # taken through from_state_kernel, raises IncompleteKernelError instead
    tp, plain = _dyadic_state_kernel()
    assert plain.value(5, 1) == plain.scalar(5, 5, FLOAT) == 0
    for read in (tp.value, lambda i, j: tp.scalar(i, j, FLOAT)):
        with pytest.raises(IncompleteKernelError, match=r"no entry for \(5, 1\)"):
            read(5, 1)
    with pytest.raises(IncompleteKernelError, match="no entry for"):
        DifferenceKernel.from_orderings(OrderingKernel.from_state_kernel(tp), plain, [1, 5])
    DifferenceKernel.from_orderings(plain, plain, [1, 5])


def test_symbolic_layer_refuses_foreign_kernels_and_words():
    n = NormalOrderedElement.monomial((1,))
    for call in (
        lambda: normal_order(gen(1), 5),
        lambda: unorder(n, "x"),
        lambda: wick_product(n, n, None),
        lambda: NormalOrderedElement.monomial(5),
    ):
        with pytest.raises(ValidationError):
            call()


def test_exact_elements_reject_float_kernel():
    k = OrderingKernel(
        {(1, 2): 0.25 + 0.5j, (2, 1): 0.25 - 0.5j}, PairingForm({(1, 2): 1.0})
    )
    with pytest.raises(ScalarModeMismatchError):
        normal_order(multiply(gen(1), gen(2)), k)
    with pytest.raises(ScalarModeMismatchError):
        unorder(NormalOrderedElement.monomial((1, 2)), k)
    f, g = NormalOrderedElement.monomial((1,)), NormalOrderedElement.monomial((2,))
    with pytest.raises(ScalarModeMismatchError):
        wick_product(f, g, k)


def test_kernel_is_immutable():
    with pytest.raises(AttributeError):
        KAPPA.entries = {}


# -------------------------------------------------- ordering and inverse

def test_pair_expansion_both_directions():
    k12 = KAPPA.scalar(1, 2, EXACT)
    ordered = normal_order(multiply(gen(1), gen(2)), KAPPA)
    assert ordered.terms == {(1, 2): ONE, (): k12}
    back = unorder(NormalOrderedElement.monomial((1, 2)), KAPPA)
    assert back == normal_form(
        multiply(gen(1), gen(2)) - AlgebraElement.unit(EXACT).scale(k12), E4
    )


def test_ordered_monomial_is_permutation_symmetric():
    # phi2 phi1 - kappa(2,1) and phi1 phi2 - kappa(1,2) are the same element
    k = KAPPA
    a = multiply(gen(2), gen(1)) - AlgebraElement.unit(EXACT).scale(
        k.scalar(2, 1, EXACT)
    )
    b = multiply(gen(1), gen(2)) - AlgebraElement.unit(EXACT).scale(
        k.scalar(1, 2, EXACT)
    )
    assert normal_form(a, E4) == normal_form(b, E4)
    assert unorder(NormalOrderedElement.monomial((1, 2)), k) == normal_form(a, E4)
    # both kinds share one word check: integer labels, none negative
    with pytest.raises(ValidationError):
        AlgebraElement({(1.7,): ONE}, EXACT)
    with pytest.raises(ValidationError):
        NormalOrderedElement({(-1,): ONE}, EXACT)


@given(words6, exact_kernels())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_normal_order_matches_matching_oracle(word, kernel):
    a = AlgebraElement({word: ONE}, EXACT)
    got = normal_order(a, kernel)
    assert got.terms == normal_order_oracle(word, kappa_fn(kernel), ONE)


@given(words6, exact_kernels())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_unorder_matches_inverse_oracle(word, kernel):
    sorted_word = tuple(sorted(word))
    got = unorder(NormalOrderedElement.monomial(sorted_word), kernel)
    raw = unorder_oracle(sorted_word, kappa_fn(kernel), ONE)
    expect = normal_form(AlgebraElement(raw, EXACT), kernel.pairing)
    assert got == expect


@given(elements6, exact_kernels())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_round_trip_from_algebra(a, kernel):
    noe = normal_order(a, kernel)
    assert unorder(noe, kernel) == normal_form(a, kernel.pairing)


@given(st.dictionaries(words6, scalars, max_size=3), exact_kernels())
@settings(max_examples=50, deadline=None, derandomize=True)
def test_round_trip_from_ordered_basis(terms, kernel):
    noe = NormalOrderedElement(terms, EXACT)
    assert normal_order(unorder(noe, kernel), kernel) == noe


@given(words6, float_kernels())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_float_normal_order_matches_matching_oracle(word, kernel):
    got = normal_order(AlgebraElement({word: 1.0}, FLOAT), kernel)
    want = normal_order_oracle(word, kappa_fn(kernel, FLOAT), 1.0)
    scale = normal_order_oracle(word, abs_kappa_fn(kernel), 1.0)
    assert_close_to_oracle(got.terms, want, scale)


@given(words6, float_kernels())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_float_unorder_matches_inverse_oracle(word, kernel):
    sorted_word = tuple(sorted(word))
    got = unorder(NormalOrderedElement({sorted_word: 1.0}, FLOAT), kernel)
    want = unorder_oracle(sorted_word, kappa_fn(kernel, FLOAT), 1.0)
    # same matchings as the inverse formula, every product counted positive
    scale = normal_order_oracle(sorted_word, abs_kappa_fn(kernel), 1.0)
    assert_close_to_oracle(got.terms, want, scale)


def test_degree_four_generating_expansion():
    """The order-4 coefficient of the exponential identity.

    exp(phi(t)) = exp(kappa(t,t)/2) :exp(phi(t)):, truncated at fourth
    order, gives phi(t)^4 = sum over k of 4!/(k! (4-2k)! 2^k)
    kappa(t,t)^k :phi(t)^(4-2k):, an expansion assembled here without the
    recursion under test.
    """
    t = {1: Fraction(1), 2: Fraction(-1, 2), 3: Fraction(1, 3), 4: Fraction(2)}
    lin = AlgebraElement.from_vector(
        {g: ExactComplex(v) for g, v in t.items()}, EXACT
    )
    a = multiply(multiply(lin, lin), multiply(lin, lin))
    got = normal_order(a, KAPPA)

    ktt = ExactComplex()
    for i in GENS:
        for j in GENS:
            ktt = ktt + KAPPA.scalar(i, j, EXACT) * ExactComplex(t[i] * t[j])
    expected = {}
    for k in range(3):
        n = 4 - 2 * k
        coeff = ExactComplex(hermite_alpha_coeff(4, k))
        for _ in range(k):
            coeff = coeff * ktt
        for combo in itertools.combinations_with_replacement(GENS, n):
            counts = Counter(combo)
            multinom = Fraction(
                math.factorial(n),
                math.prod(math.factorial(c) for c in counts.values()),
            )
            tprod = Fraction(1)
            for g in combo:
                tprod *= t[g]
            c = coeff * ExactComplex(multinom * tprod)
            if combo in expected:
                c = expected[combo] + c
            expected[combo] = c
    expected = {w: c for w, c in expected.items() if c}
    assert got.terms == expected


# ----------------------------------------------------------- wick product

def test_single_contraction_example():
    a = NormalOrderedElement.monomial((1,))
    b = NormalOrderedElement.monomial((2,))
    prod = wick_product(a, b, KAPPA)
    assert prod.terms == {(1, 2): ONE, (): KAPPA.scalar(1, 2, EXACT)}


def test_vacuum_expectation_of_product_is_kernel_value():
    # with the state's own kernel the scalar part is omega2(f, g) itself
    a = NormalOrderedElement.monomial((1,))
    b = NormalOrderedElement.monomial((3,))
    prod = wick_product(a, b, KAPPA)
    assert prod.unit_coefficient() == KAPPA.scalar(1, 3, EXACT)


def _cross_contraction_oracle(wa, wb, kappa, one=ONE):
    """Wick product of :wa: and :wb: by enumerating left-right matchings."""
    out = {}
    na, nb = len(wa), len(wb)
    for r in range(min(na, nb) + 1):
        for asub in itertools.combinations(range(na), r):
            for bsub in itertools.permutations(range(nb), r):
                coeff = one
                for s in range(r):
                    coeff = coeff * kappa(wa[asub[s]], wb[bsub[s]])
                rest = tuple(
                    sorted(
                        [wa[p] for p in range(na) if p not in asub]
                        + [wb[p] for p in range(nb) if p not in bsub]
                    )
                )
                if rest in out:
                    coeff = out[rest] + coeff
                out[rest] = coeff
    return {w: c for w, c in out.items() if c}


sorted_words4 = words4.map(lambda w: tuple(sorted(w)))


@given(sorted_words4, sorted_words4, exact_kernels())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_wick_product_matches_cross_contractions(wa, wb, kernel):
    # words up to the degree guard
    got = wick_product(
        NormalOrderedElement.monomial(wa),
        NormalOrderedElement.monomial(wb),
        kernel,
    )
    assert got.terms == _cross_contraction_oracle(wa, wb, kappa_fn(kernel))


@given(
    st.dictionaries(sorted_words4, scalars, min_size=2, max_size=3),
    st.dictionaries(sorted_words4, scalars, min_size=2, max_size=3),
    exact_kernels(),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_wick_product_is_bilinear(a_terms, b_terms, kernel):
    got = wick_product(
        NormalOrderedElement(a_terms, EXACT), NormalOrderedElement(b_terms, EXACT), kernel
    )
    want = {}
    for wa, ca in a_terms.items():
        for wb, cb in b_terms.items():
            for w, c in _cross_contraction_oracle(wa, wb, kappa_fn(kernel)).items():
                want[w] = want[w] + ca * cb * c if w in want else ca * cb * c
    assert got.terms == {w: c for w, c in want.items() if c}


@given(sorted_words4, sorted_words4, float_kernels())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_float_wick_product_matches_cross_contractions(wa, wb, kernel):
    a, b = (NormalOrderedElement({w: 1.0}, FLOAT) for w in (wa, wb))
    got = wick_product(a, b, kernel)
    want = _cross_contraction_oracle(wa, wb, kappa_fn(kernel, FLOAT), 1.0)
    scale = _cross_contraction_oracle(wa, wb, abs_kappa_fn(kernel), 1.0)
    assert_close_to_oracle(got.terms, want, scale)


@given(exact_kernels(), exact_kernels())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_commutator_is_kernel_independent(k1, k2):
    # both kernels share E4, so commutators must agree after unordering
    f = NormalOrderedElement.monomial((1,))
    g = NormalOrderedElement.monomial((2, 3))
    for kernel in (k1, k2):
        comm = wick_product(f, g, kernel) - wick_product(g, f, kernel)
        plain = unorder(comm, kernel)
        ref = normal_form(
            multiply(gen(1), multiply(gen(2), gen(3)))
            - multiply(multiply(gen(2), gen(3)), gen(1)),
            E4,
        )
        assert plain == ref


def test_degree_one_commutator_is_central():
    comm = wick_product(
        NormalOrderedElement.monomial((1,)),
        NormalOrderedElement.monomial((2,)),
        KAPPA,
    ) - wick_product(
        NormalOrderedElement.monomial((2,)),
        NormalOrderedElement.monomial((1,)),
        KAPPA,
    )
    assert comm.terms == {(): ExactComplex(0, Fraction(1))}


def test_wick_product_degree_guard():
    big = NormalOrderedElement.monomial((1, 1, 2, 2, 3))
    small = NormalOrderedElement.monomial((1,))
    with pytest.raises(DegreeGuardError):
        wick_product(big, small, KAPPA)


# ------------------------------------------------- the two element kinds


@pytest.mark.parametrize("kind", [AlgebraElement, NormalOrderedElement])
def test_element_kinds_share_one_contract(kind):
    a = kind({(1, 2): exact(1, 2), (3,): exact(-1)}, EXACT)
    b = kind({(2,): exact(Fraction(1, 3)), (): ONE}, EXACT)
    zero, one = kind.zero(EXACT), kind.unit(EXACT)
    assert not zero and zero.degree == 0
    assert one.terms == {(): ONE} and one.unit_coefficient() == ONE
    assert a.degree == 2 and a.coefficient((3,)) == exact(-1)
    assert a.coefficient((4,)) == exact(0)
    # scale, add and subtract round trips
    c = exact(2, -3)
    assert a.scale(c).scale(exact(Fraction(2, 13), Fraction(3, 13))) == a
    assert (a + b) - b == a and a + zero == a and a - a == zero and -(-a) == a
    # equal elements hash equally, whatever the term order
    same = kind({(3,): exact(-1), (1, 2): exact(1, 2)}, EXACT)
    assert same == a and hash(same) == hash(a)
    # modes never mix; float mode takes exact scalars, exact mode no floats
    floaty = kind({(1, 2): ONE}, FLOAT)
    assert floaty.terms == {(1, 2): 1 + 0j}
    with pytest.raises(ScalarModeMismatchError):
        a + floaty
    with pytest.raises(ScalarModeMismatchError):
        kind({(1,): 0.5}, EXACT)
    with pytest.raises(AttributeError):
        a.mode = FLOAT


def test_element_kinds_are_not_interchangeable():
    plain = AlgebraElement({(2, 1): ONE}, EXACT)
    ordered = NormalOrderedElement({(2, 1): ONE}, EXACT)
    assert plain.terms == {(2, 1): ONE} and ordered.terms == {(1, 2): ONE}
    assert AlgebraElement({(1, 2): ONE}, EXACT) != ordered
    assert ordered != AlgebraElement({(1, 2): ONE}, EXACT)
    with pytest.raises(TypeError):
        plain + ordered
    with pytest.raises(TypeError):
        ordered - plain
    with pytest.raises(ValidationError):
        normal_order(ordered, KAPPA)
    with pytest.raises(ValidationError):
        unorder(plain, KAPPA)
    with pytest.raises(ValidationError):
        wick_product(plain, ordered, KAPPA)
    # the plain-product entries refuse other kinds too, rather than leaking
    # AttributeError
    E = KAPPA.pairing
    for call in (
        lambda: normal_form(ordered, E),
        lambda: normal_form(5, E),
        lambda: normal_form(plain, 5),
        lambda: simplicity_probe(plain, [{1: 1}, {2: 1}], 5),
        lambda: star(ordered),
        lambda: star(5),
        lambda: multiply(plain, ordered),
    ):
        with pytest.raises(ValidationError):
            call()


_HALF_I_FLOAT = {(1, 2): 0.5j, (2, 1): -0.5j}
_BAD_ENTRY_TENSOR = json.dumps(
    {"kind": "wick-tensor", "degree": 1, "basis": [1, 2], "mode": "exact",
     "entries": [[[0], "a", "0"]]}
)


@pytest.mark.parametrize(
    "parse",
    [
        lambda: element_from_text("1/0+0/1*i"),
        lambda: element_from_text("x+y*i", mode=FLOAT),
        lambda: element_from_text("1/1+0/1*i*phi(1)junk"),
        lambda: PairingForm.from_json('{"x": []}'),
        lambda: PairingForm.from_json("[]"),
        lambda: PairingForm({(1, 2): math.nan}),
        lambda: tensor_from_json(_BAD_ENTRY_TENSOR),
        lambda: tensor_from_json("5"),
        lambda: OrderingKernel({**_HALF_I_FLOAT, (1, 1): math.nan}, PairingForm({(1, 2): 1.0})),
        lambda: OrderingKernel(
            {(1, 2): math.inf, (2, 1): math.inf}, PairingForm({(1, 2): 1.0})
        ),
        lambda: OrderingKernel({**_HALF_I_FLOAT, (1, 1): "x"}, PairingForm({(1, 2): 1.0})),
        # finite parts, a modulus past the float range: in an entry, and in
        # kappa(1, 2) - kappa(2, 1) - i E(1, 2)
        lambda: OrderingKernel(
            {(1, 2): complex(1.7e308, 1.7e308), (2, 1): complex(1.7e308, 1.7e308)},
            PairingForm({}),
        ),
        lambda: OrderingKernel({(1, 2): complex(1.2e308, 1.2e308)}, PairingForm({(1, 2): -5e307})),
    ],
    ids=[
        "zero-denominator", "float-text", "junk-word", "pairing-json-key", "pairing-json-list",
        "pairing-nan", "tensor-json-entry", "tensor-json-number", "ordering-kernel-nan",
        "ordering-kernel-inf", "ordering-kernel-string", "ordering-kernel-modulus",
        "ordering-kernel-difference-modulus",
    ],
)
def test_symbolic_parsers_raise_validation_errors(parse):
    with pytest.raises(ValidationError):
        parse()


def test_ordering_kernel_refuses_an_exact_entry_whose_float_modulus_overflows():
    # exact parts 1.5e308 are finite floats, but a float pairing puts the
    # check in float mode, where the entry's modulus is past the float range
    big = ExactComplex(Fraction(15 * 10**307), Fraction(15 * 10**307))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="float range"):
            OrderingKernel({(1, 2): big}, PairingForm({(1, 2): 0.5}))
        # against an exact pairing the same entry is checked exactly
        half_i = ExactComplex(0, Fraction(1, 2))
        kernel = OrderingKernel({(1, 2): big, (2, 1): big - half_i}, PairingForm({(1, 2): Fraction(1, 2)}))
        assert kernel.value(1, 2) == big


_HALF_I = ExactComplex(0, Fraction(1, 2))


@pytest.mark.parametrize(
    "table",
    [
        lambda: TwoPointKernel({(1, 1): 1.0, (2, 2): 1.0, (1, 2): 0.5j, (2, 1): -0.5j}),
        lambda: PairingForm({(1, 2): 1}),
        lambda: OrderingKernel({(1, 2): _HALF_I, (2, 1): -_HALF_I}, PairingForm({(1, 2): 1})),
    ],
    ids=["two-point-kernel", "pairing-form", "ordering-kernel"],
)
def test_value_reads_labels_as_integers(table):
    t = table()
    # numpy integers are labels; floats that truncate to a stored pair,
    # strings and None are not
    assert t.value(np.int64(1), np.int32(2)) == t.value(1, 2) != 0
    for i, j in ((1.5, 2.2), (1.0, 2), ("1", 2), (1, None)):
        with pytest.raises(ValidationError) as caught:
            t.value(i, j)
        assert caught.type is ValidationError


# ------------------------------------------------ tensors over the basis

def test_tensor_readers_name_what_they_refuse():
    # three refusals that only the property tests' random draws reached
    with pytest.raises(ValidationError, match="has non-numeric entries"):
        WickTensor([1], ["x"])
    with pytest.raises(ValidationError, match="generator 3 outside the basis"):
        element_to_tensors(NormalOrderedElement.monomial((1, 3)), [1, 2])
    listing = {"kind": "wick-tensor", "degree": 1, "basis": [1], "mode": FLOAT,
               "entries": [[[0], 1.0]]}
    with pytest.raises(ValidationError, match="malformed tensor json entry"):
        tensor_from_json(json.dumps(listing))


def test_wick_tensor_validation():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(InvalidSymmetryError):
        WickTensor(GENS, bad)
    with pytest.raises(ValidationError):
        WickTensor((1, 1, 2), np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        WickTensor(GENS, np.zeros((4, 3)))
    with pytest.raises(ValidationError):
        WickTensor(tuple(range(9)), np.zeros((9,)))
    with pytest.raises(ValidationError):
        WickTensor(GENS, np.zeros((4,) * 7))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_wick_tensor_refuses_non_finite_entries(bad):
    arr = np.zeros((4, 4), dtype=complex)
    arr[1, 1] = bad
    with pytest.raises(ValidationError):
        WickTensor(GENS, arr)
    arr[1, 1] = complex(0.0, bad)
    with pytest.raises(ValidationError):
        WickTensor(GENS, arr)


def test_wick_tensor_exact_symmetry_is_strict():
    arr = np.empty((4, 4), dtype=object)
    arr.fill(ExactComplex())
    arr[0, 1] = exact(1)
    with pytest.raises(InvalidSymmetryError):
        WickTensor(GENS, arr)


def test_difference_kernel_rejects_asymmetry_and_nonfinite():
    bad = np.zeros((4, 4), dtype=complex)
    bad[2, 0] = 1.0
    with pytest.raises(InvalidDifferenceError):
        DifferenceKernel(GENS, bad)
    nan = np.zeros((4, 4), dtype=complex)
    nan[1, 1] = complex("nan")
    with pytest.raises(InvalidDifferenceError):
        DifferenceKernel(GENS, nan)


@pytest.mark.parametrize(
    "cls, error", [(WickTensor, InvalidSymmetryError), (DifferenceKernel, InvalidDifferenceError)]
)
def test_tables_measure_asymmetry_against_their_own_largest_entry(cls, error):
    # 1e-12 of the largest entry with no floor at 1, so the 0.1 entry of a
    # small table is not dropped for its mirror, and no overflow at the
    # float's edge
    small = 1e-100 * np.array([[1.0, 0.5], [0.1, 1.0]])
    edge = np.array([[1.0, 1.7e308], [-1.7e308, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for arr in (small, edge):
            with pytest.raises(error):
                cls([1, 2], arr)
        for arr in (small + small.T, np.abs(edge)):
            assert np.array_equal(cls([1, 2], arr).array, arr)


def test_word_tensor_normalization():
    w = word_tensor((1, 1, 2), GENS)
    # entries 2!/3! = 1/3 on the three distinct permutations of (0,0,1)
    third = ExactComplex(Fraction(1, 3))
    assert w.array[0, 0, 1] == third
    assert w.array[0, 1, 0] == third
    assert w.array[1, 0, 0] == third
    assert w.array[0, 0, 0] == ExactComplex()
    assert tensors_to_element({3: w}).terms == {(1, 1, 2): ONE}


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_word_tensor_at_the_guards_round_trips(mode):
    # degree 6 over 8 labels, both guards at their limit
    basis = tuple(range(1, 9))
    for word in [(1, 2, 3, 4, 5, 6), (2, 2, 5, 7, 8, 8)]:
        w = word_tensor(word, basis, mode)
        assert w.degree == 6 and w.array.shape == (8,) * 6
        assert tensors_to_element([w]) == NormalOrderedElement.monomial(word, mode)
        assert tensor_from_json(tensor_to_json(w)) == w
    with pytest.raises(ValidationError):
        word_tensor((1, 2), tuple(range(9)), mode)
    with pytest.raises(ValidationError):
        word_tensor((1, 2), (1, 2, 2), mode)


@given(st.dictionaries(words4, scalars, max_size=3))
@settings(max_examples=50, deadline=None, derandomize=True)
def test_tensor_element_round_trip(terms):
    noe = NormalOrderedElement(terms, EXACT)
    parts = element_to_tensors(noe, GENS)
    assert tensors_to_element(parts) == noe


def test_alpha_identity_up_to_degree_six():
    zero_d = DifferenceKernel(GENS, np.zeros((4, 4)))
    zero_exact = DifferenceKernel(
        GENS, np.array([[exact(0)] * 4] * 4, dtype=object)
    )
    for n, word in enumerate([(), (1,), (1, 2), (1, 2, 2), (1, 2, 3, 4), (1,) * 5, (1, 2) * 3]):
        w = word_tensor(word, GENS)
        out = alpha_map(zero_exact, w)
        assert set(out) == {n}
        assert out[n] == w
    wf = word_tensor((1, 2), GENS, mode=FLOAT)
    out = alpha_map(zero_d, wf)
    assert set(out) == {2}
    assert out[2] == wf


def test_alpha_pair_example():
    # n = 2, t = f (x) f: the image is W2 plus <d, f(x)f> times the unit
    f = [Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(3)]
    arr = np.empty((4, 4), dtype=object)
    for p in range(4):
        for q in range(4):
            arr[p, q] = ExactComplex(f[p] * f[q])
    w = WickTensor(GENS, arr)
    d = DifferenceKernel(
        GENS,
        np.array(
            [[exact(Fraction(1, 2) * (p + q), (p * q) % 2) for q in range(4)] for p in range(4)],
            dtype=object,
        ),
    )
    out = alpha_map(d, w)
    expect = ExactComplex()
    for p in range(4):
        for q in range(4):
            expect = expect + d.matrix[p, q] * arr[p, q]
    assert set(out) == {2, 0}
    assert out[2] == w
    assert complex(out[0].array[()]) == complex(expect)
    assert out[0].array[()] == expect


@given(difference_tables(), difference_tables(), words4, scalars)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_alpha_composition_law(d1, d2, word, c):
    w = word_tensor(word, GENS).scale(c)
    once = alpha_map(d1, w)
    composed = {}
    for part in once.values():
        for n, piece in alpha_map(d2, part).items():
            composed[n] = composed[n] + piece if n in composed else piece
    direct = alpha_map(d1 + d2, w)
    for n in set(composed) | set(direct):
        a = composed.get(n)
        b = direct.get(n)
        if a is None:
            assert b.is_zero()
        elif b is None:
            assert a.is_zero()
        else:
            assert a == b


def test_alpha_fully_contracted_coefficient_matches_double_contraction():
    # degree-4 monomial, scalar piece: 3 pair partitions of four slots
    word = (1, 2, 3, 4)
    w = word_tensor(word, GENS)
    d = DifferenceKernel(
        GENS,
        np.array(
            [[exact(Fraction(p + q + 1, 3)) for q in range(4)] for p in range(4)],
            dtype=object,
        ),
    )
    out = alpha_map(d, w)
    t = w.array
    scalar = ExactComplex()
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    scalar = scalar + d.matrix[i, j] * d.matrix[k, l] * t[i, j, k, l]
    assert out[0].array[()] == scalar * ExactComplex(hermite_alpha_coeff(4, 2))


def _alpha_contraction_oracle(d, t, mode, absolute=False):
    """Degree -> {index tuple: entry} of the ordering-change image of the
    array t, by contracting d into the leading slot pairs of every index
    tuple, times n!/(k! (n-2k)! 2^k).  With ``absolute`` every factor is
    replaced by its modulus, which gives the roundoff scale of each entry."""
    size = lambda v: abs(v) if absolute else v  # noqa: E731
    n = t.ndim
    out = {}
    for idx in np.ndindex(t.shape):
        v = size(t[idx])
        if not v:
            continue
        for k in range(n // 2 + 1):
            h = hermite_alpha_coeff(n, k)
            term = v * (ExactComplex(h) if mode == EXACT else float(h))
            for s in range(k):
                term = term * size(d[idx[2 * s], idx[2 * s + 1]])
            piece = out.setdefault(n - 2 * k, {})
            rest = idx[2 * k :]
            piece[rest] = piece[rest] + term if rest in piece else term
    out = {m: {i: v for i, v in piece.items() if v} for m, piece in out.items()}
    return {m: piece for m, piece in out.items() if piece}


ALPHA_SUMS = {
    "degree-4": {(1, 1, 2, 3): (1, 2), (2, 2, 4, 4): (-3, 0.5), (1, 2, 3, 4): (0.75, 0)},
    "degree-6": {
        (1, 1, 1, 2, 3, 4): (2, -1),
        (1, 2, 2, 3, 3, 4): (-0.5, 0.25),
        (2, 2, 4, 4, 4, 4): (1, 3),
    },
}


def _tensor_sum(words, mode):
    total = None
    for word, (re, im) in words.items():
        c = exact(Fraction(re), Fraction(im)) if mode == EXACT else complex(re, im)
        piece = word_tensor(word, GENS, mode).scale(c)
        total = piece if total is None else total + piece
    return total


def _difference(mode, support=GENS):
    # symmetric, nonzero only where both generators lie in `support`
    rows = []
    for p, i in enumerate(GENS):
        row = []
        for q, j in enumerate(GENS):
            v = exact(Fraction((p + 1) * (q + 1) % 5 - 2, 3), p + q - 3)
            if i not in support or j not in support:
                v = exact(0)
            row.append(v if mode == EXACT else complex(v))
        rows.append(row)
    dtype = object if mode == EXACT else complex
    return DifferenceKernel(GENS, np.array(rows, dtype=dtype))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("words", ALPHA_SUMS.values(), ids=ALPHA_SUMS.keys())
def test_alpha_of_word_sums_matches_contraction_oracle(words, mode):
    w = _tensor_sum(words, mode)
    d = _difference(mode)
    n = w.degree
    out = alpha_map(d, w)
    want = _alpha_contraction_oracle(d.matrix, w.array, mode)
    got = {m: {i: t.array[i] for i in np.ndindex(t.array.shape) if t.array[i]}
           for m, t in out.items()}
    assert out[n] == w
    assert set(got) == set(want) == {n, n - 2, n - 4, n - 6} - {-2}
    if mode == EXACT:
        assert got == want
        return
    scale = _alpha_contraction_oracle(d.matrix, w.array, mode, absolute=True)
    for m in want:
        assert_close_to_oracle(got[m], want[m], scale[m])


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_alpha_leaves_out_vanishing_pieces(mode):
    # d lives on generator 4 alone and the words never use it, so every
    # contraction vanishes; then on generators 1 and 2, which each degree-6
    # word uses at most three times, so at most one pair forms and the
    # pieces of degree 2 and 0 vanish
    w = _tensor_sum({(1, 1, 2, 3): (1, 2), (1, 2, 2, 3): (-3, 1)}, mode)
    assert alpha_map(_difference(mode, support=(4,)), w) == {4: w}
    w6 = _tensor_sum({(1, 2, 3, 3, 3, 3): (2, 1), (1, 1, 2, 3, 3, 3): (1, -1)}, mode)
    out = alpha_map(_difference(mode, support=(1, 2)), w6)
    assert set(out) == {6, 4} and out[6] == w6


@given(difference_tables(real_only=True), words4, scalars)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_alpha_commutes_with_star_for_real_difference(d, word, c):
    w = word_tensor(word, GENS).scale(c)
    starred = alpha_map(d, w.star())
    mapped = alpha_map(d, w)
    assert set(starred) == set(mapped)
    for n in mapped:
        assert starred[n] == mapped[n].star()


@given(exact_kernels(), exact_kernels(), words4)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_ordering_change_equals_alpha(k_old, k_new, word):
    sorted_word = tuple(sorted(word))
    noe = NormalOrderedElement.monomial(sorted_word)
    routed = normal_order(unorder(noe, k_old), k_new)
    d = DifferenceKernel.from_orderings(k_new, k_old, GENS)
    mapped = tensors_to_element(alpha_map(d, word_tensor(sorted_word, GENS)))
    assert routed == mapped


def test_tensor_json_round_trip():
    w = word_tensor((1, 2, 2), GENS).scale(exact(Fraction(3, 7), -1))
    back = tensor_from_json(tensor_to_json(w))
    assert back == w
    wf = word_tensor((1, 4), GENS, mode=FLOAT).scale(0.25 - 1.5j)
    backf = tensor_from_json(tensor_to_json(wf))
    assert backf.mode == FLOAT
    assert np.abs(backf.array - wf.array).max() == 0.0
    with pytest.raises(ValidationError):
        tensor_from_json("{not json")
    with pytest.raises(ValidationError):
        tensor_from_json("{}")


def test_float_scale_is_the_dense_product():
    # numpy's complex product can round unlike Python's in the last bit (here
    # on one entry of three): scale gives what the dense array times c gives
    t = _tensor_sum(ALPHA_SUMS["degree-4"], FLOAT)
    c = 0.3 - 1.1j
    assert np.array_equal(t.scale(c).array, t.array * c)


# the "ccr-lab/1" wick-tensor listing, pinned byte for byte: every index of
# each nonzero orbit, in lexicographic order
_EXACT_LISTING = (
    '{"basis": [1, 2, 3, 4], "degree": 3, "entries": [[[0, 1, 1], "1/7", "-1/3"], '
    '[[1, 0, 1], "1/7", "-1/3"], [[1, 1, 0], "1/7", "-1/3"]], "kind": "wick-tensor", '
    '"mode": "exact", "schema": "ccr-lab/1"}'
)
_FLOAT_LISTING = (
    '{"basis": [1, 2, 3, 4], "degree": 3, "entries": [[[1, 3, 3], 0.08333333333333333, -0.5], '
    '[[3, 1, 3], 0.08333333333333333, -0.5], [[3, 3, 1], 0.08333333333333333, -0.5]], '
    '"kind": "wick-tensor", "mode": "float", "schema": "ccr-lab/1"}'
)


def test_tensor_json_listing_is_pinned():
    w = word_tensor((2, 1, 2), GENS).scale(exact(Fraction(3, 7), -1))
    wf = word_tensor((4, 2, 4), GENS, FLOAT).scale(0.25 - 1.5j)
    assert tensor_to_json(w) == _EXACT_LISTING
    assert tensor_to_json(wf) == _FLOAT_LISTING
    assert tensor_from_json(_EXACT_LISTING) == w
    assert tensor_from_json(_FLOAT_LISTING) == wf
    assert w.entries == {(0, 1, 1): exact(Fraction(1, 7), Fraction(-1, 3))}


@pytest.mark.parametrize(
    "re, im",
    [(0, 1), (Fraction(-6, 3), 0), (Fraction(5, 10), -7), (Fraction(-22, 7), Fraction(3, 14))],
)
def test_exact_listing_prints_each_part_as_its_fraction(re, im):
    # the parts are printed from the stored ints, as str(Fraction) would:
    # "p" for a whole number, zero included, else "p/q" in lowest terms
    w = word_tensor((2, 1, 2), GENS).scale(exact(re, im))
    (v,) = w.entries.values()
    rows = json.loads(tensor_to_json(w))["entries"]
    assert len(rows) == 3 and all(row[1:] == [str(v.re), str(v.im)] for row in rows)
    assert tensor_from_json(tensor_to_json(w)) == w


def _listing_with(text, row, value):
    data = json.loads(text)
    data["entries"][row][1] = value
    return json.dumps(data)


def test_tensor_json_orbits_must_be_whole_and_agree():
    # a float orbit entry off by less than 1e-12 of the listing's largest
    # entry is read, and the entry at the sorted index is the one kept; one
    # off by more is refused, at any scale
    for size in (1e-100, 1.0, 1e6):
        wf = word_tensor((4, 2, 4), GENS, FLOAT).scale(size * (0.25 - 1.5j))
        text, (v,) = tensor_to_json(wf), wf.entries.values()
        tol = 1e-12 * abs(v)
        assert tensor_from_json(_listing_with(text, 2, v.real + 0.5 * tol)) == wf
        with pytest.raises(InvalidSymmetryError):
            tensor_from_json(_listing_with(text, 2, v.real + 2 * tol))
    # orbit (0, 1) of a small listing reads 1e-14 and 5e-13: they disagree at
    # their own scale, and 5e-13 is not dropped
    small = {"kind": "wick-tensor", "degree": 2, "basis": [1, 2], "mode": FLOAT,
             "entries": [[[0, 1], 1e-14, 0.0], [[1, 0], 5e-13, 0.0]]}
    with pytest.raises(InvalidSymmetryError):
        tensor_from_json(json.dumps(small))
    with pytest.raises(InvalidSymmetryError):
        tensor_from_json(_listing_with(_EXACT_LISTING, 1, "2/7"))
    for text in (_EXACT_LISTING, _FLOAT_LISTING):
        data = json.loads(text)
        del data["entries"][1]
        with pytest.raises(InvalidSymmetryError):
            tensor_from_json(json.dumps(data))


def test_tensor_json_round_trips_at_the_float_edge():
    # modulus 1.697e308 is a float; finite parts whose modulus is past the
    # float range are refused, in the listing as in the array
    w = WickTensor([1], [complex(1.2e308, 1.2e308)])
    assert tensor_from_json(tensor_to_json(w)) == w
    text = tensor_to_json(w).replace("1.2e+308", "1.7e+308")
    assert text.count("1.7e+308") == 2
    with pytest.raises(ValidationError, match="float range"):
        tensor_from_json(text)


def _exact_parts(c):
    return ExactComplex(Fraction(c.real), Fraction(c.imag))


def _listing(c):
    return json.dumps({"kind": "wick-tensor", "degree": 1, "basis": [1], "mode": FLOAT,
                       "entries": [[[0], c.real, c.imag]]})


_UNIT_STATE = QuasifreeState(TwoPointKernel({(1, 1): 1.0}))

# every public entry of a float-mode Python scalar
_FLOAT_SCALAR_ENTRIES = {
    "element": lambda c: AlgebraElement({(1,): c}, FLOAT),
    "ordered-element": lambda c: NormalOrderedElement({(1,): c}, FLOAT),
    "element-scale": lambda c: AlgebraElement.generator(1, FLOAT).scale(c),
    "ordered-scale": lambda c: NormalOrderedElement.monomial((1,), FLOAT).scale(c),
    "element-sum": lambda c: (
        AlgebraElement({(1,): c.real}, FLOAT) + AlgebraElement({(1,): 1j * c.imag}, FLOAT)
    ),
    "element-text": lambda c: element_from_text(f"{c.real!r}+{c.imag!r}*i*phi(1)", FLOAT),
    "two-point-kernel": lambda c: TwoPointKernel(
        {(1, 1): 0, (2, 2): 0, (1, 2): c, (2, 1): c.conjugate()}
    ),
    "ordering-kernel": lambda c: OrderingKernel({(1, 2): c, (2, 1): c}, PairingForm({})),
    # an exact entry that the float pairing puts in float mode
    "ordering-kernel-exact-entry": lambda c: OrderingKernel(
        {(1, 2): _exact_parts(c), (2, 1): _exact_parts(c) - ExactComplex(0, Fraction(1, 2))},
        PairingForm({(1, 2): 0.5}),
    ),
    "tensor": lambda c: WickTensor([1], [c]),
    "tensor-json": lambda c: tensor_from_json(_listing(c)),
    "tensor-scale": lambda c: WickTensor([1], [1.0]).scale(c),
    "tensor-sum": lambda c: WickTensor([1], [c.real]) + WickTensor([1], [1j * c.imag]),
    "difference-kernel": lambda c: DifferenceKernel([1], [[c]]),
    "evaluate": lambda c: evaluate(_UNIT_STATE, AlgebraElement({(): _exact_parts(c)})),
}

@pytest.mark.parametrize("name", list(_FLOAT_SCALAR_ENTRIES))
def test_a_float_scalar_with_a_finite_modulus_is_admitted(name):
    # finite parts, modulus 1.697e308
    if name == "two-point-kernel":
        # the entry is admitted, but its pairing E = 2 Im omega = 2.4e308 is
        # not a float: such a table is no ordering kernel, and no state kernel
        with pytest.raises(ValidationError, match=r"pairing entry \(1,2\) must be a finite"):
            _FLOAT_SCALAR_ENTRIES[name](complex(1.2e308, 1.2e308))
        return
    _FLOAT_SCALAR_ENTRIES[name](complex(1.2e308, 1.2e308))


@pytest.mark.parametrize("name", list(_FLOAT_SCALAR_ENTRIES))
def test_a_float_scalar_whose_modulus_overflows_is_refused(name):
    # finite parts, modulus 2.4e308; evaluate's exact coefficient has parts
    # 1.5e308 and modulus 2.1e308
    c = complex(1.5e308, 1.5e308) if name == "evaluate" else complex(1.7e308, 1.7e308)
    with pytest.raises(ValidationError, match="float range"):
        _FLOAT_SCALAR_ENTRIES[name](c)


def _state_kernel_outside_the_constructor_bound():
    # the state's exchange check holds to 1e-10, the constructor's does not
    kernel = OrderingKernel.from_state_kernel(
        TwoPointKernel({(1, 1): 1.0, (2, 2): 1.0, (1, 2): 1e-11 + 0.5j, (2, 1): -0.5j})
    )
    with pytest.raises(OrderingKernelInvalidError):
        OrderingKernel(kernel.entries, kernel.pairing)
    return kernel


@pytest.mark.parametrize(
    "make",
    [
        lambda: ExactComplex(Fraction(1, 3), -2),
        lambda: AlgebraElement({(2, 1): exact(1, 1)}),
        lambda: AlgebraElement({(2, 1): 0.5j}, FLOAT),
        lambda: NormalOrderedElement({(1, 2): exact(0, 3)}),
        lambda: PairingForm({(1, 2): Fraction(1, 2), (2, 3): 0.25}),
        _state_kernel_outside_the_constructor_bound,
        lambda: word_tensor((1, 2), GENS),
        lambda: DifferenceKernel([1, 2], [[1.0, 2.0], [2.0, 0.5]]),
        lambda: TwoPointKernel({(1, 1): 2.0, (2, 2): 1.0, (1, 2): 0.5j, (2, 1): -0.5j}, [2, 1]),
        lambda: OrderingKernel.from_symmetric_part({(1, 2): 1}, PairingForm({(1, 2): 2})),
    ],
    ids=["scalar", "element", "float-element", "ordered-element", "pairing", "ordering-kernel",
         "tensor", "difference-kernel", "two-point-kernel", "plain-ordering-kernel"],
)
def test_immutable_values_copy_and_pickle_as_stored(make):
    value = make()
    if isinstance(value, WickTensor):
        value.array  # the cached dense array is not carried over
    cls, stored = value.__reduce__()[1]
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin.__reduce__()[1] == (cls, stored)
        if cls.__eq__ is not object.__eq__:
            assert twin == value
        if cls.__hash__ not in (None, object.__hash__):
            assert hash(twin) == hash(value)
        if isinstance(value, WickTensor):
            assert twin._array is None and np.array_equal(twin.array, value.array)
    for name in stored:
        with pytest.raises(AttributeError, match="immutable"):
            delattr(value, name)
        with pytest.raises(AttributeError, match="immutable"):
            setattr(value, name, None)
    assert value.__reduce__()[1] == (cls, stored)


@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_listing_is_admitted_exactly_when_its_dense_array_is(data):
    # a listing of every index of a float array, symmetric or with one entry
    # off by a relative 1e-13 to 1e-3, at scales up to the float's edge:
    # tensor_from_json reads it exactly when WickTensor reads the array, and
    # both keep the same entries
    n, degree = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    shape = (n,) * degree
    arr = rng.uniform(-1.0, 1.0, shape) + 1j * rng.uniform(-1.0, 1.0, shape)
    arr = arr * data.draw(st.sampled_from([1e-300, 1e-100, 1.0, 1e300, 1.7e308]))
    if data.draw(st.booleans()):
        # the entrywise maximum over slot orders is symmetric
        perms = itertools.permutations(range(degree))
        arr = functools.reduce(np.maximum, (np.transpose(arr, p) for p in perms))
    arr = np.array(arr)
    if data.draw(st.booleans()):
        idx = tuple(data.draw(st.integers(0, n - 1)) for _ in shape)
        arr[idx] *= 1.0 + data.draw(st.sampled_from([1e-13, 1e-12, 3e-12, 1e-3]))
    rows = [[list(idx), arr[idx].real, arr[idx].imag] for idx in np.ndindex(*shape)]
    text = json.dumps({"kind": "wick-tensor", "degree": degree,
                       "basis": list(range(1, n + 1)), "mode": FLOAT, "entries": rows})

    def read(f):
        try:
            return f()
        except InvalidSymmetryError:
            return None

    dense = read(lambda: WickTensor(range(1, n + 1), arr, FLOAT))
    assert read(lambda: tensor_from_json(text)) == dense


@pytest.mark.parametrize(
    "mode, value",
    [
        (EXACT, "1e1000000"), (EXACT, "1e3000000"), (EXACT, "1.5"), (EXACT, " 1"),
        (EXACT, "1/-2"), (EXACT, 1), (FLOAT, "0.5"), (FLOAT, True), (FLOAT, math.nan),
        (FLOAT, -math.inf), (FLOAT, None),
    ],
)
def test_tensor_json_reads_only_what_tensor_to_json_writes(mode, value):
    # exact entries are p or p/q integer strings, float entries JSON
    # numbers; a decimal exponent would make Fraction build a million-digit
    # integer, so it is refused before any conversion
    def listing(re):
        return json.dumps({"kind": "wick-tensor", "degree": 0, "basis": [1], "mode": mode,
                           "entries": [[[], re, "0" if mode == EXACT else 0.0]]})

    with pytest.raises(ValidationError, match="is not a listed"):
        tensor_from_json(listing(value))
    back = tensor_from_json(listing("-3/4" if mode == EXACT else -0.75))
    assert complex(back.entries[()]) == -0.75


def test_dense_array_is_built_once_and_read_only():
    t = word_tensor((1, 2, 2), GENS)
    d = _difference(FLOAT)
    assert t.array is t.array and d.matrix is d.array is d.matrix
    assert t.array[1, 0, 1] == ExactComplex(Fraction(1, 3))
    with pytest.raises(ValueError):
        t.array[0, 0, 0] = ExactComplex(1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: WickTensor(GENS, [[1, 2], [3]]),
        lambda: DifferenceKernel(GENS, [[1, 2], [3]]),
        lambda: element_to_tensors(5, GENS),
        lambda: tensors_to_element(5),
        lambda: tensors_to_element([5]),
        lambda: tensor_to_json(5),
        lambda: DifferenceKernel.from_orderings(5, 5, GENS),
        lambda: word_tensor((1, 2), GENS, mode="bogus"),
        lambda: tensor_from_json(_listing_with(_EXACT_LISTING, 0, "1/0")),
        lambda: WickTensor(GENS, np.full((4, 4), 1e200)).scale(1e200),
    ],
    ids=[
        "ragged-tensor", "ragged-difference", "element-to-tensors", "tensors-to-element",
        "tensors-to-element-item", "tensor-to-json", "from-orderings", "word-tensor-mode",
        "json-zero-denominator", "scale-overflow",
    ],
)
def test_tensor_layer_refuses_foreign_input(call):
    with pytest.raises(ValidationError):
        call()


def _listing_field(key, value, text=_EXACT_LISTING):
    data = json.loads(text)
    data[key] = value
    return json.dumps(data)


_OTHER_BASIS = (1, 2, 3, 5)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: OrderingKernel.from_symmetric_part({(1, 2): 1, (2, 1): 2}, E4),
            ValidationError,
            r"symmetric part disagrees with itself at \(2, 1\)",
        ),
        (
            lambda: word_tensor((1, 2), GENS) + word_tensor((1, 2), _OTHER_BASIS),
            ValidationError,
            "cannot combine coefficient tensors of different bases or ranks",
        ),
        (
            lambda: word_tensor((1,), GENS) - word_tensor((1, 2), GENS),
            ValidationError,
            "cannot combine coefficient tensors of different bases or ranks",
        ),
        (
            lambda: _difference(EXACT) - _difference(FLOAT),
            ScalarModeMismatchError,
            "cannot mix exact and float difference tables",
        ),
        (
            lambda: word_tensor((1,), GENS) + word_tensor((1,), GENS, FLOAT),
            ScalarModeMismatchError,
            "cannot mix exact and float coefficient tensors",
        ),
        (
            lambda: alpha_map(_difference(EXACT), word_tensor((1, 2), _OTHER_BASIS)),
            ValidationError,
            "difference table and tensor bases differ",
        ),
        (
            lambda: alpha_map(_difference(FLOAT), word_tensor((1, 2), GENS)),
            ScalarModeMismatchError,
            "cannot mix float difference with exact tensor",
        ),
        (
            lambda: word_tensor((1,) * 7, GENS),
            ValidationError,
            "word length 7 exceeds tensor degree guard 6",
        ),
        (
            lambda: tensors_to_element([word_tensor((1,), GENS), word_tensor((1,), GENS, FLOAT)]),
            ScalarModeMismatchError,
            "mixed scalar modes in tensor list",
        ),
        (
            lambda: tensor_from_json(_listing_field("kind", "difference")),
            ValidationError,
            "unexpected kind 'difference'",
        ),
        (
            lambda: tensor_from_json(_listing_field("mode", "complex")),
            ValidationError,
            "unknown scalar mode 'complex'",
        ),
        (
            lambda: tensor_from_json(_listing_field("degree", 7)),
            ValidationError,
            "degree 7 is outside the tensor guard",
        ),
        (
            lambda: tensor_from_json(_listing_field("entries", [[[0, 1, 4], "1", "0"]])),
            ValidationError,
            r"entry index \(0, 1, 4\) is out of range",
        ),
        (
            lambda: phi2_H_expectation(1.0),
            ValidationError,
            "phi2_H_expectation expects KernelParams",
        ),
        (
            lambda: TwoPointTable((np.arange(-1.0, 2.0),) * 4, np.ones((3, 3, 3, 3))),
            ValidationError,
            "each axis needs at least 4 samples",
        ),
        (
            lambda: TwoPointTable((np.arange(1.5, -2.0, -1.0),) * 4, np.ones((4, 4, 4, 4))),
            ValidationError,
            "axes must be strictly increasing",
        ),
    ],
    ids=[
        "symmetric-part-twice", "add-bases", "sub-ranks", "sub-modes", "add-modes",
        "alpha-bases", "alpha-modes", "word-degree", "resum-modes", "json-kind",
        "json-mode", "json-degree", "json-index", "phi2-params", "table-short-axis",
        "table-decreasing-axis",
    ],
)
def test_tensor_layer_refusals_name_their_cause(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_tensor_and_difference_subtraction_are_entrywise():
    a, b = _tensor_sum(ALPHA_SUMS["degree-4"], EXACT), word_tensor((1, 2, 3, 3), GENS)
    assert (a - b) + b == a
    assert (a - a).is_zero()
    d, e = _difference(FLOAT), _difference(FLOAT, support=(1, 2))
    assert np.array_equal((d - e).matrix, d.matrix - e.matrix)


def test_tables_defer_to_foreign_operands():
    t, d = word_tensor((1, 2), GENS), _difference(EXACT)
    for table, foreign in ((t, 1), (t, d), (d, t)):
        for op in (lambda x, y: x + y, lambda x, y: x - y):
            with pytest.raises(TypeError):
                op(table, foreign)
    assert WickTensor.__eq__(t, "t") is NotImplemented and t != "t"
    assert repr(KAPPA) == f"OrderingKernel({len(KAPPA.entries)} entries)"


def test_ordered_monomials_that_coincide_cancel_on_construction():
    # :phi1 phi2: and :phi2 phi1: are one ordered monomial
    noe = NormalOrderedElement({(1, 2): 1, (2, 1): -1, (3,): 2})
    assert noe.terms == {(3,): ONE * 2}
    assert not NormalOrderedElement({(2, 1): exact(0, 1), (1, 2): exact(0, -1)}, mode=EXACT)


def _kernel_with_pairing(e12):
    # one symmetric part, with E(1, 2) = e12
    symmetric = {(1, 1): 1, (1, 2): Fraction(1, 4)}
    return OrderingKernel.from_symmetric_part(symmetric, PairingForm({(1, 2): e12}))


def test_difference_of_kernels_with_different_pairings_is_refused():
    # unorder(:phi1 phi2:) is phi1 phi2 - i/2 under E(1, 2) = 1 and
    # phi1 phi2 - 3i/2 under E(1, 2) = 3, while the symmetric parts agree:
    # no symmetric difference table maps one ordering onto the other
    k1, k3 = _kernel_with_pairing(1), _kernel_with_pairing(3)
    noe = NormalOrderedElement.monomial((1, 2))
    assert unorder(noe, k1) != unorder(noe, k3)
    for new, old in ((k1, k3), (k3, k1)):
        with pytest.raises(
            OrderingKernelInvalidError, match=r"^the kernels' pairings differ at E\(1,2\): "
        ):
            DifferenceKernel.from_orderings(new, old, (1, 2))
    # float pairings are refused beyond 1e-12 of max(1, |E|), at any scale
    for e in (1.0, 1e6, 1e-6):
        far = _kernel_with_pairing(e + 3e-12 * max(1.0, e))
        with pytest.raises(OrderingKernelInvalidError):
            DifferenceKernel.from_orderings(_kernel_with_pairing(e), far, (1, 2))
    # a basis without the pair where the pairings differ is admitted
    assert DifferenceKernel.from_orderings(k1, k3, (1, 3)).entries == {}


def test_difference_of_kernels_with_equal_pairings_in_two_forms_is_accepted():
    # E(1, 2) = 1/3 exactly and as the nearest float: the same pairing
    exact_e, float_e = _kernel_with_pairing(Fraction(1, 3)), _kernel_with_pairing(1 / 3)
    for new, old in ((exact_e, float_e), (float_e, exact_e)):
        d = DifferenceKernel.from_orderings(new, old, (1, 2))
        assert d.mode == FLOAT
        assert np.abs(d.matrix).max() <= 1e-16
    for e in (1.0, 1e6, 1e-6):
        near = _kernel_with_pairing(e + 1e-13 * max(1.0, e))
        DifferenceKernel.from_orderings(near, _kernel_with_pairing(Fraction(e)), (1, 2))


# every name in __all__ but phi2_H_expectation (in the minkowski_kernel
# slice): the tensor layer fed strings, ragged and wrong-shape arrays, NaN and
# +-inf, and malformed JSON; the symbolic layer fed junk kernels, words and
# elements; the stress tensor fed kernels that raise, return junk or overflow
_TENSOR_NAMES = set(wick_hadamard.__all__) - {"phi2_H_expectation"}
_specials = st.sampled_from([math.nan, math.inf, -math.inf, complex(0, math.nan), 0.5, 2])
_junk_scalars = st.one_of(
    _specials, st.text(max_size=3), st.none(), st.integers(-3, 10), scalars
)


@st.composite
def _junk_arrays(draw):
    shape = draw(st.lists(st.integers(0, 4), max_size=4))
    size = math.prod(shape)
    if draw(st.booleans()):
        # symmetric over GENS, its one entry on the diagonal corner drawn
        arr = np.full((len(GENS),) * len(shape), draw(st.sampled_from([0, 1.5j, ONE])))
        arr = arr.astype(object)
        arr[(0,) * arr.ndim] = draw(_junk_scalars)
        if draw(st.booleans()):
            try:
                return arr.astype(complex)
            except (TypeError, ValueError):
                pass
        return arr
    values = draw(st.lists(_junk_scalars, min_size=size, max_size=size))
    arr = np.empty(size, dtype=object)
    arr[:] = values
    return arr.reshape(shape)


_junk = st.one_of(
    _junk_scalars,
    _junk_arrays(),
    st.just([[1, 2], [3]]),
    st.lists(st.integers(-2, 9), max_size=9),
    st.builds(word_tensor, words6, st.just(GENS)),
    st.just(_difference(EXACT)),
)
# over GENS: symmetric at the float's edge, asymmetric there (its
# differences overflow), and asymmetric at a small scale
_EDGE = np.full((len(GENS),) * 2, 1.7e308)
_edge_arrays = st.sampled_from(
    [_EDGE, _EDGE * (1.0 + 1.0j), np.triu(_EDGE) - np.tril(_EDGE, -1),
     1e-100 * (np.eye(len(GENS)) + np.tril(np.ones_like(_EDGE), -1))]
)
_arrays = st.one_of(st.just([[1, 2], [3]]), _junk_arrays(), _junk)
_bases = st.sampled_from(
    [GENS, GENS, GENS, (2, 1), tuple(range(9)), (1, 1), (1.5, 2), "ab", None, [[1, 2], [3]]]
)
_modes = st.sampled_from([EXACT, FLOAT, None, "bogus", 5])


def _mutated_listing(draw):
    data = json.loads(draw(st.sampled_from([_EXACT_LISTING, _FLOAT_LISTING])))
    key = draw(st.sampled_from(sorted(data)))
    values = st.one_of(
        st.none(), st.text(max_size=3), st.integers(-2, 12), st.just(10**400),
        st.sampled_from([math.nan, math.inf, 2.5, "1/0", [], [1, 2], list(range(9)), {"a": 1}]),
    )
    row, col = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    mutation = draw(st.sampled_from(["drop", "replace", "row", "cell", "index", "orbit"]))
    if mutation == "drop":
        del data[key]
    elif mutation == "replace":
        data[key] = draw(values)
    elif mutation == "row":
        data["entries"][row] = data["entries"][row][: draw(st.integers(0, 4))] + [0] * 2
    elif mutation == "cell":
        data["entries"][row][col] = draw(values)
    elif mutation == "index":
        data["entries"][row][0][col] = draw(st.one_of(values, st.integers(-9, 9)))
    else:
        del data["entries"][row]
    text = json.dumps(data)
    return draw(st.sampled_from([text, text[: len(text) // 2], json.dumps([text])]))


def _dense(cls, d):
    # junk, or an edge array over GENS; an admitted float table holds every
    # entry it was given to 1e-12 of the largest: none is dropped for its mirror
    edge = d(st.booleans())
    arr = d(_edge_arrays if edge else _arrays)
    t = cls(GENS if edge else d(_bases), arr, d(_modes))
    if t.mode == FLOAT:
        given = np.asarray(arr).astype(complex) / 4
        assert np.abs(t.array / 4 - given).max() <= 1e-12 * np.abs(given).max()
    return t


_TENSOR_CALLS = {
    "WickTensor": lambda d: _dense(WickTensor, d),
    "DifferenceKernel": lambda d: (
        _dense(DifferenceKernel, d)
        if d(st.booleans())
        else DifferenceKernel.from_orderings(d(st.one_of(_junk, st.just(KAPPA))), KAPPA, d(_bases))
    ),
    "alpha_map": lambda d: alpha_map(
        d(st.one_of(_junk, st.just(_difference(FLOAT)))),
        d(st.one_of(_junk, st.builds(word_tensor, words6, st.just(GENS), st.just(FLOAT)))),
    ),
    "word_tensor": lambda d: word_tensor(d(st.one_of(words6, _junk)), d(_bases), d(_modes)),
    "element_to_tensors": lambda d: element_to_tensors(
        d(st.one_of(_junk, st.builds(NormalOrderedElement, st.dictionaries(words6, scalars)))),
        d(_bases),
    ),
    "tensors_to_element": lambda d: tensors_to_element(
        d(st.one_of(_junk, st.lists(_junk, max_size=2)))
    ),
    "tensor_to_json": lambda d: tensor_to_json(d(_junk)),
    "tensor_from_json": lambda d: tensor_from_json(
        _mutated_listing(d) if d(st.booleans()) else d(st.one_of(st.text(max_size=8), _junk))
    ),
}


_FLOAT_KAPPA = OrderingKernel(
    {(1, 2): 0.25 + 0.5j, (2, 1): 0.25 - 0.5j}, PairingForm({(1, 2): 1.0})
)
_kernels = st.one_of(st.sampled_from([KAPPA, KAPPA, _FLOAT_KAPPA]), _junk)
_pair_keys = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(1, 4)), st.tuples(_junk_scalars, _junk_scalars),
    _junk_scalars,
)
_pair_tables = st.one_of(st.dictionaries(_pair_keys, _junk_scalars, max_size=3), _junk)
_pairings = st.one_of(st.just(E4), st.just(PairingForm({(1, 2): 1.0})), _junk)
_labels = st.one_of(st.integers(0, 5), _junk_scalars)
_elements = st.builds(
    AlgebraElement, st.dictionaries(st.one_of(words6, _junk_scalars), _junk_scalars, max_size=3),
    _modes,
)


def _ordering_kernel(draw):
    choice = draw(st.integers(0, 2))
    if choice == 0:
        k = OrderingKernel(draw(_pair_tables), draw(_pairings))
    elif choice == 1:
        k = OrderingKernel.from_symmetric_part(draw(_pair_tables), draw(_pairings))
    else:
        skew = draw(st.sampled_from([5e-11, 1e-9, 0.0]))
        table = {(1, 1): 1.0, (2, 2): 1.0, (1, 2): 0.5 + 0.25j, (2, 1): 0.5 + skew - 0.25j}
        k = OrderingKernel.from_state_kernel(
            TwoPointKernel(table) if draw(st.booleans()) else draw(_junk)
        )
    return k.scalar(draw(_labels), draw(_labels), draw(_modes))


def _ordered(draw, junk=True):
    if junk and draw(st.integers(0, 3)) == 0:
        return draw(_junk)
    if draw(st.booleans()):
        return NormalOrderedElement.monomial(draw(st.one_of(words6, _junk)), draw(_modes),
                                             draw(_junk_scalars))
    return NormalOrderedElement(draw(st.dictionaries(words6, scalars, max_size=2)),
                                draw(st.sampled_from([EXACT, EXACT, FLOAT])))


_AXIS = 0.1 * np.arange(-2, 3)
_EVEN = np.exp(-np.add.outer(np.add.outer(_AXIS**2, _AXIS**2), np.add.outer(_AXIS**2, _AXIS**2)))


def _table(draw):
    values = _EVEN.copy()
    values[2, 2, 2, 2] = draw(st.sampled_from([1.0, 1e308, math.nan, math.inf]))
    values = draw(st.one_of(st.just(values), st.just(values[1:]), _junk))
    table = TwoPointTable(draw(st.one_of(st.just((_AXIS,) * 4), _junk)), values)
    point = st.one_of(st.just(np.zeros(4)), st.just(np.full(4, 0.15)), st.just([5.0] * 4), _junk)
    return table(draw(point), draw(point))


_stress_kernels = st.sampled_from([
    lambda x, y: 0.75, lambda x, y: 1 / 0, lambda x, y: "a", lambda x, y: math.nan,
    lambda x, y: 1e308, lambda x, y: 1j, lambda x, y: float(np.exp(-np.sum((x - y) ** 2))),
    TwoPointTable((_AXIS,) * 4, _EVEN), None, 3.5,
])
_stress_numbers = st.one_of(
    st.sampled_from([1.0, 0.05, 0.3]),
    st.sampled_from([0.0, -1.0, 1e-170, 1e-320, 1e300, math.nan, math.inf, "x"]),
)


def _stress(draw):
    x = draw(st.one_of(st.just(np.zeros(4)), st.just(np.zeros(4)), _junk))
    return stress_energy(draw(_stress_kernels), x, *(draw(_stress_numbers) for _ in range(3)))


_TENSOR_CALLS.update({
    "OrderingKernel": _ordering_kernel,
    "NormalOrderedElement": lambda d: _ordered(d, junk=False),
    "normal_order": lambda d: normal_order(d(st.one_of(_elements, _junk)), d(_kernels)),
    "unorder": lambda d: unorder(_ordered(d), d(_kernels)),
    "wick_product": lambda d: wick_product(_ordered(d), _ordered(d), d(_kernels)),
    "TwoPointTable": _table,
    "StressEnergyResult": lambda d: _stress(d).tensor,
    "stress_energy": _stress,
})


def _float_values(t):
    # the float numbers a result holds; exact values are finite by construction
    if isinstance(t, wick_hadamard.StressEnergyResult):
        return [*t.tensor.flat, t.trace, t.kg_diagonal]
    if isinstance(t, (float, complex, np.ndarray)):
        return list(np.ravel(t))
    if isinstance(t, ExactComplex):
        return []
    assert t.mode in (EXACT, FLOAT), t
    values = (t.terms if isinstance(t, (NormalOrderedElement, AlgebraElement)) else t.entries)
    return list(values.values()) if t.mode == FLOAT else []


def test_tensor_property_calls_cover_the_tensor_names():
    assert set(_TENSOR_CALLS) == _TENSOR_NAMES


@pytest.mark.parametrize("name", sorted(_TENSOR_CALLS))
@given(data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_tensor_layer_raises_only_package_errors(name, data):
    # a call either raises one of the package's own errors, never a numpy or
    # builtin exception, or returns results in a known mode with finite entries
    try:
        out = _TENSOR_CALLS[name](data.draw)
    except CcrLabError:
        return
    for t in out.values() if isinstance(out, dict) else [out]:
        if not isinstance(t, str):
            assert all(map(cmath.isfinite, _float_values(t))), (name, t)


# --------------------------------------------------- coincidence limits

def test_phi2_vacuum_matches_coincidence_oracle():
    m = 1.3
    params = KernelParams(m=m, lam=1.0 / m)
    value = phi2_H_expectation(params)
    assert value == pytest.approx(coincidence_remainder(m, 1.0 / m), abs=1e-6)
    # translation invariance: the point argument does not change the vacuum value
    assert phi2_H_expectation(params, x=(3.0, -1.0, 0.5, 2.0)) == value


@pytest.mark.parametrize("order", range(0, 9))
def test_phi2_matches_coincidence_oracle_to_roundoff(order):
    # the value is the t = 0 term of the series of w, the same at every
    # order; an equal-time ladder extrapolated in r^2 missed it at order 0,
    # where w keeps a t log t term
    for m, lam_m in ((0.55, 0.6), (1.0, 1.0), (1.3, 1.85), (1.9, 1.7)):
        got = phi2_H_expectation(KernelParams(m=m, lam=lam_m / m, order=order))
        want = coincidence_remainder(m, lam_m / m)
        assert abs(got - want) <= 1e-12 * m * m / (16 * math.pi**2)


def test_phi2_lambda_shift():
    m = 1.0
    lam = 1.0 / m
    lam2 = 2.5 / m
    v0 = hadamard_v_coefficients(m, 0)[0]
    a = phi2_H_expectation(KernelParams(m=m, lam=lam))
    b = phi2_H_expectation(KernelParams(m=m, lam=lam2))
    predicted = -v0 * math.log(lam**2 / lam2**2)
    assert b - a == pytest.approx(predicted, abs=1e-10)


def test_phi2_smooth_perturbation_shifts_by_diagonal():
    params = KernelParams(m=2.0, lam=0.5)
    base = phi2_H_expectation(params)

    def s(x, y):
        dx = np.asarray(x) - np.asarray(y)
        mid = 0.5 * (np.asarray(x) + np.asarray(y))
        return math.exp(-float(dx @ dx)) * (0.3 + 0.1 * float(mid[1]))

    x = (0.7, -0.2, 1.1, 0.0)
    shifted = phi2_H_expectation(params, x=x, perturbation=s)
    assert shifted == pytest.approx(base + s(x, x), rel=1e-12)


def test_phi2_guards():
    with pytest.raises(ValidationError):
        phi2_H_expectation(KernelParams(m=0.0))
    with pytest.raises(ValidationError):
        phi2_H_expectation(KernelParams(m=1.0, eps=1e-3))
    with pytest.raises(ValidationError):
        phi2_H_expectation(KernelParams(m=1.0), x=(0.0, 0.0))
    for x in [(math.nan, 0.0, 0.0, 0.0), ("a", 0.0, 0.0, 0.0)]:
        with pytest.raises(ValidationError):
            phi2_H_expectation(KernelParams(m=1.0), x=x)


@pytest.mark.parametrize("perturbation", [lambda x, y: 1 / 0, lambda x, y: x[7], 5])
def test_phi2_refuses_a_perturbation_that_fails(perturbation):
    with pytest.raises(ValidationError, match="perturbation kernel fails"):
        phi2_H_expectation(KernelParams(m=1.0), None, perturbation)


# ------------------------------------------------- stress tensor, flat

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])


def test_constant_kernel_closed_form():
    c = 0.75
    m = 1.4
    res = stress_energy(lambda x, y: c, np.zeros(4), mass=m, xi=0.0)
    expect = -ETA * (5.0 * m * m * c / 6.0)
    assert np.abs(res.tensor - expect).max() < 1e-10
    # xi drops out when all derivatives vanish
    res_xi = stress_energy(lambda x, y: c, np.zeros(4), mass=m, xi=0.17)
    assert np.abs(res_xi.tensor - expect).max() < 1e-10
    assert res.kg_diagonal == pytest.approx(m * m * c, abs=1e-10)


def test_zero_kernel_gives_zero():
    res = stress_energy(lambda x, y: 0.0, np.zeros(4), mass=1.0)
    assert np.abs(res.tensor).max() == 0.0
    assert res.trace == 0.0


def test_gaussian_kernel_closed_form():
    # w = exp(-|x-y|^2) with all four components squared positively:
    # d_a d'_b w|_diag = 2 delta_ab, d_a d_b w|_diag = -2 delta_ab
    def w(x, y):
        d = np.asarray(x) - np.asarray(y)
        return float(np.exp(-(d @ d)))

    m = 1.0
    res = stress_energy(w, np.array([0.3, -0.1, 0.7, 0.0]), mass=m, xi=0.0, step=0.04)
    expect = 2.0 * np.eye(4) - ETA * (25.0 / 6.0)
    assert np.abs(res.tensor - expect).max() < 1e-6
    assert res.kg_diagonal == pytest.approx(5.0, abs=1e-6)
    assert res.trace == pytest.approx(-76.0 / 6.0, abs=1e-5)


def test_bose_integrals_reach_stefan_boltzmann():
    for beta in (1.0, 2.0):
        rho, p = bose_energy_density_and_pressure(beta, 0.0)
        assert rho == pytest.approx(math.pi**2 / (30.0 * beta**4), rel=1e-14)
        assert p == pytest.approx(rho / 3.0, rel=1e-14)


@pytest.mark.parametrize("beta, m", [(1.0, 0.5), (2.0, 1.3), (1.0, 0.0)])
def test_thermal_state_gives_the_bose_energy_density_and_pressure(beta, m):
    # the smooth part of the KMS kernel is a Klein-Gordon solution in each
    # slot, so at xi = 0 the tensor is the perfect fluid diag(rho, p, p, p)
    # of the Bose integrals (Stefan-Boltzmann at m = 0); at m > 0 the mass
    # term -g_ab m^2/2 is what makes T_00 rho and not rho - m^2 <phi^2>
    rho, p = bose_energy_density_and_pressure(beta, m)
    res = stress_energy(thermal_smooth_kernel(beta, m), np.zeros(4), mass=m, xi=0.0)
    assert res.tensor[0, 0] == pytest.approx(rho, rel=1e-6)
    for i in (1, 2, 3):
        assert res.tensor[i, i] == pytest.approx(p, rel=1e-6)
    assert np.abs(res.tensor - np.diag(np.diag(res.tensor))).max() <= 1e-6 * rho
    assert abs(res.trace - (3.0 * p - rho)) <= 1e-6 * rho
    assert abs(res.kg_diagonal) <= 1e-6 * rho


def test_translation_invariant_kernel_has_constant_tensor():
    def w(x, y):
        d = np.asarray(x) - np.asarray(y)
        q = float(d @ d)
        return math.exp(-q) + 0.2 * math.cos(d[0] + 0.5 * d[2])

    base = stress_energy(w, np.zeros(4), mass=1.0, xi=0.05)
    h = 0.11
    for a in range(4):
        for sign in (1.0, -1.0):
            x = np.zeros(4)
            x[a] = sign * h
            shifted = stress_energy(w, x, mass=1.0, xi=0.05)
            # rounding in (x+dx)-(x+dy) moves the last ulp, nothing more
            assert np.abs(shifted.tensor - base.tensor).max() < 1e-12
    # central-difference divergence of a near-constant field vanishes
    div = np.zeros(4)
    for b in range(4):
        for a in range(4):
            xp = np.zeros(4)
            xm = np.zeros(4)
            xp[a] = h
            xm[a] = -h
            da = (
                stress_energy(w, xp, mass=1.0, xi=0.05).tensor[a, b]
                - stress_energy(w, xm, mass=1.0, xi=0.05).tensor[a, b]
            ) / (2 * h)
            div[b] += ETA[a, a] * da
    assert np.abs(div).max() <= 1e-8


def test_symmetry_of_result():
    def w(x, y):
        d = np.asarray(x) - np.asarray(y)
        return float(np.exp(-(d @ d)) * (1.0 + 0.3 * d[1] * d[2]))

    res = stress_energy(w, np.zeros(4), mass=0.7, xi=0.21)
    assert np.array_equal(res.tensor, res.tensor.T)


def test_symmetric_kernel_is_evaluated_162_times():
    # per step size: the value, 4 both-x diagonals, 6 both-x pairs and the
    # 10 unordered mixed pairs, each derivative on 4 off-centre points
    calls = []

    def w(x, y):
        calls.append(1)
        d = np.asarray(x) - np.asarray(y)
        return float(np.exp(-(d @ d)))

    stress_energy(w, np.zeros(4), mass=1.0)
    assert len(calls) == 2 * (1 + 4 * (4 + 6 + 10)) == 162


def _gaussian_table(spacing=0.05, half=8):
    axis = spacing * np.arange(-half, half + 1)
    g = np.exp(-(axis**2))
    vals = np.einsum("a,b,c,d->abcd", g, g, g, g)
    return TwoPointTable((axis, axis, axis, axis), vals)


def test_table_interpolation_accuracy():
    table = _gaussian_table()
    x = np.array([0.013, -0.021, 0.034, 0.008])
    y = np.array([-0.011, 0.007, -0.019, 0.027])
    d = x - y
    exact_val = float(np.exp(-(d @ d)))
    # cubic windows in four axes: error ~ 4 * f'''' * h^4 / 24 ~ 1e-5
    assert table(x, y) == pytest.approx(exact_val, abs=2e-5)


def test_table_stress_matches_callable():
    table = _gaussian_table()

    def w(x, y):
        d = np.asarray(x) - np.asarray(y)
        return float(np.exp(-(d @ d)))

    res_t = stress_energy(table, np.zeros(4), mass=1.0, step=0.1)
    res_c = stress_energy(w, np.zeros(4), mass=1.0, step=0.1)
    assert np.abs(res_t.tensor - res_c.tensor).max() < 5e-3


def test_table_resolution_guard():
    table = _gaussian_table(spacing=0.05)
    with pytest.raises(ResolutionError):
        stress_energy(table, np.zeros(4), mass=1.0, step=0.05)


def test_table_validation():
    axis = 0.05 * np.arange(-8, 9)
    good = np.einsum(
        "a,b,c,d->abcd",
        np.exp(-(axis**2)),
        np.exp(-(axis**2)),
        np.exp(-(axis**2)),
        np.exp(-(axis**2)),
    )
    with pytest.raises(ValidationError):
        TwoPointTable((axis, axis, axis), good)
    with pytest.raises(ValidationError):
        TwoPointTable((axis, axis, axis, axis + 0.2), good)
    ragged = np.concatenate([axis[:4], axis[5:]])
    with pytest.raises(ValidationError):
        TwoPointTable((ragged, ragged, ragged, ragged), good[:16, :16, :16, :16])
    odd = good.copy()
    odd[3, 4, 5, 6] += 1.0
    with pytest.raises(ValidationError):
        TwoPointTable((axis, axis, axis, axis), odd)
    nan_axis = np.where(axis == 0.0, math.nan, axis)
    for bad_axes, bad_values in [
        ((["a"] * 17, axis, axis, axis), good),
        (([[0.0], [0.05, 0.1]], axis, axis, axis), good),
        ((nan_axis, axis, axis, axis), good),
        ((axis, axis, axis, axis), np.full(good.shape, "a")),
        ((axis, axis, axis, axis), [[0.0], [0.0, 1.0]]),
        (5, good),
    ]:
        with pytest.raises(ValidationError):
            TwoPointTable(bad_axes, bad_values)
    # not even at its own small scale
    rng = np.random.default_rng(3)
    with pytest.raises(ValidationError, match="not even"):
        TwoPointTable((axis,) * 4, 1e-20 * rng.random(good.shape))
    # an increasing axis whose steps leave the float range
    edge = np.array([-1.7e308, 1.6e308, 1.7e308, 1.75e308])
    with pytest.raises(ValidationError, match="float range"):
        TwoPointTable((edge,) * 4, np.zeros((4,) * 4))
    table = TwoPointTable((axis, axis, axis, axis), good)
    with pytest.raises(ValidationError):
        table(np.array([5.0, 0.0, 0.0, 0.0]), np.zeros(4))
    # points whose separation, or samples whose interpolation, leave it
    with pytest.raises(ValidationError, match="float range"):
        table(np.full(4, 1.7e308), np.full(4, -1.7e308))
    with pytest.raises(ValidationError):
        TwoPointTable((axis,) * 4, np.full(good.shape, 1.7e308))(np.full(4, 0.025), np.zeros(4))
    for point in ([math.nan, 0.0, 0.0, 0.0], ["a", 0.0, 0.0, 0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ValidationError):
            table(point, np.zeros(4))


def test_stress_argument_guards():
    with pytest.raises(ValidationError):
        stress_energy(lambda x, y: 0.0, np.zeros(3), mass=1.0)
    with pytest.raises(ValidationError):
        stress_energy(lambda x, y: 0.0, np.zeros(4), mass=-1.0)
    with pytest.raises(ValidationError):
        stress_energy(lambda x, y: 0.0, np.zeros(4), mass=1.0, step=0.0)
    with pytest.raises(ValidationError):
        stress_energy(3.5, np.zeros(4), mass=1.0)
    # a kernel that raises, returns junk or NaN, or overflows the stencil, and
    # a step whose square underflows or overflows
    for w in (lambda x, y: 1 / 0, lambda x, y: "a", lambda x, y: math.nan, lambda x, y: 1e308):
        with pytest.raises(ValidationError):
            stress_energy(w, np.zeros(4), mass=1.0)
    with pytest.raises(ValidationError):
        stress_energy(lambda x, y: 0.0, np.zeros(4), mass=1.0, step=1e-320)
    with pytest.raises(ValidationError):
        stress_energy(lambda x, y: 0.75, np.zeros(4), 1.0, 0.3, 1e300)
    for bad in (math.nan, math.inf, "x"):
        for kwargs in ({"mass": bad}, {"mass": 1.0, "xi": bad}, {"mass": 1.0, "step": bad}):
            with pytest.raises(ValidationError):
                stress_energy(lambda x, y: 0.0, np.zeros(4), **kwargs)
        with pytest.raises(ValidationError):
            stress_energy(lambda x, y: 0.0, [bad, 0.0, 0.0, 0.0], mass=1.0)
