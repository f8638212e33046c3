"""Tests for the symbolic commutation-relation algebra."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ccr_lab import ccr_core
from ccr_lab.ccr_core import (
    EXACT,
    FLOAT,
    AlgebraElement,
    ExactComplex,
    InducedMap,
    PairingForm,
    commutator,
    element_from_text,
    element_to_text,
    find_simplicity_witness,
    multiply,
    normal_form,
    simplicity_probe,
    star,
)
from ccr_lab.errors import (
    ArityError,
    CcrLabError,
    InvalidSymmetryError,
    ScalarModeMismatchError,
    ValidationError,
)
from ccr_lab.wick_hadamard import NormalOrderedElement

from oracles import normal_order_oracle

E12 = PairingForm({(1, 2): Fraction(1)})
E_TWO_BLOCKS = PairingForm({(1, 2): Fraction(1), (3, 4): Fraction(1)})


def exact(re, im=0):
    return ExactComplex(Fraction(re), Fraction(im))


def gen(i, mode=EXACT):
    return AlgebraElement.generator(i, mode=mode)


def word(*indices):
    return AlgebraElement({tuple(indices): exact(1)}, mode=EXACT)


# ------------------------------------------------------------ strategies

scalars = st.builds(
    exact,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
words = st.lists(st.integers(min_value=1, max_value=4), max_size=5).map(tuple)
elements = st.dictionaries(words, scalars, max_size=4).map(
    lambda terms: AlgebraElement(terms, mode=EXACT)
)


# ---------------------------------------------------------- ring basics

def test_unit_and_zero():
    one = AlgebraElement.unit(mode=EXACT)
    zero = AlgebraElement.zero(mode=EXACT)
    a = word(1, 2)
    assert multiply(one, a) == a
    assert multiply(a, one) == a
    assert a + zero == a
    assert a - a == zero
    assert not zero


def test_product_concatenates_words():
    a = word(2)
    b = word(1, 3)
    assert multiply(a, b) == word(2, 1, 3)


def test_scalar_action():
    a = word(1)
    assert a.scale(exact(0, 1)).terms == {(1,): exact(0, 1)}
    assert (a + a).terms == {(1,): exact(2)}


def test_mode_mismatch_rejected():
    a = gen(1, mode=EXACT)
    b = gen(1, mode=FLOAT)
    with pytest.raises(ScalarModeMismatchError):
        multiply(a, b)
    with pytest.raises(ScalarModeMismatchError):
        AlgebraElement({(1,): 0.5}, mode=EXACT)
    # normal_form reads E once over the element's letters, so a float entry
    # among them is refused even where no swap needs it
    E = PairingForm({(1, 2): 0.5})
    with pytest.raises(ScalarModeMismatchError):
        normal_form(word(1, 2), E)
    assert normal_form(word(1, 3), E) == word(1, 3)


fractions = st.fractions(min_value=-3, max_value=3, max_denominator=12)
# numerators up to 1e40 over denominators up to 1e20, next to the small
# fractions, whose sums often share a denominator
big_fractions = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**20))
rationals = st.one_of(fractions, big_fractions)
big_scalars = st.builds(exact, rationals, rationals)
exact_operands = st.one_of(
    scalars, big_scalars, st.integers(min_value=-5, max_value=5),
    st.integers(-10**40, 10**40), rationals,
)


def _or_overflow(f, *args):
    try:
        return f(*args)
    except OverflowError:
        return OverflowError


@given(rationals, rationals, exact_operands)
@example(Fraction(10**400, 3), Fraction(-1, 10**20), exact(Fraction(7, 10**20), 10**400))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_exact_arithmetic_is_fraction_arithmetic(re, im, other):
    # the operand may be an int or Fraction, coerced to ExactComplex
    z = ExactComplex(re, im)
    if isinstance(other, ExactComplex):
        o_re, o_im = other.re, other.im
    else:
        o_re, o_im = Fraction(other), Fraction(0)
    product = (re * o_re - im * o_im, re * o_im + im * o_re)
    cases = [
        (z, (re, im)),
        (z + other, (re + o_re, im + o_im)),
        (other + z, (re + o_re, im + o_im)),
        (z - other, (re - o_re, im - o_im)),
        (other - z, (o_re - re, o_im - im)),
        (z * other, product),
        (other * z, product),
        (-z, (-re, -im)),
        (z.conjugate(), (re, -im)),
    ]
    for got, want in cases:
        assert type(got) is ExactComplex
        assert type(got.re) is Fraction and type(got.im) is Fraction
        assert (got.re, got.im) == want
        # a value built from its parts is the same value: equal, same hash,
        # repr and text form, and complex() rounds each part as float() does
        built = ExactComplex(*want)
        assert got == built and hash(got) == hash(built) and repr(got) == repr(built)
        assert bool(got) == any(want)
        if got:
            p, q = want
            assert element_to_text(AlgebraElement({(): got}, mode=EXACT)) == (
                f"{p.numerator}/{p.denominator}+{q.numerator}/{q.denominator}*i"
            )
        assert _or_overflow(complex, got) == _or_overflow(
            lambda w: complex(float(w[0]), float(w[1])), want
        )


@given(big_scalars, big_scalars, big_scalars)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_exact_routes_to_one_value_agree(z, w, v):
    routes = [
        ((z * w) * v, z * (w * v)),
        ((z + w) + v, z + (w + v)),
        (z + w - w, z),
        (z * (w + v), z * w + z * v),
        ((z * w).conjugate(), z.conjugate() * w.conjugate()),
        (z * w - w * z, ExactComplex()),
    ]
    for x, y in routes:
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
    # a computed zero is falsy, however it was reached
    for zero in (z - z, z * 0, z + -z, z * w - w * z, (z + w) * v - z * v - w * v):
        assert not zero and zero == 0 and hash(zero) == hash(0)


@pytest.mark.parametrize(
    "x",
    [0, 1, -7, 10**40, 10**400, Fraction(1, 2), Fraction(-3, 10**20), Fraction(10**400, 3)],
    ids=["0", "1", "-7", "1e40", "1e400", "1/2", "-3/1e20", "1e400/3"],
)
def test_a_real_exact_scalar_hashes_as_the_rational_it_equals(x):
    # equal values hash equal, so a set or dict key holds one of them
    z = ExactComplex(x)
    assert z == x and x == z and hash(z) == hash(x)
    assert len({z, x}) == 1 and {x: 1}[z] == 1
    assert ExactComplex(x, 1) != x


# ------------------------------------------------------------------ star

def test_star_reverses_and_conjugates():
    a = word(1, 2).scale(exact(0, 1))
    assert star(a) == word(2, 1).scale(exact(0, -1))
    one = AlgebraElement.unit(mode=EXACT)
    assert star(one) == one


@given(elements)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_star_is_an_involution(a):
    assert star(star(a)) == a


@given(elements, elements)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_star_is_anti_multiplicative(a, b):
    assert star(multiply(a, b)) == multiply(star(b), star(a))


@given(elements, scalars)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_star_is_anti_linear(a, c):
    assert star(a.scale(c)) == star(a).scale(c.conjugate())


# ------------------------------------------------ AlgebraElement methods

def test_algebra_element_methods_match_the_module_functions():
    for mode, coeff, c in ((EXACT, exact(1, -2), exact(0, 3)), (FLOAT, 1 - 2j, 3j)):
        a = AlgebraElement({(1, 2): coeff, (3,): 2, (): 1}, mode=mode)
        assert a.star() == star(a)
        assert a * c == a.scale(c)
        assert a * 2 == 2 * a == a + a
        assert Fraction(1, 2) * a == a.scale(Fraction(1, 2))
        assert a * a == multiply(a, a)
    assert 3j * AlgebraElement({(1,): 1}, mode=FLOAT) == AlgebraElement({(1,): 3j}, mode=FLOAT)


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_exact_scalars_defer_to_elements(mode):
    # ExactComplex leaves an element operand to the element's own rule, so
    # an exact scalar combines with an element exactly as an int does
    two = ExactComplex(2)
    a = AlgebraElement({(1, 2): 1, (): 3}, mode)
    assert two * a == a * two == 2 * a == a.scale(2)
    n = NormalOrderedElement({(1, 2): 1}, mode)
    for element in (a, n):
        for op in ("__add__", "__sub__", "__mul__", "__radd__", "__rmul__"):
            assert getattr(two, op)(element) is NotImplemented
        for x in (2, two):
            for combine in (
                lambda: x + element, lambda: element + x, lambda: x - element,
                lambda: element - x,
            ):
                with pytest.raises(TypeError, match="unsupported operand"):
                    combine()
    for x in (2, two):
        with pytest.raises(TypeError, match="unsupported operand"):
            x * n


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_element_minus_exact_scalar_names_the_subtraction(mode):
    # __rsub__ defers to the element as __sub__ does, so the refusal names
    # the operator written, not the addition it used to be rewritten into
    two = ExactComplex(2)
    for element in (AlgebraElement.generator(1, mode), NormalOrderedElement({(1,): 1}, mode)):
        assert two.__rsub__(element) is NotImplemented
        with pytest.raises(TypeError, match=r"for -: '\w+' and 'ExactComplex'"):
            element - two


def test_exact_scalars_still_refuse_foreign_scalars():
    two = ExactComplex(2)
    for x in ("2", 1.5, 1.5j, None):
        for combine in (
            lambda: two + x, lambda: x + two, lambda: two - x, lambda: two * x, lambda: x * two,
        ):
            with pytest.raises(ScalarModeMismatchError, match="in exact-mode arithmetic"):
                combine()
    assert two - Fraction(1, 2) == 3 - ExactComplex(Fraction(3, 2)) == ExactComplex(Fraction(3, 2))


def test_is_zero_on_elements_that_cancel():
    a = word(1, 2) + word(2, 1).scale(exact(0, 1))
    assert not a.is_zero()
    assert (a - a).is_zero() and (a + a * -1).is_zero()
    assert AlgebraElement({(1,): exact(0)}, mode=EXACT).is_zero()
    assert AlgebraElement.zero(mode=FLOAT).is_zero()


def test_reprs_and_foreign_comparisons():
    a = word(1, 2)
    assert repr(a) == "<AlgebraElement '1/1+0/1*i*phi(1)phi(2)' (exact)>"
    assert repr(E12) == "PairingForm({(1, 2): Fraction(1, 1)})"
    # comparing with a foreign type defers to it, and so comes out unequal
    for value, foreign in ((exact(1), "1"), (exact(1), 1.0), (E12, {(1, 2): 1})):
        assert type(value).__eq__(value, foreign) is NotImplemented
        assert value != foreign


# ----------------------------------------------------------- normal form

def test_single_swap():
    # phi(2) phi(1) = phi(1) phi(2) - i E(1,2)
    got = normal_form(word(2, 1), E12)
    expected = word(1, 2) + AlgebraElement.unit(mode=EXACT).scale(exact(0, -1))
    assert got == expected


def test_commutator_of_generators_is_scalar():
    c = commutator(gen(1), gen(2), E12)
    assert c == AlgebraElement.unit(mode=EXACT).scale(exact(0, 1))
    assert commutator(gen(2), gen(1), E12) == AlgebraElement.unit(
        mode=EXACT
    ).scale(exact(0, -1))
    # untouched pair commutes
    assert not commutator(gen(1), gen(3), E_TWO_BLOCKS)


def test_two_step_rewrite_by_hand():
    # phi2 phi1 phi2 -> (phi1 phi2 - i) phi2 = phi1 phi2 phi2 - i phi2
    got = normal_form(word(2, 1, 2), E12)
    expected = word(1, 2, 2) + word(2).scale(exact(0, -1))
    assert got == expected


def test_normal_form_output_is_sorted():
    a = word(3, 1, 2) + word(2, 2, 1).scale(exact(0, 1))
    nf = normal_form(a, E_TWO_BLOCKS)
    for w in nf.terms:
        assert list(w) == sorted(w)


@given(elements)
@settings(max_examples=50, deadline=None, derandomize=True)
def test_normal_form_is_idempotent(a):
    once = normal_form(a, E_TWO_BLOCKS)
    assert normal_form(once, E_TWO_BLOCKS) == once


@given(elements, elements)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_normal_form_respects_products(a, b):
    lhs = normal_form(multiply(a, b), E_TWO_BLOCKS)
    rhs = normal_form(
        multiply(normal_form(a, E_TWO_BLOCKS), normal_form(b, E_TWO_BLOCKS)),
        E_TWO_BLOCKS,
    )
    assert lhs == rhs


@given(elements)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_normal_form_commutes_with_star(a):
    # the pairing is real, so rewriting before or after star must agree
    lhs = normal_form(star(a), E_TWO_BLOCKS)
    rhs = normal_form(star(normal_form(a, E_TWO_BLOCKS)), E_TWO_BLOCKS)
    assert lhs == rhs


def test_relation_closure_all_pairs():
    for i in range(1, 5):
        for j in range(1, 5):
            lhs = normal_form(multiply(gen(j), gen(i)), E_TWO_BLOCKS)
            rhs = normal_form(
                multiply(gen(i), gen(j))
                + AlgebraElement.unit(mode=EXACT).scale(
                    exact(0, -1) * _e_entry(i, j)
                ),
                E_TWO_BLOCKS,
            )
            assert lhs == rhs


def _e_entry(i, j):
    v = E_TWO_BLOCKS.value(i, j)
    return ExactComplex(v, Fraction(0))


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=2, max_size=6))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_rewriting_lowers_degree_by_two(w):
    # swapping one adjacent pair changes the element by terms of degree
    # len(w) - 2 at most
    a = AlgebraElement({tuple(w): exact(1)}, mode=EXACT)
    swapped = list(w)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    b = AlgebraElement({tuple(swapped): exact(1)}, mode=EXACT)
    diff = normal_form(a - b, E_TWO_BLOCKS)
    assert diff.degree <= len(w) - 2


def test_float_mode_normal_form():
    E = PairingForm({(1, 2): 0.5})
    a = AlgebraElement({(2, 1): 1.0 + 0.0j}, mode=FLOAT)
    nf = normal_form(a, E)
    assert nf.terms[(1, 2)] == pytest.approx(1.0 + 0.0j)
    assert nf.terms[()] == pytest.approx(-0.5j)


def test_normal_form_matches_brute_force_matchings():
    # sorting is Wick's theorem under kappa(l, g) = i E(l, g) for l > g,
    # else 0: the oracle lists every partial matching of the slots
    rng = random.Random(11)
    pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
    E = PairingForm({p: Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for p in pairs})
    E_float = PairingForm({p: rng.uniform(-2.0, 2.0) for p in pairs})
    kappa = lambda l, g: exact(0, 1) * E.value(l, g) if l > g else exact(0)  # noqa: E731
    kappa_float = lambda l, g: 1j * E_float.value(l, g) if l > g else 0j  # noqa: E731
    for _ in range(60):
        w = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 8)))
        got = normal_form(AlgebraElement({w: exact(1)}, EXACT), E).terms
        assert got == normal_order_oracle(w, kappa, exact(1)), w
        got = normal_form(AlgebraElement({w: 1.0}, FLOAT), E_float).terms
        want = normal_order_oracle(w, kappa_float, 1.0)
        scale = max((abs(c) for c in want.values()), default=1.0)
        for u in set(got) | set(want):
            assert abs(got.get(u, 0) - want.get(u, 0)) <= 1e-12 * scale, (w, u)


# ----------------------------------------------------------- induced maps

def test_identity_induced_map():
    sigma = [[1, 0], [0, 1]]
    alpha = InducedMap(sigma, (1, 2), E12, "preserving")
    a = word(2, 1).scale(exact(0, 1))
    assert alpha(a) == a


def test_rotation_preserves_relations():
    import math

    theta = 0.3
    c, s = math.cos(theta), math.sin(theta)
    E = PairingForm({(1, 2): 1.0})
    sigma = [[c, -s], [s, c]]
    alpha = InducedMap(sigma, (1, 2), E, "preserving")
    img1 = alpha(gen(1, mode=FLOAT))
    img2 = alpha(gen(2, mode=FLOAT))
    c12 = normal_form(multiply(img1, img2) - multiply(img2, img1), E)
    assert set(c12.terms) == {()}
    assert c12.terms[()] == pytest.approx(1.0j)


def test_composition_of_induced_maps():
    sigma1 = [[0, -1], [1, 0]]
    sigma2 = [[1, 2], [0, 1]]
    combined = [
        [sum(sigma1[r][k] * sigma2[k][c] for k in range(2)) for c in range(2)]
        for r in range(2)
    ]
    a = word(1, 2, 1) + word(2).scale(exact(3, 1))
    alpha1 = InducedMap(sigma1, (1, 2), E12, "preserving")
    alpha2 = InducedMap(sigma2, (1, 2), E12, "preserving")
    alpha12 = InducedMap(combined, (1, 2), E12, "preserving")
    lhs = normal_form(alpha1(alpha2(a)), E12)
    rhs = normal_form(alpha12(a), E12)
    assert lhs == rhs


def test_orientation_reversing_map_conjugates():
    sigma = [[1, 0], [0, -1]]
    alpha = InducedMap(sigma, (1, 2), E12, "reversing")
    assert alpha.parity == "reversing"
    a = AlgebraElement.unit(mode=EXACT).scale(exact(0, 1))
    assert alpha(a) == AlgebraElement.unit(mode=EXACT).scale(exact(0, -1))
    # relations transported with the flipped sign
    img_comm = normal_form(
        multiply(alpha(gen(1)), alpha(gen(2)))
        - multiply(alpha(gen(2)), alpha(gen(1))),
        E12,
    )
    assert img_comm == AlgebraElement.unit(mode=EXACT).scale(exact(0, -1))


def test_non_symmetry_is_rejected():
    sigma = [[2, 0], [0, 1]]
    with pytest.raises(InvalidSymmetryError):
        InducedMap(sigma, (1, 2), E12, "preserving")
    with pytest.raises(InvalidSymmetryError):
        InducedMap(sigma, (1, 2), E12, "reversing")
    # declared parity must match the actual action, not merely be plausible
    with pytest.raises(InvalidSymmetryError):
        InducedMap([[1, 0], [0, -1]], (1, 2), E12, "preserving")


def test_induced_map_refuses_an_unknown_parity_and_a_generator_off_its_span():
    with pytest.raises(ValidationError, match="^parity must be 'preserving' or 'reversing'$"):
        InducedMap([[1, 0], [0, 1]], (1, 2), E12, "sideways")
    alpha = InducedMap([[1, 0], [0, 1]], (1, 2), E12, "preserving")
    with pytest.raises(ValidationError, match="^generator 3 outside the map's span$"):
        alpha(word(1, 3))


# ------------------------------------------------------ simplicity probes

@pytest.mark.parametrize(
    "sigma",
    [
        [[1, "x"], [0, 1]],
        [[1, 0], [0]],
        [[1, 0], [0, 1], [0, 0]],
        [[1, 0], [0, 1j]],
        [[1, 0], [0, float("nan")]],
        [[1, 0], 5],
        7,
    ],
    ids=["string", "ragged", "not-square", "complex", "nan", "scalar-row", "scalar"],
)
def test_induced_map_rejects_malformed_sigma(sigma):
    with pytest.raises(ValidationError):
        InducedMap(sigma, (1, 2), E12, "preserving")


def test_induced_map_takes_exact_and_float_entries_alike():
    exact_map = InducedMap([[Fraction(1), 0], [0, ExactComplex(1)]], (1, 2), E12, "preserving")
    a = word(2, 1).scale(exact(0, 1))
    assert exact_map(a) == a
    float_map = InducedMap([[1.0, 0.0], [0.0, 1.0]], (1, 2), E12, "preserving")
    b = AlgebraElement({(2, 1): 1j}, FLOAT)
    assert float_map(b) == b


def test_probe_on_a_generator():
    # [phi(1), phi(u)] = i E(1, u); u = e2 gives i
    val = simplicity_probe(gen(1), [{2: 1}], E12)
    assert val == exact(0, 1)


def test_probe_on_scalar_elements():
    one = AlgebraElement.unit(mode=EXACT)
    assert simplicity_probe(one, [], E12) == exact(1)
    a = one.scale(exact(5))
    for probes in ([], [{1: 1}], [{1: 1}, {2: 1}]):
        got = simplicity_probe(a, probes, E12)
        expected = exact(5) if not probes else exact(0)
        assert got == expected


def test_probe_degree_two_by_hand():
    # [[phi1 phi2, phi2], phi1] = E(1,2)^2 = 1
    val = simplicity_probe(word(1, 2), [{2: 1}, {1: 1}], E12)
    assert val == exact(1)


def test_probe_arity_guard():
    with pytest.raises(ArityError):
        simplicity_probe(word(1, 2), [{2: 1}], E12)


def test_witness_search_finds_nonzero_probe():
    candidates = [word(1, 2), word(1, 1) + word(2), word(1, 2, 3)]
    for a in candidates:
        found = find_simplicity_witness(a, E_TWO_BLOCKS, generators=(1, 2, 3, 4))
        assert found is not None
        probes, value = found
        assert value
        assert simplicity_probe(a, probes, E_TWO_BLOCKS) == value


def test_no_simplicity_witness_under_a_degenerate_pairing():
    # E vanishes on generator 3, so every probe commutator of phi3 phi3 is 0
    assert find_simplicity_witness(word(3, 3), E12, generators=(1, 2, 3)) is None
    assert find_simplicity_witness(word(1, 2), PairingForm(), generators=(1, 2)) is None


# ---------------------------------------------------------- serialization

def test_known_text_form():
    a = word(1, 2) + AlgebraElement.unit(mode=EXACT).scale(exact(0, -1))
    assert element_to_text(a) == "0/1+-1/1*i + 1/1+0/1*i*phi(1)phi(2)"
    assert element_to_text(AlgebraElement.zero(mode=EXACT)) == "0"


@given(elements)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_text_round_trip_exact(a):
    assert element_from_text(element_to_text(a), mode=EXACT) == a


def test_text_round_trip_float():
    a = AlgebraElement(
        {(1,): 0.5 - 2.25j, (): 3.0 + 0.0j, (2, 2): -1e-3 + 0.5j}, mode=FLOAT
    )
    back = element_from_text(element_to_text(a), mode=FLOAT)
    assert set(back.terms) == set(a.terms)
    for w, c in a.terms.items():
        assert back.terms[w] == pytest.approx(c)


def test_malformed_text_rejected():
    with pytest.raises(ValidationError):
        element_from_text("1/2*phi(1)", mode=EXACT)
    with pytest.raises(ValidationError):
        element_from_text("1/1+0/1*i*psi(1)", mode=EXACT)


@pytest.mark.parametrize(
    "text",
    ["1" * 5000 + "/1+0/1*i", "1/1+0/1*i*phi(" + "1" * 5000 + ")"],
    ids=["coefficient", "generator"],
)
def test_text_refuses_integers_past_the_conversion_limit(text):
    # Python's int() stops at 4300 digits; the reader says so in its own terms
    with pytest.raises(ValidationError, match="5000 digits"):
        element_from_text(text, mode=EXACT)


def test_float_element_refuses_numbers_past_the_float_range():
    for c in (10**400, Fraction(10**400, 3), ExactComplex(0, 10**400)):
        with pytest.raises(ValidationError, match="float range"):
            AlgebraElement({(1,): c}, mode=FLOAT)


def test_pairing_form_json_round_trip():
    E = PairingForm({(1, 2): Fraction(3, 7), (2, 5): Fraction(-1, 2)})
    back = PairingForm.from_json(json.loads(json.dumps(E.to_json())))
    assert back.value(1, 2) == Fraction(3, 7)
    assert back.value(5, 2) == Fraction(1, 2)
    assert back.value(1, 5) == 0


def test_pairing_form_antisymmetry():
    E = PairingForm({(1, 2): Fraction(2)})
    assert E.value(2, 1) == -E.value(1, 2)
    with pytest.raises(ValidationError):
        PairingForm({(3, 3): Fraction(1)})


def test_pairing_form_refuses_entries_that_are_not_a_mapping():
    with pytest.raises(ValidationError):
        PairingForm(5)


@pytest.mark.parametrize(
    "value",
    [math.nan, -math.inf, np.float64(math.inf), 1j, "0.5", None,
     ExactComplex(0, 1), ExactComplex(Fraction(1, 2))],
    ids=["nan", "-inf", "numpy-inf", "complex", "string", "none",
         "exact-imaginary", "exact-real"],
)
def test_pairing_form_reads_a_float_entry_through_as_finite(value):
    with pytest.raises(ValidationError, match=r"^pairing entry \(1,2\) must be a finite real"):
        PairingForm({(1, 2): value})
    # a numpy float is read as the Python float it equals
    E = PairingForm({(2, 1): np.float64(0.25)})
    assert type(E.value(1, 2)) is float and E.value(1, 2) == -0.25


def test_weak_nondegeneracy_report():
    assert E_TWO_BLOCKS.is_weakly_nondegenerate((1, 2, 3, 4))
    assert not E12.is_weakly_nondegenerate((1, 2, 3))


def test_pairing_form_json_keeps_each_entry_in_its_form():
    E = PairingForm({(1, 2): Fraction(3, 7), (2, 4): 5, (3, 4): -0.25})
    back = PairingForm.from_json(E.to_json())
    assert back == E
    assert type(back.value(1, 2)) is Fraction and type(back.value(3, 4)) is float


@pytest.mark.parametrize(
    "value",
    ['"1e200000"', "1e200000", "true", '"1.5"', '"1/0"', "null", '"1/-2"'],
)
def test_pairing_form_json_reads_only_what_to_json_writes(value):
    # a decimal exponent would make Fraction build a 664,386-bit integer,
    # and a JSON number past the float range reads as inf; both are refused
    with pytest.raises(ValidationError):
        PairingForm.from_json('{"pairing": [[1, 2, %s]]}' % value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: PairingForm({(1, 2, 3): 1}),
        lambda: PairingForm({(1,): 1}),
        lambda: ExactComplex("x"),
        lambda: ExactComplex(float("nan")),
        lambda: ExactComplex(float("inf")),
        lambda: ExactComplex(0, 1j),
        lambda: AlgebraElement(5),
        lambda: AlgebraElement.from_vector(5),
        lambda: AlgebraElement({(1,): float("nan")}, FLOAT),
        lambda: AlgebraElement({(1,): complex(0, float("inf"))}, FLOAT),
        lambda: gen(1, FLOAT).scale(float("nan")),
        lambda: InducedMap([[1, 0], [0, 1]], (1, 2), 5, "preserving"),
        lambda: InducedMap([[1, 0], [0, 1]], (1, 2), E12, "preserving")(5),
        lambda: InducedMap(
            [[1e200, 0], [0, 1e200]], (1, 2), PairingForm({(1, 2): 1e200}), "preserving"
        ),
        lambda: simplicity_probe(5, [{1: 1}], E12),
        lambda: simplicity_probe(gen(1), 5, E12),
        lambda: simplicity_probe(gen(1), [5], E12),
        lambda: find_simplicity_witness(gen(1), E12, 5),
        lambda: find_simplicity_witness(5, E12, [1]),
        lambda: element_to_text(5),
        lambda: element_from_text(5),
        lambda: element_from_text("1e999+0*i", FLOAT),
        lambda: element_from_text("nan+0*i*phi(1)", FLOAT),
        lambda: E12.is_weakly_nondegenerate(5),
        lambda: PairingForm({(1, 2): 10**400}).matrix((1, 2)),
        lambda: AlgebraElement({(1,): 1e200}, FLOAT).scale(1e200),
        lambda: multiply(*[AlgebraElement({(1,): 1e200}, FLOAT)] * 2),
        lambda: AlgebraElement({(1,): 1e308}, FLOAT) - AlgebraElement({(1,): -1e308}, FLOAT),
    ],
    ids=[
        "pairing-three-index-key", "pairing-one-index-key", "exact-string", "exact-nan",
        "exact-inf", "exact-complex-part", "element-not-a-mapping", "vector-not-a-mapping",
        "element-nan", "element-imaginary-inf", "scale-nan", "map-pairing", "map-argument",
        "map-overflow-to-nan", "probe-element", "probe-list", "probe-vector", "witness-generators",
        "witness-element", "to-text", "from-text", "text-past-float-range", "text-nan",
        "nondegenerate-generators", "matrix-past-float-range", "scale-overflow",
        "square-overflow", "difference-overflow",
    ],
)
def test_ccr_core_boundary_refuses_foreign_input(call):
    with pytest.raises(ValidationError):
        call()


# every name in ccr_core.__all__, fed junk scalars, words, elements, pairings,
# maps, probe lists, JSON and text, NaN, +-inf and numbers past the float range
_specials = st.sampled_from(
    [math.nan, math.inf, -math.inf, complex(0, math.nan), 1e308, 1e-320, -0.0, 10**400,
     Fraction(10**400, 3), 2.5]
)
_key_junk = st.one_of(
    _specials, st.none(), st.text(max_size=3), st.integers(-3, 9), st.just((1.5, 2))
)
_junk = st.one_of(_key_junk, st.sampled_from([[1, 2], [[1, 2], [3]], {"a": 1}, {1: "x"}]))
_scalars = st.one_of(
    st.sampled_from([0, 1, -2, Fraction(1, 3), ExactComplex(1, -1), 0.5, 1j, 1e200]),
    _specials, st.none(), st.text(max_size=2),
)
_labels = st.one_of(st.integers(0, 4), st.integers(0, 4), _key_junk)
_words = st.one_of(st.lists(st.integers(0, 4), max_size=3).map(tuple), st.tuples(_labels))
_modes = st.sampled_from([EXACT, FLOAT, FLOAT, "bogus"])
_gen_lists = st.one_of(st.lists(st.integers(0, 4), max_size=3), _junk)


def _element(draw, junk=True):
    if junk and draw(st.integers(0, 4)) == 0:
        return draw(_junk)
    return AlgebraElement(draw(st.dictionaries(_words, _scalars, max_size=3)), draw(_modes))


def _pairing(draw, junk=True):
    if junk and draw(st.integers(0, 4)) == 0:
        return draw(_junk)
    keys = st.one_of(st.tuples(st.integers(0, 4), st.integers(0, 4)), st.tuples(_labels, _labels),
                     st.lists(_labels, max_size=3).map(tuple), _key_junk)
    return PairingForm(draw(st.dictionaries(keys, _scalars, max_size=3)))


def _pairing_call(draw):
    E = _pairing(draw, junk=False)
    action = draw(st.integers(0, 3))
    if action == 0:
        return E.value(draw(_labels), draw(_labels))
    if action == 1:
        return E.is_weakly_nondegenerate(draw(_gen_lists))
    if action == 2:
        return PairingForm.from_json(E.to_json())
    row = draw(st.lists(st.one_of(_labels, st.sampled_from(['"1/3"', '"1e9"', "true"])),
                        max_size=4))
    return PairingForm.from_json('{"pairing": [%s]}' % ", ".join(map(str, row)))


def _induced_map(draw):
    n = draw(st.integers(0, 3))
    sigma = draw(st.one_of(
        st.lists(st.lists(_scalars, min_size=n, max_size=n), min_size=n, max_size=n),
        st.just([[0, 1], [-1, 0]]), _junk,
    ))
    gens = draw(st.one_of(st.just(list(range(1, n + 1))), _gen_lists))
    parity = draw(st.sampled_from(["preserving", "reversing", "bogus"]))
    return InducedMap(sigma, gens, _pairing(draw), parity)(_element(draw))


def _probes(draw):
    vectors = st.dictionaries(_labels, _scalars, max_size=2)
    return draw(st.one_of(st.lists(st.one_of(vectors, _junk), max_size=3), _junk))


def _text(draw):
    if draw(st.booleans()):
        return draw(st.one_of(st.text(max_size=12), _junk))
    a = AlgebraElement({(1, 2): Fraction(1, 3), (): 2}, draw(st.sampled_from([EXACT, FLOAT])))
    text = element_to_text(a)
    cut = draw(st.integers(0, len(text)))
    return text[:cut] + draw(st.sampled_from(["", "e999", "nan", "x", "/0"])) + text[cut:]


_CORE_CALLS = {
    "ExactComplex": lambda d: ExactComplex(d(_scalars), d(_scalars)) * d(_scalars),
    "AlgebraElement": lambda d: (
        _element(d, junk=False).scale(d(_scalars)) if d(st.booleans())
        else AlgebraElement.from_vector(d(st.one_of(st.dictionaries(_labels, _scalars), _junk)),
                                        d(_modes))
    ),
    "PairingForm": _pairing_call,
    "InducedMap": _induced_map,
    "multiply": lambda d: multiply(_element(d), _element(d)),
    "star": lambda d: star(_element(d)),
    "normal_form": lambda d: normal_form(_element(d), _pairing(d)),
    "commutator": lambda d: commutator(_element(d), _element(d), _pairing(d)),
    "simplicity_probe": lambda d: simplicity_probe(_element(d), _probes(d), _pairing(d)),
    "find_simplicity_witness": lambda d: find_simplicity_witness(
        _element(d), _pairing(d), d(_gen_lists)
    ),
    "element_to_text": lambda d: element_to_text(_element(d)),
    "element_from_text": lambda d: element_from_text(_text(d), d(_modes)),
}


def test_property_calls_cover_the_ccr_core_names():
    assert set(_CORE_CALLS) == set(ccr_core.__all__)


@pytest.mark.parametrize("name", sorted(_CORE_CALLS))
@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_ccr_core_raises_only_package_errors(name, data):
    # a call either raises one of the package's own errors or returns; a
    # numpy warning escaping is an error too
    try:
        _CORE_CALLS[name](data.draw)
    except CcrLabError:
        pass
