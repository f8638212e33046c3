"""Tests for quasifree state evaluation and positivity checks."""

from __future__ import annotations

import cmath
import copy
import itertools
import math
import pickle
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccr_lab import ccr_core, quasifree
from ccr_lab.ccr_core import FLOAT, AlgebraElement, OrderingKernel, PairingForm, normal_form, star
from ccr_lab.errors import (
    CcrLabError,
    DegreeGuardError,
    IncompleteKernelError,
    KernelInconsistencyError,
    ValidationError,
)
from ccr_lab.quasifree import (
    NPOINT_GUARD,
    QuasifreeState,
    TwoPointKernel,
    evaluate,
    gram_positivity,
    npoint,
)
from ccr_lab.wick_hadamard import NormalOrderedElement

from oracles import double_factorial, wick_moment


def vacuum_mode_kernel(omegas):
    """Diagonal-mode kernel over generators 1..2N: generator 2k-1 is the
    k-th position variable, 2k its momentum, ground state of frequency
    omega_k.  E(q, p) = 1 within a mode."""
    table = {}
    gens = []
    for k, w in enumerate(omegas):
        q, p = 2 * k + 1, 2 * k + 2
        gens += [q, p]
        table[(q, q)] = 1.0 / (2.0 * w)
        table[(p, p)] = w / 2.0
        table[(q, p)] = 0.5j
        table[(p, q)] = -0.5j
    for a in gens:
        for b in gens:
            table.setdefault((a, b), 0.0 + 0.0j)
    return TwoPointKernel(table, generators=gens)


# -------------------------------------------------------------- kernels

def test_kernel_invariant_checks():
    bad_sym = {(1, 1): 1.0, (2, 2): 1.0, (1, 2): 0.3 + 0.5j, (2, 1): 0.1 - 0.5j}
    with pytest.raises(KernelInconsistencyError):
        TwoPointKernel(bad_sym)
    bad_imag = {(1, 1): 1.0, (2, 2): 1.0, (1, 2): 0.5j, (2, 1): 0.5j}
    with pytest.raises(KernelInconsistencyError):
        TwoPointKernel(bad_imag)
    bad_diag = {(1, 1): -1.0, (2, 2): 1.0, (1, 2): 0.0j, (2, 1): 0.0j}
    with pytest.raises(KernelInconsistencyError):
        TwoPointKernel(bad_diag)


def test_kernel_pairing_recovery():
    k = vacuum_mode_kernel([2.0])
    assert k.pairing.value(1, 2) == pytest.approx(1.0)
    assert k.pairing.value(2, 1) == pytest.approx(-1.0)
    E = k.pairing
    assert E.value(1, 2) == pytest.approx(1.0)


def test_kernel_against_declared_pairing():
    E = PairingForm({(1, 2): 1.0})
    k = vacuum_mode_kernel([1.0])
    TwoPointKernel(k.entries, generators=k.generators, pairing=E)
    wrong = PairingForm({(1, 2): 2.0})
    with pytest.raises(KernelInconsistencyError):
        TwoPointKernel(k.entries, generators=k.generators, pairing=wrong)


def test_declared_generators_cover_every_label_of_the_table():
    # a list narrower than the table would leave (1, 2) and (2, 1) unchecked
    # while npoint still read them; a wider one misses entries
    table = {(1, 1): 1.0, (2, 2): 1.0, (1, 2): 5j, (2, 1): 7.0}
    with pytest.raises(ValidationError, match="misses labels"):
        TwoPointKernel(table, generators=[1])
    with pytest.raises(IncompleteKernelError):
        TwoPointKernel({(1, 1): 1.0}, generators=[1, 2])


@pytest.mark.parametrize(
    "build",
    [
        lambda: TwoPointKernel({(1, 1): 1 + 1e-12j}, generators=[1, 1]),
        lambda: TwoPointKernel(
            {(1, 1): 1.0, (2, 2): 1.0, (1, 2): 0.5j, (2, 1): -0.5j}, generators=[2, 1, 2]
        ),
        lambda: TwoPointKernel(_BASE.value, generators=[1, 2, 1]),
    ],
    ids=["table-of-one-label", "table", "callback"],
)
def test_repeated_generator_labels_are_refused(build):
    # a repeated label would pair a generator with itself in E = 2 Im omega
    with pytest.raises(ValidationError, match="generator labels must be distinct") as caught:
        build()
    assert caught.type is ValidationError


@pytest.mark.parametrize(
    "call",
    [
        lambda s: npoint(s, [1, 1, 1, 1]),
        lambda s: evaluate(s, AlgebraElement({(1, 1, 1, 1): 1.0}, FLOAT)),
    ],
    ids=["npoint", "evaluate"],
)
def test_moment_past_the_float_range_is_refused(call):
    # every entry is finite, but the four-point moment 3 w(1,1)^2 is not
    state = QuasifreeState(TwoPointKernel({k: v * 1e300 for k, v in _BASE.entries.items()}))
    assert npoint(state, [1, 1]) == _BASE.value(1, 1) * 1e300
    with pytest.raises(ValidationError, match="not finite"):
        call(state)


def test_missing_entry_raises():
    k = TwoPointKernel({(1, 1): 1.0})
    state = QuasifreeState(k)
    with pytest.raises(IncompleteKernelError):
        npoint(state, [1, 2])
    with pytest.raises(IncompleteKernelError):
        npoint(state, [1] * 9 + [2])


def test_kernel_callback_passes_a_package_error_through_unchanged():
    # call_outside wraps a callback's own failure, but not a package error
    err = IncompleteKernelError("no such pair")

    def callback(i, j):
        raise err

    with pytest.raises(IncompleteKernelError) as got:
        TwoPointKernel(callback, generators=[1, 2])
    assert got.value is err


@pytest.mark.parametrize(
    "table",
    [
        {(1, 1): math.nan, (2, 2): 1.0, (1, 2): 0.5j, (2, 1): -0.5j},
        {(1, 1): 1.0, (2, 2): 1.0, (1, 2): math.inf, (2, 1): math.inf},
        {(1, 1): 1.0, (2, 2): -math.inf, (1, 2): 0.5j, (2, 1): -0.5j},
        {(1, 1): 1.0, (2, 2): 1.0, (1, 2): complex(0, math.nan), (2, 1): 0.0},
    ],
    ids=["nan-diagonal", "inf-offdiagonal", "neg-inf-diagonal", "nan-imag"],
)
def test_kernel_rejects_non_finite_entries(table):
    with pytest.raises(ValidationError, match="not finite"):
        TwoPointKernel(table)
    with pytest.raises(ValidationError, match="not finite"):
        TwoPointKernel(lambda i, j: table[(i, j)], generators=[1, 2])


@pytest.mark.parametrize(
    "build",
    [
        lambda: TwoPointKernel({(1.5, 1.5): 1.0}),
        lambda: TwoPointKernel({(1, 1): "x"}),
        lambda: TwoPointKernel({(1, 1): None}),
        lambda: TwoPointKernel(lambda i, j: 1.0, generators=[1.5]),
        lambda: TwoPointKernel(lambda i, j: None, generators=[1]),
    ],
    ids=[
        "float-key",
        "string-entry",
        "none-entry",
        "float-generator",
        "none-callback",
    ],
)
def test_kernel_rejects_non_integer_labels_and_non_numbers(build):
    with pytest.raises(ValidationError):
        build()


def test_kernel_refuses_a_table_that_is_not_a_mapping():
    with pytest.raises(ValidationError):
        TwoPointKernel(5)


# -------------------------------------------------------------- moments

def test_odd_moments_vanish_and_normalization():
    state = QuasifreeState(vacuum_mode_kernel([1.0]))
    assert npoint(state, []) == 1
    assert npoint(state, [1]) == 0
    assert npoint(state, [1, 2, 1]) == 0
    assert evaluate(state, AlgebraElement.unit(mode=FLOAT)) == 1


def test_four_point_closed_forms():
    state = QuasifreeState(vacuum_mode_kernel([1.3]))
    w = state.kernel.value
    assert npoint(state, [1, 1, 1, 1]) == pytest.approx(3 * w(1, 1) ** 2)
    got = npoint(state, [1, 2, 1, 2])
    expected = w(1, 2) * w(1, 2) + w(1, 1) * w(2, 2) + w(1, 2) * w(2, 1)
    assert got == pytest.approx(expected)


def dense_state(n_gens, seed):
    """Quasifree state with a dense complex kernel mu + (i/2) tau: mu a
    random positive matrix plus the identity, which keeps the pair bound,
    and tau a random antisymmetric one."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_gens, n_gens))
    mu = a @ a.T / n_gens + np.eye(n_gens)
    t = rng.normal(size=(n_gens, n_gens))
    tau = 0.5 * (t - t.T)
    k = mu + 0.5j * tau
    gens = range(1, n_gens + 1)
    table = {(i, j): k[i - 1, j - 1] for i in gens for j in gens}
    return QuasifreeState(TwoPointKernel(table))


@pytest.mark.parametrize("n", [8, 10, 12])
def test_moments_match_oracle_on_dense_kernel(n):
    state = dense_state(12, seed=n)
    rng = np.random.default_rng(100 + n)
    value = state.kernel.value
    for indices in (rng.integers(1, 13, size=n), rng.permutation(12)[:n] + 1):
        indices = [int(i) for i in indices]
        expected = complex(wick_moment(indices, value))
        scale = wick_moment(indices, lambda i, j: abs(value(i, j)))
        assert abs(npoint(state, indices) - expected) <= 1e-13 * scale


def test_sixteen_point_closed_form_at_default_guard():
    omega = 1.3
    state = QuasifreeState(vacuum_mode_kernel([omega]))
    expected = double_factorial(15) * (1.0 / (2.0 * omega)) ** 8
    assert npoint(state, [1] * 16) == pytest.approx(expected, rel=1e-13)


def test_npoint_guard():
    # up to npoint's guard, a constant kernel kappa gives the closed form
    # (n-1)!! kappa^(n/2); one pair past it is refused
    omega = 0.8
    kappa = 1.0 / (2.0 * omega)
    state = QuasifreeState(vacuum_mode_kernel([omega]))
    with pytest.raises(ValidationError, match="pairing guard"):
        npoint(state, [1] * (NPOINT_GUARD + 2))
    for n in (18, NPOINT_GUARD):
        expected = double_factorial(n - 1) * kappa ** (n // 2)
        assert npoint(state, [1] * n) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize(
    "indices", [[1.7, 2.2], [1, 2.0], ["1", "2"], "12", 5, None]
)
def test_npoint_rejects_non_integer_labels(indices):
    state = QuasifreeState(vacuum_mode_kernel([1.0]))
    with pytest.raises(ValidationError, match="generator labels must be integers"):
        npoint(state, indices)


def test_npoint_accepts_numpy_integers():
    state = QuasifreeState(vacuum_mode_kernel([1.0, 0.7]))
    expected = npoint(state, [1, 2, 3, 1])
    assert npoint(state, np.array([1, 2, 3, 1])) == expected
    assert npoint(state, [np.int32(1), np.int64(2), 3, np.int8(1)]) == expected


@given(st.lists(st.integers(min_value=1, max_value=4), max_size=6))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_moments_match_enumeration_oracle(indices):
    state = QuasifreeState(vacuum_mode_kernel([1.0, 0.7]))
    got = npoint(state, indices)
    expected = wick_moment(indices, state.kernel.value)
    assert got == pytest.approx(complex(expected), abs=1e-12)


def test_commutator_expectation_is_the_pairing():
    state = QuasifreeState(vacuum_mode_kernel([0.5]))
    a = AlgebraElement({(1, 2): 1.0 + 0.0j, (2, 1): -1.0 + 0.0j}, mode=FLOAT)
    assert evaluate(state, a) == pytest.approx(1.0j)


def test_evaluation_is_representation_independent():
    state = QuasifreeState(vacuum_mode_kernel([1.0, 2.0]))
    E = state.kernel.pairing
    a = AlgebraElement(
        {(2, 1, 3, 1): 0.5 + 1.0j, (4, 3, 2): 2.0 + 0.0j, (1,): 1.0j},
        mode=FLOAT,
    )
    assert evaluate(state, normal_form(a, E)) == pytest.approx(evaluate(state, a))


def test_hermiticity_of_evaluation():
    state = QuasifreeState(vacuum_mode_kernel([1.0, 0.3]))
    rng = np.random.default_rng(7)
    for _ in range(10):
        words = [tuple(rng.integers(1, 5, size=rng.integers(0, 5)))]
        coeffs = rng.normal(size=len(words)) + 1j * rng.normal(size=len(words))
        a = AlgebraElement(dict(zip(words, coeffs)), mode=FLOAT)
        assert evaluate(state, star(a)) == pytest.approx(
            evaluate(state, a).conjugate()
        )


# ------------------------------------------------------------ positivity

def test_gram_refuses_a_family_that_is_not_a_list_of_elements():
    # a normal-ordered element has .terms too, but :phi1 phi2: is not the
    # product phi1 phi2; evaluate refuses it as well
    state = QuasifreeState(vacuum_mode_kernel([1.0]))
    wick = NormalOrderedElement({(1, 2): 1.0}, FLOAT)
    for family in (5, [5], [wick], [AlgebraElement.unit(FLOAT), wick]):
        with pytest.raises(ValidationError):
            gram_positivity(state, family)


def test_gram_trivial_families():
    state = QuasifreeState(vacuum_mode_kernel([1.0]))
    one = AlgebraElement.unit(mode=FLOAT)
    rep = gram_positivity(state, [one])
    assert rep.psd and rep.min_eigenvalue == pytest.approx(1.0)
    phi1 = AlgebraElement.generator(1, mode=FLOAT)
    rep2 = gram_positivity(state, [one, phi1])
    assert rep2.psd and rep2.min_eigenvalue >= rep2.threshold


def test_gram_psd_on_degree_two_monomials():
    state = QuasifreeState(vacuum_mode_kernel([1.0, 1.7]))
    gens = [1, 2, 3, 4]
    family = [AlgebraElement.unit(mode=FLOAT)]
    family += [AlgebraElement.generator(g, mode=FLOAT) for g in gens]
    family += [
        AlgebraElement({(1, 2): 1.0 + 0.0j}, mode=FLOAT),
        AlgebraElement({(3, 3): 1.0 + 0.0j}, mode=FLOAT),
    ]
    rep = gram_positivity(state, family)
    assert rep.psd


def test_pair_bound_violation_detected_and_gram_fails():
    table = {
        (1, 1): 0.1 + 0.0j,
        (2, 2): 0.1 + 0.0j,
        (1, 2): 0.5j,
        (2, 1): -0.5j,
    }
    with pytest.raises(KernelInconsistencyError):
        QuasifreeState(TwoPointKernel(table))
    # a real kernel passes the pair bound, E being zero, and still fails the
    # Gram check on {phi1, phi2, phi3}, where G = W has eigenvalue -0.8
    w = [[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]]
    state = QuasifreeState(TwoPointKernel(lambda i, j: w[i - 1][j - 1], generators=[1, 2, 3]))
    fam = [AlgebraElement.generator(g, mode=FLOAT) for g in (1, 2, 3)]
    rep = gram_positivity(state, fam)
    assert not rep.psd
    assert rep.min_eigenvalue == pytest.approx(-0.8, abs=1e-12)


def test_gram_degree_guard():
    state = QuasifreeState(vacuum_mode_kernel([1.0]))
    big = AlgebraElement({(1,) * 5: 1.0 + 0.0j}, mode=FLOAT)
    with pytest.raises(DegreeGuardError):
        gram_positivity(state, [big])


def test_gram_report_json_and_csv_export():
    state = QuasifreeState(vacuum_mode_kernel([1.0]))
    rep = gram_positivity(state, [AlgebraElement.unit(mode=FLOAT)])
    assert rep.psd
    assert (rep.min_eigenvalue, rep.threshold, rep.hermiticity_residual) == (1.0, -1e-10, 0.0)


def test_cauchy_schwarz_margins_on_valid_kernel():
    state = QuasifreeState(vacuum_mode_kernel([1.0, 2.5]))
    assert state.cauchy_schwarz_violations() == []


# ------------------------------------------- the word-moment Gram matrix

def _gram_by_products(state, family):
    """The definition G_rc = omega(star(a_r) a_c), every product formed and
    evaluated term by term: the reference for the word-moment route."""
    n = len(family)
    G = [[evaluate(state, star(a) * b) for b in family] for a in family]
    return np.array(G, dtype=complex).reshape(n, n)


def _random_family(rng, gens, n, max_degree):
    """n float elements of degree <= max_degree over gens, some words shared
    between elements, complex coefficients."""
    pool = [()] + [
        tuple(int(g) for g in rng.choice(gens, size=rng.integers(1, max_degree + 1)))
        for _ in range(2 * n)
    ]
    family = []
    for _ in range(n):
        words = [pool[i] for i in rng.choice(len(pool), size=rng.integers(1, 5))]
        coeffs = rng.normal(size=len(words)) + 1j * rng.normal(size=len(words))
        family.append(AlgebraElement(dict(zip(words, coeffs)), mode=FLOAT))
    return family


@pytest.mark.parametrize("seed", range(6))
def test_gram_matches_the_product_definition(seed):
    state = dense_state(5, seed=seed)
    rng = np.random.default_rng(200 + seed)
    for max_degree in (1, 2, 4):
        family = _random_family(rng, range(1, 6), 8, max_degree)
        rep = gram_positivity(state, family)
        ref = _gram_by_products(state, family)
        assert np.abs(rep.gram - ref).max() <= 1e-14 * np.abs(ref).max()
        assert rep.psd


def test_gram_takes_exact_elements_and_zero_elements():
    state = dense_state(3, seed=4)
    exact = AlgebraElement({(1, 2): 1, (3,): -2, (): 1})
    family = [exact, AlgebraElement.zero(mode=FLOAT), AlgebraElement.generator(2)]
    ref = _gram_by_products(state, [AlgebraElement(a.terms, FLOAT) for a in family])
    rep = gram_positivity(state, family)
    assert np.abs(rep.gram - ref).max() <= 1e-14 * np.abs(ref).max()
    assert rep.gram[1].tolist() == [0, 0, 0]


def test_gram_family_outside_the_kernel_raises():
    # generator 6 is outside the 5-generator kernel: both routes raise
    state = dense_state(5, seed=1)
    family = _random_family(np.random.default_rng(3), range(1, 6), 5, 2)
    family.append(AlgebraElement({(2, 6): 1.0, (): 0.5j}, mode=FLOAT))
    with pytest.raises(IncompleteKernelError):
        gram_positivity(state, family)
    with pytest.raises(IncompleteKernelError):
        _gram_by_products(state, family)


def _restored(kernel, entries):
    # the kernel's slots with its table replaced, restored as a copy or a
    # pickle restores them: past the constructor and its checks
    return ccr_core._thaw(type(kernel), {
        "generators": kernel.generators, "pairing": kernel.pairing,
        "entries": ccr_core._ReadOnlyDict(entries),
    })


def test_gram_catches_a_kernel_that_breaks_its_exchange_relation():
    # one off-diagonal entry changed past the constructor: omega(1, 2) and
    # omega(2, 1) no longer differ by i E only, and the Gram matrix, with
    # its word-moment matrix filled in full, is not hermitian
    kernel = vacuum_mode_kernel([1.0, 0.7])
    edited = dict(kernel.entries)
    edited[(1, 2)] += 0.3
    state = QuasifreeState(_restored(kernel, edited))
    family = [AlgebraElement.generator(g, mode=FLOAT) for g in (1, 2, 3)]
    with pytest.raises(KernelInconsistencyError, match="not hermitian"):
        gram_positivity(state, family)


@pytest.mark.parametrize(
    "make",
    [lambda: vacuum_mode_kernel([1.0, 0.7]),
     lambda: OrderingKernel.from_symmetric_part({(1, 2): 1}, PairingForm({(1, 2): 2}))],
    ids=["state-kernel", "ordering-kernel"],
)
def test_a_kernel_table_refuses_edits(make):
    # the table and the pairing are fixed when the kernel is built, so the
    # exchange relation checked then cannot go stale; copies and pickles
    # are read-only too
    kernel = make()
    before, pairing = dict(kernel.entries), dict(kernel.pairing.entries)
    edits = [
        lambda t: t.__setitem__((1, 2), 0.3), lambda t: t.__delitem__((1, 2)),
        lambda t: t.pop((1, 2)), lambda t: t.popitem(), lambda t: t.clear(),
        lambda t: t.setdefault((2, 2), 1.0), lambda t: t.update({(1, 2): 0.3}),
        lambda t: t.__ior__({(1, 2): 0.3}),
    ]
    for twin in (kernel, copy.deepcopy(kernel), pickle.loads(pickle.dumps(kernel))):
        assert twin.entries == before and twin.pairing.entries == pairing
        for table, edit in itertools.product((twin.entries, twin.pairing.entries), edits):
            with pytest.raises(TypeError, match="read-only"):
                edit(table)
    assert kernel.entries == before and kernel.pairing.entries == pairing
    assert kernel.value(1, 2) == before[(1, 2)]


# ------------------------------------------- the block-built moment matrix

def _word_family(rng, gens, per_length):
    """Distinct words of length 0 to 4 over gens, each as its own float
    monomial: A is the identity, so the Gram matrix is the word-moment
    matrix M itself."""
    words = [()] + [
        tuple(int(g) for g in rng.choice(gens, size=p))
        for p in (1, 2, 3, 4)
        for _ in range(per_length)
    ]
    words = list(dict.fromkeys(words))
    return words, [AlgebraElement({w: 1.0}, FLOAT) for w in words]


@pytest.mark.parametrize("seed", range(2))
def test_block_moments_match_the_pairing_oracle(seed):
    # moments of 0 to 8 slots, against the listed pairings of each entry
    state = dense_state(6, seed=seed)
    value = state.kernel.value
    words, family = _word_family(np.random.default_rng(300 + seed), range(1, 7), 6)
    M = gram_positivity(state, family).gram
    for r, u in enumerate(words):
        for c, v in enumerate(words):
            slots = list(u[::-1] + v)
            if len(slots) % 2:
                assert M[r, c] == 0
                continue
            expected = complex(wick_moment(slots, value))
            scale = wick_moment(slots, lambda i, j: abs(value(i, j)))
            assert abs(M[r, c] - expected) <= 1e-14 * scale, (u, v)
    assert M[0, 0] == 1


def test_block_steps_do_not_change_the_moments(monkeypatch):
    # blocks cut into steps of a few word pairs give the same matrix, bit
    # for bit, as blocks taken whole
    state = dense_state(6, seed=5)
    _, family = _word_family(np.random.default_rng(7), range(1, 7), 5)
    whole = gram_positivity(state, family).gram
    for cells in (1, 7):
        monkeypatch.setattr(quasifree, "_BLOCK_CELLS", cells)
        assert np.array_equal(gram_positivity(state, family).gram, whole)


@pytest.mark.parametrize("cells", [quasifree._BLOCK_CELLS, 1])
def test_block_path_names_the_first_absent_pair_as_npoint_does(monkeypatch, cells):
    # label 9 is outside the kernel.  In row-major order the first entry
    # that needs it is (u0, u1), whose slots 1 2 9 3 reach (1, 9) first;
    # (u1, u0), (u1, u1) and the 2-slot entries of u3 need it too
    monkeypatch.setattr(quasifree, "_BLOCK_CELLS", cells)
    state = dense_state(4, seed=2)
    family = [AlgebraElement({w: 1.0}, FLOAT) for w in ((2, 1), (9, 3), (4,), (9,))]
    with pytest.raises(IncompleteKernelError) as scalar:
        npoint(state, [1, 2, 9, 3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IncompleteKernelError) as block:
            gram_positivity(state, family)
    assert str(block.value) == str(scalar.value) == "two-point kernel has no entry for (1, 9)"


def test_block_path_refuses_a_kernel_restored_without_an_entry():
    # every label is a generator, but (3, 1) is gone from the restored
    # entries.  No moment of the family needs it, yet the kernel does not
    # hold every pair of its generators: the table, read through the
    # kernel's lookup, names the pair rather than leaking a KeyError or a NaN
    kernel = dense_state(4, seed=2).kernel
    state = QuasifreeState(_restored(kernel, {
        pair: v for pair, v in kernel.entries.items() if pair != (3, 1)
    }))
    family = [AlgebraElement({w: 1.0}, FLOAT) for w in ((2, 1), (3,), (4, 4))]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IncompleteKernelError, match=r"^two-point kernel has no entry for \(3, 1\)$"):
            gram_positivity(state, family)


def test_block_path_refuses_an_overflow_only_an_eight_slot_moment_reaches():
    # every entry 1e100: a 6-slot moment sums 15 products of three entries,
    # 1.5e301, and the 8-slot moment of star(a) a, a = phi1 phi2 phi1 phi2,
    # 105 products of four, each 1e400
    state = QuasifreeState(TwoPointKernel({(i, j): 1e100 for i in (1, 2) for j in (1, 2)}))
    short = [AlgebraElement({(1,): 1.0}, FLOAT), AlgebraElement({(1, 2, 1): 1.0}, FLOAT)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gram_positivity(state, short).gram[1, 1] == pytest.approx(1.5e301, rel=1e-15)
        with pytest.raises(
            ValidationError,
            match="^the Gram matrix is not finite: a moment overflows the float range$",
        ):
            gram_positivity(state, short + [AlgebraElement({(1, 2, 1, 2): 1.0}, FLOAT)])


# the constructor and the float arithmetic refuse a coefficient that is not
# finite, so the first three families are refused while they are built, and
# the last one, whose products overflow, by the Gram check
def _huge():
    return AlgebraElement({(1,): 1e200}, FLOAT).scale(1e200)


@pytest.mark.parametrize(
    "family",
    [
        lambda: [_huge() - _huge()],
        lambda: [_huge()],
        lambda: [AlgebraElement({(): -1e200j}, FLOAT).scale(1e200), AlgebraElement.unit(FLOAT)],
        lambda: [AlgebraElement({(1,): 1e200}, FLOAT), AlgebraElement({(2,): 1e200}, FLOAT)],
    ],
    ids=["nan", "inf", "imaginary-inf", "overflowing-products"],
)
def test_gram_refuses_a_matrix_that_is_not_finite(family):
    state = QuasifreeState(vacuum_mode_kernel([1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="not finite"):
            gram_positivity(state, family())


def test_gram_refuses_a_moment_past_the_float_range():
    # every kernel entry 1e200: the moment of star(a) a = phi2 phi1 phi1 phi2
    # sums products of two entries, each 1e400
    state = QuasifreeState(TwoPointKernel({(i, j): 1e200 for i in (1, 2) for j in (1, 2)}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="a moment overflows the float range"):
            gram_positivity(state, [AlgebraElement({(1, 2): 1.0}, FLOAT)])


def test_gram_refuses_a_symmetrisation_past_the_float_range():
    # G = diag(1e308, 1e308) is finite, but its symmetrisation and trace are
    # not; that is refused, not reported as a NaN eigenvalue
    state = QuasifreeState(TwoPointKernel({(1, 1): 1, (2, 2): 1, (1, 2): 0, (2, 1): 0}))
    family = [AlgebraElement({(1,): 1e154}, FLOAT), AlgebraElement({(2,): 1e154j}, FLOAT)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="not finite"):
            gram_positivity(state, family)


# ------------------------------------------------------ the public boundary

_BASE = vacuum_mode_kernel([1.0, 0.7])


def _raising_callback(i, j):
    return 1 / 0


@pytest.mark.parametrize(
    "call",
    [
        lambda: npoint(None, [1, 1]),
        lambda: evaluate(QuasifreeState(vacuum_mode_kernel([1.0])), "x"),
        lambda: evaluate(None, AlgebraElement.unit(FLOAT)),
        lambda: gram_positivity(None, [AlgebraElement.unit(FLOAT)]),
        lambda: QuasifreeState("k"),
        lambda: TwoPointKernel({(1, 2, 3): 1.0}),
        lambda: TwoPointKernel({(1,): 1.0}),
        lambda: TwoPointKernel(_raising_callback, generators=[1, 2]),
        lambda: TwoPointKernel(lambda i, j: {}[(i, j)], generators=[1]),
        lambda: TwoPointKernel({(1, 1): 10**400}),
        lambda: TwoPointKernel({(1, 1): 1.0}, pairing=5),
        lambda: TwoPointKernel({(1, 1): 1.0, (1, 2): complex(1.7e308, 1.7e308)}),
        lambda: TwoPointKernel(_BASE.entries, pairing=PairingForm({(1, 2): 10**400})),
    ],
    ids=[
        "npoint-state", "evaluate-element", "evaluate-state", "gram-state", "state-kernel",
        "three-index-key", "one-index-key", "raising-callback",
        "key-error-callback", "entry-out-of-float-range", "pairing-not-a-form",
        "modulus-out-of-float-range", "pairing-out-of-float-range",
    ],
)
def test_quasifree_boundary_refuses_foreign_input(call):
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize("scale", [1e150, 1e200, 1e300])
def test_pair_bound_is_checked_near_the_float_range(scale):
    # every term of the bound is quadratic in the kernel: scaling a valid
    # kernel keeps it valid, and scaling the violating one keeps it violating
    QuasifreeState(TwoPointKernel({k: v * scale for k, v in _BASE.entries.items()}))
    bad = {(1, 1): 0.1, (2, 2): 0.1, (1, 2): 0.5j, (2, 1): -0.5j}
    with pytest.raises(KernelInconsistencyError, match="pair bound"):
        QuasifreeState(TwoPointKernel({k: v * scale for k, v in bad.items()}))


# every name in quasifree.__all__, fed junk states, kernels, labels,
# elements and families, NaN, +-inf and numbers past the float range
_specials = st.sampled_from(
    [math.nan, math.inf, -math.inf, complex(0, math.nan), complex(1.7e308, 1.7e308),
     1e200, 1e-320, 10**400, 2.5]
)
_label_junk = st.one_of(
    _specials, st.none(), st.text(max_size=3), st.integers(-3, 9), st.just((1.5, 2))
)
_junk = st.one_of(_label_junk, st.sampled_from([[1, 2], [[1, 2], [3]], {"a": 1}]))
_gens = st.one_of(st.integers(0, 5), _label_junk)
_values = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 0.5j, -0.5j, 1e150, Fraction(1, 3), 2]), _specials,
    st.none(), st.text(max_size=2),
)
_keys = st.integers(0, 5).flatmap(
    lambda i: st.tuples(st.integers(1, 4), st.integers(1, 4)) if i < 3 else st.one_of(
        st.tuples(_gens, _gens), st.tuples(_gens), st.tuples(_gens, _gens, _gens),
        st.sampled_from([None, 5, "ab", 1.5]),
    )
)
_pairings = st.sampled_from(
    [None, None, _BASE.pairing, PairingForm({(1, 2): 10**400}), 5, "E"]
)
_gen_lists = st.one_of(
    st.none(), st.lists(st.integers(0, 5), max_size=4), st.sampled_from([[1.5], "ab", 5]),
)


def _table_arg(draw):
    table = dict(_BASE.entries) if draw(st.booleans()) else {}
    table.update(draw(st.dictionaries(_keys, _values, max_size=3)))
    shape = draw(st.sampled_from(["dict", "pairs", "callback", "raising", "junk"]))
    if shape == "pairs":
        return list(table.items())
    if shape == "callback":
        return lambda i, j: table[(i, j)]
    if shape == "raising":
        return _raising_callback
    return table if shape == "dict" else draw(_junk)


def _kernel(draw):
    if draw(st.booleans()):
        # the valid base kernel, scaled to the edges of the float range
        scale = draw(st.sampled_from([1.0, 1e150, 1e200, 1e300, 1e-320]))
        return TwoPointKernel({key: v * scale for key, v in _BASE.entries.items()})
    gens = draw(st.one_of(st.just(_BASE.generators), _gen_lists))
    return TwoPointKernel(_table_arg(draw), gens, draw(_pairings))


def _state(draw):
    choice = draw(st.integers(0, 3))
    if choice < 2:
        return QuasifreeState(_BASE)
    if choice == 2:
        return QuasifreeState(_kernel(draw))
    return draw(_junk)


_words = st.lists(st.integers(0, 5), max_size=5).map(tuple)


def _element(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(_junk)
    terms = draw(st.dictionaries(st.one_of(_words, _label_junk), _values, max_size=4))
    return AlgebraElement(terms, draw(st.sampled_from([FLOAT, FLOAT, "exact", "bogus"])))


def _family(draw):
    if draw(st.integers(0, 4)) == 0:
        return draw(_junk)
    return [_element(draw) for _ in range(draw(st.integers(0, 4)))]


def _indices(draw):
    labels = st.lists(st.one_of(st.integers(0, 5), _junk), max_size=6)
    return draw(st.one_of(_words, labels, _junk))


def _report_fields(rep):
    # the verdict agrees with the numbers it is read from, which are returned
    assert rep.psd == (rep.min_eigenvalue >= rep.threshold)
    return rep.min_eigenvalue, rep.threshold, rep.hermiticity_residual


_QF_CALLS = {
    "TwoPointKernel": _kernel,
    "QuasifreeState": lambda d: QuasifreeState(
        d(st.one_of(st.just(_BASE), _junk)) if d(st.booleans()) else _kernel(d)
    ),
    "GramReport": lambda d: _report_fields(gram_positivity(_state(d), _family(d))),
    "npoint": lambda d: npoint(_state(d), _indices(d)),
    "evaluate": lambda d: evaluate(_state(d), _element(d)),
    "gram_positivity": lambda d: gram_positivity(_state(d), _family(d)),
}


def test_property_calls_cover_the_quasifree_names():
    assert set(_QF_CALLS) == set(quasifree.__all__)


@pytest.mark.parametrize("name", sorted(_QF_CALLS))
@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_quasifree_raises_only_package_errors(name, data):
    # a call either raises one of the package's own errors or returns, and a
    # state value or report number it returns is finite; a numpy warning
    # escaping is an error too
    try:
        out = _QF_CALLS[name](data.draw)
    except CcrLabError:
        return
    for v in out if isinstance(out, tuple) else (out,):
        if isinstance(v, (float, complex)):
            assert cmath.isfinite(v)
