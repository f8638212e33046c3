"""Tests for covariance pairs, one-particle structures, ground states,
Fock truncations, and the equivalence probe."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccr_lab import phase_space
from ccr_lab.errors import (
    CcrLabError,
    InternalInconsistencyError,
    InvalidCovarianceError,
    SpectrumNotGappedError,
    TruncationInsufficientError,
    ValidationError,
    asymmetry,
)
from ccr_lab.phase_space import (
    FockRepresentation,
    OneParticleStructure,
    equivalence_probe,
    ground_state_mu,
    intertwiner,
    lattice_energy_form,
    one_particle,
    purity,
    standard_symplectic_form,
    validate_mu_tau,
)

from oracles import (
    ho_ground_covariance,
    lattice_dispersion,
    lattice_ground_covariance,
    lattice_thermal_covariance,
    qfirst_pure_pair,
    random_mixed_pair,
    random_pure_pair,
    rank1_hs_norm,
    standard_symplectic,
    symplectic_spectrum,
    wick_moment,
)

TAU1 = standard_symplectic(1)


# --------------------------------------------------------- validate_mu_tau

def test_oscillator_ground_pair():
    opj = validate_mu_tau(np.eye(2) / 2.0, TAU1)
    assert np.allclose(opj.J, TAU1, atol=1e-12)
    assert opj.mu_norm == pytest.approx(1.0, abs=1e-12)


def test_too_small_covariance_rejected():
    with pytest.raises(InvalidCovarianceError):
        validate_mu_tau(0.3 * np.eye(2), TAU1)


def test_zero_tau_always_valid():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    mu = A @ A.T + 0.1 * np.eye(4)
    opj = validate_mu_tau(mu, np.zeros((4, 4)))
    assert np.allclose(opj.J, 0.0)


def test_shape_and_symmetry_validation():
    with pytest.raises(ValidationError):
        validate_mu_tau(np.eye(3), TAU1)
    with pytest.raises(ValidationError):
        validate_mu_tau(np.array([[1.0, 0.5], [0.0, 1.0]]), TAU1)
    with pytest.raises(InvalidCovarianceError):
        validate_mu_tau(-np.eye(2), TAU1)


def _quartered_asymmetry(M, image):
    # errors.asymmetry's formula with np.abs temporaries
    Q = M / 4.0
    big = float(np.abs(Q).max(initial=0.0))
    return float(np.abs(Q - image(Q)).max(initial=0.0)) / big if big else 0.0


def _edge_arrays():
    tiny, rng = 2.0**-1074, np.random.default_rng(61)
    yield np.zeros((3, 3))
    yield np.zeros((0, 0))
    yield np.array([[1e308, -1e308], [1e308, 1e308]])
    yield np.array([[1e308, 1.0], [-1e308, 1e-320]])
    yield np.array([[2.0**1022, 1.0], [3.0, 2.0**1022]])
    yield np.array([[5 * tiny, 3 * tiny], [tiny, 0.0]])
    yield np.array([[1.0, 2.0**-1020], [2.0**-1021 + 2.0**-1073, 1.0]])  # quartering rounds
    yield np.array([[-0.0, 1.0], [-1.0, -0.0]])  # antisymmetric: Q + Q.T is all signed zeros
    yield np.array([[1e308 + 1e308j, 1.0], [1e-320j, -1e308]])
    yield np.array([[1.0 + 2.0**-1020 * 1j, 1.0], [3.0 * tiny, 1j]])
    for exponents in ((-1080, 1023), (-1074, -950), (1000, 1023)):
        yield np.where(rng.random((4, 4)) < 0.3, 0.0,
                       np.ldexp(rng.normal(size=(4, 4)), rng.integers(*exponents, size=(4, 4))))


@pytest.mark.parametrize("image", [np.transpose, lambda q: -q.T, lambda q: q[::-1, ::-1],
                                   lambda q: q[np.roll(np.arange(len(q)), 1)]],
                         ids=["transpose", "antisymmetric", "flip", "gather"])
def test_asymmetry_is_byte_equal_to_the_quartered_reading(image):
    # a real array is read by its max and min, with no abs temporary; the
    # value is the same float as with them on every array
    for M in _edge_arrays():
        assert asymmetry(M, image).hex() == _quartered_asymmetry(M, image).hex(), M


def _svd_mu_norm(mu, tau):
    # ||J||_mu as the largest singular value of L^{-1} (tau / 2) L^{-T}
    L = np.linalg.cholesky(mu)
    half = np.linalg.solve(L, tau / 2.0)
    return float(np.linalg.svd(np.linalg.solve(L, half.T).T, compute_uv=False)[0])


@pytest.mark.parametrize("maker", [random_pure_pair, random_mixed_pair])
def test_mu_norm_matches_svd_norm(maker):
    rng = np.random.default_rng(17)
    for n in (1, 2, 3, 6):
        mu, tau = maker(rng, n)
        assert validate_mu_tau(mu, tau).mu_norm == pytest.approx(
            _svd_mu_norm(mu, tau), rel=1e-12
        )


def test_pair_bound_at_one_plus_tol():
    # a pure pair has ||J||_mu = 1; shrinking mu by 1 + d raises it to 1 + d
    mu, tau = random_pure_pair(np.random.default_rng(19), 3)
    inside = mu / (1.0 + 0.5e-9)
    opj = validate_mu_tau(inside, tau)
    assert opj.mu_norm == pytest.approx(_svd_mu_norm(inside, tau), rel=1e-13)
    assert 1.0 < opj.mu_norm < 1.0 + 1e-9
    outside = mu / (1.0 + 2e-9)
    for entry in (validate_mu_tau, one_particle, purity):
        with pytest.raises(InvalidCovarianceError, match="pair bound"):
            entry(outside, tau)


@pytest.mark.parametrize("excess", [1e-10, 5e-10])
def test_one_particle_refuses_admitted_pair_above_one(excess):
    # inside the 1e-9 slack, ||J||_mu > 1 leaves I + iJ with a negative
    # eigenvalue; that is the input's fault, not an internal inconsistency
    mu, tau = random_pure_pair(np.random.default_rng(19), 3)
    validate_mu_tau(mu / (1.0 + excess), tau)
    with pytest.raises(InvalidCovarianceError, match=r"\|J\|_mu"):
        one_particle(mu / (1.0 + excess), tau)
    assert one_particle(mu / (1.0 + 1e-13), tau).dim == 3


def _pure_pair(kind, seed):
    # a pure pair of 1 to 4 modes: q-first, the same pair interleaved, or random
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    if kind == "random":
        return random_pure_pair(rng, n)
    mu, tau = qfirst_pure_pair(rng, n, float(10 ** rng.uniform(0, 2)))
    if kind == "interleaved":
        order = _interleaved(n)
        return mu[np.ix_(order, order)], tau[np.ix_(order, order)]
    return mu, tau


def _refuses_the_pair_bound(call):
    try:
        call()
    except CcrLabError as exc:
        return isinstance(exc, InvalidCovarianceError) and "the pair bound fails" in str(exc)
    return False


# mu / (1 + e) puts ||J||_mu of a pure pair at 1 + e.  At e = 1e-9 these
# pairs lie within roundoff of the bound, where separate computations of it
# (a Cholesky probe, eigvalsh, a complex eigh) disagree; one admission,
# _frame's, decides it for every entry
@pytest.mark.parametrize("excess", [5e-10, 1e-9, 2e-9])
@pytest.mark.parametrize(
    "kind, seed",
    [("qfirst", 9), ("qfirst", 51), ("qfirst", 92), ("interleaved", 9),
     ("interleaved", 56), ("random", 24), ("random", 54)],
)
def test_every_entry_admits_the_same_pairs(kind, seed, excess):
    mu, tau = _pure_pair(kind, seed)
    mu = mu / (1.0 + excess)
    calls = [
        lambda: validate_mu_tau(mu, tau),
        lambda: one_particle(mu, tau),
        lambda: purity(mu, tau),
        lambda: equivalence_probe(mu, 2.0 * mu, tau),
        lambda: equivalence_probe(2.0 * mu, mu, tau),
    ]
    refused = [_refuses_the_pair_bound(call) for call in calls]
    assert refused in ([True] * 5, [False] * 5)


# ------------------------------------------------------------ one_particle

def test_pure_single_mode_structure():
    s = one_particle(np.eye(2) / 2.0, TAU1)
    assert s.dim == 1
    v = s.inner([1.0, 0.0], [0.0, 1.0])
    assert v == pytest.approx(0.5j, abs=1e-12)


def test_reconstruction_random_valid_pairs():
    rng = np.random.default_rng(3)
    for maker in (random_pure_pair, random_mixed_pair):
        mu, tau = maker(rng, 3)
        s = one_particle(mu, tau)
        scale = max(1.0, abs(mu).max(), abs(tau).max())
        for _ in range(20):
            x = rng.normal(size=6)
            y = rng.normal(size=6)
            want = x @ mu @ y + 0.5j * (x @ tau @ y)
            assert abs(s.inner(x, y) - want) <= 1e-12 * scale * 40


def test_reconstruction_residual_is_reported():
    rng = np.random.default_rng(23)
    mu, tau = random_mixed_pair(rng, 3)
    s = one_particle(mu, tau)
    want = np.abs(s.K.conj().T @ s.K - (mu + 0.5j * tau)).max()
    assert s.reconstruction_residual == want
    assert s.reconstruction_residual <= 1e-11 * max(1.0, np.abs(mu).max())


def test_mixed_state_doubles_dimension():
    rng = np.random.default_rng(5)
    mu, tau = random_mixed_pair(rng, 2)
    assert one_particle(mu, tau).dim == 4
    mu_p, tau_p = random_pure_pair(rng, 2)
    assert one_particle(mu_p, tau_p).dim == 2


@pytest.mark.parametrize("dim", [1, 3])
def test_odd_dimension_with_zero_tau_is_one_block(dim):
    # an odd pair never splits: J = 0, so the structure keeps every direction
    mu, tau = np.eye(dim) / 2.0, np.zeros((dim, dim))
    s = one_particle(mu, tau)
    assert s.dim == dim and s.K.shape == (dim, dim)
    assert s.reconstruction_residual <= 1e-11
    assert validate_mu_tau(mu, tau).mu_norm == 0.0
    assert purity(mu, tau).verdict == "mixed"


def test_intertwiner_between_equal_inputs():
    rng = np.random.default_rng(11)
    mu, tau = random_mixed_pair(rng, 2)
    s1 = one_particle(mu, tau)
    s2 = one_particle(mu, tau)
    V = intertwiner(s1, s2)
    assert np.allclose(V @ s1.K, s2.K, atol=1e-9)
    assert np.allclose(V.conj().T @ V, np.eye(s1.dim), atol=1e-9)


def _direct(**fields):
    # a structure built field by field, from a valid one's fields by default
    s = one_particle(np.eye(2) / 2.0, TAU1)
    return OneParticleStructure(**{**dataclasses.asdict(s), **fields})


def test_structure_built_directly_reads_its_fields():
    s = _direct(K=one_particle(np.eye(2) / 2.0, TAU1).K.tolist(), dim=np.int64(1))
    assert s.K.dtype == complex and type(s.dim) is int
    assert FockRepresentation(s, 2).vacuum_npoint([[1.0, 0.0]] * 2) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "fields",
    [
        dict(K=5, mu=None, tau=None, dim="x"),
        dict(K=[[math.nan, 0.0]]),
        dict(K=[[1.0, 0.0, 0.0]]),
        dict(K=[1.0, 0.0]),
        dict(K=np.zeros((0, 2))),
        dict(mu=np.eye(3)),
        dict(tau=[[0.0, "a"], [0.0, 0.0]]),
        dict(dim=2),
        dict(dim=1.0),
        dict(reconstruction_residual=math.nan),
    ],
    ids=["junk", "K-nan", "K-too-wide", "K-vector", "K-empty", "mu-shape", "tau-string",
         "dim-mismatch", "dim-float", "residual-nan"],
)
def test_structure_built_directly_refuses_bad_fields(fields):
    with pytest.raises(ValidationError):
        FockRepresentation(_direct(**fields), 2)


def test_intertwiner_refuses_structures_it_cannot_relate():
    s = one_particle(np.eye(2) / 2.0, TAU1)
    wide = _direct(K=[[1.0, 0.0, 0.0, 0.0]], mu=np.eye(4), tau=np.zeros((4, 4)))  # 4 coordinates
    flat = _direct(K=[[1.0, 0.0], [1.0, 0.0]], dim=2)  # rank 1 in C^2
    for a, b in ((s, wide), (flat, flat)):
        with pytest.raises(ValidationError):
            intertwiner(a, b)


# ------------------------------------------------ one_particle's frame route

def _qfirst(n, squeeze=1.0):
    rng = np.random.default_rng(100 * n + round(math.log10(squeeze)))
    return qfirst_pure_pair(rng, n, squeeze)


def _interleaved(n):
    # positions of (q_1, p_1, q_2, p_2, ...) in the (q_1..q_N, p_1..p_N) order
    return np.ravel(np.column_stack([np.arange(n), np.arange(n) + n]))


def _spy(monkeypatch):
    # the names of the np.linalg factorizations called, in order
    calls = []
    for name in ("eigh", "cholesky"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, name=name, real=real: calls.append(name) or real(a))
    return calls


def _within_contract(K, mu, tau):
    target = mu + 0.5j * tau
    return np.abs(K.conj().T @ K - target).max() <= 1e-11 * max(1.0, np.abs(target).max())


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("squeeze", [1.0, 1e2])
def test_frame_route_reproduces_a_qfirst_pure_pair(n, squeeze, monkeypatch):
    mu, tau = _qfirst(n, squeeze)
    calls = _spy(monkeypatch)
    s = one_particle(mu, tau)
    assert "eigh" not in calls and s.dim == n
    assert _within_contract(s.K, mu, tau)
    bound = 1e-11 * max(1.0, np.abs(mu).max())
    rng = np.random.default_rng(n)
    for x, y in rng.normal(size=(10, 2, 2 * n)):
        want = x @ mu @ y + 0.5j * (x @ tau @ y)
        assert abs(s.inner(x, y) - want) <= bound * np.abs(x).sum() * np.abs(y).sum()


@pytest.mark.parametrize("n", [2, 3, 8])
def test_frame_route_is_unitarily_equivalent_to_the_spectral_route(n, monkeypatch):
    # the same state in the order (q_1, p_1, q_2, p_2, ...) has tau[:n, :n] != 0
    # and takes the spectral route; its K, with columns put back in the
    # (q, p) order, is a structure of the same pair
    mu, tau = _qfirst(n)
    order = _interleaved(n)
    calls = _spy(monkeypatch)
    frame = one_particle(mu, tau)
    spectral = one_particle(mu[np.ix_(order, order)], tau[np.ix_(order, order)])
    assert calls.count("eigh") == 1 and frame.dim == spectral.dim == n
    back = OneParticleStructure(K=spectral.K[:, np.argsort(order)], mu=mu, tau=tau, dim=n,
                                reconstruction_residual=spectral.reconstruction_residual)
    V = intertwiner(frame, back)
    assert np.abs(V.conj().T @ V - np.eye(n)).max() <= 1e-12
    assert np.abs(V @ frame.K - back.K).max() <= 1e-12 * np.abs(back.K).max()
    if n > 2:
        return
    reps = [FockRepresentation(s, cutoff=4) for s in (frame, back)]
    basis = np.eye(2 * n)
    omega = lambda i, j: mu[i, j] + 0.5j * tau[i, j]  # noqa: E731
    for word in ((0, 3), (1, 2, 2, 0), (3, 3, 1, 2)):
        want = wick_moment(word, omega)
        got = [rep.vacuum_npoint(basis[list(word)]) for rep in reps]
        assert got == [pytest.approx(want, rel=1e-10, abs=1e-12)] * 2


def test_frame_route_solves_no_eigenproblem(monkeypatch):
    mu, tau = lattice_ground_covariance(8, 0.5, 1.0), standard_symplectic_form(8)
    calls = _spy(monkeypatch)
    assert one_particle(mu, tau).dim == 8 and "eigh" not in calls
    # a mixed pair passes the zero-block test but not the purity probe
    calls.clear()
    assert one_particle(1.5 * mu, tau).dim == 16 and calls.count("eigh") == 1
    # a pair with tau[:N, :N] != 0 is not probed for purity: the frame's
    # factor and its pair-bound probe are the only Cholesky factorizations
    calls.clear()
    order = _interleaved(8)
    assert one_particle(mu[np.ix_(order, order)], tau[np.ix_(order, order)]).dim == 8
    assert calls == ["cholesky", "cholesky", "eigh"]


# mu (1 + 3e-10) has every singular value of Jt below 1 - 2e-10, which the
# spectral route's keep rule reads as mixed.  On the sheared pair of seed 14
# the frame K of mu (1 + 1e-9) would meet the residual bound with dim 1, so
# the purity probe alone keeps that pair off the frame route.
@pytest.mark.parametrize(
    "seed, n, scale",
    [(100 * n, n, scale) for scale in (1.5, 1.0 + 3e-10) for n in (1, 3, 8)]
    + [(14, 1, 1.0 + 1e-9)],
)
def test_mixed_qfirst_pair_takes_the_spectral_route(seed, n, scale):
    mu, tau = qfirst_pure_pair(np.random.default_rng(seed), n)
    s = one_particle(scale * mu, tau)
    assert s.dim == 2 * n and _within_contract(s.K, scale * mu, tau)


# on the squeezed pair of seed 35 the frame K of mu / (1 + 1.5e-9) would meet
# the residual bound, so the bound probe alone keeps it off the frame route
@pytest.mark.parametrize(
    "seed, n, squeeze, excess",
    [(100 * n, n, 1.0, 2e-9) for n in (1, 3, 8)] + [(35, 3, 1e2, 1.5e-9)],
)
def test_qfirst_pair_past_the_bound_is_refused(seed, n, squeeze, excess):
    mu, tau = qfirst_pure_pair(np.random.default_rng(seed), n, squeeze)
    with pytest.raises(InvalidCovarianceError, match="pair bound"):
        one_particle(mu / (1.0 + excess), tau)


@pytest.mark.parametrize("excess", [1e-10, 5e-10])
@pytest.mark.parametrize(
    "mu, tau",
    [(np.eye(6) / 2.0, standard_symplectic_form(3)),
     (lattice_ground_covariance(16, 0.5, 1.0), standard_symplectic_form(16))],
    ids=["oscillators", "chain"],
)
def test_frame_route_refuses_a_qfirst_pair_above_one(mu, tau, excess):
    # mu / (1 + d) moves the frame K's K^H K off mu + (i/2) tau by 0.3 d (chain)
    # to 2 d (oscillators) times max|mu|, past the 1e-11 bound, so the pair
    # falls through to the spectral route and its refusal
    validate_mu_tau(mu / (1.0 + excess), tau)
    with pytest.raises(InvalidCovarianceError, match=r"\|J\|_mu"):
        one_particle(mu / (1.0 + excess), tau)


def test_frame_route_reconstruction_check_negative_control(monkeypatch):
    # a Cholesky factor off by 1e-8 of itself fails the residual bound on both
    # routes, so the frame route falls through and the spectral route raises
    mu, tau = _qfirst(2)
    frame = phase_space._frame

    def skewed(*args):
        f = frame(*args)
        return f._replace(L=f.L * (1.0 + 1e-8))

    monkeypatch.setattr(phase_space, "_frame", skewed)
    with pytest.raises(InternalInconsistencyError, match="reconstruction residual"):
        one_particle(mu, tau)


def _exact_residual(K, mu, tau):
    # max |K^H K - (mu + (i/2) tau)| at 40 digits
    with mpmath.workdps(40):
        D = mpmath.matrix(K.tolist()).H * mpmath.matrix(K.tolist()) - mpmath.matrix(
            (mu + 0.5j * tau).tolist())
        return float(max(abs(d) for d in D))


@pytest.mark.parametrize("n, squeeze", [(1, 1.0), (3, 1e2), (8, 10.0)])
def test_split_frame_route_checks_k_in_real_blocks(n, squeeze, monkeypatch):
    # on a q-p split frame K^H K is checked in real N x N blocks, with no
    # complex product: its residual is the complex one to roundoff.  tau's
    # p-q block is off by 5e-13 of itself, which tau's antisymmetry check
    # admits, so the residual's p-q block is not the q-p block's transpose
    mu, tau = qfirst_pure_pair(np.random.default_rng(7 * n), n, squeeze, shear=False)
    tau[n:, :n] *= 1.0 + 5e-13
    assert len(phase_space._parts(mu, tau)) == 2
    scale = max(1.0, np.abs(mu).max(), np.abs(tau).max() / 2.0)
    with monkeypatch.context() as m:
        m.setattr(phase_space, "_residual", lambda *a: pytest.fail("complex K^H K"))
        s = one_particle(mu, tau)
    assert s.dim == n
    assert abs(s.reconstruction_residual - _exact_residual(s.K, mu, tau)) <= 1e-15 * scale
    # half off by 1e-6 of itself fails the blocks' check, so the pair falls
    # through to the spectral route, which does not read half; L off by
    # 1e-8 fails both routes
    frame = phase_space._frame
    for field_, skew in (("half", 1e-6), ("L", 1e-8)):
        monkeypatch.setattr(phase_space, "_frame", lambda *a: (
            lambda f: f._replace(**{field_: getattr(f, field_) * (1.0 + skew)}))(frame(*a)))
        if field_ == "L":
            with pytest.raises(InternalInconsistencyError, match="reconstruction residual"):
                one_particle(mu, tau)
        else:
            calls = _spy(monkeypatch)
            assert one_particle(mu, tau).dim == n and calls.count("eigh") == 1


# Pairs the spectral route refuses as "no one-particle structure reproduces
# the pair" and the frame route admits, its K meeting the 1e-11 bound:
# a pure pair with cond(mu) about 7.5e9, where the complex eigensolver's
# roundoff reads ||J||_mu past 1, and a pair inside the bound's 1e-9 slack
# (||J||_mu = 1 + 5e-10) whose frame K misses only entries far below max|mu|.
@pytest.mark.parametrize(
    "seed, n, squeeze, excess", [(2002, 2, 1e2, 0.0), (1000, 1, 1.0, 5e-10)],
    ids=["ill-conditioned", "inside-the-slack"],
)
def test_frame_route_admits_pairs_the_spectral_route_refuses(seed, n, squeeze, excess,
                                                             monkeypatch):
    mu, tau = qfirst_pure_pair(np.random.default_rng(seed), n, squeeze)
    mu = mu / (1.0 + excess)
    s = one_particle(mu, tau)
    assert s.dim == n
    exact = _exact_residual(s.K, mu, tau)
    assert exact <= 1e-11 * max(1.0, np.abs(mu).max())
    assert abs(s.reconstruction_residual - exact) <= 1e-15 * max(1.0, np.abs(mu).max())
    monkeypatch.setattr(phase_space, "_positive", lambda M: False)  # no frame route
    with pytest.raises(InvalidCovarianceError, match="no one-particle structure reproduces"):
        one_particle(mu, tau)


# ----------------------------------------------------------------- purity

def test_purity_closed_form_cases():
    assert purity(np.eye(2) / 2.0, TAU1).pure
    rep = purity(np.eye(2), TAU1)
    assert not rep.pure
    assert rep.residual == pytest.approx(0.75, abs=1e-12)
    assert not purity(np.eye(4), np.zeros((4, 4))).pure


def test_purity_double_check_random_pairs():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 5):
        mu, tau = random_pure_pair(rng, n)
        assert purity(mu, tau).pure
        mu, tau = random_mixed_pair(rng, n)
        assert not purity(mu, tau).pure


def test_purity_reads_an_ill_conditioned_pure_pair_as_pure():
    # cond(mu) = 2.6e8: formed as mu^{-1} tau / 2, J^2 + I carries 1.8e-10
    # of roundoff; the frame's G = Jt^T Jt keeps unit scale
    rng = np.random.default_rng(29)
    n = int(rng.integers(1, 5))
    mu, tau = qfirst_pure_pair(rng, n, float(10 ** rng.uniform(0, 3)))
    rep = purity(mu, tau)
    assert rep.pure and rep.residual <= 1e-11


def test_purity_at_the_edges_of_the_float_range():
    # validate_mu_tau admits every pair; the verdict is scale invariant
    assert purity(1e-320 * np.eye(2), np.zeros((2, 2))).verdict == "mixed"
    assert purity(1e-300 * np.eye(2) / 2.0, 1e-300 * TAU1).verdict == "pure"
    assert purity(1e300 * np.eye(2) / 2.0, 1e300 * TAU1).verdict == "pure"
    assert purity(np.diag([1e150, 1e-150]) / 2.0, TAU1).verdict == "pure"


# the frame reads mu in its own Cholesky factor, so a diagonal spanning
# more than the float range keeps both entries
@pytest.mark.parametrize(
    "mu", [np.diag([1e300, 1e-300]), np.diag([1e308, 1e-320])],
    ids=["1e300-1e-300", "1e308-1e-320"],
)
def test_purity_admits_a_diagonal_wider_than_the_float_range(mu):
    zero = np.zeros((2, 2))
    validate_mu_tau(mu, zero)
    assert purity(mu, zero).verdict == "mixed"


def test_purity_reads_a_covariance_admitted_by_roundoff_as_mixed():
    # taken exactly as floats, this mu has det -2.5e-52, so the 2 x 2 closed
    # form sigma^2 = tau_12^2 / (4 det mu) is -1.76: no state has the pair.
    # _frame admits it on a Cholesky pivot of roundoff size (2.8e-17), and
    # the frame's spectrum, 0.80 twice, reads mixed
    a, b, c = 7.1943437380553370e-19, -1.7084594178432713e-18, 4.0571227740729871e-18
    t = 4.2138477380441937e-26
    assert Fraction(t) ** 2 / (4 * (Fraction(a) * Fraction(c) - Fraction(b) ** 2)) < -1.7
    assert purity(np.array([[a, b], [b, c]]), t * TAU1).verdict == "mixed"


def test_frame_refuses_a_j_that_is_not_mu_antisymmetric():
    # tau's diagonal entry, 1e-13 of its largest, passes tau's own 1e-12
    # antisymmetry check; in the frame of mu = diag(1, 1e-12) it becomes
    # Jt[1, 1] = tau[1, 1] / (2 mu[1, 1]) = 5e-8, past the 1e-8 bound, while
    # every entry of Jt stays below 1
    t = 1e-6
    tau = np.array([[0.0, t], [-t, 1e-13 * t]])
    for entry in (validate_mu_tau, one_particle, purity):
        with pytest.raises(InvalidCovarianceError, match="^J is not mu-antisymmetric$"):
            entry(np.diag([1.0, 1e-12]), tau)


def test_pair_past_the_bound_on_a_near_singular_mu_is_refused():
    # mu's eigenvalues are 1 and about 1e-17, so a float eigensolver cannot
    # read det mu; taken exactly as given, det mu = 1.03e-17 and the 2 x 2
    # closed form ||J||_mu^2 = tau_12^2 / (4 det mu) = 1.276 puts the pair
    # past the bound.  Rounded in the frame, Jt is not antisymmetric either.
    a, b, c = 0.47548810835705707, 0.4993988057335385, 0.5245118916429428
    t = 7.265657890607472e-09
    norm_sq = Fraction(t) ** 2 / (4 * (Fraction(a) * Fraction(c) - Fraction(b) ** 2))
    assert norm_sq > Fraction(5, 4)
    for entry in (validate_mu_tau, one_particle, purity):
        with pytest.raises(InvalidCovarianceError, match="^J is not mu-antisymmetric$"):
            entry(np.array([[a, b], [b, c]]), t * TAU1)


def test_one_particle_reconstruction_check_negative_control(monkeypatch):
    # a Cholesky factor off by 1e-8 of itself builds a K whose K^H K is
    # (1 + 1e-8)^2 mu + (i/2) tau: past the 1e-11 bound, on a valid pair
    mu, tau = random_pure_pair(np.random.default_rng(23), 2)
    one_particle(mu, tau)
    frame = phase_space._frame

    def skewed(*args):
        f = frame(*args)
        return f._replace(L=f.L * (1.0 + 1e-8))

    monkeypatch.setattr(phase_space, "_frame", skewed)
    with pytest.raises(InternalInconsistencyError, match="reconstruction residual"):
        one_particle(mu, tau)


@pytest.mark.parametrize("skew, verdict", [(1e-3, "mixed"), (-1e-3, "mixed"), (1e-9, "pure")])
def test_purity_verdict_negative_control(skew, verdict, monkeypatch):
    # a frame's Jt off by 1e-3 of itself puts its spectrum at (1 +- 1e-3)^2,
    # 2e-3 from 1, past the 1e-8 bound; off by 1e-9 it stays inside
    mu, tau = np.eye(2) / 2.0, TAU1
    assert purity(mu, tau).pure
    frame = phase_space._frame

    def skewed(*args):
        f = frame(*args)
        Jt = f.Jt * (1.0 + skew)
        return f._replace(Jt=Jt, G=Jt.T @ Jt)

    monkeypatch.setattr(phase_space, "_frame", skewed)
    rep = purity(mu, tau)
    assert rep.verdict == verdict
    assert rep.residual == pytest.approx(abs(2 * skew + skew * skew), rel=1e-6)


# ------------------------------------------ purity against independent oracles

def _oracle_pair(kind, n):
    rng = np.random.default_rng(100 + n)
    if kind == "random-pure":
        return random_pure_pair(rng, n)
    if kind == "random-mixed":
        return random_mixed_pair(rng, n)
    mu, tau = qfirst_pure_pair(rng, n, 30.0, shear=kind == "qfirst")
    return (2.5 * mu if kind == "split-mixed" else mu), tau


@pytest.mark.parametrize("route", ["as-given", "interleaved"])
@pytest.mark.parametrize("kind", ["random-pure", "random-mixed", "qfirst", "split-pure",
                                  "split-mixed"])
def test_purity_spectrum_matches_the_symplectic_spectrum_oracle(kind, route):
    # the oracle shares no Cholesky frame with purity; a q-p split pair takes
    # the split route as given and the one-block route interleaved
    for n in (1, 2, 3, 4):
        mu, tau = _oracle_pair(kind, n)
        if route == "interleaved":
            order = _interleaved(n)
            mu, tau = mu[np.ix_(order, order)], tau[np.ix_(order, order)]
        split = kind.startswith("split") and (route == "as-given" or n == 1)
        assert len(phase_space._parts(mu, tau)) == (2 if split else 1)
        want = symplectic_spectrum(mu, tau)
        rep = purity(mu, tau)
        assert rep.spectrum.shape == (2 * n,)
        assert np.abs(rep.spectrum - want).max() <= 1e-14 * np.linalg.cond(mu)
        assert rep.residual == np.abs(rep.spectrum - 1.0).max()
        assert rep.verdict == ("mixed" if "mixed" in kind else "pure")
        assert (np.abs(want - 1.0).max() <= 1e-8) == rep.pure


def test_purity_reads_the_thermal_chain_spectrum():
    # at inverse temperature beta mode k's sigma is tanh(beta omega_k / 2),
    # read by each of G's two blocks
    n, a, m, beta = 128, 0.25, 1.0, 2.0
    omegas = np.array([lattice_dispersion(2.0 * math.pi * k / (n * a), m, a) for k in range(n)])
    tau = standard_symplectic_form(n)
    rep = purity(lattice_thermal_covariance(n, a, m, beta), tau)
    want = np.sort(np.repeat(np.tanh(beta * omegas / 2.0) ** 2, 2))
    assert np.abs(rep.spectrum - want).max() <= 1e-13
    assert rep.verdict == "mixed"
    assert purity(lattice_thermal_covariance(n, a, m, 200.0), tau).verdict == "pure"


# pure pairs with mu divided by 1 + 1e-9, on the bound ||J||_mu = 1 + 1e-9,
# that _frame admits: the spectrum reads (1 + 1e-9)^2, 2e-9 from 1 and inside
# the 1e-8 bound, while |Jt^2 + I| = 2e-9 lies past 1e-10, so a second test
# of the same spectrum with a tighter bound would disagree on them
@pytest.mark.parametrize("seed", [None, 3, 9])
def test_purity_reads_a_pair_on_the_bound_as_pure(seed):
    if seed is None:
        mu, tau = np.eye(2) / 2.0, TAU1
    else:  # q-first split pure pairs
        rng = np.random.default_rng([seed, 31])
        n = int(rng.integers(1, 5))
        mu, tau = qfirst_pure_pair(rng, n, float(10 ** rng.uniform(0, 3)), shear=False)
    mu = mu / (1.0 + 1e-9)
    assert validate_mu_tau(mu, tau).mu_norm == pytest.approx(1.0 + 1e-9, abs=1e-12)
    rep = purity(mu, tau)
    assert rep.verdict == "pure" and rep.residual == pytest.approx(2e-9, abs=1e-11)


# random pure pairs with cond(mu) from 9e6 to 1.3e8.  Their exact spectrum
# lies within 2.5e-9 of 1 (symplectic_spectrum), but a solve with mu reads it
# 1.1e-8 to 9.8e-8 from 1, past the bound: the frame's spectrum does not
@pytest.mark.parametrize("seed", [615, 1886, 2897])
def test_purity_reads_ill_conditioned_pure_pairs_as_the_oracle_does(seed):
    rng = np.random.default_rng(seed)
    mu, tau = random_pure_pair(rng, int(rng.integers(1, 5)))
    want = symplectic_spectrum(mu, tau)
    rep = purity(mu, tau)
    assert np.abs(want - 1.0).max() <= 2.5e-9
    assert np.abs(rep.spectrum - want).max() <= 1e-14 * np.linalg.cond(mu)
    assert rep.verdict == "pure"


# -------------------------------------------------------- ground_state_mu

def test_single_mode_ground_covariance():
    omega = 1.7
    A = np.diag([omega * omega, 1.0])
    mu = ground_state_mu(A, TAU1)
    assert np.allclose(mu, ho_ground_covariance(omega), atol=1e-12)
    assert purity(mu, TAU1).pure


def test_diagonal_modes_block_structure():
    omegas = [0.5, 1.0, 2.0]
    n = len(omegas)
    A = np.diag([w * w for w in omegas] + [1.0] * n)
    tau = standard_symplectic_form(n)
    mu = ground_state_mu(A, tau)
    for k, w in enumerate(omegas):
        assert mu[k, k] == pytest.approx(w / 2.0, abs=1e-12)
        assert mu[n + k, n + k] == pytest.approx(1.0 / (2.0 * w), abs=1e-12)
    off = mu - np.diag(np.diag(mu))
    assert np.abs(off).max() < 1e-12


def test_lattice_ground_state_and_gap_guard():
    A, tau = lattice_energy_form(6, 0.5, mass=1.0)
    mu = ground_state_mu(A, tau)
    assert purity(mu, tau).pure
    A0, tau0 = lattice_energy_form(6, 0.5, mass=0.0)
    with pytest.raises(SpectrumNotGappedError):
        ground_state_mu(A0, tau0)


def test_ground_state_under_symplectic_change_of_basis():
    # x = S y with S tau S^T = tau turns energy A into S^T A S and the
    # ground state mu into S^T mu S; start from two decoupled oscillators
    omegas = (0.7, 2.3)
    tau = standard_symplectic(2)
    A0 = np.diag([omegas[0] ** 2, 1.0, omegas[1] ** 2, 1.0])
    mu0 = np.zeros((4, 4))
    for k, w in enumerate(omegas):
        mu0[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = ho_ground_covariance(w)
    rng = np.random.default_rng(29)
    for _ in range(3):
        H = rng.normal(size=(4, 4))
        S = _expm(0.6 * tau @ (H + H.T))  # tau H with H symmetric is Hamiltonian
        assert np.allclose(S @ tau @ S.T, tau, atol=1e-12)
        want = S.T @ mu0 @ S
        got = ground_state_mu(S.T @ A0 @ S, tau)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("spacing, mass", [(0.5, 1.0), (0.37, 0.6)])
def test_ground_state_of_long_chain_matches_mode_sum(spacing, mass):
    A, tau = lattice_energy_form(128, spacing, mass)
    want = lattice_ground_covariance(128, spacing, mass)
    assert np.abs(ground_state_mu(A, tau) - want).max() <= 1e-10


def test_indefinite_energy_form_rejected():
    A = np.diag([1.0, -0.5, 2.0, 1.0])
    with pytest.raises(InvalidCovarianceError):
        ground_state_mu(A)
    # same in a rotated basis, where no diagonal entry is negative
    Q = np.linalg.qr(np.random.default_rng(31).normal(size=(4, 4)))[0]
    assert np.diag(Q.T @ A @ Q).min() > 0
    with pytest.raises(InvalidCovarianceError):
        ground_state_mu(Q.T @ A @ Q)


def test_degenerate_form_has_no_gapped_ground_state():
    # tau without a q-p coupling for one mode leaves that mode at zero
    # frequency although the energy form is positive definite
    tau = standard_symplectic(3)
    tau[4:, 4:] = 0.0
    rng = np.random.default_rng(37)
    M = rng.normal(size=(6, 6))
    A = M @ M.T + np.eye(6)
    Q = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    for T in (tau, Q.T @ tau @ Q):
        with pytest.raises(SpectrumNotGappedError):
            ground_state_mu(A, T)


# the positivity check is a Cholesky probe of A - 1e-12 I (max|A| = 1); its
# refusals name the smallest eigenvalue's band as the spectrum did
@pytest.mark.parametrize(
    "lam, refusal",
    [(-2e-10, "must be positive")]
    + [(lam, "null direction") for lam in (-5e-11, 0.0, 5e-13, 9e-13)]
    + [(lam, None) for lam in (1.1e-12, 2e-12, 1e-11)],
)
def test_ground_state_positivity_probe_at_its_thresholds(lam, refusal):
    A, tau = np.diag([1.0, lam, 1.0, 1.0]), standard_symplectic_form(2)
    if refusal is None:
        assert np.isfinite(ground_state_mu(A, tau)).all()
        return
    error = InvalidCovarianceError if refusal == "must be positive" else SpectrumNotGappedError
    with pytest.raises(error, match=refusal):
        ground_state_mu(A, tau)


def test_admitted_ground_state_solves_one_eigenproblem(monkeypatch):
    # one per diagonal block of G^T G: a q-p split form has
    # G^T G = blockdiag(D^T D, C^T C), two N x N eigenproblems; the same form
    # interleaved is coupled, one 2N x 2N.  Admission takes no spectrum of A
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append("eigvalsh"))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(("eigh", a.shape)) or eigh(a))
    A, tau = lattice_energy_form(8, 0.5, 1.0)
    ground_state_mu(A, tau)
    assert calls == [("eigh", (8, 8))] * 2
    calls.clear()
    order = _interleaved(8)
    ground_state_mu(A[np.ix_(order, order)], tau[np.ix_(order, order)])
    assert calls == [("eigh", (16, 16))]


def _split_form(n, seed):
    # energy form blockdiag(V, W) with V, W random SPD and tau's only blocks
    # a random invertible T_qp and -T_qp^T, in the (q, p) ordering
    rng = np.random.default_rng(seed)
    V, W = (M @ M.T / n + np.eye(n) for M in rng.normal(size=(2, n, n)))
    Q1, Q2 = (np.linalg.qr(M)[0] for M in rng.normal(size=(2, n, n)))
    T_qp = Q1 @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ Q2
    zero = np.zeros((n, n))
    return np.block([[V, zero], [zero, W]]), np.block([[zero, T_qp], [-T_qp.T, zero]])


@pytest.mark.parametrize("form", [
    lambda: _split_form(3, 41), lambda: _split_form(8, 42), lambda: _split_form(40, 43),
    lambda: lattice_energy_form(128, 0.1, 0.01),
], ids=["split-3", "split-8", "split-40", "lattice-128"])
def test_split_route_agrees_with_the_general_route(form):
    # the interleaved ordering P^T (.) P couples q and p in the matrix layout,
    # so the same form takes the general route there
    A, tau = form()
    n = len(A) // 2
    order = _interleaved(n)
    mu = ground_state_mu(A, tau)
    general = ground_state_mu(A[np.ix_(order, order)], tau[np.ix_(order, order)])
    assert np.array_equal(mu, mu.T) and not mu[:n, n:].any()
    scale = np.abs(mu).max()
    assert np.abs(mu[np.ix_(order, order)] - general).max() <= 1e-12 * scale
    if n == 128:
        want = lattice_ground_covariance(128, 0.1, 0.01)
        assert np.abs(mu - want).max() <= 1e-12 * scale


def test_split_route_refusals():
    # each refusal of the general route, met on a q-p split form
    A, tau = _split_form(4, 44)
    negative = A.copy()
    negative[5, 5] = -1.0  # an indefinite p block
    with pytest.raises(InvalidCovarianceError, match="must be positive"):
        ground_state_mu(negative, tau)
    T_qp = tau[:4, 4:].copy()
    T_qp[:, 0] = T_qp[:, 1]  # a singular T_qp leaves a mode at zero frequency
    zero = np.zeros((4, 4))
    with pytest.raises(SpectrumNotGappedError, match="frequency spectrum touches zero"):
        ground_state_mu(A, np.block([[zero, T_qp], [-T_qp.T, zero]]))
    with pytest.raises(SpectrumNotGappedError, match="null direction"):
        ground_state_mu(*lattice_energy_form(6, 0.5, mass=0.0))


def test_ground_state_is_invariant_under_scaling_the_energy_form():
    A, tau = lattice_energy_form(2, 0.5, 1.0)
    mu = ground_state_mu(A, tau)
    for c in (2.0**530, 2.0**-530, 2.0**1000):
        assert np.array_equal(ground_state_mu(c * A, tau), mu)
    for c in (1e160, 1e-160):  # c A is rounded, so mu agrees to roundoff
        assert np.abs(ground_state_mu(c * A, tau) - mu).max() <= 1e-14 * np.abs(mu).max()
    # tau -> c tau gives mu / c, down to where mu itself leaves the float range
    assert np.array_equal(ground_state_mu(A, 2.0**-900 * tau), 2.0**900 * mu)
    assert np.abs(ground_state_mu(np.eye(2), 1e-300 * TAU1) / 0.5e300 - np.eye(2)).max() <= 1e-15
    with pytest.raises(ValidationError, match="overflows"):
        ground_state_mu(np.eye(2), 1e-310 * TAU1)


def test_ground_state_invariance_under_flow():
    A, tau = lattice_energy_form(4, 1.0, mass=0.8)
    mu = ground_state_mu(A, tau)
    rng = np.random.default_rng(2)
    F = tau @ A
    for t in rng.uniform(-2.0, 2.0, size=3):
        S = _expm(F * t)
        assert np.allclose(S.T @ mu @ S, mu, atol=1e-9)


def _expm(M):
    # scaling and squaring with a long Taylor tail; fine at these sizes
    k = max(0, int(np.ceil(np.log2(max(1.0, np.linalg.norm(M, 1))))) + 4)
    X = M / (2.0**k)
    out = np.eye(len(M))
    term = np.eye(len(M))
    for j in range(1, 20):
        term = term @ X / j
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


# ------------------------------------------------------------------- Fock

def test_fock_ccr_on_truncated_sector():
    s = one_particle(np.eye(2) / 2.0, TAU1)
    rep = FockRepresentation(s, cutoff=4)
    a = rep._lower[0]
    comm = a @ a.T - a.T @ a
    P = rep.sector_projector(2)
    assert np.abs(P @ (comm - np.eye(rep.dim)) @ P).max() < 1e-12
    assert rep.commutator_residual([1.0, 0.0], [0.0, 1.0]) < 1e-12


def test_fock_vacuum_two_point():
    rng = np.random.default_rng(9)
    mu, tau = random_mixed_pair(rng, 1)
    rep = FockRepresentation(one_particle(mu, tau), cutoff=4)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    got = rep.vacuum_npoint([e1, e2])
    want = mu[0, 1] + 0.5j * tau[0, 1]
    assert got == pytest.approx(want, abs=1e-12)


def test_fock_four_point_matches_pairing():
    s = one_particle(np.eye(2) / 2.0, TAU1)
    rep = FockRepresentation(s, cutoff=4)
    e1 = np.array([1.0, 0.0])
    got = rep.vacuum_npoint([e1, e1, e1, e1])
    assert got == pytest.approx(3 * 0.5**2, abs=1e-10)
    with pytest.raises(TruncationInsufficientError):
        rep.vacuum_npoint([e1] * 5)


def test_fock_refuses_results_past_the_float_range():
    # a valid structure of scale 1e150: the four-point value is about 1e600
    rep = FockRepresentation(one_particle(1e300 * np.eye(2) / 2.0, 1e300 * TAU1), 4)
    assert rep.vacuum_npoint([[1.0, 0.0]] * 2) == pytest.approx(0.5e300)
    with pytest.raises(ValidationError, match="overflows"):
        rep.vacuum_npoint([[1.0, 0.0]] * 4)
    with pytest.raises(ValidationError):  # K x itself is past the range
        rep.field([1e200, 0.0])
    with pytest.raises(ValidationError, match="overflows"):
        rep.structure.inner([1e200, 0.0], [1e200, 0.0])


def test_fock_guards():
    rng = np.random.default_rng(13)
    mu, tau = random_mixed_pair(rng, 3)
    s = one_particle(mu, tau)  # dim 6 > 4
    with pytest.raises(ValidationError):
        FockRepresentation(s, cutoff=4)
    s1 = one_particle(np.eye(2) / 2.0, TAU1)
    with pytest.raises(ValidationError):
        FockRepresentation(s1, cutoff=7)


# ----------------------------------------------------- equivalence probe

def test_probe_identical_covariances():
    rng = np.random.default_rng(31)
    mu, tau = random_pure_pair(rng, 4)
    rep = equivalence_probe(mu, mu, tau, truncations=[1, 2, 4])
    assert all(h == 0.0 for h in rep.hs_norms)
    assert rep.verdict == "bounded-trend"


def test_probe_doubled_covariance_scaling():
    n = 10
    tau = standard_symplectic_form(n)
    mu1 = np.eye(2 * n)  # against tau this is a valid (mixed) pair
    mu2 = 2.0 * mu1
    rep = equivalence_probe(mu1, mu2, tau, truncations=[2, 4, 8, 10])
    for N, hs in zip(rep.truncations, rep.hs_norms):
        assert hs**2 == pytest.approx(2 * N, rel=1e-8)
    assert rep.verdict == "divergent-trend"
    assert rep.c_mins[-1] == pytest.approx(2.0, abs=1e-10)
    assert rep.c_maxs[-1] == pytest.approx(2.0, abs=1e-10)


def test_probe_rank_one_perturbation_bounded():
    n = 8
    tau = standard_symplectic_form(n)
    mu1 = np.eye(2 * n)
    v = np.zeros(2 * n)
    v[0] = 0.4
    v[1] = 0.2
    mu2 = mu1 + np.outer(v, v)
    rep = equivalence_probe(mu1, mu2, tau, truncations=[2, 4, 8])
    expected = rank1_hs_norm(np.eye(2 * 2), v[:4])
    for hs in rep.hs_norms:
        assert hs == pytest.approx(expected, rel=1e-10)
    assert rep.verdict == "bounded-trend"


def test_probe_reads_a_slope_between_the_thresholds_as_inconclusive():
    # mu2 - mu1 = diag(0.1, 0.1, 0.06, 0.06): hs grows from sqrt(0.02) to
    # sqrt(0.0272) over one doubling, a slope of 0.22, between 0.1 and 0.4
    mu2 = np.diag([1.1, 1.1, 1.06, 1.06])
    rep = equivalence_probe(np.eye(4), mu2, standard_symplectic_form(2), truncations=[1, 2])
    assert rep.hs_norms == pytest.approx((math.sqrt(0.02), math.sqrt(0.0272)), rel=1e-12)
    assert rep.verdict == "inconclusive"


def test_probe_swap_symmetry_within_constants():
    rng = np.random.default_rng(41)
    mu1, tau = random_mixed_pair(rng, 3)
    mu2, _ = random_mixed_pair(rng, 3)
    # share tau validity: scale mu2 up so both pairs satisfy the bound
    mu2 = mu2 + mu1
    r12 = equivalence_probe(mu1, mu2, tau, truncations=[3])
    r21 = equivalence_probe(mu2, mu1, tau, truncations=[3])
    hs12, hs21 = r12.hs_norms[0], r21.hs_norms[0]
    c_min, c_max = r12.c_mins[0], r12.c_maxs[0]
    assert hs12 / c_max - 1e-9 <= hs21 <= hs12 / c_min + 1e-9
    Q = np.linalg.solve(mu1, mu2 - mu1)
    assert np.abs(r12.Q - Q).max() <= 1e-10 * np.abs(Q).max()


@pytest.mark.parametrize("excess, norm", [(2e-9, r"1\.000000002"), (0.5e-9, None)])
def test_probe_pair_bound_on_either_covariance(excess, norm):
    # tau scaled by 1 + excess puts ||J||_mu of the pure mu at 1 + excess;
    # 2 mu stays far inside the bound
    mu, tau = random_pure_pair(np.random.default_rng(7), 3)
    tau = tau * (1.0 + excess)
    for mu1, mu2 in ((mu, 2.0 * mu), (2.0 * mu, mu)):
        if norm is None:
            equivalence_probe(mu1, mu2, tau)
            continue
        refusal = rf"^\|J\|_mu = {norm} exceeds 1: the pair bound fails$"
        with pytest.raises(InvalidCovarianceError, match=refusal):
            equivalence_probe(mu1, mu2, tau)


def test_probe_invalid_first_covariance():
    tau = standard_symplectic_form(2)
    with pytest.raises(InvalidCovarianceError):
        equivalence_probe(-np.eye(4), np.eye(4), tau, truncations=[2])


def test_probe_refuses_a_truncation_past_the_mode_count():
    with pytest.raises(ValidationError, match="^truncation 3 exceeds available modes 2$"):
        equivalence_probe(np.eye(4), np.eye(4), truncations=[1, 3])


def test_probe_checks_every_block_against_the_default_tau():
    # with no tau given, both covariances still go through validate_mu_tau
    with pytest.raises(InvalidCovarianceError):
        equivalence_probe(np.eye(4), -np.eye(4))
    with pytest.raises(InvalidCovarianceError, match="pair bound"):
        equivalence_probe(np.eye(4), np.eye(4) / 4.0, truncations=[1, 2])
    with pytest.raises(ValidationError, match="shape"):
        equivalence_probe(np.eye(4), np.eye(4), tau=standard_symplectic_form(3))


def _block_reference(mu1, mu2, truncations):
    # per leading block, the eigenvalues of mu1^{-1} (mu2 - mu1) directly
    out = []
    for n_modes in truncations:
        k = 2 * n_modes
        m1, m2 = mu1[:k, :k], mu2[:k, :k]
        lams = np.linalg.eigvals(np.linalg.solve(m1, m2 - m1)).real
        out.append((math.sqrt(np.sum(lams**2)), 1.0 + lams.min(), 1.0 + lams.max()))
    return out


def _assert_matches_blocks(rep, mu1, mu2):
    want = _block_reference(mu1, mu2, rep.truncations)
    got = list(zip(rep.hs_norms, rep.c_mins, rep.c_maxs))
    assert np.allclose(got, want, rtol=1e-13, atol=0.0), (got, want)


def test_probe_ladder_matches_per_block_reference_on_seeded_pairs():
    rng = np.random.default_rng(43)
    for n in (2, 3, 5):
        mu1, tau = random_mixed_pair(rng, n)
        for mu2 in (mu1 + random_mixed_pair(rng, n)[0], 1.5 * mu1):
            rep = equivalence_probe(mu1, mu2, tau, truncations=range(1, n + 1))
            _assert_matches_blocks(rep, mu1, mu2)


def test_probe_ladder_matches_per_block_reference_on_the_long_chain():
    A, tau = lattice_energy_form(128, 0.5, 1.0)
    A2, _ = lattice_energy_form(128, 0.5, 1.7)
    mu1, mu2 = ground_state_mu(A, tau), ground_state_mu(A2, tau)
    # on the split route a rung of at most 64 modes is the q block's leading
    # block; 96 modes take the q block and the p block's leading block
    rep = equivalence_probe(mu1, mu2, tau, truncations=[16, 32, 64, 96, 128])
    _assert_matches_blocks(rep, mu1, mu2)


def test_probe_checks_symmetry_at_each_block_scale():
    # the asymmetry is above 1e-12 of the first block's largest entry but
    # below 1e-12 of the whole matrix's, which a later mode makes large
    mu = np.diag([1.0, 1.0, 1e6, 1e6])
    mu[0, 1] = 2e-9
    tau = np.zeros((4, 4))
    equivalence_probe(mu, mu, tau, truncations=[2])
    with pytest.raises(ValidationError, match="symmetric"):
        equivalence_probe(mu, mu, tau, truncations=[1, 2])
    with pytest.raises(ValidationError, match="symmetric"):
        equivalence_probe(np.eye(4), mu, tau, truncations=[1, 2])


def test_probe_factors_once_and_purity_solves_one_eigenproblem(monkeypatch):
    frames, spectra = [], []
    frame, eigvalsh, eigh = phase_space._frame, np.linalg.eigvalsh, np.linalg.eigh
    monkeypatch.setattr(phase_space, "_frame", lambda *a, **k: frames.append(1) or frame(*a, **k))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(len(a)) or eigvalsh(a))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: spectra.append(len(a)) or eigh(a))
    mu, tau = random_mixed_pair(np.random.default_rng(47), 4)
    equivalence_probe(mu, 1.5 * mu, tau, truncations=[1, 2, 3, 4])
    # the pair bound of each frame is a Cholesky probe; only the ladder's
    # blocks are eigensolved
    assert len(frames) == 2 and spectra == [2, 4, 6, 8]
    spectra.clear()
    purity(mu, tau)
    assert spectra == [8]


def test_probe_report_json():
    mu = np.eye(4)
    rep = equivalence_probe(mu, mu, truncations=[1, 2])
    assert rep.verdict == "bounded-trend"
    assert rep.hs_norms == (0.0, 0.0)


# ------------------------------------------------------ the q-p split frame

def _split_pairs():
    # q-p split pairs (mu = blockdiag(mu_qq, mu_pp), tau with only its q-p
    # blocks), each with a second covariance of the same tau for the probe
    chain = lattice_ground_covariance(16, 0.5, 1.0)
    heavier = lattice_ground_covariance(16, 0.5, 1.7)
    pure, other = (qfirst_pure_pair(np.random.default_rng(seed), 5, 3.0, shear=False)
                   for seed in (51, 52))
    return {
        "chain": (chain, standard_symplectic_form(16), heavier),
        "qfirst-pure": (*pure, other[0]),
        "qfirst-mixed": (1.5 * pure[0], pure[1], 2.0 * other[0]),
    }


def _permuted(M, order):
    return M[np.ix_(order, order)]


def _close(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.abs(a - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("name", ["chain", "qfirst-pure", "qfirst-mixed"])
def test_split_frame_agrees_with_the_whole_matrix_route(name):
    # the interleaved ordering couples q and p in the matrix layout, so the
    # same pair takes the one-block route there; results are put back
    mu, tau, mu2 = _split_pairs()[name]
    n = len(mu) // 2
    order = _interleaved(n)
    back = np.argsort(order)
    whole = [_permuted(m, order) for m in (mu, tau, mu2)]
    assert len(phase_space._parts(mu, tau)) == 2
    assert len(phase_space._parts(*whole[:2])) == 1

    split_j, whole_j = validate_mu_tau(mu, tau), validate_mu_tau(*whole[:2])
    assert _close(split_j.J, _permuted(whole_j.J, back))
    assert _close(split_j.mu_norm, whole_j.mu_norm)

    s, w = one_particle(mu, tau), one_particle(*whole[:2])
    bound = 1e-11 * max(1.0, np.abs(mu + 0.5j * tau).max())
    assert s.dim == w.dim and max(s.reconstruction_residual, w.reconstruction_residual) <= bound
    w = OneParticleStructure(K=w.K[:, back], mu=mu, tau=tau, dim=w.dim,
                             reconstruction_residual=w.reconstruction_residual)
    V = intertwiner(s, w)
    assert np.abs(V.conj().T @ V - np.eye(s.dim)).max() <= 1e-12

    s, w = purity(mu, tau), purity(*whole[:2])
    assert s.verdict == w.verdict == ("mixed" if "mixed" in name else "pure")
    assert _close(s.residual, w.residual) and _close(s.spectrum, w.spectrum)

    s = equivalence_probe(mu, mu2, tau)
    w = equivalence_probe(whole[0], whole[2], whole[1])
    for field_ in ("hs_norms", "c_mins", "c_maxs"):
        assert _close(getattr(s, field_), getattr(w, field_)), field_
    assert np.abs(s.Q - _permuted(w.Q, back)).max() <= 1e-12 * np.abs(s.Q).max()


def test_split_frame_runs_in_n_by_n_blocks(monkeypatch):
    mu, tau = lattice_ground_covariance(8, 0.5, 1.0), standard_symplectic_form(8)
    mu2 = lattice_ground_covariance(8, 0.5, 1.7)
    calls = []
    for name in ("cholesky", "eigvalsh", "eigh", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda a, *b, name=name, real=real:
                            calls.append((name, a.shape)) or real(a, *b))
    validate_mu_tau(mu, tau)
    assert {shape for _, shape in calls} == {(8, 8)}  # no 16 x 16 factorization
    calls.clear()
    purity(mu, tau)
    # one spectrum per diagonal block of G, and no solve
    assert [c for c in calls if c[0] in ("solve", "eigvalsh")] == [("eigvalsh", (8, 8))] * 2
    calls.clear()
    equivalence_probe(mu, mu2, tau, truncations=[4, 8])
    # the rung at 4 modes is the q block; the top rung is both blocks
    assert [c for c in calls if c[0] == "eigvalsh"] == [("eigvalsh", (8, 8))] * 3


def _qp(T_qp, T_pq):
    zero = np.zeros_like(T_qp)
    return np.block([[zero, T_qp], [T_pq, zero]])


def test_split_frame_refusals(monkeypatch):
    # each refusal of the one-block route, met on a q-p split pair with the
    # same class and message
    mu, tau = lattice_ground_covariance(8, 0.5, 1.0), standard_symplectic_form(8)
    indefinite = mu.copy()
    indefinite[8:, 8:] = -np.eye(8)  # mu_qq positive definite, mu_pp not
    # tau's 5e-13 asymmetry is 2.5e-7 in the frame of mu's 1e-6 directions
    skew = np.diag([0.5, 1e-6] * 2), _qp(np.diag([1.0, 1e-6]), -np.diag([1.0, 1e-6 * (1 + 5e-7)]))
    # ||J_qp|| = 1 + 2e-9 but ||J_pq|| = 1 - 1e-9: a rotation keeps every
    # entry below 1, and a third mode 1e4 times larger keeps tau's asymmetry
    # (2e-9 at most) below 1e-12 of its largest entry
    c = math.sqrt(0.5)
    R = np.array([[c, -c], [c, c]])
    T_qp, T_pq = np.diag([0.0, 0.0, 1e4]), np.diag([0.0, 0.0, -1e4])
    T_qp[:2, :2], T_pq[:2, :2] = (1.0 + 2e-9) * R, -(1.0 - 1e-9) * R.T
    one_block = np.diag([0.5, 0.5, 1e4] * 2), _qp(T_qp, T_pq)
    small = np.eye(4) / 6.0, standard_symplectic_form(2)
    for pair in ((indefinite, tau), small, skew, one_block):
        assert len(phase_space._parts(*pair)) == 2

    with pytest.raises(InvalidCovarianceError, match="^mu is not positive definite$"):
        validate_mu_tau(indefinite, tau)
    with pytest.raises(InvalidCovarianceError,
                       match=r"^\|J\|_mu >= 3 exceeds 1: the pair bound fails$"):
        purity(*small)
    with pytest.raises(InvalidCovarianceError, match="^J is not mu-antisymmetric$"):
        one_particle(*skew)
    probes = []
    positive = phase_space._positive
    monkeypatch.setattr(phase_space, "_positive",
                        lambda M: probes.append(positive(M)) or probes[-1])
    for entry in (validate_mu_tau, one_particle, purity):
        with pytest.raises(InvalidCovarianceError,
                           match=r"^\|J\|_mu = 1\.000000002 exceeds 1: the pair bound fails$"):
            entry(*one_block)
    assert probes == [True, False] * 3  # G's q block passes, its p block fails


@pytest.mark.parametrize("where", ["both-1e-300", "upper-1e-14"])
def test_a_near_split_pair_takes_the_one_block_route(where):
    # mu's q-p blocks must both be exact zeros: cholesky reads one triangle,
    # so a pair whose upper block alone is nonzero is not read as split
    mu, tau = lattice_ground_covariance(8, 0.5, 1.0), standard_symplectic_form(8)
    mu = mu.copy()
    if where == "both-1e-300":
        mu[0, 8] = mu[8, 0] = 1e-300
    else:
        mu[0, 8] = 1e-14 * np.abs(mu).max()
    assert len(phase_space._parts(mu, tau)) == 1
    assert validate_mu_tau(mu, tau).mu_norm == pytest.approx(1.0, abs=1e-12)
    assert one_particle(mu, tau).dim == 8
    rep = purity(mu, tau)
    assert rep.pure and rep.residual <= 1e-13
    # a probe splits only when both frames do
    split = lattice_ground_covariance(8, 0.5, 1.0)
    for mu1, mu2 in ((split, 2.0 * mu), (mu, 2.0 * split)):
        _assert_matches_blocks(equivalence_probe(mu1, mu2, tau, truncations=[4, 8]), mu1, mu2)


NAN_MU = np.where(np.eye(4, dtype=bool), math.nan, 0.0)
TAU2 = standard_symplectic(2)


def _fock(cutoff=4):
    return FockRepresentation(one_particle(np.eye(2) / 2.0, TAU1), cutoff)


@pytest.mark.parametrize(
    "call",
    [
        lambda: validate_mu_tau(NAN_MU, TAU2),
        lambda: validate_mu_tau(np.eye(4), np.full((4, 4), math.inf)),
        lambda: purity(NAN_MU, TAU2),
        lambda: one_particle(NAN_MU, TAU2),
        lambda: ground_state_mu(NAN_MU),
        lambda: equivalence_probe(NAN_MU, np.eye(4), truncations=[2]),
        lambda: equivalence_probe(np.eye(5), np.eye(5)),
        lambda: equivalence_probe(np.eye(8), np.eye(8), truncations=[0, 2]),
        lambda: equivalence_probe(np.eye(8), np.eye(8), truncations=[4, 1]),
        lambda: equivalence_probe(np.eye(8), np.eye(8), truncations=[2, 2]),
        lambda: equivalence_probe(np.eye(8), np.eye(8), truncations=[1.5]),
        lambda: equivalence_probe(np.eye(8), np.eye(8), truncations=3),
        lambda: lattice_energy_form(4.5, 1.0, 1.0),
        lambda: lattice_energy_form(4, math.nan, 1.0),
        lambda: lattice_energy_form(4, 1.0, math.inf),
        lambda: standard_symplectic_form(2.5),
        lambda: _fock(2.5),
        lambda: _fock("3"),
        lambda: _fock(None),
        lambda: _fock().field(["a", 0.0]),
        lambda: _fock().field([1.0, 0.0, 0.0]),
        lambda: _fock().field([math.nan, 0.0]),
        lambda: _fock().structure.inner([1.0, 0.0], ["a", 0.0]),
        lambda: _fock().structure.inner([1.0], [0.0, 1.0]),
        lambda: _fock().structure.inner([math.inf, 0.0], [0.0, 1.0]),
        lambda: _fock().vacuum_npoint([[1.0, 0.0], [math.nan, 0.0]]),
        lambda: _fock().vacuum_npoint([[1.0, 0.0, 0.0]]),
        lambda: _fock().vacuum_npoint(3),
        lambda: _fock().commutator_residual([1.0, 0.0], [math.nan, 0.0]),
        lambda: _fock().commutator_residual(["a", 0.0], [0.0, 1.0]),
        lambda: _fock().commutator_residual([1.0, 0.0], [0.0, 1.0, 0.0]),
        lambda: validate_mu_tau(np.zeros((0, 0)), np.zeros((0, 0))),
        lambda: one_particle(np.zeros((0, 0)), np.zeros((0, 0))),
        lambda: purity(np.zeros((0, 0)), np.zeros((0, 0))),
        lambda: intertwiner(5, one_particle(np.eye(2) / 2.0, TAU1)),
        lambda: FockRepresentation(5, 2),
        lambda: _fock().annihilator("ab"),
        lambda: _fock().annihilator([math.nan]),
        lambda: _fock().annihilator([1.0, 0.0]),
        lambda: _fock().sector_projector("a"),
        lambda: standard_symplectic_form(10**10),
        lambda: lattice_energy_form(10**12, 1.0, 1.0),
        lambda: lattice_energy_form(4, 1e-200, 1.0),
        lambda: validate_mu_tau(1e-320 * np.eye(2), TAU1),
        lambda: ground_state_mu(1e300 * np.eye(2), 1e-320 * TAU1),
        # asymmetric at their own scale, which a tolerance floored at 1 missed
        lambda: validate_mu_tau(1e-100 * np.array([[1.0, 0.5], [0.1, 1.0]]), np.zeros((2, 2))),
        lambda: ground_state_mu(1e-100 * np.array([[1.0, 0.9], [0.1, 1.0]])),
        # asymmetric at the float's edge, where a difference of entries overflows
        lambda: validate_mu_tau([[1.0, 1.7e308], [-1.7e308, 1.0]], np.zeros((2, 2))),
        lambda: validate_mu_tau(np.eye(2), [[0.0, 1.7e308], [1.7e308, 0.0]]),
    ],
    ids=[
        "nan-mu",
        "inf-tau",
        "purity-nan",
        "one-particle-nan",
        "ground-state-nan",
        "probe-nan",
        "probe-odd-dimension",
        "probe-zero-truncation",
        "probe-decreasing-ladder",
        "probe-repeated-truncation",
        "probe-float-truncation",
        "probe-truncations-not-a-list",
        "float-sites",
        "nan-spacing",
        "inf-mass",
        "float-mode-count",
        "fock-float-cutoff",
        "fock-string-cutoff",
        "fock-none-cutoff",
        "field-string",
        "field-wrong-length",
        "field-nan",
        "inner-string",
        "inner-wrong-length",
        "inner-inf",
        "vacuum-npoint-nan",
        "vacuum-npoint-wrong-length",
        "vacuum-npoint-not-a-list",
        "commutator-nan",
        "commutator-string",
        "commutator-wrong-length",
        "validate-empty",
        "one-particle-empty",
        "purity-empty",
        "intertwiner-not-a-structure",
        "fock-not-a-structure",
        "annihilator-string",
        "annihilator-nan",
        "annihilator-wrong-length",
        "sector-projector-string",
        "mode-count-past-numpy",
        "sites-past-numpy",
        "energy-form-overflow",
        "subnormal-mu",
        "ground-state-overflow",
        "small-asymmetric-mu",
        "small-asymmetric-energy-form",
        "edge-asymmetric-mu",
        "edge-symmetric-tau",
    ],
)
def test_boundary_inputs_raise_validation_errors(call):
    with pytest.raises(ValidationError):
        call()


MATRIX_READERS = {
    "validate-mu": lambda bad: validate_mu_tau(bad, TAU1),
    "validate-tau": lambda bad: validate_mu_tau(np.eye(2), bad),
    "purity": lambda bad: purity(bad, TAU1),
    "one-particle": lambda bad: one_particle(bad, TAU1),
    "ground-state": lambda bad: ground_state_mu(bad),
    "ground-state-tau": lambda bad: ground_state_mu(np.eye(2), tau=bad),
    "probe-mu1": lambda bad: equivalence_probe(bad, np.eye(2)),
    "probe-mu2": lambda bad: equivalence_probe(np.eye(2), bad),
    "probe-tau": lambda bad: equivalence_probe(np.eye(2), np.eye(2), tau=bad),
}
BAD_MATRICES = {
    "string": [["a", 0], [0, 1]],
    "ragged": [[1.0, 0.0], [0.0]],
    "nan": [[math.nan, 0.0], [0.0, 1.0]],
}


@pytest.mark.parametrize("bad", BAD_MATRICES.values(), ids=BAD_MATRICES.keys())
@pytest.mark.parametrize("reader", MATRIX_READERS.values(), ids=MATRIX_READERS.keys())
def test_matrix_entries_refuse_unreadable_matrices(reader, bad):
    # strings and ragged nesting used to leak numpy's ValueError
    with pytest.raises(ValidationError):
        reader(bad)


# every name in phase_space.__all__, fed junk matrices, sizes, structures,
# vectors and ladders, NaN, +-inf and values at the edges of the float range;
# sizes stay small or past what numpy can hold, never gigabytes
_specials = st.sampled_from(
    [math.nan, math.inf, -math.inf, complex(0, math.nan), 1e308, 1e-320, -0.0, 10**400, 2.5, 1j]
)
_junk = st.one_of(
    _specials, st.none(), st.text(max_size=3), st.integers(-3, 9),
    st.sampled_from([[1, 2], [[1.0, 0.0], [0.0]], [["a", 0], [0, 1]], {"a": 1}, np.eye(3)]),
)
_sizes = st.one_of(
    st.integers(-2, 5), st.sampled_from([10**10, 10**12, 10**400, 2.5, "3", None])
)
_reals = st.one_of(
    st.sampled_from([0.5, 1.0, 0.0, -1.0, 1e-200, 1e200]), _specials, st.none(),
    st.text(max_size=2),
)


def _spoiled(draw, m):
    # m itself, m scaled toward the edges of the float range, an array of m's
    # shape symmetric or antisymmetric at the float's edge or asymmetric at a
    # small scale, m with one entry replaced, cut to a wrong shape, or junk
    choice = draw(st.integers(0, 5))
    if choice < 2:
        return m
    if choice == 2:
        if draw(st.integers(0, 2)) == 0:
            ones = np.ones(m.shape)
            return draw(st.sampled_from([
                1.7e308 * ones, 1.7e308 * (np.triu(ones) - np.tril(ones, -1)),
                1e-100 * (m + np.tril(ones, -1)),
            ]))
        c = draw(st.sampled_from([1e150, 1e300, 1e307, 1e-150, 1e-320, 0.5, -1.0, 0.0]))
        # in Python floats, whose product past the float range is inf with no warning
        return np.array([x * c for x in m.ravel().tolist()]).reshape(m.shape)
    if choice == 3:
        out = m.astype(object)
        out[draw(st.integers(0, len(m) - 1)), 0] = draw(st.one_of(_specials, st.text(max_size=2)))
        return out.tolist()
    if choice == 4:
        return m[:-1] if draw(st.booleans()) else m.astype(complex) + 1e-3j
    return draw(_junk)


def _pair(draw, modes=(1, 2, 3)):
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    maker = draw(st.sampled_from([random_pure_pair, random_mixed_pair]))
    return maker(rng, draw(st.sampled_from(modes)))


def _spoiled_pair(draw):
    mu, tau = _pair(draw)
    return _spoiled(draw, mu), _spoiled(draw, tau)


def _built(draw):
    # a structure from one_particle, of dimension 1 or 2 within the Fock
    # guard, or one built directly from its spoiled fields
    s = one_particle(*_pair(draw, modes=(1,)))
    if draw(st.booleans()):
        return s
    return OneParticleStructure(
        K=_spoiled(draw, s.K), mu=_spoiled(draw, s.mu), tau=_spoiled(draw, s.tau),
        dim=draw(st.one_of(st.just(s.dim), _sizes)),
        reconstruction_residual=draw(st.one_of(st.just(0.0), _reals)),
    )


def _structure(draw):
    return draw(_junk) if draw(st.integers(0, 4)) == 0 else _built(draw)


def _vector(draw, n=2):
    good = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    return draw(st.one_of(good, good, st.lists(st.one_of(_specials, st.text(max_size=1)),
                                                max_size=n + 1), _junk))


def _ladder(draw):
    return draw(st.one_of(st.none(), st.lists(st.integers(-1, 4), max_size=3), _junk))


def _probe(draw):
    mu, tau = _pair(draw)
    mu2 = mu + _pair(draw, modes=(len(mu) // 2,))[0] if draw(st.booleans()) else 2.0 * mu
    tau = draw(st.sampled_from([None, tau, tau]))
    return equivalence_probe(_spoiled(draw, mu), _spoiled(draw, mu2),
                             tau if tau is None else _spoiled(draw, tau), _ladder(draw))


def _energy(draw):
    A, tau = lattice_energy_form(draw(st.integers(1, 3)), 0.5, draw(st.sampled_from([0.0, 1.0])))
    if draw(st.booleans()):
        return ground_state_mu(_spoiled(draw, A))
    return ground_state_mu(_spoiled(draw, A), _spoiled(draw, tau))


def _fock_call(draw):
    rep = FockRepresentation(_structure(draw), draw(st.one_of(st.integers(0, 7), _sizes)))
    dim = rep.structure.dim
    method = draw(st.sampled_from(["annihilator", "creator", "field", "sector_projector",
                                   "commutator_residual", "vacuum_npoint", "vacuum"]))
    if method in ("annihilator", "creator"):
        xi = draw(st.one_of(st.just([0.5 + 0.5j] * dim), st.just([math.nan] * dim)))
        xi = draw(st.one_of(st.just(xi), st.just(xi * 2), _junk))  # xi * 2: twice the length
        return getattr(rep, method)(xi)
    if method == "sector_projector":
        return rep.sector_projector(draw(st.one_of(st.integers(-1, 7), _sizes)))
    if method == "commutator_residual":
        return rep.commutator_residual(_vector(draw), _vector(draw))
    if method == "vacuum_npoint":
        return rep.vacuum_npoint(draw(st.one_of(st.lists(st.builds(list, st.just([1.0, 0.5])),
                                                          max_size=7), _junk)))
    return rep.field(_vector(draw)) if method == "field" else rep.vacuum()


def _ladder_report(rep):
    # one verdict of three, next to the ladder's numbers, which are returned
    assert rep.verdict in ("bounded-trend", "divergent-trend", "inconclusive")
    return rep.truncations, rep.hs_norms, rep.c_mins, rep.c_maxs


_PS_CALLS = {
    "standard_symplectic_form": lambda d: standard_symplectic_form(d(_sizes)),
    "lattice_energy_form": lambda d: lattice_energy_form(d(_sizes), d(_reals), d(_reals)),
    "validate_mu_tau": lambda d: validate_mu_tau(*_spoiled_pair(d)),
    "OperatorJ": lambda d: validate_mu_tau(*_spoiled_pair(d)).J,
    "one_particle": lambda d: one_particle(*_spoiled_pair(d)),
    "OneParticleStructure": lambda d: _built(d).inner(_vector(d), _vector(d)),
    "intertwiner": lambda d: intertwiner(_structure(d), _structure(d)),
    "purity": lambda d: purity(*_spoiled_pair(d)),
    "PurityReport": lambda d: purity(*_spoiled_pair(d)).verdict,
    "ground_state_mu": _energy,
    "equivalence_probe": _probe,
    "EquivalenceReport": lambda d: _ladder_report(_probe(d)),
    "FockRepresentation": _fock_call,
}


def _assert_finite(out):
    if dataclasses.is_dataclass(out):
        for f in dataclasses.fields(out):
            _assert_finite(getattr(out, f.name))
    elif isinstance(out, (list, tuple)):
        for v in out:
            _assert_finite(v)
    elif isinstance(out, dict):
        _assert_finite(list(out.values()))
    elif not isinstance(out, str):
        assert np.isfinite(out).all(), out


def test_property_calls_cover_the_phase_space_names():
    assert set(_PS_CALLS) == set(phase_space.__all__)


@pytest.mark.parametrize("name", sorted(_PS_CALLS))
@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_phase_space_raises_only_package_errors(name, data):
    # a call either raises one of the package's own errors or returns finite
    # numbers; a numpy warning escaping is an error too
    try:
        out = _PS_CALLS[name](data.draw)
    except CcrLabError:
        return
    _assert_finite(out)
