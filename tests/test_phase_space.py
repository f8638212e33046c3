"""Tests for covariance pairs, one-particle structures, ground states,
Fock truncations, and the equivalence probe."""

from __future__ import annotations

import dataclasses
import math

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
    lattice_ground_covariance,
    random_mixed_pair,
    random_pure_pair,
    rank1_hs_norm,
    standard_symplectic,
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


# ----------------------------------------------------------------- purity

def test_purity_closed_form_cases():
    assert purity(np.eye(2) / 2.0, TAU1).pure
    rep = purity(np.eye(2), TAU1)
    assert not rep.pure
    assert rep.variational_residual == pytest.approx(0.75, abs=1e-12)
    assert not purity(np.eye(4), np.zeros((4, 4))).pure


def test_purity_double_check_random_pairs():
    rng = np.random.default_rng(21)
    for n in (1, 2, 3, 5):
        mu, tau = random_pure_pair(rng, n)
        assert purity(mu, tau).pure
        mu, tau = random_mixed_pair(rng, n)
        assert not purity(mu, tau).pure


def test_purity_at_the_edges_of_the_float_range():
    # validate_mu_tau admits both pairs; the verdict is scale invariant
    assert purity(1e-320 * np.eye(2), np.zeros((2, 2))).verdict == "mixed"
    assert purity(1e-300 * np.eye(2) / 2.0, 1e-300 * TAU1).verdict == "pure"
    assert purity(1e300 * np.eye(2) / 2.0, 1e300 * TAU1).verdict == "pure"


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


def test_purity_agreement_check_negative_control(monkeypatch):
    # a frame's J off by 1e-3 of itself fails test A (|J^2 + I| = 2e-3)
    # while test B, which reads mu and tau, still finds the pair pure
    mu, tau = np.eye(2) / 2.0, TAU1
    assert purity(mu, tau).pure
    frame = phase_space._frame

    def skewed(*args):
        f = frame(*args)
        return f._replace(J=f.J * (1.0 + 1e-3))

    monkeypatch.setattr(phase_space, "_frame", skewed)
    with pytest.raises(InternalInconsistencyError, match="purity checks disagree"):
        purity(mu, tau)


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


def test_probe_invalid_first_covariance():
    tau = standard_symplectic_form(2)
    with pytest.raises(InvalidCovarianceError):
        equivalence_probe(-np.eye(4), np.eye(4), tau, truncations=[2])


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
    rep = equivalence_probe(mu1, mu2, tau, truncations=[16, 32, 64, 128])
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
    bounded_frame, eigvalsh, eigh = phase_space._bounded_frame, np.linalg.eigvalsh, np.linalg.eigh
    monkeypatch.setattr(phase_space, "_bounded_frame",
                        lambda *a, **k: frames.append(1) or bounded_frame(*a, **k))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(len(a)) or eigvalsh(a))
    monkeypatch.setattr(np.linalg, "eigh", lambda a: spectra.append(len(a)) or eigh(a))
    mu, tau = random_mixed_pair(np.random.default_rng(47), 4)
    equivalence_probe(mu, 1.5 * mu, tau, truncations=[1, 2, 3, 4])
    assert len(frames) == 2 and spectra == [8, 8, 2, 4, 6, 8]
    spectra.clear()
    purity(mu, tau)
    assert spectra == [8]


def test_probe_report_json():
    mu = np.eye(4)
    rep = equivalence_probe(mu, mu, truncations=[1, 2])
    assert rep.verdict == "bounded-trend"
    assert rep.hs_norms == (0.0, 0.0)


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
