"""Finite-mode Gaussian phase-space toolkit.

Conventions, fixed here once: phase vectors are real of length 2N ordered as
(q_1..q_N, p_1..p_N) unless a different antisymmetric form is supplied
explicitly; the covariance convention is the one in which the standard
oscillator ground state has mu = I/2 against tau = [[0, I], [-I, 0]].
Smearing is symplectic: the observable attached to a phase vector x pairs
with the field through tau(x, .), so a single-mode ground state at frequency
omega has covariance diag(omega/2, 1/(2*omega)) on (q, p).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    InternalInconsistencyError,
    InvalidCovarianceError,
    SpectrumNotGappedError,
    TruncationInsufficientError,
    ValidationError,
    as_finite,
    as_finite_array,
    as_index,
)

__all__ = [
    "OperatorJ",
    "OneParticleStructure",
    "PurityReport",
    "EquivalenceReport",
    "FockRepresentation",
    "validate_mu_tau",
    "one_particle",
    "intertwiner",
    "purity",
    "ground_state_mu",
    "lattice_energy_form",
    "standard_symplectic_form",
    "equivalence_probe",
]


def _phase_zeros(n_modes, what):
    # a zero 2N x 2N matrix; a size numpy cannot hold is refused as input
    try:
        return np.zeros((2 * n_modes, 2 * n_modes))
    except (ValueError, MemoryError):
        raise ValidationError(f"{what} {n_modes} is too large for a dense matrix") from None


def standard_symplectic_form(n_modes):
    """tau matrix [[0, I], [-I, 0]] in (q_1..q_N, p_1..p_N) ordering."""
    n = as_index(n_modes, "mode count")
    if n < 0:
        raise ValidationError("mode count must be >= 0")
    T = _phase_zeros(n, "mode count")
    T[:n, n:] = np.eye(n)
    T[n:, :n] = -np.eye(n)
    return T


def _check_square_pair(mu, tau):
    # mu and tau are float arrays already read through as_finite_array
    if mu.ndim != 2 or mu.shape[0] != mu.shape[1] or mu.size == 0:
        raise ValidationError("mu must be a non-empty square matrix")
    if tau.shape != mu.shape:
        raise ValidationError("tau must match mu's shape")
    scale = max(1.0, np.abs(mu).max(), np.abs(tau).max())
    if np.abs(mu - mu.T).max() > 1e-12 * scale:
        raise ValidationError("mu must be symmetric")
    if np.abs(tau + tau.T).max() > 1e-12 * scale:
        raise ValidationError("tau must be antisymmetric")
    return mu, tau


def _finite(values, what):
    """values, a result computed from finite input, if every entry is
    finite; otherwise the input is past the float range."""
    if not np.isfinite(values).all():
        raise ValidationError(f"{what} overflows the float range")
    return values


def _unit_exponent(M):
    """The even exponent 2j for which 2**(2j) max|M| lies in [1, 4): scaling
    by it is exact, and so is scaling by its square root."""
    e = math.frexp(float(np.abs(M).max(initial=0.0)))[1]
    return -2 * ((e - 1) // 2)


def _cholesky_pd(mu, what="mu"):
    try:
        return np.linalg.cholesky(mu)
    except np.linalg.LinAlgError:
        raise InvalidCovarianceError(f"{what} is not positive definite") from None


def _lower_inverse(L):
    # inverse of a lower-triangular matrix by 2 x 2 blocks; numpy has no
    # triangular solver, and its general inv costs about 7x more at n = 256
    n = len(L)
    if n <= 32:
        return np.linalg.inv(L)
    k = n // 2
    a = _lower_inverse(L[:k, :k])
    c = _lower_inverse(L[k:, k:])
    out = np.zeros_like(L)
    out[:k, :k] = a
    out[k:, k:] = c
    out[k:, :k] = -(c @ L[k:, :k]) @ a
    return out


class _Frame(NamedTuple):
    mu: np.ndarray
    tau: np.ndarray
    L: np.ndarray  # Cholesky factor, mu = L L^T
    Linv: np.ndarray
    J: np.ndarray  # mu^{-1} tau / 2
    Jt: np.ndarray  # J in the mu-orthonormal frame, L^{-1} (tau / 2) L^{-T}


def _frame(mu, tau, what="mu"):
    """Read a covariance pair once and build its mu-orthonormal frame.

    Raises unless mu is symmetric positive definite, tau antisymmetric, every
    entry of Jt at most 1 + 1e-9 and J mu-antisymmetric (Jt antisymmetric).
    The bound ||J||_mu <= 1 is left to the caller, which reads it off
    whichever spectrum of Jt it computes.
    """
    mu, tau = _check_square_pair(as_finite_array(mu, what), as_finite_array(tau, "tau"))
    L = _cholesky_pd(mu, what)
    Linv = _lower_inverse(L)
    with np.errstate(all="ignore"):  # NaN from an overflow fails the bound below
        half = Linv @ (tau / 2.0)
        Jt = half @ Linv.T
    # an entry of Jt bounds ||J||_mu from below
    big = float(np.abs(Jt).max())
    if not big <= 1.0 + 1e-9:
        raise InvalidCovarianceError(f"|J|_mu >= {big:.12g} exceeds 1: the pair bound fails")
    if np.abs(Jt + Jt.T).max() > 1e-8:
        raise InvalidCovarianceError("J is not mu-antisymmetric")
    return _Frame(mu, tau, L, Linv, Linv.T @ half, Jt)


def _check_bound(norm):
    if norm > 1.0 + 1e-9:
        raise InvalidCovarianceError(
            f"|J|_mu = {norm:.12g} exceeds 1: the pair bound fails"
        )
    return norm


def _bounded_frame(mu, tau, what="mu"):
    """The frame of (mu, tau) and ||J||_mu = ||Jt||_2, from the largest
    eigenvalue of Jt^T Jt; raises if the norm exceeds 1 + 1e-9."""
    f = _frame(mu, tau, what)
    top = float(np.linalg.eigvalsh(f.Jt.T @ f.Jt)[-1])
    return f, _check_bound(math.sqrt(max(top, 0.0)))


@dataclass(frozen=True)
class OperatorJ:
    """Map J with mu(x, J y) = tau(x, y) / 2, plus its mu-operator norm."""

    J: np.ndarray
    mu: np.ndarray
    tau: np.ndarray
    mu_norm: float


def validate_mu_tau(mu, tau):
    """Admit a covariance pair and return its J operator.

    Checks mu symmetric positive definite, tau antisymmetric, the
    mu-antisymmetry of J, and the bound ||J||_mu <= 1 + 1e-9.  The bound is
    the matrix form of the requirement that |tau(x,y)|^2 / 4 never exceeds
    mu(x,x) mu(y,y).
    """
    f, norm = _bounded_frame(mu, tau)
    return OperatorJ(J=f.J, mu=f.mu, tau=f.tau, mu_norm=norm)


@dataclass(frozen=True)
class OneParticleStructure:
    """Real-linear map K into C^M with <Kx|Ky> = mu(x,y) + (i/2) tau(x,y).

    `reconstruction_residual` is max |K^H K - (mu + (i/2) tau)| as measured
    when one_particle built the structure.  Construction reads K as a finite
    complex M x n matrix, mu and tau as finite n x n ones, and requires
    dim == M.
    """

    K: np.ndarray
    mu: np.ndarray
    tau: np.ndarray
    dim: int
    reconstruction_residual: float

    def __post_init__(self):
        K = as_finite_array(self.K, "K", dtype=complex)
        mu, tau = as_finite_array(self.mu, "mu"), as_finite_array(self.tau, "tau")
        if K.ndim != 2 or K.size == 0 or not mu.shape == tau.shape == (K.shape[1],) * 2:
            raise ValidationError("K must be a non-empty M x n matrix, mu and tau n x n")
        if as_index(self.dim, "dim") != K.shape[0]:
            raise ValidationError(f"dim must be K's row count {K.shape[0]}")
        residual = as_finite(self.reconstruction_residual, "reconstruction residual")
        for name, value in (("K", K), ("mu", mu), ("tau", tau), ("dim", K.shape[0]),
                            ("reconstruction_residual", residual)):
            object.__setattr__(self, name, value)

    def _vector(self, x):
        # x as a finite real phase vector of this structure's length
        x = as_finite_array(x, "phase vector")
        if x.shape != (self.K.shape[1],):
            raise ValidationError(f"phase vector must have length {self.K.shape[1]}")
        return x

    def inner(self, x, y):
        with np.errstate(all="ignore"):  # refused below
            v = np.vdot(self.K @ self._vector(x), self.K @ self._vector(y))
        return complex(_finite(v, "inner product"))


def one_particle(mu, tau):
    """Spectral construction of a one-particle structure for (mu, tau).

    In the mu-orthonormal frame the hermitian matrix I + i J has spectrum in
    [0, 2]; its eigenspaces above 1e-10 times the top eigenvalue carry the
    representation.  Pure directions contribute one dimension per mode, mixed
    directions two (the doubling that keeps the complex span dense).  The
    spectrum of i J is +-||J||_mu at its ends, so the pair bound is read off
    the same eigenvalues.  K^H K must reproduce mu + (i/2) tau within 1e-11
    relative to max(1, largest entry).
    """
    f = _frame(mu, tau)
    Jt = (f.Jt - f.Jt.T) / 2.0
    w, U = np.linalg.eigh(np.eye(len(Jt)) + 1j * Jt)
    norm = _check_bound(float(np.abs(w - 1.0).max()))
    keep = w > 1e-10 * max(1.0, w.max(initial=0.0))
    K = (np.sqrt(w[keep])[:, None] * U[:, keep].conj().T) @ f.L.T
    target = f.mu + 0.5j * f.tau
    resid = float(np.abs(K.conj().T @ K - target).max())
    if resid > 1e-11 * max(1.0, np.abs(target).max()):
        if w.min() < -1e-12:
            # inside the bound's 1e-9 slack but with ||J||_mu > 1: the pair
            # has no one-particle structure, so the input is at fault
            raise InvalidCovarianceError(
                f"|J|_mu = {norm:.12g} exceeds 1: no one-particle structure "
                f"reproduces the pair (residual {resid:.3e})"
            )
        raise InternalInconsistencyError(
            f"one-particle reconstruction residual {resid:.3e}"
        )
    return OneParticleStructure(K=K, mu=f.mu, tau=f.tau, dim=int(keep.sum()),
                                reconstruction_residual=resid)


def intertwiner(s1: OneParticleStructure, s2: OneParticleStructure):
    """Unitary V with V K1 = K2 for two structures of the same pair, to 1e-8."""
    if not (isinstance(s1, OneParticleStructure) and isinstance(s2, OneParticleStructure)):
        raise ValidationError("intertwiner expects two OneParticleStructures")
    if s1.K.shape != s2.K.shape:
        raise ValidationError("structures have different dimensions")
    K1, K2 = s1.K, s2.K
    with np.errstate(all="ignore"):  # NaN from an overflow fails the checks below
        try:
            V = K2 @ K1.conj().T @ np.linalg.inv(K1 @ K1.conj().T)
        except np.linalg.LinAlgError:
            raise ValidationError("K1 does not span its one-particle space") from None
        scale = max(1.0, np.abs(K2).max())
        if not np.abs(V @ K1 - K2).max() <= 1e-8 * scale:
            raise InternalInconsistencyError("intertwiner does not map K1 to K2")
        if not np.abs(V.conj().T @ V - np.eye(s1.dim)).max() <= 1e-8:
            raise InternalInconsistencyError("intertwiner is not unitary")
    return V


@dataclass(frozen=True)
class PurityReport:
    pure: bool
    j_square_residual: float
    variational_residual: float

    @property
    def verdict(self):
        return "pure" if self.pure else "mixed"


def purity(mu, tau):
    """Two independent purity tests that must agree.

    Test A: J^2 = -I within 1e-10.  Test B: the variational
    characterization, which reduces to the generalized eigenproblem
    (1/4) tau^T mu^{-1} tau v = lambda mu v having all lambda equal to 1
    within 1e-8; the sup over the Rayleigh quotient is attained there.
    Reduced by the Cholesky factor, test B's matrix is Jt^T Jt, so the pair
    bound ||J||_mu <= 1 + 1e-9 is read off its largest eigenvalue before the
    tests are compared.  Disagreement raises, since both express the same
    purity condition.
    """
    f = _frame(mu, tau)
    r_square = float(np.abs(f.J @ f.J + np.eye(len(f.mu))).max())
    pure_a = r_square <= 1e-10

    # Test B solves with mu itself; only the Cholesky factor that reduces
    # the generalized problem to a symmetric one is shared with the frame.
    # B is invariant under (mu, tau, Linv) -> (c mu, c tau, Linv / sqrt(c)),
    # so it is formed where max|mu| lies in [1, 4), by an exact power of two.
    e = _unit_exponent(mu)
    mu, tau, Linv = np.ldexp(mu, e), np.ldexp(tau, e), np.ldexp(f.Linv, -e // 2)
    with np.errstate(all="ignore"):  # refused below
        B = Linv @ (0.25 * tau.T @ np.linalg.solve(mu, tau)) @ Linv.T
    B = _finite(B, "tau^T mu^{-1} tau")
    lams = np.linalg.eigvalsh((B + B.T) / 2.0)
    _check_bound(math.sqrt(max(float(lams[-1]), 0.0)))
    r_var = float(np.abs(lams - 1.0).max())
    pure_b = r_var <= 1e-8

    if pure_a != pure_b:
        raise InternalInconsistencyError(
            f"purity checks disagree: |J^2+I| = {r_square:.3e}, "
            f"eigenvalue residual = {r_var:.3e}"
        )
    return PurityReport(pure=pure_a, j_square_residual=r_square,
                        variational_residual=r_var)


def ground_state_mu(energy_form, tau=None):
    """Ground-state covariance of a quadratic Hamiltonian.

    Parameters
    ----------
    energy_form : symmetric positive definite 2N x 2N matrix A; the energy is
        x^T A x / 2 on phase vectors.
    tau : antisymmetric form fixing the dynamics; defaults to the standard
        block form.  The flow is x' = T A x with T tau's matrix.

    Returns the unique flow-invariant pure covariance, built as a
    congruence.  With the Cholesky factor A = R R^T, the matrix
    G = R^T T R is real antisymmetric and its singular values s_k are the
    mode frequencies (each twice).  With G^T G = V diag(s^2) V^T,

        mu = R V diag(1 / (2 s)) V^T R^T,

    i.e. mu = R (G^T G)^{-1/2} R^T / 2, which is independent of the choice
    of factor R and of a scale c > 0 in A -> cA, while T -> cT gives mu / c.
    A and T are read in units of even powers of two that put their largest
    entries in [1, 4), which is exact, and mu is scaled back.  The
    normalization is the one under which a pure pair saturates the
    validation bound.  The s_k are taken as the column norms
    of G V, which resolve a vanishing frequency to roundoff in G rather than
    to the square root of roundoff in G^T G.  A zero mode (massless periodic
    chain) makes 1/s blow up and is rejected instead, as is any spectrum
    with min s < 1e-10 max s.
    """
    A = as_finite_array(energy_form, "energy form")
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] % 2:
        raise ValidationError("energy form must be square of even dimension")
    if tau is None:
        tau = standard_symplectic_form(A.shape[0] // 2)
    A, T = _check_square_pair(A, as_finite_array(tau, "tau"))
    e = _unit_exponent(T)
    A, T = np.ldexp(A, _unit_exponent(A)), np.ldexp(T, e)
    A = (A + A.T) / 2.0
    scale = np.abs(A).max()
    wA = np.linalg.eigvalsh(A)
    if wA[0] < -1e-10 * scale:
        raise InvalidCovarianceError("energy form must be positive")
    if wA[0] <= 1e-12 * scale:
        # zero-energy direction: the frequency spectrum touches zero
        raise SpectrumNotGappedError(
            "energy form has a null direction; no gapped ground state"
        )
    R = np.linalg.cholesky(A)
    G = R.T @ T @ R
    with np.errstate(all="ignore"):  # refused below
        GtG = G.T @ G
    _, V = np.linalg.eigh(_finite(GtG, "G^T G of the energy form and tau"))
    s = np.linalg.norm(G @ V, axis=0)
    s_max = float(s.max())
    if s_max == 0.0 or float(s.min()) < 1e-10 * s_max:
        raise SpectrumNotGappedError(
            "frequency spectrum touches zero; no gapped ground state"
        )
    RV = R @ V
    with np.errstate(all="ignore"):  # refused below
        mu = (RV / (2.0 * s)) @ RV.T
        mu = np.ldexp((mu + mu.T) / 2.0, e)
    return _finite(mu, "ground-state covariance")


def lattice_energy_form(n_sites, spacing, mass):
    """Energy form of the periodic 1D Klein-Gordon chain.

    Site fields are scaled by sqrt(spacing) so that (q, p) are canonically
    conjugate with the standard form; the potential block is
    m^2 I + (2 I - S - S^T) / a^2 with S the cyclic shift.  Mode
    frequencies are omega(k)^2 = m^2 + (4/a^2) sin^2(k a / 2).

    Returns (A, tau).
    """
    n = as_index(n_sites, "n_sites")
    a = as_finite(spacing, "spacing")
    mass = as_finite(mass, "mass")
    if n < 1 or a <= 0:
        raise ValidationError("need at least one site and positive spacing")
    A = _phase_zeros(n, "n_sites")
    S = np.roll(np.eye(n), 1, axis=1)
    with np.errstate(all="ignore"):  # refused below
        A[:n, :n] = mass * mass * np.eye(n) + (2 * np.eye(n) - S - S.T) / (a * a)
    _finite(A, "energy form: spacing or mass")
    A[n:, n:] = np.eye(n)
    return A, standard_symplectic_form(n)


# ------------------------------------------------------------------- Fock

class FockRepresentation:
    """Dense matrices on the total-occupation-truncated symmetric Fock space.

    Basis states are occupation tuples over the one-particle dimension with
    total occupation <= cutoff, ordered lexicographically.
    """

    def __init__(self, structure: OneParticleStructure, cutoff: int):
        if not isinstance(structure, OneParticleStructure):
            raise ValidationError("FockRepresentation expects a OneParticleStructure")
        M = structure.dim
        if M > 4:
            raise ValidationError(f"one-particle dimension {M} exceeds guard 4")
        cutoff = as_index(cutoff, "cutoff")
        if not (0 < cutoff <= 6):
            raise ValidationError("cutoff must lie in 1..6")
        self.structure = structure
        self.cutoff = cutoff
        self.basis = [
            occ
            for occ in itertools.product(range(cutoff + 1), repeat=M)
            if sum(occ) <= cutoff
        ]
        self.basis.sort()
        self.index = {occ: k for k, occ in enumerate(self.basis)}
        self.dim = len(self.basis)
        self._lower = [self._annihilator(j) for j in range(M)]

    def _annihilator(self, j):
        out = np.zeros((self.dim, self.dim))
        for occ, col in self.index.items():
            if occ[j] == 0:
                continue
            target = list(occ)
            target[j] -= 1
            out[self.index[tuple(target)], col] = math.sqrt(occ[j])
        return out

    def annihilator(self, xi):
        """a(xi): anti-linear in the one-particle argument."""
        xi = as_finite_array(xi, "one-particle vector", dtype=complex)
        if xi.shape != (self.structure.dim,):
            raise ValidationError(f"one-particle vector must have length {self.structure.dim}")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        with np.errstate(all="ignore"):  # refused below
            for j, mat in enumerate(self._lower):
                out += np.conj(xi[j]) * mat
        return _finite(out, "a(xi)")

    def creator(self, xi):
        return self.annihilator(xi).conj().T

    def field(self, x):
        """Represented field on a real phase vector."""
        with np.errstate(all="ignore"):  # refused below
            xi = self.structure.K @ self.structure._vector(x)
            lower = self.annihilator(xi)
            return _finite(lower + lower.conj().T, "represented field")

    def vacuum(self):
        v = np.zeros(self.dim)
        v[self.index[(0,) * self.structure.dim]] = 1.0
        return v

    def sector_projector(self, max_total):
        max_total = as_index(max_total, "total occupation")
        d = np.array([1.0 if sum(occ) <= max_total else 0.0 for occ in self.basis])
        return np.diag(d)

    def commutator_residual(self, psi, xi):
        """Max deviation of [a(psi), a+(xi)] from <K psi|K xi> I on the
        sector with total occupation <= cutoff - 1."""
        K, vector = self.structure.K, self.structure._vector
        with np.errstate(all="ignore"):  # refused below
            A = self.annihilator(K @ vector(psi))
            Cr = self.creator(K @ vector(xi))
            comm = A @ Cr - Cr @ A
            expected = self.structure.inner(psi, xi) * np.eye(self.dim)
            P = self.sector_projector(self.cutoff - 1)
            residual = np.abs(P @ (comm - expected) @ P).max()
        return float(_finite(residual, "commutator residual"))

    def vacuum_npoint(self, vectors):
        """Vacuum expectation of a product of represented fields.

        Contributing intermediate states reach occupation at most n/2 for an
        n-fold product starting and ending in the vacuum, so cutoff >= n is
        comfortably sufficient and is required.
        """
        try:
            vectors = [self.structure._vector(x) for x in vectors]
        except TypeError:
            raise ValidationError("vectors must be a sequence of phase vectors") from None
        n = len(vectors)
        if n > self.cutoff:
            raise TruncationInsufficientError(
                f"{n}-point at cutoff {self.cutoff}: raise the cutoff"
            )
        v = self.vacuum().astype(complex)
        with np.errstate(all="ignore"):  # refused below
            for x in reversed(vectors):
                v = self.field(x) @ v
            return complex(_finite(self.vacuum() @ v, "vacuum expectation"))


# ----------------------------------------------------------- equivalence

@dataclass(frozen=True)
class EquivalenceReport:
    truncations: tuple
    hs_norms: tuple
    c_mins: tuple
    c_maxs: tuple
    verdict: str
    Q: np.ndarray = field(repr=False)


def equivalence_probe(mu1, mu2, tau=None, truncations=None):
    """Truncation-ladder probe for unitary equivalence of two covariances.

    A truncation N keeps the leading 2N phase coordinates in the caller's
    ordering; under the (q_1..q_N, p_1..p_N) convention that is an N-mode
    subsystem only at the full mode count, and below half of it tau's block
    is zero.  For each N, c_min and c_max are the extreme generalized
    eigenvalues of mu2 v = c mu1 v on the leading blocks, and hs is the
    Hilbert-Schmidt norm of Q with mu1 Q = mu2 - mu1 in the mu1 geometry.
    In finite dimension every Q is Hilbert-Schmidt, so only the growth trend
    is reported: hs growing at least like N^0.4 reads divergent, essentially
    flat (or at most 1e-12 throughout) reads bounded, anything else
    inconclusive.  tau defaults to the standard block form.  Both
    covariances must pass validate_mu_tau on the largest block, factored
    once: L is lower triangular, so each leading block of L^{-1} and of
    B = L^{-1} (mu2 - mu1) L^{-T} is the smaller block's own, and only the
    symmetry checks, scaled to each block, run per block.
    """
    mu1 = as_finite_array(mu1, "mu1")
    mu2 = as_finite_array(mu2, "mu2")
    if mu1.shape != mu2.shape or mu1.ndim != 2 or mu1.shape[0] != mu1.shape[1]:
        raise ValidationError("covariances must share a square shape")
    if mu1.shape[0] % 2:
        raise ValidationError("covariances must have even dimension (q and p per mode)")
    total_modes = mu1.shape[0] // 2
    if tau is None:
        tau = standard_symplectic_form(total_modes)
    tau = as_finite_array(tau, "tau")
    if tau.shape != mu1.shape:
        raise ValidationError("tau must match the covariances' shape")
    if truncations is None:
        truncations = [total_modes]
    try:
        truncs = [as_index(n_modes, "truncation") for n_modes in truncations]
    except TypeError:
        raise ValidationError("truncations must be a sequence of mode counts") from None
    if not truncs or truncs[0] < 1 or any(b <= a for a, b in zip(truncs, truncs[1:])):
        raise ValidationError("truncations must be strictly increasing mode counts >= 1")
    if truncs[-1] > total_modes:
        raise ValidationError(f"truncation {truncs[-1]} exceeds available modes {total_modes}")
    sizes = [2 * n_modes for n_modes in truncs]
    for n in sizes[:-1]:  # the largest block is checked by _frame
        _check_square_pair(mu1[:n, :n], tau[:n, :n])
        _check_square_pair(mu2[:n, :n], tau[:n, :n])
    m1, m2, t = (m[: sizes[-1], : sizes[-1]] for m in (mu1, mu2, tau))
    Linv = _bounded_frame(m1, t, what="mu1 block")[0].Linv
    _bounded_frame(m2, t, what="mu2 block")
    delta = m2 - m1
    with np.errstate(all="ignore"):  # refused below
        B = Linv @ delta @ Linv.T
        B = (B + B.T) / 2.0
        Q = Linv.T @ (Linv @ delta)  # mu1^{-1} (mu2 - mu1) on the largest block
    what = "mu2 - mu1 in the mu1 geometry"
    B, Q = _finite(B, what), _finite(Q, what)
    spectra = [np.linalg.eigvalsh(B[:n, :n]) for n in sizes]
    hs_norms = tuple(math.hypot(*lams) for lams in spectra)
    return EquivalenceReport(
        truncations=tuple(truncs),
        hs_norms=hs_norms,
        c_mins=tuple(float(1.0 + lams[0]) for lams in spectra),
        c_maxs=tuple(float(1.0 + lams[-1]) for lams in spectra),
        verdict=_trend_verdict(truncs, hs_norms),
        Q=Q,
    )


def _trend_verdict(truncs, hs_norms):
    if all(h <= 1e-12 for h in hs_norms):
        return "bounded-trend"
    if len(truncs) < 2:
        return "inconclusive"
    first = max(hs_norms[0], 1e-12)
    slope = math.log(hs_norms[-1] / first) / math.log(truncs[-1] / truncs[0])
    if slope >= 0.4:
        return "divergent-trend"
    if abs(slope) <= 0.1:
        return "bounded-trend"
    return "inconclusive"
