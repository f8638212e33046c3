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
    asymmetry,
    dense_zeros,
    float_range,
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


def standard_symplectic_form(n_modes):
    """tau matrix [[0, I], [-I, 0]] in (q_1..q_N, p_1..p_N) ordering."""
    n = as_index(n_modes, "mode count")
    if n < 0:
        raise ValidationError("mode count must be >= 0")
    T = dense_zeros((2 * n, 2 * n), "mode count")
    T[:n, n:] = np.eye(n)
    T[n:, :n] = -np.eye(n)
    return T


def _check_square_pair(mu, tau):
    # mu and tau are float arrays already read through as_finite_array
    if mu.ndim != 2 or mu.shape[0] != mu.shape[1] or mu.size == 0:
        raise ValidationError("mu must be a non-empty square matrix")
    if tau.shape != mu.shape:
        raise ValidationError("tau must match mu's shape")
    if asymmetry(mu, np.transpose) > 1e-12:
        raise ValidationError("mu must be symmetric")
    if asymmetry(tau, lambda q: -q.T) > 1e-12:
        raise ValidationError("tau must be antisymmetric")
    return mu, tau


def _unit_exponent(M):
    """The even exponent 2j for which 2**(2j) max|M| lies in [1, 4): scaling
    by it is exact, and so is scaling by its square root."""
    e = math.frexp(float(np.abs(M).max(initial=0.0)))[1]
    return -2 * ((e - 1) // 2)


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


def _parts(S, T):
    """The diagonal blocks a pair (S, T) runs on: its q and p halves when the
    dimension is even, both off-diagonal blocks of S are exact zeros and so
    are both diagonal blocks of T (a q-p split pair, as in the (q, p)
    ordering of a lattice form or its ground state), else the whole matrix.
    Both blocks of S are read because cholesky reads only one triangle and
    a symmetric input is symmetric only to 1e-12."""
    n, odd = divmod(len(S), 2)
    q, p = slice(None, n), slice(n, None)
    if odd or S[q, p].any() or S[p, q].any() or T[q, q].any() or T[p, p].any():
        return (slice(None),)
    return q, p


def _join(pieces, keys, shape):
    """The matrix with the blocks pieces at keys and exact zeros elsewhere;
    a single piece is the whole matrix and is returned uncopied."""
    if len(pieces) == 1:
        return pieces[0]
    out = np.zeros(shape)
    for key, P in zip(keys, pieces):
        out[key] = P
    return out


class _Frame(NamedTuple):
    mu: np.ndarray
    tau: np.ndarray
    L: np.ndarray  # Cholesky factor, mu = L L^T
    Linv: np.ndarray
    half: np.ndarray  # L^{-1} tau / 2, the left factor of Jt and the right one of J
    Jt: np.ndarray  # J in the mu-orthonormal frame, L^{-1} (tau / 2) L^{-T}
    G: np.ndarray  # Jt^T Jt, whose largest eigenvalue is ||J||_mu^2
    parts: tuple  # the diagonal blocks of mu, L, Linv and G (see _parts)


def _frame(mu, tau, what="mu"):
    """Admit a covariance pair, the one admission of this module: read the
    pair once and build its mu-orthonormal frame.

    Raises unless mu is symmetric positive definite, tau antisymmetric, every
    entry of Jt at most 1 + 1e-9, J mu-antisymmetric (Jt antisymmetric) and
    ||J||_mu <= 1 + 1e-9: a Cholesky probe of (1 + 1e-9)^2 I - G decides
    the pair bound, and G's spectrum only names a refusal.

    The frame runs on the blocks of _parts.  For a q-p split pair, mu =
    blockdiag(mu_qq, mu_pp) and tau has only its q-p blocks, so L, L^{-1}
    and G are block diagonal and half and Jt have only the blocks [k, j]
    with j the other half: each diagonal block gets its own Cholesky factor,
    inverse and bound probe, and _join puts the blocks in full arrays whose
    other blocks are exact zeros.  Any other pair is one block, the whole
    matrix, and its arrays are the blocks themselves.
    """
    mu, tau = _check_square_pair(as_finite_array(mu, what), as_finite_array(tau, "tau"))
    parts = _parts(mu, tau)
    diag = [(k, k) for k in parts]
    blocks = list(zip(parts, parts[::-1]))  # [k, j]: the nonzero blocks of half and Jt
    try:
        L = _join([np.linalg.cholesky(mu[k, k]) for k in parts], diag, mu.shape)
    except np.linalg.LinAlgError:
        raise InvalidCovarianceError(f"{what} is not positive definite") from None
    with float_range("J of mu and tau"):
        Linv = _join([_lower_inverse(L[k, k]) for k in parts], diag, mu.shape)
        half = _join([Linv[k, k] @ (tau[k, j] / 2.0) for k, j in blocks], blocks, mu.shape)
        Jt = _join([half[k, j] @ Linv[j, j].T for k, j in blocks], blocks, mu.shape)
    # an entry of Jt bounds ||J||_mu from below
    big = max(float(np.abs(Jt[k, j]).max()) for k, j in blocks)
    if not big <= 1.0 + 1e-9:
        raise InvalidCovarianceError(f"|J|_mu >= {big:.12g} exceeds 1: the pair bound fails")
    if max(np.abs(Jt[k, j] + Jt[j, k].T).max() for k, j in blocks) > 1e-8:
        raise InvalidCovarianceError("J is not mu-antisymmetric")
    G = _join([Jt[j, k].T @ Jt[j, k] for k, j in blocks], diag, mu.shape)
    # a fresh identity per probe: holding one 2N x 2N identity past the probe
    # measured about 2 ms slower in equivalence_probe's one-block route at 2N = 256
    if not all(_positive((1.0 + 1e-9) ** 2 * np.eye(len(G[k, k])) - G[k, k]) for k in parts):
        norm = _norm(G, parts)
        if norm > 1.0 + 1e-9:
            raise InvalidCovarianceError(f"|J|_mu = {norm:.12g} exceeds 1: the pair bound fails")
    return _Frame(mu, tau, L, Linv, half, Jt, G, parts)


def _spectrum(G, parts):
    """The eigenvalues of G = Jt^T Jt in ascending order: the union of the
    spectra of its diagonal blocks (see _frame)."""
    return np.sort(np.concatenate([np.linalg.eigvalsh(G[k, k]) for k in parts]))


def _norm(G, parts):
    """||J||_mu = ||Jt||_2, from the largest eigenvalue of G = Jt^T Jt."""
    return math.sqrt(max(float(_spectrum(G, parts)[-1]), 0.0))


def _positive(M):
    """Whether the symmetric matrix M is positive definite, by a Cholesky probe."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


@dataclass(frozen=True)
class OperatorJ:
    """Map J with mu(x, J y) = tau(x, y) / 2, plus its mu-operator norm."""

    J: np.ndarray
    mu: np.ndarray
    tau: np.ndarray
    mu_norm: float


def validate_mu_tau(mu, tau):
    """Admit a covariance pair and return its J operator.

    Checks mu symmetric positive definite, tau antisymmetric (each to 1e-12
    of its own largest entry, see errors.asymmetry), the mu-antisymmetry of
    J, and the bound ||J||_mu <= 1 + 1e-9, all in _frame.  The bound is the
    matrix form of the requirement that |tau(x,y)|^2 / 4 never exceeds
    mu(x,x) mu(y,y).
    """
    f = _frame(mu, tau)
    with float_range("J of mu and tau"):
        J = f.Linv.T @ f.half  # mu^{-1} tau / 2
    return OperatorJ(J=J, mu=f.mu, tau=f.tau, mu_norm=_norm(f.G, f.parts))


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
        with float_range("inner product"):
            return complex((self.K @ self._vector(x)).conj() @ (self.K @ self._vector(y)))


def one_particle(mu, tau):
    """One-particle structure for (mu, tau), with K^H K = L (I + i Jt) L^T.

    Frame route: if tau[:N, :N] = 0, as in the (q, p) ordering, so is Jt's
    block (L is lower triangular), and for a pure pair the first N rows of
    I + i Jt span the range of the rank-N projector (I + i Jt) / 2.  Then
    K = L^T[:N] + i (L^{-1} tau / 2)[:N], dim N.  It is taken when a Cholesky
    probe of the frame's G, one per diagonal block of a q-p split frame
    (see _frame), puts every singular value of Jt at or above 1 - 2e-10 and
    K meets the residual bound below; every other pair takes the spectral
    route.  On a q-p split frame K = [Lq^T, i half_qp], and K^H K is checked
    in real N x N blocks (see _split_residual) rather than as one complex
    2N x 2N product.

    Spectral route: the hermitian matrix I + i Jt has spectrum in [0, 2];
    its eigenspaces above 1e-10 times the top eigenvalue carry the
    representation.  Pure directions contribute one dimension per mode, mixed
    directions two (the doubling that keeps the complex span dense).  The
    spectrum of i Jt is +-||J||_mu at its ends.  K^H K must reproduce
    mu + (i/2) tau within 1e-11 relative to max(1, largest entry).
    """
    f = _frame(mu, tau)
    n, eye = len(f.Jt) // 2, np.eye(len(f.Jt))
    split = len(f.parts) == 2
    # each entry of a split pair's mu + (i/2) tau is one of mu's or of (i/2) tau's
    top = (max(np.abs(f.mu).max(), np.abs(f.tau).max() / 2.0) if split
           else np.abs(f.mu + 0.5j * f.tau).max())
    tol = 1e-11 * max(1.0, top)
    if not f.tau[:n, :n].any() and all(_positive(f.G[k, k] - (1.0 - 4e-10) * eye[k, k])
                                       for k in f.parts):
        K = f.L.T[:n] + 1j * f.half[:n]
        resid = _split_residual(f) if split else _residual(K, f)
        if resid <= tol:
            return OneParticleStructure(K=K, mu=f.mu, tau=f.tau, dim=n,
                                        reconstruction_residual=resid)
    w, U = np.linalg.eigh(eye + 0.5j * (f.Jt - f.Jt.T))  # Jt made exactly antisymmetric
    keep = w > 1e-10 * max(1.0, w.max(initial=0.0))
    C = np.sqrt(w[keep])[:, None] * U[:, keep].conj().T
    K = C.real @ f.L.T + 1j * (C.imag @ f.L.T)  # two real products, not one upcast
    resid = _residual(K, f)
    if resid > tol:
        if w.min() < -1e-12:
            # inside the bound's 1e-9 slack but with ||J||_mu > 1: the pair
            # has no one-particle structure, so the input is at fault
            raise InvalidCovarianceError(
                f"|J|_mu = {np.abs(w - 1.0).max():.12g} exceeds 1: no one-particle structure "
                f"reproduces the pair (residual {resid:.3e})"
            )
        raise InternalInconsistencyError(
            f"one-particle reconstruction residual {resid:.3e}"
        )
    return OneParticleStructure(K=K, mu=f.mu, tau=f.tau, dim=int(keep.sum()),
                                reconstruction_residual=resid)


def _residual(K, f):
    """max |K^H K - (mu + (i/2) tau)|."""
    return float(np.abs(K.conj().T @ K - (f.mu + 0.5j * f.tau)).max())


def _split_residual(f):
    """_residual of the frame route's K = [Lq^T, i half_qp] on a q-p split
    frame, in real N x N blocks: K^H K - (mu + (i/2) tau) has Lq Lq^T - mu_qq
    and half_qp^T half_qp - mu_pp on its diagonal, and i (P - tau_qp / 2)
    and -i (P^T + tau_pq / 2) off it, with P = Lq half_qp."""
    q, p = f.parts
    Lq, H = f.L[q, q], f.half[q, p]
    P = Lq @ H
    return float(max(np.abs(Lq @ Lq.T - f.mu[q, q]).max(), np.abs(P - f.tau[q, p] / 2.0).max(),
                     np.abs(P.T + f.tau[p, q] / 2.0).max(), np.abs(H.T @ H - f.mu[p, p]).max()))


def intertwiner(s1: OneParticleStructure, s2: OneParticleStructure):
    """Unitary V with V K1 = K2 for two structures of the same pair, to 1e-8."""
    if not (isinstance(s1, OneParticleStructure) and isinstance(s2, OneParticleStructure)):
        raise ValidationError("intertwiner expects two OneParticleStructures")
    if s1.K.shape != s2.K.shape:
        raise ValidationError("structures have different dimensions")
    K1, K2 = s1.K, s2.K
    with float_range("intertwiner"):
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
    """purity's reading: the spectrum of G = Jt^T Jt in ascending order, its
    largest distance from 1 and the verdict that distance gives."""

    pure: bool
    residual: float
    spectrum: np.ndarray = field(repr=False)

    @property
    def verdict(self):
        return "pure" if self.pure else "mixed"


def purity(mu, tau):
    """Whether the quasifree state of (mu, tau) is pure, read off its
    symplectic spectrum.

    By Williamson's normal form a symplectic congruence takes mu to
    diag(nu_k) with each symplectic eigenvalue nu_k >= 1/2 twice, and the
    state is pure iff every nu_k = 1/2 (Manuceau and Verbeure).  In the
    mu-frame of _frame the singular values of Jt are sigma_k = 1 / (2 nu_k),
    so the eigenvalues of G = Jt^T Jt are the sigma_k^2, each twice: G is
    similar to mu^{-1} T^T mu^{-1} T with T = tau / 2, and its entries have
    unit scale whatever cond(mu).  The pair is pure iff max |lambda - 1| <=
    1e-8 over that spectrum; _frame has decided the pair bound, lambda <=
    (1 + 1e-9)^2.  On a q-p split frame G is block diagonal and its spectrum
    is the union of its diagonal blocks' spectra, one N x N eigvalsh each.
    """
    f = _frame(mu, tau)
    lams = _spectrum(f.G, f.parts)
    residual = float(np.abs(lams - 1.0).max())
    return PurityReport(pure=residual <= 1e-8, residual=residual, spectrum=lams)


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
    with min s < 1e-10 max s.  A Cholesky factorization of A - 1e-12 max|A| I
    decides A's positivity; A's spectrum only names a refusal.

    Split route: _parts, which decides the same for _frame, reads (A, T)
    as q-p split when A's off-diagonal blocks and T's diagonal blocks are
    all zero, as for lattice_energy_form.  Then R = blockdiag(Rq, Rp),
    G = [[0, C], [D, 0]] with C = Rq^T T[:N, N:] Rp and D = Rp^T T[N:, :N]
    Rq, so G^T G = blockdiag(D^T D, C^T C): each block gets its own N x N
    eigenproblem and positivity probe, and mu's q-p blocks are exact zeros.  Mapping one
    block's eigenvectors to the other's by C^T U / s instead loses about
    three digits; the tests pin the split route to the general one at 1e-12.
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
    parts = _parts(A, T)  # q-p split: A = blockdiag(A_qq, A_pp), G^T G block diagonal too
    eye = np.eye(len(A) // len(parts))
    if not all(_positive(A[k, k] - 1e-12 * scale * eye) for k in parts):
        lam = np.linalg.eigvalsh(A)[0]
        if lam < -1e-10 * scale:
            raise InvalidCovarianceError("energy form must be positive")
        if lam <= 1e-12 * scale:
            # zero-energy direction: the frequency spectrum touches zero
            raise SpectrumNotGappedError("energy form has a null direction; no gapped ground state")
    Rs = [np.linalg.cholesky(A[k, k]) for k in parts]
    spectra = []
    # G's column block k is nonzero only in row block j: the other block
    # when split, the whole of G otherwise
    for k, j, R, Rj in zip(parts, parts[::-1], Rs, Rs[::-1]):
        G = Rj.T @ T[j, k] @ R
        _, V = np.linalg.eigh(G.T @ G)
        spectra.append((k, R, V, np.linalg.norm(G @ V, axis=0)))
    s = np.concatenate([sk for *_, sk in spectra])
    s_max = float(s.max())
    if s_max == 0.0 or float(s.min()) < 1e-10 * s_max:
        raise SpectrumNotGappedError(
            "frequency spectrum touches zero; no gapped ground state"
        )
    with float_range("ground-state covariance"):
        mu = np.zeros_like(A)
        for k, R, V, sk in spectra:
            X = (R @ V) / np.sqrt(2.0 * sk)
            mu[k, k] = X @ X.T  # a symmetric product: mu is exactly symmetric
        return np.ldexp(mu, e)


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
    A = dense_zeros((2 * n, 2 * n), "n_sites")
    S = np.roll(np.eye(n), 1, axis=1)
    with float_range("energy form: spacing or mass"):
        # mass enters numpy before it is squared, so its overflow is seen
        A[:n, :n] = mass * np.eye(n) * mass + (2 * np.eye(n) - S - S.T) / (a * a)
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
        with float_range("a(xi)"):
            return sum(np.conj(x) * mat for x, mat in zip(xi, self._lower))

    def creator(self, xi):
        return self.annihilator(xi).conj().T

    def field(self, x):
        """Represented field on a real phase vector."""
        with float_range("represented field"):
            lower = self.annihilator(self.structure.K @ self.structure._vector(x))
            return lower + lower.conj().T

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
        with float_range("commutator residual"):
            A = self.annihilator(K @ vector(psi))
            Cr = self.creator(K @ vector(xi))
            comm = A @ Cr - Cr @ A
            expected = self.structure.inner(psi, xi) * np.eye(self.dim)
            P = self.sector_projector(self.cutoff - 1)
            return float(np.abs(P @ (comm - expected) @ P).max())

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
        with float_range("vacuum expectation"):
            for x in reversed(vectors):
                v = self.field(x) @ v
            return complex(self.vacuum() @ v)


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
    covariances must pass validate_mu_tau's checks on the largest block,
    factored once: L is lower triangular, so each leading block of
    L^{-1} and of B = L^{-1} (mu2 - mu1) L^{-T} is the smaller block's own,
    and only the symmetry checks, scaled to each block, run per block.
    When both frames are q-p split (see _frame), mu2 - mu1, B and Q are
    block diagonal and formed per block, and a rung's spectrum is the union
    of the spectra of each diagonal block's leading part.
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
    f1 = _frame(m1, t, what="mu1 block")
    Linv, parts = f1.Linv, f1.parts
    del f1  # of the first frame only Linv is read: free the rest before the second
    if _frame(m2, t, what="mu2 block").parts != parts:
        parts = (slice(None),)
    Bs, Qs = [], []
    with float_range("mu2 - mu1 in the mu1 geometry"):
        for k in parts:
            D = Linv[k, k] @ (m2[k, k] - m1[k, k])
            B = D @ Linv[k, k].T
            B = (B + B.T) / 2.0
            Bs.append(B)
            Qs.append(Linv[k, k].T @ D)  # mu1^{-1} (mu2 - mu1) on the largest block
    Q = _join(Qs, [(k, k) for k in parts], m1.shape)
    spectra = [
        np.sort(np.concatenate([np.linalg.eigvalsh(B[:m, :m])
                                for k, B in zip(parts, Bs) if (m := n - (k.start or 0)) > 0]))
        for n in sizes
    ]
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
