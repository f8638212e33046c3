"""Workload `gaussian_state`: the quasifree-state construction on a lattice
ground state.

One pass builds the ground-state covariance of a 128-site Klein-Gordon
chain, its one-particle structure and purity verdict, and an equivalence
probe against the chain at a second mass.  A 6-site chain's covariance then
becomes a two-point kernel mu + (i/2) tau and a quasifree state, whose long
moments (n = 6..14 slots) take most of the pass.  A 2-site chain in a
truncated Fock space cross-checks the short moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from oracles import lattice_dispersion, wick_moment

CHAIN_SITES = 6
FOCK_SITES = 2
FOCK_CUTOFF = 6
FOCK_ORDERS = (2, 4, 6)


@dataclass(frozen=True)
class Inputs:
    n_sites: int
    spacing: float
    mass: float
    mass2: float
    truncations: tuple
    moments: tuple  # index lists over generators 1..2*CHAIN_SITES
    fock_lists: tuple  # index lists over phase-space basis vectors 0..3


def build(rng, reduced=False):
    """Seeded inputs; `reduced` is the warm-up and smoke size."""
    n_sites = 16 if reduced else 128
    orders = (6, 8) if reduced else (6, 8, 10, 12, 14)
    spacing = float(rng.uniform(0.3, 0.8))
    mass = float(rng.uniform(0.5, 1.5))
    mass2 = mass * float(rng.uniform(1.2, 2.0))
    moments = tuple(
        tuple(int(i) for i in rng.integers(1, 2 * CHAIN_SITES + 1, size=n))
        for n in orders
    )
    fock_lists = tuple(
        tuple(int(i) for i in rng.integers(0, 2 * FOCK_SITES, size=n))
        for n in FOCK_ORDERS
    )
    truncations = tuple(n_sites // d for d in (8, 4, 2, 1))
    return Inputs(n_sites, spacing, mass, mass2, truncations, moments, fock_lists)


# ------------------------------------------------------------------ oracle

def mode_sum_covariance(n_sites, spacing, mass):
    """Ground-state covariance of the periodic chain from its dispersion:
    mu_qq = V^{1/2} / 2 and mu_pp = V^{-1/2} / 2, summed over lattice
    momenta, with tau the standard block form."""
    n = n_sites
    omega = np.array(
        [lattice_dispersion(2.0 * math.pi * k / (n * spacing), mass, spacing) for k in range(n)]
    )
    offsets = np.arange(n)
    phases = np.cos(2.0 * math.pi * np.outer(np.arange(n), offsets) / n)
    cq = phases.T @ omega / (2.0 * n)
    cp = phases.T @ (1.0 / omega) / (2.0 * n)
    lag = (offsets[:, None] - offsets[None, :]) % n
    mu = np.zeros((2 * n, 2 * n))
    mu[:n, :n] = cq[lag]
    mu[n:, n:] = cp[lag]
    tau = np.zeros((2 * n, 2 * n))
    tau[:n, n:] = np.eye(n)
    tau[n:, :n] = -np.eye(n)
    return mu, tau


def _hs_norms(mu1, mu2, truncations):
    # leading 2N x 2N blocks; eigenvalues of mu1^{-1}(mu2 - mu1) directly
    out = []
    for n_modes in truncations:
        k = 2 * n_modes
        m1, m2 = mu1[:k, :k], mu2[:k, :k]
        lams = np.linalg.eigvals(np.linalg.solve(m1, m2 - m1)).real
        out.append(float(np.sqrt(np.sum(lams**2))))
    return np.array(out)


@dataclass(frozen=True)
class Oracle:
    mu: np.ndarray
    mu2: np.ndarray
    hs_norms: np.ndarray
    moments: tuple  # (moment, sum of |pairing terms|) per index list
    fock: tuple


def _moments(index_lists, mu, tau, offset):
    # scale for roundoff in a moment, which can cancel to zero by
    # symmetry: the sum of |pairing terms|, at least max|K|^(n/2)
    K = (mu + 0.5j * tau).tolist()
    largest = float(np.abs(mu + 0.5j * tau).max())
    return tuple(
        (
            complex(wick_moment(idx, lambda i, j: K[i - offset][j - offset])),
            max(
                float(wick_moment(idx, lambda i, j: abs(K[i - offset][j - offset]))),
                largest ** (len(idx) // 2),
            ),
        )
        for idx in index_lists
    )


def oracle(inp):
    mu, _ = mode_sum_covariance(inp.n_sites, inp.spacing, inp.mass)
    mu2, _ = mode_sum_covariance(inp.n_sites, inp.spacing, inp.mass2)
    chain = mode_sum_covariance(CHAIN_SITES, inp.spacing, inp.mass)
    fock = mode_sum_covariance(FOCK_SITES, inp.spacing, inp.mass)
    return Oracle(
        mu=mu,
        mu2=mu2,
        hs_norms=_hs_norms(mu, mu2, inp.truncations),
        moments=_moments(inp.moments, *chain, offset=1),
        fock=_moments(inp.fock_lists, *fock, offset=0),
    )


# -------------------------------------------------------------------- pass

def _state(lib, n_sites, spacing, mass):
    A, tau = lib.lattice_energy_form(n_sites, spacing, mass)
    mu = lib.ground_state_mu(A, tau)
    K = mu + 0.5j * tau
    gens = range(1, 2 * n_sites + 1)
    table = {(i, j): K[i - 1, j - 1] for i in gens for j in gens}
    kernel = lib.TwoPointKernel(table, generators=list(gens))
    return mu, tau, lib.QuasifreeState(kernel)


def run(lib, inp):
    out = {}
    A, tau = lib.lattice_energy_form(inp.n_sites, inp.spacing, inp.mass)
    mu = lib.ground_state_mu(A, tau)
    out["mu"] = mu
    out["one_particle_dim"] = lib.one_particle(mu, tau).dim
    out["pure"] = lib.purity(mu, tau).pure
    A2, _ = lib.lattice_energy_form(inp.n_sites, inp.spacing, inp.mass2)
    mu2 = lib.ground_state_mu(A2, tau)
    out["mu2"] = mu2
    probe = lib.equivalence_probe(mu, mu2, tau, truncations=list(inp.truncations))
    out["hs_norms"] = np.array(probe.hs_norms)

    _, _, chain = _state(lib, CHAIN_SITES, inp.spacing, inp.mass)
    out["moments"] = [lib.npoint(chain, idx) for idx in inp.moments]

    mu_f, tau_f, pair = _state(lib, FOCK_SITES, inp.spacing, inp.mass)
    rep = lib.FockRepresentation(lib.one_particle(mu_f, tau_f), FOCK_CUTOFF)
    basis = np.eye(2 * FOCK_SITES)
    out["fock"] = [lib.vacuum_npoint(rep, [basis[i] for i in idx]) for idx in inp.fock_lists]
    out["fock_npoint"] = [lib.npoint(pair, [i + 1 for i in idx]) for idx in inp.fock_lists]
    return out


def verify(out, inp, orc, check):
    check.close("ground_state_mu", out["mu"], orc.mu, tol=1e-10)
    check.close("ground_state_mu.mass2", out["mu2"], orc.mu2, tol=1e-10)
    check.ok("one_particle.dim", out["one_particle_dim"] == inp.n_sites)
    check.ok("purity.pure", out["pure"])
    check.close("equivalence_probe.hs_norms", out["hs_norms"], orc.hs_norms, tol=1e-8)
    for got, (want, scale) in zip(out["moments"], orc.moments):
        check.close("npoint", got, want, tol=1e-9, scale=scale)
    for fock, moment, (want, scale) in zip(out["fock"], out["fock_npoint"], orc.fock):
        check.close("npoint.fock_chain", moment, want, tol=1e-9, scale=scale)
        check.close("vacuum_npoint", fock, moment, tol=1e-9, scale=scale)
