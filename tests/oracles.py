"""Independent reference implementations used to pin expected values.

Everything here is deliberately written the straightforward way (recursive
enumerations, closed forms, high-precision library calls) so the package code
can be checked against implementations that share no machinery with it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from ccr_lab.ccr_core import ExactComplex

EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------- pairings

def all_pairings(items):
    """Yield every perfect matching of a list, as tuples of ascending pairs.

    Recursive scheme: pair the first element with each remaining one, recurse
    on what is left.  Count is (n-1)!! for n items.
    """
    items = list(items)
    if not items:
        yield ()
        return
    if len(items) % 2:
        raise ValueError("odd list has no perfect matching")
    first = items[0]
    for pick in range(1, len(items)):
        partner = items[pick]
        rest = items[1:pick] + items[pick + 1 :]
        for tail in all_pairings(rest):
            yield ((first, partner),) + tail


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def wick_moment(indices, kernel_value):
    """Brute-force quasifree n-point: sum over pairings of two-point values.

    kernel_value(i, j) is called with the original argument order of each
    ascending-position pair.
    """
    n = len(indices)
    if n == 0:
        return 1
    if n % 2:
        return 0
    total = None
    for pairing in all_pairings(range(n)):
        term = None
        for a, b in pairing:
            v = kernel_value(indices[a], indices[b])
            term = v if term is None else term * v
        total = term if total is None else total + term
    return total


def partial_matchings(n):
    """All partial pairings of positions 0..n-1 (including the empty one).

    Each matching is a tuple of ascending (a, b) pairs with a < b, pairwise
    disjoint; the pairs are listed in order of their first slots.
    """
    positions = tuple(range(n))

    def go(avail):
        yield ()
        if len(avail) < 2:
            return
        first = avail[0]
        for k in range(1, len(avail)):
            rest = avail[1:k] + avail[k + 1 :]
            for tail in go(rest):
                yield ((first, avail[k]),) + tail
        # matchings not using `first` at all
        for tail in go(avail[1:]):
            if tail:
                yield tail

    seen = set()
    for m in go(positions):
        if m not in seen:
            seen.add(m)
            yield m


def normal_order_oracle(word, kappa_value, one):
    """Expand a plain product word in the normal-ordered basis.

    Wick's theorem for a product phi_{f_1}...phi_{f_n} with ordering kernel
    kappa: sum over partial matchings M of prod kappa(f_a, f_b) (slots a < b)
    times the normal-ordered monomial of the unmatched letters.  Normal
    monomials are symmetric, so they are recorded with sorted index tuples.
    Returns dict sorted-word -> coefficient.  `one` is the multiplicative
    unit scalar (1 or ExactComplex(1)).
    """
    n = len(word)
    out = {}
    for matching in partial_matchings(n):
        coeff = one
        used = set()
        for a, b in matching:
            coeff = coeff * kappa_value(word[a], word[b])
            used.add(a)
            used.add(b)
        rest = tuple(sorted(word[p] for p in range(n) if p not in used))
        out[rest] = out.get(rest, 0 * one) + coeff
    return {w: c for w, c in out.items() if not _is_zero(c)}


def unorder_oracle(nword, kappa_value, one):
    """Expand a normal-ordered monomial into plain product words.

    Inverse Wick formula: sum over partial matchings with (-1)^{|M|} prod
    kappa, times the plain product of the unmatched letters in order.
    Returns dict word -> coefficient (words not normalized).
    """
    n = len(nword)
    out = {}
    for matching in partial_matchings(n):
        coeff = one
        used = set()
        for a, b in matching:
            coeff = coeff * kappa_value(nword[a], nword[b])
            used.add(a)
            used.add(b)
        if len(matching) % 2:
            coeff = -coeff
        rest = tuple(nword[p] for p in range(n) if p not in used)
        out[rest] = out.get(rest, 0 * one) + coeff
    return {w: c for w, c in out.items() if not _is_zero(c)}


def _is_zero(c):
    if isinstance(c, ExactComplex):
        return not c
    return c == 0


# ----------------------------------------------------- ordering change map

def hermite_alpha_coeff(n, k):
    """Coefficient of the 2k-fold contraction when re-expanding a degree-n
    normal monomial in another ordering: n! / (k! (n-2k)! 2^k)."""
    return Fraction(
        math.factorial(n), math.factorial(k) * math.factorial(n - 2 * k) * 2**k
    )


# ----------------------------------------------------------- phase space

def ho_ground_covariance(omega):
    """Single-mode ground-state covariance in the symplectic-smearing
    labeling used by the package: diag(omega/2, 1/(2 omega)) on (q, p)."""
    return np.diag([omega / 2.0, 1.0 / (2.0 * omega)])


def lattice_ground_covariance(n_sites, spacing, mass):
    """Ground-state covariance of the periodic Klein-Gordon chain, entry by
    entry from its normal modes.

    The chain's potential block is circulant, so its normal modes are plane
    waves with frequencies omega_k = lattice_dispersion(2 pi k / (N a)).
    In the symplectic-smearing labeling the q block is V^{1/2} / 2 and the p
    block V^{-1/2} / 2, that is

        mu_qq[i, j] = sum_k omega_k cos(2 pi k (i - j) / N) / (2 N),
        mu_pp[i, j] = sum_k cos(2 pi k (i - j) / N) / (2 N omega_k),

    in the ordering (q_1..q_N, p_1..p_N); the q-p blocks vanish.
    """
    n = n_sites
    omegas = [
        lattice_dispersion(2.0 * math.pi * k / (n * spacing), mass, spacing)
        for k in range(n)
    ]
    qq = np.zeros(n)
    pp = np.zeros(n)
    for d in range(n):  # d = (i - j) mod N
        cosines = [math.cos(2.0 * math.pi * k * d / n) for k in range(n)]
        qq[d] = math.fsum(w * c for w, c in zip(omegas, cosines)) / (2.0 * n)
        pp[d] = math.fsum(c / w for w, c in zip(omegas, cosines)) / (2.0 * n)
    lag = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    mu = np.zeros((2 * n, 2 * n))
    mu[:n, :n] = qq[lag]
    mu[n:, n:] = pp[lag]
    return mu


def rank1_hs_norm(mu1, v):
    """Hilbert-Schmidt norm of Q for mu2 = mu1 + v v^T: equals v^T mu1^{-1} v."""
    return float(v @ np.linalg.solve(mu1, v))


def random_pure_pair(rng, n_modes):
    """Random (mu, tau) of a pure Gaussian state: tau = R^T tau0 R, mu = R^T R / 2."""
    dim = 2 * n_modes
    tau0 = standard_symplectic(n_modes)
    while True:
        R = rng.normal(size=(dim, dim))
        if abs(np.linalg.det(R)) > 1e-3:
            break
    return R.T @ R / 2.0, R.T @ tau0 @ R


def random_mixed_pair(rng, n_modes, d_min=1.2, d_max=3.0):
    """Random strictly mixed (mu, tau): per-mode temperatures d_k > 1."""
    dim = 2 * n_modes
    tau0 = standard_symplectic(n_modes)
    while True:
        R = rng.normal(size=(dim, dim))
        if abs(np.linalg.det(R)) > 1e-3:
            break
    d = rng.uniform(d_min, d_max, size=n_modes)
    D = np.diag(np.repeat(d, 2))
    return R.T @ D @ R / 2.0, R.T @ tau0 @ R


def standard_symplectic(n_modes):
    """Block-diagonal [[0, 1], [-1, 0]] per mode."""
    blocks = [np.array([[0.0, 1.0], [-1.0, 0.0]]) for _ in range(n_modes)]
    out = np.zeros((2 * n_modes, 2 * n_modes))
    for k, b in enumerate(blocks):
        out[2 * k : 2 * k + 2, 2 * k : 2 * k + 2] = b
    return out


# --------------------------------------------------------------- lattice

def dalembert_retarded(t, x):
    """Continuum massless 1+1D retarded Green function: 1/2 inside the
    forward cone."""
    return 0.5 if t > abs(x) else 0.0


def lattice_dispersion(k, m, a):
    """Spatial-lattice Klein-Gordon frequency: omega(k)^2 = m^2 +
    (4/a^2) sin^2(k a / 2)."""
    return math.sqrt(m * m + (4.0 / (a * a)) * math.sin(k * a / 2.0) ** 2)


def leapfrog_dispersion_residual(omega, k, m, a, dt):
    """Exact discrete dispersion of the leapfrog scheme; zero when omega is
    the discrete mode frequency."""
    lhs = (2.0 / dt * math.sin(omega * dt / 2.0)) ** 2
    rhs = m * m + (2.0 / a * math.sin(k * a / 2.0)) ** 2
    return lhs - rhs


# ------------------------------------------------------- special functions

def mp_k1(z):
    import mpmath

    mpmath.mp.dps = 40
    v = mpmath.besselk(1, mpmath.mpc(complex(z)))
    return complex(v)


def mp_i1(z):
    import mpmath

    mpmath.mp.dps = 40
    v = mpmath.besseli(1, mpmath.mpc(complex(z)))
    return complex(v)


def bessel_envelope(z, ref):
    """Accuracy yardstick for K1/I1 near the imaginary axis, where the
    functions oscillate through zeros: the typical modulus at that radius."""
    z = complex(z)
    r = abs(z)
    if r == 0:
        return abs(ref)
    typical = math.sqrt(math.pi / (2.0 * r)) * math.exp(-z.real)
    return max(abs(ref), typical)


def i1_envelope(z, ref):
    z = complex(z)
    r = abs(z)
    if r == 0:
        return abs(ref)
    typical = math.exp(abs(z.real)) / math.sqrt(2.0 * math.pi * r)
    return max(abs(ref), typical)


# ------------------------------------------------------- Minkowski kernel

def hadamard_v_coefficients(m, order):
    """Closed-form flat-space parametrix coefficients v_k, k = 0..order."""
    out = []
    for k in range(order + 1):
        out.append(
            m * m / (16 * math.pi**2)
            * (m * m / 4.0) ** k
            / (math.factorial(k) * math.factorial(k + 1))
        )
    return out


def coincidence_remainder(m, lam):
    """Coincidence value of the Hadamard remainder for the vacuum kernel:
    (m^2/16 pi^2) (2 gamma - 1 - ln 4 + ln(m^2 lam^2))."""
    return (
        m * m / (16 * math.pi**2)
        * (2 * EULER_GAMMA - 1 - math.log(4.0) + math.log(m * m * lam * lam))
    )


def remainder_oracle(dt, r, m, lam, order):
    """Hadamard remainder W - H at eps = 0, both terms in 50 digits: mpmath
    K1 for W = (m^2/4pi^2) K1(z)/z, z = m sqrt(sigma), and the order-N
    parametrix H = 1/(4pi^2 sigma) + sum v_k sigma^k log(sigma/lam^2).  The
    timelike root and log take the side given by the sign of dt."""
    import mpmath

    with mpmath.workdps(50):
        dt, r, m, lam = (mpmath.mpf(v) for v in (dt, r, m, lam))
        sigma = r * r - dt * dt
        if sigma > 0:
            root, log_sigma = mpmath.sqrt(sigma), mpmath.log(sigma)
        else:
            side = 1 if dt > 0 else -1
            root = mpmath.mpc(0, side * mpmath.sqrt(-sigma))
            log_sigma = mpmath.log(-sigma) + side * mpmath.pi * 1j
        z = m * root
        four_pi_sq = 4 * mpmath.pi**2
        w = m * m / four_pi_sq * mpmath.besselk(1, z) / z - 1 / (four_pi_sq * sigma)
        for k in range(order + 1):
            v = (m * m / (4 * four_pi_sq) * (m * m / 4) ** k
                 / (mpmath.factorial(k) * mpmath.factorial(k + 1)))
            w -= v * sigma**k * (log_sigma - mpmath.log(lam * lam))
        return complex(w)


def neville_to_zero(xs, ys):
    """Polynomial extrapolation of (xs, ys) to x = 0, Neville's scheme."""
    xs = [float(x) for x in xs]
    vals = list(ys)
    n = len(vals)
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            x_lo, x_hi = xs[i], xs[i + level]
            nxt.append((x_lo * vals[i + 1] - x_hi * vals[i]) / (x_lo - x_hi))
        vals = nxt
    return vals[0]


def commutator_radial_oracle(m, r, dt):
    """Field commutator amplitude at radial separation by brute force:
    -(1/(2 pi^2 r)) int_0^inf k sin(kr) sin(dt w)/w e^(-eps k) dk with a
    damping ladder and polynomial extrapolation.  Independent of the
    package's quadrature (plain dense trapezoid)."""
    import numpy as np

    def damped(eps):
        k_max = 30.0 / eps
        n = 400_000
        k = np.linspace(0.0, k_max, n + 1)
        w = np.sqrt(k * k + m * m)
        vals = k * np.sin(k * r) * np.sin(dt * w) / np.maximum(w, 1e-300)
        vals = vals * np.exp(-eps * k)
        return float(np.trapezoid(vals, k) if hasattr(np, "trapezoid")
                     else np.trapz(vals, k))

    ladder = [0.2, 0.1, 0.05, 0.025]
    value = neville_to_zero(ladder, [damped(e) for e in ladder])
    return -value / (2.0 * math.pi**2 * r)


# ------------------------------------------------------------ thermal state

def thermal_smooth_kernel(beta, m):
    """Smooth part W_beta - W_0 of the thermal (KMS) two-point function at
    inverse temperature beta, as a callable w(x, y) of two 4-points:
    (1/2 pi^2) int k^2 n(omega)/omega cos(omega dt) sin(kr)/(kr) dk with
    n = 1/(e^(beta omega) - 1), by 400-node Gauss-Legendre on [0, 40/beta],
    past which n is below e^-40."""
    u, wts = np.polynomial.legendre.leggauss(400)
    half = 20.0 / beta
    k = half * (u + 1.0)
    omega = np.sqrt(k * k + m * m)
    weight = half * wts * k * k / (omega * np.expm1(beta * omega)) / (2.0 * math.pi**2)

    def w(x, y):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        r = math.sqrt(d[1] * d[1] + d[2] * d[2] + d[3] * d[3])
        return float(weight @ (np.cos(omega * d[0]) * np.sinc(k * r / math.pi)))

    return w


def bose_energy_density_and_pressure(beta, m):
    """rho = (1/2 pi^2) int k^2 omega n dk and p = (1/6 pi^2) int k^4/omega n dk
    of the free thermal gas, n = 1/(e^(beta omega) - 1), by mpmath."""
    import mpmath

    with mpmath.workdps(30):
        beta, m = mpmath.mpf(beta), mpmath.mpf(m)

        def bose(f):
            def integrand(k):
                omega = mpmath.sqrt(k * k + m * m)
                return f(k, omega) / mpmath.expm1(beta * omega)

            return mpmath.quad(integrand, [0, 1 / beta, mpmath.inf])

        rho = bose(lambda k, omega: k**2 * omega) / (2 * mpmath.pi**2)
        p = bose(lambda k, omega: k**4 / omega) / (6 * mpmath.pi**2)
        return float(rho), float(p)


# ------------------------------------------------------------- microlocal

def minkowski_sq(k):
    """Mostly-minus quadratic form k0^2 - |kvec|^2; only its zero set and the
    sign of k0 enter the relation predicates."""
    return k[0] * k[0] - k[1] * k[1] - k[2] * k[2] - k[3] * k[3]
