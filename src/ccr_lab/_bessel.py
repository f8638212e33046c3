"""Modified Bessel functions K1 and I1 on the closed right half plane.

Internal numerics helper for the vacuum kernel evaluations.  K1 has three
regimes: a convergent series near the origin, contour quadrature at moderate
modulus, and the large-argument expansion.  I1 is one trapezoid rule over
its integral representation.  Arguments with negative imaginary part are
folded through conjugation symmetry.  Accuracy target is 1e-12 relative to
the local modulus scale (sqrt(pi/2|z|)e^(-Re z) for K1, e^|Re z|/sqrt(2pi|z|)
for I1); the test suite holds the implementation to that against a
high-precision reference.

Also home of the composite Gauss-Legendre node builder that the contour
quadrature and the vacuum mode integral share, and of the one series in
c_k = t^k/(k! (k+1)!): with t = z^2/4 it is the K1 and I1 series, with
t = m^2 sigma/4 the Hadamard series that the parametrix and the remainder
read (_series_sums, _series_head).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np

from .errors import ValidationError

_EULER_GAMMA = 0.5772156649015328606


def _panels(edges, rule):
    """Nodes and weights of the Gauss-Legendre `rule` (nodes, weights on
    [-1, 1]) repeated on each panel between consecutive `edges`."""
    x, w = rule
    mids = 0.5 * (edges[1:] + edges[:-1])
    halfs = 0.5 * (edges[1:] - edges[:-1])
    return (mids[:, None] + halfs[:, None] * x).ravel(), (halfs[:, None] * w).ravel()


@functools.cache
def _contour_rules():
    # built on first use: leggauss(80) costs milliseconds, and most importers
    # of the package never evaluate K1 in the quadrature regime
    leggauss = np.polynomial.legendre.leggauss
    arc = _panels(np.array([0.0, 1.0]), leggauss(80))
    tail = _panels(np.array([0.0, 0.75, 1.5, 2.5, 4.0, 7.0]), leggauss(32))
    return arc, tail


# k(k+1) and psi_k = psi(k+1) + psi(k+2) for the terms _series_sums can
# reach, psi_k built by psi(n+1) = psi(n) + 1/n from psi(1) + psi(2)
_SERIES_TERMS = 60
_KK1 = [k * (k + 1) for k in range(_SERIES_TERMS)]
_PSI = list(itertools.accumulate(
    (1.0 / k + 1.0 / (k + 1) for k in range(1, _SERIES_TERMS)),
    initial=1.0 - 2.0 * _EULER_GAMMA,
))


def _series_sums(t, split=-1):
    # partial sums of c_k = t^k / (k! (k+1)!) over k <= split and over
    # k > split, and the full sum of psi_k c_k, where psi_k = psi(k+1) +
    # psi(k+2) and psi(n+1) = -gamma + H_n.  The head is summed whole; the
    # rest runs until both full sums have converged.
    c, k_sum = 1.0, _PSI[0]
    head, tail = (c, 0.0) if split >= 0 else (0.0, c)
    for k in range(1, split + 1):
        c *= t / _KK1[k]
        head += c
        k_sum += c * _PSI[k]
    for k in range(max(split, 0) + 1, _SERIES_TERMS):
        c *= t / _KK1[k]
        tail += c
        term = c * _PSI[k]
        k_sum += term
        if abs(c) < 1e-18 * abs(head + tail) and abs(term) < 1e-18 * abs(k_sum):
            break
    return head, tail, k_sum


def _series_head(t, n):
    """[c_0, ..., c_n] of the series in _series_sums."""
    terms = [1.0]
    for k in range(1, n + 1):
        terms.append(terms[-1] * (t / _KK1[k]))
    return terms


def _k1_series(z):
    # K1(z) = 1/z + log(z/2) I1(z) - (z/4) sum_k psi_k c_k and
    # I1(z) = (z/2) sum_k c_k, with t = z^2/4 in _series_sums
    _, i_sum, k_sum = _series_sums(z * z * 0.25)
    return 1.0 / z + cmath.log(0.5 * z) * (0.5 * z * i_sum) - 0.25 * z * k_sum


def _k1_asym(z):
    # sqrt(pi/2z) e^-z sum_k a_k / z^k with a_0 = 1 and
    # a_(k+1) = a_k (4 - (2k+1)^2) / (8 (k+1)), the nu = 1 coefficients.
    # k1 calls this only for |z| >= 16, where the term ratio
    # |4 - (2k+1)^2| / (8 (k+1) |z|) is at most 3481/3840 < 1 for k < 30:
    # the terms of the divergent series shrink throughout, and the sum stops
    # once a term is below 1e-17 of it
    term = 1.0 + 0.0j
    total = term
    for k in range(30):
        term = term * ((4.0 - (2 * k + 1) ** 2) / (8.0 * (k + 1))) / z
        total += term
        if abs(term) < 1e-17 * abs(total):
            break
    return cmath.sqrt(math.pi / (2.0 * z)) * cmath.exp(-z) * total


def _k1_quadrature(z):
    # K1(z) = int_0^inf e^(-z cosh s) cosh s ds with the contour moved by
    # arg z = phi so the tail decays monotonically: first s = -iu for u in
    # [0, phi], where cosh s = cos u, then s - i phi for s in [0, 7]
    phi = cmath.phase(z)
    (t, wt), (s, ws) = _contour_rules()
    c = np.cosh(s - 1j * phi)
    total = np.sum(ws * np.exp(-z * c) * c)
    if phi > 0.0:
        cu = np.cos(phi * t)
        total += -1j * phi * np.sum(wt * np.exp(-z * cu) * cu)
    return complex(total)


def _check_domain(z):
    z = complex(z)
    if z == 0:
        raise ValidationError("modified Bessel argument must be nonzero")
    if z.real < -1e-12 * abs(z):
        raise ValidationError("modified Bessel routines cover the right half plane only")
    return z


def k1(z):
    """Modified Bessel function K1 for complex z with Re z >= 0."""
    z = _check_domain(z)
    if z.imag < 0:
        return k1(z.conjugate()).conjugate()
    r = abs(z)
    if r <= 4.0:
        return _k1_series(z)
    if r >= 16.0:
        return _k1_asym(z)
    return _k1_quadrature(z)


def i1(z):
    """Modified Bessel function I1 for complex z with Re z >= 0."""
    z = _check_domain(z)
    if z.imag < 0:
        return i1(z.conjugate()).conjugate()
    # trapezoid rule on I1(z) = (1/pi) int_0^pi (e^(z cos t) - 1) cos t dt,
    # whose even periodic extension is entire: 160 panels hold the target
    # out to |z| = 200, and expm1 keeps small z at full relative precision
    c = np.cos(np.linspace(0.0, math.pi, 161))
    v = c * np.expm1(z * c)
    return complex((v.sum() - 0.5 * (v[0] + v[-1])) / 160)
