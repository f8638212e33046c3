"""Vacuum two-point structures for the free scalar field on flat spacetime.

Two independent evaluation pipelines for the Wightman kernel at a spacetime
separation (a closed form through the modified Bessel function K1, and a
radial Fourier mode integral), the short-distance parametrix with its
closed-form coefficients, the smooth remainder after subtraction, and the
one-particle scalar product of radially sampled momentum profiles.

The mode integral's nodes do not depend on the regulator, so one pass over
them gives the integral at every rung of the regulator ladder that the eps
-> 0 extrapolation needs.  One node set per separation serves both head
cutoffs of the self-check and both +-r components (_fourier_pair): one
sin(kr) head per cutoff, and the four rotated tails as one array.

The parametrix, its coefficients, the lam-shift and the remainder read one
series, (m^2/16 pi^2) c_k with c_k = t^k/(k! (k+1)!) at t = m^2 sigma/4
(_bessel._series_sums): the first three sum its head k <= N.  Near
coincidence the remainder sums all of it, the 1/sigma poles of kernel and
parametrix cancelled term by term, so it keeps full precision where their
difference would lose it (see remainder_w).  A value that overflows a
float, such as 1/(4 pi^2 sigma) at a subnormal sigma, is refused with
ValidationError, not returned as inf.

Conventions.  Separations are reduced by translation and rotation symmetry
to a time difference dt and a spatial modulus r >= 0.  The causal square is
sigma = r^2 - dt^2 (positive spacelike), regulated as
sigma_eps = sigma + 2i*eps*dt + eps^2, and all complex powers and logs are
principal-branch.  At eps = 0 a timelike separation sits on the log/sqrt
cut and the side is resolved by the sign of dt, which is the limit the
regulator enforces.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from ._bessel import _panels, _series_head, _series_sums, k1
from .errors import (
    OnLightconeSingularError,
    OrderGuardError,
    QuadratureFailureError,
    TailTruncationError,
    ValidationError,
    as_finite,
    as_finite_array,
    as_finite_complex,
    float_range,
)

__all__ = [
    "SeparationPoint",
    "KernelParams",
    "MomentumProfile",
    "sigma_eps",
    "omega2_bessel",
    "omega2_fourier",
    "hadamard_H",
    "remainder_w",
    "hadamard_coefficients",
    "lambda_shift_delta",
    "momentum_overlap",
    "cross_check_grid",
]

_FOUR_PI_SQ = 4.0 * math.pi**2


def _mass_and_order(m, order):
    """Mass and parametrix order for KernelParams and hadamard_coefficients:
    m >= 0 with m^2 zero or a normal float, order a whole number 0..8."""
    m = as_finite(m, "mass")
    if m < 0.0 or m > 0.0 and not sys.float_info.min <= m * m < math.inf:
        raise ValidationError("mass must be 0, or positive with m**2 a normal float")
    order = as_finite(order, "parametrix order")
    if order < 0 or int(order) != order:
        raise ValidationError("parametrix order must be a whole number >= 0")
    if order > 8:
        raise OrderGuardError(f"parametrix order {int(order)} exceeds the supported 8")
    return m, int(order)


@dataclass(frozen=True)
class SeparationPoint:
    dt: float
    r: float

    def __post_init__(self):
        dt, r = as_finite(self.dt, "dt"), as_finite(self.r, "r")
        if not math.isfinite(r * r - dt * dt):
            raise ValidationError("dt**2 or r**2 overflows, so sigma would be NaN")
        if r < 0.0:
            raise ValidationError("spatial separation modulus must be >= 0")
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "r", r)

    @property
    def sigma(self) -> float:
        return self.r * self.r - self.dt * self.dt


@dataclass(frozen=True)
class KernelParams:
    """Evaluation parameters: mass, regulator, length scale, parametrix order.

    `lam` defaults to 1/mass, which makes the subtraction remainder cleanest;
    other scales are covered by the exact shift identity.
    """

    m: float = 1.0
    eps: float = 0.0
    lam: float | None = None
    order: int = 3

    def __post_init__(self):
        _, order = _mass_and_order(self.m, self.order)
        object.__setattr__(self, "order", order)
        if as_finite(self.eps, "eps") < 0.0:
            raise ValidationError("regulator must be >= 0")
        lam = self.lam
        if lam is None:
            lam = 1.0 / self.m if self.m > 0 else 1.0
            object.__setattr__(self, "lam", lam)
        if as_finite(lam, "lam") <= 0.0:
            raise ValidationError("length scale must be > 0")
        if not 0.0 < lam * lam < math.inf:
            raise ValidationError("lam**2 must be a nonzero finite float")
        if self.eps > 0.1 * lam:
            raise ValidationError("regulator must be small against the length scale")


def sigma_eps(p: SeparationPoint, eps: float) -> complex:
    eps = as_finite(eps, "regulator")
    return as_finite_complex(complex(p.sigma + eps * eps, 2.0 * eps * p.dt), "sigma_eps")


def _off_cone_sigma(p: SeparationPoint) -> float:
    """sigma at eps = 0, refusing a null separation."""
    s = p.sigma
    scale = p.r * p.r + p.dt * p.dt
    if abs(s) <= 1e-12 * scale or scale == 0.0:
        raise OnLightconeSingularError(
            "null separation is singular without a regulator"
        )
    return s


def _sigma_and_pole(p: SeparationPoint, eps: float):
    """sigma_eps, whose zero imaginary part at eps = 0 takes the sign of dt
    (the side of the cut, see Conventions), and 1/(4 pi^2 sigma_eps),
    refusing a separation where that pole overflows."""
    se = sigma_eps(p, eps) if eps > 0.0 else complex(_off_cone_sigma(p), math.copysign(0.0, p.dt))
    lead = 1.0 / (_FOUR_PI_SQ * se) if se else math.inf
    return se, as_finite_complex(lead, "1/(4 pi^2 sigma) at a separation so near coincidence")


def omega2_bessel(p: SeparationPoint, params: KernelParams) -> complex:
    """Closed-form vacuum kernel (m^2/4pi^2) K1(z)/z = z K1(z)/(4 pi^2 sigma_eps),
    z = m sqrt(sigma_eps).

    With eps = 0 this is the regulator limit directly: the branch of the
    square root at timelike separation follows the sign of dt.  A separation
    whose 1/(4 pi^2 sigma) overflows is refused, as in hadamard_H.
    """
    if params.m <= 0.0:
        raise ValidationError("the closed form needs a positive mass")
    se, lead = _sigma_and_pole(p, params.eps)
    z = params.m * cmath.sqrt(se)
    return as_finite_complex(lead * (z * k1(z)), "the closed-form kernel")


# --------------------------------------------------- Fourier mode pipeline

_GL24 = np.polynomial.legendre.leggauss(24)
_LAG = np.polynomial.laguerre.laggauss(60)
_MAX_HEAD_PANELS = 800


def _head_nodes(rho, dt, k0):
    """Composite Gauss-Legendre nodes and weights on [0, k0], with panel
    density tied to the total phase range."""
    turns = k0 * (abs(rho) + abs(dt)) / (2.0 * math.pi)
    if not turns <= _MAX_HEAD_PANELS - 4:  # an infinite phase range fails too
        raise QuadratureFailureError(
            "oscillation budget exhausted approaching the lightcone",
            residual=float("inf"),
        )
    n_panels = int(math.ceil(turns)) + 4
    return _panels(np.linspace(0.0, k0, n_panels + 1), _GL24)


def _tail_direction(rho, dt, m, k0):
    """Sign c and rate gamma of the tail's rotation into the complex k plane,
    k = k0 + i c u/gamma, the direction where the phase decays; a
    stationary point beyond k0 is refused."""
    omega0 = math.sqrt(k0 * k0 + m * m)
    beta0 = rho - dt * k0 / omega0
    beta_inf = rho - dt
    if beta0 == 0.0 or beta_inf == 0.0 or (beta0 > 0) != (beta_inf > 0):
        raise QuadratureFailureError(
            "phase has a stationary point beyond the head cutoff",
            residual=float("inf"),
        )
    c = 1.0 if beta0 > 0 else -1.0
    return c, min(abs(beta0), abs(beta_inf))


def _tail_nodes(k0, c, gamma, m):
    """Gauss-Laguerre nodes kk = k0 + i c u/gamma of a rotated tail, their
    weights times e^u, and omega at the nodes.  k0, c and gamma may be
    (n, 1) arrays, one row per tail."""
    u, wl = _LAG
    kk = k0 + 1j * c * (u / gamma)
    return kk, wl * np.exp(u), np.sqrt(kk * kk + m * m)


def _mode_integral(rho, dt, m, eps, k0, power):
    """integral_0^inf  k^power/omega * exp(i(k rho - dt omega) - eps k)  dk
    for every regulator in the sequence `eps`, in one pass.

    Power 1 is the integrand of the +-r components; power 2 at rho = 0 is
    their r -> 0 limit, k sin(kr)/r -> k^2.  Head on [0, k0] by composite
    Gauss-Legendre (_head_nodes); tail rotated into the complex k plane
    (_tail_direction).  No node depends on the regulator, so the undamped
    integrand is computed once and contracted with the damping exp(-eps k)
    of each rung.
    """
    k, wts = _head_nodes(rho, dt, k0)
    omega = np.sqrt(k * k + m * m)
    head = np.exp(-np.outer(eps, k)) @ (
        wts * k**power / omega * np.exp(1j * (k * rho - dt * omega))
    )
    c, gamma = _tail_direction(rho, dt, m, k0)
    kk, wl, om = _tail_nodes(k0, c, gamma, m)
    vals = wl * kk**power / om * np.exp(1j * (kk * rho - dt * om))
    tail = np.exp(-np.outer(eps, kk)) @ vals
    return head + 1j * c * tail / gamma


def _head_cutoff(p: SeparationPoint, m: float) -> float:
    r, dt = p.r, abs(p.dt)
    k0 = 6.0 * max(m, 0.5) + 8.0 / max(r + dt, 0.05)
    if dt > r and r > 0.0:
        # stationary phase of the +r component; push the cutoff past it
        # as the ratio x = r/dt < 1, since dt^2 - r^2 can underflow to 0
        x = r / dt
        k_star = m * x / math.sqrt(1.0 - x * x)
        k0 = max(k0, 1.6 * k_star)
    return k0


def _fourier_pair(p: SeparationPoint, m: float, eps, cutoffs):
    """The kernel at each regulator of `eps`, once for each head cutoff.

    At r > 0 it is (I(r) - I(-r)) / (2i 4 pi^2 r) with I the power-1 mode
    integral, evaluated on one node set: the +-r heads share their nodes,
    so each cutoff's head integrates k sin(kr)/omega exp(-i dt omega), and
    the four rotated tails (two cutoffs, +-r) are one (4, 60) array.
    """
    if p.r < 1e-9:
        if p.dt == 0.0:
            raise QuadratureFailureError(
                "coincidence point has no convergent mode integral", residual=float("inf")
            )
        return [_mode_integral(0.0, p.dt, m, eps, k0, 2) / _FOUR_PI_SQ for k0 in cutoffs]
    r, dt = p.r, p.dt
    eps = np.asarray(eps, dtype=float)
    heads, tails = [], []  # tails: (k0, rho, c, gamma), two per cutoff
    for k0 in cutoffs:  # refusals in the order of the per-component passes
        heads.append(_head_nodes(r, dt, k0))
        for rho in (r, -r):
            tails.append((k0, rho, *_tail_direction(rho, dt, m, k0)))
    out = []
    for k, wts in heads:
        omega = np.sqrt(k * k + m * m)
        vals = wts * k / omega * np.sin(k * r) * np.exp(-1j * dt * omega)
        out.append(np.exp(-np.outer(eps, k)) @ vals)
    k0, rho, c, gamma = (np.array(col)[:, None] for col in zip(*tails))
    kk, wl, om = _tail_nodes(k0, c, gamma, m)
    vals = wl * kk / om * np.exp(1j * (kk * rho - dt * om))
    tail = (np.exp(-eps[:, None, None] * kk) * vals).sum(axis=-1) * (1j * c / gamma).T
    sin_tail = (tail[:, 0::2] - tail[:, 1::2]) / 2j
    return [(h + t) / (_FOUR_PI_SQ * r) for h, t in zip(out, sin_tail.T)]


def _fourier_checked(p: SeparationPoint, m: float, eps):
    """The kernel at each regulator of the ladder `eps`, from two head
    cutoffs; the rungs are self-checked in ladder order."""
    k0 = _head_cutoff(p, m)
    v1, v2 = _fourier_pair(p, m, eps, (k0, 1.37 * k0 + 1.0))
    floor = 1e-2 * max(m * m, 1.0) / _FOUR_PI_SQ
    for a, b in zip(v1, v2):
        scale = max(abs(b), floor)
        residual = abs(a - b)
        if not residual <= 1e-9 * scale:  # a NaN residual fails too
            raise QuadratureFailureError(
                f"mode integral self-check failed (residual {residual:.3e})",
                residual=residual,
            )
    return [as_finite_complex(b, "the mode integral") for b in v2]


def _extrapolate_to_zero(xs, ys):
    vals = list(ys)
    n = len(vals)
    for level in range(1, n):
        nxt = []
        for i in range(n - level):
            x_lo, x_hi = xs[i], xs[i + level]
            nxt.append((x_lo * vals[i + 1] - x_hi * vals[i]) / (x_lo - x_hi))
        vals = nxt
    return vals[0]


def omega2_fourier(p: SeparationPoint, params: KernelParams) -> complex:
    """Radial mode-integral evaluation of the vacuum kernel.

    A positive `eps` in the parameters gives the single damped integral at
    that regulator.  At eps = 0 a decreasing regulator ladder is evaluated
    and polynomially extrapolated; the spread between full and trimmed
    extrapolants is the quoted failure residual.
    """
    m = params.m
    if params.eps > 0.0:
        return _fourier_checked(p, m, [params.eps])[0]
    span = p.r + abs(p.dt)  # at span = 0, _fourier_pair refuses the coincidence point
    ladder = [f * span for f in (3e-3, 1e-3, 3e-4, 1e-4, 3e-5)]
    values = _fourier_checked(p, m, ladder)
    full = _extrapolate_to_zero(ladder, values)
    trimmed = _extrapolate_to_zero(ladder[1:], values[1:])
    scale = max(abs(full), 1e-2 * max(m * m, 1.0) / _FOUR_PI_SQ)
    residual = abs(full - trimmed)
    if not residual <= 1e-7 * scale:  # a NaN residual fails too
        raise QuadratureFailureError(
            f"regulator extrapolation did not settle (residual {residual:.3e})",
            residual=residual,
        )
    return full


def cross_check_grid():
    """The standard off-cone grid: 50 spacelike and 50 timelike points."""
    points = []
    for base in np.linspace(0.4, 3.1, 10):
        for frac in (0.0, 0.25, 0.5, 0.7, 0.85):
            points.append(SeparationPoint(dt=frac * base, r=float(base)))
    for base in np.linspace(0.4, 3.1, 10):
        for frac in (0.0, 0.25, 0.5, 0.7, 0.85):
            points.append(SeparationPoint(dt=float(base), r=frac * base))
    return points


# ----------------------------------------------------- parametrix and w

def hadamard_coefficients(m: float, order: int):
    """Coefficients v_0..v_order of the log series: v_k sigma^k is
    (m^2/16 pi^2) c_k at t = m^2 sigma/4, so v_k is that term at sigma = 1."""
    m, order = _mass_and_order(m, order)
    v0 = m * m / (4.0 * _FOUR_PI_SQ)
    return [as_finite(v0 * c, "Hadamard coefficient") for c in _series_head(0.25 * m * m, order)]


def _log_series(m: float, s: float, order: int) -> float:
    """sum_{k<=N} v_k s^k, the head of the remainder's series at sigma = s."""
    return m * m / (4.0 * _FOUR_PI_SQ) * sum(_series_head(0.25 * m * m * s, order))


_SIGMA_WINDOW = 25.0


def _check_window(s: float, lam: float) -> None:
    if abs(s) > _SIGMA_WINDOW * lam * lam:
        raise ValidationError(
            "separation outside the parametrix window for this length scale"
        )


def hadamard_H(p: SeparationPoint, params: KernelParams) -> complex:
    """Short-distance parametrix 1/(4 pi^2 sigma_eps) + sum_{k<=N} v_k sigma^k log(sigma_eps/lam^2).

    The log sum is the head k <= N of the series remainder_w sums whole.
    The log is log sigma_eps - 2 log lam, which holds where sigma/lam^2
    underflows; a separation whose 1/(4 pi^2 sigma) overflows is refused.
    """
    _check_window(p.sigma, params.lam)
    se, lead = _sigma_and_pole(p, params.eps)
    log_term = cmath.log(se) - 2.0 * math.log(params.lam)
    H = lead + _log_series(params.m, p.sigma, params.order) * log_term
    return as_finite_complex(H, "the parametrix")


def remainder_w(p: SeparationPoint, params: KernelParams) -> complex:
    """Smooth remainder w = W - H: closed-form kernel minus the order-N
    parametrix.

    At eps = 0 and m^2 |sigma| <= 16, the radius inside which K1 is its own
    convergent series, the two 1/(4 pi^2 sigma) poles cancel exactly and
    are never formed.  With t = m^2 sigma/4, c_k = t^k/(k! (k+1)!),
    psi_k = psi(k+1) + psi(k+2) and L = log|t|, plus i pi sign(dt) for
    timelike sigma,

        w = (m^2/16 pi^2) [ sum_{k<=N} c_k log(m^2 lam^2/4)
                            + sum_{k>N} c_k L - sum_k psi_k c_k ].

    Every other input takes omega2_bessel - hadamard_H.  Either route
    refuses a non-positive mass, then a null separation, then a separation
    outside the parametrix window.
    """
    m = params.m
    if m <= 0.0:
        raise ValidationError("the remainder needs a positive mass")
    if params.eps > 0.0 or m * m * abs(p.sigma) > 16.0:
        return omega2_bessel(p, params) - hadamard_H(p, params)
    s = _off_cone_sigma(p)
    _check_window(s, params.lam)
    t = 0.25 * m * m * s
    head, tail, psi_sum = _series_sums(t, params.order)
    # L = log|t| + i side; where t underflows to 0 so does every term of tail
    log_t = math.log(abs(t)) if t else 0.0
    side = 0.0 if s > 0.0 else math.copysign(math.pi, p.dt)
    log_lam = 2.0 * math.log(0.5 * m * params.lam)
    pre = m * m / (4.0 * _FOUR_PI_SQ)
    w = complex(pre * (head * log_lam + tail * log_t - psi_sum), pre * (tail * side))
    return as_finite_complex(w, "the remainder")


def lambda_shift_delta(p: SeparationPoint, params: KernelParams, lam_new: float) -> complex:
    """Exact change of the remainder under lam -> lam_new:
    -2 log(lam/lam_new) sum_{k<=N} v_k sigma^k, the head of the remainder's
    series.  Like the parametrix it is refused outside the window."""
    lam_new = as_finite(lam_new, "lam_new")
    if lam_new <= 0.0:
        raise ValidationError("length scale must be > 0")
    _check_window(p.sigma, params.lam)
    shift = 2.0 * (math.log(params.lam) - math.log(lam_new))
    delta = -_log_series(params.m, p.sigma, params.order) * shift
    return as_finite_complex(delta, "the lam shift")


# ------------------------------------------------ one-particle product

_TRAPZ = getattr(np, "trapezoid", None) or np.trapz


class MomentumProfile:
    """A momentum-space profile sampled on an increasing radial grid."""

    def __init__(self, k, values):
        k = as_finite_array(k, "momentum grid")
        values = as_finite_array(values, "profile values", complex)
        if k.ndim != 1 or k.shape != values.shape or k.size < 4:
            raise ValidationError("profile needs matching 1d grids, >= 4 samples")
        if k[0] < 0.0 or np.any(k[1:] <= k[:-1]):
            raise ValidationError("momentum grid must be increasing and >= 0")
        self.k = k
        self.values = values


def momentum_overlap(f: MomentumProfile, g: MomentumProfile) -> complex:
    """integral conj(f) g dk on the shared grid, with a tail-decay guard."""
    if not np.array_equal(f.k, g.k):
        raise ValidationError("profiles must share one momentum grid")
    with float_range("momentum overlap"):
        integrand = np.conj(f.values) * g.values
        mags = np.abs(integrand)
        peak = mags.max()
        if peak > 0.0:
            tail_start = int(0.9 * mags.size)
            if mags[tail_start:].max() > 1e-8 * peak:
                raise TailTruncationError("profile product has not decayed by the end of the grid")
        return complex(_TRAPZ(integrand, f.k))
