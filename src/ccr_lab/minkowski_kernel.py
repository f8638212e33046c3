"""Vacuum two-point structures for the free scalar field on flat spacetime.

Two independent evaluation pipelines for the Wightman kernel at a spacetime
separation (a closed form through the modified Bessel function K1, and a
radial Fourier mode integral), the short-distance parametrix with its
closed-form coefficients, the smooth remainder after subtraction, and the
one-particle scalar product of radially sampled momentum profiles.

The mode integral's nodes do not depend on the regulator, so one pass over
them gives the integral at every rung of the regulator ladder that the eps
-> 0 extrapolation needs.  Near coincidence the remainder is summed as one
series in which the 1/sigma poles of kernel and parametrix cancel term by
term, so it keeps full precision where the difference of the two would
lose it (see remainder_w).

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
from dataclasses import dataclass

import numpy as np

from ._bessel import _panels, _series_sums, k1
from .errors import (
    OnLightconeSingularError,
    OrderGuardError,
    QuadratureFailureError,
    TailTruncationError,
    ValidationError,
    as_finite,
    as_finite_array,
    as_index,
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


@dataclass(frozen=True)
class SeparationPoint:
    dt: float
    r: float

    def __post_init__(self):
        dt, r = as_finite(self.dt, "dt"), as_finite(self.r, "r")
        if not math.isfinite(r * r - dt * dt):
            raise ValidationError("dt**2 or r**2 overflows, so sigma would be NaN")
        if self.r < 0.0:
            raise ValidationError("spatial separation modulus must be >= 0")

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
        for name in ("m", "eps", "order"):
            as_finite(getattr(self, name), name)
        if self.m < 0.0:
            raise ValidationError("mass must be >= 0")
        if self.eps < 0.0:
            raise ValidationError("regulator must be >= 0")
        if self.order < 0 or int(self.order) != self.order:
            raise ValidationError("parametrix order must be a whole number")
        object.__setattr__(self, "order", int(self.order))
        if self.order > 8:
            raise OrderGuardError(
                f"parametrix order {self.order} exceeds the supported 8"
            )
        lam = self.lam
        if lam is None:
            lam = 1.0 / self.m if self.m > 0 else 1.0
            object.__setattr__(self, "lam", lam)
        as_finite(lam, "lam")
        if lam <= 0.0:
            raise ValidationError("length scale must be > 0")
        if not 0.0 < lam * lam < math.inf:
            raise ValidationError("lam**2 must be a nonzero finite float")
        if self.eps > 0.1 * lam:
            raise ValidationError("regulator must be small against the length scale")


def sigma_eps(p: SeparationPoint, eps: float) -> complex:
    s = p.sigma
    return complex(s + eps * eps, 2.0 * eps * p.dt)


def _off_cone_sigma(p: SeparationPoint) -> float:
    """sigma at eps = 0, refusing a null separation."""
    s = p.sigma
    scale = p.r * p.r + p.dt * p.dt
    if abs(s) <= 1e-12 * scale or scale == 0.0:
        raise OnLightconeSingularError(
            "null separation is singular without a regulator"
        )
    return s


def _branch_sqrt_sigma(p: SeparationPoint, eps: float) -> complex:
    if eps > 0.0:
        return cmath.sqrt(sigma_eps(p, eps))
    s = _off_cone_sigma(p)
    if s > 0.0:
        return complex(math.sqrt(s), 0.0)
    return complex(0.0, math.copysign(math.sqrt(-s), p.dt))


def omega2_bessel(p: SeparationPoint, params: KernelParams) -> complex:
    """Closed-form vacuum kernel (m^2/4pi^2) K1(m sqrt(sigma_eps))/(m sqrt(sigma_eps)).

    With eps = 0 this is the regulator limit directly: the branch of the
    square root at timelike separation follows the sign of dt.
    """
    if params.m <= 0.0:
        raise ValidationError("the closed form needs a positive mass")
    z = params.m * _branch_sqrt_sigma(p, params.eps)
    return params.m * params.m / _FOUR_PI_SQ * k1(z) / z


# --------------------------------------------------- Fourier mode pipeline

_GL24 = np.polynomial.legendre.leggauss(24)
_LAG = np.polynomial.laguerre.laggauss(60)
_MAX_HEAD_PANELS = 800


def _mode_integral(rho, dt, m, eps, k0, power):
    """integral_0^inf  k^power/omega * exp(i(k rho - dt omega) - eps k)  dk
    for every regulator in the sequence `eps`, in one pass.

    Power 1 is the integrand of the +-r components; power 2 at rho = 0 is
    their r -> 0 limit, k sin(kr)/r -> k^2.  Head on [0, k0] by composite
    Gauss-Legendre with panel density tied to the total phase range; tail
    rotated into the complex k plane along the direction where the phase
    decays, with Gauss-Laguerre nodes.  No node depends on the regulator, so
    the undamped integrand is computed once and contracted with the damping
    exp(-eps k) of each rung.
    """
    phase_range = k0 * (abs(rho) + abs(dt))
    n_panels = int(math.ceil(phase_range / (2.0 * math.pi))) + 4
    if n_panels > _MAX_HEAD_PANELS:
        raise QuadratureFailureError(
            "oscillation budget exhausted approaching the lightcone",
            residual=float("inf"),
        )
    k, wts = _panels(np.linspace(0.0, k0, n_panels + 1), _GL24)
    omega = np.sqrt(k * k + m * m)
    head = np.exp(-np.outer(eps, k)) @ (
        wts * k**power / omega * np.exp(1j * (k * rho - dt * omega))
    )

    omega0 = math.sqrt(k0 * k0 + m * m)
    beta0 = rho - dt * k0 / omega0
    beta_inf = rho - dt
    if beta0 == 0.0 or beta_inf == 0.0 or (beta0 > 0) != (beta_inf > 0):
        raise QuadratureFailureError(
            "phase has a stationary point beyond the head cutoff",
            residual=float("inf"),
        )
    c = 1.0 if beta0 > 0 else -1.0
    gamma = min(abs(beta0), abs(beta_inf))
    u, wl = _LAG
    s = u / gamma
    kk = k0 + 1j * c * s
    om = np.sqrt(kk * kk + m * m)
    vals = wl * np.exp(u) * kk**power / om * np.exp(1j * (kk * rho - dt * om))
    tail = np.exp(-np.outer(eps, kk)) @ vals
    return head + 1j * c * tail / gamma


def _head_cutoff(p: SeparationPoint, m: float) -> float:
    r, dt = p.r, abs(p.dt)
    k0 = 6.0 * max(m, 0.5) + 8.0 / max(r + dt, 0.05)
    if dt > r and r > 0.0:
        # stationary phase of the +r component; push the cutoff past it
        k_star = m * r / math.sqrt(dt * dt - r * r)
        k0 = max(k0, 1.6 * k_star)
    return k0


def _fourier_once(p: SeparationPoint, m: float, eps, k0: float):
    if p.r < 1e-9:
        if p.dt == 0.0:
            raise QuadratureFailureError(
                "coincidence point has no convergent mode integral", residual=float("inf")
            )
        return _mode_integral(0.0, p.dt, m, eps, k0, 2) / _FOUR_PI_SQ
    plus = _mode_integral(p.r, p.dt, m, eps, k0, 1)
    minus = _mode_integral(-p.r, p.dt, m, eps, k0, 1)
    return (plus - minus) / (2j) / (_FOUR_PI_SQ * p.r)


def _fourier_checked(p: SeparationPoint, m: float, eps):
    """The kernel at each regulator of the ladder `eps`, from two head
    cutoffs; the rungs are self-checked in ladder order."""
    k0 = _head_cutoff(p, m)
    v1 = _fourier_once(p, m, eps, k0)
    v2 = _fourier_once(p, m, eps, 1.37 * k0 + 1.0)
    floor = 1e-2 * max(m * m, 1.0) / _FOUR_PI_SQ
    for a, b in zip(v1, v2):
        scale = max(abs(b), floor)
        residual = abs(a - b)
        if residual > 1e-9 * scale:
            raise QuadratureFailureError(
                f"mode integral self-check failed (residual {residual:.3e})",
                residual=residual,
            )
    return [complex(b) for b in v2]


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
    if params.m < 0.0:
        raise ValidationError("mass must be >= 0")
    m = params.m
    if params.eps > 0.0:
        return _fourier_checked(p, m, [params.eps])[0]
    span = p.r + abs(p.dt)
    if span <= 0.0:
        raise QuadratureFailureError(
            "coincidence point has no convergent mode integral", residual=float("inf")
        )
    ladder = [f * span for f in (3e-3, 1e-3, 3e-4, 1e-4, 3e-5)]
    values = _fourier_checked(p, m, ladder)
    full = _extrapolate_to_zero(ladder, values)
    trimmed = _extrapolate_to_zero(ladder[1:], values[1:])
    scale = max(abs(full), 1e-2 * max(m * m, 1.0) / _FOUR_PI_SQ)
    residual = abs(full - trimmed)
    if residual > 1e-7 * scale:
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
    """Closed-form coefficients of the log series, index 0..order."""
    m = as_finite(m, "mass")
    order = as_index(order, "parametrix order")
    if order < 0:
        raise ValidationError("parametrix order must be >= 0")
    if order > 8:
        raise OrderGuardError(f"parametrix order {order} exceeds the supported 8")
    out = []
    for kk in range(order + 1):
        out.append(
            m * m / (16.0 * math.pi**2)
            * (m * m / 4.0) ** kk
            / (math.factorial(kk) * math.factorial(kk + 1))
        )
    return out


_SIGMA_WINDOW = 25.0


def _check_window(s: float, lam: float) -> None:
    if abs(s) > _SIGMA_WINDOW * lam * lam:
        raise ValidationError(
            "separation outside the parametrix window for this length scale"
        )


def hadamard_H(p: SeparationPoint, params: KernelParams) -> complex:
    """Short-distance parametrix 1/(4 pi^2 sigma_eps) + sum v_k sigma^k log(sigma_eps/lam^2)."""
    lam = params.lam
    s = p.sigma
    _check_window(s, lam)
    eps = params.eps
    if eps > 0.0:
        se = sigma_eps(p, eps)
        log_term = cmath.log(se / (lam * lam))
        lead = 1.0 / (_FOUR_PI_SQ * se)
    else:
        _off_cone_sigma(p)
        lead = complex(1.0 / (_FOUR_PI_SQ * s), 0.0)
        if s > 0.0:
            log_term = complex(math.log(s / (lam * lam)), 0.0)
        else:
            log_term = complex(
                math.log(-s / (lam * lam)), math.copysign(math.pi, p.dt)
            )
    if params.m == 0.0:
        return lead
    total = lead
    for kk, v in enumerate(hadamard_coefficients(params.m, params.order)):
        total += v * s**kk * log_term
    return total


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
    log_t = complex(math.log(abs(t)), 0.0 if s > 0.0 else math.copysign(math.pi, p.dt))
    log_lam = 2.0 * math.log(0.5 * m * params.lam)
    return m * m / (4.0 * _FOUR_PI_SQ) * (head * log_lam + tail * log_t - psi_sum)


def lambda_shift_delta(p: SeparationPoint, params: KernelParams, lam_new: float) -> complex:
    """Exact change of the remainder under lam -> lam_new."""
    lam_new = as_finite(lam_new, "lam_new")
    if lam_new <= 0.0:
        raise ValidationError("length scale must be > 0")
    if params.m == 0.0:
        return 0.0 + 0.0j
    shift = 2.0 * math.log(params.lam / lam_new)
    s = p.sigma
    total = 0.0 + 0.0j
    for kk, v in enumerate(hadamard_coefficients(params.m, params.order)):
        total += v * s**kk
    return -total * shift


# ------------------------------------------------ one-particle product

_TRAPZ = getattr(np, "trapezoid", None) or np.trapz


class MomentumProfile:
    """A momentum-space profile sampled on an increasing radial grid."""

    def __init__(self, k, values):
        k = as_finite_array(k, "momentum grid")
        values = as_finite_array(values, "profile values", complex)
        if k.ndim != 1 or k.shape != values.shape or k.size < 4:
            raise ValidationError("profile needs matching 1d grids, >= 4 samples")
        if k[0] < 0.0 or np.any(np.diff(k) <= 0.0):
            raise ValidationError("momentum grid must be increasing and >= 0")
        self.k = k
        self.values = values


def momentum_overlap(f: MomentumProfile, g: MomentumProfile) -> complex:
    """integral conj(f) g dk on the shared grid, with a tail-decay guard."""
    if f.k.shape != g.k.shape or not np.allclose(f.k, g.k, rtol=0.0, atol=0.0):
        raise ValidationError("profiles must share one momentum grid")
    integrand = np.conj(f.values) * g.values
    mags = np.abs(integrand)
    peak = mags.max()
    if peak > 0.0:
        tail_start = int(0.9 * mags.size)
        if mags[tail_start:].max() > 1e-8 * peak:
            raise TailTruncationError(
                "profile product has not decayed by the end of the grid"
            )
    return complex(_TRAPZ(integrand, f.k))
