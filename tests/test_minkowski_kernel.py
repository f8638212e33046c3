"""Tests for the flat-space vacuum kernel pipelines and the parametrix."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccr_lab import minkowski_kernel as mk
from ccr_lab._bessel import _panels
from ccr_lab.errors import (
    CcrLabError,
    OnLightconeSingularError,
    OrderGuardError,
    QuadratureFailureError,
    TailTruncationError,
    ValidationError,
)
from ccr_lab.minkowski_kernel import (
    KernelParams,
    MomentumProfile,
    SeparationPoint,
    cross_check_grid,
    hadamard_H,
    hadamard_coefficients,
    lambda_shift_delta,
    momentum_overlap,
    omega2_bessel,
    omega2_fourier,
    remainder_w,
    sigma_eps,
)
from ccr_lab.wick_hadamard import phi2_H_expectation

from oracles import (
    coincidence_remainder,
    commutator_radial_oracle,
    hadamard_v_coefficients,
    mp_k1,
    remainder_oracle,
)

M1 = KernelParams(m=1.0, eps=0.0)


def test_sigma_eps_direct_substitution():
    assert sigma_eps(SeparationPoint(0.0, 2.0), 0.0) == 4.0
    assert sigma_eps(SeparationPoint(3.0, 0.0), 0.0) == -9.0
    assert sigma_eps(SeparationPoint(1.0, 1.0), 0.1) == pytest.approx(0.01 + 0.2j)


def test_separation_point_rejects_negative_radius():
    with pytest.raises(ValidationError):
        SeparationPoint(0.0, -1.0)


def test_params_guards():
    with pytest.raises(OrderGuardError):
        KernelParams(m=1.0, order=9)
    with pytest.raises(ValidationError):
        KernelParams(m=-1.0)
    with pytest.raises(ValidationError):
        KernelParams(m=1.0, eps=0.5, lam=1.0)
    with pytest.raises(ValidationError, match="regulator must be >= 0"):
        KernelParams(eps=-1e-3)
    for lam in (0.0, -1.0):
        with pytest.raises(ValidationError, match="length scale must be > 0"):
            KernelParams(lam=lam)
    assert KernelParams(m=2.0).lam == 0.5


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_separations_and_params_reject_non_finite_numbers(bad):
    for build in (
        lambda: SeparationPoint(dt=bad, r=1.0),
        lambda: SeparationPoint(dt=0.5, r=bad),
        lambda: KernelParams(m=bad),
        lambda: KernelParams(m=1.0, eps=bad),
        lambda: KernelParams(m=1.0, lam=bad),
        lambda: KernelParams(m=1.0, order=bad),
        lambda: MomentumProfile(np.linspace(0.0, 1.0, 5), [1.0, 2.0, bad, 0.0, 0.0]),
        lambda: MomentumProfile([0.0, 0.25, 0.5, 0.75, bad], np.zeros(5)),
        lambda: hadamard_coefficients(bad, 3),
        lambda: lambda_shift_delta(SeparationPoint(0.3, 1.0), M1, bad),
    ):
        with pytest.raises(ValidationError):
            build()
    k5 = np.linspace(0.0, 1.0, 5)
    for build in (
        # finite numbers whose squares overflow: sigma would be inf - inf
        lambda: SeparationPoint(1e200, 1e200),
        lambda: SeparationPoint(dt=1e200, r=0.5),
        lambda: SeparationPoint(dt=0.5, r=1e200),
        lambda: KernelParams(m=1.0, lam=1e300),
        lambda: hadamard_coefficients(1.0, 2.5),
        lambda: lambda_shift_delta(SeparationPoint(0.3, 1.0), M1, "a"),
        lambda: MomentumProfile(["a"] * 5, np.zeros(5)),
        lambda: MomentumProfile([[0.0], [0.25, 0.5], 0.75, 1.0], np.zeros(4)),
        lambda: MomentumProfile(k5, ["1"] * 5),
        lambda: MomentumProfile(k5, [[1.0], [1.0, 2.0], 0.0, 0.0, 0.0]),
        # a grid out of order whose steps overflow used to warn first
        lambda: MomentumProfile([0.0, -1.7e308, 1.7e308, 1.75e308], np.zeros(4)),
    ):
        with pytest.raises(ValidationError):
            build()
    with pytest.raises(ValidationError):
        SeparationPoint(dt="1.0", r=1.0)
    with pytest.raises(ValidationError):
        SeparationPoint(dt=10**400, r=1.0)
    # the Fourier pipeline used to overflow on an infinite time difference
    with pytest.raises(ValidationError):
        omega2_fourier(SeparationPoint(bad, 1.0), M1)


@pytest.mark.parametrize("lam_new", [0.0, -0.5, -1e-300])
def test_lambda_shift_refuses_a_length_scale_that_is_not_positive(lam_new):
    with pytest.raises(ValidationError, match="^length scale must be > 0$"):
        lambda_shift_delta(SeparationPoint(0.3, 1.0), M1, lam_new)


# --------------------------------------------------------- closed form

def test_equal_time_matches_k1_directly():
    for r in (0.3, 1.0, 2.5):
        expected = mp_k1(1.0 * r) / (4.0 * math.pi**2 * r)
        got = omega2_bessel(SeparationPoint(0.0, r), M1)
        assert got.imag == 0.0
        assert got.real == pytest.approx(expected.real, rel=1e-12)


def test_spacelike_clustering_decay():
    v2 = abs(omega2_bessel(SeparationPoint(0.0, 2.0), M1))
    v5 = abs(omega2_bessel(SeparationPoint(0.0, 5.0), M1))
    assert v5 < v2 * math.exp(-3.0) * 1.5


def test_hermiticity_under_argument_swap():
    for p in (SeparationPoint(2.0, 0.5), SeparationPoint(0.7, 1.4)):
        swapped = SeparationPoint(-p.dt, p.r)
        for params in (M1, KernelParams(m=1.0, eps=0.01)):
            assert omega2_bessel(swapped, params) == pytest.approx(
                omega2_bessel(p, params).conjugate(), rel=1e-12
            )


def test_null_separation_needs_regulator():
    with pytest.raises(OnLightconeSingularError):
        omega2_bessel(SeparationPoint(1.0, 1.0), M1)
    v = omega2_bessel(SeparationPoint(1.0, 1.0), KernelParams(m=1.0, eps=1e-3))
    assert np.isfinite(v.real) and np.isfinite(v.imag)


def test_massless_closed_form_rejected():
    with pytest.raises(ValidationError):
        omega2_bessel(SeparationPoint(0.0, 1.0), KernelParams(m=0.0))


# ------------------------------------------------------ Fourier pipeline

def test_pipelines_agree_on_sample_points():
    for p in (
        SeparationPoint(0.0, 1.0),
        SeparationPoint(0.5, 1.2),
        SeparationPoint(2.0, 0.5),
        SeparationPoint(1.5, 0.0),
        SeparationPoint(2.38, 2.8),
    ):
        b = omega2_bessel(p, M1)
        f = omega2_fourier(p, M1)
        assert abs(b - f) <= 1e-6 * abs(b)


def test_cross_check_grid_has_50_plus_50_off_cone_points():
    pts = cross_check_grid()
    assert len(pts) == 100
    spacelike = [p for p in pts if p.sigma > 0]
    timelike = [p for p in pts if p.sigma < 0]
    assert len(spacelike) == 50 and len(timelike) == 50


def test_massless_equal_time_value():
    for r in (0.5, 1.0, 2.0):
        got = omega2_fourier(SeparationPoint(0.0, r), KernelParams(m=0.0))
        assert got.real == pytest.approx(1.0 / (4.0 * math.pi**2 * r * r), rel=1e-6)
        assert abs(got.imag) < 1e-9


def test_commutator_from_sine_split_oracle():
    for (dt, r) in ((2.0, 0.5), (3.0, 1.2)):
        plus = omega2_fourier(SeparationPoint(dt, r), M1)
        minus = omega2_fourier(SeparationPoint(-dt, r), M1)
        pipeline = (plus - minus) / 1j
        oracle = commutator_radial_oracle(1.0, r, dt)
        assert abs(pipeline.imag) < 1e-8
        assert pipeline.real == pytest.approx(oracle, rel=2e-4)


def test_coincidence_mode_integral_fails_loudly():
    with pytest.raises(QuadratureFailureError) as exc:
        omega2_fourier(SeparationPoint(0.0, 0.0), M1)
    assert exc.value.residual == float("inf")


def test_coincidence_mode_integral_fails_loudly_with_regulator():
    with pytest.raises(QuadratureFailureError) as exc:
        omega2_fourier(SeparationPoint(0.0, 0.0), KernelParams(m=1.0, eps=1e-3))
    assert exc.value.residual == float("inf")


@pytest.mark.parametrize("eps", [0.0, 1e-3])
@pytest.mark.parametrize("dt", [1.5, 0.7, -2.2])
def test_origin_mode_integral_matches_small_r(dt, eps):
    # both share the tail of r = 0; r = 0 takes the limit k of sin(kr)/r on
    # every node array, r = 1e-5 forms the sine
    params = KernelParams(m=1.0, eps=eps)
    origin = omega2_fourier(SeparationPoint(dt, 0.0), params)
    near = omega2_fourier(SeparationPoint(dt, 1e-5), params)
    assert abs(origin - near) <= 1e-8 * abs(near)


def _per_rung(p, m, eps, k0):
    # the kernel at one regulator and one head cutoff, with the damping
    # inside the integrand, on the nodes of _fourier_pair and one tail at a
    # time: the loop the batched ladder replaced
    r, dt = p.r, p.dt
    n_panels = int(math.ceil(k0 * (r + abs(dt)) / (2.0 * math.pi))) + 4
    k, w = _panels(np.linspace(0.0, k0, n_panels + 1), mk._GL24)
    om = np.sqrt(k * k + m * m)
    sin_r = k if k0 * r < 1e-8 else np.sin(k * r) / r
    total = np.sum(w * k * sin_r / om * np.exp(-1j * dt * om - eps * k))
    u, wl = np.polynomial.laguerre.laggauss(60)
    shared = 4.0 * r <= abs(dt)
    for rho in (0.0,) if shared else (r, -r):
        beta0 = rho - dt * k0 / math.sqrt(k0 * k0 + m * m)
        c = math.copysign(1.0, beta0)
        gamma = min(abs(beta0), abs(rho - dt))
        kk = k0 + 1j * c * u / gamma
        om = np.sqrt(kk * kk + m * m)
        if shared:
            sin_r = kk if abs(kk[-1]) * r < 1e-8 else np.sin(kk * r) / r
            f = kk * sin_r / om * np.exp(-1j * dt * om - eps * kk)
        else:
            f = kk / om * np.exp(1j * (kk * rho - dt * om) - eps * kk) / (2j * rho)
        total += 1j * c / gamma * np.sum(wl * np.exp(u) * f)
    return total / (4.0 * math.pi**2)


@pytest.mark.parametrize(
    "dt, r",
    [(0.5, 1.2), (2.0, 0.5), (1.5, 0.0), (-2.2, 2.8), (1.0, 0.3), (-1.5, 1e-7), (1e-8, 1e-11)],
)
def test_regulator_ladder_matches_per_rung_integrals(dt, r):
    # split tails (spacelike, and timelike with r > |dt|/4) and the shared
    # tail (r <= |dt|/4: the sine formed on its nodes, the limit k at r = 0,
    # and at 1e-11 on the heads only), both cutoffs of each
    p = SeparationPoint(dt, r)
    ladder = np.array([3e-3, 1e-3, 3e-4, 1e-4, 3e-5]) * (r + abs(dt))
    for m in (0.0, 1.3):
        cutoffs = (mk._head_cutoff(p, m), 1.37 * mk._head_cutoff(p, m) + 1.0)
        for k0, got in zip(cutoffs, mk._fourier_pair(p, m, ladder, cutoffs)):
            want = np.array([_per_rung(p, m, e, k0) for e in ladder])
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _closed_form(p, m):
    """(m^2/4 pi^2) K1(z)/z at z = m sqrt(sigma) from mpmath, the timelike
    root on the side given by the sign of dt."""
    sigma = p.r * p.r - p.dt * p.dt
    if sigma > 0:
        root = complex(math.sqrt(sigma), 0.0)
    else:
        root = complex(0.0, math.copysign(math.sqrt(-sigma), p.dt))
    z = m * root
    return m * m / (4.0 * math.pi**2) * mp_k1(z) / z


@pytest.mark.parametrize(
    "m, dt, r", [(1.0, 0.3, 0.7), (1.0, -0.9, 0.2), (10.0, 0.05, 0.7), (0.1, 0.9, 0.7)]
)
def test_batched_fourier_path_matches_the_closed_form(m, dt, r):
    # both cutoffs and both +-r components on one node set per separation,
    # at points of the short-separation grid (m in {1e-3, 0.1, 1, 10}, dt in
    # {0, +-0.003, +-0.05, +-0.3, +-0.9}, r in {0.001, 0.02, 0.2, 0.7}) where
    # the two heads have different panel counts, checked against mpmath
    # rather than against the Bessel pipeline
    p = SeparationPoint(dt, r)
    k0 = mk._head_cutoff(p, m)
    panels = [mk._head_nodes(r, dt, k)[0].size for k in (k0, 1.37 * k0 + 1.0)]
    assert panels[0] < panels[1]
    want = _closed_form(p, m)
    assert abs(omega2_fourier(p, KernelParams(m=m)) - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize(
    "dt, r",
    [
        (0.0, 1.0000001e-9), (5e-10, 1.0000001e-9), (-4e-10, 1.5e-9), (5e-10, 9.99e-10),
        (2e-9, 9e-10), (1e-8, 1e-10), (1e-8, 1e-11), (1.5, 1e-7), (1.5, 1e-6),
    ],
)
def test_fourier_path_near_coincidence_matches_mpmath(dt, r):
    # near coincidence the kernel is about 1/(4 pi^2 sigma), up to 1e17 here;
    # timelike points with r <= |dt|/4 share the tail of r = 0, where the
    # +-r split would cancel and be refused, and the sine is formed on every
    # node array where some |kr| reaches 1e-8: at (1e-8, 1e-11) the heads
    # take the limit k, the tail (|k| up to about 180/|dt|) does not
    p = SeparationPoint(dt, r)
    want = _closed_form(p, 1.0)
    assert abs(omega2_fourier(p, M1) - want) <= 1e-9 * abs(want)


@pytest.mark.parametrize("m", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("dt", [1.0, -2.0])
def test_fourier_path_on_both_sides_of_the_shared_tail_boundary(m, dt):
    # r = |dt|/4 (1 -+ 1e-7): the shared tail just below, the split tails
    # just above, both against mpmath
    for r in (0.2499999 * abs(dt), 0.2500001 * abs(dt)):
        p = SeparationPoint(dt, r)
        want = _closed_form(p, m)
        assert abs(omega2_fourier(p, KernelParams(m=m)) - want) <= 1e-9 * abs(want)


def test_a_subnormal_radius_gives_the_r_zero_value():
    # 5e-324 forms no k r, whose digits would be lost: every node array
    # takes the limit k, as at r = 0
    origin = omega2_fourier(SeparationPoint(1.0, 0.0), M1)
    near = omega2_fourier(SeparationPoint(1.0, 5e-324), M1)
    assert abs(near - origin) <= 1e-15 * abs(origin)
    assert abs(near - _closed_form(SeparationPoint(1.0, 0.0), 1.0)) <= 1e-9 * abs(origin)


def test_fourier_self_check_fires_on_a_grid_point():
    # m = 1e-3, dt = 0, r = 0.2: the two cutoffs disagree by 4.2e-9, past
    # the bound of 1e-9 of the kernel (about 0.63), so the point is refused
    # rather than answered
    p = SeparationPoint(0.0, 0.2)
    with pytest.raises(QuadratureFailureError, match="self-check failed") as exc:
        omega2_fourier(p, KernelParams(m=1e-3))
    assert exc.value.residual > 1e-9 * abs(_closed_form(p, 1e-3))


def test_fourier_self_check_negative_control(monkeypatch):
    # a first-cutoff value off by 1e-8 of itself fails the cross-check
    pair = mk._fourier_pair

    def skewed(p, m, eps, cutoffs):
        v1, v2 = pair(p, m, eps, cutoffs)
        return v1 * (1.0 + 1e-8), v2

    p = SeparationPoint(0.3, 0.7)
    omega2_fourier(p, M1)
    monkeypatch.setattr(mk, "_fourier_pair", skewed)
    with pytest.raises(QuadratureFailureError, match="self-check failed"):
        omega2_fourier(p, M1)


def test_fourier_extrapolation_negative_control(monkeypatch):
    # a largest rung off by 10% of itself moves the full extrapolant, which
    # reads it with weight about 2e-5, and not the trimmed one, which drops
    # it: they part by more than the 1e-7 bound and the value is refused
    checked = mk._fourier_checked

    def kinked(p, m, eps):
        values = checked(p, m, eps)
        return [values[0] * 1.1] + values[1:]

    p = SeparationPoint(-0.9, 0.2)
    omega2_fourier(p, M1)
    monkeypatch.setattr(mk, "_fourier_checked", kinked)
    with pytest.raises(QuadratureFailureError, match="did not settle") as exc:
        omega2_fourier(p, M1)
    assert exc.value.residual > 0.0


def test_kg_equation_residual_spacelike():
    # radial wave operator, second-order central differences
    params = M1
    h = 1e-3
    for (dt, r) in ((0.3, 1.2), (0.0, 0.8), (0.6, 1.8)):
        def f(t, rr):
            return omega2_bessel(SeparationPoint(t, rr), params).real

        f0 = f(dt, r)
        d2r = (f(dt, r + h) - 2 * f0 + f(dt, r - h)) / h**2
        d1r = (f(dt, r + h) - f(dt, r - h)) / (2 * h)
        d2t = (f(dt + h, r) - 2 * f0 + f(dt - h, r)) / h**2
        residual = d2r + 2.0 / r * d1r - d2t - f0
        scale = abs(f0) + abs(d2r) + abs(d2t)
        assert abs(residual) <= 1e-4 * scale


# ------------------------------------------------------------ parametrix

def test_leading_log_coefficients():
    m = 1.3
    vs = hadamard_coefficients(m, 3)
    oracle = hadamard_v_coefficients(m, 3)
    assert vs == pytest.approx(oracle, rel=1e-15)
    assert vs[0] == pytest.approx(m * m / (16 * math.pi**2), rel=1e-15)
    assert vs[1] / vs[0] == pytest.approx(m * m / 8.0, rel=1e-15)


def test_massless_parametrix_is_pole_only():
    p = SeparationPoint(0.4, 1.1)
    params = KernelParams(m=0.0, eps=1e-3, lam=1.0)
    assert hadamard_H(p, params) == 1.0 / (4 * math.pi**2 * sigma_eps(p, 1e-3))


def test_parametrix_guards():
    with pytest.raises(OrderGuardError):
        hadamard_coefficients(1.0, 9)
    with pytest.raises(ValidationError):
        hadamard_H(SeparationPoint(0.0, 6.0), M1)  # sigma = 36 > 25 lam^2
    with pytest.raises(OnLightconeSingularError):
        hadamard_H(SeparationPoint(1.0, 1.0), M1)


def test_timelike_log_side_follows_time_orientation():
    up = hadamard_H(SeparationPoint(2.0, 0.5), M1)
    down = hadamard_H(SeparationPoint(-2.0, 0.5), M1)
    assert up == pytest.approx(down.conjugate(), rel=1e-14)
    assert up.imag != 0.0


def test_remainder_coincidence_limit():
    params = KernelParams(m=1.0, eps=0.0, order=3)
    values = [remainder_w(SeparationPoint(0.0, 2.0**-j), params).real
              for j in range(4, 12)]
    diffs = [abs(values[i + 1] - values[i]) for i in range(len(values) - 1)]
    assert all(d2 < d1 for d1, d2 in zip(diffs, diffs[1:]))  # Cauchy in j
    assert values[-1] == pytest.approx(coincidence_remainder(1.0, 1.0), abs=1e-6)


def test_remainder_and_derivatives_bounded_into_the_origin():
    params = KernelParams(m=1.0, eps=0.0, order=3)
    ladder = [10 ** (-3 + 3 * j / 8) for j in range(9)]  # 1e-3 .. 1 (= 1/m)

    def triple(r):
        h = min(1e-4, 0.3 * r)
        w0 = remainder_w(SeparationPoint(0.0, r), params).real
        wp = remainder_w(SeparationPoint(0.0, r + h), params).real
        wm = remainder_w(SeparationPoint(0.0, r - h), params).real
        return w0, (wp - wm) / (2 * h), (wp - 2 * w0 + wm) / h**2

    rows = [triple(r) for r in ladder]
    anchor = rows[-1]
    for col in range(3):
        peak = max(abs(row[col]) for row in rows)
        assert peak <= 2.0 * abs(anchor[col])


def _separation(x, m, lean, kind):
    # a separation with m^2 |sigma| = x: spacelike, or timelike to the
    # future or the past
    long_side = math.sqrt(x / (1.0 - lean * lean)) / m
    if kind == "spacelike":
        return SeparationPoint(lean * long_side, long_side)
    sign = 1.0 if kind == "future" else -1.0
    return SeparationPoint(sign * long_side, lean * long_side)


@pytest.mark.parametrize("order", range(9))
def test_remainder_matches_mpmath_oracle(order):
    # m^2 |sigma| from near coincidence, where W and H are each ~1/sigma,
    # across the series radius 16 to the edge of the window 25 m^2 lam^2
    masses = ((1.0, 1.0), (0.7, 1.3), (2.2, 0.45), (1.4, 1.05))
    for m, lam_m in (masses[order % 4], masses[(order + 1) % 4]):
        lam = lam_m / m
        for x in (1e-12, 1e-6, 3e-3, 0.4, 5.0, 15.9, 16.1, 24.0, 40.0):
            if x > 25.0 * lam_m * lam_m:
                continue
            for lean, kind in ((0.3, "spacelike"), (0.6, "future"), (0.2, "past")):
                p = _separation(x, m, lean, kind)
                got = remainder_w(p, KernelParams(m=m, lam=lam, order=order))
                want = remainder_oracle(p.dt, p.r, m, lam, order)
                assert abs(got - want) <= 1e-13 * m * m / (16 * math.pi**2)


def test_remainder_series_regime_error_contract():
    # every input here has m^2 |sigma| <= 16, the series regime
    with pytest.raises(ValidationError):
        remainder_w(SeparationPoint(0.0, 0.5), KernelParams(m=0.0, lam=1.0))
    with pytest.raises(ValidationError):  # the mass is read before the cone
        remainder_w(SeparationPoint(0.5, 0.5), KernelParams(m=0.0, lam=1.0))
    for p in (SeparationPoint(0.0, 0.0), SeparationPoint(0.5, 0.5),
              SeparationPoint(-0.5, 0.5)):
        with pytest.raises(OnLightconeSingularError):
            remainder_w(p, M1)
    # outside the window |sigma| <= 25 lam^2, and the cone before the window
    with pytest.raises(ValidationError):
        remainder_w(SeparationPoint(0.0, 3.0), KernelParams(m=1.0, lam=0.5))
    far = 1e7
    on_cone = SeparationPoint(math.sqrt(far * far - 10.0), far)
    assert on_cone.sigma > 6.25
    with pytest.raises(OnLightconeSingularError):
        remainder_w(on_cone, KernelParams(m=1.0, lam=0.5))
    # (m lam)^2 overflows a float, its log does not: near coincidence w is
    # (m^2/16pi^2)(log(m^2 lam^2/4) + 2 gamma - 1)
    w = remainder_w(SeparationPoint(0.0, 1e-150), KernelParams(m=1e100, lam=1e100))
    log_lam = 2.0 * math.log(0.5e200)
    assert w == pytest.approx(1e200 / (16 * math.pi**2) * (log_lam + 2 * np.euler_gamma - 1))


def test_lambda_shift_identity_is_exact():
    params = KernelParams(m=1.0, eps=0.0, order=3, lam=1.0)
    lam_new = 0.37
    shifted = KernelParams(m=1.0, eps=0.0, order=3, lam=lam_new)
    for p in (SeparationPoint(0.0, 0.5), SeparationPoint(1.5, 0.6)):
        delta = remainder_w(p, shifted) - remainder_w(p, params)
        predicted = lambda_shift_delta(p, params, lam_new)
        assert delta == pytest.approx(predicted, abs=1e-10 * max(1.0, abs(predicted)))
        # linear in log(lam/lam_new), also where lam_new**2 overflows a float
        far = lambda_shift_delta(p, params, 1e300)
        assert far == pytest.approx(3.0 * lambda_shift_delta(p, params, 1e100), rel=1e-12)


def test_float_range_edges_refuse_or_stay_finite():
    # sigma = 1e-320 is subnormal: 1/(4 pi^2 sigma) overflows, and at
    # lam = 1e100 so did sigma/lam^2 in the log, to 0
    tiny = SeparationPoint(0.0, 1e-160)
    for lam in (1.0, 1e100):
        params = KernelParams(m=1.0, lam=lam)
        with pytest.raises(ValidationError):
            hadamard_H(tiny, params)
        with pytest.raises(ValidationError):
            omega2_bessel(tiny, params)
        # the series branch never forms the pole: w is its coincidence value
        w = remainder_w(tiny, params)
        assert w == pytest.approx(coincidence_remainder(1.0, lam), rel=1e-12)
    # a mode integral past the float range, split (spacelike) or shared
    # (timelike, r <= |dt|/4) tails alike, is refused without a numpy warning
    for dt, r in ((0.0, 1e-155), (0.0, 5e-324), (1e-155, 0.0), (1e-300, 5e-324)):
        with pytest.raises(ValidationError, match="mode integral overflows"):
            omega2_fourier(SeparationPoint(dt, r), M1)
    # while a kernel of 2.5e298, on the shared tail, is still answered
    edge = SeparationPoint(1e-150, 1e-152)
    assert omega2_fourier(edge, M1) == pytest.approx(omega2_bessel(edge, M1), rel=1e-9)
    # sigma = 5e-324: t = m^2 sigma/4 underflows to 0
    assert remainder_w(SeparationPoint(0.0, 2.3e-162), M1) == pytest.approx(
        coincidence_remainder(1.0, 1.0), rel=1e-12
    )
    # the lam-shift is refused outside the parametrix window, where
    # sigma**k used to overflow
    for r in (1e100, 1e150):
        with pytest.raises(ValidationError):
            lambda_shift_delta(SeparationPoint(0.0, r), KernelParams(), 2.0)
    # a mass whose square overflows, or underflows to 0 or a subnormal
    for m in (1e200, 2e154, 1e-160, 1e-200):
        with pytest.raises(ValidationError):
            KernelParams(m=m, lam=1.0)
        with pytest.raises(ValidationError):
            hadamard_coefficients(m, 3)
    # m^2 is finite here but the coefficients, the parametrix and w are not
    with pytest.raises(ValidationError):
        hadamard_coefficients(1e100, 8)
    big = KernelParams(m=1e154, lam=1e154, order=0)
    for call in (lambda: remainder_w(SeparationPoint(0.0, 1e-160), big),
                 lambda: phi2_H_expectation(big)):
        with pytest.raises(ValidationError):
            call()


# ------------------------------------------- smeared smoothness witness

def _bump(u):
    out = np.zeros_like(u)
    ins = np.abs(u) < 1
    out[ins] = np.exp(-1.0 / (1.0 - u[ins] ** 2))
    return out


def test_smearing_one_slot_gives_smooth_function_across_the_cone():
    m = 1.0
    tgrid = np.linspace(-0.3, 0.3, 801)
    a_t = _bump(tgrid / 0.3)
    kk = np.linspace(0.0, 25.0, 4001)
    w_k = np.sqrt(kk * kk + m * m)
    a_hat = np.trapezoid(
        a_t[None, :] * np.exp(1j * w_k[:, None] * tgrid[None, :]), tgrid, axis=1
    )
    profile = a_hat * np.exp(-kk**2 * 0.4**2 / 2.0)

    def smeared(t_x, R):
        integrand = kk * np.sin(kk * R) / w_k * np.exp(-1j * w_k * t_x) * profile
        return np.trapezoid(integrand, kk) / (4 * math.pi**2 * R)

    t_x = 1.5
    rs = np.arange(0.5, 2.5001, 0.025)
    g = np.array([smeared(t_x, R) for R in rs])
    h = 0.025
    fd4 = np.abs(g[:-4] - 4 * g[1:-3] + 6 * g[2:-2] - 4 * g[3:-1] + g[4:]) / h**4
    assert np.all(np.isfinite(fd4))
    assert fd4.max() <= 1e3 * np.abs(g).max()
    # contrast: the unsmeared kernel's fourth difference blows up at the cone
    vals = []
    for R in rs:
        try:
            vals.append(omega2_bessel(SeparationPoint(t_x, float(R)), M1))
        except OnLightconeSingularError:
            vals.append(complex(np.nan))
    v = np.array(vals)
    fd4u = np.abs(v[:-4] - 4 * v[1:-3] + 6 * v[2:-2] - 4 * v[3:-1] + v[4:]) / h**4
    assert fd4.max() <= 1e-2 * np.nanmax(fd4u)


# -------------------------------------------------- one-particle product

def _grid():
    return np.linspace(0.0, 12.0, 600)


def test_overlap_of_gaussian_with_itself_is_its_norm():
    k = _grid()
    phi = np.exp(-((k - 2.0) ** 2)) * (1.0 + 0.0j)
    f = MomentumProfile(k, phi)
    val = momentum_overlap(f, f).real
    expected = float(np.trapezoid(np.abs(phi) ** 2, k))
    assert val == pytest.approx(expected, rel=1e-12)
    assert val > 0.0


def test_disjoint_bands_are_orthogonal():
    k = _grid()
    f = MomentumProfile(k, np.exp(-((k - 2.0) ** 2) * 8.0))
    g = MomentumProfile(k, np.exp(-((k - 7.0) ** 2) * 8.0))
    assert abs(momentum_overlap(f, g).real) < 1e-12


def test_pair_bound_against_symplectic_part():
    rng = np.random.default_rng(11)
    k = _grid()
    for _ in range(20):
        c1, c2 = rng.uniform(1.5, 6.0, size=2)
        phi_f = np.exp(-((k - c1) ** 2)) * np.exp(1j * rng.normal() * k)
        phi_g = np.exp(-((k - c2) ** 2)) * np.exp(1j * rng.normal() * k)
        f, g = MomentumProfile(k, phi_f), MomentumProfile(k, phi_g)
        tau = 2.0 * momentum_overlap(f, g).imag
        lhs = 0.25 * tau * tau
        rhs = momentum_overlap(f, f).real * momentum_overlap(g, g).real
        assert lhs <= rhs * (1.0 + 1e-12)


def test_undecayed_profile_is_rejected():
    k = _grid()
    f = MomentumProfile(k, np.ones_like(k))
    with pytest.raises(TailTruncationError):
        momentum_overlap(f, f)


def test_profile_validation():
    with pytest.raises(ValidationError):
        MomentumProfile([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        MomentumProfile([0.0, 2.0, 1.0, 3.0], [1.0, 1.0, 1.0, 1.0])
    k = _grid()
    f = MomentumProfile(k, np.exp(-k * k))
    g = MomentumProfile(k[:-1], np.exp(-k[:-1] * k[:-1]))
    with pytest.raises(ValidationError):
        momentum_overlap(f, g)


# ------------------------------------------------ the float range, at large

_EDGES = (0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-200, 1e-160,
          1e-154, 1e-12, 16.0, 25.0, 1e100, 1e150, 1e154, 1.3e154, 1e200,
          1e300, 1.7976931348623157e308, math.inf, math.nan)
_usual = st.floats(min_value=1e-3, max_value=10.0)
# eight usual values in ten, so that most drawn objects construct and the
# edges meet each public function, not only the constructors
_sizes = st.integers(0, 9).flatmap(
    lambda i: _usual if i < 8 else st.sampled_from(_EDGES) if i == 8 else st.floats(min_value=0.0)
)
_numbers = st.builds(lambda sign, v: sign * v, st.sampled_from((1.0, -1.0)), _sizes)
_orders = st.sampled_from(tuple(range(9)) * 3 + (-1, 9, 2.5, 3.0))


def _point(draw):
    # scaled into the parametrix window 25 lam^2 of most drawn parameters
    return SeparationPoint(0.1 * draw(_numbers), 0.1 * draw(_sizes))


def _params(draw):
    # signed, so that the sign checks are drawn too
    lam = draw(st.one_of(st.none(), _numbers))
    eps = draw(st.integers(0, 3).flatmap(lambda i: _numbers if i == 3 else st.just(0.0)))
    return KernelParams(m=draw(_sizes), eps=eps, lam=lam, order=draw(_orders))


def _profile(draw, k=None):
    if k is None:
        steps = _sizes.filter(lambda v: v > 0.0)
        k = list(itertools.accumulate(draw(steps) for _ in range(draw(st.integers(4, 6)))))
    # a Gaussian envelope down to e^-36 at the last sample passes the tail
    # check; drawn in Python floats, which warn of nothing on the edge values
    values = [complex(draw(_numbers), draw(_numbers)) for _ in k]
    return MomentumProfile(k, [v * math.exp(-((6.0 * x / k[-1]) ** 2)) for v, x in zip(values, k)])


def _overlap(draw):
    f = _profile(draw)
    return momentum_overlap(f, _profile(draw, f.k.tolist()))


def _perturbation(draw):
    value = draw(st.one_of(st.none(), _numbers))
    return None if value is None else (lambda x, y: value)


_CALLS = {
    "SeparationPoint": lambda d: _point(d),
    "KernelParams": lambda d: _params(d),
    "MomentumProfile": lambda d: _profile(d),
    "sigma_eps": lambda d: sigma_eps(_point(d), d(_numbers)),
    "omega2_bessel": lambda d: omega2_bessel(_point(d), _params(d)),
    "omega2_fourier": lambda d: omega2_fourier(_point(d), _params(d)),
    "hadamard_H": lambda d: hadamard_H(_point(d), _params(d)),
    "remainder_w": lambda d: remainder_w(_point(d), _params(d)),
    "hadamard_coefficients": lambda d: hadamard_coefficients(d(_sizes), d(_orders)),
    "lambda_shift_delta": lambda d: lambda_shift_delta(_point(d), _params(d), d(_sizes)),
    "momentum_overlap": lambda d: _overlap(d),
    "cross_check_grid": lambda d: cross_check_grid(),
    "phi2_H_expectation": lambda d: phi2_H_expectation(
        _params(d), [d(_numbers) for _ in range(4)], _perturbation(d)
    ),
}


def _returned_numbers(out):
    if isinstance(out, (list, tuple)):
        for item in out:
            yield from _returned_numbers(item)
    elif isinstance(out, SeparationPoint):
        yield from (out.dt, out.r, out.sigma)
    elif isinstance(out, KernelParams):
        yield from (out.m, out.eps, out.lam, out.order)
    elif isinstance(out, MomentumProfile):
        yield from np.concatenate([out.k, out.values])
    else:
        yield out


def test_property_calls_cover_the_public_names():
    assert set(_CALLS) == set(mk.__all__) | {"phi2_H_expectation"}


@pytest.mark.parametrize("name", sorted(_CALLS))
@given(data=st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_float_range_only_refuses_or_returns_finite_numbers(name, data):
    # subnormals, signed zeros, values near overflow, every order 0..8: a
    # call either raises one of the package's own errors or returns finite
    # numbers, never inf, NaN, a builtin exception or a numpy warning
    try:
        out = _CALLS[name](data.draw)
    except CcrLabError:
        return
    for v in _returned_numbers(out):
        assert cmath.isfinite(v), (name, out)
