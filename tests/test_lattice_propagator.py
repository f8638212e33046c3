"""Tests for the 1+1D lattice Klein-Gordon propagator machinery."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccr_lab import lattice_propagator
from ccr_lab.errors import (
    CausalContaminationError,
    CcrLabError,
    InternalInconsistencyError,
    InvalidSliceError,
    ValidationError,
    WindowTooThinError,
)
from ccr_lab.lattice_propagator import (
    CauchyData,
    LatticeConfig,
    LatticeField,
    apply_kg,
    causal_E,
    extract_cauchy,
    fundamental,
    pair_E,
    slice_compress,
    solve_cauchy,
)

from oracles import dalembert_retarded, lattice_dispersion, leapfrog_dispersion_residual


def smooth_bump(u):
    """C-infinity bump on (-1, 1)."""
    u = np.asarray(u, dtype=float)
    out = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return out


def sampled_source(cfg, t0, x0, wt, wx, amplitude=1.0):
    t = np.arange(cfg.n_steps) * cfg.dt
    x = np.arange(cfg.n_x) * cfg.spacing
    prof = np.outer(smooth_bump((t - t0) / wt), smooth_bump((x - x0) / wx))
    return LatticeField(cfg, amplitude * prof)


# ------------------------------------------------------------- validation

def test_config_guards():
    with pytest.raises(ValidationError):
        LatticeConfig(n_x=50, spacing=0.1, dt=0.2, n_steps=50, mass=0.0)
    with pytest.raises(ValidationError):
        LatticeConfig(n_x=50, spacing=0.1, dt=0.1, n_steps=50, mass=5.0)
    with pytest.raises(ValidationError):
        LatticeConfig(n_x=50, spacing=0.1, dt=0.05, n_steps=50, mass=-1.0)
    with pytest.raises(ValidationError):
        LatticeConfig(n_x=50, spacing=0.1, dt=0.05, n_steps=50, mass=0.0,
                      boundary="reflecting")


_SMALL = dict(n_x=8, spacing=0.5, dt=0.25, n_steps=6, mass=1.0)


def _small(**kw):
    return LatticeConfig(**{**_SMALL, **kw})


@pytest.mark.parametrize(
    "build",
    [
        lambda: _small(spacing=math.nan),
        lambda: _small(spacing=math.inf),
        lambda: _small(spacing=10**400),
        lambda: _small(mass=10**400),
        lambda: _small(dt=math.nan),
        lambda: _small(mass=math.nan),
        lambda: _small(mass="1.0"),
        lambda: _small(n_x=8.5),
        lambda: _small(n_steps=6.0),
        lambda: LatticeField(_small(), np.full((6, 8), math.nan)),
        lambda: LatticeField(_small(), np.full((6, 8), -math.inf)),
        lambda: LatticeField(_small(), [["a"] * 8] * 6),
        lambda: LatticeField(_small(), [["1.0"] * 8] * 6),
        lambda: LatticeField(_small(), np.ones((6, 8)) * 1j),
        lambda: LatticeField(_small(), [[0.0] * 8] * 5 + [[0.0] * 7]),
        lambda: CauchyData(_small(), 2.5, np.zeros(8), np.zeros(8)),
        lambda: CauchyData(_small(), "2", np.zeros(8), np.zeros(8)),
        lambda: CauchyData(_small(), 2, np.full(8, math.nan), np.zeros(8)),
        lambda: CauchyData(_small(), 2, np.zeros(8), ["x"] * 8),
        lambda: extract_cauchy(LatticeField(_small(), np.zeros((6, 8))), 2.7),
    ],
    ids=[
        "spacing-nan", "spacing-inf", "spacing-huge-int", "mass-huge-int", "dt-nan",
        "mass-nan", "mass-string", "n_x-float", "n_steps-float", "field-nan", "field-inf",
        "field-string", "field-numeric-string", "field-complex", "field-ragged",
        "slice-float", "slice-string", "psi-nan", "dpsi-string", "extract-float-slice",
    ],
)
def test_lattice_inputs_raise_validation_errors(build):
    with pytest.raises(ValidationError):
        build()


def _zero_field():
    return LatticeField(_small(), np.zeros((6, 8)))


def _data(**kw):
    return CauchyData(_small(n_steps=12, **kw), 6, np.ones(8), np.zeros(8))


@pytest.mark.parametrize(
    "call",
    [
        lambda: LatticeField("x", np.zeros((6, 8))),
        lambda: CauchyData(None, 2, np.zeros(8), np.zeros(8)),
        lambda: pair_E(5, 5),
        lambda: pair_E(_zero_field(), 5),
        lambda: extract_cauchy(5, 3),
        lambda: slice_compress(5, (2, 5)),
        lambda: fundamental(5),
        lambda: causal_E(None),
        lambda: apply_kg("f"),
        lambda: solve_cauchy(5),
        lambda: LatticeConfig(16, 0.2, 1e-300, 12, 1e300),
        lambda: _small(spacing=1e-200, dt=1e-201),
        lambda: _small(spacing=1e200, dt=1e200, mass=0.0),
        lambda: _small(boundary=np.eye(3)),
        lambda: fundamental(_zero_field(), np.eye(3)),
        lambda: pair_E(_zero_field(), _zero_field(), method=np.eye(3)),
        lambda: slice_compress(_data(), 5),
        lambda: slice_compress(_data(), (2,)),
        lambda: slice_compress(_data(), None),
        lambda: solve_cauchy(CauchyData(_small(n_steps=10**19), 2, np.zeros(8), np.zeros(8))),
        # rows of opposite sign near the float's edge: the centered
        # difference used to overflow with a RuntimeWarning
        lambda: extract_cauchy(LatticeField(_small(), np.outer([0, 1, 0, -1, 0, 0], [1.7e308] * 8)), 2),
    ],
    ids=[
        "field-config", "cauchy-config", "pair-fields", "pair-second-field", "extract-field",
        "compress-data", "fundamental-field", "causal-field", "kg-field", "solve-data",
        "mass-squared-overflow", "dt-squared-underflow", "spacing-squared-overflow",
        "boundary-array", "which-array", "method-array", "window-int", "window-short",
        "window-none", "grid-past-numpy", "derivative-overflow",
    ],
)
def test_lattice_boundary_refuses_foreign_input(call):
    # each of these used to leak AttributeError, TypeError, ValueError,
    # OverflowError or ZeroDivisionError
    with pytest.raises(ValidationError):
        call()


def test_pair_E_refuses_fields_it_cannot_pair():
    f16, f17 = (LatticeField(_small(n_steps=n), np.zeros((n, 8))) for n in (16, 17))
    with pytest.raises(ValidationError, match="fields live on different grids"):
        pair_E(f16, f17)
    # a source on every interior row leaves no slice n with rows n-1..n+1 free
    v = np.zeros((16, 8))
    v[1:-1, 3] = 1.0
    f = LatticeField(_small(n_steps=16), v)
    with pytest.raises(InvalidSliceError, match="no source-free slice exists on this grid"):
        pair_E(f, f, method="surface")


@pytest.mark.parametrize(
    "call, dt",
    [
        (lambda f: fundamental(f, "retarded"), 1e100),
        (causal_E, 1e100),
        (lambda f: pair_E(f, f), 1e100),
        (lambda f: pair_E(f, f, method="surface"), 1e100),
        (apply_kg, 1e-100),
    ],
    ids=["fundamental", "causal", "pair-volume", "pair-surface", "kg"],
)
def test_results_past_the_float_range_are_refused(call, dt):
    # a leapfrog step multiplies a source of 1e300 by dt^2 and apply_kg
    # divides by it, so with dt far from 1 the results leave the float
    # range.  They are refused before any numpy warning escapes
    cfg = LatticeConfig(n_x=16, spacing=2.0 * dt, dt=dt, n_steps=24, mass=0.0)
    v = np.zeros((24, 16))
    v[2:4, 6:9] = 1e300
    with pytest.raises(ValidationError, match="float range|finite"):
        call(LatticeField(cfg, v))


def test_lattice_inputs_take_numpy_integers():
    cfg = _small(n_x=np.int64(8), n_steps=np.int32(6), mass=np.float64(1.0))
    assert (type(cfg.n_x), type(cfg.n_steps), type(cfg.mass)) == (int, int, float)
    assert cfg == _small()
    data = CauchyData(cfg, np.int64(2), np.zeros(8), [0] * 8)
    assert type(data.slice_index) is int and data.dpsi.dtype == np.float64


def test_cauchy_data_is_a_frozen_copy():
    # a caller's later edit cannot reach the validated data
    psi, dpsi = np.ones(8), np.zeros(8)
    data = CauchyData(_small(), 4, psi, dpsi)
    psi[2], dpsi[3] = math.nan, 5.0
    assert np.array_equal(data.psi, np.ones(8)) and not data.dpsi.any()
    assert not data.psi.flags.writeable and not data.dpsi.flags.writeable
    with pytest.raises(ValueError):
        data.psi[0] = 2.0


def test_source_must_avoid_first_and_last_rows():
    cfg = LatticeConfig(n_x=20, spacing=0.1, dt=0.05, n_steps=12, mass=0.0)
    v = np.zeros((12, 20))
    v[0, 10] = 1.0
    with pytest.raises(ValidationError):
        fundamental(LatticeField(cfg, v), "retarded")


# ------------------------------------------------- fundamental solutions

def test_massless_retarded_matches_dalembert():
    cfg = LatticeConfig(n_x=321, spacing=0.05, dt=0.04, n_steps=150,
                        mass=0.0, boundary="absorbing-pad")
    x0 = 160 * cfg.spacing
    f = sampled_source(cfg, t0=0.35, x0=x0, wt=0.25, wx=0.25)
    total = f.values.sum() * cfg.spacing * cfg.dt
    psi = fundamental(LatticeField(cfg, f.values / total), "retarded")
    # deep interior of the cone: plateau at 1/2
    for n, j in [(120, 160), (120, 130), (120, 190), (145, 160)]:
        t = n * cfg.dt - 0.35
        x = j * cfg.spacing - x0
        assert dalembert_retarded(t, x) == 0.5
        assert abs(psi.values[n, j] - 0.5) < 0.03
    # strictly outside the lattice cone the response vanishes identically
    assert abs(psi.values[100, 20]) == 0.0
    assert abs(psi.values[60, 280]) == 0.0


def test_advanced_is_time_reflected_retarded():
    cfg = LatticeConfig(n_x=80, spacing=0.1, dt=0.08, n_steps=60, mass=0.7)
    f = sampled_source(cfg, t0=2.4, x0=4.0, wt=0.4, wx=0.5)
    flipped = LatticeField(cfg, f.values[::-1].copy())
    lhs = fundamental(f, "advanced").values
    rhs = fundamental(flipped, "retarded").values[::-1]
    assert np.abs(lhs - rhs).max() < 1e-13


def test_fundamental_rejects_unknown_kind():
    cfg = LatticeConfig(n_x=20, spacing=0.1, dt=0.05, n_steps=12, mass=0.0)
    f = LatticeField(cfg, np.zeros((12, 20)))
    with pytest.raises(ValidationError):
        fundamental(f, "feynman")


def test_measured_dispersion_matches_lattice_relation():
    m, a = 1.0, 0.25
    n_x = 64
    cfg = LatticeConfig(n_x=n_x, spacing=a, dt=0.2, n_steps=40, mass=m)
    mode = 5
    k = 2.0 * math.pi * mode / (n_x * a)
    x = np.arange(n_x) * a
    data = CauchyData(cfg, 0, np.cos(k * x), np.zeros(n_x))
    psi = solve_cauchy(data)
    amp = psi.values @ np.cos(k * x)
    n = 17
    ratio = (amp[n + 1] + amp[n - 1]) / (2.0 * amp[n])
    omega_meas = math.acos(ratio) / cfg.dt
    # exact discrete dispersion of the scheme
    lhs = (2.0 / cfg.dt * math.sin(omega_meas * cfg.dt / 2.0)) ** 2
    rhs = m * m + (2.0 / a * math.sin(k * a / 2.0)) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-9)
    # and the time-continuum lattice frequency to second order in dt
    assert omega_meas == pytest.approx(lattice_dispersion(k, m, a), abs=0.02)


# ------------------------------------------- against a dense operator

def _dense_kg(cfg):
    """The discrete Klein-Gordon operator as a dense matrix on the flattened
    grid, one row per interior point, built entry by entry from its
    definition: (centered second difference in t) - (nearest-neighbour
    Laplacian in x) + m^2, with wrapped or zero neighbours past the ends."""
    T, N = cfg.n_steps, cfg.n_x
    dt2, a2 = cfg.dt**2, cfg.spacing**2
    K = np.zeros(((T - 2) * N, T * N))
    for n in range(1, T - 1):
        for j in range(N):
            r = (n - 1) * N + j
            K[r, (n + 1) * N + j] += 1.0 / dt2
            K[r, (n - 1) * N + j] += 1.0 / dt2
            K[r, n * N + j] += -2.0 / dt2 + 2.0 / a2 + cfg.mass**2
            for k in (j - 1, j + 1):
                if cfg.boundary == "periodic":
                    K[r, n * N + k % N] -= 1.0 / a2
                elif 0 <= k < N:
                    K[r, n * N + k] -= 1.0 / a2
    return K


@pytest.mark.parametrize("boundary", ["periodic", "absorbing-pad"])
def test_stencil_matches_dense_operator(boundary):
    T, N = 8, 16
    cfg = LatticeConfig(n_x=N, spacing=0.5, dt=0.3, n_steps=T, mass=0.8,
                        boundary=boundary)
    K = _dense_kg(cfg)
    rng = np.random.default_rng(11)
    v = rng.normal(size=(T, N))
    kv = apply_kg(LatticeField(cfg, v)).values
    want = K @ v.ravel()
    tol = 1e-13 * np.abs(K).sum(axis=1).max() * np.abs(v).max()
    assert np.abs(kv[1:-1].ravel() - want).max() <= tol
    assert not kv[0].any() and not kv[-1].any()

    # a source late in the grid: rows 4 and 5, columns 7 and 8
    src = np.zeros((T, N))
    src[4:6, 7:9] = rng.uniform(0.5, 1.5, size=(2, 2))
    f = LatticeField(cfg, src)
    rhs = src[1:-1].ravel()
    # retarded: rows 0 and 1 vanish, and K restricted to rows 2.. is lower
    # triangular; advanced: rows T-2 and T-1 vanish, upper triangular
    lower = K[:, 2 * N :]
    upper = K[:, : (T - 2) * N]
    assert not np.triu(lower, 1).any() and not np.tril(upper, -1).any()
    ret = fundamental(f, "retarded").values
    adv = fundamental(f, "advanced").values
    scale = np.abs(np.linalg.solve(lower, rhs)).max()
    assert np.abs(ret[2:].ravel() - np.linalg.solve(lower, rhs)).max() <= 1e-12 * scale
    assert np.abs(adv[:-2].ravel() - np.linalg.solve(upper, rhs)).max() <= 1e-12 * scale
    # behind the source the solutions are exactly zero, not merely small
    assert np.all(ret[:5] == 0.0) and np.all(adv[5:] == 0.0)
    assert np.array_equal(causal_E(f).values, adv - ret)


# ------------------------------------------------- the operator in blocks

def _plane_wave(cfg, mode):
    """An exact solution of the leapfrog scheme: cos(omega t) times a
    spatial mode, omega the root of the discrete dispersion relation.  On a
    periodic grid the mode is cos(k x); on a padded one it is sin(k (j+1) a)
    with k (n_x+1) a a multiple of pi, so it vanishes at the zero neighbours
    past both ends."""
    a, N = cfg.spacing, cfg.n_x
    j = np.arange(N)
    if cfg.boundary == "periodic":
        k = 2.0 * math.pi * mode / (N * a)
        profile = np.cos(k * a * j)
    else:
        k = math.pi * mode / ((N + 1) * a)
        profile = np.sin(k * a * (j + 1))
    rate = math.sqrt(cfg.mass**2 + (2.0 / a * math.sin(k * a / 2.0)) ** 2)
    omega = 2.0 / cfg.dt * math.asin(cfg.dt * rate / 2.0)
    t = np.arange(cfg.n_steps) * cfg.dt
    return omega, k, np.outer(np.cos(omega * t), profile)


@pytest.mark.parametrize("boundary", ["periodic", "absorbing-pad"])
@pytest.mark.parametrize("n_steps", [9, 77])
def test_apply_kg_annihilates_an_exact_discrete_plane_wave(boundary, n_steps):
    # 7 and 75 interior rows: one short block, and blocks of 32 whose last
    # one overlaps the block before it
    cfg = LatticeConfig(n_x=50, spacing=0.3, dt=0.2, n_steps=n_steps, mass=0.9,
                        boundary=boundary)
    omega, k, wave = _plane_wave(cfg, 4)
    scale = 4.0 / cfg.dt**2 + 4.0 / cfg.spacing**2 + cfg.mass**2
    assert abs(leapfrog_dispersion_residual(omega, k, cfg.mass, cfg.spacing, cfg.dt)) <= 1e-13 * scale
    kv = apply_kg(LatticeField(cfg, wave)).values
    assert np.abs(kv[1:-1]).max() <= 1e-13 * scale
    assert not kv[0].any() and not kv[-1].any()


@pytest.mark.parametrize("boundary", ["periodic", "absorbing-pad"])
def test_apply_kg_in_blocks_equals_the_step_row_by_row(boundary):
    # the block form makes the single-row step's operations in its order
    cfg = LatticeConfig(n_x=37, spacing=0.5, dt=0.3, n_steps=71, mass=0.8, boundary=boundary)
    v = np.random.default_rng(7).normal(size=(cfg.n_steps, cfg.n_x))
    step, dt2 = lattice_propagator._stencil(cfg)
    want = np.zeros_like(v)
    for n in range(1, cfg.n_steps - 1):
        want[n] = (v[n + 1] - step(v[n], v[n - 1], np.empty(cfg.n_x))) / dt2
    assert np.array_equal(apply_kg(LatticeField(cfg, v)).values, want)


# ------------------------------------------------------------- causal map

def test_causal_E_of_zero_and_of_image_of_kg():
    cfg = LatticeConfig(n_x=70, spacing=0.1, dt=0.08, n_steps=60, mass=1.0)
    zero = LatticeField(cfg, np.zeros((60, 70)))
    assert causal_E(zero).norm() == 0.0
    g = sampled_source(cfg, t0=2.2, x0=3.5, wt=0.9, wx=0.8)
    pg = apply_kg(g)
    assert causal_E(pg).norm() <= 1e-8 * g.norm()


def test_causal_E_solves_the_equation():
    cfg = LatticeConfig(n_x=90, spacing=0.1, dt=0.08, n_steps=70, mass=0.5)
    f = sampled_source(cfg, t0=2.6, x0=4.5, wt=0.5, wx=0.6)
    residual = apply_kg(causal_E(f))
    # E f solves the homogeneous equation away from the grid's time ends
    inner = residual.values[1:-1]
    assert np.abs(inner).max() < 1e-10 * max(1.0, causal_E(f).norm())


def _sourced(boundary, rows):
    # a random source on rows `rows` and columns 20..27, clear of the pad
    cfg = LatticeConfig(n_x=48, spacing=0.5, dt=0.4, n_steps=14, mass=1.0, boundary=boundary)
    v = np.zeros((cfg.n_steps, cfg.n_x))
    v[rows, 20:28] = np.random.default_rng(5).normal(size=v[rows, 20:28].shape)
    return LatticeField(cfg, v)


@pytest.mark.parametrize("boundary", ["periodic", "absorbing-pad"])
@pytest.mark.parametrize("rows", [
    np.s_[1:2], np.s_[1:4], np.s_[5:9], np.s_[10:13], np.s_[12:13], np.s_[1:13], np.s_[0:0],
], ids=["row1", "from_row1", "middle", "to_last", "last", "all", "zero"])
def test_causal_E_is_advanced_minus_retarded(boundary, rows):
    # E is held in one grid, the retarded march kept to a band over the
    # source rows, and carried on as -ret past them: the same values as the
    # difference of the two full solutions
    f = _sourced(boundary, rows)
    want = fundamental(f, "advanced").values - fundamental(f, "retarded").values
    assert np.array_equal(causal_E(f).values, want)


@pytest.mark.parametrize("rows", [
    (1, 3), (3, 7), (6, 10), (11, 12), (0, 2), (0, 0), (11, 13), (13, 13), (0, 13), (4, 9),
])
def test_causal_rows_are_the_causal_solution_rows(rows):
    # pair_E's row ranges, before, across and after the source rows 5..8;
    # windows on the grid's first and last rows; the whole grid; one
    # spanning the source
    f = _sourced("periodic", np.s_[5:9])
    source = lattice_propagator._source(f, ("advanced", "retarded"))
    lo, hi = rows
    got = lattice_propagator._causal(f.config, source, rows)
    assert np.array_equal(got, causal_E(f).values[lo : hi + 1])
    zero = lattice_propagator._causal(f.config, None, rows)
    assert np.array_equal(zero, np.zeros((hi - lo + 1, f.config.n_x)))


@pytest.mark.parametrize("boundary", ["periodic", "absorbing-pad"])
@pytest.mark.parametrize("which, windows", [
    ("retarded", [(4, 13), (4, 8), (0, 6), (2, 3), (4, 4)]),
    ("advanced", [(0, 9), (5, 9), (7, 13), (10, 11), (9, 9)]),
], ids=["retarded", "advanced"])
def test_solution_on_a_window_is_the_fundamental_rows(boundary, which, windows):
    # source rows 5..8; a window holds the row behind its march's first
    # step (row 4 retarded, row 9 advanced) or lies wholly behind it
    f = _sourced(boundary, np.s_[5:9])
    source = lattice_propagator._source(f, (which,))
    full = fundamental(f, which).values
    for lo, hi in windows:
        got = lattice_propagator._solution(f.config, source, which, (lo, hi))
        assert np.array_equal(got, full[lo : hi + 1])


def _traced_peak(call):
    """Peak bytes traced while `call` runs, above what was held before."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


_BIG = LatticeConfig(n_x=1024, spacing=0.1, dt=0.05, n_steps=512, mass=1.0)
_GRID = 8 * _BIG.n_steps * _BIG.n_x


def test_causal_E_holds_one_grid():
    v = np.zeros((_BIG.n_steps, _BIG.n_x))
    v[100:110, 300:310] = 1.0
    f = LatticeField(_BIG, v)
    assert _traced_peak(lambda: causal_E(f)) <= 1.25 * _GRID


@pytest.mark.parametrize("method", ["volume", "surface"])
def test_pair_E_holds_the_rows_it_reads(method):
    # E is held on the rows the pairing reads and the source's rows: about
    # 0.31 grids per causal solution here, where a full grid is 1.0
    f, g = np.zeros((2, _BIG.n_steps, _BIG.n_x))
    f[100:110, 300:310] = g[400:410, 300:310] = 1.0
    f, g = LatticeField(_BIG, f), LatticeField(_BIG, g)
    for a, b in ((f, g), (g, f)):
        assert _traced_peak(lambda: pair_E(a, b, method)) <= 0.75 * _GRID


def test_compress_allocates_its_source_after_the_check():
    # the solution and the check's grid; the returned grid comes after the
    # check's is freed
    x = np.arange(_BIG.n_x) * _BIG.spacing
    data = CauchyData(_BIG, 256, np.cos(2 * math.pi * 3 * x / (_BIG.n_x * _BIG.spacing)),
                      np.zeros(_BIG.n_x))
    assert _traced_peak(lambda: slice_compress(data, (150, 160))) <= 2.5 * _GRID


# ---------------------------------------------------------------- pairing

def _two_sources(cfg):
    f = sampled_source(cfg, t0=1.6, x0=3.2, wt=0.5, wx=0.6)
    g = sampled_source(cfg, t0=2.6, x0=5.2, wt=0.5, wx=0.6, amplitude=0.7)
    return f, g


def test_pairing_antisymmetry_is_exact():
    cfg = LatticeConfig(n_x=100, spacing=0.1, dt=0.08, n_steps=60, mass=1.0)
    f, g = _two_sources(cfg)
    ab = pair_E(f, g, "volume")
    ba = pair_E(g, f, "volume")
    assert ab != 0.0
    assert abs(ab + ba) < 1e-15 * max(1.0, abs(ab))
    assert pair_E(f, f, "volume") == pytest.approx(0.0, abs=1e-18)


def test_volume_pairing_reads_the_full_causal_solution_on_f_rows():
    # the marches stop at f's support rows; being causal, they agree there
    # with the march over the whole grid
    cfg = LatticeConfig(n_x=100, spacing=0.1, dt=0.08, n_steps=60, mass=1.0)
    f, g = _two_sources(cfg)
    for a, b in ((f, g), (g, f)):
        full = cfg.spacing * cfg.dt * np.sum(a.values * causal_E(b).values)
        assert pair_E(a, b, "volume") == pytest.approx(full, rel=1e-13)
    zero = LatticeField(cfg, np.zeros((cfg.n_steps, cfg.n_x)))
    assert pair_E(zero, g, "volume") == 0.0
    assert pair_E(f, zero, "volume") == 0.0


def test_spacelike_sources_pair_to_zero():
    cfg = LatticeConfig(n_x=140, spacing=0.1, dt=0.08, n_steps=40, mass=1.0)
    f = sampled_source(cfg, t0=1.5, x0=3.0, wt=0.6, wx=0.6)
    g = sampled_source(cfg, t0=1.5, x0=10.0, wt=0.6, wx=0.6)
    assert abs(pair_E(f, g, "volume")) <= 1e-10


def test_surface_form_agrees_and_is_slice_independent():
    cfg = LatticeConfig(n_x=100, spacing=0.1, dt=0.08, n_steps=70, mass=1.0)
    f, g = _two_sources(cfg)
    vol = pair_E(f, g, "volume")
    values = [
        pair_E(f, g, "surface", slice_index=s) for s in (2, 50, 60, 68)
    ]
    for v in values:
        assert v == pytest.approx(vol, rel=1e-10)


def test_volume_form_refuses_a_slice():
    # the volume form reads no slice, so any slice_index is refused rather
    # than ignored
    cfg = LatticeConfig(n_x=100, spacing=0.1, dt=0.08, n_steps=70, mass=1.0)
    f, g = _two_sources(cfg)
    for s in (35, 20, "junk"):
        with pytest.raises(ValidationError, match="reads no slice"):
            pair_E(f, g, "volume", slice_index=s)
    assert pair_E(f, g, "volume", slice_index=None) == pair_E(f, g, "volume")


def test_surface_slice_through_source_rejected():
    cfg = LatticeConfig(n_x=100, spacing=0.1, dt=0.08, n_steps=70, mass=1.0)
    f, g = _two_sources(cfg)
    with pytest.raises(InvalidSliceError):
        pair_E(f, g, "surface", slice_index=20)
    with pytest.raises(InvalidSliceError):
        pair_E(f, g, "surface", slice_index=0)


def test_pairing_value_converges_at_second_order():
    # the same continuum sources sampled at three refinements
    vals = []
    for level in range(3):
        sc = 2**level
        cfg = LatticeConfig(
            n_x=120 * sc, spacing=0.1 / sc, dt=0.08 / sc,
            n_steps=100 * sc, mass=1.0,
        )
        f = sampled_source(cfg, t0=2.0, x0=4.0, wt=0.7, wx=0.8)
        g = sampled_source(cfg, t0=4.6, x0=7.0, wt=0.7, wx=0.8)
        vals.append(pair_E(f, g, "volume"))
    e1 = abs(vals[0] - vals[1])
    e2 = abs(vals[1] - vals[2])
    order = math.log2(e1 / e2)
    assert order >= 1.9


# --------------------------------------------------------- bridge to modes

def test_pairing_matches_symplectic_form_of_cauchy_data():
    from ccr_lab.phase_space import ground_state_mu, lattice_energy_form

    cfg = LatticeConfig(n_x=48, spacing=0.25, dt=0.2, n_steps=60, mass=1.0)
    f = sampled_source(cfg, t0=2.0, x0=5.0, wt=0.8, wx=0.9)
    g = sampled_source(cfg, t0=3.0, x0=7.0, wt=0.8, wx=0.9)
    n_slice = 55
    df = extract_cauchy(causal_E(f), n_slice)
    dg = extract_cauchy(causal_E(g), n_slice)
    root_a = math.sqrt(cfg.spacing)

    def phase_vector(d):
        return np.concatenate([d.psi * root_a, d.dpsi * root_a])

    A, tau = lattice_energy_form(cfg.n_x, cfg.spacing, cfg.mass)
    xf, xg = phase_vector(df), phase_vector(dg)
    sym = float(xf @ tau @ xg)
    pe = pair_E(f, g, "volume")
    assert sym == pytest.approx(pe, abs=1e-6 * max(1.0, abs(pe)))
    # the Gaussian two-point built on these modes closes the loop:
    # twice its imaginary part is the causal pairing
    mu = ground_state_mu(A, tau)
    omega2 = xf @ mu @ xg + 0.5j * sym
    assert 2.0 * omega2.imag == pytest.approx(pe, abs=1e-6 * max(1.0, abs(pe)))


# ------------------------------------------------------------ compression

def test_compress_zero_solution():
    cfg = LatticeConfig(n_x=40, spacing=0.2, dt=0.15, n_steps=40, mass=1.0)
    data = CauchyData(cfg, 20, np.zeros(40), np.zeros(40))
    f = slice_compress(data, (10, 20))
    assert f.norm() == 0.0


def test_compress_standing_wave_and_window_support():
    n_x = 48
    cfg = LatticeConfig(n_x=n_x, spacing=0.25, dt=0.2, n_steps=80, mass=1.0)
    k = 2.0 * math.pi * 3 / (n_x * cfg.spacing)
    x = np.arange(n_x) * cfg.spacing
    data = CauchyData(cfg, 40, np.cos(k * x), np.sin(k * x))
    for window in ((20, 40), (30, 40), (50, 62)):
        # rows where the source rises above roundoff lie in the window, and
        # the rows before it are exactly zero
        f = slice_compress(data, window)
        rows_peak = np.abs(f.values).max(axis=1)
        rows = np.nonzero(rows_peak > 1e-10 * rows_peak.max())[0]
        assert rows[0] >= window[0] - 1 and rows[-1] <= window[1] + 1
        assert f.support_box()[0] == window[0]
    with pytest.raises(WindowTooThinError):
        slice_compress(data, (30, 33))
    with pytest.raises(ValidationError):
        slice_compress(data, (0, 10))


def test_compress_reconstruction_error_small():
    cfg = LatticeConfig(n_x=40, spacing=0.25, dt=0.2, n_steps=60, mass=0.8)
    rng = np.random.default_rng(4)
    data = CauchyData(cfg, 30, rng.normal(size=40), rng.normal(size=40))
    fsrc = slice_compress(data, (12, 26))
    psi = solve_cauchy(data)
    rec = causal_E(fsrc)
    assert np.abs(rec.values - psi.values).max() <= 1e-3 * psi.norm()


def test_compress_reconstruction_check_fires(monkeypatch):
    # negative control: a source off by 1e-6 in one entry no longer
    # reproduces the solution, and the round-trip check refuses it
    cfg = LatticeConfig(n_x=40, spacing=0.25, dt=0.2, n_steps=60, mass=0.8)
    rng = np.random.default_rng(4)
    data = CauchyData(cfg, 30, rng.normal(size=40), rng.normal(size=40))
    kg = lattice_propagator._kg

    def perturbed(config, v):
        out = kg(config, v)
        out[3, 5] += 1e-6 * np.abs(out).max()
        return out

    monkeypatch.setattr(lattice_propagator, "_kg", perturbed)
    with pytest.raises(InternalInconsistencyError, match="failed to reproduce"):
        slice_compress(data, (12, 26))


def test_compress_nan_residual_fails(monkeypatch):
    # negative control: a NaN in one window row of the source makes the
    # residual NaN, which the round-trip check refuses too
    cfg = LatticeConfig(n_x=40, spacing=0.25, dt=0.2, n_steps=60, mass=0.8)
    rng = np.random.default_rng(4)
    data = CauchyData(cfg, 30, rng.normal(size=40), rng.normal(size=40))
    kg = lattice_propagator._kg

    def spoiled(config, v):
        out = kg(config, v)
        out[3, 5] = math.nan
        return out

    monkeypatch.setattr(lattice_propagator, "_kg", spoiled)
    with pytest.raises(InternalInconsistencyError, match="failed to reproduce"):
        slice_compress(data, (12, 26))


@pytest.mark.parametrize("boundary", ["periodic", "absorbing-pad"])
def test_compressed_source_is_kg_of_chi_psi_on_the_window_rows(boundary):
    cfg = LatticeConfig(n_x=160, spacing=0.25, dt=0.2, n_steps=40, mass=0.8,
                        boundary=boundary)
    x = np.arange(cfg.n_x) * cfg.spacing
    data = CauchyData(cfg, 20, smooth_bump((x - 20.0) / 2.0), np.zeros(cfg.n_x))
    n_lo, n_hi = window = (12, 19)
    f = slice_compress(data, window)
    steps = np.arange(cfg.n_steps)
    chi = 1.0 - lattice_propagator._smoothstep((steps - n_lo) / float(n_hi - n_lo))
    full = apply_kg(LatticeField(cfg, chi[:, None] * solve_cauchy(data).values)).values
    assert not f.values[:n_lo].any() and not f.values[n_hi + 1 :].any()
    assert np.array_equal(f.values[n_lo : n_hi + 1], full[n_lo : n_hi + 1])


# ------------------------------------------------------------- boundaries

def test_absorbing_pad_contamination_guard():
    cfg = LatticeConfig(n_x=40, spacing=0.1, dt=0.08, n_steps=60, mass=0.0,
                        boundary="absorbing-pad")
    f = sampled_source(cfg, t0=0.4, x0=2.0, wt=0.2, wx=0.3)
    with pytest.raises(CausalContaminationError):
        fundamental(f, "retarded")


def test_absorbing_pad_agrees_with_periodic_when_uncontaminated():
    kw = dict(n_x=160, spacing=0.1, dt=0.08, n_steps=30, mass=1.0)
    cfg_p = LatticeConfig(boundary="periodic", **kw)
    cfg_a = LatticeConfig(boundary="absorbing-pad", **kw)
    fp = sampled_source(cfg_p, t0=1.2, x0=8.0, wt=0.4, wx=0.5)
    fa = LatticeField(cfg_a, fp.values)
    periodic = fundamental(fp, "retarded").values
    assert np.abs(periodic - fundamental(fa, "retarded").values).max() < 1e-13


# every name in lattice_propagator.__all__, fed junk configs, ragged and NaN
# values, Cauchy data of the wrong length, junk windows and slice indices,
# and values at the edges of the float range; grids stay small or past what
# numpy can hold, never gigabytes
_specials = st.sampled_from(
    [math.nan, math.inf, -math.inf, 1e308, 1e300, 1e-300, 1e-320, -0.0, 10**400, 2.5, 1j]
)
_junk = st.one_of(
    _specials, st.none(), st.text(max_size=3), st.integers(-3, 9),
    st.sampled_from([[1, 2], [[1.0, 0.0], [0.0]], [["a", 0], [0, 1]], {"a": 1}, np.eye(3)]),
)
_sizes = st.sampled_from([3, 4, 8, 12, 10**19, 10**400, 2.5, "3", None, -1])
_reals = st.one_of(
    st.sampled_from([0.0, -1.0, 1e-160, 1e-150, 1e150, 1e154, 1e300, "1", None]), _specials
)


def _config(draw):
    kw = dict(
        n_x=draw(st.sampled_from([8, 12])), n_steps=draw(st.sampled_from([8, 12, 16])),
        spacing=0.5, dt=draw(st.sampled_from([0.25, 0.4])),
        mass=draw(st.sampled_from([0.0, 1.0])),
        boundary=draw(st.sampled_from(["periodic", "periodic", "absorbing-pad"])),
    )
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        key = draw(st.sampled_from(sorted(kw)))
        kw[key] = draw(_sizes if key in ("n_x", "n_steps") else _junk if key == "boundary"
                       else _reals)
    return LatticeConfig(**kw)


def _or_junk(draw, make):
    # make(draw) in five draws of six, else junk in its place
    return draw(_junk) if draw(st.integers(0, 5)) == 0 else make(draw)


def _small_grid(cfg):
    return isinstance(cfg, LatticeConfig) and cfg.n_steps * cfg.n_x <= 400


def _spoiled(draw, v):
    # v itself, most often, else v scaled toward the edges of the float
    # range, v with one entry replaced, cut to a wrong or ragged shape, or junk
    choice = draw(st.integers(0, 9))
    if choice < 6:
        return v
    if choice == 6:
        # in Python floats, whose product past the float range is inf with no warning
        c = draw(st.sampled_from([1e150, 1e300, 1e308, 1e-300, 1e-320, -1.0]))
        return np.array([x * c for x in v.ravel().tolist()]).reshape(v.shape)
    if choice == 7:
        out = v.astype(object)
        out[(draw(st.integers(0, len(v) - 1)),) + (0,) * (v.ndim - 1)] = draw(
            st.one_of(_specials, st.text(max_size=2))
        )
        return out.tolist()
    if choice == 8:
        return v[:-1] if v.ndim == 1 or draw(st.booleans()) else v.tolist()[:-1] + [[0.0]]
    return draw(_junk)


def _values(draw, cfg):
    # a source on the config's grid, nonzero in a box that mostly avoids the
    # first and last rows, then perhaps spoiled
    if not _small_grid(cfg):
        return draw(_junk)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    v = np.zeros((cfg.n_steps, cfg.n_x))
    edge = draw(st.integers(0, 4)) == 0
    n0 = draw(st.integers(0 if edge else 1, cfg.n_steps - 1 if edge else cfg.n_steps - 2))
    n1 = draw(st.integers(n0, min(n0 + 2, cfg.n_steps - (1 if edge else 2))))
    j0 = draw(st.integers(0, cfg.n_x - 1))
    j1 = draw(st.integers(j0, min(j0 + 3, cfg.n_x - 1)))
    v[n0 : n1 + 1, j0 : j1 + 1] = rng.normal(size=(n1 - n0 + 1, j1 - j0 + 1))
    return _spoiled(draw, v)


def _lattice_field(draw, cfg=None):
    cfg = _or_junk(draw, _config) if cfg is None else cfg
    return LatticeField(cfg, _values(draw, cfg))


def _site_array(draw, cfg):
    if not _small_grid(cfg):
        return draw(_junk)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return _spoiled(draw, rng.normal(size=cfg.n_x))


def _index(draw):
    return draw(st.one_of(st.integers(-1, 17), st.integers(1, 6), _junk))


def _cauchy(draw):
    cfg = _or_junk(draw, _config)
    return CauchyData(cfg, _index(draw), _site_array(draw, cfg), _site_array(draw, cfg))


def _window(draw):
    pair = st.tuples(st.integers(1, 4), st.integers(3, 8)).map(lambda p: (p[0], p[0] + p[1]))
    return draw(st.one_of(pair, pair, pair, st.lists(st.integers(0, 16), max_size=3), _junk))


def _word(*words):
    return lambda draw: _or_junk(draw, lambda d: d(st.sampled_from(words)))


def _pair_call(draw):
    cfg = _or_junk(draw, _config)
    f, g = (_or_junk(draw, lambda d: _lattice_field(d, cfg)) for _ in range(2))
    method = _word("volume", "surface")(draw)
    return pair_E(f, g, method, draw(st.one_of(st.none(), st.integers(-1, 17), _junk)))


_LP_CALLS = {
    "LatticeConfig": _config,
    "LatticeField": _lattice_field,
    "CauchyData": _cauchy,
    "fundamental": lambda d: fundamental(
        _or_junk(d, _lattice_field), _word("retarded", "advanced")(d)
    ),
    "causal_E": lambda d: causal_E(_or_junk(d, _lattice_field)),
    "apply_kg": lambda d: apply_kg(_or_junk(d, _lattice_field)),
    "pair_E": _pair_call,
    "solve_cauchy": lambda d: solve_cauchy(_or_junk(d, _cauchy)),
    "extract_cauchy": lambda d: extract_cauchy(_or_junk(d, _lattice_field), _index(d)),
    "slice_compress": lambda d: slice_compress(_or_junk(d, _cauchy), _window(d)),
}


def _assert_finite(out):
    if dataclasses.is_dataclass(out):
        for f in dataclasses.fields(out):
            _assert_finite(getattr(out, f.name))
    elif not isinstance(out, (str, int)):  # a Python int is exact, of any size
        assert np.isfinite(out).all(), out


def test_property_calls_cover_the_lattice_names():
    assert set(_LP_CALLS) == set(lattice_propagator.__all__)


@pytest.mark.parametrize("name", sorted(_LP_CALLS))
@given(data=st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_lattice_raises_only_package_errors(name, data):
    # a call either raises one of the package's own errors or returns finite
    # numbers; a numpy warning escaping is an error too
    try:
        out = _LP_CALLS[name](data.draw)
    except CcrLabError:
        return
    _assert_finite(out)
