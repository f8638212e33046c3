"""Tests for the 1+1D lattice Klein-Gordon propagator machinery."""

from __future__ import annotations

import math

import numpy as np
import pytest

from ccr_lab.errors import (
    CausalContaminationError,
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
    load_field_values,
    pair_E,
    save_field,
    slice_compress,
    solve_cauchy,
)

from oracles import dalembert_retarded, lattice_dispersion


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


def test_lattice_inputs_take_numpy_integers():
    cfg = _small(n_x=np.int64(8), n_steps=np.int32(6), mass=np.float64(1.0))
    assert (type(cfg.n_x), type(cfg.n_steps), type(cfg.mass)) == (int, int, float)
    assert cfg == _small()
    data = CauchyData(cfg, np.int64(2), np.zeros(8), [0] * 8)
    assert type(data.slice_index) is int and data.dpsi.dtype == np.float64


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


# ---------------------------------------------------- boundaries and IO

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


def test_field_round_trip_binary(tmp_path):
    cfg = LatticeConfig(n_x=24, spacing=0.2, dt=0.1, n_steps=10, mass=0.3)
    f = sampled_source(cfg, t0=0.5, x0=2.4, wt=0.2, wx=0.4)
    p = tmp_path / "field.npy"
    save_field(f, p)
    back = np.load(p)
    assert back.dtype == np.float64
    assert back.shape == (10, 24)
    assert np.array_equal(back, f.values)
    assert np.array_equal(load_field_values(p), f.values)


def test_load_field_values_refuses_unreadable_files(tmp_path):
    text = tmp_path / "field.txt"
    text.write_text("1.0 2.0\n3.0 4.0\n")
    pickled = tmp_path / "objects.npy"
    np.save(pickled, np.array([{"a": 1}, None], dtype=object), allow_pickle=True)
    nan = tmp_path / "nan.npy"
    np.save(nan, np.array([[0.0, math.nan]]))
    for path in (text, pickled, nan, tmp_path / "missing.npy", 5):
        with pytest.raises(ValidationError):
            load_field_values(path)
