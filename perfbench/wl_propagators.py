"""Workload `propagators`: the numerical kernels on arrays.

One pass runs the leapfrog propagators, both forms of the causal pairing,
Cauchy solving and time-window compression on a 1024 x 512 periodic grid,
plus one absorbing-pad grid, which takes the other Laplacian branch.  It
then compares the closed-form vacuum kernel with the Fourier mode integral
on the standard 100-point grid, and sweeps the closed form out to
m sqrt|sigma| = 20, into the K1 branches the standard grid never reaches.
Last, it tabulates the Hadamard remainder on 10^4 separations, takes the
point-split stress tensor of that table, and the coincidence value of the
ordered square at 16 seeded (mass, length scale) pairs; the worst of 16
roundoff-limited values moves less from seed to seed than one would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ccr_lab.lattice_propagator import LatticeConfig, LatticeField
from ccr_lab.minkowski_kernel import KernelParams, SeparationPoint
from oracles import bessel_envelope, coincidence_remainder, mp_k1

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
SPACING, DT = 0.1, 0.05
SWEEP_MAX = 20.0  # largest m sqrt|sigma| in the Bessel sweep
ORACLE_STRIDE = 8  # every 8th sweep point is checked against mpmath
TABLE_SAMPLES = 10  # per axis, so 10^4 table entries
PHI2_POINTS = 16  # (mass, length scale) pairs for the coincidence value


@dataclass(frozen=True)
class Inputs:
    mass: float
    grid: tuple  # (n_steps, n_x)
    f: np.ndarray
    g: np.ndarray
    window: tuple
    cauchy_slice: int
    absorbing_grid: tuple
    fa: np.ndarray
    sweep: tuple  # (dt, r) pairs
    table_step: float
    x: tuple
    xi: float
    phi2_params: tuple  # (m, lam) pairs


def _bump(shape, n0, j0, half, amplitude):
    n = np.arange(shape[0])[:, None] - n0
    j = np.arange(shape[1])[None, :] - j0
    inside = (np.abs(n) <= half) & (np.abs(j) <= half)
    c = np.pi / (2 * half + 2)
    return np.where(inside, amplitude * np.cos(c * n) ** 2 * np.cos(c * j) ** 2, 0.0)


def _sweep(rng, mass, n_points):
    """Separations with m sqrt|sigma| spread over (0.05, SWEEP_MAX),
    alternately spacelike and timelike."""
    pts = []
    for k in range(n_points):
        s = float(rng.uniform(0.05, SWEEP_MAX)) / mass
        lean = float(rng.uniform(0.0, 0.9))
        long_side = math.sqrt(s * s / (1.0 - lean * lean))
        if k % 2:
            pts.append((lean * long_side, long_side))  # spacelike: r > |dt|
        else:
            pts.append((long_side, lean * long_side))  # timelike
    return tuple(pts)


def build(rng, reduced=False):
    """Seeded inputs; `reduced` is the warm-up and smoke size."""
    mass = float(rng.uniform(0.6, 1.6))
    n_steps, n_x = (128, 128) if reduced else (512, 1024)
    half = int(rng.integers(4, 8))
    # f early, g late and nearly on top of it: causally connected sources
    nf = int(rng.integers(half + 2, n_steps // 4))
    ng = n_steps - nf
    jf = int(rng.integers(n_x // 4, n_x // 2))
    jg = jf + int(rng.integers(-n_x // 16, n_x // 16))
    f = _bump((n_steps, n_x), nf, jf, half, float(rng.uniform(0.5, 2.0)))
    g = _bump((n_steps, n_x), ng, jg, half, float(rng.uniform(0.5, 2.0)))
    mid = n_steps // 2
    lo = int(rng.integers(nf + half + 4, mid - 8))
    window = (lo, lo + int(rng.integers(6, 12)))
    a_steps, a_x = (32, 128) if reduced else (128, 512)
    fa = _bump((a_steps, a_x), a_steps // 3, a_x // 2, half, float(rng.uniform(0.5, 2.0)))
    n_sweep = 20 if reduced else 200
    return Inputs(
        mass=mass,
        grid=(n_steps, n_x),
        f=f,
        g=g,
        window=window,
        cauchy_slice=mid,
        absorbing_grid=(a_steps, a_x),
        fa=fa,
        sweep=_sweep(rng, mass, n_sweep),
        table_step=float(rng.uniform(0.02, 0.04)) / mass,
        x=tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=4)),
        xi=float(rng.uniform(0.0, 0.25)),
        phi2_params=tuple(
            (m, float(rng.uniform(0.5, 2.0)) / m)
            for m in rng.uniform(0.5, 2.0, size=4 if reduced else PHI2_POINTS)
        ),
    )


# ------------------------------------------------------------------ oracle

def _closed_form(dt, r, m):
    """(m^2/4pi^2) K1(z)/z with z = m sqrt(sigma), the timelike root on the
    side given by the sign of dt; returns the value and its envelope."""
    sigma = r * r - dt * dt
    if sigma > 0:
        root = complex(math.sqrt(sigma), 0.0)
    else:
        root = complex(0.0, math.copysign(math.sqrt(-sigma), dt))
    z = m * root
    k1 = mp_k1(z)
    pre = m * m / (4.0 * math.pi**2)
    return pre * k1 / z, pre * bessel_envelope(z, k1) / abs(z)


@dataclass(frozen=True)
class Oracle:
    sweep: tuple  # (index, value, envelope)
    phi2: tuple


def oracle(inp):
    m = inp.mass
    checked = range(0, len(inp.sweep), ORACLE_STRIDE)
    return Oracle(
        sweep=tuple((k, *_closed_form(*inp.sweep[k], m)) for k in checked),
        phi2=tuple(coincidence_remainder(mk, lam) for mk, lam in inp.phi2_params),
    )


# -------------------------------------------------------------------- pass

def _table_axis(step):
    # stress_energy needs its step to span two grid spacings; the margin
    # keeps rounding in the axis spacing from tripping that guard
    h = 0.999 * step / 2.0
    return h * (np.arange(TABLE_SAMPLES) - (TABLE_SAMPLES - 1) / 2.0)


def run(lib, inp):
    out = {}
    n_steps, n_x = inp.grid
    cfg = LatticeConfig(n_x=n_x, spacing=SPACING, dt=DT, n_steps=n_steps, mass=inp.mass)
    f = LatticeField(cfg, inp.f)
    g = LatticeField(cfg, inp.g)
    ret = lib.fundamental(f, "retarded")
    out["kg_retarded"] = lib.apply_kg(ret).values
    Ef = lib.causal_E(f)
    out["kg_causal"] = lib.apply_kg(Ef).values
    out["pair_volume"] = lib.pair_E(f, g, method="volume")
    out["pair_volume_swapped"] = lib.pair_E(g, f, method="volume")
    out["pair_surface"] = lib.pair_E(f, g, method="surface")
    data = lib.extract_cauchy(Ef, inp.cauchy_slice)
    out["kg_cauchy"] = lib.apply_kg(lib.solve_cauchy(data)).values
    out["compressed"] = lib.slice_compress(data, inp.window).values

    a_steps, a_x = inp.absorbing_grid
    cfg_a = LatticeConfig(
        n_x=a_x, spacing=SPACING, dt=DT, n_steps=a_steps, mass=inp.mass, boundary="absorbing-pad"
    )
    fa = LatticeField(cfg_a, inp.fa)
    out["kg_absorbing"] = lib.apply_kg(lib.causal_E(fa)).values

    params = KernelParams(m=inp.mass)
    grid = lib.cross_check_grid()
    out["grid_bessel"] = [lib.omega2_bessel(p, params) for p in grid]
    out["grid_fourier"] = [lib.omega2_fourier(p, params) for p in grid]
    out["sweep"] = [
        lib.omega2_bessel(SeparationPoint(dt=dt, r=r), params) for dt, r in inp.sweep
    ]

    axis = _table_axis(inp.table_step)
    values = np.empty((TABLE_SAMPLES,) * 4)
    for idx in np.ndindex(*values.shape):
        t, x, y, z = axis[list(idx)]
        sep = SeparationPoint(dt=float(t), r=math.sqrt(x * x + y * y + z * z))
        values[idx] = lib.remainder_w(sep, params).real
    table = lib.TwoPointTable((axis,) * 4, values)
    out["stress"] = lib.stress_energy(
        lib.stress_kernel(table), np.array(inp.x), inp.mass, xi=inp.xi, step=inp.table_step
    ).tensor
    out["phi2"] = [
        lib.phi2_H_expectation(KernelParams(m=float(mk), lam=lam)) for mk, lam in inp.phi2_params
    ]
    return out


def verify(out, inp, orc, check):
    interior = slice(1, -1)
    fmax = float(np.abs(inp.f).max())
    check.close("fundamental.kg_is_source", out["kg_retarded"][interior], inp.f[interior],
                tol=1e-9)
    zero = np.zeros_like(inp.f[interior])
    check.close("causal_E.kg_vanishes", out["kg_causal"][interior], zero, tol=1e-9, scale=fmax)
    check.close("solve_cauchy.kg_vanishes", out["kg_cauchy"][interior], zero, tol=1e-9, scale=fmax)
    check.close("causal_E.absorbing.kg_vanishes", out["kg_absorbing"][interior],
                np.zeros_like(inp.fa[interior]), tol=1e-9, scale=float(np.abs(inp.fa).max()))
    vol = out["pair_volume"]
    check.ok("pair_E.nonzero", vol != 0.0)
    check.close("pair_E.surface", out["pair_surface"], vol, tol=1e-9)
    check.close("pair_E.antisymmetry", out["pair_volume_swapped"], -vol, tol=1e-12)
    # rows where the compressed source rises above roundoff lie in the window
    src = np.abs(out["compressed"]).max(axis=1)
    rows = np.nonzero(src > 1e-9 * src.max())[0]
    lo, hi = inp.window
    check.ok("slice_compress.support", rows.size > 0 and lo - 1 <= rows[0] and rows[-1] <= hi + 1)

    for got, want in zip(out["grid_fourier"], out["grid_bessel"]):
        check.close("omega2_fourier", got, want, tol=1e-8)
    for k, want, envelope in orc.sweep:
        check.close("omega2_bessel.sweep", out["sweep"][k], want, tol=1e-12, scale=envelope)

    T = out["stress"]
    c = (-T[0, 0] + T[1, 1] + T[2, 2] + T[3, 3]) / 4.0
    residual = float(np.abs(T - c * ETA).max()) / max(abs(c), 1e-300)
    check.ok("stress_energy.proportional_to_eta", c != 0.0 and residual <= 1e-5)
    for got, want, (m, _) in zip(out["phi2"], orc.phi2, inp.phi2_params):
        # the value crosses zero near m lam = 1.85; m^2/16pi^2 is its size
        check.close("phi2_H_expectation", got, want, tol=1e-6, scale=m * m / (16 * math.pi**2))
