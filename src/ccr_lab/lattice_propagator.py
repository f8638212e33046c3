"""1+1 dimensional Klein-Gordon lattice: leapfrog propagators, the causal
bilinear pairing in volume and surface form, Cauchy solving, and time-window
support compression.

Grid layout: values[n, j] is the field at time step n and site j, with
t = n*dt and x = j*spacing.  The discrete wave operator applies the centered
second difference in time and the nearest-neighbor Laplacian in space; a
solution satisfies it exactly on interior rows, which is what makes the
pairing identities below hold to roundoff rather than to discretization
order.  Every march, the Taylor start of a Cauchy solve and the wave
operator itself are built on one leapfrog step, `_stencil`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CausalContaminationError,
    InternalInconsistencyError,
    InvalidSliceError,
    ValidationError,
    WindowTooThinError,
    as_finite,
    as_finite_array,
    as_index,
)

__all__ = [
    "LatticeConfig",
    "LatticeField",
    "CauchyData",
    "fundamental",
    "causal_E",
    "apply_kg",
    "pair_E",
    "solve_cauchy",
    "extract_cauchy",
    "slice_compress",
]

BOUNDARIES = ("periodic", "absorbing-pad")


@dataclass(frozen=True)
class LatticeConfig:
    n_x: int
    spacing: float
    dt: float
    n_steps: int
    mass: float
    boundary: str = "periodic"

    def __post_init__(self):
        for name, read in (("n_x", as_index), ("n_steps", as_index),
                           ("spacing", as_finite), ("dt", as_finite), ("mass", as_finite)):
            object.__setattr__(self, name, read(getattr(self, name), name))
        if self.n_x < 4 or self.n_steps < 4:
            raise ValidationError("grid needs at least 4 sites and 4 steps")
        # the stencil divides dt^2 by spacing^2: both squares must be floats > 0
        a2 = self.spacing * self.spacing
        if not (self.spacing > 0 and self.dt > 0 and 0 < a2 < math.inf
                and 0 < self.dt * self.dt < math.inf):
            raise ValidationError("spacing and dt must be positive, with squares in the float range")
        if self.mass < 0:
            raise ValidationError("mass must be non-negative")
        if not (isinstance(self.boundary, str) and self.boundary in BOUNDARIES):
            raise ValidationError(
                f"boundary must be one of {BOUNDARIES}, got {self.boundary!r}"
            )
        if self.dt > self.spacing:
            raise ValidationError(
                f"CFL violated: dt = {self.dt} exceeds spacing = {self.spacing}"
            )
        # massive leapfrog stability is slightly tighter than bare CFL; a
        # square past the float range reads inf and fails the bound
        top = self.dt * math.sqrt(self.mass * self.mass + 4.0 / a2)
        if top > 2.0:
            raise ValidationError(
                f"unstable step: dt*sqrt(m^2 + 4/a^2) = {top:.6g} > 2"
            )


@dataclass(frozen=True)
class LatticeField:
    config: LatticeConfig
    values: np.ndarray

    def __post_init__(self):
        _check(LatticeConfig, self.config)
        v = as_finite_array(self.values, "field values").copy()  # frozen below
        if v.shape != (self.config.n_steps, self.config.n_x):
            raise ValidationError(
                f"field shape {v.shape} does not match grid "
                f"({self.config.n_steps}, {self.config.n_x})"
            )
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    def support_box(self):
        """(n_min, n_max, j_min, j_max) of the nonzero entries, or None for
        an all-zero field."""
        mask = self.values != 0
        if not mask.any():
            return None
        rows = np.nonzero(mask.any(axis=1))[0]
        cols = np.nonzero(mask.any(axis=0))[0]
        return int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1])

    def norm(self):
        return float(np.abs(self.values).max())


def _check(kind, x):
    """x if it is a kind, else ValidationError."""
    if not isinstance(x, kind):
        raise ValidationError(f"expected a {kind.__name__}, got {x!r}")
    return x


def _field(config, values):
    """Wrap an array computed here from validated input, without a copy; an
    array past the float range, as a large source or grid makes, raises
    ValidationError."""
    if not np.isfinite(values).all():
        raise ValidationError("lattice field overflows the float range")
    values.flags.writeable = False
    field = object.__new__(LatticeField)
    object.__setattr__(field, "config", config)
    object.__setattr__(field, "values", values)
    return field


@dataclass(frozen=True)
class CauchyData:
    """Field value and time derivative on one constant-time slice."""

    config: LatticeConfig
    slice_index: int
    psi: np.ndarray
    dpsi: np.ndarray

    def __post_init__(self):
        _check(LatticeConfig, self.config)
        psi, dpsi = (as_finite_array(a, "Cauchy data") for a in (self.psi, self.dpsi))
        if psi.shape != (self.config.n_x,) or dpsi.shape != (self.config.n_x,):
            raise ValidationError("Cauchy arrays must have one entry per site")
        n = as_index(self.slice_index, "slice index")
        if not 0 <= n < self.config.n_steps:
            raise ValidationError("slice index outside the grid")
        object.__setattr__(self, "slice_index", n)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "dpsi", dpsi)


def _stencil(config):
    """The leapfrog step in either time direction, written into `out`:
    out = A row + B (left + right) - back + dt^2 source, with
    A = 2 - dt^2 m^2 - 2 dt^2/a^2 and B = dt^2/a^2.  `out` must not alias
    `row` or `back`; `back` and `source` may be None for zero.  Neighbours
    past the ends wrap (periodic) or read zero (absorbing pad).  Returns
    the step and dt^2."""
    dt2 = config.dt * config.dt
    B = dt2 / (config.spacing * config.spacing)
    A = 2.0 - dt2 * config.mass * config.mass - 2.0 * B
    wrap = config.boundary == "periodic"
    scratch = np.empty(config.n_x)

    def step(row, back, out, source=None):
        np.add(row[:-2], row[2:], out=out[1:-1])
        out[0] = row[1] + (row[-1] if wrap else 0.0)
        out[-1] = row[-2] + (row[0] if wrap else 0.0)
        out *= B
        out += np.multiply(row, A, out=scratch)
        if back is not None:
            out -= back
        if source is not None:
            out += np.multiply(source, dt2, out=scratch)
        return out

    return step, dt2


def _march(psi, step, start, forward, source=None, stop=None):
    """Leapfrog psi in place from row `start` to row `stop` (by default the
    grid edge ahead), adding the source rows when a source is given."""
    d = 1 if forward else -1
    if stop is None:
        stop = psi.shape[0] - 1 if forward else 0
    for n in range(start, stop, d):
        step(psi[n], psi[n - d], psi[n + d], None if source is None else source[n])
    return psi


def _source_box(f: LatticeField, kinds):
    """Support box of a source, checked to vanish on the first and last rows
    and, on a padded grid, to keep the cones named in `kinds` off the pad."""
    box = _check(LatticeField, f).support_box()
    if box is None:
        return None
    n0, n1, j0, j1 = box
    cfg = f.config
    if n0 < 1 or n1 > cfg.n_steps - 2:
        raise ValidationError(
            "source must vanish on the first and last time rows"
        )
    for which in kinds if cfg.boundary != "periodic" else ():
        run = (cfg.n_steps - 1 - n0) if which == "retarded" else n1
        if j0 - run < 1 or j1 + run > cfg.n_x - 2:
            raise CausalContaminationError(
                "the causal cone of the source reaches the padded boundary; "
                "enlarge the pad or shorten the evolution"
            )
    return box


def _grid(cfg):
    # a zero grid; a size numpy cannot hold is refused as input
    try:
        return np.zeros((cfg.n_steps, cfg.n_x))
    except (ValueError, OverflowError, MemoryError):
        raise ValidationError(f"grid {cfg.n_steps} x {cfg.n_x} is too large") from None


def _solution(f: LatticeField, box, which, stop=None):
    """Fundamental solution as an array, marched from the source's first row
    (retarded) or last row (advanced); every row behind that one is zero.
    With `stop` the march ends at that row, and rows past it stay zero."""
    cfg = f.config
    psi = _grid(cfg)
    if box is None:
        return psi
    step, _ = _stencil(cfg)
    if which == "retarded":
        return _march(psi, step, box[0], True, f.values, stop)
    return _march(psi, step, box[1], False, f.values, stop)


def fundamental(f: LatticeField, which="retarded"):
    """Leapfrog fundamental solution with zero data in the far past
    (retarded) or far future (advanced)."""
    if not (isinstance(which, str) and which in ("retarded", "advanced")):
        raise ValidationError("which must be 'retarded' or 'advanced'")
    box = _source_box(f, (which,))
    return _field(f.config, _solution(f, box, which))


def _causal(f: LatticeField, box, rows=(None, None)):
    """Advanced minus retarded solution as an array; with rows = (lo, hi)
    the marches stop once they have filled rows lo..hi."""
    E = _solution(f, box, "advanced", rows[0])
    E -= _solution(f, box, "retarded", rows[1])
    return E


def causal_E(f: LatticeField):
    """Advanced minus retarded solution of the source."""
    box = _source_box(f, ("advanced", "retarded"))
    return _field(f.config, _causal(f, box))


def apply_kg(field: LatticeField):
    """Discrete Klein-Gordon operator on interior rows: the leapfrog step's
    residual over dt^2.  The first and last rows are zero by convention."""
    return _field(_check(LatticeField, field).config, _kg(field.config, field.values))


def _kg(config, v, start=1):
    # apply_kg's rows from `start` on, as a writable array; rows before stay zero
    step, dt2 = _stencil(config)
    out = np.zeros_like(v)
    for n in range(start, v.shape[0] - 1):
        np.subtract(v[n + 1], step(v[n], v[n - 1], out[n]), out=out[n])
    out /= dt2
    return out


def pair_E(f: LatticeField, g: LatticeField, method="volume", slice_index=None):
    """Causal pairing of two sources.

    volume: cell-weighted sum of f times the causal solution of g;
    antisymmetric to machine precision by the discrete adjoint relation
    between the two fundamental solutions.

    surface: centered Wronskian of the two causal solutions on one
    source-free time slice; slice rows n-1, n, n+1 must carry no source.
    The value is slice independent because the half-step Wronskian is an
    exact invariant of the leapfrog update away from sources.  A value past
    the float range raises ValidationError.
    """
    if _check(LatticeField, f).config != _check(LatticeField, g).config:
        raise ValidationError("fields live on different grids")
    if not (isinstance(method, str) and method in ("volume", "surface")):
        raise ValidationError("method must be 'volume' or 'surface'")
    cfg = f.config
    if method == "volume":
        box = _source_box(g, ("advanced", "retarded"))
        support = f.support_box()
        if support is None:
            return 0.0
        # only f's support rows are read, so neither march goes past them
        n0, n1 = support[:2]
        Eg = _causal(g, box, (n0, n1))[n0 : n1 + 1]
        return as_finite(cfg.spacing * cfg.dt * np.sum(f.values[n0 : n1 + 1] * Eg), "pairing")
    boxes = [_source_box(h, ("advanced", "retarded")) for h in (f, g)]
    n = _pick_slice(f, g, slice_index)
    # only rows n-1..n+1 are read, so neither march goes past them
    uf, ug = (_causal(h, box, (n - 1, n + 1)) for h, box in zip((f, g), boxes))
    w = (
        uf[n] * (ug[n + 1] - ug[n - 1]) - ug[n] * (uf[n + 1] - uf[n - 1])
    ).sum() * cfg.spacing / (2.0 * cfg.dt)
    return as_finite(w, "pairing")


def _pick_slice(f, g, slice_index):
    cfg = f.config
    source_rows = np.zeros(cfg.n_steps, dtype=bool)
    for field in (f, g):
        source_rows |= np.abs(field.values).max(axis=1) > 0
    def ok(n):
        return (
            1 <= n <= cfg.n_steps - 2
            and not source_rows[n - 1 : n + 2].any()
        )
    if slice_index is not None:
        n = as_index(slice_index, "slice index")
        if not ok(n):
            raise InvalidSliceError(
                f"slice {n} touches a source row or the grid edge"
            )
        return n
    mid = cfg.n_steps // 2
    for offset in range(cfg.n_steps):
        for n in (mid + offset, mid - offset):
            if ok(n):
                return n
    raise InvalidSliceError("no source-free slice exists on this grid")


def solve_cauchy(data: CauchyData):
    """March initial data to the whole grid: the second-order Taylor start
    (half a source-free step from the slice, +- dt dpsi), then leapfrog."""
    cfg = _check(CauchyData, data).config
    step, _ = _stencil(cfg)
    psi = _grid(cfg)
    n0 = data.slice_index
    psi[n0] = data.psi
    half = 0.5 * step(data.psi, None, np.empty(cfg.n_x))
    kick = cfg.dt * data.dpsi
    if n0 + 1 < cfg.n_steps:
        np.add(half, kick, out=psi[n0 + 1])
    if n0 >= 1:
        np.subtract(half, kick, out=psi[n0 - 1])
    _march(psi, step, n0 + 1, True)
    _march(psi, step, n0 - 1, False)
    return _field(cfg, psi)


def extract_cauchy(field: LatticeField, slice_index):
    """Read (psi, dpsi) off a solution with the centered time derivative."""
    n = as_index(slice_index, "slice index")
    cfg = _check(LatticeField, field).config
    if not 1 <= n <= cfg.n_steps - 2:
        raise ValidationError("need interior slice for the centered derivative")
    psi = field.values[n]
    dpsi = (field.values[n + 1] - field.values[n - 1]) / (2.0 * cfg.dt)
    return CauchyData(cfg, n, psi, dpsi)


def _smoothstep(u):
    # quintic transition: C^2 at both ends, monotone
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def slice_compress(data: CauchyData, window):
    """Compress a solution into a source supported in a time window.

    chi drops smoothly from 1 (past of the window) to 0 (future of it);
    the returned source is the discrete wave operator applied to chi times
    the solution through `data`.  Its causal solution reproduces the
    original solution exactly up to roundoff, which is verified before
    returning.
    """
    cfg = _check(CauchyData, data).config
    try:
        n_lo, n_hi = window
    except (TypeError, ValueError):
        raise ValidationError(f"window must be a pair of time steps, got {window!r}") from None
    n_lo, n_hi = as_index(n_lo, "window start"), as_index(n_hi, "window end")
    if n_hi - n_lo < 4:
        raise WindowTooThinError(
            f"window [{n_lo}, {n_hi}] has fewer than 4 steps"
        )
    if n_lo < 2 or n_hi > cfg.n_steps - 3:
        raise ValidationError("window must sit strictly inside the grid")
    psi = solve_cauchy(data)
    steps = np.arange(cfg.n_steps)
    u = (steps - n_lo) / float(n_hi - n_lo)
    chi = 1.0 - _smoothstep(u)
    # before the window chi = 1 on every stencil row, so the source there is
    # P(psi) = 0 exactly and is left at zero rather than computed to roundoff;
    # the windowed grid is left unnamed so it is freed before causal_E runs
    f = _field(cfg, _kg(cfg, chi[:, None] * psi.values, start=n_lo))
    rec = causal_E(f)
    scale = max(psi.norm(), 1e-300)
    resid = float(np.abs(rec.values - psi.values).max()) / scale
    if resid > 1e-8:
        raise InternalInconsistencyError(
            f"window compression failed to reproduce the solution "
            f"(relative error {resid:.3e})"
        )
    return f

