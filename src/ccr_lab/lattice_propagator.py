"""1+1 dimensional Klein-Gordon lattice: leapfrog propagators, the causal
bilinear pairing in volume and surface form, Cauchy solving, and time-window
support compression.

Grid layout: values[n, j] is the field at time step n and site j, with
t = n*dt and x = j*spacing.  The discrete wave operator applies the centered
second difference in time and the nearest-neighbor Laplacian in space; a
solution satisfies it exactly on interior rows, which is what makes the
pairing identities below hold to roundoff rather than to discretization
order.  Every march, the Taylor start of a Cauchy solve and the wave
operator itself are built on one leapfrog step, `_stencil`.  A march steps
one row at a time, as each row needs the two before it, and takes a source
as a block of rows and the grid index of the block's first row: the rows of
the source's support box, a view of the field's values.  The wave operator
reads rows it does not write, so it steps blocks of 32 rows at once, with
the single-row step's operations in the same order and so the same values.
A field finds its nonzero rows and support box in one scan, on first use.

A march runs to the edge of the array it is given: a solution on grid rows
lo..hi is an array of their number, row k of it the grid's row lo + k.  A
causal solution is marched in one array over the rows asked for and the
source rows with one beside them.  The advanced solution is marched into
it; the retarded one only across the source rows, in a band, and subtracted.
Past the source the causal solution is minus the retarded one, and the step
is linear with IEEE rounding symmetric in sign, so marching on from there
gives the retarded march's values negated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    CausalContaminationError,
    InternalInconsistencyError,
    InvalidSliceError,
    ValidationError,
    WindowTooThinError,
    _largest_modulus,
    as_finite,
    as_finite_array,
    as_index,
    dense_zeros,
    float_range,
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

    @cached_property
    def _support(self):
        # made on first use, as the values never change
        return _scan(self.values)

    def support_box(self):
        """(n_min, n_max, j_min, j_max) of the nonzero entries, or None for
        an all-zero field."""
        return self._support[1]

    def norm(self):
        return _largest_modulus(self.values)


def _scan(values, first=0):
    """Which rows of `values` hold a nonzero entry, and the support box
    (n_min, n_max, j_min, j_max) or None, in one scan; row k of `values` is
    the grid's row first + k."""
    live = (values != 0).any(axis=1)
    n = np.flatnonzero(live)
    if n.size == 0:
        return live, None
    cols = np.flatnonzero((values[n[0] : n[-1] + 1] != 0).any(axis=0))
    return live, (first + int(n[0]), first + int(n[-1]), int(cols[0]), int(cols[-1]))


def _check(kind, x):
    """x if it is a kind, else ValidationError."""
    if not isinstance(x, kind):
        raise ValidationError(f"expected a {kind.__name__}, got {x!r}")
    return x


def _field(config, values):
    """Wrap an array computed here under float_range, without a copy."""
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
        # copied and frozen, so a caller's later edit cannot bypass the check
        psi, dpsi = (as_finite_array(a, "Cauchy data").copy() for a in (self.psi, self.dpsi))
        if psi.shape != (self.config.n_x,) or dpsi.shape != (self.config.n_x,):
            raise ValidationError("Cauchy arrays must have one entry per site")
        n = as_index(self.slice_index, "slice index")
        if not 0 <= n < self.config.n_steps:
            raise ValidationError("slice index outside the grid")
        psi.flags.writeable = dpsi.flags.writeable = False
        object.__setattr__(self, "slice_index", n)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "dpsi", dpsi)


def _stencil(config, n_rows=None):
    """The leapfrog step in either time direction, written into `out`:
    out = A row + B (left + right) - back + dt^2 source, with
    A = 2 - dt^2 m^2 - 2 dt^2/a^2 and B = dt^2/a^2.  `row`, `back`, `out`
    and `source` are single rows or, given `n_rows`, blocks of that many rows,
    each row stepped by the same operations in the same order.  `out` must
    not alias `row` or `back`; `back` and `source` may be None for zero.
    Neighbours past the ends wrap (periodic) or read zero (absorbing pad).
    Returns the step and dt^2."""
    dt2 = config.dt * config.dt
    B = dt2 / (config.spacing * config.spacing)
    A = 2.0 - dt2 * config.mass * config.mass - 2.0 * B
    wrap = config.boundary == "periodic"
    shape = (config.n_x,) if n_rows is None else (n_rows, config.n_x)
    scratch = np.empty(shape)
    # column indices of a row, or of every row of a block; not `...`, which
    # makes a row's end entries 0-d arrays, whose sums cost about twice a
    # scalar's and slow the single-row step by a quarter
    lead = (slice(None),) * (len(shape) - 1)
    left, right, inner, first, second, last, before_last = (
        lead + (j,) for j in (np.s_[:-2], np.s_[2:], np.s_[1:-1], 0, 1, -1, -2)
    )

    def step(row, back, out, source=None):
        np.add(row[left], row[right], out=out[inner])
        out[first] = row[second] + (row[last] if wrap else 0.0)
        out[last] = row[before_last] + (row[first] if wrap else 0.0)
        out *= B
        out += np.multiply(row, A, out=scratch)
        if back is not None:
            out -= back
        if source is not None:
            out += np.multiply(source, dt2, out=scratch)
        return out

    return step, dt2


def _march(psi, step, origin, forward, source=None):
    """Leapfrog psi in place from row `origin` to its edge ahead.  A source
    is a pair (block, first): block[k] is added in the step from row
    first + k, and the source is zero on every other row."""
    d = 1 if forward else -1
    block, first = source if source is not None else ((), 0)
    for n in range(origin, psi.shape[0] - 1 if forward else 0, d):
        k = n - first
        step(psi[n], psi[n - d], psi[n + d], block[k] if 0 <= k < len(block) else None)
    return psi


def _source(f: LatticeField, kinds):
    """The rows of a field's support box as a source for _march, checked as
    _source_rows checks them."""
    box = _check(LatticeField, f).support_box()
    return _source_rows(f.config, f.values, box, kinds)


def _source_rows(cfg, values, box, kinds, first=0):
    """Rows box[0]..box[1] of a source as (block, box[0]), a view of
    `values`, whose row k is the grid's row first + k; None for a zero
    source (box None).  The box is checked to vanish on the first and last
    rows and, on a padded grid, to keep the cones named in `kinds` off the
    pad."""
    if box is None:
        return None
    n0, n1, j0, j1 = box
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
    return values[n0 - first : n1 - first + 1], n0


def _solution(cfg, source, which, rows=None):
    """Fundamental solution of a source (block, first) or None on grid rows
    `rows` = (lo, hi) (by default all), as an array whose row k is the grid's
    row lo + k, marched from the block's first row (retarded) or last row
    (advanced) to the array's edge; every row behind that one is zero, and
    the window holds the row just behind it unless it lies wholly behind."""
    lo, hi = rows or (0, cfg.n_steps - 1)
    psi = dense_zeros((hi - lo + 1, cfg.n_x), "lattice grid")
    if source is None:
        return psi
    block, first = source
    step, _ = _stencil(cfg)
    origin = first if which == "retarded" else first + len(block) - 1
    with float_range("lattice field"):
        return _march(psi, step, origin - lo, which == "retarded", (block, first - lo))


def fundamental(f: LatticeField, which="retarded"):
    """Leapfrog fundamental solution with zero data in the far past
    (retarded) or far future (advanced)."""
    if not (isinstance(which, str) and which in ("retarded", "advanced")):
        raise ValidationError("which must be 'retarded' or 'advanced'")
    source = _source(f, (which,))
    return _field(f.config, _solution(f.config, source, which))


def _causal(cfg, source, rows=None):
    """Advanced minus retarded solution of a source (block, first) or None
    on grid rows `rows` = (lo, hi) (by default all), marched in one array
    over those rows and the source's with one row beside them."""
    lo, hi = rows or (0, cfg.n_steps - 1)
    if source is None:
        return _solution(cfg, None, "advanced", rows)
    block, n0 = source
    n1 = n0 + len(block) - 1
    a = min(lo, n0 - 1)
    E = _solution(cfg, source, "advanced", (a, max(hi, n1 + 1)))
    # the retarded solution, zero up to row n0, on rows n0 - 1..n1 + 1 only
    ret = _solution(cfg, source, "retarded", (n0 - 1, n1 + 1))
    step, _ = _stencil(cfg)
    with float_range("lattice field"):
        E[n0 - 1 - a : n1 + 2 - a] -= ret
        # past the source E = -ret, which the march carries on exactly
        _march(E, step, n1 + 1 - a, True)
    return E[lo - a : hi - a + 1]


def causal_E(f: LatticeField):
    """Advanced minus retarded solution of the source."""
    source = _source(f, ("advanced", "retarded"))
    return _field(f.config, _causal(f.config, source))


def apply_kg(field: LatticeField):
    """Discrete Klein-Gordon operator on interior rows: the leapfrog step's
    residual over dt^2.  The first and last rows are zero by convention."""
    return _field(_check(LatticeField, field).config, _kg(field.config, field.values))


_BLOCK = 32  # rows per step in _kg: 256 KB blocks of 1024 sites stay in cache


def _kg(config, v):
    # apply_kg of v, as a writable array, in blocks of n_rows rows; the last
    # block ends at the last interior row and may overlap the one before,
    # whose rows it recomputes to the same values, as out reads only v.
    end = v.shape[0] - 1
    n_rows = min(_BLOCK, end - 1)
    step, dt2 = _stencil(config, n_rows)
    out = np.empty_like(v)
    out[0] = out[end] = 0.0
    with float_range("lattice field"):
        for lo in range(1, end, n_rows):
            lo = min(lo, end - n_rows)
            block = out[lo : lo + n_rows]
            step(v[lo : lo + n_rows], v[lo - 1 : lo + n_rows - 1], block)
            np.subtract(v[lo + 1 : lo + n_rows + 1], block, out=block)
            block /= dt2
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
    if method == "volume" and slice_index is not None:
        raise ValidationError("the volume form reads no slice: slice_index must be None")
    cfg = f.config
    with float_range("pairing"):
        if method == "volume":
            source = _source(g, ("advanced", "retarded"))
            support = f.support_box()
            if support is None:
                return 0.0
            # E is held on f's support rows, the only ones read, and g's source's
            n0, n1 = support[:2]
            Eg = _causal(cfg, source, (n0, n1))
            return float(cfg.spacing * cfg.dt * np.sum(f.values[n0 : n1 + 1] * Eg))
        sources = [_source(h, ("advanced", "retarded")) for h in (f, g)]
        n = _pick_slice(f, g, slice_index)
        # each E is held on rows n-1..n+1, the only ones read, and its source's
        uf, ug = (_causal(cfg, source, (n - 1, n + 1)) for source in sources)
        return float((
            uf[1] * (ug[2] - ug[0]) - ug[1] * (uf[2] - uf[0])
        ).sum() * cfg.spacing / (2.0 * cfg.dt))


def _pick_slice(f, g, slice_index):
    cfg = f.config
    source_rows = f._support[0] | g._support[0]
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
    psi = dense_zeros((cfg.n_steps, cfg.n_x), "lattice grid")
    n0 = data.slice_index
    psi[n0] = data.psi
    with float_range("lattice field"):
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
    with float_range("Cauchy data"):
        dpsi = (field.values[n + 1] - field.values[n - 1]) / (2.0 * cfg.dt)
    return CauchyData(cfg, n, field.values[n], dpsi)


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
    returning: the check runs from the source's rows in the window, and the
    full grid returned is allocated only once it has passed.
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
    # chi = 1 up to row n_lo and 0 from row n_hi on, and a source row reads
    # chi psi on its own row and the two beside it, so the source is zero
    # outside rows n_lo..n_hi: before them it is P(psi) = 0 exactly, after
    # them P(0).  Those rows are formed from chi psi on rows n_lo-1..n_hi+1.
    u = (np.arange(n_lo - 1, n_hi + 2) - n_lo) / float(n_hi - n_lo)
    chi = 1.0 - _smoothstep(u)
    block = _kg(cfg, chi[:, None] * psi.values[n_lo - 1 : n_hi + 2])[1:-1]
    box = _scan(block, n_lo)[1]
    rec = _causal(cfg, _source_rows(cfg, block, box, ("advanced", "retarded"), n_lo))
    scale = max(psi.norm(), 1e-300)
    # the residual, taken in place in the check's own grid
    np.subtract(rec, psi.values, out=rec)
    resid = float(np.abs(rec, out=rec).max()) / scale
    del rec
    if not resid <= 1e-8:  # a NaN residual fails too
        raise InternalInconsistencyError(
            f"window compression failed to reproduce the solution "
            f"(relative error {resid:.3e})"
        )
    source = dense_zeros((cfg.n_steps, cfg.n_x), "lattice grid")
    source[n_lo : n_hi + 1] = block
    return _field(cfg, source)
