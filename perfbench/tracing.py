"""The benchmark's view of ccr_lab: one namespace of public entry points,
plain or traced, and the per-layer metrics computed from the spans.

Workload code calls ccr_lab only through a namespace built here.  The plain
namespace holds the library's own functions, so untraced passes pay nothing.
The traced namespace wraps each one: a call records a span (name, start,
end, parent span, round) and may bump a counter.  Spans are taken at the
benchmark's calls into the library; spans inside the library are not
recorded, so a span's children are only the callbacks the benchmark hands
in, such as the kernel given to stress_energy.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from types import SimpleNamespace

from ccr_lab import (
    ccr_core,
    lattice_propagator,
    minkowski_kernel,
    phase_space,
    quasifree,
    wick_hadamard,
)

NEAR_LIMIT = 4.0  # m sqrt|sigma| at or below this is a "near" Bessel call
LONG_MOMENT = 10  # npoint with at least this many slots is "long"


def _lattice_cells(obj):
    if isinstance(obj, lattice_propagator.LatticeField):
        return obj.values.size
    if isinstance(obj, lattice_propagator.CauchyData):
        return obj.psi.size + obj.dpsi.size
    return 0


def _absorbing(args):
    for a in args:
        cfg = getattr(a, "config", None)
        if cfg is not None and cfg.boundary != "periodic":
            return True
    return False


def _lattice_label(args, kwargs):
    return "absorbing" if _absorbing(args) else None


def _pair_label(args, kwargs):
    method = kwargs.get("method", args[2] if len(args) > 2 else "volume")
    return f"{method}.absorbing" if _absorbing(args) else method


def _lattice_counts(tracer, args, kwargs, result):
    cells_in = sum(_lattice_cells(a) for a in args)
    cells_out = _lattice_cells(result)
    tracer.add("lattice_propagator.cells", cells_out)
    tracer.add("lattice_propagator.computed_bytes", 8 * (cells_in + cells_out))


def _bessel_label(args, kwargs):
    p, params = args[0], args[1]
    return "near" if params.m * math.sqrt(abs(p.sigma)) <= NEAR_LIMIT else "far"


def _entry(span, fn, label=None, count=None):
    return (span, fn, label, count)


LAT = lattice_propagator
WH = wick_hadamard

# attribute -> (span name, function, label(args, kwargs), count(tracer, args, kwargs, result))
ENTRIES = {
    # ccr_core
    "PairingForm": _entry("ccr_core.PairingForm", ccr_core.PairingForm),
    "normal_form": _entry(
        "ccr_core.normal_form",
        ccr_core.normal_form,
        label=lambda a, k: a[0].mode,
        count=lambda t, a, k, r: t.add("ccr_core.normal_form.terms_out", len(r.terms)),
    ),
    "element_to_text": _entry("ccr_core.element_to_text", ccr_core.element_to_text),
    "element_from_text": _entry("ccr_core.element_from_text", ccr_core.element_from_text),
    # quasifree
    "TwoPointKernel": _entry("quasifree.TwoPointKernel", quasifree.TwoPointKernel),
    "QuasifreeState": _entry("quasifree.QuasifreeState", quasifree.QuasifreeState),
    "npoint": _entry(
        "quasifree.npoint",
        quasifree.npoint,
        label=lambda a, k: "long" if len(a[1]) >= LONG_MOMENT else "short",
    ),
    "evaluate": _entry("quasifree.evaluate", quasifree.evaluate),
    "gram_positivity": _entry(
        "quasifree.gram_positivity",
        quasifree.gram_positivity,
        count=lambda t, a, k, r: t.add("quasifree.gram_positivity.entries", len(a[1]) ** 2),
    ),
    # phase_space
    "lattice_energy_form": _entry("phase_space.lattice_energy_form", phase_space.lattice_energy_form),
    "ground_state_mu": _entry(
        "phase_space.ground_state_mu",
        phase_space.ground_state_mu,
        count=lambda t, a, k, r: t.peak("phase_space.dense_dim", r.shape[0]),
    ),
    "one_particle": _entry("phase_space.one_particle", phase_space.one_particle),
    "purity": _entry("phase_space.purity", phase_space.purity),
    "equivalence_probe": _entry("phase_space.equivalence_probe", phase_space.equivalence_probe),
    "FockRepresentation": _entry("phase_space.FockRepresentation", phase_space.FockRepresentation),
    "vacuum_npoint": _entry(
        "phase_space.vacuum_npoint", phase_space.FockRepresentation.vacuum_npoint
    ),
    # lattice_propagator
    "fundamental": _entry("lattice_propagator.fundamental", LAT.fundamental, _lattice_label, _lattice_counts),
    "causal_E": _entry("lattice_propagator.causal_E", LAT.causal_E, _lattice_label, _lattice_counts),
    "apply_kg": _entry("lattice_propagator.apply_kg", LAT.apply_kg, _lattice_label, _lattice_counts),
    "pair_E": _entry("lattice_propagator.pair_E", LAT.pair_E, _pair_label, _lattice_counts),
    "extract_cauchy": _entry("lattice_propagator.extract_cauchy", LAT.extract_cauchy, _lattice_label, _lattice_counts),
    "solve_cauchy": _entry("lattice_propagator.solve_cauchy", LAT.solve_cauchy, _lattice_label, _lattice_counts),
    "slice_compress": _entry("lattice_propagator.slice_compress", LAT.slice_compress, _lattice_label, _lattice_counts),
    # minkowski_kernel
    "cross_check_grid": _entry("minkowski_kernel.cross_check_grid", minkowski_kernel.cross_check_grid),
    "omega2_bessel": _entry("minkowski_kernel.omega2_bessel", minkowski_kernel.omega2_bessel, _bessel_label),
    "omega2_fourier": _entry("minkowski_kernel.omega2_fourier", minkowski_kernel.omega2_fourier),
    "remainder_w": _entry("minkowski_kernel.remainder_w", minkowski_kernel.remainder_w),
    # wick_hadamard, symbolic
    "ordering_kernel": _entry(
        "wick_hadamard.OrderingKernel.from_symmetric_part", WH.OrderingKernel.from_symmetric_part
    ),
    "state_ordering_kernel": _entry(
        "wick_hadamard.OrderingKernel.from_state_kernel", WH.OrderingKernel.from_state_kernel
    ),
    "difference_kernel": _entry(
        "wick_hadamard.DifferenceKernel.from_orderings", WH.DifferenceKernel.from_orderings
    ),
    "normal_order": _entry("wick_hadamard.normal_order", WH.normal_order),
    "unorder": _entry("wick_hadamard.unorder", WH.unorder),
    "wick_product": _entry("wick_hadamard.wick_product", WH.wick_product),
    "word_tensor": _entry("wick_hadamard.word_tensor", WH.word_tensor),
    "alpha_map": _entry("wick_hadamard.alpha_map", WH.alpha_map),
    "tensor_to_json": _entry(
        "wick_hadamard.tensor_to_json",
        WH.tensor_to_json,
        count=lambda t, a, k, r: t.add("wick_hadamard.tensor_json.bytes", len(r)),
    ),
    "tensor_from_json": _entry("wick_hadamard.tensor_from_json", WH.tensor_from_json),
    # wick_hadamard, numeric
    "TwoPointTable": _entry("wick_hadamard.TwoPointTable", WH.TwoPointTable),
    "stress_energy": _entry("wick_hadamard.stress_energy", WH.stress_energy),
    "phi2_H_expectation": _entry("wick_hadamard.phi2_H_expectation", WH.phi2_H_expectation),
}

KERNEL_SPAN = "wick_hadamard.stress_energy.kernel"


def plain_library():
    """The public entry points themselves; `stress_kernel` passes the table
    through unchanged."""
    lib = SimpleNamespace(**{name: e[1] for name, e in ENTRIES.items()})
    lib.stress_kernel = lambda table: table
    return lib


class Tracer:
    """In-memory span and counter store for one traced run.

    Records are tuples, appended when a span ends, so the collector's
    passes over a growing trace stay cheap."""

    def __init__(self):
        self.spans = []  # (id, parent, round, workload, name, start, end, error)
        self.counters = []  # (round, workload, name, value, "sum" | "max")
        self.round = None
        self.workload = None
        self._next_id = 0
        self._stack = []

    def add(self, name, value):
        self.counters.append((self.round, self.workload, name, value, "sum"))

    def peak(self, name, value):
        self.counters.append((self.round, self.workload, name, value, "max"))

    def wrap(self, span, fn, label=None, count=None):
        def traced(*args, **kwargs):
            name = span
            if label is not None:
                suffix = label(args, kwargs)
                if suffix is not None:
                    name = f"{span}.{suffix}"
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(
                    (sid, parent, self.round, self.workload, name, start, end, error)
                )
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def library(self):
        lib = SimpleNamespace(
            **{name: self.wrap(*e) for name, e in ENTRIES.items()}
        )
        lib.stress_kernel = self._kernel
        return lib

    def _kernel(self, table):
        return _TracedKernel(table, self.wrap(KERNEL_SPAN, table))

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(
                {
                    "span_fields": ["id", "parent", "round", "workload", "name",
                                    "start_s", "end_s", "error"],
                    "spans": sorted(self.spans),
                    "counter_fields": ["round", "workload", "name", "value", "merge"],
                    "counters": self.counters,
                },
                fh,
            )


class _TracedKernel:
    """A kernel callback that records a span per evaluation and keeps the
    table's grid spacing visible to stress_energy's resolution guard."""

    def __init__(self, table, call):
        self.grid_spacing = getattr(table, "grid_spacing", None)
        self._call = call

    def __call__(self, x, y):
        return self._call(x, y)


class RoundStats:
    """Span and counter totals of one traced round (one traced pass of
    every workload)."""

    def __init__(self, spans, counters):
        self.count = defaultdict(int)
        self.busy = defaultdict(float)
        self.errors = defaultdict(int)
        self.child_time = defaultdict(float)  # parent span name -> child time
        names = {rec[0]: rec[4] for rec in spans}
        for _, parent, _, _, name, start, end, error in spans:
            self.count[name] += 1
            self.busy[name] += end - start
            if error is not None:
                self.errors[name] += 1
            if parent is not None:
                self.child_time[names[parent]] += end - start
        self.counter = defaultdict(float)
        for _, _, name, value, merge in counters:
            if merge == "max":
                self.counter[name] = max(self.counter[name], value)
            else:
                self.counter[name] += value

    def busy_of(self, *names):
        return sum(self.busy[n] for n in names)

    def calls_of(self, *names):
        return sum(self.count[n] for n in names)

    def busy_suffix(self, prefix, suffix):
        return sum(
            t for n, t in self.busy.items() if n.startswith(prefix) and n.endswith(suffix)
        )


def _busy(*names):
    return lambda s: s.busy_of(*names)


def _calls(*names):
    return lambda s: s.calls_of(*names)


def _counter(name):
    return lambda s: s.counter[name]


def _per_call(child, parent):
    return lambda s: s.calls_of(child) / s.calls_of(parent) if s.calls_of(parent) else 0.0


CC, QF, PS, LP, MK = (
    "ccr_core.", "quasifree.", "phase_space.", "lattice_propagator.", "minkowski_kernel.",
)
WHS = "wick_hadamard."

# (metric name, unit, value from a RoundStats); every metric reads lower-is-better
LAYER_METRICS = [
    ("ccr_core.normal_form.exact.busy_s", "s", _busy(CC + "normal_form.exact")),
    ("ccr_core.normal_form.float.busy_s", "s", _busy(CC + "normal_form.float")),
    ("ccr_core.normal_form.calls", "count", _calls(CC + "normal_form.exact", CC + "normal_form.float")),
    ("ccr_core.normal_form.terms_out", "count", _counter(CC + "normal_form.terms_out")),
    ("ccr_core.text_roundtrip.busy_s", "s", _busy(CC + "element_to_text", CC + "element_from_text")),
    ("quasifree.npoint.long.calls", "count", _calls(QF + "npoint.long")),
    ("quasifree.npoint.long.busy_s", "s", _busy(QF + "npoint.long")),
    ("quasifree.npoint.short.calls", "count", _calls(QF + "npoint.short")),
    ("quasifree.npoint.short.busy_s", "s", _busy(QF + "npoint.short")),
    ("quasifree.evaluate.busy_s", "s", _busy(QF + "evaluate")),
    ("quasifree.gram_positivity.calls", "count", _calls(QF + "gram_positivity")),
    ("quasifree.gram_positivity.busy_s", "s", _busy(QF + "gram_positivity")),
    ("quasifree.gram_positivity.entries", "count", _counter(QF + "gram_positivity.entries")),
    ("phase_space.ground_state_mu.busy_s", "s", _busy(PS + "ground_state_mu")),
    ("phase_space.one_particle.busy_s", "s", _busy(PS + "one_particle")),
    ("phase_space.purity.busy_s", "s", _busy(PS + "purity")),
    ("phase_space.equivalence_probe.busy_s", "s", _busy(PS + "equivalence_probe")),
    ("phase_space.vacuum_npoint.calls", "count", _calls(PS + "vacuum_npoint")),
    ("phase_space.vacuum_npoint.busy_s", "s", _busy(PS + "vacuum_npoint")),
    ("phase_space.dense_dim", "count", _counter(PS + "dense_dim")),
    ("lattice_propagator.causal_E.calls", "count", _calls(LP + "causal_E")),
    ("lattice_propagator.causal_E.busy_s", "s", _busy(LP + "causal_E")),
    ("lattice_propagator.pair_E.volume.busy_s", "s", _busy(LP + "pair_E.volume")),
    ("lattice_propagator.pair_E.surface.busy_s", "s", _busy(LP + "pair_E.surface")),
    ("lattice_propagator.solve_cauchy.busy_s", "s", _busy(LP + "solve_cauchy")),
    ("lattice_propagator.slice_compress.busy_s", "s", _busy(LP + "slice_compress")),
    ("lattice_propagator.apply_kg.busy_s", "s", _busy(LP + "apply_kg")),
    ("lattice_propagator.absorbing.busy_s", "s", lambda s: s.busy_suffix(LP, ".absorbing")),
    ("lattice_propagator.cells", "count", _counter(LP + "cells")),
    ("lattice_propagator.computed_bytes", "B", _counter(LP + "computed_bytes")),
    ("minkowski_kernel.omega2_bessel.near.busy_s", "s", _busy(MK + "omega2_bessel.near")),
    ("minkowski_kernel.omega2_bessel.far.busy_s", "s", _busy(MK + "omega2_bessel.far")),
    ("minkowski_kernel.omega2_bessel.calls", "count", _calls(MK + "omega2_bessel.near", MK + "omega2_bessel.far")),
    ("minkowski_kernel.omega2_fourier.calls", "count", _calls(MK + "omega2_fourier")),
    ("minkowski_kernel.omega2_fourier.busy_s", "s", _busy(MK + "omega2_fourier")),
    ("minkowski_kernel.omega2_fourier.failed", "count", lambda s: s.errors[MK + "omega2_fourier"]),
    ("minkowski_kernel.remainder_w.calls", "count", _calls(MK + "remainder_w")),
    ("minkowski_kernel.remainder_w.busy_s", "s", _busy(MK + "remainder_w")),
    ("wick_hadamard.normal_order.busy_s", "s", _busy(WHS + "normal_order")),
    ("wick_hadamard.unorder.busy_s", "s", _busy(WHS + "unorder")),
    ("wick_hadamard.wick_product.calls", "count", _calls(WHS + "wick_product")),
    ("wick_hadamard.wick_product.busy_s", "s", _busy(WHS + "wick_product")),
    ("wick_hadamard.alpha_map.busy_s", "s", _busy(WHS + "alpha_map")),
    ("wick_hadamard.tensor_json.busy_s", "s", _busy(WHS + "tensor_to_json", WHS + "tensor_from_json")),
    ("wick_hadamard.tensor_json.bytes", "B", _counter(WHS + "tensor_json.bytes")),
    ("wick_hadamard.TwoPointTable.busy_s", "s", _busy(WHS + "TwoPointTable")),
    ("wick_hadamard.stress_energy.calls", "count", _calls(WHS + "stress_energy")),
    ("wick_hadamard.stress_energy.busy_s", "s", _busy(WHS + "stress_energy")),
    (
        "wick_hadamard.stress_energy.self_s",
        "s",
        lambda s: s.busy[WHS + "stress_energy"] - s.child_time[WHS + "stress_energy"],
    ),
    ("wick_hadamard.stress_energy.kernel_calls", "count", _per_call(KERNEL_SPAN, WHS + "stress_energy")),
    ("wick_hadamard.phi2_H_expectation.busy_s", "s", _busy(WHS + "phi2_H_expectation")),
]

OVERHEAD_METRIC = "trace.overhead_s"


def layer_metrics(tracer):
    """Every per-layer metric at its lowest over the traced rounds: for a
    time, the round least slowed by other tenants of the machine; a count
    is the same in every round."""
    spans = defaultdict(list)
    for rec in tracer.spans:
        spans[rec[2]].append(rec)
    counters = defaultdict(list)
    for rec in tracer.counters:
        counters[rec[0]].append(rec)
    rounds = [RoundStats(spans[r], counters[r]) for r in sorted(spans)]
    out = {}
    for name, unit, value in LAYER_METRICS:
        out[name] = {"value": min(value(s) for s in rounds), "unit": unit}
    return out
