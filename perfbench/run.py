"""Benchmark of ccr_lab: one workload per run, closed loop, one caller thread.

    python3 perfbench/run.py --workload gaussian_state --seed 1 --seconds 30 --trace 0

Workloads: gaussian_state, algebra, propagators (see BENCHMARK.json and
perfbench/RATIONALE.md for why each exists and which layers it loads).

A run generates its inputs from the seed, computes every oracle once, then
runs passes back to back for `--seconds`, checking each pass against the
oracles.  With `--trace 0` it prints the end-to-end metrics, its pass and
setup times scaled by yardsticks timed between them (yardstick.py); with
`--trace 1` it runs traced passes of every workload and prints the
per-layer metrics.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.  Details, the environment and the
spans of a traced run go to perfbench/out/.

`--smoke` runs a single reduced-size pass instead of a timed loop.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
OUT = HERE / "out"

WORKLOADS = ("gaussian_state", "algebra", "propagators")
SETUP_PROBES = 5  # fresh processes timed from spawn to their first pass
TAIL_BEYOND = 10  # the tail percentile keeps at least this many passes above it
BLAS_THREADS = "1"  # one caller thread, and BLAS kept to it

END_TO_END_UNITS = {
    "setup_s": "s",
    "pass_p50_s": "s",
    "pass_tail_s": "s",
    "accuracy_digits": "digits",
    "passed_frac": "frac",
    "peak_rss_mb": "MB",
}


def pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_workloads():
    """Put the checkout's ccr_lab and oracles first on the path and import
    the workload modules; exit 2 if the checkout has no ccr_lab."""
    for need in (SRC / "ccr_lab" / "__init__.py", TESTS / "oracles.py"):
        if not need.is_file():
            sys.exit(f"perfbench: {need.relative_to(ROOT)} is missing; run from a ccr_lab checkout")
    sys.path[:0] = [str(SRC), str(TESTS), str(HERE)]
    import ccr_lab

    if Path(ccr_lab.__file__).resolve().parent != SRC / "ccr_lab":
        sys.exit(f"perfbench: imported ccr_lab from {ccr_lab.__file__}, not from this checkout")
    import wl_algebra
    import wl_gaussian_state
    import wl_propagators

    return {
        "gaussian_state": wl_gaussian_state,
        "algebra": wl_algebra,
        "propagators": wl_propagators,
    }


def make_rng(seed, workload, reduced):
    import numpy as np

    return np.random.default_rng([seed, WORKLOADS.index(workload), int(reduced)])


def set_up(mod, name, seed, reduced, lib):
    """Inputs from the seed, then one reduced-size warm-up pass."""
    inputs = mod.build(make_rng(seed, name, reduced), reduced=reduced)
    mod.run(lib, mod.build(make_rng(seed, name, True), reduced=True))
    return inputs


def setup_probe(args):
    """Child process: set up as a run would, then report the wall clock."""
    pin_threads()
    modules = import_workloads()
    import tracing

    set_up(modules[args.workload], args.workload, args.seed, args.smoke, tracing.plain_library())
    print(json.dumps({"ready": time.time()}))


def setup_probe_command(args):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])


def time_setup(cmd):
    """Wall time from spawning a fresh process to its first pass."""
    start = time.time()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["ready"] - start


def settle():
    """Collect, then move everything set-up made out of the collector's
    view, so pass times do not depend on the size of the oracle data."""
    gc.collect()
    gc.freeze()


def timed_pass(mod, lib, inputs, orc, check, label):
    start = time.perf_counter()
    try:
        out = mod.run(lib, inputs)
        mod.verify(out, inputs, orc, check)
    except Exception as exc:  # a failed pass is counted and named, and the run goes on
        check.raised(label, exc)
    return time.perf_counter() - start


def tail(times):
    """Pass time at the highest percentile with TAIL_BEYOND passes above it,
    never below the median; with too few passes, the slowest pass."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        rank = n
    else:
        rank = max(n - TAIL_BEYOND, (n + 1) // 2)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    nproc = len(os.sched_getaffinity(0))
    threads = blas_threads()
    if threads > nproc:
        sys.exit(f"perfbench: BLAS uses {threads} threads on {nproc} processors")
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((SRC / "ccr_lab").glob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": nproc,
        "seed": seed,
        "src_lines": src_lines,
    }


def blas_threads():
    """Threads OpenBLAS will use, read from the library where it exposes
    the count, else the pinned environment value."""
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def run_end_to_end(args, modules):
    """Timed passes of one workload, each followed by a yardstick, so that
    every pass and setup probe is also read in yardstick units (see
    yardstick.py).  The setup probes are spread over the measuring window,
    between passes."""
    import checks
    import tracing
    import yardstick

    mod = modules[args.workload]
    lib = tracing.plain_library()
    start = time.perf_counter()
    inputs = set_up(mod, args.workload, args.seed, args.smoke, lib)
    own_setup = time.perf_counter() - start
    orc = mod.oracle(inputs)
    yard = yardstick.Yardstick()

    check = checks.Checker()
    times, setups = [], []  # (wall s, index in yard_s of the yardstick timed next)
    probes = 1 if args.smoke else SETUP_PROBES
    probe_cmd = setup_probe_command(args)
    settle()
    yard_s = [yard.time()]
    begin = time.perf_counter()
    probe_due = [begin + (k + 0.5) * args.seconds / probes for k in range(probes)]

    def probe():
        setups.append((time_setup(probe_cmd), len(yard_s)))
        yard_s.append(yard.time())

    while not times or (not args.smoke and time.perf_counter() < begin + args.seconds):
        while probe_due and time.perf_counter() >= probe_due[0]:
            probe_due.pop(0)
            probe()
        times.append((timed_pass(mod, lib, inputs, orc, check, args.workload), len(yard_s)))
        yard_s.append(yard.time())
    for _ in probe_due:
        probe()
    times = [(dt, yardstick.scaled(dt, yard_s, after)) for dt, after in times]
    setups = [(dt, yardstick.scaled(dt, yard_s, after)) for dt, after in setups]

    pass_s = [t for _, t in times]
    tail_s, tail_pct, beyond = tail(pass_s)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(t for _, t in setups),
        "pass_p50_s": statistics.median(pass_s),
        "pass_tail_s": tail_s,
        "accuracy_digits": check.worst_digits,
        "passed_frac": (check.attempted - check.failed) / max(check.attempted, 1),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    wall_s = [w for w, _ in times]
    wall_tail_s, _, _ = tail(wall_s)
    details = {
        "passes": len(times),
        "tail_percentile": tail_pct,
        "passes_beyond_tail": beyond,
        "failed_frac": check.failed / max(check.attempted, 1),
        "least_accurate_check": check.worst_check,
        "yardstick_p50_s": statistics.median(yard_s),
        "wall_setup_s": statistics.median(w for w, _ in setups),
        "wall_pass_p50_s": statistics.median(wall_s),
        "wall_pass_tail_s": wall_tail_s,
        "in_process_setup_s": own_setup,
        "setup_probe_s": setups,
        "yardstick_s": yard_s,
        "pass_s": times,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return check, metrics, details


def run_traced(args, modules):
    """Traced passes of every workload, so that every layer is measured in
    every traced run; the named workload also runs untraced passes, and the
    median over rounds of the traced minus the untraced pass time is the
    tracing overhead."""
    import checks
    import tracing

    plain = tracing.plain_library()
    tracer = tracing.Tracer()
    traced = tracer.library()
    prepared = {}
    for name in WORKLOADS:
        mod = modules[name]
        inputs = set_up(mod, name, args.seed, args.smoke, plain)
        prepared[name] = (mod, inputs, mod.oracle(inputs))

    check = checks.Checker()
    plain_times, traced_times = [], []
    settle()
    deadline = time.perf_counter() + args.seconds
    rounds = 0
    while rounds == 0 or (not args.smoke and time.perf_counter() < deadline):
        tracer.round = rounds
        mod, inputs, orc = prepared[args.workload]
        untraced_first = rounds % 2 == 0
        if untraced_first:
            plain_times.append(timed_pass(mod, plain, inputs, orc, check, args.workload))
        for name in WORKLOADS:
            tracer.workload = name
            mod, inputs, orc = prepared[name]
            dt = timed_pass(mod, traced, inputs, orc, check, f"{name} traced")
            if name == args.workload:
                traced_times.append(dt)
        if not untraced_first:
            mod, inputs, orc = prepared[args.workload]
            plain_times.append(timed_pass(mod, plain, inputs, orc, check, args.workload))
        rounds += 1

    metrics = tracing.layer_metrics(tracer)
    overhead = statistics.median(t - p for t, p in zip(traced_times, plain_times))
    metrics[tracing.OVERHEAD_METRIC] = {"value": overhead, "unit": "s"}
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_path)
    details = {
        "rounds": rounds,
        "traced_pass_p50_s": statistics.median(traced_times),
        "untraced_pass_p50_s": statistics.median(plain_times),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return check, metrics, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one reduced-size pass instead of a timed loop")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args)
        return
    pin_threads()
    modules = import_workloads()
    env = environment(args.seed)
    runner = run_traced if args.trace else run_end_to_end
    check, metrics, details = runner(args, modules)

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": env,
        "details": details,
        "failures": dict(check.failures),
        "metrics": metrics,
    }
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("# environment " + json.dumps(env, sort_keys=True))
    lists = ("pass_s", "setup_probe_s", "yardstick_s")
    print("# details " + json.dumps({k: v for k, v in details.items() if k not in lists}))
    if "tail_percentile" in details:
        print(f"# pass_tail_s is p{details['tail_percentile']:.0f} of {details['passes']} "
              f"passes; times are in yardstick units scaled to seconds, wall times are above")
    for name, failures in sorted(check.failures.items()):
        print(f"# FAILED {name}: {failures}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
