"""fracbesov benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 fracbench/run.py --workload ex51-calibrate --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each invocation is one fresh process running one workload as a closed loop
with a single caller: an operation starts only after the previous one has
returned, and only if it is expected (from the median operation so far) to
end within ``--seconds``; at least one operation runs.  Every operation's
output is checked after the timed loop.

OpenBLAS, OpenMP and MKL are pinned to one thread (BLAS_THREAD_VARS, set
before numpy is imported and inherited by the set-up probes).  At its
default of one thread per core, numpy's OpenBLAS keeps a second thread
spinning beside the main one on a 2-core host; that buys no speed
here and makes every timing depend on whatever else holds a core.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median over SETUP_PROBES fresh interpreters, run one after
  another before the loop, of the time from ``import fracbesov`` until the
  workload's reused objects exist (see setup_probe.py);
* ``op_s`` / ``op_cpu_s``: mean wall / process CPU seconds per operation
  over the loop, the first operation left out as warm-up when more than one
  ran: the inverse of the throughput a caller sees.  CPU includes every
  thread of the process, so it shows a gain bought with threads.  A mean,
  not a median: the host's speed swings by up to 2x in phases of 5-20 s,
  and a median over one run jumps to whichever phase held most of it;
* ``peak_rss_mb``: peak resident memory of the workload process over the
  set-up and the warm-up operation, read right after it.  The warm-up's
  input comes from WARMUP_SEED, the same in every run: glibc's heap keeps
  a different amount of freed memory for different input sizes, so a peak
  over seeded inputs moved by up to 43 % between seeds and run lengths.

``--trace 1`` is the separate traced run.  It traces the set-up, then runs
operation 0's input alternately untraced and traced, pair after pair while
the next pair is expected to end within ``--seconds``, and reports the
per-layer metrics of PER_LAYER (counts from the first traced pass, self
times as medians over traced passes) plus ``trace.overhead_ratio``, traced
over untraced median wall time.  Spans are written to
.bench_out/spans-<workload>-<seed>.jsonl.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("ex51-calibrate", "frac-eval", "bl-certify")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WARMUP_SEED = 0

END_TO_END = (
    ("setup_s", "s"),
    ("op_s", "s"),
    ("op_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, better, source).  Sources: ("calls" | "self", span) of one
# traced operation; ("count", counter) of one traced operation;
# ("ratio", counter, counter); ("setup_calls" | "setup_self", span) of the
# traced set-up; ("extra", key) for values measured outside the spans.
PER_LAYER = (
    ("splines.frac_bspline.calls", "count", "lower", ("calls", "splines.frac_bspline")),
    ("splines.frac_bspline.points", "count", "lower", ("count", "splines.frac_bspline.points")),
    ("splines.frac_bspline.self_s", "s", "lower", ("self", "splines.frac_bspline")),
    ("splines.frac_bspline.series_terms", "count", "lower",
     ("count", "splines.frac_bspline.series_terms")),
    ("splines.frac_bspline.distinct_frac_ratio", "ratio", "lower",
     ("ratio", "splines.frac_bspline.distinct_fracs", "splines.frac_bspline.points")),
    ("splines.bspline_natural.points", "count", "lower", ("count", "splines.bspline_natural.points")),
    ("splines.bspline_natural.self_s", "s", "lower", ("self", "splines.bspline_natural")),
    ("splines.bspline_derivative.self_s", "s", "lower", ("self", "splines.bspline_derivative")),
    ("splines.beta_plus.tail_rel_err", "ratio", "lower", ("extra", "tail_rel_err")),
    ("frac_wavelets.psi_frac.points", "count", "lower", ("count", "frac_wavelets.psi_frac.points")),
    ("frac_wavelets.psi_frac.self_s", "s", "lower", ("self", "frac_wavelets.psi_frac")),
    ("frac_wavelets.Psi_combined.self_s", "s", "lower", ("self", "frac_wavelets.Psi_combined")),
    ("frac_wavelets.psi.max_err", "ratio", "lower", ("extra", "psi_max_err")),
    ("frac_wavelets.molecule_check.calls", "count", "lower",
     ("calls", "frac_wavelets.molecule_check")),
    ("frac_wavelets.molecule_check.self_s", "s", "lower", ("self", "frac_wavelets.molecule_check")),
    ("frac_wavelets.molecule_check.fn_points", "count", "lower",
     ("count", "frac_wavelets.molecule_check.fn_points")),
    ("frac_wavelets.molecule_check.distinct_point_ratio", "ratio", "lower",
     ("ratio", "frac_wavelets.molecule_check.distinct_points",
      "frac_wavelets.molecule_check.fn_points")),
    ("frac_wavelets.molecule_check.max_m4_ratio", "ratio", "lower",
     ("count", "frac_wavelets.molecule_check.max_m4_ratio")),
    ("frac_wavelets.calibrate_constants.forward.c0", "factor", "higher", ("extra", "forward.c0")),
    ("frac_wavelets.calibrate_constants.forward.c", "factor", "higher", ("extra", "forward.c")),
    ("frac_wavelets.calibrate_constants.inverse.c0", "factor", "higher", ("extra", "inverse.c0")),
    ("frac_wavelets.calibrate_constants.inverse.c", "factor", "higher", ("extra", "inverse.c")),
    ("battle_lemarie.bl_system.calls", "count", "lower", ("calls", "battle_lemarie.bl_system")),
    ("battle_lemarie.bl_system.self_s", "s", "lower", ("self", "battle_lemarie.bl_system")),
    ("battle_lemarie.wavelet_localized.self_s", "s", "lower",
     ("self", "battle_lemarie.wavelet_localized")),
    ("battle_lemarie.scaling_localized.self_s", "s", "lower",
     ("self", "battle_lemarie.scaling_localized")),
    ("quadrature.panel_rule.nodes", "count", "lower", ("count", "quadrature.panel_rule.nodes")),
    ("quadrature.panel_rule.self_s", "s", "lower", ("self", "quadrature.panel_rule")),
    ("setup.frac_wavelets.wavelet_filter.calls", "count", "lower",
     ("setup_calls", "frac_wavelets.wavelet_filter")),
    ("setup.frac_wavelets.wavelet_filter.self_s", "s", "lower",
     ("setup_self", "frac_wavelets.wavelet_filter")),
    ("setup.splines.beta_star_integer_samples.self_s", "s", "lower",
     ("setup_self", "splines.beta_star_integer_samples")),
    ("setup.specfun.gbinom_row.calls", "count", "lower", ("setup_calls", "specfun.gbinom_row")),
    ("setup.specfun.gbinom_row.self_s", "s", "lower", ("setup_self", "specfun.gbinom_row")),
    ("setup.battle_lemarie.bl_system.calls", "count", "lower",
     ("setup_calls", "battle_lemarie.bl_system")),
    ("setup.battle_lemarie.bl_system.self_s", "s", "lower",
     ("setup_self", "battle_lemarie.bl_system")),
    ("trace.overhead_ratio", "ratio", "lower", ("extra", "overhead_ratio")),
    ("env.openblas_threads", "count", "lower", ("extra", "openblas_threads")),
)


def openblas_threads() -> int:
    """Thread count of numpy's bundled OpenBLAS, or -1 if it cannot be read."""
    import numpy

    libdir = os.path.dirname(numpy.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return -1


def setup_probe_seconds(workload: str) -> float:
    """Set-up time of ``workload`` in a fresh interpreter (see setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload],
        cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(wl, inp):
    """(output or None, wall s, cpu s); an exception is reported and yields None."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        out = wl.run(inp)
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        traceback.print_exc()
        out = None
    return out, time.perf_counter() - w0, time.process_time() - c0


def check_op(wl, inp, out):
    """Check diagnostics, or None if the output failed its check."""
    if out is None:
        return None
    try:
        return wl.check(inp, out)
    except Exception:  # noqa: BLE001 - CheckFailed or a crash in the check
        traceback.print_exc()
        return None


def timed_run(wl, seed: int, seconds: float) -> tuple[dict, int, int]:
    setups = [setup_probe_seconds(wl.name) for _ in range(SETUP_PROBES)]
    wl.setup()
    ops = []
    start = time.perf_counter()
    while not ops or (time.perf_counter() - start
                      + statistics.median(w for _, _, w, _ in ops) <= seconds):
        # operation 0 is the warm-up; its input is the same in every run
        inp = wl.make_input(seed if ops else WARMUP_SEED, len(ops))
        ops.append((inp, *run_op(wl, inp)))
        if len(ops) == 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(check_op(wl, inp, out) is None for inp, out, _, _ in ops)
    # the first operation warms caches; it counts only if it is the only one
    walls = [w for _, _, w, _ in ops[1:] or ops]
    cpus = [c for _, _, _, c in ops[1:] or ops]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.fmean(walls),
        "op_cpu_s": statistics.fmean(cpus),
        "peak_rss_mb": rss_mb,
    }
    print(f"# set-up probes (s): {' '.join(f'{s:.4f}' for s in setups)}")
    print(f"# operations: {len(ops)}, counted {len(walls)}, wall s min/median/mean/max: "
          f"{min(walls):.4f} / {statistics.median(walls):.4f} / {metrics['op_s']:.4f} / "
          f"{max(walls):.4f}")
    return metrics, len(ops), failed


def traced_run(wl, seed: int, seconds: float, ref: dict) -> tuple[dict, int, int]:
    import spans
    import workloads

    tracer = spans.Tracer()
    tracer.install()
    tracer.op = "setup"
    try:
        wl.setup()
    finally:
        tracer.op = None
        tracer.restore()

    inp = wl.make_input(seed, 0)
    plain, traced, outs = [], [], []
    start = time.perf_counter()
    while not traced or (time.perf_counter() - start
                         + statistics.median(plain) + statistics.median(traced) <= seconds):
        out, wall, _ = run_op(wl, inp)
        plain.append(wall)
        outs.append(out)
        tracer.install()
        tracer.op = f"op{len(traced)}"
        try:
            out, wall, _ = run_op(wl, inp)
        finally:
            tracer.op = None
            tracer.restore()
        traced.append(wall)
        outs.append(out)

    diags = [check_op(wl, inp, out) for out in outs]
    failed = sum(d is None for d in diags)

    setup_stats, _ = tracer.phase("setup")
    op_stats = [tracer.phase(f"op{k}")[0] for k in range(len(traced))]
    _, counts = tracer.phase("op0")
    for k in range(1, len(traced)):
        if tracer.phase(f"op{k}")[1] != counts:
            print(f"# warning: counters of traced pass {k} differ from pass 0", file=sys.stderr)

    first = next((d for d in diags if d is not None), {})
    extra = {
        "tail_rel_err": workloads.tail_rel_err(ref),
        "overhead_ratio": statistics.median(traced) / statistics.median(plain),
        "openblas_threads": openblas_threads(),
        "psi_max_err": first.get("max_err", 0.0),
    }
    good = next((o for o in outs if o is not None), None)
    if wl.name == "ex51-calibrate" and good is not None:
        for set_name, (c0, c) in good.items():
            extra[f"{set_name}.c0"], extra[f"{set_name}.c"] = c0, c

    def value(source):
        kind = source[0]
        if kind == "calls":
            return op_stats[0].get(source[1], (0, 0.0))[0]
        if kind == "self":
            return statistics.median(s.get(source[1], (0, 0.0))[1] for s in op_stats)
        if kind == "count":
            return counts.get(source[1], 0)
        if kind == "ratio":
            den = counts.get(source[2], 0)
            return counts.get(source[1], 0) / den if den else 0.0
        if kind == "setup_calls":
            return setup_stats.get(source[1], (0, 0.0))[0]
        if kind == "setup_self":
            return setup_stats.get(source[1], (0, 0.0))[1]
        return extra.get(source[1], 0.0)

    metrics = {name: value(src) for name, _, _, src in PER_LAYER}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{wl.name}-{seed}.jsonl")
    tracer.write(path)
    print(f"# traced passes: {len(traced)}, spans: {len(tracer.spans)} -> {path}")
    return metrics, len(outs), failed


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "fracbesov", "frac_wavelets.py")):
        print(f"fracbench: no fracbesov sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    ref = workloads.load_reference()
    wl = workloads.WORKLOADS[args.workload](ref)
    if args.trace:
        metrics, attempted, failed = traced_run(wl, args.seed, args.seconds, ref)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        metrics, attempted, failed = timed_run(wl, args.seed, args.seconds)
        units = dict(END_TO_END)

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"# attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.6g}")
    print(f"# openblas_threads {openblas_threads()}, python threads {threading.active_count()}")
    for name, val in metrics.items():
        print(f"{name} {val!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": val, "unit": units[name]} for name, val in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
