"""catscamp benchmark: one workload, closed loop, one client, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chi-sweep --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` of the working directory, never from
anywhere else.  One op runs at a time and the next starts when it returns.
After set-up (import plus the workload's untimed warm-up) the loop runs ops
for ``--seconds``, and for at least the workload's counter window and 100
ops.  Times are reported in reference seconds: wall time scaled by the
machine's current speed, which a fixed kernel gauges between ops (see
``speed.py``); the raw wall figures are printed on the ``wall`` line.  With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the package's public names are wrapped in spans (see
``tracing.py``) and the last line carries the per-layer metrics instead,
while the spans go to ``perfbench/out/``.  The lines before it report the
environment, the sample counts, ``failed_frac`` and a digest of the results
of the counter window, so two commits can be compared for "results must not
move".

``--setup-only`` times one more set-up in a fresh process; the main run
starts two of them and reports the median of three set-ups as ``setup_s``.
``ops_per_s`` is completed ops over their summed time, so the benchmark's
own output checks and speed samples stay out of it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS/OpenMP thread cap, applied before numpy loads; one thread keeps the
# small dense kernels deterministic and steady on a shared 2-core machine
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREAD_CAP)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd().resolve()
SRC = ROOT / "src"
SETUP_SAMPLES = 3
# p90 needs at least 10 ops beyond it, so a run makes at least 100 ops
MIN_OPS = 100
SETUP_TIMEOUT_S = 60

E2E_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def import_package():
    """Import catscamp from ./src; exit non-zero if this checkout lacks it."""
    if not (SRC / "catscamp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/catscamp under {ROOT}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import catscamp

    if Path(catscamp.__file__).resolve().parent != (SRC / "catscamp").resolve():
        sys.exit(f"perfbench: imported catscamp from {catscamp.__file__}, not {SRC}")
    import workloads  # the script's own directory is first on sys.path

    return workloads


def set_up(name: str, seed: int):
    """Import the package and run the workload's warm-up; returns
    (workload, speed clock, wall seconds, reference seconds, warm-up failure
    or None).  The clock starts once numpy is in; its first sample scales
    the import."""
    begin = time.perf_counter()
    workloads = import_package()
    import speed

    clock = speed.SpeedClock()
    workload = workloads.WORKLOADS[name](seed)
    failure = workload.warm_up(clock)
    end = time.perf_counter()
    clock.sample()
    return (workload, clock) + clock.split(begin, end) + (failure,)


def extra_setup(name: str, seed: int):
    """One set-up in a fresh interpreter; returns (wall seconds, reference
    seconds, failure)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        return None, None, f"set-up process exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["wall_s"], out["setup_s"], out["failure"]


def measure(workload, seconds: float, tracer, clock):
    """Closed loop until ``seconds`` have passed, the counter window is full
    and ``MIN_OPS`` ops are done; returns (outcomes, elapsed wall seconds)."""
    outcomes = []
    workload.start(tracer, clock)
    try:
        begin = time.perf_counter()
        for item in workload.items():
            try:
                outcomes += workload.run(item, tracer)
            except Exception as exc:  # an op that raises is a failed op
                outcomes.append(None)
                print(f"op {len(outcomes) - 1} raised {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            elapsed = time.perf_counter() - begin
            if elapsed >= seconds and len(outcomes) >= max(workload.window, MIN_OPS):
                clock.sample()  # closes the last op's interval
                return outcomes, elapsed
    finally:
        workload.stop()


def op_times(outcomes, clock):
    """(wall seconds, reference seconds) per op; None for an op that raised."""
    return [clock.split(o.start, o.end) if o else None for o in outcomes]


def percentile(values, q):
    """Linear-interpolation percentile of a non-empty list."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def digest(outcomes) -> str:
    text = "\n".join(o.record if o else "<raised>" for o in outcomes)
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


def layer_metrics(tracer, outcomes, times, window):
    """Per-op layer numbers: reference times over every traced op, counters
    over the counter window (so they repeat exactly for a seed)."""
    import tracing

    n_ops = len(outcomes)
    self_s = tracer.self_seconds({op: t[1] / t[0] for op, t in enumerate(times)
                                  if t and t[0] > 0})
    ms = {}
    for span in tracing.SPAN_TARGETS:
        ms[f"{span}.self_ms"] = 1e3 * self_s.get(span, 0.0) / n_ops
    ms["fock.beamsplitter_fock.cold_ms"] = 1e3 * self_s.get(tracing.BS_COLD, 0.0) / n_ops
    ms["fock.beamsplitter_fock.warm_ms"] = 1e3 * self_s.get(tracing.BS_WARM, 0.0) / n_ops

    head = outcomes[:window]
    counters = tracer.op_counters(range(window))

    def per_op(key):
        return sum(c.get(key, 0) for c in counters) / window

    dims = [o.fock_dim for o in head if o and o.fock_dim]
    gaps = [o.engine_gap for o in head if o and o.engine_gap is not None]
    bs_calls = [c.get("fock.beamsplitter_fock.calls", 0) for c in counters]
    counts = {
        "phasespace.overlap.calls": per_op("phasespace.overlap.calls"),
        "phasespace.gauss_integrals": per_op("phasespace.gauss_integrals"),
        "phasespace.max_terms": max((c.get("phasespace.max_terms", 0) for c in counters),
                                    default=0),
        "optimize.fidelity_evals": per_op("optimize.fidelity_evals"),
        "fock.beamsplitter_fock.calls": per_op("fock.beamsplitter_fock.calls"),
        "fock.stage2_ensemble": sum(max(n - 1, 0) for n in bs_calls) / window,
        "fock.squeeze_operator.misses": per_op("fock.squeeze_operator.misses"),
        "fock.dim.mean": sum(dims) / len(dims) if dims else 0,
        "fock.dim.max": max(dims, default=0),
    }
    metrics = {name: {"value": value, "unit": "ms"} for name, value in ms.items()}
    metrics.update({name: {"value": value, "unit": "count"} for name, value in counts.items()})
    metrics["pipeline.engine_gap_max"] = {"value": max(gaps, default=0.0), "unit": "abs"}
    ref_total = sum(t[1] for t in times if t)
    metrics["trace.ops_per_s"] = {"value": n_ops / ref_total, "unit": "1/s"}
    return metrics


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_cap": THREAD_CAP,
        "thread_vars": list(THREAD_VARS),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("chi-sweep", "oracle-cold", "stage-warm"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it as JSON and exit")
    args = parser.parse_args(argv)

    workload, clock, setup_wall, setup_main, failure = set_up(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_main, "wall_s": setup_wall, "failure": failure}))
        return 0

    tracer = None
    if args.trace:
        import catscamp
        import tracing

        tracer = tracing.Tracer({"pipeline": catscamp.pipeline, "sweeps": catscamp.sweeps,
                                 "fock": catscamp.fock})
        tracer.install()
        # a span of its own keeps the speed samples taken inside a sweep out
        # of the sweep's self time
        clock.tick = tracer.wrap(tracing.SPEED_SAMPLE, clock.tick)
    try:
        outcomes, elapsed = measure(workload, args.seconds, tracer, clock)
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    op_failures = [o.error if o else "raised" for o in outcomes if o is None or o.error]
    setup_failures = [f"warm-up: {failure}"] if failure else []
    setups, setup_walls = [setup_main], [setup_wall]
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            wall, seconds, extra_failure = extra_setup(args.workload, args.seed)
            if extra_failure:
                setup_failures.append(f"set-up: {extra_failure}")
            if seconds is not None:
                setups.append(seconds)
                setup_walls.append(wall)
    for text in (setup_failures + op_failures)[:5]:
        print(f"check failed: {text}", file=sys.stderr)

    times = op_times(outcomes, clock)
    walls = [t[0] for t in times if t] or [elapsed]
    latencies = [t[1] for t in times if t] or [elapsed]
    n_ops = len(outcomes)
    print("env " + json.dumps(environment()))
    print(f"workload {args.workload} seed={args.seed} trace={args.trace} ops={n_ops} "
          f"elapsed_s={elapsed:.3f} latency_samples={len(latencies)} "
          f"beyond_p90={sum(1 for x in latencies if x > percentile(latencies, 0.9))} "
          f"setup_samples={[round(s, 4) for s in setups]}")
    print(f"wall ops_per_s={len(walls) / sum(walls):.4f} latency_p50_ms={1e3 * percentile(walls, 0.5):.3f} "
          f"latency_p90_ms={1e3 * percentile(walls, 0.9):.3f} "
          f"setup_s={statistics.median(setup_walls):.4f} "
          f"speed_factor_median={statistics.median(clock.factors):.4f} "
          f"speed_samples={len(clock.factors)}")
    print(f"failed_frac {len(op_failures) / n_ops:.6g} ({len(op_failures)}/{n_ops})")
    print(f"digest {args.workload} seed={args.seed} window={workload.window} "
          f"sha256={digest(outcomes[:workload.window])}")

    if tracer is not None:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans {len(tracer.spans)} -> {path.relative_to(ROOT)}")
        metrics = layer_metrics(tracer, outcomes, times, workload.window)
        print("counters " + json.dumps({k: v["value"] for k, v in metrics.items()
                                        if v["unit"] == "count"}, sort_keys=True))
    else:
        values = {
            "ops_per_s": len(latencies) / sum(latencies),
            "latency_p50_ms": 1e3 * percentile(latencies, 0.5),
            "latency_p90_ms": 1e3 * percentile(latencies, 0.9),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in values.items()}

    print(json.dumps({"correct": not (op_failures or setup_failures), "attempted": n_ops,
                      "failed": len(op_failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
