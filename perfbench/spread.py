"""Repeat the benchmark over seeds and report medians, quartiles and spreads.

Run from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 --seconds 30
    python3 perfbench/spread.py --seeds 1-10 --seconds 30 --baseline perfbench/baseline.json

For each workload it makes one untraced run per seed, then two traced runs
on the first seed.  It prints, per end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median; it checks that every run prints exactly the metrics,
with their units, that ``BENCHMARK.json`` declares, and that the traced
runs repeat their counters and result digest exactly; and it prints the
tracing overhead, 1 - traced ops/s over the untraced median, and the
per-layer table of the first traced run.  A spread wider than a third of
the metric's bound is flagged ``WIDE``.  ``--baseline`` writes all of it,
with the medians of the raw wall figures, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("chi-sweep", "oracle-cold", "stage-warm")
RUN_TIMEOUT_S = 180
NOTE = ("This file is the benchmark's reference. The ROADMAP's 66 ms / 26 ms / 83 ms "
        "chi / Fock / both run times are scratch figures from a different machine. "
        "Times are reference times (wall time scaled by the speed gauge in speed.py); "
        "wall_medians holds the raw wall figures of the same runs.")


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def declared(trace: int) -> list:
    """The metrics ``BENCHMARK.json`` declares for a run."""
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def run_once(workload: str, seed: int, seconds: float, trace: int):
    """One benchmark process; returns (result dict, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != {m["name"]: m["unit"] for m in declared(trace)}:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: metrics {units} "
                           f"differ from BENCHMARK.json")
    return result, lines


def line_with(lines, prefix: str) -> str:
    return next(line for line in lines if line.startswith(prefix))


def wall_figures(lines) -> dict:
    """The ``wall key=value ...`` line as numbers."""
    pairs = (item.split("=") for item in line_with(lines, "wall ").split()[1:])
    return {key: float(value) for key, value in pairs}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--baseline", help="write the summary to this JSON file")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    summary = {"note": NOTE, "baseline_seed": seeds[0], "seeds": seeds,
               "seconds": args.seconds, "workloads": {}}
    all_ok = True
    bounds = {m["name"]: m["bound"] for m in declared(0)}
    for workload in args.workloads.split(","):
        per_metric, walls = {}, {}
        correct = True
        for seed in seeds:
            result, lines = run_once(workload, seed, args.seconds, 0)
            correct &= result["correct"] and result["failed"] == 0
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
            for name, value in wall_figures(lines).items():
                walls.setdefault(name, []).append(value)
            summary.setdefault("env", json.loads(line_with(lines, "env ")[4:]))
        stats = {name: summarize(values) for name, values in per_metric.items()}

        traced = [run_once(workload, seeds[0], args.seconds, 1) for _ in range(2)]
        (layers, lines_a), (_, lines_b) = traced
        counters_a, counters_b = (line_with(lines, "counters ") for lines in (lines_a, lines_b))
        digest_a, digest_b = (line_with(lines, "digest ") for lines in (lines_a, lines_b))
        repeat = counters_a == counters_b and digest_a == digest_b
        overhead = 1.0 - layers["metrics"]["trace.ops_per_s"]["value"] / \
            stats["ops_per_s"]["median"]
        all_ok &= correct and repeat

        print(f"== {workload}: {len(seeds)} seeds, correct={correct}, "
              f"counters+digest repeat={repeat}, tracing overhead={overhead:+.2%}")
        for name, st in stats.items():
            bound = bounds[name]
            flag = "WIDE" if st["spread"] > bound / 3 else "ok"
            print(f"  {name:16s} median {st['median']:12.5g}  q1 {st['q1']:12.5g}  "
                  f"q3 {st['q3']:12.5g}  spread {st['spread']:.4f} (bound {bound}, {flag})  "
                  f"[{' '.join(f'{v:.4g}' for v in st['values'])}]")
        print("  layers " + " ".join(f"{name}={m['value']:.4g}"
                                     for name, m in layers["metrics"].items()))
        summary["workloads"][workload] = {
            "correct": correct,
            "end_to_end": stats,
            "wall_medians": {name: statistics.median(v) for name, v in walls.items()},
            "traced_seed": seeds[0],
            "counters_repeat": repeat,
            "digest": digest_a.split("sha256=")[1],
            "tracing_overhead": overhead,
            "per_layer": {name: m["value"] for name, m in layers["metrics"].items()},
        }

    if args.baseline:
        Path(args.baseline).write_text(json.dumps(summary, indent=1) + "\n", encoding="ascii")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
