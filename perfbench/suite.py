"""Run every workload once per seed, print each run's metrics with their
units, then each end-to-end metric's median and spread over the seeds
(quartile distance over median, as statistics.quantiles gives it).

    python3 perfbench/suite.py --seeds 1
    python3 perfbench/suite.py --workloads monte_carlo --seeds 1 2 3 4 5
    python3 perfbench/suite.py --workloads battery_sweep fine_grid_bound \
        --seeds 1 2 3 4 5 6 7 8 9 10 --trace-seeds 1 --baseline perfbench/baseline.json

All four workloads run by default; BENCHMARK.json gates battery_sweep and
fine_grid_bound only, and its run_seconds is the default run length.

Runs are sequential. The exit code is 1 when any run fails an output check
or cannot run. With --baseline, the medians, spreads, per-layer medians,
failure ledger and run record are written to that file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """(result JSON or None, report lines) of one benchmark run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if done.returncode != 0 or result is None:
        lines += done.stderr.splitlines()
        if result is not None:
            result["correct"] = False
    return result, lines


def summary(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, q3 = median, median
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else 0.0,
        "n": len(values),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=list(workloads.WORKLOADS),
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--trace-seeds", nargs="*", type=int, default=[])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    baseline = {"seeds": args.seeds, "trace_seeds": args.trace_seeds, "workloads": {}}
    ledger = []
    all_correct = True
    for workload in args.workloads:
        values, layer_values, units, runs = {}, {}, {}, []
        for trace, seeds, store in ((0, args.seeds, values), (1, args.trace_seeds, layer_values)):
            for seed in seeds:
                result, lines = run_once(workload, seed, args.seconds, trace)
                print(f"-- {workload} seed {seed} trace {trace}")
                for line in lines:
                    if line.startswith(("metric ", "CHECK FAILED", "error", "Traceback")):
                        print("   " + line)
                    elif line.startswith("ledger "):
                        ledger.append(json.loads(line[7:]))
                    elif line.startswith("record "):
                        baseline["record"] = json.loads(line[7:])
                if result is None or not result["correct"]:
                    all_correct = False
                    continue
                runs.append({"seed": seed, "trace": trace, "attempted": result["attempted"],
                             "failed": result["failed"]})
                for name, metric in result["metrics"].items():
                    store.setdefault(name, []).append(metric["value"])
                    units[name] = metric["unit"]
        print(f"== {workload}")
        for name, series in values.items():
            s = summary(series)
            bound = bounds.get(name)
            flag = "  over a third of its bound" if bound and s["spread"] > bound / 3 else ""
            print(f"   {name:28s} median {s['median']:.6g} {units[name]}  spread "
                  f"{s['spread']:.4f} (bound {bound}){flag}")
        baseline["workloads"][workload] = {
            "end_to_end": {n: summary(v) | {"unit": units[n]} for n, v in values.items()},
            "per_layer": {n: {"median": statistics.median(v), "unit": units[n]}
                          for n, v in layer_values.items()},
            "runs": runs,
        }
    baseline["ledger"] = list(workloads.dedupe_ledger(ledger))
    if args.baseline:
        args.baseline.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
