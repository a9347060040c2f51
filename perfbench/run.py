"""Benchmark of the swipt-relay package.

    python3 perfbench/run.py --workload battery_sweep --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory. Workloads (see workloads.py):

- battery_sweep: the default `swipt-relay sweep`, run in-process;
- fine_grid_bound: the bound alone on three large (N, C) cells;
- monte_carlo: draining-heuristic simulations and simulated chain checks;
- small_models: 2500 seeded small scenarios, one bound and closed form each.

BENCHMARK.json gates battery_sweep and fine_grid_bound. monte_carlo and
small_models run the same way but are left out of the gate: on a shared
2-vCPU machine their run-to-run spread exceeds the bounds.

All are single-process. A run builds the workload's inputs from the seed,
then makes passes over them until `--seconds` have elapsed (at least one),
checks every pass's outputs and prints a report. The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with `--trace 0`, the per-layer metrics
with `--trace 1`. A traced run alternates untraced and traced passes, so
that it can report the tracing overhead. The exit code is 0 when every
output check passed, 1 when one failed and 2 when the package cannot be
run. Spans, the ledger of failed operations and the run record are written
to `.perfbench-out/` in the checkout when the run ends.
"""

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import record  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Extra set-ups, each in a fresh interpreter, beside the run's own one;
# set-up time is the median of all of them.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120
OUT_DIR = ROOT / ".perfbench-out"

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "channel.quantize_s": "s",
    "relay.heuristic_s": "s",
    "relay.success_prob_calls": "count",
    "mdp.build_s": "s",
    "mdp.states": "count",
    "mdp.actions": "count",
    "mdp.evaluate_s": "s",
    "mdp.evaluate_calls": "count",
    "mdp.improve_s": "s",
    "mdp.iterations": "count",
    "mdp.pi_self_s": "s",
    "mdp.upper_bound_self_s": "s",
    "simulate.original_s": "s",
    "simulate.original_blocks_per_s": "1/s",
    "simulate.discrete_s": "s",
    "simulate.discrete_blocks_per_s": "1/s",
    "experiment.run_sweep_self_s": "s",
    "cli.main_self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}
# Per-layer metric -> key of Tracer.totals summed over set-up and one pass.
_LAYER_KEYS = {
    "channel.quantize_s": "channel.quantize.total_s",
    "relay.heuristic_s": "relay.heuristic.total_s",
    "relay.success_prob_calls": "relay.success_prob_calls",
    "mdp.build_s": "mdp.build.total_s",
    "mdp.states": "mdp.states",
    "mdp.actions": "mdp.actions",
    "mdp.evaluate_s": "mdp.evaluate.total_s",
    "mdp.evaluate_calls": "mdp.evaluate.calls",
    "mdp.improve_s": "mdp.improve.total_s",
    "mdp.iterations": "mdp.iterations",
    "mdp.pi_self_s": "mdp.policy_iteration.self_s",
    "mdp.upper_bound_self_s": "mdp.upper_bound.self_s",
    "simulate.original_s": "simulate.original.total_s",
    "simulate.discrete_s": "simulate.discrete.total_s",
    "experiment.run_sweep_self_s": "experiment.run_sweep.self_s",
    "cli.main_self_s": "cli.main.self_s",
}


class PackageMissing(Exception):
    """The checkout has no importable package under src/."""


def import_package():
    """Import swipt_relay from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "swipt_relay" / "__init__.py").is_file():
        raise PackageMissing(f"no package at {src / 'swipt_relay'}")
    sys.path.insert(0, str(src))
    import swipt_relay
    import swipt_relay.cli  # noqa: F401 - battery_sweep calls it

    if src.resolve() not in Path(swipt_relay.__file__).resolve().parents:
        raise PackageMissing(f"swipt_relay imported from {swipt_relay.__file__}")
    return swipt_relay


def timed_setup(plan):
    start = time.perf_counter()
    sr = import_package()
    inputs = workloads.build(plan, sr)
    return time.perf_counter() - start, sr, inputs


def probe_setups(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def tail(latencies: list[float]) -> tuple[float, str]:
    """Highest nearest-rank percentile with at least ten samples above it,
    or the maximum when there are too few samples for one."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], f"max, n={n}"
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.2f}, n={n}"


def run_passes(plan, inputs, sr, seconds, refs, traced=None):
    """Passes until `seconds` have elapsed. With a tracer, passes alternate
    untraced and traced (starting untraced) and at least one of each runs.
    Returns (untraced walls, traced walls, pass results, problems)."""
    walls = {False: [], True: []}
    results, problems = [], []
    OUT_DIR.mkdir(exist_ok=True)
    start = time.perf_counter()
    while True:
        with_trace = traced is not None and len(walls[False]) > len(walls[True])
        if with_trace:
            traced.phase = f"pass{len(walls[True])}"
            traced.install()
        begin = time.perf_counter()
        try:
            res = workloads.run_pass(plan, inputs, sr, OUT_DIR)
        finally:
            wall = time.perf_counter() - begin
            if with_trace:
                traced.uninstall()
        walls[with_trace].append(wall)
        results.append(res)
        problems += workloads.check(plan, res, refs)
        enough = time.perf_counter() - start >= seconds
        if enough and (traced is None or walls[True]):
            return walls[False], walls[True], results, problems


def end_to_end(setups, walls, results):
    latencies = [x for r in results for x in r.latencies]
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    tail_value, tail_label = tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(walls),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail_value,
        "ops_per_s": (attempted - failed) / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "pass_s": f"median of {len(walls)} passes",
        "op_p50_s": f"n={len(latencies)}",
        "op_tail_s": tail_label,
    }
    extra = {"fail_frac": (failed / attempted, "ratio")}
    blocks = sum(r.blocks for r in results)
    if blocks:
        seconds = sum(r.block_seconds for r in results)
        extra["blocks_per_s"] = (blocks / seconds, "1/s")
    return metrics, notes, extra


def per_layer(trace, untraced_walls, traced_walls):
    setup = trace.totals("setup")
    passes = [trace.totals(f"pass{i}") for i in range(len(traced_walls))]

    def value(key):
        return setup.get(key, 0.0) + statistics.median(p.get(key, 0.0) for p in passes)

    metrics = {name: value(key) for name, key in _LAYER_KEYS.items()}
    for kind in ("original", "discrete"):
        seconds = value(f"simulate.{kind}.total_s")
        blocks = value(f"simulate.{kind}.blocks")
        metrics[f"simulate.{kind}_blocks_per_s"] = blocks / seconds if seconds > 0 else 0.0
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(
        untraced_walls
    )
    metrics["trace.coverage"] = statistics.median(
        p["root_s"] / wall for p, wall in zip(passes, traced_walls)
    )
    return {name: metrics[name] for name in PER_LAYER}


def _fmt(value: float) -> str:
    return repr(float(value))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    plan = workloads.plan(args.workload, args.seed)
    if args.probe_setup:
        try:
            seconds, _, _ = timed_setup(plan)
        except PackageMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(repr(seconds))
        return 0

    try:
        refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        if args.trace:
            sr = import_package()
            trace = tracer.Tracer()
            trace.install()
            try:
                inputs = workloads.build(plan, sr)
            finally:
                trace.uninstall()
        else:
            trace = None
            own_setup, sr, inputs = timed_setup(plan)
            setups = [own_setup] + probe_setups(args.workload, args.seed)
    except (PackageMissing, ImportError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: cannot run the package: {exc}", file=sys.stderr)
        return 2

    untraced, traced, results, problems = run_passes(
        plan, inputs, sr, args.seconds, refs, traced=trace
    )
    run_record = record.run_record(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    ledger = list(workloads.dedupe_ledger(e for r in results for e in r.ledger))

    print(f"workload {args.workload}  seed {args.seed}  passes {len(untraced) + len(traced)}"
          f"{' (traced ' + str(len(traced)) + ')' if args.trace else ''}")
    print("record " + json.dumps(run_record, sort_keys=True))
    for entry in ledger:
        print("ledger " + json.dumps(entry, sort_keys=True))
    for problem in problems[:20]:
        print("CHECK FAILED " + problem)
    if len(problems) > 20:
        print(f"CHECK FAILED ... {len(problems) - 20} more")

    if args.trace:
        metrics = per_layer(trace, untraced, traced)
        for name, value in metrics.items():
            print(f"metric {name} = {_fmt(value)} {PER_LAYER[name]}")
        units = PER_LAYER
    else:
        metrics, notes, extra = end_to_end(setups, untraced, results)
        for name, value in metrics.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"metric {name} = {_fmt(value)} {END_TO_END[name]}{note}")
        for name, (value, unit) in extra.items():
            print(f"metric {name} = {_fmt(value)} {unit}")
        units = END_TO_END

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    correct = not problems and all(math.isfinite(v) for v in metrics.values())
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(
        json.dumps(
            {
                "record": run_record,
                "metrics": metrics,
                "ledger": ledger,
                "problems": problems,
                "spans": [s.as_dict() for s in trace.spans] if trace else [],
            }
        ),
        encoding="utf-8",
    )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
