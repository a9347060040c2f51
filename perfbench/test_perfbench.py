"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
REFS = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_are_well_formed():
    names = list(run.END_TO_END) + list(run.PER_LAYER) + ["fail_frac", "blocks_per_s"]
    names += [w["name"] for w in SPEC["workloads"]]
    for name in names:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64


def test_spec_lists_what_the_benchmark_prints():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_equal_seeds_give_equal_inputs(workload):
    assert workloads.plan(workload, 7) == workloads.plan(workload, 7)


@pytest.mark.parametrize("workload", ["battery_sweep", "monte_carlo", "small_models"])
def test_other_seeds_give_other_inputs(workload):
    assert workloads.plan(workload, 7) != workloads.plan(workload, 8)


def test_small_models_draw_distinct_scenarios():
    items = workloads.plan("small_models", 3).items
    assert len(set(items)) == len(items) == workloads.SMALL_DRAWS
    assert len(REFS["small_models"]["bound"]) == workloads.small_universe_size()


def _reference_csv(perturb=None):
    """The sweep CSV the reference implies, with the simulation at the
    closed form; perturb maps (battery, n_levels) to a bound offset."""
    ref = REFS["battery_sweep"]
    lines = [checks.SWEEP_HEADER]
    for battery in ref["batteries"]:
        analytic = ref["heuristic"][f"{battery:g}"]
        for n_levels in ref["levels"]:
            bound = ref["bounds"][f"{battery:g},{n_levels}"]
            if perturb:
                bound += perturb.get((battery, n_levels), 0.0)
            lines.append(
                f"battery,{battery:.12g},{n_levels},{analytic!r},{analytic!r},0.001,"
                f"{bound!r},ok"
            )
    return "\n".join(lines) + "\n"


def test_sweep_check_accepts_the_reference():
    assert checks.check_sweep(0, _reference_csv(), REFS["battery_sweep"]) == []


def test_sweep_check_rejects_a_bound_moved_by_1e_9():
    text = _reference_csv({(10.0, 9): 1e-9})
    problems = checks.check_sweep(0, text, REFS["battery_sweep"])
    assert len(problems) == 1 and "B=10 N=9" in problems[0]


def test_sweep_check_rejects_a_corrupted_row():
    lines = _reference_csv().splitlines()
    lines[5] = lines[5].replace(",ok", ",")
    assert checks.check_sweep(0, "\n".join(lines), REFS["battery_sweep"])
    lines = _reference_csv().splitlines()
    del lines[3]
    assert checks.check_sweep(0, "\n".join(lines), REFS["battery_sweep"])


def test_sweep_check_rejects_an_exit_code_the_status_contradicts():
    assert checks.check_sweep(1, _reference_csv(), REFS["battery_sweep"])
    lines = _reference_csv().splitlines()
    fields = lines[1].split(",")
    fields[6], fields[7] = "nan", "failed"
    lines[1] = ",".join(fields)
    text = "\n".join(lines)
    assert checks.check_sweep(0, text, REFS["battery_sweep"])
    assert checks.check_sweep(1, text, REFS["battery_sweep"]) == []


def test_bound_check_rejects_a_bound_moved_by_1e_9():
    ref = REFS["fine_grid_bound"]
    bound = ref["bounds"]["17,200"]
    assert checks.check_bound("cell", bound, bound, ref["heuristic"]) == []
    assert checks.check_bound("cell", bound + 1e-9, bound, ref["heuristic"])
    assert checks.check_bound("cell", bound - 1e-9, bound, ref["heuristic"])


def test_cells_without_reference_get_range_and_dominance_checks():
    ref = REFS["fine_grid_bound"]
    assert ref["bounds"]["33,200"] is None
    assert checks.check_bound("cell", 0.99, None, ref["heuristic"]) == []
    assert checks.check_bound("cell", 1.0 + 1e-9, None, ref["heuristic"])
    assert checks.check_bound("cell", ref["heuristic"] - 1e-8, None, ref["heuristic"])


def test_monte_carlo_check_uses_four_standard_errors():
    assert checks.check_monte_carlo("p", [(0.5 + 3.9e-3, 1e-3)], 0.5) == []
    assert checks.check_monte_carlo("p", [(0.5 + 4.1e-3, 1e-3)], 0.5)


def test_tail_has_ten_samples_beyond_it():
    values = [float(i) for i in range(100)]
    value, label = run.tail(values)
    assert sum(v > value for v in values) == 10
    assert label.startswith("p90")
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max, n=3")


def test_self_time_is_span_minus_child_spans():
    sr = run.import_package()
    channel = sr.quantize_equiprobable_exponential(2)
    params = sr.SystemParams(**workloads.HARD_TINY_PHYSICS)
    trace = tracer.Tracer()
    trace.install()
    try:
        trace.phase = "pass0"
        model = sr.build_mdp(channel, channel, params, 3)
        result = sr.policy_iteration(model)
    finally:
        trace.uninstall()
    assert not hasattr(sr.policy_iteration, "__wrapped__")  # uninstalled
    totals = trace.totals("pass0")
    children = totals["mdp.evaluate.total_s"] + totals["mdp.improve.total_s"]
    assert totals["mdp.policy_iteration.self_s"] == pytest.approx(
        totals["mdp.policy_iteration.total_s"] - children, abs=1e-12
    )
    assert totals["mdp.evaluate.calls"] == result.iterations == totals["mdp.iterations"]
    assert totals["mdp.states"] == model.n_states
    assert totals["relay.success_prob_calls"] == totals["mdp.actions"] > 0


def test_exits_non_zero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small_models", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
