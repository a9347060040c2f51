"""Output checks. A problem fails the run; it is not a metric.

References were computed from the package at the commit that defined the
benchmark (see make_reference.py). A cell that failed there has no
reference value and is checked only by the range and dominance rules, so a
later fix of that cell needs no benchmark edit.
"""

import math

# The bound and the closed form may not move by more than this.
EXACT_TOL = 1e-12
# The bound must dominate the heuristic up to this slack.
DOMINANCE_TOL = 1e-9
# A Monte Carlo mean must lie this many standard errors from the closed form.
MC_SIGMAS = 4.0

SWEEP_HEADER = (
    "sweep_param,sweep_value,n_levels,p_heuristic_analytic,"
    "p_heuristic_sim,p_heuristic_sim_stderr,p_upper_bound,status"
)


def check_close(label: str, value: float, reference: float | None) -> list[str]:
    if reference is None or abs(value - reference) <= EXACT_TOL:
        return []
    return [f"{label}: {value!r} differs from reference {reference!r} by {abs(value - reference):.3e}"]


def check_bound(
    label: str, bound: float | None, reference: float | None, heuristic: float | None
) -> list[str]:
    """Range, dominance and reference checks of one bound. A failed cell
    (bound None) is counted as a failed operation, not checked here."""
    if bound is None:
        return []
    if not math.isfinite(bound) or bound > 1.0 + EXACT_TOL or bound < 0.0:
        return [f"{label}: bound {bound!r} outside [0, 1]"]
    problems = []
    if heuristic is not None and bound < heuristic - DOMINANCE_TOL:
        problems.append(f"{label}: bound {bound!r} below heuristic {heuristic!r}")
    return problems + check_close(f"{label} bound", bound, reference)


def check_monte_carlo(label: str, sims: list, closed_form: float) -> list[str]:
    """Pooled mean of equal-length runs within MC_SIGMAS standard errors
    of the closed form."""
    if not sims:
        return []
    mean = sum(m for m, _ in sims) / len(sims)
    stderr = math.sqrt(sum(s * s for _, s in sims)) / len(sims)
    if abs(mean - closed_form) <= MC_SIGMAS * stderr:
        return []
    return [
        f"{label}: Monte Carlo mean {mean:.6f} is {abs(mean - closed_form) / stderr:.1f} "
        f"standard errors from the closed form {closed_form:.6f}"
    ]


def parse_sweep_csv(text: str) -> list[dict]:
    """Rows of the sweep CSV as dicts; a malformed file gives no rows."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return []
    names = SWEEP_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        rows.append(dict(zip(names, fields)) if len(fields) == len(names) else {})
    return rows


def _float(row: dict, key: str) -> float:
    try:
        return float(row[key])
    except (KeyError, ValueError):
        return math.nan


def check_sweep(exit_code: int, text: str, reference: dict) -> list[str]:
    """The default battery sweep: row grid, status column against the exit
    code, closed form and bound against the references, Monte Carlo mean
    against the closed form, range and dominance."""
    rows = parse_sweep_csv(text)
    expected = [(b, n) for b in reference["batteries"] for n in reference["levels"]]
    if len(rows) != len(expected):
        return [f"sweep CSV has {len(rows)} well-formed rows, expected {len(expected)}"]
    problems = []
    all_ok = True
    for row, (battery, n_levels) in zip(rows, expected):
        label = f"row B={battery:g} N={n_levels}"
        if (
            row.get("sweep_param") != "battery"
            or _float(row, "sweep_value") != battery
            or row.get("n_levels") != str(n_levels)
        ):
            problems.append(f"{label}: unexpected key columns {row}")
            continue
        status = row.get("status")
        if status not in ("ok", "failed"):
            problems.append(f"{label}: unknown status {status!r}")
            continue
        all_ok = all_ok and status == "ok"
        key = f"{battery:g}"
        analytic = _float(row, "p_heuristic_analytic")
        problems += check_close(f"{label} heuristic", analytic, reference["heuristic"][key])
        sim, stderr = _float(row, "p_heuristic_sim"), _float(row, "p_heuristic_sim_stderr")
        if not abs(sim - analytic) <= MC_SIGMAS * stderr:
            problems.append(
                f"{label}: simulated {sim!r} (stderr {stderr!r}) is not within "
                f"{MC_SIGMAS:g} standard errors of the closed form {analytic!r}"
            )
        bound = _float(row, "p_upper_bound")
        if status == "ok":
            if math.isnan(bound):
                problems.append(f"{label}: status ok but no bound")
                continue
            ref = reference["bounds"].get(f"{key},{n_levels}")
            problems += check_bound(label, bound, ref, analytic)
        elif not math.isnan(bound):
            problems.append(f"{label}: status failed but bound {bound!r}")
    if (exit_code == 0) != all_ok:
        problems.append(f"exit code {exit_code} disagrees with the status column")
    return problems
