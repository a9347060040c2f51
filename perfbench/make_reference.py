"""Write reference.json: the outputs the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Run it only on the commit whose outputs are the reference. A cell that
fails there is stored as null and is checked only by range and dominance.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import swipt_relay as sr  # noqa: E402
import workloads as w  # noqa: E402


def _bound(channel, params, n_levels):
    try:
        return w.solve_bound(sr, channel, params, n_levels)
    except Exception:  # noqa: BLE001 - a failing cell has no reference
        return None


def main() -> None:
    default = sr.SystemParams(**w.DEFAULT_PHYSICS)
    c200 = sr.quantize_equiprobable_exponential(200)
    sweep = {"batteries": list(w.SWEEP_BATTERIES), "levels": list(w.SWEEP_LEVELS),
             "heuristic": {}, "bounds": {}}
    for battery in w.SWEEP_BATTERIES:
        params = sr.SystemParams(**dict(w.DEFAULT_PHYSICS, battery_capacity=battery))
        sweep["heuristic"][f"{battery:g}"] = sr.heuristic_average_success(c200, c200, params)
        for n_levels in w.SWEEP_LEVELS:
            sweep["bounds"][f"{battery:g},{n_levels}"] = _bound(c200, params, n_levels)

    fine = {"heuristic": sr.heuristic_average_success(c200, c200, default), "bounds": {}}
    for n_levels, n_states in w.FINE_GRID_CELLS:
        channel = sr.quantize_equiprobable_exponential(n_states)
        fine["bounds"][f"{n_levels},{n_states}"] = _bound(channel, default, n_levels)

    mc_channel = sr.quantize_equiprobable_exponential(w.MC_CHANNEL_STATES)
    mc = {
        "heuristic": [
            sr.heuristic_average_success(mc_channel, mc_channel, sr.SystemParams(**physics))
            for physics in w.MC_POINTS
        ],
        "bound": _bound(mc_channel, default, w.MC_CHECK_LEVELS),
    }

    channels = {c: sr.quantize_equiprobable_exponential(c) for c in w.SMALL_CHANNEL_STATES}
    small = {"bound": [], "heuristic": []}
    for index in range(w.small_universe_size()):
        physics, n_states, n_levels = w.small_scenario(index)
        params = sr.SystemParams(**physics)
        channel = channels[n_states]
        small["bound"].append(_bound(channel, params, n_levels))
        small["heuristic"].append(sr.heuristic_average_success(channel, channel, params))

    refs = {"battery_sweep": sweep, "fine_grid_bound": fine, "monte_carlo": mc,
            "small_models": small}
    (HERE / "reference.json").write_text(json.dumps(refs) + "\n", encoding="utf-8")
    failed = sum(b is None for b in small["bound"])
    print(f"wrote reference.json; small_models: {failed} of {len(small['bound'])} cells fail")


if __name__ == "__main__":
    main()
