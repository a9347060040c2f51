"""The bound on every cell of the 720-cell scan, in both grid models,
against the values pinned in cell_scan.csv.

The scan is C in {5, 10, 20, 50, 100, 200} x P in {0.5, 1, 2} mW x
B in {2, 4, ..., 16} uJ x N in {5, 9, 17, 33, 65}, each cell solved with
exact_up on (the bound) and off (the round-down model). A row holds the
cell's status (ok, or the type of the exception that failed it), its
bound as %.12g and policy iteration's iteration count. The last bits of
a bound follow the platform's LAPACK, and the BLAS thread count only when
a caller overrides the package's one thread, so bounds are compared within
1e-12; status and iterations are compared exactly.

A change that moves a cell regenerates the fixture with

    PYTHONPATH=src python tests/test_cell_scan.py > tests/cell_scan.csv

and lists every changed cell.
"""

import csv
import functools
import itertools
import sys
from pathlib import Path

from swipt_relay import (
    MultichainSuspectedError,
    SystemParams,
    build_mdp,
    policy_iteration,
    quantize_equiprobable_exponential,
    upper_bound,
)

FIXTURE = Path(__file__).with_name("cell_scan.csv")
HEADER = (
    "channel_states",
    "source_power",
    "battery_capacity",
    "n_levels",
    "exact_up",
    "status",
    "bound",
    "iterations",
)
CELLS = list(
    itertools.product(
        (5, 10, 20, 50, 100, 200),
        (0.5, 1.0, 2.0),
        tuple(float(b) for b in range(2, 17, 2)),
        (5, 9, 17, 33, 65),
        (True, False),
    )
)


def scan_rows():
    """Per cell and grid model: the cell, then its status, bound (None if
    it failed) and iteration count (None if it failed)."""
    channel = functools.lru_cache(quantize_equiprobable_exponential)
    for cell in CELLS:
        count, power, battery, n_levels, exact_up = cell
        params = SystemParams(power, 0.001, 1.0, 0.5, 1.5, battery)
        model = build_mdp(
            channel(count), channel(count), params, n_levels, exact_up=exact_up
        )
        try:
            result = policy_iteration(model)
            yield (*cell, "ok", upper_bound(model, result), result.iterations)
        except MultichainSuspectedError as exc:
            yield (*cell, type(exc).__name__, None, None)


def as_csv(row):
    """A scan row as the fixture's strings."""
    *cell, status, bound, iterations = row
    if status != "ok":
        return (*map(str, cell), status, "", "")
    return (*map(str, cell), status, f"{bound:.12g}", str(iterations))


def test_every_cell_matches_the_pinned_scan():
    with FIXTURE.open(encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        assert tuple(next(reader)) == HEADER
        pinned = [tuple(row) for row in reader]
    got = list(scan_rows())
    assert len(got) == len(pinned) == 2 * 720
    moved = []
    for row, old in zip(got, pinned):
        new = as_csv(row)
        same = new[:6] == old[:6] and new[7] == old[7]
        if same and row[5] == "ok":
            same = abs(row[6] - float(old[6])) <= 1e-12
        if not same:
            moved.append((old, new))
    assert not moved, f"{len(moved)} cells moved, first: {moved[:5]}"


if __name__ == "__main__":
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(map(as_csv, scan_rows()))
