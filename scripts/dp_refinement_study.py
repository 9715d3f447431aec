"""Refinement study of the DP oracle on cos at t = 1: step count, grid, and FD.

For every grid size M and DP step count N this runs
``dp_upper_expectation(cos, 1, band, N)`` on the band (0.25, 1) and reports

  * sup|DP_N - DP_2N| for each M, with the empirical order
    log2(d_N / d_2N) of consecutive differences, and
  * sup|FD - DP_N| for M <= 1024, where FD is the finite-difference
    ``solve`` on the same grid, with the same empirical orders in N.

A lattice whose one-step kernels are under-resolved on the grid (row sums off
1 by more than 1e-12) is rejected by the oracle; such (M, N) cells are
recorded as rejected, with the error message, and left out of the orders.
The output is an experiment record, not a gate.

Usage: python scripts/dp_refinement_study.py [--out reports/dp_refinement.json]
"""

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from ergolab.credal import InputError
from ergolab.gheat import CircleGrid, GHeatParams, cos_fn, solve
from ergolab.scenario import dp_upper_expectation

MS = (256, 512, 1024, 2048, 4096)
NS = (64, 128, 256, 512, 1024, 2048, 4096)
#: the explicit FD reference costs O(M^3) per unit time; larger grids are left out
FD_MAX_M = 1024
T = 1.0
BAND = GHeatParams(0.25, 1.0)


def sup_diff(u, v) -> float:
    return float(np.max(np.abs(u.values - v.values)))


def with_orders(rows: list[dict], key: str) -> list[dict]:
    """Add order = log2(row[key] / next_row[key]) for rows one doubling of N apart."""
    for row, nxt in zip(rows, rows[1:]):
        a, b = row[key], nxt[key]
        ok = nxt["n"] == 2 * row["n"] and a > 0 and b > 0
        row["order"] = math.log2(a / b) if ok else None
    if rows:
        rows[-1]["order"] = None
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", default="reports/dp_refinement.json")
    args = parser.parse_args(argv)
    start = time.perf_counter()

    cells, refinement, fd_vs_dp = [], {}, {}
    for m in MS:
        phi = cos_fn(CircleGrid(m))
        dp = {}
        for n in NS:
            tick = time.perf_counter()
            try:
                dp[n] = dp_upper_expectation(phi, T, BAND, n)
            except InputError as exc:
                cells.append({"m": m, "n": n, "status": "rejected", "error": str(exc)})
                continue
            cells.append({"m": m, "n": n, "status": "ok", "mean": float(np.mean(dp[n].values)),
                          "wall_s": time.perf_counter() - tick})
        refinement[f"M{m}"] = with_orders(
            [{"n": n, "sup_diff_to_2n": sup_diff(dp[n], dp[2 * n])} for n in NS if n in dp and 2 * n in dp],
            "sup_diff_to_2n",
        )
        if m <= FD_MAX_M:
            tick = time.perf_counter()
            fd = solve(phi, T, BAND)
            fd_vs_dp[f"M{m}"] = {
                "fd_wall_s": time.perf_counter() - tick,
                "rows": with_orders([{"n": n, "sup_err": sup_diff(fd, dp[n])} for n in NS if n in dp], "sup_err"),
            }

    summary = {
        "config": {"datum": "cos", "t": T, "sigma_lo2": BAND.sigma_lo2, "sigma_hi2": BAND.sigma_hi2,
                   "ms": list(MS), "ns": list(NS), "fd_max_m": FD_MAX_M},
        "cells": cells,
        "rejected": [[c["m"], c["n"]] for c in cells if c["status"] == "rejected"],
        "dp_step_refinement": refinement,
        "fd_vs_dp": fd_vs_dp,
        "wall_s": time.perf_counter() - start,
    }
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
