"""The paper's 45-cell Monte Carlo table, computed the way a user script does.

Reads the three 2x2 decimal covariance CSVs through
``CovMatrix.from_csv_text`` and calls ``mc_pvalues`` for all three
statistics at m in {10, 20, 50, 100, 200}, R = 100000, seed 20090607.

    python3 benchmarks/paper_table.py --workers N --out table.json

Writes the p-values, their replicate counts and the time spent inside
the ``mc_pvalues`` calls as JSON.
"""

import argparse
import json
import time

from netvar import moments, montecarlo
from netvar.variability import StatKind

from oracles import M_GRID, PAPER_CSV

REPLICATES = 100_000
MC_SEED = 20090607


def run_table(workers: int) -> dict:
    """All 45 cells; library calls go through module attributes so a tracer
    that swaps them sees every call."""
    cells = []
    mc_seconds = 0.0
    for matrix, text in PAPER_CSV.items():
        sigma = moments.CovMatrix.from_csv_text(text)
        for m in M_GRID:
            started = time.perf_counter()
            estimates = montecarlo.mc_pvalues(
                sigma, tuple(StatKind), REPLICATES, m, MC_SEED, workers=workers
            )
            mc_seconds += time.perf_counter() - started
            cells.extend(
                {"stat": e.stat.value, "matrix": matrix, "m": m,
                 "p_value": e.p_value, "replicates": e.replicates}
                for e in estimates
            )
    return {"cells": cells, "mc_seconds": mc_seconds}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    table = run_table(args.workers)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(table, fh)


if __name__ == "__main__":
    main()
