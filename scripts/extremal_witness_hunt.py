#!/usr/bin/env python3
"""Exhaustive confirmations of the n = 3*gamma maximum at (9, 3) and of the
number of extremal witnesses at (10, 3) with 15 edges.

The second search settles whether a single isomorphism class realizes the
bound there (expected count: 1).  Both runs honor a wall-clock budget and
report partial results honestly instead of overrunning.

Usage: python scripts/extremal_witness_hunt.py [--budget 3600]
"""

import argparse
import sys
import time

from unidom import (
    count_extremal_witnesses,
    max_umd_bipartite_size,
    n3g_bound,
)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--budget", type=float, default=3600.0,
                        help="wall-clock seconds per search")
    parser.add_argument("--progress", action="store_true")
    args = parser.parse_args()

    def reporter(scanned, best):
        print(f"  scanned={scanned} best={best}", file=sys.stderr)

    progress = reporter if args.progress else None
    exit_code = 0

    t0 = time.time()
    result = max_umd_bipartite_size(
        9, 3, budget=args.budget, collect_witnesses=False, progress=progress,
    )
    status = "complete" if result.complete else "PARTIAL (budget hit)"
    print(f"(9,3) exhaustive max: {result.max_size}  expected {n3g_bound(3)}  "
          f"[{status}, {time.time() - t0:.0f}s, scanned {result.graphs_scanned}]")
    if not result.complete:
        exit_code = 3
    elif result.max_size != n3g_bound(3):
        exit_code = 1

    t0 = time.time()
    outcome = count_extremal_witnesses(
        10, 3, 15, budget=args.budget, progress=progress,
    )
    status = "complete" if outcome.complete else "PARTIAL (budget hit)"
    print(f"(10,3,15) witness classes: {outcome.count}  "
          f"[{status}, {time.time() - t0:.0f}s, scanned {outcome.graphs_scanned}]")
    for g6 in outcome.witnesses:
        print(f"  witness: {g6}")
    if not outcome.complete:
        exit_code = 3
    elif outcome.count != 1:
        exit_code = 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
