#!/usr/bin/env python3
"""Confirm the gamma = 2 tightness results by exhaustive search.

For each order the exhaustive maximum over isolated-free bipartite graphs
with a unique minimum dominating set is compared against the closed-form
bound; the two provably coincide for n = 6, 7, 8.

Usage: python scripts/tightness_check.py [--n-max 8]
"""

import argparse
import sys
import time

from unidom import bipartite_bound, max_umd_bipartite_size


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n-max", type=int, default=8)
    args = parser.parse_args()

    print(f"{'n':>3} {'bound':>6} {'search max':>10} {'witness classes':>16} "
          f"{'scanned':>10} {'secs':>7}")
    ok = True
    for n in range(6, args.n_max + 1):
        t0 = time.time()
        result = max_umd_bipartite_size(n, 2)
        bound = bipartite_bound(n, 2)
        agree = result.max_size == bound
        ok = ok and agree and result.complete
        flag = "" if agree else "  <-- MISMATCH"
        print(f"{n:>3} {bound:>6} {result.max_size:>10} {len(result.witnesses):>16} "
              f"{result.graphs_scanned:>10} {time.time() - t0:>7.1f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
