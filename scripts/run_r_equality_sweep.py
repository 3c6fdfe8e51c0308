#!/usr/bin/env python3
"""Check the three pole-polynomial routes agree across diagram families.

For every admissible diagram in the requested (k, n) ranges the
per-edge product, the necklace-minor radical, and the reverse-necklace
radical are computed independently and compared as factor sets.
Exits 1 if any diagram disagrees, and 2 if the ranges hold no diagram.
"""

import argparse
import sys
import time

from wlpoles.diagrams import enumerate_diagrams
from wlpoles.poles import check_r_equalities


def run(args: argparse.Namespace) -> int:
    bad = 0
    for k in range(1, args.k_max + 1):
        for n in range(k + 4, args.n_max + 1):
            t0 = time.perf_counter()
            diagrams = enumerate_diagrams(k, n)
            mismatched = []
            for W in diagrams:
                rep = check_r_equalities(W)
                if not rep.ok:
                    mismatched.append((W, rep.mismatches))
            dt = time.perf_counter() - t0
            print(
                f"k={k} n={n}  diagrams={len(diagrams)}"
                f"  mismatches={len(mismatched)}  {dt:.2f}s"
            )
            for W, lines in mismatched:
                bad += 1
                print(f"    {W}")
                for line in lines:
                    print(f"      {line}")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=8)
    args = ap.parse_args(argv)
    if args.k_max < 1 or args.n_max < 5:
        ap.error(
            f"no diagram to check: --k-max {args.k_max} --n-max {args.n_max}"
            " needs k-max >= 1 and n-max >= 5 (n >= k + 4)"
        )
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
