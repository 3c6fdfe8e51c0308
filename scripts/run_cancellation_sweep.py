#!/usr/bin/env python3
"""Sweep the cancellation report over a range of amplitude shapes.

For each (k, n) the script partitions every codimension-one pole
factor into verified groups, prints one summary line per shape, and
optionally dumps the full JSON reports into a directory.
"""

import argparse
import sys
import time
from collections import Counter
from pathlib import Path

from wlpoles.cancel import amplitude_report, report_json
from wlpoles.cli import positive_int


def parse_shapes(arg: str) -> list[tuple[int, int]]:
    """Argparse type for comma-separated k:n pairs that have a diagram."""
    shapes = []
    for part in arg.split(","):
        try:
            k, n = (int(x) for x in part.split(":"))
        except ValueError:
            raise argparse.ArgumentTypeError(f"{part!r} is not a k:n pair") from None
        if k < 0 or n < k + 4:
            raise argparse.ArgumentTypeError(f"no admissible diagram at (k, n) = ({k}, {n})")
        shapes.append((k, n))
    return shapes


def run(args: argparse.Namespace) -> int:
    incomplete = 0
    for k, n in args.shapes:
        t0 = time.perf_counter()
        rep = amplitude_report(k, n, seed=args.seed, trials=args.trials)
        dt = time.perf_counter() - t0
        cases = Counter(g.case for g in rep.groups)
        case_txt = " ".join(f"{c}:{cases[c]}" for c in sorted(cases))
        print(
            f"k={k} n={n}  status={rep.status}  groups={len(rep.groups)}"
            f"  [{case_txt}]  excluded={len(rep.excluded)}"
            f"  failures={len(rep.failures)}  {dt:.1f}s"
        )
        if rep.status != "complete":
            incomplete += 1
            for line in rep.failures:
                print(f"    failure: {line}")
        if args.out_dir is not None:
            args.out_dir.mkdir(parents=True, exist_ok=True)
            path = args.out_dir / f"cancel_k{k}_n{n}.json"
            path.write_text(report_json(rep))
            print(f"    wrote {path}")
    return 1 if incomplete else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--shapes",
        type=parse_shapes,
        default="1:5,1:6,1:7,2:6,2:7",
        help="comma-separated k:n pairs",
    )
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trials", type=positive_int, default=10)
    ap.add_argument("--out-dir", type=Path, default=None)
    return run(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
