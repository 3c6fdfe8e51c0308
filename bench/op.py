"""One benchmark operation in a fresh interpreter.

Usage: python3 bench/op.py SPEC.json   (with the repo's src/ on PYTHONPATH)

The spec, written by run.py, names the operation and where its output and
measurements go. `probe` only imports the CLI; `cancel` runs
`wlpoles cancel` through `wlpoles.cli.main`; `front_half` runs
front_half.run. Set-up time is measured by the launcher, from just before
the launch until the import below completes.
"""

import time

import wlpoles.cli

T_IMPORTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import front_half  # noqa: E402
import spans  # noqa: E402


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run(spec: dict) -> dict:
    result = {"t_imported": T_IMPORTED}
    if spec["op"] == "probe":
        return result
    tracer = spans.Tracer() if spec["trace"] else None
    if tracer:
        tracer.install()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    if spec["op"] == "cancel":
        argv = ["cancel", "-k", str(spec["k"]), "-n", str(spec["n"]),
                "--seed", str(spec["seed"]), "--trials", str(spec["trials"]),
                "--format", "json", "--out", spec["out"]]
        rc = wlpoles.cli.main(argv)
    else:
        front_half.run(spec["k"], spec["n"], spec["seed"], spec["out"])
        rc = 0
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    result.update(
        rc=rc,
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        wrapped=spans.count_wrapped(),
    )
    if tracer:
        tracer.write(spec["spans"])
    return result


def main(path: str) -> int:
    with open(path) as fh:
        spec = json.load(fh)
    result = run(spec)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
