"""The wlpoles benchmark: one workload, one seed, one line of results.

Usage (from the root of a checkout):

    python3 bench/run.py --workload cancel_k2n7 --seed 0 --seconds 60 --trace 0

Operations run as a closed loop from this process: each one runs in a
fresh interpreter (`op.py`) and the next starts only after it exits, so no
in-process cache carries over between timed repetitions. The loop keeps
starting operations with the same seed while the next one is expected to
be at least half done by `--seconds`, so a run measures about that long;
it runs at least two, so that their outputs can be compared byte for byte.
Set-up probes run between the operations, so that `setup_s` is a median
over the same stretch of time as `wall_s`.

`--trace 0` reports the end-to-end metrics (medians over the operations).
`--trace 1` runs one untraced and one traced operation and reports the
per-module metrics from the traced one's spans. Every operation goes
through the correctness gate (gate.py) outside its timed region; one that
fails it counts as failed, with all of its entries.

The last line of stdout is the JSON result. The lines before it give the
metrics with units and sample counts, the failure counts, the certificate
fingerprint and the environment; the full record is also written to
`.bench_work/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RECORDED_FINGERPRINTS = BENCH / "fingerprints.json"
LATEST_FINGERPRINTS = WORK / "fingerprints.json"

PROBES_PER_OP = 4
MIN_OPS = 2
RUN_BUDGET_S = 150.0  # no operation starts that would end the run past this

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "entries_per_s": "1/s",
    "peak_rss_mb": "MB",
    "resolved_ratio": "ratio",
}

# metric -> (span name, field of spans.summarize)
PER_LAYER = {
    "sampling.twistor_data_s": ("sampling.twistor_data", "self_s"),
    "sampling.twistor_data_calls": ("sampling.twistor_data", "calls"),
    "sampling.check_positive_s": ("sampling.check_positive", "self_s"),
    "exact.mat_det_s": ("exact.mat_det", "self_s"),
    "exact.mat_det_calls": ("exact.mat_det", "calls"),
    "cancel.localize_s": ("cancel.localize", "self_s"),
    "cancel.localize_calls": ("cancel.localize", "calls"),
    "exact.mat_rank_s": ("exact.mat_rank", "self_s"),
    "exact.mat_rank_calls": ("exact.mat_rank", "calls"),
    "cancel.verify_group_s": ("cancel.verify_group", "self_s"),
    "cancel.verify_group_calls": ("cancel.verify_group", "calls"),
    "matroids.bases_s": ("matroids.bases", "self_s"),
    "poles.r_poly_edge_s": ("poles.r_poly_edge", "self_s"),
    "poles.r_poly_edge_calls": ("poles.r_poly_edge", "calls"),
    "diagrams.validate_s": ("diagrams.validate", "self_s"),
    "diagrams.validate_calls": ("diagrams.validate", "calls"),
    "poles.r_routes_s": ("poles.r_routes", "self_s"),
    "poles.factor_codim_s": ("poles.factor_codim", "self_s"),
    "poles.factor_codim_calls": ("poles.factor_codim", "calls"),
    "cancel.classify_s": ("cancel.classify", "self_s"),
    "cancel.classify_calls": ("cancel.classify", "calls"),
    "cancel.partners_s": ("cancel.partners", "self_s"),
    "cancel.partners_calls": ("cancel.partners", "calls"),
    "cancel.partners_failed": ("cancel.partners", "raised"),
    "positroids.is_minimal_s": ("positroids.is_minimal", "self_s"),
    "positroids.is_minimal_calls": ("positroids.is_minimal", "calls"),
    "positroids.necklace_s": ("positroids.necklace", "self_s"),
    "exact.structured_factorize_s": ("exact.structured_factorize", "self_s"),
    "exact.structured_factorize_calls": ("exact.structured_factorize", "calls"),
    "matrices.minor_s": ("matrices.minor", "self_s"),
    "diagrams.enumerate_s": ("diagrams.enumerate", "self_s"),
    "positroids.cell_descriptor_s": ("positroids.cell_descriptor", "self_s"),
    "cancel.amplitude_report_s": ("cancel.amplitude_report", "self_s"),
    "cli.self_s": ("cli.main", "self_s"),
}
OVERHEAD = "trace.overhead_s"


def per_layer_units() -> dict[str, str]:
    units = {m: ("s" if field == "self_s" else "count") for m, (_, field) in PER_LAYER.items()}
    units[OVERHEAD] = "s"
    return units


class Launcher:
    """Runs op.py in fresh interpreters inside one scratch directory."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def launch(self, spec: dict) -> dict:
        """Run one operation; return op.py's result plus `setup_s`, or
        `error` when the interpreter failed or ran out of time."""
        self.count += 1
        spec = dict(spec, result=str(self.work / f"result{self.count}.json"))
        spec_path = self.work / f"spec{self.count}.json"
        spec_path.write_text(json.dumps(spec))
        timeout = max(1.0, self.deadline - time.perf_counter())
        t_spawn = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "op.py"), str(spec_path)],
                env=self.env, cwd=self.work, capture_output=True, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"error": f"timed out after {timeout:.0f} s"}
        if proc.returncode != 0:
            return {"error": f"op.py exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
        result = json.loads(Path(spec["result"]).read_text())
        result["setup_s"] = result["t_imported"] - t_spawn
        return result


def environment(seed: int, trials: int) -> dict:
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
        "trials": trials,
    }


def fingerprint(workload: str, seed: int, digest: str) -> dict:
    """Compare with the last recorded digest for (workload, seed) and record
    this one. A change is flagged, never failed: a code change that alters
    the certificate bytes on purpose says why."""
    latest = json.loads(LATEST_FINGERPRINTS.read_text()) if LATEST_FINGERPRINTS.exists() else {}
    recorded = json.loads(RECORDED_FINGERPRINTS.read_text())
    key = f"{workload}/{seed}"
    last = latest.get(key, recorded.get(key))
    latest[key] = digest
    LATEST_FINGERPRINTS.write_text(json.dumps(latest, sort_keys=True, indent=1) + "\n")
    return {"sha256": digest, "last": last, "changed": last is not None and last != digest}


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    """Run the workload; return the result line and the full record."""
    import gate  # imports wlpoles from src/

    w = WORKLOADS[args.workload]
    start = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-", dir=WORK))
    try:
        launcher = Launcher(work, deadline=start + RUN_BUDGET_S)
        base = {"op": w.op, "k": w.k, "n": w.n, "seed": args.seed, "trials": w.trials}
        warm = launcher.launch({"op": "probe"})  # compiles bytecode; not timed
        if "error" in warm:
            raise RuntimeError(warm["error"])
        probes: list[dict] = []
        ops: list[dict] = []
        t_loop = time.perf_counter()
        while True:
            trace = int(args.trace and len(ops) == 1)
            i = len(ops)
            spec = dict(base, trace=trace, out=str(work / f"out{i}"), spans=str(work / f"spans{i}.tsv"))
            op = launcher.launch(spec)
            op.update(trace=trace, spec=spec)
            ops.append(op)
            if "error" in op:
                break
            if not args.trace:
                probes += [launcher.launch({"op": "probe"}) for _ in range(PROBES_PER_OP)]
            now = time.perf_counter()
            per_op = (now - t_loop) / len(ops)  # with its probes
            enough = len(ops) >= MIN_OPS and (args.trace or now - t_loop + per_op / 2 > args.seconds)
            if enough or now + per_op > launcher.deadline:
                break

        parts = gate.partition(w.k, w.n) if w.op == "cancel" else None
        texts = []
        for op in ops:
            if "error" in op:
                op.update(problems=[op["error"]], resolved=0)
                continue
            text = Path(op["spec"]["out"]).read_bytes()
            texts.append(text)
            problems, resolved = gate.check_output(w.op, text, op["rc"], op["spec"], w.expect, parts)
            if bool(op["wrapped"]) != bool(op["trace"]):
                problems.append(f"{op['wrapped']} wrappers installed with trace={op['trace']}")
            op.update(problems=problems, resolved=resolved, sha256=hashlib.sha256(text).hexdigest())
        repeat_problems = gate.check_repeats(texts) if len(texts) >= MIN_OPS else [
            f"only {len(texts)} outputs to compare"
        ]
        layers = None
        if args.trace and len(ops) == 2 and "error" not in ops[1]:
            layers = spans.summarize(ops[1]["spec"]["spans"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [o for o in ops if not o["problems"]]
    failed_ops = len(ops) - len(good)
    correct = failed_ops == 0 and not repeat_problems
    attempted_entries = w.expect["entries"] * len(ops)
    resolved_entries = sum(o["resolved"] for o in ops)

    if args.trace:
        units = per_layer_units()
        metrics = {}
        for name, (span, field) in PER_LAYER.items():
            value = layers[span][field] if layers else 0
            metrics[name] = {"value": value, "unit": units[name]}
        overhead = ops[1]["wall_s"] - ops[0]["wall_s"] if layers else 0.0
        metrics[OVERHEAD] = {"value": overhead, "unit": "s"}
    else:
        timed = good or [o for o in ops if "wall_s" in o]

        def med(key: str) -> float:
            return median([o[key] for o in timed]) if timed else 0.0

        wall = med("wall_s")
        values = {
            "setup_s": median([p["setup_s"] for p in probes if "setup_s" in p] or [0.0]),
            "wall_s": wall,
            "cpu_s": med("cpu_s"),
            "entries_per_s": med("resolved") / wall if wall else 0.0,
            "peak_rss_mb": med("peak_rss_mb"),
            "resolved_ratio": resolved_entries / attempted_entries,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed_ops,
        "metrics": metrics,
    }
    digests = sorted({o["sha256"] for o in ops if "sha256" in o})
    record = {
        "workload": w.name,
        "why": w.why,
        "predicts": w.predicts,
        "environment": environment(args.seed, w.trials),
        "trace": args.trace,
        "seconds": args.seconds,
        "result": result,
        "fail_ratio": [f"{w.expect['entries'] - o['resolved']}/{w.expect['entries']}" for o in ops],
        "samples": {"setup_probes": len(probes), "operations": len(ops)},
        "operations": [
            {key: o.get(key) for key in ("trace", "setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                                         "resolved", "problems", "sha256")}
            for o in ops
        ],
        "repeat_problems": repeat_problems,
        "run_s": time.perf_counter() - start,
    }
    if w.op == "cancel" and len(digests) == 1:
        record["fingerprint"] = fingerprint(w.name, args.seed, digests[0])
    return result, record


def report(record: dict) -> None:
    result = record["result"]
    samples = record["samples"]
    print(f"workload {record['workload']}: {record['why']}")
    print(f"predicts: {record['predicts']}")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        count = samples["setup_probes"] if name == "setup_s" else samples["operations"]
        if record["trace"] and name != OVERHEAD:
            count = 1  # the traced operation
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']:6s} (n={count})")
    print(f"fail_ratio (failed/attempted entries) per operation: {', '.join(record['fail_ratio'])}")
    print(f"operations failed: {result['failed']}/{result['attempted']}")
    for i, op in enumerate(record["operations"]):
        for problem in op["problems"] or []:
            print(f"  operation {i}: {problem}")
    for problem in record["repeat_problems"]:
        print(f"  {problem}")
    fp = record.get("fingerprint")
    if fp:
        state = "CHANGED from " + fp["last"] if fp["changed"] else (
            "matches record" if fp["last"] else "first record")
        print(f"certificate sha256 {fp['sha256']} ({state})")
        if fp["changed"]:
            print(f"warning: certificate bytes of {record['workload']} changed", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "wlpoles" / "cli.py").is_file():
        print(f"error: no wlpoles sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result, record = run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
