"""Self-tests of the benchmark: the gate can fail, traced counts repeat, and
an untraced operation runs the program unwrapped.

Run with: PYTHONPATH=src python3 -m pytest bench/test_bench.py
"""

import json
import time
from pathlib import Path

import pytest

import front_half
import gate
import run
import spans

SMALL = {"op": "cancel", "k": 1, "n": 6, "seed": 3, "trials": 2}
SMALL_EXPECT = {"diagrams": 9, "entries": 36, "groups": 18}
K3_EXPECT = {"diagrams": 84, "factors": 847, "entries": 630}


@pytest.fixture(scope="module")
def small_ops(tmp_path_factory):
    """One untraced and two traced operations at (1, 6), with their outputs."""
    work = tmp_path_factory.mktemp("ops")
    launcher = run.Launcher(work, deadline=time.perf_counter() + 120)
    ops = []
    for i, trace in enumerate((0, 1, 1)):
        spec = dict(SMALL, trace=trace, out=str(work / f"out{i}"), spans=str(work / f"spans{i}.tsv"))
        op = launcher.launch(spec)
        assert "error" not in op, op
        op["spec"] = spec
        op["text"] = Path(spec["out"]).read_bytes()
        ops.append(op)
    return ops


@pytest.fixture(scope="module")
def parts():
    return gate.partition(SMALL["k"], SMALL["n"])


def check(text, parts, expect=SMALL_EXPECT, rc=0):
    return gate.check_output("cancel", text, rc, SMALL, expect, parts)


def corrupt(text, edit):
    report = json.loads(text)
    edit(report)
    return json.dumps(report).encode()


def test_gate_passes_a_good_report(small_ops, parts):
    assert check(small_ops[0]["text"], parts) == ([], 36)
    assert gate.check_repeats([op["text"] for op in small_ops]) == []


def test_gate_rejects_an_unverified_group(small_ops, parts):
    def flip(report):
        report["groups"][5]["verified"] = False

    problems, resolved = check(corrupt(small_ops[0]["text"], flip), parts)
    assert problems and resolved == 0


def test_gate_rejects_a_dropped_member(small_ops, parts):
    def drop(report):
        del report["groups"][7]["members"][1]

    problems, _ = check(corrupt(small_ops[0]["text"], drop), parts)
    assert any("exactly one group" in p for p in problems)


def test_gate_rejects_a_changed_byte(small_ops):
    text = small_ops[0]["text"]
    i = text.index(b'"verified": true') + len(b'"verified": ')
    changed = text[:i] + b"T" + text[i + 1:]
    assert gate.check_repeats([text, changed])


def test_gate_rejects_a_failed_exit_code(small_ops, parts):
    problems, _ = check(small_ops[0]["text"], parts, rc=1)
    assert problems == ["exit code 1"]


def test_gate_rejects_a_wrong_pinned_count(small_ops, parts):
    for name in SMALL_EXPECT:
        wrong = dict(SMALL_EXPECT, **{name: SMALL_EXPECT[name] + 1})
        problems, _ = check(small_ops[0]["text"], parts, expect=wrong)
        assert problems == [f"{name}: expected {wrong[name]}, found {SMALL_EXPECT[name]}"]


def test_front_half_gate(tmp_path):
    out = tmp_path / "front_half.json"
    front_half.run(3, 7, seed=5, out=str(out))
    text = out.read_bytes()
    assert gate.check_output("front_half", text, 0, {}, K3_EXPECT, None) == ([], 630 - 84)
    for name in K3_EXPECT:
        wrong = dict(K3_EXPECT, **{name: K3_EXPECT[name] - 1})
        problems, _ = gate.check_output("front_half", text, 0, {}, wrong, None)
        assert len(problems) == 1
    disagree = corrupt(text, lambda out: out.update(routes_agree=83))
    assert gate.check_output("front_half", disagree, 0, {}, K3_EXPECT, None)[0]


def test_traced_call_counts_repeat(small_ops):
    first, second = (spans.summarize(op["spec"]["spans"]) for op in small_ops[1:])
    counts = {name: row["calls"] for name, row in first.items()}
    assert counts == {name: row["calls"] for name, row in second.items()}
    assert counts["sampling.twistor_data"] > 0 and counts["cli.main"] == 1


def test_untraced_run_installs_no_wrappers(small_ops):
    untraced, traced, _ = small_ops
    assert untraced["wrapped"] == 0
    assert traced["wrapped"] >= len(spans.TARGETS)


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
