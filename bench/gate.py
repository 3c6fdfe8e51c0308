"""Correctness gate, run on an operation's output outside the timed region.

Each check returns the problems it found; an empty list means the output
passed. The gate also reports how many codim-one entries the output
resolved, which the runner turns into `resolved_ratio` and `entries_per_s`.
"""

from __future__ import annotations

import hashlib
import json

from wlpoles.cancel import CASE1A, CASE3A
from wlpoles.diagrams import enumerate_diagrams
from wlpoles.poles import CODIM_ONE, factor_codim, r_poly_edge


def entry_key(diagram: dict, factor: dict) -> str:
    return json.dumps([diagram, factor], sort_keys=True)


def partition(k: int, n: int) -> tuple[int, set[str], set[str]]:
    """Diagram count, codim-one entries and other entries at (k, n).

    This is the partition rule of the acceptance test for cancellation:
    every codim-one entry belongs to exactly one group, and every other
    entry is excluded.
    """
    diagrams = enumerate_diagrams(k, n)
    codim_one: set[str] = set()
    other: set[str] = set()
    for W in diagrams:
        for f in r_poly_edge(W).factors:
            key = entry_key(W.to_json(), f.to_json())
            (codim_one if factor_codim(W, f) == CODIM_ONE else other).add(key)
    return len(diagrams), codim_one, other


def _pins(expect: dict[str, int], found: dict[str, int]) -> list[str]:
    return [
        f"{name}: expected {want}, found {found[name]}"
        for name, want in expect.items()
        if found[name] != want
    ]


def check_cancel(
    text: bytes, rc: int, spec: dict, expect: dict[str, int], parts: tuple
) -> tuple[list[str], int]:
    """Problems in one `wlpoles cancel --format json` report, and the
    number of entries it resolved (members of verified groups)."""
    n_diagrams, codim_one, other = parts
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        report = json.loads(text)
    except ValueError as exc:
        return problems + [f"report is not JSON: {exc}"], 0
    for field in ("k", "n", "seed", "trials"):
        if report.get(field) != spec[field]:
            problems.append(f"{field} echoed as {report.get(field)!r}, ran {spec[field]!r}")
    if report.get("status") != "complete":
        problems.append(f"status is {report.get('status')!r}")
    groups = report.get("groups", [])
    unverified = sum(not g.get("verified") for g in groups)
    if unverified:
        problems.append(f"{unverified} groups are not verified")
    membership: dict[str, int] = {}
    for g in groups:
        for m in g["members"]:
            key = entry_key(m["diagram"], m["factor"])
            membership[key] = membership.get(key, 0) + 1
    not_once = [key for key in codim_one if membership.get(key) != 1]
    if not_once:
        problems.append(f"{len(not_once)} codim-one entries are not in exactly one group")
    stray = set(membership) - codim_one
    if stray:
        problems.append(f"{len(stray)} group members are not codim-one entries")
    excluded = [(entry_key(x["diagram"], x["factor"]), x["case"]) for x in report.get("excluded", [])]
    if sorted(key for key, _ in excluded) != sorted(other):
        problems.append("excluded entries differ from the higher-codimension entries")
    bad_case = [case for _, case in excluded if case not in (CASE1A, CASE3A)]
    if bad_case:
        problems.append(f"excluded entries with case {sorted(set(bad_case))}")
    found = {"diagrams": n_diagrams, "entries": len(codim_one), "groups": len(groups)}
    problems += _pins(expect, found)
    resolved = sum(len(g["members"]) for g in groups if g.get("verified"))
    return problems, 0 if problems else resolved


def check_front_half(text: bytes, rc: int, expect: dict[str, int]) -> tuple[list[str], int]:
    """Problems in one front_half output, and the entries it resolved
    (codim-one entries whose partner group was built)."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        out = json.loads(text)
    except ValueError as exc:
        return problems + [f"output is not JSON: {exc}"], 0
    if out["routes_agree"] != out["diagrams"]:
        problems.append(f"R routes agree on {out['routes_agree']} of {out['diagrams']} diagrams")
    problems += _pins(expect, out)
    return problems, 0 if problems else out["entries"] - len(out["failed"])


def check_output(op: str, text: bytes, rc: int, spec: dict, expect: dict, parts) -> tuple[list[str], int]:
    """Problems and resolved entries of one output; a malformed one fails."""
    try:
        if op == "cancel":
            return check_cancel(text, rc, spec, expect, parts)
        return check_front_half(text, rc, expect)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"], 0


def check_repeats(texts: list[bytes]) -> list[str]:
    """Repetitions with one seed must write byte-identical output."""
    digests = {hashlib.sha256(t).hexdigest() for t in texts}
    return [] if len(digests) == 1 else [f"{len(texts)} repetitions wrote {len(digests)} different outputs"]
