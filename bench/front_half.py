"""The pre-verification half of `amplitude_report`, driven through library calls.

It makes the calls `amplitude_report` makes before verification: enumerate,
check the three R routes per diagram, then classify, take the codimension
of and build the partner group for every factor. Unlike `amplitude_report`
it records a failed partner construction and goes on, so it runs at k = 3,
where `wlpoles cancel` aborts at the first failure. The diagram order is
shuffled by the seed; the output is sorted, so it does not depend on it.

Calls go through module attributes so that a tracer installed on the
modules sees them.
"""

from __future__ import annotations

import json
import random

from wlpoles import cancel, diagrams, poles
from wlpoles.errors import InconsistencyError, StructuralError


def run(k: int, n: int, seed: int, out: str) -> None:
    order = diagrams.enumerate_diagrams(k, n)
    random.Random(seed).shuffle(order)
    routes_agree = factors = 0
    entries: list[str] = []
    excluded: list[str] = []
    failed: list[list[str]] = []
    groups: set[tuple[str, ...]] = set()
    for W in order:
        if poles.check_r_equalities(W).ok:
            routes_agree += 1
        for f in poles.r_poly_edge(W).factors:
            factors += 1
            token = f"{cancel.diagram_token(W)}/{f.label()}"
            tag = cancel.classify(W, f)
            if poles.factor_codim(W, f) != poles.CODIM_ONE:
                excluded.append(f"{token} {tag}")
                continue
            entries.append(token)
            if tag in (cancel.CASE1A, cancel.CASE3A):
                failed.append([token, f"case {tag} but codimension one"])
                continue
            try:
                groups.add(cancel.partners(W, f).key())
            except (InconsistencyError, StructuralError) as exc:
                failed.append([token, f"{type(exc).__name__}: {exc}"])
    payload = {
        "k": k,
        "n": n,
        "diagrams": len(order),
        "routes_agree": routes_agree,
        "factors": factors,
        "entries": len(entries),
        "excluded": sorted(excluded),
        "groups": len(groups),
        "failed": sorted(failed),
    }
    with open(out, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
