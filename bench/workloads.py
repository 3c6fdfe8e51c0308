"""The benchmark's workloads, with why each was chosen and what it predicts.

Three shapes are left out on purpose:

- (2,8) takes about 100 s per operation today, too long for the 22 runs a
  comparison makes. Add it once shared twistor samples (ROADMAP item 2) land.
- (3,7) cannot run through the CLI: `wlpoles cancel -k 3` aborts at its first
  narrow factor without a report. `pair_k3n9` covers k = 3 through library
  calls instead, and counts the failed partner constructions as data.
- (1,8) would be a third workload. On a 2-vCPU host whose CPU speed drifts by
  a third within minutes, only two fit a comparison's time budget with runs
  long enough to average the drift out. `cancel_k2n7` runs every layer (1,8)
  runs, and `pair_k3n9` is the one that bypasses sampling.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "cancel": the CLI end to end; "front_half": library calls
    k: int
    n: int
    trials: int
    expect: dict[str, int]  # counts the correctness gate pins exactly
    why: str
    predicts: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cancel_k2n7",
            op="cancel",
            k=2,
            n=7,
            trials=10,
            expect={"diagrams": 56, "entries": 364, "groups": 168},
            why="every module runs and verification dominates: pairs, wide and "
            "narrow triples, twistor sampling, localization and row-space ranks",
            predicts="shared twistor samples and Bareiss kernels (ROADMAP item 2) cut "
            "sampling, mat_det, localize and mat_rank self time (about 95 % of "
            "wall_s); one per-diagram context (ROADMAP item 3) moves under 2 %",
        ),
        Workload(
            name="pair_k3n9",
            op="front_half",
            k=3,
            n=9,
            trials=0,
            expect={"diagrams": 825, "factors": 8595, "entries": 7425},
            why="the pre-verification half at k = 3: no sampling or localize "
            "calls, 43,095 r_poly_edge and 55,260 validate calls, and the "
            "k = 3 partner failures",
            predicts="ROADMAP item 2 leaves it unchanged; item 3 cuts r_poly_edge, "
            "validate and their callers (about half of wall_s); item 5 "
            "raises resolved_ratio from 7065/7425",
        ),
    )
}
