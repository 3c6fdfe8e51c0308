"""End-to-end acceptance checks.

Each test covers one headline guarantee of the package, prints a
single pass line with its runtime, and enforces the stated budget.
All arithmetic is exact; there are no numeric tolerances anywhere.
Run with -s to see the lines; under plain pytest the per-test
PASSED/FAILED row carries the same information.
"""

import hashlib
import random
import time
from fractions import Fraction
from functools import lru_cache

from wlpoles.cancel import (
    amplitude_report,
    classify,
    diagram_token,
    localize,
    partners,
    report_json,
)
from wlpoles.diagrams import Propagator, WilsonLoopDiagram, enumerate_diagrams
from wlpoles.exact import Polynomial, VarId
from wlpoles.matrices import jacobian_det
from wlpoles.matroids import TransversalMatroid, check_rank_oracle
from wlpoles.poles import (
    CODIM_GE2,
    CODIM_ONE,
    check_r_equalities,
    cover_factors,
    factor_codim,
    pole_var,
    r_poly_edge,
    r_poly_necklace,
)
from wlpoles.positroids import diagram_matroid, is_minimal, necklace
from wlpoles.sampling import twistor_data

from oracles import vanish_on_boundary_witness

V1 = [{1, 2, 4, 5}, {1, 2, 3, 4}]
V2 = [{1, 2, 4, 5}, {2, 3, 4, 5}]
W42 = WilsonLoopDiagram(6, (Propagator.of(1, 3), Propagator.of(1, 5)))

# sha256 of report_json at seed 0, 10 trials: the certificate bytes
REPORT_SHA256 = {
    (1, 5): "4f0a96e693560b65818ce84601de7a7e4dd03709d65b34847ac94d6effe9fdd5",
    (1, 6): "9997676f5617e5efb497ea21555168ce4ceee08b00c9ee81dd98a250c759b42a",
    (1, 7): "51cdc6a099320dd889150b8ef36a04df5f9cc5dabb34c75786702344a2f7c2ce",
    (2, 6): "2ba0561e44d4ec5239668616f020d79cae1da358af84c3adbbc0179dde427f2f",
    (2, 7): "0382023fd42f6f6c4097f5d56404bbbfae42218365fce7f7b68d4f36e9c4c01c",
}

SWEEP_SHAPES = [(1, 5), (1, 6), (1, 7), (1, 8), (2, 6), (2, 7), (2, 8)]


@lru_cache(maxsize=1)
def sweep():
    out = []
    for k, n in SWEEP_SHAPES:
        out.extend(enumerate_diagrams(k, n))
    return out


def passline(num, label, t0, budget=None):
    dt = time.perf_counter() - t0
    print(f"criterion {num:>2}: PASS  {label}  ({dt:.2f}s)")
    if budget is not None:
        assert dt < budget, f"criterion {num} took {dt:.2f}s, budget {budget}s"


def test_criterion_01_necklace_goldens():
    t0 = time.perf_counter()
    assert necklace(TransversalMatroid(6, V1)) == [
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 2),
    ]
    assert necklace(diagram_matroid(W42)) == [
        (1, 2), (2, 3), (3, 5), (4, 5), (5, 1), (6, 1),
    ]
    passline(1, "necklace goldens", t0, budget=1.0)


def test_criterion_02_r_polynomial_goldens():
    t0 = time.perf_counter()
    r1 = {f.label() for f in r_poly_necklace(V1, 6).factors}
    assert r1 == {
        "quad:1:2:1:2", "var:1:2", "var:1:4", "var:1:5",
        "var:2:1", "var:2:3", "var:2:4",
    }
    r2 = {f.label() for f in r_poly_necklace(V2, 6).factors}
    assert r2 == {
        "quad:1:2:4:5", "var:1:1", "var:1:2", "var:1:4",
        "var:2:2", "var:2:3", "var:2:5",
    }
    passline(2, "square-free pole polynomial goldens", t0, budget=1.0)


def test_criterion_03_r_equality_sweep():
    t0 = time.perf_counter()
    mismatches = []
    for W in sweep():
        rep = check_r_equalities(W)
        if not rep.ok:
            mismatches.extend(rep.mismatches)
    assert mismatches == []
    passline(3, f"pole routes agree on {len(sweep())} diagrams", t0, budget=120.0)


def test_criterion_04_dimension_and_codim_goldens():
    t0 = time.perf_counter()
    for W in sweep():
        rep = is_minimal(W.supports(), W.n)
        assert rep.minimal and rep.dimension == 3 * W.k, W
    bad = is_minimal([{1, 2, 5}, {1, 2, 5, 6}], 6)
    assert not bad.minimal
    W35 = WilsonLoopDiagram(6, (Propagator.of(1, 4), Propagator.of(1, 5)))
    assert factor_codim(W35, pole_var(1, 4)) == CODIM_GE2
    passline(4, "cell dimension 3k and codimension goldens", t0, budget=30.0)


def test_criterion_05_boundary_witnesses():
    t0 = time.perf_counter()
    count = 0
    for W in sweep():
        for f in r_poly_edge(W).factors:
            wit = vanish_on_boundary_witness(W, f, seed=11)
            assert wit.vanishing_shifts
            count += 1
    passline(5, f"boundary witnesses for {count} factors", t0, budget=120.0)


def test_criterion_06_jacobian_identity():
    t0 = time.perf_counter()
    old = tuple(VarId(1, c) for c in (1, 2, 3, 4))
    new = tuple(VarId(2, c) for c in (1, 2, 3, 4))
    x, y, z, w = (Polynomial.variable(t) for t in new)
    subst = {old[0]: x, old[1]: y, old[2]: x * z, old[3]: z * y + w}
    assert jacobian_det(old, new, subst) == x
    passline(6, "reparameterization Jacobian equals x", t0, budget=1.0)


def test_criterion_07_localization_sign_identity():
    t0 = time.perf_counter()
    for f, case in ((pole_var(1, 3), "1"), (pole_var(1, 1), "2")):
        g = partners(W42, f)
        assert g.case == case
        m1, m2 = g.members
        for seed in range(10):
            Z = twistor_data(2, 6, seed=seed)
            a1 = localize(m1.diagram, Z)
            a2 = localize(m2.diagram, Z)
            v1 = a1[VarId(m1.factor.rows[0], m1.factor.cols[0])]
            v2 = a2[VarId(m2.factor.rows[0], m2.factor.cols[0])]
            assert v1 != 0 and v1 == -v2
    passline(7, "localized sign identity on 10 seeds per case", t0)


def test_criterion_08_cancellation_partition():
    t0 = time.perf_counter()
    for (k, n), digest in REPORT_SHA256.items():
        rep = amplitude_report(k, n, seed=0, trials=10)
        assert rep.status == "complete", (k, n, rep.failures)
        assert hashlib.sha256(report_json(rep).encode()).hexdigest() == digest, (k, n)
        assert all(g.verified for g in rep.groups)

        membership: dict[str, int] = {}
        for g in rep.groups:
            for tok in g.key():
                membership[tok] = membership.get(tok, 0) + 1
        excluded_tokens = {
            f"{diagram_token(e.diagram)}/{e.factor.label()}" for e in rep.excluded
        }
        for W in enumerate_diagrams(k, n):
            for f in r_poly_edge(W).factors:
                tok = f"{diagram_token(W)}/{f.label()}"
                if factor_codim(W, f) == CODIM_ONE:
                    assert membership.get(tok) == 1, tok
                else:
                    assert tok in excluded_tokens and tok not in membership, tok
        for e in rep.excluded:
            assert classify(e.diagram, e.factor) in ("1a", "3a")
            assert factor_codim(e.diagram, e.factor) == CODIM_GE2
    passline(8, "cancellation partition complete for five amplitudes", t0,
             budget=600.0)


def test_criterion_09_boundary_without_pole():
    """W42's cell has exactly one cover that no factor of R hits: the cell
    (3,7,4,5,6,8) of the rows {1,2}, [6]."""
    t0 = time.perf_counter()
    covers = cover_factors(W42)
    assert len(covers) == 8
    assert [g for g, fs in covers.items() if not fs] == [(3, 7, 4, 5, 6, 8)]
    assert all(len(fs) == 1 for g, fs in covers.items() if g != (3, 7, 4, 5, 6, 8))
    passline(9, "one pole-free boundary cover", t0, budget=1.0)


def test_criterion_10_rank_oracle_agreement():
    t0 = time.perf_counter()
    rng = random.Random(20240817)
    pool = [diagram_matroid(W) for W in enumerate_diagrams(2, 7)]
    checked = 0
    while checked < 1000:
        if rng.random() < 0.5 and pool:
            M = rng.choice(pool)
        else:
            n = rng.randint(4, 9)
            rows = [
                frozenset(rng.sample(range(1, n + 1), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 4))
            ]
            M = TransversalMatroid(n, rows)
        S = rng.sample(range(1, M.n + 1), rng.randint(0, M.n))
        check_rank_oracle(M, S, seeds=(rng.randint(1, 10**6),))
        checked += 1
    passline(10, "Hall rank matches numeric rank on 1000 queries", t0)
