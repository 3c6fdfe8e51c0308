"""The one-shot row-space certificate and the evaluate-once probes under it.

`row_space_match` is an exact proof run once per group: a reach check
between the members' own limits, then one shared boundary point whose
leaks and factor vanishing are polynomial identities and whose ranks are
taken at one integer point. `--trials` counts only the sign samples.
"""

import dataclasses
import random
from fractions import Fraction

import wlpoles.cancel
from wlpoles.cancel import amplitude_report, partners, verify_group
from wlpoles.diagrams import Propagator, WilsonLoopDiagram, enumerate_diagrams
from wlpoles.exact import Polynomial, VarId, mat_rank, specialize
from wlpoles.matroids import MatrixMatroid
from wlpoles.poles import limit_rows, pole_quad, pole_var, quad_geometry, r_poly_edge

W42 = WilsonLoopDiagram(6, (Propagator.of(1, 3), Propagator.of(1, 5)))
W3B = WilsonLoopDiagram(6, (Propagator.of(1, 3), Propagator.of(1, 4)))


def replace_member(g, index, factor):
    members = list(g.members)
    members[index] = dataclasses.replace(members[index], factor=factor)
    return dataclasses.replace(g, members=tuple(members)), members[index]


# -- trials count only the sign samples --------------------------------------


def test_checks_do_not_depend_on_trials():
    one = amplitude_report(2, 6, seed=0, trials=1)
    ten = amplitude_report(2, 6, seed=0, trials=10)
    assert [g.key() for g in one.groups] == [g.key() for g in ten.groups]
    assert [g.checks for g in one.groups] == [g.checks for g in ten.groups]
    assert one.status == ten.status == "complete"


def test_row_space_certificate_runs_once_per_group(monkeypatch):
    groups = [
        partners(W42, pole_var(1, 3)),  # pair
        partners(W42, pole_quad(1, 2, 1, 2)),  # wide triple
        partners(W3B, pole_quad(1, 2, 1, 2)),  # narrow triple
    ]
    calls = []
    trial, rank = wlpoles.cancel._row_space_trial, wlpoles.cancel.mat_rank

    def counted_trial(*args):
        calls.append("trial")
        return trial(*args)

    def counted_rank(rows):
        calls.append("rank")
        return rank(rows)

    monkeypatch.setattr(wlpoles.cancel, "_row_space_trial", counted_trial)
    monkeypatch.setattr(wlpoles.cancel, "mat_rank", counted_rank)
    seen = {}
    for trials in (1, 3, 10):
        calls.clear()
        assert all(verify_group(g, trials=trials, seed=1).verified for g in groups)
        seen[trials] = (calls.count("trial"), calls.count("rank"))
    assert seen[1] == seen[3] == seen[10]
    assert seen[1][0] == len(groups)


# -- each part of row_space_match can fail -----------------------------------


def test_row_space_fails_when_a_partner_column_moves():
    g = partners(W42, pole_var(1, 3))
    base, m = g.members
    row = m.diagram.props[m.factor.rows[0] - 1]
    other = next(c for c in sorted(m.diagram.support(row)) if c != m.factor.cols[0])
    bad, moved = replace_member(g, 1, pole_var(m.factor.rows[0], other))
    checked = verify_group(bad, trials=3, seed=1)
    assert dict(checked.checks)["row_space_match"] is False
    assert f"row space: {moved.token()} does not reach the limit of {base.token()}" in checked.failures


def test_row_space_fails_when_a_triple_column_moves():
    g = partners(W3B, pole_quad(1, 2, 1, 2))
    single = g.members[1]
    assert single.token() == "1-3;3-5/var:2:6"
    bad, moved = replace_member(g, 1, pole_var(2, 3))
    checked = verify_group(bad, trials=3, seed=1)
    assert dict(checked.checks)["row_space_match"] is False
    assert f"row space: {moved.token()} does not reach the limit of {g.members[0].token()}" in checked.failures


def test_row_space_names_a_quadratic_factor_that_does_not_vanish():
    W = WilsonLoopDiagram(7, (Propagator.of(1, 3), Propagator.of(1, 5), Propagator.of(5, 7)))
    g = partners(W, pole_quad(1, 2, 1, 2))
    assert g.kind == "wide" and verify_group(g, trials=1).verified
    wrong = pole_quad(2, 3, 5, 6)  # a factor of that member, on the other shared edge
    assert wrong in r_poly_edge(g.members[1].diagram).factor_set()
    bad, _ = replace_member(g, 1, wrong)
    checked = verify_group(bad, trials=1)
    assert dict(checked.checks)["row_space_match"] is False
    vanish = [f for f in checked.failures if "does not vanish at the limit" in f]
    assert len(vanish) == 1
    assert vanish[0].startswith("row space: quad:2:3:5:6 of ({(1,3),(3,5),(5,7)},[7])")


def corrupt_boundary(monkeypatch, change):
    """Run `change(vectors, group)` on every boundary point that is built."""
    build = wlpoles.cancel._boundary_vectors

    def corrupted(g):
        vectors = build(g)
        change(vectors, g)
        return vectors

    monkeypatch.setattr(wlpoles.cancel, "_boundary_vectors", corrupted)


def test_row_space_fails_on_a_leaking_boundary_vector(monkeypatch):
    def leak(vectors, g):
        W = g.members[0].diagram
        p = W.props[0]
        outside = next(c for c in range(1, W.n + 1) if c not in W.support(p))
        vectors[p] = {**vectors[p], outside: Polynomial.variable(VarId(0, 99))}

    corrupt_boundary(monkeypatch, leak)
    checked = verify_group(partners(W42, pole_var(1, 3)), trials=3, seed=1)
    assert dict(checked.checks)["row_space_match"] is False
    assert any(f.startswith("row space: value map leaks outside") for f in checked.failures)


def test_row_space_fails_on_a_rank_deficient_boundary_point(monkeypatch):
    def drop(vectors, g):
        shared = next(x for x in vectors if all(x in m.diagram.props for m in g.members))
        vectors[shared] = {}  # no leak, no factor touched: only the rank drops

    corrupt_boundary(monkeypatch, drop)
    checked = verify_group(partners(W42, pole_var(1, 3)), trials=3, seed=1)
    assert dict(checked.checks)["row_space_match"] is False
    assert any("does not have rank 2" in f for f in checked.failures)


# -- evaluate once -----------------------------------------------------------


def per_query_numeric_rank(M, cols):
    """The probe lower bound as it was computed before: the rows evaluated
    at the probe point for this column set alone."""
    grid = [[row[c].evaluate(M._probe) if c in row else Fraction(0) for c in cols] for row in M.rows]
    return mat_rank(grid)


def per_query_rank(M, mask):
    cols = [v + 1 for v in range(M.n) if mask >> v & 1]
    if not cols:
        return 0
    r = per_query_numeric_rank(M, cols)
    cap = min(len(M.rows), len(cols))
    while r < cap and M._has_nonzero_minor(cols, r + 1):
        r += 1
    return r


def test_probe_matrix_agrees_with_per_query_evaluation():
    matrices = 0
    for W in enumerate_diagrams(2, 7):
        for f in r_poly_edge(W).factors:
            if f.kind != "quad":
                continue
            e, near, far, _, _ = quad_geometry(W, f)
            rows = limit_rows(W.supports(), W.n, W.props.index(near) + 1, W.props.index(far) + 1, e)
            M = MatrixMatroid(W.n, rows)
            matrices += 1
            for mask in range(1, 1 << W.n):
                cols = [v + 1 for v in range(W.n) if mask >> v & 1]
                assert mat_rank(M._numeric_rows(cols)) == per_query_numeric_rank(M, cols)
                assert M.rank_mask(mask) == per_query_rank(M, mask)
    assert matrices > 0


def test_specialize_matches_evaluate():
    x, y = Polynomial.variable(VarId(1, 1)), Polynomial.variable(VarId(1, 2))
    rows = [{1: x * y - 3, 3: y}, {2: x * Fraction(1, 2) + 1}]
    point = {}
    got = specialize(rows, 3, point, random.Random(7))
    assert set(point) == {VarId(1, 1), VarId(1, 2)}
    want = [[row[c].evaluate(point) if c in row else 0 for c in (1, 2, 3)] for row in rows]
    assert got == want
    assert all(type(v) is int for v in got[0])  # integer rows build no Fraction


def test_factor_set_built_once():
    R = r_poly_edge(W42)
    assert R.factor_set() is R.factor_set()
    assert R.factor_set() == frozenset(R.factors)
