"""The one-shot row-space certificate and the evaluate-once probes under it.

`row_space_match` is an exact proof run once per group: every member
meets every other member's own symbolic limit point. Its rows come from
`_within`, the factor vanishing is a polynomial identity, and the rank
is taken at one integer point. `--trials` counts only the sign samples.
"""

import dataclasses
import random
from fractions import Fraction
from itertools import combinations

import wlpoles.cancel
from wlpoles.cancel import (
    _within,
    amplitude_report,
    partners,
    verify_group,
)
from wlpoles.diagrams import Propagator, WilsonLoopDiagram, enumerate_diagrams
from wlpoles.exact import Polynomial, VarId, mat_rank, poly_det, specialize
from wlpoles.matroids import set_of
from wlpoles.poles import limit, limit_matroid, pole_quad, pole_var, r_poly_edge

from oracles import MatrixMatroid

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
    meet, within, rank = wlpoles.cancel._meet, wlpoles.cancel._within, wlpoles.cancel.mat_rank

    def counted_meet(*args):
        calls.append("meet")
        return meet(*args)

    def counted_within(*args):
        calls.append("within")
        return within(*args)

    def counted_rank(rows):
        calls.append("rank")
        return rank(rows)

    monkeypatch.setattr(wlpoles.cancel, "_meet", counted_meet)
    monkeypatch.setattr(wlpoles.cancel, "_within", counted_within)
    monkeypatch.setattr(wlpoles.cancel, "mat_rank", counted_rank)
    seen = {}
    for trials in (1, 3, 10):
        calls.clear()
        assert all(verify_group(g, trials=trials, seed=1).verified for g in groups)
        seen[trials] = tuple(calls.count(c) for c in ("meet", "within", "rank"))
    assert seen[1] == seen[3] == seen[10]
    assert seen[1][0] == len(groups)
    # one row per (limit point, propagator of the other members)
    assert seen[1][1] == sum(
        len({x for b in g.members if b is not a for x in b.diagram.props}) for g in groups for a in g.members
    )


# -- each part of row_space_match can fail -----------------------------------


def test_row_space_fails_when_a_partner_column_moves():
    g = partners(W42, pole_var(1, 3))
    m = g.members[1]
    row = m.diagram.props[m.factor.rows[0] - 1]
    other = next(c for c in sorted(m.diagram.support(row)) if c != m.factor.cols[0])
    bad, _ = replace_member(g, 1, pole_var(m.factor.rows[0], other))
    checked = verify_group(bad, trials=3, seed=1)
    assert dict(checked.checks)["row_space_match"] is False
    assert (
        "row space: var:1:1 of ({(1,4),(1,5)},[6]) does not vanish at the limit of 1-3;1-5/var:1:3"
        in checked.failures
    )


def test_row_space_fails_when_a_triple_column_moves():
    g = partners(W3B, pole_quad(1, 2, 1, 2))
    single = g.members[1]
    assert single.token() == "1-3;3-5/var:2:6"
    bad, _ = replace_member(g, 1, pole_var(2, 3))
    checked = verify_group(bad, trials=3, seed=1)
    assert dict(checked.checks)["row_space_match"] is False
    assert (
        "row space: var:2:3 of ({(1,3),(3,5)},[6]) does not vanish at the limit of 1-3;1-4/quad:1:2:1:2"
        in checked.failures
    )


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
    assert vanish == [
        "row space: quad:2:3:5:6 of ({(1,3),(3,5),(5,7)},[7]) does not vanish"
        " at the limit of 1-3;1-5;5-7/quad:1:2:1:2"
    ]


def test_row_space_fails_when_a_propagator_gets_no_row(monkeypatch):
    g = partners(W42, pole_var(1, 3))
    shared = next(x for x in g.members[0].diagram.props if x in g.members[1].diagram.props)
    dropped = frozenset(g.members[0].diagram.support(shared))
    within = wlpoles.cancel._within

    def no_row(rows, support):
        return {} if support == dropped else within(rows, support)

    monkeypatch.setattr(wlpoles.cancel, "_within", no_row)
    checked = verify_group(g, trials=3, seed=1)
    assert dict(checked.checks)["row_space_match"] is False
    a, b = g.members
    assert checked.failures == (f"row space: {b.token()} does not reach the limit of {a.token()}",)


# -- generic meets read the limit matroid's rank ------------------------------


def test_pair_meets_take_the_limit_matroid_rank(monkeypatch):
    """At (2,7) every pair meet is two single entries on each other's own
    generic rows, so no pair builds a point or takes a numeric rank; every
    triple has a quadratic member and still does."""
    calls = []
    spec, rank = wlpoles.cancel.specialize, wlpoles.cancel.mat_rank
    monkeypatch.setattr(wlpoles.cancel, "specialize", lambda *a: calls.append("specialize") or spec(*a))
    monkeypatch.setattr(wlpoles.cancel, "mat_rank", lambda rows: calls.append("rank") or rank(rows))
    groups = amplitude_report(2, 7, seed=0, trials=1).groups
    calls.clear()
    by_kind = {}
    for g in groups:
        before = len(calls)
        assert verify_group(g, trials=1).verified
        by_kind.setdefault(g.kind, []).append(calls[before:])
    assert len(by_kind["pair"]) == 140 and not any(by_kind["pair"])
    triples = by_kind["wide"] + by_kind["narrow"]
    assert len(triples) == 28
    assert all(c.count("specialize") == c.count("rank") == 6 for c in triples)  # one per ordered pair


def test_single_entry_limit_key_is_the_mask_system_of_its_limit_supports():
    """The premise of the rank rule: a single entry's generic rows sit on
    the one set system whose transversal matroid ``limit_rank`` reads, and
    their rank at a random point is that matroid's rank (Edmonds)."""
    rng = random.Random(3)
    seen = 0
    for k, n in ((2, 7), (3, 7)):
        for W in enumerate_diagrams(k, n):
            for f in r_poly_edge(W).factors:
                if f.kind != "var":
                    continue
                lim = limit(W, f)
                supports = tuple(map(set_of, lim.masks))
                assert lim.systems == (lim.masks,)
                assert lim.key == (tuple(sorted(lim.masks)),)
                rows = lim.rows()
                assert rows == generic_rows(supports)
                M = limit_matroid(n, lim.key)
                assert mat_rank(specialize(rows, n, {}, rng)) == min(M.basis_masks()).bit_count()
                seen += 1
    assert seen > 1000


def test_row_space_fails_when_within_repeats_a_row(monkeypatch):
    """A partner whose rows at a single entry's point use one of its rows
    twice does not meet it: the rank rule needs each row used once, so the
    numeric rank runs and finds rank k - 1."""
    g = partners(W42, pole_var(1, 3))
    within = wlpoles.cancel._within

    def repeat(rows, support):
        got = within(rows, support)
        return rows[0] if got is rows[1] else got

    monkeypatch.setattr(wlpoles.cancel, "_within", repeat)
    checked = verify_group(g, trials=3, seed=1)
    assert dict(checked.checks)["row_space_match"] is False
    a, b = g.members
    assert checked.failures == (f"row space: {b.token()} does not reach the limit of {a.token()}",)


# -- the rows of a limit point ------------------------------------------------


def generic_rows(supports):
    return [{c: Polynomial.variable(VarId(r, c)) for c in sorted(V)} for r, V in enumerate(supports, 1)]


def in_span(rows, row, n):
    """Exact: every maximal minor of ``rows`` stacked on ``row`` vanishes."""
    grid = [[r.get(c, Polynomial()) for c in range(1, n + 1)] for r in [*rows, row]]
    minors = ([[line[c] for c in cols] for line in grid] for cols in combinations(range(n), len(grid)))
    return all(poly_det(minor).is_zero() for minor in minors)


def test_within_returns_a_span_row_inside_the_support():
    rows = generic_rows([{1, 2, 3, 4}, {3, 4, 5, 6}])
    assert _within(rows, frozenset({2, 3, 4, 5})) == {}  # two columns to clear, two rows
    assert _within(rows, frozenset({3, 4, 5, 6, 1})) is rows[1]  # inside as it is
    got = _within(rows, frozenset({1, 2, 3, 5, 6}))  # column 4 eliminated
    assert got and set(got) <= {1, 2, 3, 5, 6}
    assert all(not v.is_zero() for v in got.values())
    assert in_span(rows, got, 6)
    assert not in_span(rows, {1: Polynomial.variable(VarId(9, 1))}, 6)
    # a quadratic's limit rows: the far row's eliminated display support
    W = WilsonLoopDiagram(6, (Propagator.of(1, 3), Propagator.of(1, 5)))
    lim = limit(W, pole_quad(1, 2, 1, 2))
    lam = lim.rows()
    for support in map(set_of, lim.masks):
        got = _within(lam, support)
        assert got and set(got) <= support and in_span(lam, got, 6)


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
            M = MatrixMatroid(W.n, limit(W, f).rows())
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
