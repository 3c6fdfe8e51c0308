"""The partner rule: every partner of a factor adds a propagator whose
support contains the factor's vanishing row."""

from collections import Counter

import pytest

from wlpoles.cancel import CASE1, CASE2, _moves, _partner_moves, classify, partners
from wlpoles.diagrams import Propagator, WilsonLoopDiagram, enumerate_diagrams, vertex_support
from wlpoles.errors import StructuralError
from wlpoles.matroids import mask_of
from wlpoles.poles import limit, pole_var, r_poly_edge

# tag counts over every factor of every diagram, as the slide/hop case
# analysis that the rule replaced gave them
TAG_COUNTS = {
    (2, 8): {"1": 512, "1a": 64, "2": 160, "2a": 64, "3": 48, "3b": 32},
    (3, 8): {"1": 1152, "1a": 512, "2": 480, "2a": 416, "3": 216, "3a": 48, "3b": 256},
}

# (factor kind, partner propagators, moves) over every factor of every
# diagram: a quadratic is narrow when its vanishing row has three vertices
PREMISE_COUNTS = {
    (2, 8): {("var", 1, 1): 800, ("wide", 1, 2): 48, ("narrow", 2, 2): 32},
    (3, 8): {("var", 1, 1): 2560, ("wide", 1, 2): 264, ("narrow", 2, 2): 256},
}


def partner(p, v, n):
    """The rule's one move for the single entry x[p, v], as the partner
    propagator q that replaces p and the vertex q adds."""
    ((remove, q, on, col),) = _partner_moves((p,), 1 << (v - 1), n)
    assert remove == p and on == (q,)
    return q, col


def limit_system(W, p, v):
    """Row supports of W with v removed from the row of p, as a sorted list."""
    rows = (set(vertex_support(x, W.n)) - ({v} if x == p else set()) for x in W.props)
    return sorted(tuple(sorted(r)) for r in rows)


@pytest.mark.parametrize("shape", sorted(TAG_COUNTS))
def test_tag_counts(shape):
    tags = Counter(
        classify(W, f) for W in enumerate_diagrams(*shape) for f in r_poly_edge(W).factors
    )
    assert dict(tags) == TAG_COUNTS[shape]


@pytest.mark.parametrize("shape", sorted(PREMISE_COUNTS))
def test_partner_propagators_per_factor_kind(shape):
    """One partner propagator for a single entry and a wide quadratic, two
    for a narrow one, each replacing one own row, or both when it crosses
    neither; every partner's support holds the vanishing row."""
    counts = Counter()
    for W in enumerate_diagrams(*shape):
        for f in r_poly_edge(W).factors:
            lim = limit(W, f)
            R = lim.masks[lim.q]
            kind = "var" if f.kind == "var" else "narrow" if R.bit_count() == 3 else "wide"
            moves = _moves(W, f)
            ys = {y for _, y, _, _ in moves}
            assert all(mask_of(vertex_support(y, W.n)) & R == R for y in ys)
            counts[kind, len(ys), len(moves)] += 1
    assert dict(counts) == PREMISE_COUNTS[shape]


@pytest.mark.parametrize("shape", sorted(TAG_COUNTS))
def test_pair_partners_follow_the_rule(shape):
    n = shape[1]
    pairs = 0
    for W in enumerate_diagrams(*shape):
        for f in r_poly_edge(W).factors:
            tag = classify(W, f)
            if f.kind != "var" or tag not in (CASE1, CASE2):
                continue
            p, v = W.props[f.rows[0] - 1], f.cols[0]
            q, col = partner(p, v, n)
            assert partner(q, col, n) == (p, v)
            W2 = WilsonLoopDiagram(n, tuple(x for x in W.props if x != p) + (q,))
            f2 = pole_var(W2.props.index(q) + 1, col)
            assert limit_system(W, p, v) == limit_system(W2, q, col)
            assert classify(W2, f2) == tag
            members = {(m.diagram, m.factor) for m in partners(W, f).members}
            assert members == {(W, f), (W2, f2)}
            pairs += 1
    assert pairs == TAG_COUNTS[shape]["1"] + TAG_COUNTS[shape]["2"]


def test_rule_goldens():
    # generic support: slide the end nearest v
    assert partner(Propagator.of(1, 4), 1, 8) == (Propagator.of(2, 4), 3)
    assert partner(Propagator.of(1, 4), 2, 8) == (Propagator.of(4, 8), 8)
    # consecutive support 1..4: outer vertices hop both ends, inner ones slide
    assert partner(Propagator.of(1, 3), 1, 8) == (Propagator.of(2, 4), 5)
    assert partner(Propagator.of(1, 3), 4, 8) == (Propagator.of(2, 8), 8)
    assert partner(Propagator.of(1, 3), 2, 8) == (Propagator.of(3, 8), 8)
    # quadratics on edge 1 with near row (1, 3), far row first: a wide one
    # swaps each row for the chord (3, 5) and keeps the quadratic of the
    # other row and the chord; a narrow one swaps each row for the short
    # propagator that crosses it and takes the vertex that adds
    P = Propagator.of
    assert _partner_moves((P(1, 5), P(1, 3)), 0b11, 6) == (
        (P(1, 5), P(3, 5), (P(1, 3), P(3, 5)), 3),
        (P(1, 3), P(3, 5), (P(1, 5), P(3, 5)), 5),
    )
    assert _partner_moves((P(1, 4), P(1, 3)), 0b11, 7) == (
        (P(1, 4), P(3, 5), (P(3, 5),), 6),
        (P(1, 3), P(2, 4), (P(2, 4),), 2),
    )


def test_rule_rejects_a_factor_not_of_r():
    # vertex 6 is not in the support of (1, 4)
    W = WilsonLoopDiagram.of(8, (Propagator.of(1, 4),))
    with pytest.raises(StructuralError, match="is not a factor of R"):
        _moves(W, pole_var(1, 6))
