"""The partner rule: x[p, v] pairs with the one other propagator through V_p - {v}."""

from collections import Counter

import pytest

from wlpoles.cancel import CASE1, CASE2, _through, classify, partners
from wlpoles.diagrams import Propagator, WilsonLoopDiagram, enumerate_diagrams, vertex_support
from wlpoles.errors import StructuralError
from wlpoles.poles import pole_var, r_poly_edge

# tag counts over every factor of every diagram, as the slide/hop case
# analysis that the rule replaced gave them
TAG_COUNTS = {
    (2, 8): {"1": 512, "1a": 64, "2": 160, "2a": 64, "3": 48, "3b": 32},
    (3, 8): {"1": 1152, "1a": 512, "2": 480, "2a": 416, "3": 216, "3a": 48, "3b": 256},
}


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
            q, col = _through(p, v, n)
            assert _through(q, col, n) == (p, v)
            W2 = WilsonLoopDiagram(n, tuple(x for x in W.props if x != p) + (q,))
            f2 = pole_var(W2.props.index(q) + 1, col)
            assert limit_system(W, p, v) == limit_system(W2, q, col)
            assert classify(W2, f2) == tag
            members = {(m.diagram, m.factor) for m in partners(W, f).members}
            assert members == {(W, f), (W2, f2)}
            pairs += 1
    assert pairs == TAG_COUNTS[shape]["1"] + TAG_COUNTS[shape]["2"]


def test_through_goldens():
    # generic support: slide the end nearest v
    assert _through(Propagator.of(1, 4), 1, 8) == (Propagator.of(2, 4), 3)
    assert _through(Propagator.of(1, 4), 2, 8) == (Propagator.of(4, 8), 8)
    # consecutive support 1..4: outer vertices hop both ends, inner ones slide
    assert _through(Propagator.of(1, 3), 1, 8) == (Propagator.of(2, 4), 5)
    assert _through(Propagator.of(1, 3), 4, 8) == (Propagator.of(2, 8), 8)
    assert _through(Propagator.of(1, 3), 2, 8) == (Propagator.of(3, 8), 8)


def test_through_rejects_vertex_outside_support():
    with pytest.raises(StructuralError):
        _through(Propagator.of(1, 4), 6, 8)
