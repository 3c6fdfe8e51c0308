"""Diagram combinatorics: supports, admissibility, enumeration, edge order."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from wlpoles.diagrams import (
    Propagator,
    WilsonLoopDiagram,
    crossing,
    cyc,
    edge_order,
    enumerate_diagrams,
    is_admissible,
    validate,
    valid_propagators,
    vertex_support,
)
from wlpoles.errors import StructuralError
from wlpoles.matroids import mask_of


def test_cyc_wraps():
    assert cyc(7, 6) == 1
    assert cyc(0, 6) == 6
    assert cyc(-1, 6) == 5
    assert cyc(6, 6) == 6


def test_propagator_canonical():
    assert Propagator.of(5, 2) == Propagator.of(2, 5) == Propagator(2, 5)
    with pytest.raises(StructuralError):
        Propagator.of(3, 3)


def test_vertex_support_golden():
    assert vertex_support(Propagator.of(2, 5), 8) == (2, 3, 5, 6)
    assert vertex_support(Propagator.of(1, 7), 8) == (1, 2, 7, 8)
    # wrap: the second edge's successor vertex is 1
    assert vertex_support(Propagator.of(2, 8), 8) == (2, 3, 8, 1)


def test_vertex_support_strict_rejects_degenerate():
    with pytest.raises(StructuralError):
        vertex_support(Propagator.of(1, 2), 6)
    # the non-strict form deduplicates; density checks use it as a set
    assert vertex_support(Propagator.of(1, 2), 6, strict=False) == (1, 2, 3)


def test_crossing_golden():
    assert crossing(Propagator.of(1, 3), Propagator.of(2, 4))
    assert not crossing(Propagator.of(1, 3), Propagator.of(1, 5))
    assert not crossing(Propagator.of(1, 4), Propagator.of(2, 4))
    # nested chords do not cross
    assert not crossing(Propagator.of(1, 5), Propagator.of(2, 4))


def test_validate_reports_all_violations():
    W = WilsonLoopDiagram(8, (Propagator.of(1, 3), Propagator.of(2, 4)))
    verdict = validate(W)
    assert not verdict.admissible
    assert (Propagator.of(1, 3), Propagator.of(2, 4)) in verdict.crossing_violations

    # two propagators squeezed onto three vertices' worth of support
    W2 = WilsonLoopDiagram(8, (Propagator.of(1, 3), Propagator.of(1, 3)))
    verdict2 = validate(W2)
    assert not verdict2.admissible
    assert verdict2.local_density_violations


def old_local_density_violations(W):
    """Local density by frozenset unions over itertools subsets, listing a
    subset repeated through repeated propagators once."""
    seen = set()
    out = []
    for size in range(1, W.k + 1):
        for subset in itertools.combinations(W.props, size):
            if subset in seen:
                continue
            seen.add(subset)
            covered = set()
            for p in subset:
                covered.update(vertex_support(p, W.n, strict=False))
            if len(covered) < len(subset) + 3:
                out.append(subset)
    return tuple(out)


def test_local_density_matches_subset_enumeration():
    # every non-crossing multiset of at most 3 propagators on [6],
    # repeated and degenerate (adjacent-edge) propagators included
    props = [Propagator(a, b) for a in range(1, 7) for b in range(a + 1, 7)]
    checked = 0
    for size in range(4):
        for combo in itertools.combinations_with_replacement(props, size):
            if any(crossing(p, q) for p, q in itertools.combinations(combo, 2)):
                continue
            W = WilsonLoopDiagram(6, combo)
            assert validate(W).local_density_violations == old_local_density_violations(W), W
            checked += 1
    assert checked == 611


def test_global_density():
    assert enumerate_diagrams(1, 4) == []
    assert len(enumerate_diagrams(0, 4)) == 1
    assert enumerate_diagrams(0, 3) == []


def test_valid_propagators_count():
    # chords avoiding both degenerate separations: n(n-3)/2
    for n in range(4, 10):
        assert len(valid_propagators(n)) == n * (n - 3) // 2


def brute_enumerate(k, n):
    out = []
    for combo in itertools.combinations(valid_propagators(n), k):
        W = WilsonLoopDiagram(n, combo)
        if is_admissible(W):
            out.append(W)
    return out


def test_enumerate_counts_match_brute_force():
    for k, n in ((1, 5), (1, 6), (2, 6), (2, 7), (3, 7)):
        fast = enumerate_diagrams(k, n)
        slow = brute_enumerate(k, n)
        assert sorted(W.props for W in fast) == sorted(W.props for W in slow)
        assert len(set(W.props for W in fast)) == len(fast)


def test_enumerate_golden_counts():
    assert len(enumerate_diagrams(1, 5)) == 5
    assert len(enumerate_diagrams(1, 6)) == 9


@given(st.sampled_from([(1, 5), (1, 6), (1, 7), (2, 6), (2, 7)]))
@settings(max_examples=10, deadline=None)
def test_enumerate_closed_under_rotation(kn):
    k, n = kn
    diagrams = {W.props for W in enumerate_diagrams(k, n)}
    rotated = {W.rotate(1).props for W in enumerate_diagrams(k, n)}
    assert diagrams == rotated


def test_edge_order_golden():
    W = WilsonLoopDiagram(
        8, (Propagator.of(3, 5), Propagator.of(2, 5), Propagator.of(1, 7))
    )
    assert is_admissible(W)
    assert edge_order(W, 5) == [Propagator.of(3, 5), Propagator.of(2, 5)]
    assert edge_order(W, 2) == [Propagator.of(2, 5)]
    assert edge_order(W, 4) == []


def test_edge_order_rejects_crossing_diagram():
    W = WilsonLoopDiagram(8, (Propagator.of(1, 3), Propagator.of(2, 4)))
    with pytest.raises(StructuralError):
        edge_order(W, 1)


def test_edge_order_no_interleaving():
    # consecutive propagators in the order share no closer propagator:
    # far endpoints are strictly decreasing in cyclic distance from e+1
    for W in enumerate_diagrams(2, 7) + enumerate_diagrams(3, 8):
        for e in range(1, W.n + 1):
            order = edge_order(W, e)
            dists = []
            for p in order:
                far = p.e2 if p.e1 == e else p.e1
                dists.append((far - e - 1) % W.n)
            assert dists == sorted(dists, reverse=True)
            assert len(set(dists)) == len(dists)


def test_json_roundtrip():
    W = WilsonLoopDiagram(7, (Propagator.of(2, 4), Propagator.of(2, 6)))
    assert WilsonLoopDiagram.from_json(W.to_json()) == W
    with pytest.raises(StructuralError):
        WilsonLoopDiagram.from_json({"n": 6, "props": [[1]]})


def test_rotate_preserves_admissibility():
    for W in enumerate_diagrams(2, 6):
        for s in range(1, 6):
            assert is_admissible(W.rotate(s))


SHAPES_UP_TO_4_9 = [(k, n) for n in range(5, 10) for k in range(1, 5) if n >= k + 4]


def test_of_returns_one_shared_diagram_equal_to_a_built_one():
    p, q = Propagator.of(2, 5), Propagator.of(1, 7)
    W = WilsonLoopDiagram.of(8, (p, q))
    assert WilsonLoopDiagram.of(8, (q, p)) is W
    assert WilsonLoopDiagram.of(8, [p, q]) is W
    built = WilsonLoopDiagram(8, ((7, 1), (5, 2)))  # out of order and reversed
    assert built is not W
    assert built == W and hash(built) == hash(W)
    assert {built: "x"}[W] == "x"
    assert repr(built) == repr(W) == "WilsonLoopDiagram(n=8, props=(Propagator(e1=1, e2=7), Propagator(e1=2, e2=5)))"
    assert WilsonLoopDiagram.of(9, (p, q)) != W


def test_hash_is_that_of_n_and_the_sorted_props():
    """The stored hash is the one a frozen dataclass computes from its
    compared fields, so it is the hash of (n, sorted props): it depends on
    n, and not on the order the props were given in."""
    props = (Propagator.of(3, 6), Propagator.of(1, 4))
    for n in range(8, 13):
        W = WilsonLoopDiagram(n, props)
        assert hash(W) == hash((n, tuple(sorted(props))))
    assert len({hash(WilsonLoopDiagram(n, props)) for n in range(8, 13)}) == 5
    assert len({hash(WilsonLoopDiagram(9, order)) for order in itertools.permutations(props)}) == 1


def test_stored_token_and_masks_match_a_fresh_computation():
    """Every diagram up to (4, 9), rebuilt from its props given in reverse
    order with each pair reversed, stores the token and the non-strict
    row masks computed afresh from its sorted props."""
    checked = 0
    for k, n in SHAPES_UP_TO_4_9:
        for W in enumerate_diagrams(k, n):
            twin = WilsonLoopDiagram(n, tuple((p.e2, p.e1) for p in reversed(W.props)))
            props = sorted(Propagator.of(*p) for p in W.props)
            for D in (W, twin):
                assert D.token == ";".join(f"{p.e1}-{p.e2}" for p in props)
                assert D.masks == tuple(mask_of(vertex_support(p, n, strict=False)) for p in props)
                assert hash(D) == hash((n, tuple(props)))
            assert twin == W
            checked += 1
    assert checked == 3521
    assert WilsonLoopDiagram(6, ()).token == "0" and WilsonLoopDiagram(6, ()).masks == ()
    # degenerate rows keep their short supports, as validate reads them
    adjacent = WilsonLoopDiagram(6, ((1, 2),))
    assert adjacent.masks == (0b111,)
    assert validate(adjacent).local_density_violations == ((Propagator(1, 2),),)


def test_diagram_is_frozen_and_slotted():
    W = WilsonLoopDiagram(7, ((2, 4), (2, 6)))
    with pytest.raises(AttributeError):
        W.token = "x"
    assert not hasattr(W, "__dict__")  # slotted
