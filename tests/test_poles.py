"""Pole polynomial routes, codimension classification, boundary certificates."""

import random
import sys
import tracemalloc
from collections import Counter

import pytest

import wlpoles.cancel
import wlpoles.diagrams
import wlpoles.matroids
import wlpoles.poles
from wlpoles.cancel import CASE1A, CASE3A, classify, partners
from wlpoles.diagrams import Propagator, WilsonLoopDiagram, edge_order, enumerate_diagrams
from wlpoles.errors import InconsistencyError, StructuralError
from wlpoles.exact import Polynomial, VarId
from wlpoles.matroids import TransversalMatroid, mask_of, set_of
from wlpoles.poles import (
    _factor_keys,
    _pattern_factor_keys,
    CODIM_GE2,
    CODIM_ONE,
    NECKLACE_RADICAL,
    REVERSE_NECKLACE_RADICAL,
    PoleFactor,
    RPolynomial,
    check_r_equalities,
    cover_factors,
    factor_codim,
    limit,
    limit_matroid,
    necklace_radicals,
    pole_quad,
    pole_var,
    quad_geometry,
    r_poly_edge,
    r_poly_necklace,
    r_poly_reverse,
)
from wlpoles.positroids import (
    affine_covers,
    affine_length,
    affine_permutation,
    diagram_matrix,
    diagram_matroid,
    necklace,
    necklace_masks,
    reverse_necklace,
)

from oracles import vanish_on_boundary_witness

V1 = [{1, 2, 4, 5}, {1, 2, 3, 4}]
V2 = [{1, 2, 4, 5}, {2, 3, 4, 5}]
W42 = WilsonLoopDiagram(6, (Propagator.of(1, 3), Propagator.of(1, 5)))


def labels(rp):
    return sorted(f.label() for f in rp.factors)


def test_edge_formula_single_propagator_golden():
    W = WilsonLoopDiagram(6, (Propagator.of(2, 4),))
    assert labels(r_poly_edge(W)) == ["var:1:2", "var:1:3", "var:1:4", "var:1:5"]


def test_necklace_radical_goldens():
    assert labels(r_poly_necklace(V1, 6)) == [
        "quad:1:2:1:2", "var:1:2", "var:1:4", "var:1:5",
        "var:2:1", "var:2:3", "var:2:4",
    ]
    assert labels(r_poly_necklace(V2, 6)) == [
        "quad:1:2:4:5", "var:1:1", "var:1:2", "var:1:4",
        "var:2:2", "var:2:3", "var:2:5",
    ]
    # descending scan lands on the same radical
    for V in (V1, V2):
        assert labels(r_poly_reverse(V, 6)) == labels(r_poly_necklace(V, 6))


def test_three_routes_agree_on_examples():
    for W in (W42, WilsonLoopDiagram(6, (Propagator.of(1, 4), Propagator.of(1, 3)))):
        rep = check_r_equalities(W)
        assert rep.ok, rep.mismatches


def test_factor_count_per_edge():
    # an edge carrying s propagators contributes s+1 distinct factors
    for W in enumerate_diagrams(2, 7):
        expected = 0
        for e in range(1, 8):
            s = len(edge_order(W, e))
            if s:
                expected += s + 1
        assert len(r_poly_edge(W).factors) == expected


def test_quad_factor_rows_are_adjacent_in_edge_order():
    for W in enumerate_diagrams(2, 6) + enumerate_diagrams(3, 8)[:20]:
        for f in r_poly_edge(W).factors:
            if f.kind != "quad":
                continue
            e, near, far = quad_geometry(W, f)
            order = edge_order(W, e)
            ia, ib = order.index(near), order.index(far)
            assert abs(ia - ib) == 1


def test_pole_factor_json_roundtrip():
    for f in (pole_var(2, 5), pole_quad(1, 3, 6, 1)):
        assert PoleFactor.from_json(f.to_json()) == f
    with pytest.raises(StructuralError):
        PoleFactor.from_json({"kind": "cubic"})


def test_r_poly_rejects_inadmissible():
    W = WilsonLoopDiagram(8, (Propagator.of(1, 3), Propagator.of(2, 4)))
    for _ in range(2):
        # r_poly_edge is memoized; a repeat call must still reject
        with pytest.raises(StructuralError):
            r_poly_edge(W)
    twin = WilsonLoopDiagram(6, (Propagator.of(1, 5), Propagator.of(1, 3)))
    assert r_poly_edge(twin).factor_set() == r_poly_edge(W42).factor_set()


def test_rejected_diagrams_are_validated_once(monkeypatch):
    calls = []
    check = wlpoles.diagrams.validate
    monkeypatch.setattr(wlpoles.diagrams, "validate", lambda W: calls.append(W) or check(W))
    crossing = [WilsonLoopDiagram(8, (Propagator.of(1, 3), Propagator.of(2, e))) for e in (4, 5, 6)]
    for W in crossing[:1] * 3 + crossing * 2:
        with pytest.raises(StructuralError, match="diagram not admissible"):
            r_poly_edge(W)
    assert calls == crossing
    # the verdict and the refusal are kept on the diagram object itself
    assert all(W.memo == {"admissible": False, "R": None} for W in crossing)


def limit_supports(W, f):
    return tuple(map(set_of, limit(W, f).masks))


def test_limit_rows_shape():
    rows = limit(W42, pole_quad(1, 2, 1, 2)).rows()
    # the far row keeps its own far-end entries and borrows the near row's
    # entries on the shared edge columns, scaled by its own lambda
    x = lambda r, c: Polynomial.variable(VarId(r, c))
    assert rows[0] == {c: x(1, c) for c in (1, 2, 3, 4)}
    assert rows[1] == {1: x(2, -1) * x(1, 1), 2: x(2, -1) * x(1, 2), 5: x(2, 5), 6: x(2, 6)}
    # its limit supports eliminate the shared edge from the far row; a
    # single entry drops its column from its row
    assert limit_supports(W42, pole_quad(1, 2, 1, 2)) == ({1, 2, 3, 4}, {3, 4, 5, 6})
    assert limit_supports(W42, pole_var(1, 4)) == ({1, 2, 3}, {1, 2, 5, 6})
    assert set(limit(W42, pole_var(1, 4)).rows()[0]) == {1, 2, 3}


def test_limit_resolves_its_factor_once(monkeypatch):
    """A quadratic's limit reads its geometry once, whatever is derived
    from it; a single entry's reads none.  Its rows p and q are 0-based."""
    calls = []
    geometry = wlpoles.poles.quad_geometry
    monkeypatch.setattr(wlpoles.poles, "quad_geometry", lambda W, f: calls.append(f) or geometry(W, f))
    quad, single = limit(W42, pole_quad(1, 2, 1, 2)), limit(W42, pole_var(1, 4))
    for lim in (quad, single):
        lim.masks, lim.systems, lim.key, lim.rows()
    assert calls == [pole_quad(1, 2, 1, 2)]
    assert (quad.p, quad.q, quad.C) == (0, 1, 0b11)
    assert (single.p, single.q, single.C) == (0, 0, 0b1000)
    assert quad.masks is quad.masks and len(quad.systems) == 2 and single.systems == (single.masks,)


def test_limit_refuses_a_factor_not_of_r():
    with pytest.raises(StructuralError, match="is not a factor of R"):
        limit(W42, pole_var(1, 6))
    with pytest.raises(StructuralError, match="diagram not admissible"):
        limit(WilsonLoopDiagram(7, (Propagator.of(1, 3), Propagator.of(2, 5))), pole_var(1, 3))


def frozenset_limit_supports(W, f):
    """The limit set system built on vertex sets, as it was before masks."""
    rows = W.supports()
    if f.kind == "var":
        rows[f.rows[0] - 1] -= {f.cols[0]}
    else:
        e, near, far = quad_geometry(W, f)
        far_row = W.props.index(far)
        rows[far_row] = (rows[W.props.index(near)] | rows[far_row]) - {e, e % W.n + 1}
    return tuple(rows)


def test_limit_masks_match_the_frozenset_construction():
    for k, n in [(k, n) for k in range(1, 5) for n in range(k + 4, 9)]:
        for W in enumerate_diagrams(k, n):
            for f in r_poly_edge(W).factors:
                want = frozenset_limit_supports(W, f)
                assert limit(W, f).masks == tuple(map(mask_of, want)), (W, f)
                assert limit_supports(W, f) == want


def test_factor_codim_goldens():
    # deleting the lone interior support column loses two dimensions
    W35 = WilsonLoopDiagram(6, (Propagator.of(1, 4), Propagator.of(1, 5)))
    assert factor_codim(W35, pole_var(1, 4)) == CODIM_GE2
    # generic single entries and quadratics are codimension one
    for f in r_poly_edge(W42).factors:
        assert factor_codim(W42, f) == CODIM_ONE
    # wide quadratic with the chord present
    W3a = WilsonLoopDiagram(
        7, (Propagator.of(1, 3), Propagator.of(1, 5), Propagator.of(3, 5))
    )
    assert factor_codim(W3a, pole_quad(1, 2, 1, 2)) == CODIM_GE2
    # wide quadratic with the chord absent
    Wok = WilsonLoopDiagram(7, (Propagator.of(1, 3), Propagator.of(1, 5)))
    assert factor_codim(Wok, pole_quad(1, 2, 1, 2)) == CODIM_ONE


CODIM_COUNTS = {
    (2, 8): {("quad", CODIM_ONE): 80, ("var", CODIM_ONE): 736, ("var", CODIM_GE2): 64},
    (3, 8): {
        ("quad", CODIM_ONE): 472, ("quad", CODIM_GE2): 48,
        ("var", CODIM_ONE): 2048, ("var", CODIM_GE2): 512,
    },
    (4, 8): {
        ("quad", CODIM_ONE): 792, ("quad", CODIM_GE2): 216,
        ("var", CODIM_ONE): 2112, ("var", CODIM_GE2): 1152,
    },
}


def test_codim_rule_matches_case_tags():
    """The minimality rule gives codimension >= 2 exactly on tags 1a and 3a."""
    shapes = [(k, n) for k in range(1, 4) for n in range(k + 4, 9)] + [(4, 8)]
    for k, n in shapes:
        counts = Counter()
        for W in enumerate_diagrams(k, n):
            for f in r_poly_edge(W).factors:
                codim = factor_codim(W, f)
                assert (codim == CODIM_GE2) == (classify(W, f) in (CASE1A, CASE3A)), (W, f)
                counts[f.kind, codim] += 1
        if (k, n) in CODIM_COUNTS:
            assert counts == CODIM_COUNTS[k, n]


def test_factor_codim_rejects_non_factor():
    with pytest.raises(StructuralError):
        factor_codim(W42, pole_var(1, 2))


def test_witness_vanishes_some_necklace_minor():
    for f in r_poly_edge(W42).factors:
        wit = vanish_on_boundary_witness(W42, f, seed=4)
        assert wit.vanishing_shifts
        js = wit.to_json()
        assert js["vanishing_shifts"] == list(wit.vanishing_shifts)


def test_witness_deterministic():
    f = sorted(r_poly_edge(W42).factors, key=PoleFactor.sort_key)[0]
    a = vanish_on_boundary_witness(W42, f, seed=7)
    b = vanish_on_boundary_witness(W42, f, seed=7)
    assert a == b


def test_boundary_without_pole_golden():
    """W42's cell has 8 covers.  Seven are hit, each by one codimension-one
    factor, and the eighth, (3,7,4,5,6,8), the cell of rows {1,2}, [6],
    is hit by none: no factor of R vanishes on it."""
    covers = cover_factors(W42)
    assert set(covers) == set(affine_covers(affine_permutation(necklace_masks(diagram_matroid(W42))[0], 6)))
    assert len(covers) == 8
    assert [g for g, fs in covers.items() if not fs] == [(3, 7, 4, 5, 6, 8)]
    rows = TransversalMatroid(6, [{1, 2}, set(range(1, 7))])
    assert affine_permutation(necklace_masks(rows)[0], 6) == (3, 7, 4, 5, 6, 8)
    hitting = sorted((f for fs in covers.values() for f in fs), key=PoleFactor.sort_key)
    assert hitting == [f for f in r_poly_edge(W42).factors if factor_codim(W42, f) == CODIM_ONE]


def test_boundary_without_pole_needs_two_propagators():
    """A single propagator's cell is a simplex in its four support
    coordinates, and each of its covers is the zero set of one of them."""
    for n in range(5, 10):
        for W in enumerate_diagrams(1, n):
            covers = cover_factors(W)
            assert len(covers) == 4 and all(len(fs) == 1 for fs in covers.values()), W


# Hit and unhit covers, summed over the diagrams of each shape.
COVER_COUNTS = {(2, 6): (126, 6), (2, 7): (364, 28), (3, 7): (630, 42), (2, 8): (816, 72), (3, 8): (2520, 272)}


def cover_counts(k, n):
    """Hit covers, unhit covers and covers hit by more than one factor."""
    counts = Counter()
    for W in enumerate_diagrams(k, n):
        for fs in cover_factors(W).values():
            counts["hit" if fs else "unhit"] += 1
            counts["shared"] += len(fs) > 1
    return counts["hit"], counts["unhit"], counts["shared"]


@pytest.mark.parametrize("shape", sorted(COVER_COUNTS), ids=lambda s: "k%dn%d" % s)
def test_cover_counts(shape):
    """No two factors of a diagram share a cover."""
    assert cover_counts(*shape) == (*COVER_COUNTS[shape], 0)


def test_cover_counts_see_a_factor_that_misses_its_cover(monkeypatch):
    """Give x[1,3] of W42 the limit of x[2,5] in the fan walk: its own cover
    turns unhit and x[2,5]'s is hit twice, so the counts of
    test_cover_counts move."""
    original = wlpoles.poles._fan_walk

    def moved(W):
        walk = list(original(W))
        if W == W42:
            (lim,) = (step[2:] for step in walk if step[1] == pole_var(2, 5))
            walk = [(e, f, *lim) if f == pole_var(1, 3) else (e, f, *rest) for e, f, *rest in walk]
        return iter(walk)

    monkeypatch.setattr(wlpoles.poles, "_fan_walk", moved)
    assert cover_counts(2, 6) == (125, 7, 1)


def _count_limits(monkeypatch) -> Counter:
    """Count, from now on, the ``Limit`` values built, the calls of
    ``poles.limit`` and the calls of ``poles.quad_geometry``."""
    counts: Counter = Counter()
    post_init = wlpoles.poles.Limit.__post_init__
    monkeypatch.setattr(wlpoles.poles.Limit, "__post_init__", lambda lim: counts.update(["Limit"]) or post_init(lim))
    for name in ("limit", "quad_geometry"):
        function = getattr(wlpoles.poles, name)
        monkeypatch.setattr(
            wlpoles.poles, name, lambda *args, name=name, function=function: counts.update([name]) or function(*args)
        )
    monkeypatch.setattr(wlpoles.cancel, "limit", wlpoles.poles.limit)
    return counts


def test_cover_factors_builds_one_limit_per_factor(monkeypatch):
    """Over the (3, 8) diagrams ``cover_factors`` builds 3,080 limits, one
    for each factor of R, whether it has codimension one or not.  It reads
    them from the fan walk, so neither the guarded ``limit`` nor
    ``quad_geometry`` runs."""
    diagrams = enumerate_diagrams(3, 8)
    counts = _count_limits(monkeypatch)
    for W in diagrams:
        cover_factors(W)
    assert counts == {"Limit": 3080}
    assert sum(len(r_poly_edge(W).factors) for W in diagrams) == 3080


@pytest.mark.parametrize("k, n", [(k, n) for k in (1, 2, 3) for n in range(k + 4, 9)])
def test_permutation_length_checks_the_codimension_rule(k, n):
    """k(n-k) - length is 3k on every diagram cell, and 3k-1 on a factor's
    exact limit iff factor_codim, the minimality rule, calls it
    codimension one."""
    top = k * (n - k)
    for W in enumerate_diagrams(k, n):
        assert top - affine_length(affine_permutation(necklace_masks(diagram_matroid(W))[0], n)) == 3 * k
        for f in r_poly_edge(W).factors:
            M_f = limit_matroid(n, limit(W, f).systems)
            dim = top - affine_length(affine_permutation(necklace_masks(M_f)[0], n))
            assert (dim == 3 * k - 1) == (factor_codim(W, f) == CODIM_ONE), (W, f, dim)


def test_r_equality_sweep_small():
    for n in (5, 6):
        for W in enumerate_diagrams(1, n):
            assert check_r_equalities(W).ok
    for W in enumerate_diagrams(2, 6):
        assert check_r_equalities(W).ok


def test_pattern_memo_matches_direct_minors():
    """Both shared radicals equal the union of their scan's directly
    factored minors, on every diagram up to (3, 8)."""
    for k, n in [(k, n) for k in range(1, 4) for n in range(k + 4, 9)]:
        rows = list(range(1, k + 1))
        for W in enumerate_diagrams(k, n):
            S, M = diagram_matrix(W), diagram_matroid(W)
            rep = check_r_equalities(W)
            for scan, shared in ((necklace, rep.necklace), (reverse_necklace, rep.reverse)):
                direct = set()
                for I in scan(M):
                    direct |= _factor_keys(S.minor(rows, sorted(I)))
                assert shared.factor_set() == direct, (W, scan.__name__)
            assert (rep.necklace.provenance, rep.reverse.provenance) == (
                NECKLACE_RADICAL, REVERSE_NECKLACE_RADICAL)
            if k == 2 and n == 7:
                assert (r_poly_necklace(W.supports(), n), r_poly_reverse(W.supports(), n)) == (
                    rep.necklace, rep.reverse)


# (k, n) -> misses of the necklace-minor memo over check_r_equalities on
# every diagram, from an empty memo: one factorization per distinct pair of
# column mask and row supports inside it, however many diagrams share it.
SHARED_RADICAL_WORK = {(2, 7): 105, (3, 8): 1267}


@pytest.mark.parametrize("shape", sorted(SHARED_RADICAL_WORK), ids=lambda s: "k%dn%d" % s)
def test_radicals_share_one_matroid_per_diagram(monkeypatch, shape):
    """Each diagram gets one matroid and one basis set, both necklaces are
    walked over it, and no rank query (so no Hall table) is made."""
    counts = Counter()
    set_rows, rank = TransversalMatroid._set_rows, TransversalMatroid._rank
    basis_masks = TransversalMatroid._basis_masks
    row_unions = wlpoles.matroids.row_unions

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(TransversalMatroid, "_set_rows", counted("matroid", set_rows))
    monkeypatch.setattr(TransversalMatroid, "_basis_masks", counted("bases", basis_masks))
    monkeypatch.setattr(TransversalMatroid, "_rank", counted("rank", rank))
    monkeypatch.setattr(wlpoles.matroids, "row_unions", counted("hall", row_unions))
    wlpoles.poles._restricted_factor_keys.cache_clear()
    diagrams = enumerate_diagrams(*shape)
    for W in diagrams:
        assert check_r_equalities(W).ok
    assert counts == {"matroid": len(diagrams), "bases": len(diagrams)}
    assert wlpoles.poles._restricted_factor_keys.cache_info().misses == SHARED_RADICAL_WORK[shape]


@pytest.mark.parametrize("rows, n", [
    ([{1}, {2}], 4),  # coloops: one set, listed (1, 2) from shift 1 and (2, 1) from 2
    ([{1, 2, 3}, {3}, {3, 4, 5}], 6),
    (V1, 6),
], ids=["coloops", "k3", "V1"])
def test_radicals_factor_each_distinct_entry_once(monkeypatch, rows, n):
    calls = []
    minor_keys = wlpoles.poles._minor_factor_keys
    monkeypatch.setattr(
        wlpoles.poles, "_minor_factor_keys", lambda m, cols: calls.append(cols) or minor_keys(m, cols)
    )
    M = TransversalMatroid(n, rows)
    necklace_radicals(M)
    entries = {mask_of(I) for I in necklace(M) + reverse_necklace(M)}
    assert sorted(calls) == sorted(entries)


def test_pattern_memo_holds_seven_patterns_at_k2():
    wlpoles.poles._restricted_factor_keys.cache_clear()
    _pattern_factor_keys.cache_clear()
    for n in (6, 7, 8):
        for W in enumerate_diagrams(2, n):
            assert check_r_equalities(W).ok
    assert _pattern_factor_keys.cache_info().currsize == 7


# Every process-wide memo keyed by a diagram, a pattern or propagators,
# each cleared together so that no fact is carried over from another test.
# Clearing the interned diagrams leaves fresh objects with empty memos, so
# the facts kept on a diagram start over with them.
PER_DIAGRAM_MEMOS = (
    wlpoles.diagrams._interned,
    wlpoles.poles._restricted_factor_keys,
    _pattern_factor_keys,
    wlpoles.poles._partner_moves,
)


def _clear_memos():
    for memo in PER_DIAGRAM_MEMOS:
        memo.cache_clear()


def _count_computations(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that counts its calls per
    argument tuple; returns the counter."""
    counts: Counter = Counter()
    compute = getattr(module, name)

    def counted(*args):
        counts[args] += 1
        return compute(*args)

    monkeypatch.setattr(module, name, counted)
    return counts


def _front_half(order):
    """The calls of the front half (bench/front_half.py) over ``order``;
    returns the members of the groups built."""
    members = []
    for W in order:
        assert check_r_equalities(W).ok
        for f in r_poly_edge(W).factors:
            tag = wlpoles.cancel.classify(W, f)
            if factor_codim(W, f) != CODIM_ONE or tag in (CASE1A, CASE3A):
                continue
            try:
                members += partners(W, f).members
            except (InconsistencyError, StructuralError):
                pass  # the k = 3 partner gaps
    return members


def _built_diagrams(monkeypatch) -> list:
    """Every diagram object built from now on, in order."""
    built = []
    post_init = WilsonLoopDiagram.__post_init__

    def counted(W):
        post_init(W)
        built.append(W)

    monkeypatch.setattr(WilsonLoopDiagram, "__post_init__", counted)
    return built


def test_r_memo_computes_each_diagram_once_per_shape(monkeypatch):
    """The front-half calls over every (3, 8) diagram, partners included,
    compute R once per diagram, whatever the visit order.  Each diagram
    object is validated once: the admissibility verdict is kept in its
    memo, so the 300 diagrams enumeration validated are not validated
    again, and a partner move that leaves the admissible diagrams
    validates its diagram once, inside its R computation, and keeps the
    refusal: 396 calls, for 300 admissible diagrams and 96 rejected
    partners."""
    _clear_memos()
    check = wlpoles.diagrams.validate
    callers: Counter = Counter()
    verdicts: Counter = Counter()
    validated: Counter = Counter()

    def counted(W):
        callers[sys._getframe(2).f_code.co_name] += 1  # the caller of is_admissible
        validated[id(W)] += 1
        verdict = check(W)
        verdicts[verdict.admissible] += 1
        return verdict

    monkeypatch.setattr(wlpoles.diagrams, "validate", counted)
    order = enumerate_diagrams(3, 8)
    random.Random(5).shuffle(order)
    computed = _count_computations(monkeypatch, wlpoles.poles, "_r_poly_edge")
    _front_half(order)
    assert callers == Counter({"extend": 300, "_r_poly_edge": 96})
    assert verdicts == Counter({True: 300, False: 96})
    assert len(validated) == 396 and set(validated.values()) == {1}
    assert sum(computed.values()) == len(computed) == 396


def test_front_half_builds_each_diagram_once_and_moves_land_on_enumerated_ones(monkeypatch):
    """The (3, 9) front-half calls build 1,005 diagram objects, each once:
    the 825 admissible diagrams and 180 rejected partners.  A partner move
    that lands on an admissible diagram returns the very object
    enumeration made."""
    built = _built_diagrams(monkeypatch)
    _clear_memos()
    order = enumerate_diagrams(3, 9)
    enumerated = {W: W for W in order}
    random.Random(7).shuffle(order)
    members = _front_half(order)
    assert members and all(enumerated[m.diagram] is m.diagram for m in members)
    assert len(built) == len(set(built)) == 1005
    assert len(built) - len(enumerated) == 180


def test_front_half_computes_each_fact_once(monkeypatch):
    """Over the (3, 9) front-half calls no fact is computed twice.  R is
    computed once per diagram object, 1,005 times, and the subfamily
    tables once per admissible diagram, 825 times.  Each admissible
    diagram makes one record pass, 825 of them, and each factor's (tag,
    moves, codimension) record is made once per distinct (diagram,
    factor), 8,595 times for 21,330 ``classify`` calls.  Each partner move
    is made once, 8,550 of them: the 180 that land on a refused diagram
    end a triple, which is kept as its message, so the 360 partner gaps
    make no move twice.  No process-wide memo computes a key twice
    either."""
    _clear_memos()
    order = enumerate_diagrams(3, 9)
    r_values = _count_computations(monkeypatch, wlpoles.poles, "_r_poly_edge")
    tables = _count_computations(monkeypatch, wlpoles.poles, "_diagram_tables")
    passes = _count_computations(monkeypatch, wlpoles.poles, "_record_pass")
    records: Counter = Counter()
    record = wlpoles.poles._record
    monkeypatch.setattr(
        wlpoles.poles, "_record", lambda f, lim: records.update([(lim.W, f)]) or record(f, lim)
    )
    moves = _count_computations(monkeypatch, wlpoles.cancel, "_move")
    tags = _count_computations(monkeypatch, wlpoles.cancel, "classify")
    _front_half(order)
    for name, counts, computed in (
        ("R", r_values, 1005), ("tables", tables, 825), ("passes", passes, 825),
        ("records", records, 8595), ("moves", moves, 8550),
    ):
        assert sum(counts.values()) == len(counts) == computed, name
    assert sum(tags.values()) == 21330
    for memo in PER_DIAGRAM_MEMOS:
        info = memo.cache_info()
        assert info.misses == info.currsize, memo.__wrapped__.__qualname__


def test_front_half_builds_each_limit_once(monkeypatch):
    """The (3, 9) front half builds 8,595 ``Limit`` values, one for each of
    its 8,595 factors, all in the record passes.  They come from the fan
    walk, so the guarded ``poles.limit`` and ``quad_geometry`` never run."""
    _clear_memos()
    order = enumerate_diagrams(3, 9)
    counts = _count_limits(monkeypatch)
    _front_half(order)
    assert counts == {"Limit": 8595}
    assert sum(len(r_poly_edge(W).factors) for W in order) == 8595


def test_fan_walk_matches_limit():
    """On every factor up to (3, 8), the fan walk's (p, q, C) is that of
    ``limit``, which resolves a quadratic through ``quad_geometry``; the
    walk yields each factor of R once, on the edge its columns lie on."""
    shapes = [(k, n) for k in range(1, 4) for n in range(k + 4, 9)]
    seen = 0
    for k, n in shapes:
        for W in enumerate_diagrams(k, n):
            walk = list(wlpoles.poles._fan_walk(W))
            assert sorted((f for _, f, *_ in walk), key=PoleFactor.sort_key) == list(r_poly_edge(W).factors)
            for e, f, p, q, C in walk:
                lim = limit(W, f)
                assert (p, q, C) == (lim.p, lim.q, lim.C), (W, f)
                assert set(f.cols) <= {e, e % n + 1}
                seen += 1
    assert seen == 5555


def test_diagram_memos_keep_refusals_as_text(monkeypatch):
    """After the (3, 8) front half no value kept on any diagram is an
    exception, whose traceback would keep its frames alive: a refused
    triple is kept as its message, and a refused R as None."""
    built = _built_diagrams(monkeypatch)
    _clear_memos()
    _front_half(enumerate_diagrams(3, 8))
    values = [v for W in built for v in W.memo.values()]
    assert any(isinstance(v, str) for v in values) and None in values
    assert not any(isinstance(v, BaseException) for v in values)


def test_factor_stores_the_hash_of_its_identity_and_its_label():
    for k, n in ((1, 6), (2, 7), (3, 8)):
        for W in enumerate_diagrams(k, n):
            for f in r_poly_edge(W).factors:
                assert f.label() == ":".join([f.kind, *map(str, f.rows), *map(str, f.cols)])
                assert hash(f) == hash((f.kind, f.rows, f.cols))
                bare = PoleFactor(f.kind, f.rows, f.cols)
                assert bare == f and hash(bare) == hash(f) and bare.label() == f.label()
    assert pole_var(1, 2) == PoleFactor("var", (1,), (2,)) and hash(pole_var(1, 2)) == hash(("var", (1,), (2,)))
    assert pole_quad(2, 1, 4, 3).label() == "quad:1:2:3:4"
    assert pole_var(1, 2) != pole_var(2, 1) and hash(pole_var(1, 2)) != hash(pole_var(2, 1))
    assert not hasattr(pole_var(1, 2), "__dict__")  # slotted


def test_factors_and_propagators_are_interned():
    assert pole_var(1, 2) is pole_var(1, 2)
    assert pole_quad(1, 2, 3, 4) is pole_quad(2, 1, 4, 3) is pole_quad(1, 2, 4, 3)
    # every group member's factor is the very object of its diagram's R,
    # so factor-set lookups end at the identity test
    members = 0
    for W in enumerate_diagrams(2, 7):
        for f in r_poly_edge(W).factors:
            if factor_codim(W, f) == CODIM_ONE:
                for m in partners(W, f).members:
                    members += 1
                    assert any(m.factor is h for h in r_poly_edge(m.diagram).factors), m.token()
    assert members == 812
    assert Propagator.of(5, 2) is Propagator.of(2, 5)
    assert WilsonLoopDiagram(8, ((5, 2),)).props[0] is Propagator.of(2, 5)
    assert WilsonLoopDiagram.of(8, ((2, 5),)) is WilsonLoopDiagram.of(8, (Propagator.of(2, 5),))


def test_r_polynomial_equality_ignores_factor_set():
    R = r_poly_edge(W42)
    twin = RPolynomial(R.factors, R.provenance)
    object.__setattr__(twin, "_factor_set", frozenset())
    assert twin == R and hash(twin) == hash(R)
    assert "_factor_set" not in repr(R)
    assert not hasattr(R, "__dict__")


def test_r_value_fits_its_memo_budget():
    """A computed R at (3, 8), factor set built, holds interned factors only:
    about 0.9 KB, against about 3 KB with a fresh copy of every factor."""
    compute = wlpoles.poles._r_poly_edge
    diagrams = enumerate_diagrams(3, 8)
    for W in diagrams:  # the interned factors exist before measuring
        compute(W).factor_set()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        values = [compute(W) for W in diagrams]
        for R in values:
            R.factor_set()
        per_value = (tracemalloc.get_traced_memory()[0] - before) / len(values)
    finally:
        tracemalloc.stop()
    assert per_value < 1500
