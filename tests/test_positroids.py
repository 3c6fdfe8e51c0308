"""Gale orders, necklaces, affine permutations and their covers, minimality,
cell descriptors."""

import inspect
import itertools

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import wlpoles.matroids
import wlpoles.positroids
from wlpoles.diagrams import Propagator, WilsonLoopDiagram, enumerate_diagrams
from wlpoles.errors import StructuralError
from wlpoles.matroids import Matroid, TransversalMatroid, row_unions, set_of
from wlpoles.poles import CODIM_ONE, factor_codim, limit, r_poly_edge
from wlpoles.positroids import (
    affine_covers,
    affine_length,
    affine_permutation,
    cell_descriptor,
    diagram_cell,
    diagram_matroid,
    first_violation,
    gale_key,
    gale_leq,
    gale_sorted,
    is_minimal,
    necklace,
    necklace_masks,
    reverse_necklace,
    subfamily_tables,
)

V1 = [{1, 2, 4, 5}, {1, 2, 3, 4}]
V2 = [{1, 2, 4, 5}, {2, 3, 4, 5}]


def test_gale_sorted_and_key():
    assert gale_sorted({1, 3, 5}, 4, 6) == [5, 1, 3]
    assert gale_key(4, 4, 6) == 0
    assert gale_key(3, 4, 6) == 5


def test_gale_leq_requires_same_size():
    with pytest.raises(StructuralError):
        gale_leq({1, 2}, {1, 2, 3}, 1, 6)
    assert gale_leq({1, 2}, {1, 3}, 1, 6)
    assert not gale_leq({1, 3}, {1, 2}, 1, 6)


def gale_min_basis(M, a):
    """Brute-force Gale-minimal basis for the a-th shift."""
    best = None
    for B in M.bases():
        if best is None or gale_leq(B, best, a, M.n):
            best = B
    return best


def gale_max_basis(M, a):
    best = None
    for B in M.bases():
        if best is None or gale_leq(best, B, a, M.n):
            best = B
    return best


def test_necklace_golden_v1():
    M = TransversalMatroid(6, V1)
    assert [tuple(e) for e in necklace(M)] == [
        (1, 2), (2, 3), (3, 4), (4, 5), (5, 1), (1, 2),
    ]


def test_necklace_golden_running_diagram():
    W = WilsonLoopDiagram(6, (Propagator.of(1, 3), Propagator.of(1, 5)))
    assert [tuple(e) for e in necklace(diagram_matroid(W))] == [
        (1, 2), (2, 3), (3, 5), (4, 5), (5, 1), (6, 1),
    ]


def test_necklace_is_gale_minimal_over_all_bases():
    for W in enumerate_diagrams(2, 6) + enumerate_diagrams(1, 6):
        M = diagram_matroid(W)
        neck = necklace(M)
        rev = reverse_necklace(M)
        for a in range(1, M.n + 1):
            assert frozenset(neck[a - 1]) == gale_min_basis(M, a)
            assert frozenset(rev[a - 1]) == gale_max_basis(M, a)


def walk_mismatches(walk, n, rows):
    """Shifts a where ``walk`` (``necklace_masks`` or a mutant of it)
    disagrees with the Gale-minimal or Gale-maximal basis found by brute
    force over the bases of the generic k-subset rank scan."""
    forward, reverse = walk(TransversalMatroid(n, rows))
    bases = [set_of(m) for m in Matroid._basis_masks(TransversalMatroid(n, rows))]
    bad = []
    for a in range(1, n + 1):
        lo = hi = bases[0]
        for B in bases:
            lo = B if gale_leq(B, lo, a, n) else lo
            hi = B if gale_leq(hi, B, a, n) else hi
        if (set_of(forward[a - 1]), set_of(reverse[a - 1])) != (lo, hi):
            bad.append(a)
    return bad


set_systems = st.integers(1, 8).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.frozensets(st.integers(1, n)), min_size=1, max_size=min(4, n)))
)


@given(set_systems)
@example((6, [frozenset({1, 2})] * 3))  # rank-deficient: three rows, rank 2; 3..6 are loops
@example((5, [frozenset({2}), frozenset({2, 3, 4}), frozenset()]))  # coloop 2, an empty row
@example((4, [frozenset({1}), frozenset({2})]))  # two coloops, two loops
@settings(max_examples=300, deadline=None)
def test_necklace_walk_matches_brute_force_gale_order(system):
    n, rows = system
    if not any(rows):
        with pytest.raises(StructuralError, match="rank-0"):
            necklace_masks(TransversalMatroid(n, rows))
        return
    assert walk_mismatches(necklace_masks, n, rows) == []


def test_necklace_walk_taking_the_last_exchange_is_caught():
    """A mutant whose forward step takes the last basis-making candidate
    instead of the first disagrees with the brute-force Gale order."""
    src = inspect.getsource(necklace_masks)
    mutant_src = src.replace("for b in after:\n                if not rest & b", "for b in after[::-1]:\n                if not rest & b")
    assert mutant_src != src
    scope = dict(vars(wlpoles.positroids))
    exec(mutant_src, scope)
    systems = [(W.n, W.supports()) for W in enumerate_diagrams(2, 6)]
    assert not any(walk_mismatches(necklace_masks, n, rows) for n, rows in systems)
    assert any(walk_mismatches(scope["necklace_masks"], n, rows) for n, rows in systems)


def test_necklace_rejects_rank_zero():
    with pytest.raises(StructuralError):
        necklace(TransversalMatroid(4, [{1}]).restrict(frozenset({2})))


def test_is_minimal_goldens():
    rep = is_minimal([{1, 2, 5}, {1, 2, 5, 6}], 6)
    assert not rep.minimal
    assert rep.dimension is None
    assert rep.violating

    good = is_minimal(V1, 6)
    assert good.minimal
    assert good.dimension == 8 - 2  # 4k entries minus rank


def parent_minimal(rows, n):
    """The rule as it was stated before: the subset inequality holds and
    the transversal matroid has rank equal to the row count."""
    for size in range(1, len(rows) + 1):
        for T in itertools.combinations(rows, size):
            if len(frozenset().union(*T)) < max(map(len, T)) + size - 1:
                return False
    return TransversalMatroid(n, rows).k == len(rows)


def first_violating(rows):
    """The first row subfamily, in increasing mask order, covering fewer
    than max|V_i| + |T| - 1 vertices, by frozenset unions."""
    k = len(rows)
    for mask in range(1, 1 << k):
        members = [rows[i] for i in range(k) if mask >> i & 1]
        if len(frozenset().union(*members)) < max(map(len, members)) + len(members) - 1:
            return tuple(i + 1 for i in range(k) if mask >> i & 1)
    return None


def test_is_minimal_needs_no_rank_test():
    subsets = [frozenset(S) for r in range(1, 7) for S in itertools.combinations(range(1, 7), r)]
    systems = 0
    for size in (1, 2, 3):
        for rows in itertools.combinations(subsets, size):
            rep = is_minimal(rows, 6)
            assert rep.minimal == parent_minimal(rows, 6), rows
            assert rep.dimension == (sum(map(len, rows)) - size if rep.minimal else None)
            assert rep.violating == first_violating(rows), rows
            systems += 1
    assert systems == 41_727


def two_table_first_violation(masks):
    """The first violating T in mask order, from a union table and a
    separate table of each T's widest row, both complete before the scan."""
    unions = row_unions(masks)
    widest = [0] * len(unions)
    for T in range(1, len(unions)):
        low = T & -T
        widest[T] = max(widest[T ^ low], masks[low.bit_length() - 1].bit_count())
    for T in range(1, len(unions)):
        if unions[T].bit_count() < widest[T] + T.bit_count() - 1:
            return T
    return None


def test_first_violation_matches_two_tables_on_every_limit_system():
    checked = violating = 0
    for n in range(5, 10):
        for k in range(1, min(4, n - 4) + 1):
            for W in enumerate_diagrams(k, n):
                assert first_violation(W.masks) is None  # admissible diagrams are minimal
                tables = subfamily_tables(W.masks)
                for f in r_poly_edge(W).factors:
                    lim = limit(W, f)
                    masks, q = lim.masks, lim.q
                    T = first_violation(masks)
                    assert T == two_table_first_violation(masks), (W, f)
                    # only the subfamilies through the changed row q are tested
                    assert first_violation(masks, (q, *tables)) == T, (W, f)
                    assert (factor_codim(W, f) == CODIM_ONE) == (T is None), (W, f)
                    checked += 1
                    violating += T is not None
    assert checked == 39_770
    assert 0 < violating < checked


@given(st.lists(st.integers(1, (1 << 10) - 1), min_size=1, max_size=6), st.data())
@settings(max_examples=200, deadline=None)
def test_first_violation_through_one_row_of_a_minimal_system(base, data):
    assume(first_violation(base) is None)
    q = data.draw(st.integers(0, len(base) - 1))
    row = data.draw(st.integers(0, (1 << 10) - 1))
    masks = [row if i == q else m for i, m in enumerate(base)]
    assert first_violation(masks, (q, *subfamily_tables(base))) == first_violation(masks)


@given(st.lists(st.integers(0, (1 << 10) - 1), min_size=1, max_size=6))
@settings(max_examples=300, deadline=None)
def test_first_violation_matches_two_tables_on_random_systems(masks):
    assert first_violation(masks) == two_table_first_violation(masks)


def test_first_violation_keeps_the_row_cap():
    assert first_violation([0b11] * 20) == 0b11  # rows 1 and 2 cover 2 < 3 vertices
    with pytest.raises(StructuralError, match="capped at 20 rows"):
        first_violation([1 << i for i in range(21)])


def test_is_minimal_rejects_more_rows_than_columns():
    with pytest.raises(StructuralError, match="never have full rank"):
        is_minimal([{1, 2, 3}] * 4, 3)


def test_is_minimal_rejects_support_outside_ground():
    with pytest.raises(StructuralError):
        is_minimal([{1, 2, 7}], 6)
    with pytest.raises(StructuralError):
        is_minimal([{0, 1, 2}], 6)


def test_diagram_systems_minimal_dimension_3k():
    for k, n in ((1, 6), (2, 6), (2, 7)):
        for W in enumerate_diagrams(k, n):
            rep = is_minimal(W.supports(), n)
            assert rep.minimal
            assert rep.dimension == 3 * k


def test_cell_descriptor_json():
    cd = cell_descriptor(TransversalMatroid(6, V1))
    js = cd.to_json()
    assert js["k"] == 2 and js["n"] == 6
    assert js["dimension"] == 6
    assert js["rows"] == [[1, 2, 4, 5], [1, 2, 3, 4]]
    assert js["necklace"][0] == [1, 2]


def test_cell_descriptor_builds_one_subset_table(monkeypatch):
    """Rank and necklaces come from the basis set, so the minimality count
    builds the only subset table: no Hall table is made."""
    tables = []
    real = wlpoles.matroids.union_table
    monkeypatch.setattr(wlpoles.matroids, "union_table", lambda m: tables.append("hall") or real(m))
    monkeypatch.setattr(wlpoles.positroids, "union_table", lambda m: tables.append("minimality") or real(m))
    for W in enumerate_diagrams(3, 7):
        tables.clear()
        cd = cell_descriptor(diagram_matroid(W))
        assert (cd.k, cd.dimension) == (3, 9)
        assert tables == ["minimality"], W


def test_diagram_cell_positroid_gate():
    W = WilsonLoopDiagram(6, (Propagator.of(1, 3), Propagator.of(1, 5)))
    cd = diagram_cell(W)
    assert cd.dimension == 6
    assert cd.k == 2


def test_is_boundary_of():
    """A boundary cell of V one dimension down is a cover of V's
    permutation: dropping 4 from V's second row leaves a minimal system of
    dimension 5.  Dropping 5 from its first row leaves a system that is not
    minimal, whose permutation is two longer and not a cover."""
    V = [{1, 2, 4, 5}, {1, 2, 3, 4}]
    f = permutation(6, V)
    assert f == (3, 4, 5, 7, 8, 6) and affine_length(f) == 2
    assert permutation(6, [{1, 2, 4, 5}, {1, 2, 3}]) in affine_covers(f)
    below = permutation(6, [{1, 2, 4}, {1, 2, 3, 4}])
    assert affine_length(below) == 4 and below not in affine_covers(f)
    assert f not in affine_covers(f)


def permutation(n, rows):
    return affine_permutation(necklace_masks(TransversalMatroid(n, rows))[0], n)


def read_necklaces(M):
    """f read off the entry sets of ``necklace`` and, separately, of
    ``reverse_necklace``.  Forward: I_{i+1} = I_i - {i} + {j} gives
    f(i) = j (mod n); i not in I_i is a loop, f(i) = i; I_{i+1} = I_i
    otherwise is a coloop, f(i) = i + n.  Reverse: J_{a+1} = J_a + {a} - {y}
    gives f(y) = a (mod n); a in J_a is a coloop, and J_{a+1} = J_a
    otherwise is a loop."""
    n = M.n
    I = [frozenset(e) for e in necklace(M)]
    J = [frozenset(e) for e in reverse_necklace(M)]
    forward, reverse = [0] * n, [0] * n
    for i in range(1, n + 1):
        now, nxt = I[i - 1], I[i % n]
        if i not in now:
            forward[i - 1] = i
        elif nxt == now:
            forward[i - 1] = i + n
        else:
            (j,) = nxt - now
            forward[i - 1] = i + (j - i) % n
        now, nxt = J[i - 1], J[i % n]
        if i in now:
            reverse[i - 1] = i + n
        elif nxt == now:
            reverse[i - 1] = i
        else:
            (y,) = now - nxt
            reverse[y - 1] = y + (i - y) % n
    return tuple(forward), tuple(reverse)


def shifted(f, j):
    """f(j) for any integer j >= 1, by f(j + n) = f(j) + n."""
    n = len(f)
    return f[(j - 1) % n] + (j - 1) // n * n


@given(set_systems)
@example((6, [frozenset({1, 2})] * 3))  # rank-deficient: three rows, rank 2; 3..6 are loops
@example((5, [frozenset({2}), frozenset({2, 3, 4}), frozenset()]))  # coloop 2, an empty row
@example((4, [frozenset({1}), frozenset({2})]))  # two coloops, two loops
@example((8, [frozenset({1, 3, 5, 7}), frozenset({2, 4, 6, 8}), frozenset({1, 2, 3, 4})]))
@settings(max_examples=300, deadline=None)
def test_affine_permutation_matches_both_necklaces(system):
    """f agrees with both brute-force readings; it is bounded with
    f(i) - i summing to kn; its length counts the inversions over a wider
    window than it scans; and its covers are exactly the bounded f.t_ab
    that the cover rule of Bruhat order picks (f(a) < f(b), no a < c < b
    with f(a) < f(c) < f(b)), each of length one more."""
    n, rows = system
    M = TransversalMatroid(n, rows)
    assume(any(rows))
    f = affine_permutation(necklace_masks(M)[0], n)
    assert read_necklaces(M) == (f, f)
    k = min(M.basis_masks()).bit_count()
    assert all(i <= v <= i + n for i, v in enumerate(f, start=1))
    assert sum(f) - n * (n + 1) // 2 == k * n
    length = affine_length(f)
    assert length == sum(f[i - 1] > shifted(f, j) for i in range(1, n + 1) for j in range(i + 1, i + 3 * n))
    covers = affine_covers(f)
    want = set()
    for a in range(1, n + 1):
        for b in range(a + 1, a + n):
            fa, fb = f[a - 1], shifted(f, b)
            if fa < fb <= a + n and fa >= b and not any(fa < shifted(f, c) < fb for c in range(a + 1, b)):
                g = list(f)
                g[a - 1], g[(b - 1) % n] = fb, fa - (b - 1) // n * n
                want.add(tuple(g))
    assert len(covers) == len(set(covers)) and set(covers) == want
    for g in covers:
        assert all(i <= v <= i + n for i, v in enumerate(g, start=1))
        assert affine_length(g) == length + 1 and sum(g) == sum(f)
