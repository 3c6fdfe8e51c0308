"""Matroid oracles: Hall rank vs brute-force matching, axioms, positroid tests."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wlpoles.diagrams import Propagator, WilsonLoopDiagram, enumerate_diagrams
from wlpoles.errors import InconsistencyError, StructuralError
from wlpoles.exact import mat_rank
from wlpoles.matroids import (
    Matroid,
    MaxRankMatroid,
    TransversalMatroid,
    check_rank_oracle,
    is_cyclic_interval,
    is_positroid,
    numeric_rank_probe,
    row_unions,
    set_of,
    structure,
)
from wlpoles.poles import limit, limit_matroid, r_poly_edge
from wlpoles.positroids import diagram_matroid
from wlpoles.sampling import seeded_rng

from oracles import MatrixMatroid


def brute_matching_rank(rows, S):
    """Largest subset of S matchable into distinct rows containing it."""
    S = sorted(set(S))
    best = 0
    for size in range(len(S), 0, -1):
        for cols in itertools.combinations(S, size):
            for assign in itertools.permutations(range(len(rows)), size):
                if all(cols[i] in rows[assign[i]] for i in range(size)):
                    return size
    return best


set_systems = st.lists(
    st.sets(st.integers(1, 7), min_size=1, max_size=5), min_size=1, max_size=4
)


@given(set_systems, st.sets(st.integers(1, 7)))
@settings(max_examples=150, deadline=None)
def test_matching_rank_matches_brute_force(rows, S):
    M = TransversalMatroid(7, [frozenset(r) for r in rows])
    assert M.rank(S) == brute_matching_rank(rows, S)


def test_hall_rank_matches_brute_force_exhaustively():
    # every column subset of every system of 1-3 rows on [5], repeated
    # and empty rows included
    subsets = [frozenset(S) for r in range(6) for S in itertools.combinations(range(1, 6), r)]
    queries = 0
    for size in (1, 2, 3):
        for rows in itertools.combinations_with_replacement(subsets, size):
            M = TransversalMatroid(5, rows)
            for S in subsets:
                assert M.rank(S) == brute_matching_rank(rows, S), (rows, sorted(S))
                queries += 1
    assert queries == 6_544 * 32


def kuhn_matching_rank(rows, S):
    """Maximum matching of S into the rows by augmenting paths."""
    owner = {}

    def augment(c, seen):
        for r, row in enumerate(rows):
            if c in row and r not in seen:
                seen.add(r)
                if r not in owner or augment(owner[r], seen):
                    owner[r] = c
                    return True
        return False

    return sum(augment(c, set()) for c in sorted(S))


def test_hall_rank_matches_matching_on_wide_systems():
    # up to 10 rows, singleton and repeated rows included, where the
    # pruned union table must still reach every rank
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(6, 10)
        rows = [
            frozenset(rng.sample(range(1, n + 1), rng.choice((1, 1, 2, 3, n // 2))))
            for _ in range(rng.randint(4, n))
        ]
        M = TransversalMatroid(n, rows)
        for _ in range(40):
            S = {v for v in range(1, n + 1) if rng.random() < 0.6}
            assert M.rank(S) == kuhn_matching_rank(rows, S), (rows, sorted(S))


def test_rank_table_keeps_few_unions_on_many_rows():
    # 16 singleton rows have 2^16 distinct unions, but a rank query reads
    # only the union of all rows (a row left by one column is dropped)
    M = TransversalMatroid(16, [{v} for v in range(1, 17)])
    assert len(M._hall) == 1
    assert M.rank(range(1, 17)) == 16 and M.rank({2, 5, 9}) == 3
    bands = TransversalMatroid(16, [{v, v % 16 + 1, (v + 1) % 16 + 1} for v in range(1, 17)])
    assert len(bands._hall) <= 2 and bands.rank(range(1, 17)) == 16


def test_row_unions_covers_every_subset():
    masks = [0b0011, 0b0110, 0, 0b1000]
    unions = row_unions(masks)
    assert len(unions) == 16
    for T in range(16):
        want = 0
        for i, m in enumerate(masks):
            if T >> i & 1:
                want |= m
        assert unions[T] == want


def test_more_rows_than_columns_rejected_before_any_table():
    for k in (5, 24):
        with pytest.raises(StructuralError, match="never have full rank"):
            TransversalMatroid(4, [{1, 2, 3, 4}] * k)
    with pytest.raises(StructuralError, match="capped"):
        TransversalMatroid(64, [{1}] * 21)


@given(set_systems, st.sets(st.integers(1, 7)), st.sets(st.integers(1, 7)))
@settings(max_examples=120, deadline=None)
def test_rank_submodular_monotone(rows, A, B):
    M = TransversalMatroid(7, [frozenset(r) for r in rows])
    assert M.rank(A | B) + M.rank(A & B) <= M.rank(A) + M.rank(B)
    assert M.rank(A) <= M.rank(A | B) <= M.rank(A) + len(B - A)


@given(set_systems, st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_matching_rank_equals_numeric_probe(rows, seed):
    M = TransversalMatroid(7, [frozenset(r) for r in rows])
    S = frozenset(range(1, 8))
    assert M.rank(S) == numeric_rank_probe(M, S, seed)


def test_check_rank_oracle_runs():
    M = TransversalMatroid(6, [{1, 2, 4, 5}, {1, 2, 3, 4}])
    assert check_rank_oracle(M, {1, 2, 3, 4, 5, 6}) == 2


def test_basis_exchange_sampled():
    rng = seeded_rng(11, "exchange")
    for W in enumerate_diagrams(2, 7)[:8]:
        M = diagram_matroid(W)
        bases = sorted(M.bases(), key=sorted)
        for _ in range(20):
            B1 = bases[rng.randrange(len(bases))]
            B2 = bases[rng.randrange(len(bases))]
            for x in B1 - B2:
                assert any(
                    (B1 - {x}) | {y} in M.bases() for y in B2 - B1
                ), f"exchange fails for {sorted(B1)}, {sorted(B2)}"


def test_closure_and_flats():
    M = TransversalMatroid(6, [{1, 2, 4, 5}, {1, 2, 3, 4}])
    for F in M.flats():
        assert M.closure(F) == F
    S = {1, 2}
    cl = M.closure(S)
    assert S <= cl
    assert M.rank(cl) == M.rank(S)


def test_flats_are_listed_once_per_matroid(monkeypatch):
    """structure asks for the flats four times (directly, and through cyclic
    flats, flacets and the positroid test); the 2^n closures run once."""
    closures = []
    closure = Matroid.closure
    monkeypatch.setattr(Matroid, "closure", lambda self, S: closures.append(S) or closure(self, S))
    M = diagram_matroid(WilsonLoopDiagram(7, (Propagator.of(1, 3), Propagator.of(1, 5))))
    flats = M.flats()
    assert len(closures) == 2 ** 7 and len(flats) == 6
    flats.clear()  # the caller's copy; the instance keeps its own
    report = structure(M)
    assert [F for _, fs in report.flats_by_rank for F in fs] == M.flats()
    # after the scan, only is_cyclic_flat's one closure per flat
    assert len(closures) == 2 ** 7 + 6


def test_structure_lists_flacets_once(monkeypatch):
    """structure reads its positroid verdict from its one list of flacets,
    and the verdict can still fail: {1, 3} is a flacet of rows {1, 3},
    {2, 4} and not a cyclic interval."""
    calls = []
    flacets = Matroid.flacets
    monkeypatch.setattr(Matroid, "flacets", lambda self: calls.append(self) or flacets(self))
    good = diagram_matroid(WilsonLoopDiagram(7, (Propagator.of(1, 3), Propagator.of(1, 5))))
    bad = TransversalMatroid(4, [{1, 3}, {2, 4}])
    for M, positroid in ((good, True), (bad, False)):
        calls.clear()
        report = structure(M)
        assert len(calls) == 1
        assert report.positroid is positroid
    assert frozenset({1, 3}) in report.flacets
    assert is_positroid(bad).witness == frozenset({1, 3})


def test_uniform_u24_has_no_flacets():
    M = TransversalMatroid(4, [{1, 2, 3, 4}, {1, 2, 3, 4}])
    assert M.k == 2
    assert structure(M).flacets == ()
    assert is_positroid(M).ok


def test_flacets_are_cyclic_flats():
    for W in enumerate_diagrams(2, 6):
        M = diagram_matroid(W)
        cyclic = set(M.cyclic_flats())
        for F in M.flacets():
            assert F in cyclic


def test_diagram_matroids_pass_positroid_test():
    for W in enumerate_diagrams(2, 7):
        verdict = is_positroid(diagram_matroid(W), expect=True)
        assert verdict.ok


def test_is_cyclic_interval():
    assert is_cyclic_interval({5, 6, 1}, 6)
    assert is_cyclic_interval({2, 3}, 6)
    assert is_cyclic_interval(set(), 6)
    assert is_cyclic_interval({1, 2, 3, 4, 5, 6}, 6)
    assert not is_cyclic_interval({1, 3}, 6)


def test_matrix_matroid_agrees_with_transversal_on_generic_rows():
    for W in enumerate_diagrams(2, 6)[:6]:
        rows = W.supports()
        from wlpoles.exact import Polynomial, VarId

        sym = [
            {c: Polynomial.variable(VarId(r0, c)) for c in sorted(sup)}
            for r0, sup in enumerate(rows, start=1)
        ]
        Mt = TransversalMatroid(W.n, rows)
        Mx = MatrixMatroid(W.n, sym)
        assert Mt.bases() == Mx.bases()


def quadratic_limits(k, n):
    """Each quadratic factor at (k, n) with the limit matroid that
    ``verify_group`` reads and the symbolic oracle of its limit rows."""
    for W in enumerate_diagrams(k, n):
        for f in r_poly_edge(W).factors:
            if f.kind == "quad":
                lim = limit(W, f)
                yield W, f, limit_matroid(W.n, lim.key), MatrixMatroid(W.n, lim.rows())


@pytest.mark.parametrize("k, n, count", [(2, 6, 18), (2, 7, 42), (3, 7, 161)])
def test_quadratic_limit_rank_is_the_max_over_two_transversal_systems(k, n, count):
    """Every quadratic, codimension >= 2 ones included, on all 2^n subsets."""
    seen = 0
    for W, f, M, oracle in quadratic_limits(k, n):
        seen += 1
        for mask in range(1 << n):
            assert M.rank_mask(mask) == oracle.rank_mask(mask), (W, f, mask)
    assert seen == count


def test_quadratic_limit_bases_match_the_symbolic_oracle_at_k3_n8():
    seen = 0
    for W, f, M, oracle in quadratic_limits(3, 8):
        seen += 1
        assert M.bases() == oracle.bases(), (W, f)
    assert seen == 520


@pytest.mark.parametrize("k, n", [(2, 7), (3, 7), (3, 8)])
def test_basis_masks_match_the_rank_scan(k, n):
    """A diagram's bases from its systems of distinct representatives, and
    each limit matroid's (a single entry's system, or a quadratic's
    max-rank pair as the union of its full-rank parts' bases), equal the
    generic k-subset rank scan on a fresh copy."""
    kinds = set()
    for W in enumerate_diagrams(k, n):
        assert diagram_matroid(W).basis_masks() == Matroid._basis_masks(diagram_matroid(W)), W
        for f in r_poly_edge(W).factors:
            key = limit(W, f).key
            M = limit_matroid(n, key)
            assert M.basis_masks() == Matroid._basis_masks(limit_matroid(n, key)), (W, f)
            kinds.add(type(M))
    assert kinds == {TransversalMatroid, MaxRankMatroid}


def test_transversal_bases_need_a_rank_only_when_rank_deficient():
    full = TransversalMatroid(6, [{1, 2, 4, 5}, {1, 2, 3, 4}])
    assert len(full.basis_masks()) == 10 and "_hall" not in vars(full)
    short = TransversalMatroid(6, [{1, 2}, {1, 2}, {1, 2, 3}, set()])
    assert short.bases() == {frozenset({1, 2, 3})} and "_hall" in vars(short)
    assert short.bases() == frozenset(map(set_of, Matroid._basis_masks(short)))


def test_restrict_contract_ranks():
    M = TransversalMatroid(6, [{1, 2, 4, 5}, {1, 2, 3, 4}])
    F = frozenset({1, 2, 3})
    R = M.restrict(F)
    assert R.k == M.rank(F)
    C = M.contract(F)
    assert C.k == M.k - M.rank(F)
