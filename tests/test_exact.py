"""Polynomial ring, determinants and structured factorization."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wlpoles.errors import UnstructuredResidualError
from wlpoles.exact import (
    Polynomial,
    VarId,
    _integer_rows,
    clear_row,
    int_det,
    mat_det,
    mat_rank,
    poly_det,
    replacement_dets,
    structured_factorize,
)

V = [VarId(r, c) for r in range(1, 4) for c in range(1, 4)]


def small_polys(depth=2):
    atoms = st.one_of(
        st.sampled_from(V).map(Polynomial.variable),
        st.integers(-4, 4).map(lambda c: Polynomial.constant(Fraction(c))),
    )
    return st.recursive(
        atoms,
        lambda sub: st.tuples(sub, sub, st.sampled_from("+-*")).map(
            lambda t: t[0] + t[1] if t[2] == "+" else (t[0] - t[1] if t[2] == "-" else t[0] * t[1])
        ),
        max_leaves=6,
    )


@given(small_polys(), small_polys(), small_polys())
@settings(max_examples=120, deadline=None)
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Polynomial.zero()


@given(small_polys())
@settings(max_examples=80, deadline=None)
def test_evaluate_is_ring_hom(p):
    point = {v: Fraction(i + 2, 3) for i, v in enumerate(V)}
    q = p * p + p
    assert q.evaluate(point) == p.evaluate(point) * p.evaluate(point) + p.evaluate(point)


def test_division_exact_roundtrip():
    x = Polynomial.variable(VarId(1, 1))
    y = Polynomial.variable(VarId(1, 2))
    p = (x + y) * (x - y) * x
    assert p.div_exact(x) == (x + y) * (x - y)
    assert p.div_exact(x + y) == (x - y) * x
    assert p.div_exact(y) is None


def test_poly_det_matches_permutation_expansion():
    rng_vals = [[Polynomial.variable(VarId(r, c)) for c in range(1, 4)] for r in range(1, 4)]
    det = poly_det(rng_vals)
    expected = Polynomial.zero()
    for perm in itertools.permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Polynomial.constant(Fraction(sign))
        for i in range(3):
            term = term * rng_vals[i][perm[i]]
        expected = expected + term
    assert det == expected


def test_poly_det_row_swap_flips_sign():
    rows = [[Polynomial.variable(VarId(r, c)) for c in range(1, 4)] for r in range(1, 4)]
    d = poly_det(rows)
    swapped = [rows[1], rows[0], rows[2]]
    assert poly_det(swapped) == Polynomial.constant(Fraction(-1)) * d


@given(
    st.lists(
        st.lists(st.fractions(max_denominator=20, min_value=-5, max_value=5), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_mat_det_matches_permutation_expansion(grid):
    grid = [[Fraction(x) for x in row] for row in grid]
    got = mat_det([row[:] for row in grid])
    expected = Fraction(0)
    for perm in itertools.permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        term = Fraction(sign)
        for i in range(3):
            term *= grid[i][perm[i]]
        expected += term
    assert got == expected


def test_mat_rank_basic():
    assert mat_rank([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]) == 1
    assert mat_rank([[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]) == 2
    assert mat_rank([]) == 0


# Reference kernels: plain Fraction Gaussian elimination, against which the
# fraction-free Bareiss kernels in wlpoles.exact are checked.


def _fraction_rank(rows):
    work = [[Fraction(x) for x in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        pivot = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = 1 / work[rank][col]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
        rank += 1
        col += 1
    return rank


def _fraction_det(rows):
    n = len(rows)
    work = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det *= work[col][col]
        inv = 1 / work[col][col]
        for r in range(col + 1, n):
            if work[r][col]:
                factor = work[r][col] * inv
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return det


def _rand_rational(rng):
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _rand_matrix(rng, nrows, ncols):
    return [[_rand_rational(rng) for _ in range(ncols)] for _ in range(nrows)]


def _matrix_families(rng):
    """Tall, wide, rank-deficient and zero-row rational matrices.

    Yields (matrix, deficient); a deficient matrix has more columns than
    independent rows, so its rank is below its row count.
    """
    yield _rand_matrix(rng, rng.randint(4, 7), rng.randint(1, 3)), False
    yield _rand_matrix(rng, rng.randint(1, 3), rng.randint(4, 7)), False
    r = rng.randint(2, 5)
    m = _rand_matrix(rng, r, rng.randint(r + 1, 7))
    i, j = rng.sample(range(r), 2)
    m.insert(rng.randint(0, r), [a + b for a, b in zip(m[i], m[j])])
    yield m, True
    r = rng.randint(2, 5)
    m = _rand_matrix(rng, r, rng.randint(r + 1, 7))
    m.insert(rng.randint(0, r), [Fraction(0)] * len(m[0]))
    yield m, True


def test_mat_rank_matches_fraction_elimination():
    rng = random.Random(20260)
    for _ in range(60):
        for m, deficient in _matrix_families(rng):
            expected = _fraction_rank(m)
            assert mat_rank([row[:] for row in m]) == expected
            if deficient:
                assert expected < len(m)


def test_mat_rank_accepts_ints_and_zero_columns():
    assert mat_rank([[0, 0, 1], [0, 0, 2], [0, 3, 0]]) == 2
    assert mat_rank([[0, 0], [0, 0]]) == 0
    assert mat_rank(iter([[1, Fraction(1, 2)], [2, 1]])) == 1


def test_mat_det_empty_is_one():
    assert mat_det([]) == 1


def test_mat_det_singular():
    rng = random.Random(7)
    for n in range(1, 7):
        m = _rand_matrix(rng, n, n)
        m[rng.randrange(n)] = [Fraction(0)] * n
        assert mat_det(m) == 0
        if n >= 3:
            m = _rand_matrix(rng, n - 1, n)
            m.append([a - 2 * b for a, b in zip(m[0], m[1])])
            assert mat_det(m) == 0 == _fraction_det(m)


def test_mat_det_row_swaps():
    assert mat_det([[0, 1], [1, 0]]) == -1
    assert mat_det([[0, 0, Fraction(1, 3)], [0, 2, 5], [Fraction(3, 2), 1, 1]]) == -1
    m = [[0, Fraction(2, 3), 1, 0], [0, 0, 4, 1], [Fraction(-1, 5), 1, 0, 2], [1, 1, 1, 1]]
    assert mat_det(m) == _fraction_det(m) != 0
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(2, 6)
        m = _rand_matrix(rng, n, n)
        m[0][0] = Fraction(0)
        assert mat_det([row[:] for row in m]) == _fraction_det(m)


def test_int_det_and_cleared_rows_match_mat_det():
    m = [[Fraction(1, 3), 2, Fraction(-5, 4)], [1, 0, 7], [Fraction(2, 9), Fraction(1, 2), 3]]
    cleared = [clear_row(row) for row in m]
    scale = 1
    for _, s in cleared:
        scale *= s
    assert Fraction(int_det([ints for ints, _ in cleared]), scale) == mat_det(m) == _fraction_det(m)
    assert int_det([[0, 1], [1, 0]]) == -1 and int_det([[1, 2], [2, 4]]) == 0 and int_det([]) == 1


@st.composite
def five_by_four(draw):
    """A random integer 5x4 matrix in which, three times in four, one row
    is an integer combination of two others, a copy of another, or zero,
    so singular 4x4 blocks are common."""
    ints = st.integers(-10**6, 10**6) | st.integers(-3, 3)
    rows = [draw(st.lists(ints, min_size=4, max_size=4)) for _ in range(5)]
    how = draw(st.sampled_from(["random", "combination", "repeat", "zero"]))
    i, j, l = draw(st.permutations(range(5)))[:3]
    if how == "combination":
        a, b = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[l])]
    elif how == "repeat":
        rows[i] = list(rows[j])
    elif how == "zero":
        rows[i] = [0] * 4
    return rows


@given(five_by_four())
@settings(max_examples=300, deadline=None)
def test_replacement_dets_match_int_det(rows):
    """The Laplace kernel's five determinants are ``int_det`` of rows 0-3
    and of rows 0-3 with row 4 in each slot, singular blocks included."""
    want = [int_det([list(r) for r in rows[:4]])]
    for slot in range(4):
        block = [list(r) for r in rows[:4]]
        block[slot] = list(rows[4])
        want.append(int_det(block))
    assert list(replacement_dets(rows)) == want


def test_variables_are_shared_and_a_1x1_determinant_is_its_entry():
    x = Polynomial.variable(VarId(2, 5))
    assert x is Polynomial.variable(VarId(2, 5)) and x == Polynomial({((VarId(2, 5), 1),): 1})
    assert x * 3 + x == 4 * x and x.terms == {((VarId(2, 5), 1),): 1}  # arithmetic leaves the shared one as it is
    assert poly_det([[x]]) is x


def test_clear_row_copies_an_integer_row_without_an_lcm_pass():
    row = [3, -4, 0]
    ints, scale = clear_row(row)
    assert ints == row and ints is not row and scale == 1
    assert clear_row([Fraction(1, 6), Fraction(3, 4), 2]) == ([2, 9, 24], 12)
    assert _integer_rows([row, [Fraction(1, 2), 1]]) == ([[3, -4, 0], [1, 2]], 2)


def test_mat_det_rejects_non_square():
    with pytest.raises(ValueError):
        mat_det([[1, 2, 3], [4, 5, 6]])


def test_structured_factorize_recomposes():
    x11 = Polynomial.variable(VarId(1, 1))
    x12 = Polynomial.variable(VarId(1, 2))
    cross = Polynomial.cross_term(1, 2, 3, 4)
    p = x11 * x11 * x12 * cross
    fac = structured_factorize(p)
    assert fac.ok
    assert dict(fac.var_factors) == {VarId(1, 1): 2, VarId(1, 2): 1}
    assert dict(fac.cross_factors) == {(1, 2, 3, 4): 1}
    recomposed = Polynomial.constant(fac.residual)
    for v, m in fac.var_factors:
        for _ in range(m):
            recomposed = recomposed * Polynomial.variable(v)
    for key, m in fac.cross_factors:
        for _ in range(m):
            recomposed = recomposed * Polynomial.cross_term(*key)
    assert recomposed == p


def test_structured_factorize_strict_raises_on_residual():
    x11 = Polynomial.variable(VarId(1, 1))
    x22 = Polynomial.variable(VarId(2, 2))
    p = x11 + x22
    with pytest.raises(UnstructuredResidualError):
        structured_factorize(p, strict=True)
    fac = structured_factorize(p)
    assert not fac.ok


@given(st.sampled_from(V), st.sampled_from(V))
@settings(max_examples=40, deadline=None)
def test_derivative_product_rule(u, v):
    pu, pv = Polynomial.variable(u), Polynomial.variable(v)
    p = (pu + Polynomial.constant(Fraction(2))) * pv
    lhs = p.derivative(u)
    rhs = pv if u != v else pv + (pu + Polynomial.constant(Fraction(2)))
    assert lhs == rhs


def coefficients(*polys):
    return [c for p in polys for c in p.terms.values()]


def test_div_exact_stays_exact_above_2_53():
    g = Polynomial.cross_term(1, 2, 3, 4)
    q = (Polynomial.constant(3 ** 40) * g).div_exact(Polynomial.constant(3) * g)
    assert q == Polynomial.constant(3 ** 39)
    assert q.terms == {(): 4052555153018976267} and type(q.terms[()]) is int
    # a quotient that leaves the integers is an exact Fraction, never a float
    x = Polynomial.variable(VarId(1, 1))
    half = (Polynomial.constant(2 ** 60 + 1) * x).div_exact(Polynomial.constant(2) * x)
    assert half.terms == {(): Fraction(2 ** 60 + 1, 2)} and type(half.terms[()]) is Fraction


def int_polys():
    atoms = st.one_of(
        st.sampled_from(V).map(Polynomial.variable),
        st.integers(-(2 ** 70), 2 ** 70).map(Polynomial.constant),
    )
    return st.recursive(
        atoms,
        lambda sub: st.tuples(sub, sub, st.sampled_from("+-*")).map(
            lambda t: t[0] + t[1] if t[2] == "+" else (t[0] - t[1] if t[2] == "-" else t[0] * t[1])
        ),
        max_leaves=5,
    )


@given(int_polys(), int_polys(), int_polys(), int_polys())
@settings(max_examples=80, deadline=None)
def test_integer_polynomials_stay_in_int(a, b, c, d):
    """Sums, products, determinants and exact quotients of integer
    polynomials keep every coefficient an ``int``; no float ever appears."""
    det = poly_det([[a, b], [c, d]])
    assert det == a * d - b * c
    results = [a + b, a - b, a * b, det]
    if not b.is_zero():
        quot = (a * b).div_exact(b)
        assert quot == a
        results.append(quot)
    assert all(type(x) is int for x in coefficients(*results))


@given(
    st.integers(-(2 ** 70), 2 ** 70).filter(bool),
    st.lists(st.sampled_from(V), max_size=3),
    st.lists(st.sampled_from([(1, 2, 1, 2), (1, 3, 2, 3), (2, 3, 1, 3)]), max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_structured_factorize_keeps_an_integer_residual(scale, variables, crosses):
    p = Polynomial.constant(scale)
    for v in variables:
        p = p * Polynomial.variable(v)
    for key in crosses:
        p = p * Polynomial.cross_term(*key)
    fac = structured_factorize(p, strict=True)
    assert fac.ok and abs(fac.residual) == abs(scale) and type(fac.residual) is int
    assert sorted(v for v, m in fac.var_factors for _ in range(m)) == sorted(variables)
    assert sum(m for _, m in fac.cross_factors) == len(crosses)


def test_int_and_fraction_coefficients_compare_and_hash_alike():
    x = Polynomial.variable(VarId(1, 1))
    mono = next(iter(x.terms))
    as_int, as_fraction = Polynomial({mono: 3}), Polynomial({mono: Fraction(6, 2)})
    assert type(as_fraction.terms[mono]) is int  # an integral Fraction is stored as int
    assert as_int == as_fraction and hash(as_int) == hash(as_fraction)
    # arithmetic through halves leaves a Fraction(1), still equal to x
    round_trip = x * Fraction(1, 2) * 2
    assert type(round_trip.terms[mono]) is Fraction
    assert round_trip == x and hash(round_trip) == hash(x)
    assert Polynomial.constant(Fraction(4, 2)) == 2 and Polynomial.constant(Fraction(1, 2)) != 0
    assert all(type(c) is int for c in coefficients(Polynomial.cross_term(1, 2, 3, 4), x, x ** 3))
