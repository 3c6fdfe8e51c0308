"""Exact multivariate polynomial arithmetic over the rationals.

Everything downstream (pole polynomials, symbolic minors, Jacobian
probes) is built on the small ring implemented here.  Coefficients are
exact rationals: an integer coefficient is kept as an ``int``, so sums,
products and determinants of integer polynomials stay in ``int``, and a
``fractions.Fraction`` appears only where a division leaves the
integers.  Equality tests are exact and no tolerance or float ever
enters the picture; an ``int`` and a ``Fraction`` of equal value compare
and hash alike, so polynomials do too.

Variables are ``VarId(row, col)`` pairs: ``row`` indexes a matrix row
(a propagator) and ``col`` a cyclic vertex.  Auxiliary variables with
negative ``col`` are allowed; they are used for dependency parameters
in rank computations.

Monomials are compared in lexicographic order with the *smallest*
``VarId`` most significant.  Lex order is multiplicative, which makes
single-divisor long division a sound exactness test: division either
runs to a zero remainder or the first non-divisible leading term
proves the divisor is not a factor.

The numeric kernels ``mat_det`` and ``mat_rank`` clear each row's
denominators and run fraction-free integer elimination (Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian
elimination", Math. Comp. 1968), so no Fraction is built inside the
elimination loop.  ``int_det`` is the integer kernel alone, for callers
that clear their rows once and keep them.  ``replacement_dets`` takes the
five 4x4 minors of a 5x4 integer matrix that keep its last row in place
of one of the first four, by Laplace expansion over shared 2x2 minors.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .errors import UnstructuredResidualError


class VarId(NamedTuple):
    row: int
    col: int

    def __str__(self) -> str:
        return f"x[{self.row},{self.col}]"


# A monomial is a tuple of (variable, exponent) pairs, sorted by
# variable, with all exponents positive.  The empty tuple is 1.
Mono = tuple  # tuple[tuple[VarId, int], ...]

Scalar = Union[int, Fraction]


def _mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            out.append((va, ea + eb))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _mono_key(m: Mono):
    """Sort key realizing lex order, smallest VarId most significant.

    Encoded so that tuple comparison of keys matches monomial
    comparison: for each variable in order we emit (var, -exponent)
    and close with a sentinel larger than any real VarId, so a missing
    variable (exponent zero) loses to a present one.
    """
    key = []
    for var, exp in m:
        key.append((var, -exp))
    key.append(((1 << 60, 1 << 60), 0))
    return tuple(key)


def _mono_divides(a: Mono, b: Mono) -> bool:
    """True if monomial a divides monomial b."""
    i = 0
    for var, exp in a:
        while i < len(b) and b[i][0] < var:
            i += 1
        if i >= len(b) or b[i][0] != var or b[i][1] < exp:
            return False
    return True


def _mono_div(b: Mono, a: Mono) -> Mono:
    """b / a, assuming a divides b."""
    quot = dict(b)
    for var, exp in a:
        rem = quot[var] - exp
        if rem:
            quot[var] = rem
        else:
            del quot[var]
    return tuple(sorted(quot.items()))


def _scalar(c) -> Scalar:
    """An exact coefficient: an ``int`` as it is, anything else through
    ``Fraction``, with an integral value returned as an ``int``."""
    if type(c) is int:
        return c
    c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients,
    ``int`` where they are integers."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Mono, Scalar] | None = None):
        clean: dict[Mono, Scalar] = {}
        if terms:
            for mono, coef in terms.items():
                c = _scalar(coef)
                if c:
                    clean[mono] = c
        self.terms = clean

    # construction helpers

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def constant(c: Scalar) -> "Polynomial":
        return Polynomial({(): c})

    @staticmethod
    @functools.cache
    def variable(var: VarId) -> "Polynomial":
        """The polynomial of one variable, one shared object per variable
        (polynomials are immutable)."""
        return Polynomial({((var, 1),): 1})

    @staticmethod
    def cross_term(a: int, b: int, i: int, j: int) -> "Polynomial":
        """x[a,i] x[b,j] - x[a,j] x[b,i], the generic 2x2 determinant."""
        xai, xbj = VarId(a, i), VarId(b, j)
        xaj, xbi = VarId(a, j), VarId(b, i)
        return Polynomial(
            {
                tuple(sorted(((xai, 1), (xbj, 1)))): 1,
                tuple(sorted(((xaj, 1), (xbi, 1)))): -1,
            }
        )

    # ring operations

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if isinstance(other, Polynomial):
            return self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == Polynomial.constant(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for mono, coef in other.terms.items():
            acc = out.get(mono, 0) + coef
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        p = Polynomial.__new__(Polynomial)
        p.terms = out
        return p

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        p = Polynomial.__new__(Polynomial)
        p.terms = {m: -c for m, c in self.terms.items()}
        return p

    def __sub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[Mono, Scalar] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                acc = out.get(mono, 0) + c1 * c2
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        p = Polynomial.__new__(Polynomial)
        p.terms = out
        return p

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Polynomial.constant(1)
        for _ in range(n):
            result = result * self
        return result

    # queries

    def variables(self) -> set[VarId]:
        seen: set[VarId] = set()
        for mono in self.terms:
            for var, _ in mono:
                seen.add(var)
        return seen

    def leading(self) -> tuple[Mono, Scalar]:
        """Leading (monomial, coefficient) in lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        mono = min(self.terms, key=_mono_key)
        return mono, self.terms[mono]

    def constant_value(self) -> Scalar:
        """The value of a constant polynomial; error if non-constant."""
        if not self.terms:
            return 0
        if len(self.terms) == 1 and () in self.terms:
            return self.terms[()]
        raise ValueError(f"not a constant: {self}")

    # calculus and evaluation

    def derivative(self, var: VarId) -> "Polynomial":
        out: dict[Mono, Scalar] = {}
        for mono, coef in self.terms.items():
            for idx, (v, e) in enumerate(mono):
                if v != var:
                    continue
                if e == 1:
                    new = mono[:idx] + mono[idx + 1 :]
                else:
                    new = mono[:idx] + ((v, e - 1),) + mono[idx + 1 :]
                acc = out.get(new, 0) + coef * e
                if acc:
                    out[new] = acc
                else:
                    out.pop(new, None)
                break
        p = Polynomial.__new__(Polynomial)
        p.terms = out
        return p

    def evaluate(self, assignment: Mapping[VarId, Scalar]) -> Fraction:
        total = Fraction(0)
        for mono, coef in self.terms.items():
            val = coef
            for var, exp in mono:
                if var not in assignment:
                    raise ValueError(f"no value assigned to {var}")
                val *= Fraction(assignment[var]) ** exp
            total += val
        return total

    def div_exact(self, divisor: "Polynomial") -> "Polynomial | None":
        """Return self / divisor if the division is exact, else None.

        Each quotient coefficient is an exact rational: ``//`` when two
        ``int``s divide evenly, else a ``Fraction`` (``int / int`` would
        be a float, inexact above 2^53)."""
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return Polynomial.zero()
        lead_mono, lead_coef = divisor.leading()
        quotient: dict[Mono, Scalar] = {}
        rem = self
        while rem.terms:
            rmono, rcoef = rem.leading()
            if not _mono_divides(lead_mono, rmono):
                return None
            qmono = _mono_div(rmono, lead_mono)
            if type(rcoef) is int and type(lead_coef) is int and rcoef % lead_coef == 0:
                qcoef = rcoef // lead_coef
            else:
                qcoef = Fraction(rcoef, lead_coef)
            quotient[qmono] = quotient.get(qmono, 0) + qcoef
            rem = rem - Polynomial({qmono: qcoef}) * divisor
        return Polynomial(quotient)

    # presentation

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        ordered = sorted(self.terms, key=_mono_key)
        pieces = []
        for mono in ordered:
            coef = self.terms[mono]
            body = "*".join(
                str(v) if e == 1 else f"{v}^{e}" for v, e in mono
            )
            mag = abs(coef)
            if not body:
                chunk = str(mag)
            elif mag == 1:
                chunk = body
            else:
                chunk = f"{mag}*{body}"
            if not pieces:
                pieces.append(chunk if coef > 0 else f"-{chunk}")
            else:
                pieces.append(f"+ {chunk}" if coef > 0 else f"- {chunk}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Polynomial({self})"


def _coerce(value) -> "Polynomial":
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return NotImplemented


# ---------------------------------------------------------------------------
# structured factorization


@dataclass(frozen=True)
class Factorization:
    """Multiset of variable and 2x2 determinant factors plus residual.

    ``ok`` is True when the residual after dividing out all factors is
    a nonzero constant, i.e. the polynomial is exactly a scalar times
    the listed factors.
    """

    var_factors: tuple[tuple[VarId, int], ...]
    cross_factors: tuple[tuple[tuple[int, int, int, int], int], ...]
    residual: Scalar
    ok: bool


def structured_factorize(poly: Polynomial, strict: bool = False) -> Factorization:
    """Split a polynomial into single variables and generic 2x2 minors.

    Variable factors are pulled out as the per-variable minimum
    exponent across all terms.  Cross factors x[a,i]x[b,j]-x[a,j]x[b,i]
    are then removed by trial exact division until none divides.  With
    ``strict`` a non-constant residual raises instead of reporting
    ok=False.
    """
    if poly.is_zero():
        raise ValueError("cannot factor the zero polynomial")

    # minimum exponent of each variable over all monomials
    min_exp: dict[VarId, int] = {}
    first = True
    for mono in poly.terms:
        present = dict(mono)
        if first:
            min_exp = dict(present)
            first = False
        else:
            for var in list(min_exp):
                e = present.get(var, 0)
                if e == 0:
                    del min_exp[var]
                elif e < min_exp[var]:
                    min_exp[var] = e

    var_factors = tuple(sorted(min_exp.items()))
    if min_exp:
        shift = tuple(sorted(min_exp.items()))
        stripped = {}
        for mono, coef in poly.terms.items():
            stripped[_mono_div(mono, shift)] = coef
        reduced = Polynomial(stripped)
    else:
        reduced = poly

    cross_counts: dict[tuple[int, int, int, int], int] = {}
    while True:
        if len(reduced.terms) == 1 and () in reduced.terms:
            break
        rows: dict[int, set[int]] = {}
        for var in reduced.variables():
            rows.setdefault(var.row, set()).add(var.col)
        hit = False
        for a in sorted(rows):
            for b in sorted(rows):
                if b <= a:
                    continue
                shared = sorted(rows[a] & rows[b])
                for x in range(len(shared)):
                    for y in range(x + 1, len(shared)):
                        i, j = shared[x], shared[y]
                        cand = Polynomial.cross_term(a, b, i, j)
                        quot = reduced.div_exact(cand)
                        if quot is not None:
                            key = (a, b, i, j)
                            cross_counts[key] = cross_counts.get(key, 0) + 1
                            reduced = quot
                            hit = True
                            break
                    if hit:
                        break
                if hit:
                    break
            if hit:
                break
        if not hit:
            break

    cross_factors = tuple(sorted(cross_counts.items()))
    try:
        residual = reduced.constant_value()
        ok = residual != 0
    except ValueError:
        if strict:
            raise UnstructuredResidualError(
                f"non-constant residual after factoring: {reduced}"
            )
        return Factorization(var_factors, cross_factors, 0, False)
    return Factorization(var_factors, cross_factors, residual, ok)


# ---------------------------------------------------------------------------
# exact linear algebra


def poly_det(rows: Sequence[Sequence[Polynomial]]) -> Polynomial:
    """Determinant of a square matrix of polynomials.

    Cofactor expansion with memoization on (depth, live column set);
    fine for the small matrices that arise here.
    """
    n = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Polynomial.constant(1)
    if n == 1:
        return rows[0][0]

    cache: dict[tuple[int, ...], Polynomial] = {}

    def expand(depth: int, cols: tuple[int, ...]) -> Polynomial:
        if not cols:
            return Polynomial.constant(1)
        if cols in cache:
            return cache[cols]
        total = Polynomial.zero()
        for pos, c in enumerate(cols):
            entry = rows[depth][c]
            if entry.is_zero():
                continue
            sub = expand(depth + 1, cols[:pos] + cols[pos + 1 :])
            piece = entry * sub
            total = total + (piece if pos % 2 == 0 else -piece)
        cache[cols] = total
        return total

    return expand(0, tuple(range(n)))


def specialize(
    rows: Iterable[Mapping[int, Polynomial]], n: int, point: dict[VarId, int], rng
) -> list[list[Scalar]]:
    """Rows of polynomials keyed by column 1..n, as full rows at ``point``.

    A variable not yet in ``point`` gets one draw ``rng.randint(1, 2**30)``.
    Integer coefficients are ints, so integer polynomials give integer
    rows without building a Fraction.
    """
    out = []
    for row in rows:
        vals = [0] * n
        for c, poly in row.items():
            for mono, coef in poly.terms.items():
                term = coef
                for var, exp in mono:
                    if var not in point:
                        point[var] = rng.randint(1, 1 << 30)
                    term *= point[var] ** exp
                vals[c - 1] += term
        out.append(vals)
    return out


def clear_row(row: Sequence[Scalar]) -> tuple[list[int], int]:
    """The row times the lcm of its denominators, and that lcm (1 for a
    row that is already all ``int``, which is copied without a pass)."""
    if all(type(x) is int for x in row):
        return list(row), 1
    m = lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row], m


def _integer_rows(rows: Iterable[Sequence[Scalar]]) -> tuple[list[list[int]], int]:
    """Each row times the lcm of its denominators, and the product of those lcms."""
    out = []
    scale = 1
    for row in rows:
        ints, m = clear_row(row)
        out.append(ints)
        scale *= m
    return out, scale


def _bareiss(work: list[list[int]]) -> tuple[int, int, int]:
    """Forward fraction-free elimination of an integer matrix, in place.

    Returns (rank, last pivot, sign of the row swaps).  Each update
    ``(p*x - a*y) // prev`` divides exactly, because every entry after
    a step is a minor of the input (Sylvester's identity); for a square
    matrix of full rank the last pivot is its determinant.
    """
    rank, prev, sign = 0, 1, 1
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            sign = -sign
        prow = work[rank]
        p = prow[col]
        for r in range(rank + 1, len(work)):
            row = work[r]
            a = row[col]
            row[col + 1 :] = [
                (p * x - a * y) // prev for x, y in zip(row[col + 1 :], prow[col + 1 :])
            ]
        prev = p
        rank += 1
        if rank == len(work):
            break
    return rank, prev, sign


def mat_rank(rows: Iterable[Sequence[Scalar]]) -> int:
    """Rank of a rational matrix by forward fraction-free (Bareiss) elimination.

    Rows are first cleared of denominators; scaling a row does not
    change the rank.
    """
    return _bareiss(_integer_rows(rows)[0])[0]


def int_det(work: list[list[int]]) -> int:
    """Determinant of a square integer matrix, the last Bareiss pivot.

    ``work`` is eliminated in place; pass a copy to keep it.
    """
    n = len(work)
    for r in work:
        if len(r) != n:
            raise ValueError("determinant of a non-square matrix")
    rank, pivot, sign = _bareiss(work)
    return sign * pivot if rank == n else 0


def _minors2(u: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    """The six 2x2 minors of rows u and v of length 4, on the column pairs
    01, 02, 03, 12, 13, 23."""
    u0, u1, u2, u3 = u
    v0, v1, v2, v3 = v
    return (
        u0 * v1 - u1 * v0,
        u0 * v2 - u2 * v0,
        u0 * v3 - u3 * v0,
        u1 * v2 - u2 * v1,
        u1 * v3 - u3 * v1,
        u2 * v3 - u3 * v2,
    )


def _laplace(top: tuple[int, ...], bottom: tuple[int, ...]) -> int:
    """Determinant of the 4x4 matrix whose rows 1-2 have the 2x2 minors
    ``top`` and rows 3-4 the minors ``bottom`` (:func:`_minors2`): Laplace
    expansion along the first two rows."""
    a01, a02, a03, a12, a13, a23 = top
    b01, b02, b03, b12, b13, b23 = bottom
    return a01 * b23 - a02 * b13 + a03 * b12 + a12 * b03 - a13 * b02 + a23 * b01


def replacement_dets(rows: Sequence[Sequence[int]]) -> tuple[int, int, int, int, int]:
    """Determinants of a 5x4 integer matrix's 4x4 blocks that keep rows 0-3
    in order with at most one of them replaced by row 4: first det(rows
    0-3), then, for i = 0..3, the determinant with row 4 in slot i.

    Each is one six-term Laplace sum over the 2x2 minors of two row
    pairs, and the six pairs that occur are formed once, so the five
    determinants take 36 2x2 minors in place of five eliminations.
    """
    r0, r1, r2, r3, g = rows
    top, bottom = _minors2(r0, r1), _minors2(r2, r3)
    return (
        _laplace(top, bottom),
        _laplace(_minors2(g, r1), bottom),
        _laplace(_minors2(r0, g), bottom),
        _laplace(top, _minors2(g, r3)),
        _laplace(top, _minors2(r2, g)),
    )


def mat_det(rows: Sequence[Sequence[Scalar]]) -> Fraction:
    """Determinant of a square rational matrix, fraction-free (Bareiss).

    Row ``i`` is scaled to integers by ``s_i``; the integer
    determinant (:func:`int_det`) is divided by the product of the
    ``s_i``.
    """
    work, scale = _integer_rows(rows)
    return Fraction(int_det(work), scale)
