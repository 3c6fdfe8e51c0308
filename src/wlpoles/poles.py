"""Pole structure of diagram parameterizations.

The denominator R attached to a diagram is computed two independent
ways: as the per-edge product of boundary variables and adjacent-pair
quadratics, and as the set of prime factors of the necklace minors
(forward and reverse, both read from one transversal matroid).
Their agreement is a checkable invariant, not an assumption.  A
necklace minor depends only on the row supports restricted to its
columns, so minors are factored once per support pattern and the
factors mapped back to the columns.  The module also classifies each
factor's vanishing locus by codimension, with one rule for single
entries and quadratics alike.  Where a factor vanishes is one value,
its :class:`Limit`: its display set system, the set systems of its
exact limit matroid and its symbolic rows are all read from it.  One
walk over a diagram's fans, far to near (:func:`_fan_walk`), yields
every factor of R with its limit; R is built from it, and so is each
factor's record (:func:`factor_record`): its case tag, its partner
moves (:func:`_partner_moves`) and its codimension, made in one pass
per diagram and kept on the diagram.  :func:`limit` is the guarded
entry for one factor.  A factor has codimension one iff its display
system is minimal (checked against the case tags on all 39,770
factors at k <= 4, n <= 9).  The pole-free boundaries of a cell are
the covers of its bounded affine permutation that no factor's exact
limit matroid (:func:`limit_matroid`) lands on (:func:`cover_factors`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .diagrams import (
    Propagator,
    WilsonLoopDiagram,
    crossing,
    cyc,
    fan_order,
    is_admissible,
    valid_propagators,
    vertex_support,
)
from .errors import InconsistencyError, StructuralError, UnstructuredResidualError
from .exact import Polynomial, VarId, structured_factorize
from .matrices import SymbolicMatrix
from .matroids import Matroid, MaxRankMatroid, TransversalMatroid, mask_of, set_of
from .positroids import (
    affine_covers,
    affine_permutation,
    diagram_matroid,
    first_violation,
    necklace_masks,
    subfamily_tables,
)

CODIM_ONE = "1"
CODIM_GE2 = ">=2"

CASE1 = "1"
CASE1A = "1a"
CASE2 = "2"
CASE2A = "2a"
CASE3 = "3"
CASE3A = "3a"
CASE3B = "3b"

EDGE_FORMULA = "edge-formula"
NECKLACE_RADICAL = "necklace-radical"
REVERSE_NECKLACE_RADICAL = "reverse-necklace-radical"


@dataclass(frozen=True, slots=True)
class PoleFactor:
    """One prime factor of R: a single entry or a 2x2 adjacent-pair minor.

    Identity is (kind, rows, cols).  Slotted, with the hash of its
    identity and its label stored once, in slots left out of comparison
    and repr.
    """

    kind: str
    rows: tuple[int, ...]
    cols: tuple[int, ...]
    _hash: int = field(init=False, repr=False, compare=False)
    _label: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == "var":
            if len(self.rows) != 1 or len(self.cols) != 1:
                raise StructuralError(f"bad var factor shape {self}")
        elif self.kind == "quad":
            if len(self.rows) != 2 or len(self.cols) != 2:
                raise StructuralError(f"bad quad factor shape {self}")
            if self.rows[0] >= self.rows[1] or self.cols[0] >= self.cols[1]:
                raise StructuralError(f"quad factor not canonical {self}")
        else:
            raise StructuralError(f"unknown factor kind {self.kind!r}")
        object.__setattr__(self, "_hash", hash((self.kind, self.rows, self.cols)))
        label = ":".join([self.kind, *map(str, self.rows), *map(str, self.cols)])
        object.__setattr__(self, "_label", label)

    def __hash__(self) -> int:
        return self._hash

    def polynomial(self) -> Polynomial:
        if self.kind == "var":
            return Polynomial.variable(VarId(self.rows[0], self.cols[0]))
        a, b = self.rows
        i, j = self.cols
        return Polynomial.cross_term(a, b, i, j)

    def sort_key(self) -> tuple:
        return (self.kind, self.rows, self.cols)

    def label(self) -> str:
        return self._label

    def to_json(self) -> dict:
        if self.kind == "var":
            return {"kind": "var", "row": self.rows[0], "col": self.cols[0]}
        return {"kind": "quad", "rows": list(self.rows), "cols": list(self.cols)}

    @staticmethod
    def from_json(data: dict) -> "PoleFactor":
        try:
            if data["kind"] == "var":
                return pole_var(data["row"], data["col"])
            if data["kind"] == "quad":
                (a, b), (i, j) = data["rows"], data["cols"]
                return pole_quad(a, b, i, j)
        except (KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"malformed factor {data!r}") from exc
        raise StructuralError(f"unknown factor kind {data!r}")


# Interned: memoized R values share one factor per argument tuple (~100s per n),
# so factor-set lookups mostly end at the identity test.
@functools.lru_cache(maxsize=None)
def pole_var(row: int, col: int) -> PoleFactor:
    return PoleFactor("var", (row,), (col,))


def pole_quad(ra: int, rb: int, c1: int, c2: int) -> PoleFactor:
    """Interned on its sorted rows and columns: one object per factor,
    whatever order the rows and columns are given in."""
    return _pole_quad(min(ra, rb), max(ra, rb), min(c1, c2), max(c1, c2))


@functools.lru_cache(maxsize=None)
def _pole_quad(a: int, b: int, i: int, j: int) -> PoleFactor:
    return PoleFactor("quad", (a, b), (i, j))


@dataclass(frozen=True, slots=True)
class RPolynomial:
    """The sorted distinct prime factors of R and the route that found them.
    Slotted, with the factor set the guards ask per factor built once, in a
    slot left out of comparison and hashing."""

    factors: tuple[PoleFactor, ...]
    provenance: str
    _factor_set: frozenset[PoleFactor] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_factor_set", frozenset(self.factors))

    def factor_set(self) -> frozenset[PoleFactor]:
        return self._factor_set


def r_poly_edge(W: WilsonLoopDiagram) -> RPolynomial:
    """Per-edge product form of R.

    Edge e with incident propagators q_1..q_s (ordered far to near)
    contributes x_{q_1,e+1}, the s-1 quadratics on columns (e, e+1)
    for adjacent pairs, and x_{q_s,e} (:func:`_fan_walk`).  Factors are
    collected as a set; a repeat across edges would contradict
    square-freeness.  An inadmissible diagram raises.  The value, or the
    refusal (None), is kept in ``W.memo``, as is the admissibility
    verdict (:func:`diagrams.is_admissible`), so each diagram object is
    validated once.
    """
    memo = W.memo
    if "R" not in memo:
        memo["R"] = _r_poly_edge(W)
    R = memo["R"]
    if R is None:
        raise StructuralError(f"diagram not admissible: {W}")
    return R


def _r_poly_edge(W: WilsonLoopDiagram) -> RPolynomial | None:
    """R of an admissible W, or None; it holds interned factors only,
    about 0.9 KB."""
    if not is_admissible(W):
        return None
    seen: dict[PoleFactor, int] = {}
    for e, f, *_ in _fan_walk(W):
        if f in seen:
            raise InconsistencyError(
                f"factor {f.label()} arises on edges {seen[f]} and {e}"
            )
        seen[f] = e
    factors = tuple(sorted(seen, key=PoleFactor.sort_key))
    return RPolynomial(factors=factors, provenance=EDGE_FORMULA)


def _fan_walk(W: WilsonLoopDiagram) -> Iterator[tuple[int, PoleFactor, int, int, int]]:
    """Each factor of R(W), for an admissible W, as (e, f, p, q, C): the
    edge it arises on, and the rows p and q, from 0, and the column mask C
    of its :class:`Limit`.

    Each fan is read far to near (:func:`diagrams.fan_order`).  On edge
    e, x[first, e+1] is (r, r, {e+1}); the quadratic of an adjacent pair,
    far a and near b, is (b, a, {e, e+1}); and x[last, e] is (r, r, {e}).
    Tests hold it to :func:`limit`, which resolves a quadratic through
    :func:`quad_geometry`, on every factor up to (3, 8).
    """
    n = W.n
    row_of = {p: r for r, p in enumerate(W.props)}
    fans: dict[int, list[Propagator]] = {}
    for p in W.props:
        fans.setdefault(p.e1, []).append(p)
        fans.setdefault(p.e2, []).append(p)
    for e in sorted(fans):
        rows = [row_of[p] for p in (fans[e] if len(fans[e]) == 1 else fan_order(W, e))]
        v = cyc(e + 1, n)
        at_e, at_v = 1 << (e - 1), 1 << (v - 1)
        yield e, pole_var(rows[0] + 1, v), rows[0], rows[0], at_v
        for a, b in zip(rows, rows[1:]):
            yield e, pole_quad(a + 1, b + 1, e, v), b, a, at_e | at_v
        yield e, pole_var(rows[-1] + 1, e), rows[-1], rows[-1], at_e


def _factor_keys(poly: Polynomial) -> frozenset[PoleFactor]:
    fz = structured_factorize(poly, strict=True)
    out: set[PoleFactor] = set()
    for vid, _ in fz.var_factors:
        out.add(pole_var(vid.row, vid.col))
    for (a, b, i, j), _ in fz.cross_factors:
        out.add(pole_quad(a, b, i, j))
    return frozenset(out)


@functools.cache
def _pattern_factor_keys(pattern: tuple[int, ...]) -> frozenset[PoleFactor] | None:
    """Factor keys of the square minor whose row r is supported on the
    column mask ``pattern[r-1]`` within 1..k, or None if it vanishes."""
    k, cols = len(pattern), range(1, len(pattern) + 1)
    minor = SymbolicMatrix(n=k, supports=tuple(map(set_of, pattern))).minor(cols, cols)
    return None if minor.is_zero() else _factor_keys(minor)


def _minor_factor_keys(row_masks: Sequence[int], cols: int) -> frozenset[PoleFactor] | None:
    """Factor keys of the all-rows minor on the column mask ``cols`` of the
    symbolic matrix with row support masks ``row_masks``, or None if it
    vanishes.  The minor depends only on the supports restricted to
    ``cols`` (:func:`_restricted_factor_keys`)."""
    return _restricted_factor_keys(tuple([r & cols for r in row_masks]), cols)


# The one hand-sized memo: its keys are restricted supports, whose number
# grows fastest with n.  Front halves unbounded against this bound, two
# pairs at (4, 10) and one at (5, 10): 6.4-6.9 s against 7.4 s for 9 MB
# more VmHWM (71 against 62 MB), and 18.7 s against 17.7 s for 37 MB
# more (144 against 107 MB).
@functools.lru_cache(maxsize=4096)
def _restricted_factor_keys(rows: tuple[int, ...], cols: int) -> frozenset[PoleFactor] | None:
    """:func:`_minor_factor_keys` of supports already inside ``cols``.

    The minor is factored once per support pattern, with the columns
    renumbered 1..k, and mapped back by c -> I[c-1] for the columns I in
    ascending order.  Renaming x[r,p] to x[r,I_p] with I increasing is a
    ring isomorphism that keeps the lex order, so the keys are exactly
    those of factoring the minor directly.
    """
    I = [v + 1 for v in range(cols.bit_length()) if cols >> v & 1]
    bits = [1 << (c - 1) for c in I]
    pattern = tuple(sum(1 << p for p, b in enumerate(bits) if r & b) for r in rows)
    keys = _pattern_factor_keys(pattern)
    if keys is None:
        return None
    return frozenset(
        pole_var(f.rows[0], I[f.cols[0] - 1]) if f.kind == "var"
        else pole_quad(*f.rows, I[f.cols[0] - 1], I[f.cols[1] - 1])
        for f in keys
    )


def necklace_radicals(M: TransversalMatroid) -> tuple[RPolynomial, RPolynomial]:
    """Distinct prime factors of the necklace minors and of the
    reverse-necklace minors of the set system behind ``M``.

    Both necklaces are walked over the matroid's one set of basis masks
    (:func:`positroids.necklace_masks`), which also gives its rank, so no
    rank query is made; each distinct entry, keyed by its column mask, is
    factored once.
    """
    if not M.row_masks or 0 in M.row_masks:
        raise StructuralError("set system needs nonempty rows")
    rank = min(M.basis_masks()).bit_count()
    if rank != len(M.row_masks):
        raise StructuralError(f"set system has rank {rank}, expected {len(M.row_masks)}")
    keys: dict[int, frozenset[PoleFactor]] = {}
    radicals = []
    for name, masks, provenance in zip(
        ("necklace", "reverse necklace"),
        necklace_masks(M),
        (NECKLACE_RADICAL, REVERSE_NECKLACE_RADICAL),
    ):
        out: set[PoleFactor] = set()
        for a, I_a in enumerate(masks, start=1):
            if I_a not in keys:
                try:
                    found = _minor_factor_keys(M.row_masks, I_a)
                except UnstructuredResidualError:
                    raise UnstructuredResidualError(
                        f"{name} entry {a} {sorted(set_of(I_a))}: its minor does not"
                        " split into single entries and edge quadratics"
                    ) from None
                if found is None:
                    raise InconsistencyError(f"{name} entry {a} {sorted(set_of(I_a))} is not a basis")
                keys[I_a] = found
            out |= keys[I_a]
        radicals.append(RPolynomial(
            factors=tuple(sorted(out, key=PoleFactor.sort_key)),
            provenance=provenance,
        ))
    return radicals[0], radicals[1]


def _set_system_matroid(V: Sequence, n: int | None) -> TransversalMatroid:
    rows = tuple(frozenset(r) for r in V)
    if not rows or any(not r for r in rows):
        raise StructuralError("set system needs nonempty rows")
    return TransversalMatroid(max(max(r) for r in rows) if n is None else n, rows)


def r_poly_necklace(V: Sequence, n: int | None = None) -> RPolynomial:
    """Distinct prime factors of the necklace minors of V."""
    return necklace_radicals(_set_system_matroid(V, n))[0]


def r_poly_reverse(V: Sequence, n: int | None = None) -> RPolynomial:
    """Distinct prime factors of the reverse-necklace minors of V."""
    return necklace_radicals(_set_system_matroid(V, n))[1]


@dataclass(frozen=True)
class REqualityReport:
    edge: RPolynomial
    necklace: RPolynomial
    reverse: RPolynomial
    ok: bool
    mismatches: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_r_equalities(W: WilsonLoopDiagram) -> REqualityReport:
    """Compare the edge-product factors against both necklace radicals.

    The radicals come from one transversal matroid of W
    (:func:`necklace_radicals`): one set of basis masks, both necklaces
    walked over it, and one factorization per distinct necklace entry.
    """
    re_ = r_poly_edge(W)
    if W.k == 0:
        # no propagators, no factors: all three routes are empty products
        empty = RPolynomial((), NECKLACE_RADICAL)
        return REqualityReport(
            edge=re_,
            necklace=empty,
            reverse=RPolynomial((), REVERSE_NECKLACE_RADICAL),
            ok=True,
            mismatches=(),
        )
    rn, rr = necklace_radicals(diagram_matroid(W))
    se, sn, sr = re_.factor_set(), rn.factor_set(), rr.factor_set()
    mismatches = []
    for name, s in (("necklace", sn), ("reverse", sr)):
        if s != se:
            missing = sorted(se - s, key=PoleFactor.sort_key)
            extra = sorted(s - se, key=PoleFactor.sort_key)
            mismatches.append(
                f"{name}: missing={[f.label() for f in missing]}"
                f" extra={[f.label() for f in extra]}"
            )
    return REqualityReport(
        edge=re_, necklace=rn, reverse=rr,
        ok=not mismatches, mismatches=tuple(mismatches),
    )


def quad_geometry(W: WilsonLoopDiagram, f: PoleFactor) -> tuple[int, Propagator, Propagator]:
    """Resolve a quad factor to (edge, near prop, far prop).  Distances are
    measured cyclically from e+1, so the far propagator is the one whose
    other endpoint is reached last."""
    n = W.n
    c1, c2 = f.cols
    if c2 == cyc(c1 + 1, n):
        e = c1
    elif c1 == cyc(c2 + 1, n):
        e = c2
    else:
        raise StructuralError(f"quad columns {f.cols} are not adjacent mod {n}")
    near, far = (W.props[r - 1] for r in f.rows)
    for p in (near, far):
        if e not in p:
            raise StructuralError(f"propagator {p} is not on edge {e}")
    # p's far end is p.e1 + p.e2 - e
    if (near.e1 + near.e2 - 2 * e - 1) % n > (far.e1 + far.e2 - 2 * e - 1) % n:
        near, far = far, near
    return e, near, far


# Not frozen: a frozen __init__ costs 0.5 us more, and the record pass
# builds one Limit for each of the 8,595 factors at (3,9).
@dataclass
class Limit:
    """Where a factor of R(W) vanishes: rows p and q, from 0, and the
    column mask C.  A quadratic on edge e has its near row p, far row q
    and C = {e, e+1}; a single entry x[p, v] is the case q = p, C = {v}.
    Built from the fan walk (:func:`_fan_walk`) by the record pass and
    :func:`cover_factors`, or for one factor by :func:`limit`.
    ``masks`` is set when it is built; ``systems`` and ``key`` are each
    computed once, on first use, and die with the value.

    ``masks`` is the display system: row q becomes (V_p u V_q) - C.
    :func:`factor_codim` calls the factor codimension one iff it is
    minimal, a rule checked against the case tags at k <= 4, n <= 9.

    ``systems`` are the limit matroid's set systems: T1, W's masks with C
    taken from row p, and T2, with C taken from row q; one system when
    q = p, and then it is ``masks``.  The limit matroid has
    rank(S) = max(rank_T1(S), rank_T2(S)).  Why, for a quadratic Q: Q is
    irreducible, so a k-subset S stops being a basis iff Q divides the
    minor D_S.  Expand D_S along rows p and q as a sum over column pairs T
    of m_T B_T.  The 2x2 minors m_T with T != {e, e+1} are bilinear in
    monomials no other m_T uses, so they are linearly independent of Q
    over the other variables: Q | D_S iff every matching of S sends
    {p, q} onto {e, e+1}, iff S is a basis of neither system.  A smaller
    minor holding only one of p and q is not divisible by Q, so lower
    ranks follow the same rule.  Tests check it against the symbolic
    :meth:`rows` on all subsets at (2,6), (2,7) and (3,7), and on the
    bases at (3,8), for every quadratic.
    """

    W: WilsonLoopDiagram
    p: int
    q: int
    C: int
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        masks = list(self.W.masks)
        masks[self.q] = (masks[self.p] | masks[self.q]) & ~self.C
        self.masks = tuple(masks)

    @functools.cached_property
    def systems(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(m & ~self.C if i == row else m for i, m in enumerate(self.W.masks))
            for row in dict.fromkeys((self.p, self.q))
        )

    @functools.cached_property
    def key(self) -> tuple[tuple[int, ...], ...]:
        """The sorted :attr:`systems`, which name the limit matroid."""
        return tuple(sorted(tuple(sorted(s)) for s in self.systems))

    def rows(self) -> list[dict[int, Polynomial]]:
        """Symbolic rows at the limit, generic on W's supports except on
        row q in C: a single entry's row loses C, and a quadratic's far row
        turns proportional to row p there, by a fresh scale variable kept
        in the reserved column index -1."""
        lam = Polynomial.variable(VarId(self.q + 1, -1))
        rows: list[dict[int, Polynomial]] = []
        for r, mask in enumerate(self.W.masks):
            row: dict[int, Polynomial] = {}
            for c in sorted(set_of(mask)):
                if r != self.q or not self.C >> (c - 1) & 1:
                    row[c] = Polynomial.variable(VarId(r + 1, c))
                elif self.p != self.q:
                    row[c] = lam * Polynomial.variable(VarId(self.p + 1, c))
            rows.append(row)
        return rows


def limit(W: WilsonLoopDiagram, f: PoleFactor) -> Limit:
    """The :class:`Limit` of one factor of R(W); raises if f is not one."""
    if f not in (W.memo.get("R") or r_poly_edge(W)).factor_set():
        raise StructuralError(f"factor {f.label()} is not a factor of R({W})")
    if f.kind == "var":
        return Limit(W, f.rows[0] - 1, f.rows[0] - 1, 1 << (f.cols[0] - 1))
    e, near, far = quad_geometry(W, f)
    return Limit(W, W.props.index(near), W.props.index(far), 1 << (e - 1) | 1 << (cyc(e + 1, W.n) - 1))


def limit_matroid(n: int, systems: Sequence[Sequence[int]]) -> Matroid:
    """The limit matroid of a factor's :attr:`Limit.systems`: one system's
    transversal matroid, or the max-rank pair of a quadratic's two."""
    parts = [TransversalMatroid.of_masks(n, s) for s in systems]
    return parts[0] if len(parts) == 1 else MaxRankMatroid(*parts)


def _diagram_tables(W: WilsonLoopDiagram) -> tuple[tuple[int, ...], tuple[int, ...]]:
    unions, widest = subfamily_tables(W.masks)
    return tuple(unions), tuple(widest)


def factor_codim(W: WilsonLoopDiagram, f: PoleFactor) -> str:
    """Codimension of the factor's vanishing locus inside the cell closure.

    One rule for both kinds: codimension one iff the factor's limit set
    system (:attr:`Limit.masks`) is minimal, that is has no subset
    violation (:func:`positroids.first_violation`, the core of
    :func:`is_minimal`), else codimension >= 2.  On every factor
    at k <= 4, n <= 9 (39,770 of them) this gives codimension >= 2
    exactly for the case tags 1a and 3a of :func:`factor_record`.

    The limit system differs from W's masks only in row q, and W's masks
    are minimal: W is admissible, and for rows of four vertices local
    density is exactly the subset inequality.  So only the subfamilies
    through q are tested, on W's own tables.  The value is read from the
    factor's record.
    """
    return factor_record(W, f)[2]


def _minimal(lim: Limit) -> bool:
    """The rule of :func:`factor_codim` on a limit the caller holds; W's
    tables are kept in ``W.memo``."""
    memo = lim.W.memo
    tables = memo.get("tables")
    if tables is None:
        tables = memo["tables"] = _diagram_tables(lim.W)
    return first_violation(lim.masks, (lim.q, *tables)) is None


@functools.cache
def _support_masks(n: int) -> dict[Propagator, int]:
    """Each valid propagator on [n] with its support mask, for the rule's scan."""
    return {y: mask_of(vertex_support(y, n)) for y in valid_propagators(n)}


# Keyed on what the rule reads: the factor's own propagators, its columns
# and n.  575 keys serve the 39,770 factors at k <= 4, n <= 9.
@functools.cache
def _partner_moves(own: tuple[Propagator, ...], C: int, n: int) -> tuple[tuple, ...]:
    """The partner rule: the ``cancel._move`` arguments (remove, add, on,
    col) of every partner of a factor whose own propagators are ``own``,
    far row first, and whose column mask is C.

    The factor vanishes where its far row keeps only its vanishing row R,
    the union of its own rows' supports less C (:attr:`Limit.masks` at
    q).  Its partner propagators are the valid propagators besides its
    own whose support contains R: one for a single entry or a wide
    quadratic, two for a narrow quadratic.  Each partner y replaces the
    own row it crosses, or every own row, far first, if it crosses none.
    The partner's factor is x[y, a] when y adds the vertex a to R, and
    otherwise the quadratic of y and the kept row on their shared edge.
    """
    masks = _support_masks(n)
    R = (masks[own[0]] | masks[own[-1]]) & ~C
    found = [y for y, m in masks.items() if m & R == R and y not in own]
    if not found:
        raise InconsistencyError(f"no propagator besides {own} contains {sorted(set_of(R))}")
    moves = []
    for x in own:
        for y in found:
            if crossing(y, x) or not any(crossing(y, z) for z in own):
                added = masks[y] & ~R
                if added:
                    moves.append((x, y, (y,), added.bit_length()))
                else:
                    (kept,) = (z for z in own if z != x)
                    moves.append((x, y, (kept, y), next(t for t in y if t in kept)))
    return tuple(moves)


def factor_record(W: WilsonLoopDiagram, f: PoleFactor) -> tuple[str, tuple[tuple, ...], str]:
    """The (case tag, partner moves, codimension) record of a factor of
    R(W); raises if f is not one.

    The first ask on a diagram makes the record of every factor of R(W)
    in one pass (:func:`_record_pass`) and keeps each in ``W.memo``,
    keyed by its factor, so ``cancel.classify``, the partner moves and
    :func:`factor_codim` only read it.
    """
    record = W.memo.get(f)
    if record is None:
        if f not in r_poly_edge(W).factor_set():
            raise StructuralError(f"factor {f.label()} is not a factor of R({W})")
        _record_pass(W)
        record = W.memo[f]
    return record


def _record_pass(W: WilsonLoopDiagram) -> None:
    """Keep in ``W.memo`` the record of every factor of R(W), each read
    from its :class:`Limit` of one fan walk; no limit outlives the pass."""
    memo = W.memo
    for _, f, p, q, C in _fan_walk(W):
        memo[f] = _record(f, Limit(W, p, q, C))


def _record(f: PoleFactor, lim: Limit) -> tuple[str, tuple[tuple, ...], str]:
    """The record of f from its limit.  Case tags: 1/2 pairable single
    entries, 2a blocked single entries, 3/3b pairable quadratics, 1a/3a
    higher codimension.  The tag reads the partner propagators of the
    rule (:func:`_partner_moves`).  Two of them make a narrow quadratic,
    3b.  One already in W makes 1a or 3a; otherwise a quadratic is 3, and
    a single entry x[p, v] is 1 when its partner q shares an endpoint edge
    with p, 2 when q crosses no other propagator of W, and 2a when it does.
    """
    W = lim.W
    far = W.props[lim.q]
    moves = _partner_moves((far,) if lim.p == lim.q else (far, W.props[lim.p]), lim.C, W.n)
    q = moves[0][1]
    if moves[-1][1] != q:  # two partner propagators
        tag = CASE3B
    elif f.kind == "quad":
        tag = CASE3A if q in W.props else CASE3
    elif q in W.props:  # a single entry, whose row is its far row
        tag = CASE1A
    elif q.e1 in far or q.e2 in far:
        tag = CASE1
    else:
        tag = CASE2A if any(r != far and crossing(q, r) for r in W.props) else CASE2
    return tag, moves, CODIM_ONE if _minimal(lim) else CODIM_GE2


def cover_factors(
    W: WilsonLoopDiagram, M: TransversalMatroid | None = None
) -> dict[tuple[int, ...], tuple[PoleFactor, ...]]:
    """Each cover of W's cell (:func:`positroids.affine_covers` of its
    bounded affine permutation) with the codimension-one factors of R(W)
    whose exact limit matroid (:func:`limit_matroid`) has that
    permutation, in R's order; ``M`` is W's matroid when the caller
    holds it.  The limits come from one fan walk (:func:`_fan_walk`).

    A cover that no factor hits is a pole-free boundary: the zero set of
    an irreducible factor lies in the closure of the cell of its generic
    point, which holds only that cell and cells of smaller dimension, so
    it misses every other cover.  A codimension-one factor whose limit is
    not a cover contradicts the minimality rule of :func:`factor_codim`
    and raises.
    """
    if M is None:
        M = diagram_matroid(W)
    hits: dict[tuple[int, ...], list[PoleFactor]] = {
        g: [] for g in affine_covers(affine_permutation(necklace_masks(M)[0], W.n))
    }
    r_poly_edge(W)  # the walk needs an admissible W; any other raises here
    for _, f, p, q, C in _fan_walk(W):
        lim = Limit(W, p, q, C)
        if not _minimal(lim):
            continue
        M_f = limit_matroid(W.n, lim.systems)
        g = affine_permutation(necklace_masks(M_f)[0], W.n)
        if g not in hits:
            raise InconsistencyError(f"the limit of {f.label()} on {W} is not a cover of its cell")
        hits[g].append(f)
    return {g: tuple(sorted(fs, key=PoleFactor.sort_key)) for g, fs in hits.items()}
