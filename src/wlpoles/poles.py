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
its :class:`Limit` (:func:`limit`): its display set system, the set
systems of its exact limit matroid and its symbolic rows are all read
from it.  A factor has codimension one iff its display system is
minimal (checked against the case tags on all 39,770 factors at
k <= 4, n <= 9).  The pole-free boundaries of a cell are the covers of
its bounded affine permutation that no factor's exact limit matroid
(:func:`limit_matroid`) lands on (:func:`cover_factors`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .diagrams import (
    Propagator,
    WilsonLoopDiagram,
    cyc,
    fan_order,
    validate,
)
from .errors import InconsistencyError, StructuralError, UnstructuredResidualError
from .exact import Polynomial, VarId, structured_factorize
from .matrices import SymbolicMatrix
from .matroids import Matroid, MaxRankMatroid, TransversalMatroid, set_of
from .positroids import (
    affine_covers,
    affine_permutation,
    diagram_matrix,
    diagram_matroid,
    first_violation,
    necklace,
    necklace_masks,
    necklace_minors,
    subfamily_tables,
)
from .sampling import rand_fraction, seeded_rng

CODIM_ONE = "1"
CODIM_GE2 = ">=2"

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
    for adjacent pairs, and x_{q_s,e}.  Factors are collected as a
    set; a repeat across edges would contradict square-freeness.
    An inadmissible diagram raises.  The value, or the refusal (None),
    is kept in ``W.memo``, so each diagram object is validated once.
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
    if not validate(W).admissible:
        return None
    n = W.n
    row_of = {p: i for i, p in enumerate(W.props, start=1)}
    fans: dict[int, list[Propagator]] = {}
    for p in W.props:
        fans.setdefault(p.e1, []).append(p)
        fans.setdefault(p.e2, []).append(p)
    seen: dict[PoleFactor, int] = {}

    def add(f: PoleFactor, e: int) -> None:
        if f in seen:
            raise InconsistencyError(
                f"factor {f.label()} arises on edges {seen[f]} and {e}"
            )
        seen[f] = e

    for e in sorted(fans):
        order = fans[e] if len(fans[e]) == 1 else fan_order(W, e)
        add(pole_var(row_of[order[0]], cyc(e + 1, n)), e)
        for qa, qb in zip(order, order[1:]):
            add(pole_quad(row_of[qa], row_of[qb], e, cyc(e + 1, n)), e)
        add(pole_var(row_of[order[-1]], e), e)

    factors = tuple(sorted(seen, key=PoleFactor.sort_key))
    return RPolynomial(factors=factors, provenance=EDGE_FORMULA)


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


# Not frozen: a frozen __init__ costs 0.5 us more, and factor_codim builds
# one Limit for each of the 8,595 factors at (3,9).
@dataclass
class Limit:
    """Where a factor of R(W) vanishes: rows p and q, from 0, and the
    column mask C.  A quadratic on edge e has its near row p, far row q
    and C = {e, e+1}; a single entry x[p, v] is the case q = p, C = {v}.
    Built by :func:`limit`; ``masks``, ``systems`` and ``key`` are each
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

    @functools.cached_property
    def masks(self) -> tuple[int, ...]:
        masks = list(self.W.masks)
        masks[self.q] = (masks[self.p] | masks[self.q]) & ~self.C
        return tuple(masks)

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
    """The :class:`Limit` of a factor of R(W); raises if f is not one."""
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
    exactly for the case tags 1a and 3a of ``cancel.classify``.

    The limit system differs from W's masks only in row q, and W's masks
    are minimal: W is admissible, and for rows of four vertices local
    density is exactly the subset inequality.  So only the subfamilies
    through q are tested, on W's own tables.
    """
    return CODIM_ONE if _minimal(limit(W, f)) else CODIM_GE2


def _minimal(lim: Limit) -> bool:
    """The rule of :func:`factor_codim` on a limit the caller holds; W's
    tables are kept in ``W.memo``."""
    memo = lim.W.memo
    tables = memo.get("tables")
    if tables is None:
        tables = memo["tables"] = _diagram_tables(lim.W)
    return first_violation(lim.masks, (lim.q, *tables)) is None


@dataclass(frozen=True)
class BoundaryWitness:
    factor: PoleFactor
    assignment: tuple[tuple[VarId, Fraction], ...]
    vanishing_shifts: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "factor": self.factor.to_json(),
            "assignment": {
                f"{vid.row},{vid.col}": str(val) for vid, val in self.assignment
            },
            "vanishing_shifts": list(self.vanishing_shifts),
        }


def vanish_on_boundary_witness(
    W: WilsonLoopDiagram, f: PoleFactor, seed: int = 0
) -> BoundaryWitness:
    """Exact rational point where f vanishes and the point leaves the cell.

    All other entries are random positive rationals; the factor is
    killed by zeroing its entry or imposing the 2x2 proportionality.
    At least one necklace minor must vanish there, which certifies the
    point sits on the cell boundary.
    """
    if f not in r_poly_edge(W).factor_set():
        raise StructuralError(f"factor {f.label()} is not a factor of R({W})")
    supports = W.supports()
    rng = seeded_rng(seed, "witness", str(W), f.label())
    assignment: dict[VarId, Fraction] = {}
    for r0, V in enumerate(supports, start=1):
        for c in sorted(V):
            assignment[VarId(r0, c)] = rand_fraction(rng)
    if f.kind == "var":
        assignment[VarId(f.rows[0], f.cols[0])] = Fraction(0)
    else:
        ra, rb = f.rows
        t = rand_fraction(rng)
        for c in f.cols:
            assignment[VarId(rb, c)] = t * assignment[VarId(ra, c)]
    if f.polynomial().evaluate(assignment) != 0:
        raise InconsistencyError(f"witness failed to kill {f.label()}")

    minors = necklace_minors(diagram_matrix(W), necklace(diagram_matroid(W)))
    shifts = tuple(
        a for a, m in enumerate(minors, start=1) if m.evaluate(assignment) == 0
    )
    if not shifts:
        raise InconsistencyError(
            f"no necklace minor vanishes at the {f.label()} witness of {W};"
            " the factor would not lie on the cell boundary"
        )
    return BoundaryWitness(
        factor=f,
        assignment=tuple(sorted(assignment.items())),
        vanishing_shifts=shifts,
    )


def cover_factors(
    W: WilsonLoopDiagram, M: TransversalMatroid | None = None
) -> dict[tuple[int, ...], tuple[PoleFactor, ...]]:
    """Each cover of W's cell (:func:`positroids.affine_covers` of its
    bounded affine permutation) with the codimension-one factors of R(W)
    whose exact limit matroid (:func:`limit_matroid`) has that
    permutation; ``M`` is W's matroid when the caller holds it.

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
    for f in r_poly_edge(W).factors:
        lim = limit(W, f)
        if not _minimal(lim):
            continue
        M_f = limit_matroid(W.n, lim.systems)
        g = affine_permutation(necklace_masks(M_f)[0], W.n)
        if g not in hits:
            raise InconsistencyError(f"the limit of {f.label()} on {W} is not a cover of its cell")
        hits[g].append(f)
    return {g: tuple(fs) for g, fs in hits.items()}
