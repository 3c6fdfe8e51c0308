"""Grassmann necklaces, bounded affine permutations, and cell descriptors.

The necklace of a rank-k matroid is the n-tuple of Gale-minimal
bases, one per cyclic shift of the ground order; the reverse necklace
collects the Gale-maximal ones.  Both are walked over the matroid's basis
masks (:func:`necklace_masks`): each starts at the colex-least or
colex-greatest basis and moves to the next shift by at most one exchange,
with no rank query.  The forward walk's exchanges give the cell's bounded
affine permutation (:func:`affine_permutation`), whose length gives the
cell's dimension and whose covers are the codimension-one cells on the
cell's boundary (:func:`affine_covers`).  Minimality of a set-system
representation is the subset counting inequality, read off the table of
row unions and widest rows of every subfamily (:func:`subfamily_tables`);
its cell dimension is entries minus k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .diagrams import WilsonLoopDiagram
from .errors import StructuralError
from .exact import Polynomial
from .matrices import SymbolicMatrix, matrix_from_sets
from .matroids import Matroid, TransversalMatroid, is_positroid, row_masks, set_of, union_table


def gale_key(v: int, a: int, n: int) -> int:
    """Position of v in the a-shifted cyclic order (a comes first)."""
    return (v - a) % n


def gale_sorted(S: Iterable[int], a: int, n: int) -> list[int]:
    return sorted(S, key=lambda v: gale_key(v, a, n))


def gale_leq(A: Iterable[int], B: Iterable[int], a: int, n: int) -> bool:
    """Componentwise comparison of equal-size sets in the a-th Gale order."""
    sa = gale_sorted(A, a, n)
    sb = gale_sorted(B, a, n)
    if len(sa) != len(sb):
        raise StructuralError(f"Gale comparison needs equal sizes, got {sa} vs {sb}")
    return all(
        gale_key(x, a, n) <= gale_key(y, a, n) for x, y in zip(sa, sb)
    )


def necklace_masks(M: Matroid) -> tuple[list[int], list[int]]:
    """The necklace I_1..I_n and the reverse necklace of M as bit masks,
    walked over its basis masks B.

    For bases, Gale-minimal and Gale-maximal in the order 1 < ... < n are
    colex-least and colex-greatest, so I_1 = min(B) and the reverse
    entry J_1 = max(B).  Going from shift a to a + 1 moves a from the
    front of the order to its back (Postnikov, "Total positivity,
    Grassmannians, and networks": I_{a+1} contains I_a - {a}):
    - if a is in I_a, I_{a+1} = I_a - a + j for the first j in the
      (a+1)-order that makes a basis; with none, a is a coloop and
      I_{a+1} = I_a;
    - if a is not in J_a, J_{a+1} = J_a + a - y for the first y of J_a in
      the (a+1)-order that makes a basis; with none, a is a loop and
      J_{a+1} = J_a.
    Otherwise the entry is kept.
    """
    B = M.basis_masks()
    I, J = min(B), max(B)
    if not I:
        raise StructuralError("necklace of a rank-0 matroid")
    bits = [1 << v for v in range(M.n)]
    forward, reverse = [I], [J]
    for a in range(1, M.n):
        bit = bits[a - 1]
        after = bits[a:] + bits[: a - 1]  # a + 1, ..., a - 1 in the (a+1)-order
        if I & bit:
            rest = I ^ bit
            for b in after:
                if not rest & b and rest | b in B:
                    I = rest | b
                    break
        if not J & bit:
            for b in after:
                if J & b and J ^ b | bit in B:
                    J = J ^ b | bit
                    break
        forward.append(I)
        reverse.append(J)
    return forward, reverse


def affine_permutation(forward: Sequence[int], n: int) -> tuple[int, ...]:
    """The bounded affine permutation f(1)..f(n) of the necklace I_1..I_n
    given as masks (:func:`necklace_masks`'s first walk).

    Read off I_{i+1} = I_i - {i} + {j}: f(i) = i + ((j - i) mod n); a
    coloop keeps I_{i+1} = I_i, f(i) = i + n, and a loop is not in I_i,
    f(i) = i (Knutson, Lam & Speyer, "Positroid varieties: juggling and
    geometry").  Then i <= f(i) <= i + n and the f(i) - i sum to kn.
    """
    f = []
    for i, (I, nxt) in enumerate(zip(forward, [*forward[1:], forward[0]]), start=1):
        if not I >> (i - 1) & 1:
            f.append(i)
        elif nxt == I:
            f.append(i + n)
        else:
            f.append(i + ((nxt & ~I).bit_length() - i) % n)
    return tuple(f)


def affine_length(f: Sequence[int]) -> int:
    """The length of an affine permutation given as f(1)..f(n): the pairs
    i < j, i in [n], j an integer, with f(i) > f(j), where
    f(j + n) = f(j) + n.  For a bounded f only j < i + n can count, and
    its cell has dimension k(n - k) - length."""
    n = len(f)
    return sum(
        f[i] > (f[j] if j < n else f[j - n] + n)
        for i in range(n)
        for j in range(i + 1, i + n)
    )


def affine_covers(f: Sequence[int]) -> list[tuple[int, ...]]:
    """The covers of a bounded affine permutation: each bounded f.t_ab,
    which swaps the values at a and at b (and at every shift of both by
    n), whose length is one more than f's.  Each is the permutation of a
    codimension-one cell on the boundary of f's cell (Postnikov, "Total
    positivity, Grassmannians, and networks").  Listed by (a, b), with
    a in [n] and a < b < a + n, so each transposition once."""
    n = len(f)
    target = affine_length(f) + 1
    out = []
    for a in range(n):
        for b in range(a + 1, a + n):
            g = list(f)
            shift = n if b >= n else 0
            g[a], g[b - shift] = f[b - shift] + shift, f[a] - shift
            if all(i <= v <= i + n for i, v in enumerate(g, start=1)) and affine_length(g) == target:
                out.append(tuple(g))
    return out


def necklace_entries(masks: Sequence[int]) -> list[tuple[int, ...]]:
    """Entry a of a necklace given as masks, listed in the a-shifted order."""
    out = []
    for a, m in enumerate(masks, start=1):
        elems = [v + 1 for v in range(m.bit_length()) if m >> v & 1]
        out.append(tuple([v for v in elems if v >= a] + [v for v in elems if v < a]))
    return out


def necklace(M: Matroid) -> list[tuple[int, ...]]:
    """Gale-minimal basis for each shift (:func:`necklace_masks`).

    Entry a-1 of the result is I_a, listed in the a-shifted order.
    """
    return necklace_entries(necklace_masks(M)[0])


def reverse_necklace(M: Matroid) -> list[tuple[int, ...]]:
    """Gale-maximal basis for each shift (:func:`necklace_masks`), listed
    in the a-shifted order."""
    return necklace_entries(necklace_masks(M)[1])


def necklace_minors(
    M: SymbolicMatrix, I: Sequence[Sequence[int]]
) -> list[Polynomial]:
    """Symbolic minor on every necklace element, columns ascending."""
    rows = list(range(1, M.k + 1))
    return [M.minor(rows, sorted(I_a)) for I_a in I]


@dataclass(frozen=True)
class MinimalityReport:
    minimal: bool
    dimension: int | None
    violating: tuple[int, ...] | None

    def __bool__(self) -> bool:
        return self.minimal


def subfamily_tables(masks: Sequence[int]) -> tuple[list[int], list[int]]:
    """The union and the widest row size of every subfamily T of the rows
    with bit masks ``masks``, indexed by T as a bit mask; each entry is
    built from T less its lowest row, as ``row_unions`` does."""
    sizes = [m.bit_count() for m in masks]
    unions = union_table(masks)
    widest = unions[:]
    for T in range(1, len(unions)):
        low = T & -T
        i = low.bit_length() - 1
        unions[T] = unions[T ^ low] | masks[i]
        widest[T] = max(widest[T ^ low], sizes[i])
    return unions, widest


def first_violation(
    masks: Sequence[int], known: tuple[int, Sequence[int], Sequence[int]] | None = None
) -> int | None:
    """The first subfamily T of the rows with bit masks ``masks``, itself a
    bit mask over the rows, that covers fewer than max(|V_i|) + |T| - 1
    vertices; None when there is none.

    ``known`` = (q, unions, widest) gives the :func:`subfamily_tables` of a
    minimal system that agrees with ``masks`` off row q.  Every T without q
    is a subfamily of that system and passes, so only the T through q are
    tested, each on the table entry of T less q, in the same order.
    """
    if known is None:
        unions, widest = subfamily_tables(masks)
        for T in range(1, len(unions)):
            if unions[T].bit_count() < widest[T] + T.bit_count() - 1:
                return T
        return None
    q, unions, widest = known
    bit, row = 1 << q, masks[q]
    size = row.bit_count()
    for S in range(len(unions)):
        if not S & bit and (unions[S] | row).bit_count() < max(widest[S], size) + S.bit_count():
            return S | bit
    return None


def is_minimal(V: Sequence[Iterable[int]], n: int | None = None) -> MinimalityReport:
    """Subset inequality test for a minimal set-system representation.

    Every nonempty subfamily T of rows must cover at least
    max(|V_i|) + |T| - 1 vertices; then dimension = (total entries) - k.
    The first violating T in mask order (:func:`first_violation`) is
    reported.  No rank test is needed:
    since every row is nonempty, each T then covers at least |T| vertices,
    which is Hall's condition, so the transversal matroid has rank k.
    """
    rows = [frozenset(r) for r in V]
    if not rows or any(not r for r in rows):
        raise StructuralError("set system needs nonempty rows")
    if n is None:
        n = max(max(r) for r in rows)
    k = len(rows)
    T = first_violation(row_masks(n, rows))
    minimal = T is None
    return MinimalityReport(
        minimal=minimal,
        dimension=sum(len(r) for r in rows) - k if minimal else None,
        violating=None if minimal else tuple(i + 1 for i in range(k) if T >> i & 1),
    )


@dataclass(frozen=True)
class CellDescriptor:
    k: int
    n: int
    rows: tuple[frozenset[int], ...]
    necklace: tuple[tuple[int, ...], ...]
    reverse_necklace: tuple[tuple[int, ...], ...]
    dimension: int | None

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "rows": [sorted(r) for r in self.rows],
            "necklace": [list(e) for e in self.necklace],
            "reverse_necklace": [list(e) for e in self.reverse_necklace],
            "dimension": self.dimension,
        }


def cell_descriptor(M: TransversalMatroid) -> CellDescriptor:
    """Descriptor of the cell of a set system, read from its transversal
    matroid: its rank and necklaces from its basis masks, and the
    minimality count as dimension."""
    rows = tuple(map(set_of, M.row_masks))
    forward, reverse = necklace_masks(M)
    return CellDescriptor(
        k=forward[0].bit_count(),
        n=M.n,
        rows=rows,
        necklace=tuple(necklace_entries(forward)),
        reverse_necklace=tuple(necklace_entries(reverse)),
        dimension=is_minimal(rows, M.n).dimension,
    )


def diagram_matroid(W: WilsonLoopDiagram) -> TransversalMatroid:
    """The matroid of ``W.masks``, the strict supports unless a row has
    collapsed below four vertices (never on an admissible diagram)."""
    if any(m.bit_count() < 4 for m in W.masks):
        raise StructuralError(f"a propagator of {W} has fewer than 4 support vertices")
    return TransversalMatroid.of_masks(W.n, W.masks)


def diagram_matrix(W: WilsonLoopDiagram) -> SymbolicMatrix:
    return matrix_from_sets(W.supports(), n=W.n)


def diagram_cell(W: WilsonLoopDiagram, M: TransversalMatroid | None = None) -> CellDescriptor:
    """The cell of W, from ``M`` when the caller already holds W's matroid;
    W's matroid must pass the positroid test."""
    if M is None:
        M = diagram_matroid(W)
    is_positroid(M, expect=True)
    return cell_descriptor(M)
