"""Matroids given by rank oracles, with the structure theory used here.

Three realizations share one interface: transversal matroids of a set
system (rank by Hall's deficiency formula), the max-rank pair of two
matroids (a vanishing quadratic's limit matroid, from two transversal
systems), and minors (restriction or contraction) of any of them.  No
realization takes symbolic minors.  On top of the rank oracle sit bases,
closure, flats, cyclic flats, flacets, connectivity, and
the cyclic-interval positroid test.  Bases are bit masks, listed once per
instance: by a rank scan of the k-subsets in general, and without a rank
query for a transversal matroid (its systems of distinct representatives)
and for the max-rank pair (the union of its full-rank parts' bases).

Ground sets are subsets of {1..n} stored as bit masks; n <= 64.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import InconsistencyError, StructuralError
from .exact import mat_rank
from .sampling import seeded_rng

_STRUCTURE_LIMIT = 16  # flat/connectivity enumeration is 2^n
_ROW_LIMIT = 20  # a subset-union table has 2^rows entries


def mask_of(S: Iterable[int]) -> int:
    m = 0
    for v in S:
        m |= 1 << (v - 1)
    return m


def set_of(mask: int) -> frozenset[int]:
    # frozen from a set, not a generator, which would leave it an oversized table
    return frozenset({v + 1 for v in range(mask.bit_length()) if mask >> v & 1})


def row_masks(n: int, rows: Sequence[frozenset[int]]) -> tuple[int, ...]:
    """Bit masks of a set system's rows, which must lie in [1, n]; more
    rows than n can never have full rank and are refused."""
    for sup in rows:
        if sup and not (1 <= min(sup) and max(sup) <= n):
            raise StructuralError(f"support {sorted(sup)} outside [1, {n}]")
    if len(rows) > n:
        raise StructuralError(f"{len(rows)} rows on {n} columns can never have full rank")
    return tuple(mask_of(sup) for sup in rows)


def _check_row_limit(masks: Sequence[int]) -> None:
    if len(masks) > _ROW_LIMIT:
        raise StructuralError(f"subset-union table capped at {_ROW_LIMIT} rows, got {len(masks)}")


def union_table(masks: Sequence[int]) -> list[int]:
    """A zeroed table with one slot per subfamily T of the rows, indexed by
    T as a bit mask: 2^rows entries, so at most 20 rows."""
    _check_row_limit(masks)
    return [0] * (1 << len(masks))


def row_unions(masks: Sequence[int]) -> list[int]:
    """Union U_T of the row masks in each T, indexed by T as a bit mask;
    2^rows steps, each from T less its lowest row."""
    out = union_table(masks)
    for T in range(1, len(out)):
        low = T & -T
        out[T] = out[T ^ low] | masks[low.bit_length() - 1]
    return out


def is_cyclic_interval(S: Iterable[int], n: int) -> bool:
    """True when S is a run of cyclically consecutive vertices."""
    s = set(S)
    if not s or len(s) == n:
        return True
    gaps = sum(1 for v in s if (v % n) + 1 not in s)
    return gaps == 1


class Matroid:
    """Base class: subclasses provide ``n``, ``ground_mask``, ``_rank``."""

    n: int
    ground_mask: int

    def __init__(self):
        self._rank_cache: dict[int, int] = {}
        self._flats: tuple[frozenset[int], ...] | None = None
        self._bases: frozenset[int] | None = None

    def _rank(self, mask: int) -> int:
        raise NotImplementedError

    def rank_mask(self, mask: int) -> int:
        if mask & ~self.ground_mask:
            raise StructuralError("subset outside the ground set")
        hit = self._rank_cache.get(mask)
        if hit is None:
            hit = self._rank_cache[mask] = self._rank(mask)
        return hit

    def rank(self, S: Iterable[int]) -> int:
        return self.rank_mask(mask_of(S))

    @property
    def ground(self) -> frozenset[int]:
        return set_of(self.ground_mask)

    @property
    def k(self) -> int:
        return self.rank_mask(self.ground_mask)

    def independent(self, S: Iterable[int]) -> bool:
        m = mask_of(S)
        return self.rank_mask(m) == m.bit_count()

    def basis_masks(self) -> frozenset[int]:
        """The bases as bit masks, listed once per instance."""
        if self._bases is None:
            self._bases = self._basis_masks()
        return self._bases

    def _basis_masks(self) -> frozenset[int]:
        """Every k-subset of the ground set whose rank is k."""
        k = self.k
        return frozenset(
            m for m in map(mask_of, itertools.combinations(sorted(self.ground), k))
            if self.rank_mask(m) == k
        )

    def bases(self) -> frozenset[frozenset[int]]:
        return frozenset(map(set_of, self.basis_masks()))

    def closure(self, S: Iterable[int]) -> frozenset[int]:
        m = mask_of(S)
        base = self.rank_mask(m)
        out = m
        rest = self.ground_mask & ~m
        v = rest
        while v:
            low = v & -v
            if self.rank_mask(m | low) == base:
                out |= low
            v &= v - 1
        return set_of(out)

    def flats(self) -> list[frozenset[int]]:
        """Every flat, listed once per instance: the scan takes 2^n closures,
        and cyclic flats, flacets and the positroid test all start from it."""
        if self._flats is None:
            if len(self.ground) > _STRUCTURE_LIMIT:
                raise StructuralError(f"flat enumeration capped at {_STRUCTURE_LIMIT} elements")
            seen: set[frozenset[int]] = set()
            elems = sorted(self.ground)
            for size in range(len(elems) + 1):
                for combo in itertools.combinations(elems, size):
                    seen.add(self.closure(combo))
            self._flats = tuple(sorted(seen, key=lambda f: (self.rank(f), len(f), sorted(f))))
        return list(self._flats)

    def is_cyclic_flat(self, F: Iterable[int]) -> bool:
        """A flat with no coloops in the restriction to it."""
        fs = frozenset(F)
        if self.closure(fs) != fs:
            return False
        m = mask_of(fs)
        r = self.rank_mask(m)
        v = m
        while v:
            low = v & -v
            if self.rank_mask(m & ~low) < r:
                return False
            v &= v - 1
        return True

    def cyclic_flats(self) -> list[frozenset[int]]:
        return [f for f in self.flats() if self.is_cyclic_flat(f)]

    def is_connected(self) -> bool:
        """No proper nonempty part splits the rank additively."""
        g = self.ground_mask
        size = g.bit_count()
        if size <= 1:
            return True
        if size > 20:
            raise StructuralError("connectivity scan capped at 20 elements")
        total = self.rank_mask(g)
        elems = sorted(self.ground)
        anchor = elems[0]
        for r in range(1, size):
            for combo in itertools.combinations(elems[1:], r - 1):
                part = mask_of(combo) | mask_of([anchor])
                if self.rank_mask(part) + self.rank_mask(g & ~part) == total:
                    return False
        return True

    def restrict(self, F: Iterable[int]) -> "MinorMatroid":
        return MinorMatroid(self, keep=mask_of(F), contracted=0)

    def contract(self, F: Iterable[int]) -> "MinorMatroid":
        m = mask_of(F)
        return MinorMatroid(self, keep=self.ground_mask & ~m, contracted=m)

    def flacets(self) -> list[frozenset[int]]:
        """Flats F, 2 <= |F| <= n-1, with M|F and M/F both connected."""
        size = self.ground_mask.bit_count()
        out = []
        for f in self.flats():
            if not (2 <= len(f) <= size - 1):
                continue
            if self.restrict(f).is_connected() and self.contract(f).is_connected():
                out.append(f)
        return out


class TransversalMatroid(Matroid):
    """Matroid of a set system, ranked by Hall's deficiency formula:
    rank(S) = min over unions U of rows of (rows not inside U) + |U & S|.
    Unions that a row leaves by a single column are skipped, as another
    union always bounds as low; that usually leaves a handful per rank
    query (one for k singleton rows), while row_unions takes 2^k steps.
    The table is built on the first rank query; the bases are the
    system's sets of distinct representatives and need none."""

    def __init__(self, n: int, row_supports: Sequence[Iterable[int]]):
        self._set_rows(n, row_masks(n, [frozenset(r) for r in row_supports]))

    @classmethod
    def of_masks(cls, n: int, masks: Sequence[int]) -> "TransversalMatroid":
        """The matroid of at most n row masks inside [1, n], as diagrams
        and limit systems hold them, built without vertex sets."""
        M = cls.__new__(cls)
        M._set_rows(n, tuple(masks))
        return M

    def _set_rows(self, n: int, masks: tuple[int, ...]) -> None:
        super().__init__()
        if n < 1 or n > 64:
            raise StructuralError(f"ground size {n} outside [1, 64]")
        self.n = n
        self.ground_mask = (1 << n) - 1
        _check_row_limit(masks)
        self.row_masks = masks

    @functools.cached_property
    def _hall(self) -> dict[int, int]:
        """U -> number of rows not inside U, over the kept unions U."""
        return {
            U: sum(r & ~U != 0 for r in self.row_masks)
            for U in set(row_unions(self.row_masks))
            if all((r & ~U).bit_count() != 1 for r in self.row_masks)
        }

    def _rank(self, mask: int) -> int:
        return min(d + (union & mask).bit_count() for union, d in self._hall.items())

    def _basis_masks(self) -> frozenset[int]:
        """The transversals of size r = rank: one column from each of r
        rows, all distinct, grown row by row.  A row may be skipped only
        while the rows left can still fill r columns, so a full-rank system
        (tried first, with r = rows) skips none and asks no rank; only a
        rank-deficient one reads its rank from the Hall table."""
        found = self._transversals(len(self.row_masks))
        return found if found else self._transversals(self.k)

    def _transversals(self, r: int) -> frozenset[int]:
        partial = {0}
        left = len(self.row_masks)
        for row in self.row_masks:
            left -= 1
            grown = set()
            for m in partial:
                free = row & ~m
                while free:
                    low = free & -free
                    grown.add(m | low)
                    free ^= low
            partial = grown.union(m for m in partial if m.bit_count() + left >= r)
        return frozenset(m for m in partial if m.bit_count() == r)


class MaxRankMatroid(Matroid):
    """rank(S) = max(rank_1(S), rank_2(S)) over two matroids on one ground
    set: a matroid for the two transversal systems of a vanishing quadratic
    (:attr:`wlpoles.poles.Limit.systems`), not for every pair.  The parts
    are asked uncached, since this oracle caches its own answers."""

    def __init__(self, first: Matroid, second: Matroid):
        super().__init__()
        self.n, self.ground_mask = first.n, first.ground_mask
        self.parts = (first, second)

    def _rank(self, mask: int) -> int:
        return max(M._rank(mask) for M in self.parts)

    def _basis_masks(self) -> frozenset[int]:
        """The bases of the parts of largest rank: a set of that size has
        it as its max-rank iff it is a basis of one of them."""
        sets = [M.basis_masks() for M in self.parts]
        r = max(min(B).bit_count() for B in sets)
        return frozenset().union(*(B for B in sets if min(B).bit_count() == r))


class MinorMatroid(Matroid):
    """Restriction and/or contraction, delegating to the parent oracle."""

    def __init__(self, parent: Matroid, keep: int, contracted: int):
        super().__init__()
        if keep & contracted:
            raise StructuralError("kept and contracted sets overlap")
        self.parent = parent
        self.n = parent.n
        self.ground_mask = keep
        self._contracted = contracted
        self._base = parent.rank_mask(contracted) if contracted else 0

    def _rank(self, mask: int) -> int:
        return self.parent.rank_mask(mask | self._contracted) - self._base


@dataclass(frozen=True)
class PositroidVerdict:
    ok: bool
    witness: frozenset[int] | None

    def __bool__(self) -> bool:
        return self.ok


def is_positroid(
    M: Matroid, expect: bool = False, flacets: Sequence[frozenset[int]] | None = None
) -> PositroidVerdict:
    """Necessary test: every flacet must be a cyclic interval.

    With ``expect`` a failure is promoted to an inconsistency: the
    caller asserts on other grounds that M must pass (admissible
    diagrams always do), so a counterexample means a bug.  A caller
    that has already listed ``M.flacets()`` passes them as ``flacets``.
    """
    for f in M.flacets() if flacets is None else flacets:
        if not is_cyclic_interval(f, M.n):
            if expect:
                raise InconsistencyError(
                    f"flacet {sorted(f)} is not a cyclic interval"
                )
            return PositroidVerdict(False, f)
    return PositroidVerdict(True, None)


@dataclass(frozen=True)
class FlatReport:
    flats_by_rank: tuple[tuple[int, tuple[frozenset[int], ...]], ...]
    cyclic_flats: tuple[frozenset[int], ...]
    flacets: tuple[frozenset[int], ...]
    connected: bool
    positroid: bool

    def to_json(self) -> dict:
        return {
            "flats_by_rank": {
                str(r): [sorted(f) for f in fs] for r, fs in self.flats_by_rank
            },
            "cyclic_flats": [sorted(f) for f in self.cyclic_flats],
            "flacets": [sorted(f) for f in self.flacets],
            "connected": self.connected,
            "positroid": self.positroid,
        }


def structure(M: Matroid) -> FlatReport:
    """Flats by rank, cyclic flats, flacets, connectivity and the positroid
    verdict, which is read from the one list of flacets."""
    by_rank: dict[int, list[frozenset[int]]] = {}
    for f in M.flats():
        by_rank.setdefault(M.rank(f), []).append(f)
    flacets = tuple(M.flacets())
    return FlatReport(
        flats_by_rank=tuple(
            (r, tuple(by_rank[r])) for r in sorted(by_rank)
        ),
        cyclic_flats=tuple(M.cyclic_flats()),
        flacets=flacets,
        connected=M.is_connected(),
        positroid=is_positroid(M, flacets=flacets).ok,
    )


def numeric_rank_probe(
    M: TransversalMatroid, S: Iterable[int], seed: int
) -> int:
    """Rank of a random exact evaluation of the set-system matrix.

    Entries are independent positive rationals with numerator and
    denominator up to 10^6; used as a cross-check of the Hall
    deficiency oracle, never as the primary answer.
    """
    rng = seeded_rng(seed, "rankprobe", tuple(sorted(S)))
    cols = sorted(set(S))
    grid = []
    for row in M.row_masks:
        grid.append(
            [
                Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
                if row >> (c - 1) & 1
                else Fraction(0)
                for c in cols
            ]
        )
    return mat_rank(grid) if grid else 0


def check_rank_oracle(
    M: TransversalMatroid, S: Iterable[int], seeds: Sequence[int] = (1, 2, 3)
) -> int:
    """Hall deficiency rank with numeric agreement enforced across seeds."""
    want = M.rank(S)
    for seed in seeds:
        got = numeric_rank_probe(M, S, seed)
        if got != want:
            raise InconsistencyError(
                f"Hall rank {want} but numeric rank {got} on {sorted(set(S))}"
            )
    return want
