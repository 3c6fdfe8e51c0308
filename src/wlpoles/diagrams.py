"""Wilson loop diagrams on a cyclic vertex set.

A diagram places k propagators on the marked circle with vertices
1..n.  Edge i joins vertices i and i+1, cyclically, so edge n joins
vertices n and 1.  A propagator is an unordered pair of distinct
edges; it is supported by the four vertices bounding those edges.

Degenerate propagators (adjacent edges, or the same pair listed
twice) may be constructed; they are reported by :func:`validate`
through the density conditions rather than rejected up front.

A diagram is built once per (n, props) through
:meth:`WilsonLoopDiagram.of`, and it carries the facts every stage asks
of it, computed once when it is built: its hash, its token and the bit
masks of its row supports.  Its ``memo`` holds the facts later stages
derive from it alone (its admissibility verdict, its R or the refusal,
its subfamily tables, each factor's record of case tag, partner moves
and codimension, and each triple), so they are computed once per
diagram object and die with it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import StructuralError
from .matroids import mask_of, row_unions


def cyc(v: int, n: int) -> int:
    """Wrap an integer into the 1-based cyclic range [1, n]."""
    return (v - 1) % n + 1


class Propagator(NamedTuple):
    """Unordered pair of edge indices, stored with e1 < e2."""

    e1: int
    e2: int

    @staticmethod
    @functools.lru_cache(maxsize=None)  # interned: one shared tuple per pair
    def of(a: int, b: int) -> "Propagator":
        if a == b:
            raise StructuralError(f"propagator ends on one edge: ({a},{b})")
        return Propagator(a, b) if a < b else Propagator.of(b, a)

    def __str__(self) -> str:
        return f"({self.e1},{self.e2})"


def vertex_support(p: Propagator, n: int, strict: bool = True) -> tuple[int, ...]:
    """Vertices supporting p, in intrinsic order (e1, e1+1, e2, e2+1).

    With ``strict`` (the default) a propagator whose support collapses
    to fewer than 4 distinct vertices is a structural error.  The
    non-strict form is used by the density checks, which are the
    mechanism that reports such degeneracies.
    """
    if not (1 <= p.e1 <= n and 1 <= p.e2 <= n):
        raise StructuralError(f"propagator {p} out of range for n={n}")
    out: list[int] = []
    for v in (p.e1, cyc(p.e1 + 1, n), p.e2, cyc(p.e2 + 1, n)):
        if v not in out:
            out.append(v)
    if strict and len(out) < 4:
        raise StructuralError(f"propagator {p} has support {out} on n={n}")
    return tuple(out)


@dataclass(frozen=True, slots=True)
class WilsonLoopDiagram:
    """A set of propagators on [n], stored in canonical sorted order.

    Slotted, with three facts stored once when it is built, in slots left
    out of comparison and repr: its hash, which is the hash of (n, props);
    its ``token``, the propagators as "1-3;2-5" ("0" for none); and
    ``masks``, the bit masks of its row supports, non-strict as
    :func:`validate` reads them.  ``memo``, also left out of comparison,
    hash and repr, holds values later stages derive from this diagram
    alone, filled on first use.  :meth:`of` shares one diagram per
    (n, props), so every caller finds the same memo.
    """

    n: int
    props: tuple[Propagator, ...]
    _hash: int = field(init=False, repr=False, compare=False)
    token: str = field(init=False, repr=False, compare=False)
    masks: tuple[int, ...] = field(init=False, repr=False, compare=False)
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise StructuralError(f"need at least one vertex, got n={self.n}")
        norm = tuple(sorted(Propagator.of(a, b) for a, b in self.props))
        for p in norm:
            if not (1 <= p.e1 <= self.n and 1 <= p.e2 <= self.n):
                raise StructuralError(f"propagator {p} out of range for n={self.n}")
        object.__setattr__(self, "props", norm)
        object.__setattr__(self, "_hash", hash((self.n, norm)))
        object.__setattr__(self, "token", ";".join(f"{p.e1}-{p.e2}" for p in norm) or "0")
        object.__setattr__(self, "masks", tuple(
            mask_of(vertex_support(p, self.n, strict=False)) for p in norm
        ))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(n: int, props: Iterable[Propagator]) -> "WilsonLoopDiagram":
        """The shared diagram equal to ``WilsonLoopDiagram(n, props)``,
        keyed on the sorted props, so their order does not matter."""
        return _interned(n, tuple(sorted(props)))

    @property
    def k(self) -> int:
        return len(self.props)

    def support(self, p: Propagator) -> tuple[int, ...]:
        return vertex_support(p, self.n)

    def supports(self) -> list[frozenset[int]]:
        """Row supports of the diagram's matrix, in row order."""
        return [frozenset(vertex_support(p, self.n)) for p in self.props]

    def rotate(self, shift: int) -> "WilsonLoopDiagram":
        """Shift every edge index by ``shift`` and re-canonicalize."""
        return WilsonLoopDiagram(
            self.n,
            tuple(
                Propagator.of(cyc(p.e1 + shift, self.n), cyc(p.e2 + shift, self.n))
                for p in self.props
            ),
        )

    def to_json(self) -> dict:
        return {"n": self.n, "props": [[p.e1, p.e2] for p in self.props]}

    @staticmethod
    def from_json(obj: dict) -> "WilsonLoopDiagram":
        try:
            n = int(obj["n"])
            pairs = [(int(a), int(b)) for a, b in obj["props"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise StructuralError(f"malformed diagram object: {obj!r}") from exc
        return WilsonLoopDiagram(n, tuple(Propagator.of(a, b) for a, b in pairs))

    def __str__(self) -> str:
        inner = ",".join(str(p) for p in self.props)
        return f"({{{inner}}},[{self.n}])"


# One object per (n, props) for the life of the process, so partner moves
# land on the diagram enumeration already holds, with its memo filled.
_interned = functools.cache(WilsonLoopDiagram)


def crossing(p: Propagator, q: Propagator) -> bool:
    """True when the two propagators interleave around the circle.

    Propagators sharing an endpoint edge never cross.
    """
    a, b = p
    c, d = q
    return (a < c < b < d) or (c < a < d < b)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    crossing_violations: tuple[tuple[Propagator, Propagator], ...]
    local_density_violations: tuple[tuple[Propagator, ...], ...]
    global_density_ok: bool

    @property
    def admissible(self) -> bool:
        return (
            not self.crossing_violations
            and not self.local_density_violations
            and self.global_density_ok
        )


def validate(W: WilsonLoopDiagram) -> AdmissibilityVerdict:
    """Check non-crossing, local density, and global density.

    Local density requires every nonempty propagator subset P to be
    supported by at least |P| + 3 vertices (read off the supports' union
    table, each repeated subset once).  Global density requires n >= k + 4.
    """
    crossings = tuple(
        (p, q) for p, q in itertools.combinations(W.props, 2) if crossing(p, q)
    )

    unions = row_unions(W.masks)
    short = [
        tuple(i for i in range(W.k) if T >> i & 1)
        for T in range(1, len(unions))
        if unions[T].bit_count() < T.bit_count() + 3
    ]
    violations = list(dict.fromkeys(
        tuple(W.props[i] for i in idx) for idx in sorted(short, key=lambda t: (len(t), t))
    ))

    return AdmissibilityVerdict(
        crossing_violations=crossings,
        local_density_violations=tuple(violations),
        global_density_ok=W.n >= W.k + 4,
    )


def is_admissible(W: WilsonLoopDiagram) -> bool:
    """Whether :func:`validate` passes W; the verdict is kept in
    ``W.memo``, so each diagram object is validated once."""
    memo = W.memo
    ok = memo.get("admissible")
    if ok is None:
        ok = memo["admissible"] = validate(W).admissible
    return ok


def edge_order(W: WilsonLoopDiagram, e: int) -> list[Propagator]:
    """Propagators ending on edge e, ordered by proximity to vertex e.

    The first propagator is the one nearest vertex e.  Sorting key:
    cyclic distance from vertex e+1 to the far endpoint edge,
    descending.  Only meaningful for non-crossing diagrams, so a
    crossing pair anywhere in the diagram is a structural error.
    """
    if not (1 <= e <= W.n):
        raise StructuralError(f"edge {e} out of range for n={W.n}")
    for p, q in itertools.combinations(W.props, 2):
        if crossing(p, q):
            raise StructuralError(f"edge order undefined, {p} and {q} cross")
    return fan_order(W, e)


def fan_order(W: WilsonLoopDiagram, e: int) -> list[Propagator]:
    """:func:`edge_order` without its checks, for callers that hold an
    admissible diagram (one ``validate`` has passed) and an edge of it."""

    def key(p: Propagator) -> tuple[int, Propagator]:
        far = p.e2 if p.e1 == e else p.e1
        return (-((far - (e + 1)) % W.n), p)

    return sorted((p for p in W.props if e in p), key=key)


def valid_propagators(n: int) -> list[Propagator]:
    """All propagators on [n] with 4 distinct support vertices."""
    return [
        Propagator(a, b)
        for a in range(1, n + 1)
        for b in range(a + 2, n + 1)
        if b - a <= n - 2
    ]


def enumerate_diagrams(k: int, n: int) -> list[WilsonLoopDiagram]:
    """All admissible diagrams with k propagators on [n], sorted.

    Backtracks over the canonical propagator list keeping pairwise
    non-crossing prefixes, then applies the full verdict (density
    conditions included) to each candidate.
    """
    if k < 0 or n < 1:
        raise StructuralError(f"bad enumeration bounds k={k}, n={n}")
    if n < k + 4:
        return []
    if k == 0:
        return [WilsonLoopDiagram.of(n, ())]

    candidates = valid_propagators(n)
    out: list[WilsonLoopDiagram] = []
    chosen: list[Propagator] = []

    def extend(start: int) -> None:
        if len(chosen) == k:
            W = WilsonLoopDiagram.of(n, chosen)
            if is_admissible(W):
                out.append(W)
            return
        for idx in range(start, len(candidates)):
            p = candidates[idx]
            if any(crossing(p, q) for q in chosen):
                continue
            chosen.append(p)
            extend(idx + 1)
            chosen.pop()

    extend(0)
    return out
