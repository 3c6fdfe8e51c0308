"""Pairing of codimension-one pole factors into cancelling groups.

Every codimension-one factor of the pole polynomial of an admissible
diagram is matched with the factors of one or two neighbouring diagrams,
each one propagator swap away (:func:`_move`), that share the same
boundary cell.  One rule builds every partner
(:func:`poles._partner_moves`, re-exported here with the case tags):
the factor vanishes where its far row keeps only its vanishing row, and
each partner swaps in a propagator whose support contains that row.  A
single entry has one such propagator and pairs; a wide quadratic has one
and closes into a triple over it; a narrow quadratic has two, the fan
rotation on an edge carrying two propagators.  A single entry whose
partner would cross the diagram (2a) takes one fan step
(:func:`_fan_base`) to the quadratic of its narrow triple.  The match is
certified four ways: equality of the limit matroids (bases and both
necklaces), the recorded weights summing to zero, one exact row-space
certificate that every member meets every other member's own limit
point, and, for pairs, an exact sign identity under localization on
twistor data.
A factor's case tag and partner moves are read from its record
(:func:`poles.factor_record`), made once per diagram from one walk over
its fans.  In verification each member's limit is one
:class:`poles.Limit`, built by the guarded :func:`poles.limit` once per
verification; its limit matroid is transversal, or the max-rank pair of
a quadratic's two systems, one per distinct key in a group
(:func:`poles.limit_matroid`).  A meet whose rows are a single entry's
own generic rows reads its rank from that entry's limit matroid; every
other meet takes an exact rank at one integer point (:func:`_meet`).
Localized rows are computed once per (propagator, sample), in one
Laplace pass over integer twistor rows cleared once per sample
(:func:`_localized_row`).
``amplitude_report`` runs the whole pipeline for fixed (k, n).
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .diagrams import (
    Propagator,
    WilsonLoopDiagram,
    crossing,
    cyc,
    enumerate_diagrams,
    fan_order,
    vertex_support,
)
from .errors import InconsistencyError, StructuralError
from .exact import Polynomial, VarId, mat_rank, poly_det, replacement_dets, specialize
from .jsonout import dumps
from .matroids import set_of
from .poles import (  # the case tags and the partner rule are re-exported
    CASE1,
    CASE1A,
    CASE2,
    CASE2A,
    CASE3,
    CASE3A,
    CASE3B,
    CODIM_GE2,
    PoleFactor,
    _partner_moves,
    check_r_equalities,
    factor_codim,
    factor_record,
    limit,
    limit_matroid,
    pole_quad,
    pole_var,
    r_poly_edge,
)
from .positroids import CellDescriptor, first_violation, necklace_entries, necklace_masks
from .sampling import TwistorData, seeded_rng, twistor_data

EXCLUDED_CODIM2 = "codim2"


# ---------------------------------------------------------------------------
# localization


def _localized_row(p: Propagator, Z: TwistorData) -> tuple[Fraction, dict[int, Fraction]]:
    """The gauge minor of p on Z and its vertex-replacement minors, the
    latter keyed by vertex.

    They depend on p and Z only, so they are computed once per
    (propagator, sample) and kept in ``Z.memo``.  A vanishing gauge
    minor raises and is not kept, so every later call raises too.
    All five are 4x4 minors of one integer matrix, the sample's cleared
    support rows (``Z.cleared``) over its cleared gauge row, taken in one
    Laplace pass (:func:`replacement_dets`) and divided once by the
    product of their scales.
    """
    hit = Z.memo.get(p)
    if hit is not None:
        return hit
    slots = vertex_support(p, Z.n)
    cleared = [Z.cleared[s - 1] for s in slots]
    gauge, g = Z.cleared[-1]
    d0, *dets = replacement_dets([ints[:4] for ints, _ in cleared] + [gauge[:4]])
    if d0 == 0:
        raise StructuralError(f"degenerate twistor data: gauge minor of {p} vanishes")
    scale = prod(m for _, m in cleared)
    entries = {v: Fraction(d, scale // m * g) for v, d, (_, m) in zip(slots, dets, cleared)}
    hit = Z.memo[p] = (Fraction(d0, scale), entries)
    return hit


def localize(W: WilsonLoopDiagram, Z: TwistorData) -> dict[VarId, Fraction]:
    """Evaluate every matrix entry of W on twistor data, exactly.

    The gauge entry x[r, 0] of row r is the 4x4 determinant of the four
    support rows of Z restricted to the first four coordinates; the
    entry x[r, m] replaces the slot of vertex m by the gauge row Z_0.
    Degenerate data (a vanishing gauge minor) is rejected.
    """
    if Z.n != W.n:
        raise StructuralError(f"twistor data has n={Z.n}, diagram needs n={W.n}")
    if Z.width != W.k + 4:
        raise StructuralError(f"twistor width {Z.width}, diagram needs k+4={W.k + 4}")
    out: dict[VarId, Fraction] = {}
    for r0, p in enumerate(W.props, start=1):
        d0, entries = _localized_row(p, Z)
        out[VarId(r0, 0)] = d0
        for m, value in entries.items():
            out[VarId(r0, m)] = value
    return out


def _localized_entry(W: WilsonLoopDiagram, Z: TwistorData, row: int, col: int) -> Fraction:
    """``localize(W, Z)[VarId(row, col)]`` for a vertex ``col``, from its row
    alone.  Z's shape is not checked: the sign check's samples are drawn
    at the one (k, n) that :func:`verify_group` requires of a group."""
    return _localized_row(W.props[row - 1], Z)[1][col]


# ---------------------------------------------------------------------------
# classification


def _moves(W: WilsonLoopDiagram, f: PoleFactor) -> tuple[tuple, ...]:
    """The partner rule's moves for a factor of R(W); raises if f is not one."""
    return factor_record(W, f)[1]


def classify(W: WilsonLoopDiagram, f: PoleFactor) -> str:
    """Case tag of a pole factor: 1/2 pairable single entries, 2a blocked
    single entries, 3/3b pairable quadratics, 1a/3a higher codimension.

    The tag is read from the factor's record (:func:`poles.factor_record`),
    whose rule reads the partner propagators of :func:`poles._partner_moves`;
    a 2a entry reaches its narrow triple by one fan step (:func:`_fan_base`).
    """
    return factor_record(W, f)[0]


# ---------------------------------------------------------------------------
# cancellation groups


# Slotted, not frozen: a frozen __init__ of a group's eight fields costs
# 1.3 us against 0.3 us (Python 3.11), and the (3,9) front half builds
# 7,065 groups.  Nothing mutates a group; verification returns a new one.
@dataclass(slots=True)
class GroupMember:
    diagram: WilsonLoopDiagram
    factor: PoleFactor
    weight: str

    def token(self) -> str:
        return f"{self.diagram.token}/{self.factor.label()}"

    def to_json(self) -> dict:
        return {
            "diagram": self.diagram.to_json(),
            "factor": self.factor.to_json(),
            "weight": self.weight,
        }


@dataclass(slots=True)
class CancellationGroup:
    """A set of (diagram, factor) entries sharing one boundary cell.

    ``kind`` is "pair", "wide" or "narrow"; pairs carry weights +1/-1,
    triples carry rational-function weights recorded per member token.
    Verification fills ``boundary``, ``checks`` and ``failures``.
    """

    case: str
    kind: str
    members: tuple[GroupMember, ...]
    weight_functions: tuple[tuple[str, str], ...] = ()
    boundary: CellDescriptor | None = None
    checks: tuple[tuple[str, bool], ...] = ()
    failures: tuple[str, ...] = ()
    verified: bool = False

    def key(self) -> tuple[str, ...]:
        return tuple(m.token() for m in self.members)

    def to_json(self) -> dict:
        out = {
            "case": self.case,
            "kind": self.kind,
            "members": [m.to_json() for m in self.members],
            "boundary": self.boundary.to_json() if self.boundary else None,
            "checks": {name: ok for name, ok in self.checks},
            "verified": self.verified,
        }
        if self.weight_functions:
            out["weights"] = {tok: w for tok, w in self.weight_functions}
        if self.failures:
            out["failures"] = list(self.failures)
        return out


def diagram_token(W: WilsonLoopDiagram) -> str:
    return W.token


def _entry_key(entry: tuple[WilsonLoopDiagram, PoleFactor]) -> tuple:
    return entry[0].props, entry[1].sort_key()


def _move(W, remove, add, on, col) -> tuple[WilsonLoopDiagram, PoleFactor]:
    """The partner entry one propagator swap away: W with ``remove``
    replaced by ``add``, and its factor on the propagators ``on`` at
    column ``col`` (the single entry of one propagator, or the quadratic
    of two on edge ``col``).  The partner diagram is the shared one of
    ``WilsonLoopDiagram.of``, so its R, or its refusal, is already in its
    memo when an earlier move reached it.  The partner's R is its only
    admissibility check, and the factor must be one of its factors.
    """
    if add in W.props:
        raise InconsistencyError(f"partner {add} already present in {W}")
    if remove not in W.props:
        raise StructuralError(f"{remove} is not a propagator of {W}")
    W2 = WilsonLoopDiagram.of(W.n, [p for p in W.props if p != remove] + [add])
    try:
        R = r_poly_edge(W2)
    except StructuralError:
        raise InconsistencyError(f"partner diagram {W2} is not admissible") from None
    rows = [W2.props.index(x) + 1 for x in on]
    f2 = pole_var(*rows, col) if len(rows) == 1 else pole_quad(*rows, col, cyc(col + 1, W.n))
    if f2 not in R.factor_set():
        raise InconsistencyError(f"expected factor {f2.label()} in R({W2})")
    return W2, f2


def _triple(W, f) -> tuple[tuple[WilsonLoopDiagram, PoleFactor], ...]:
    """(base, lose-far, lose-near) entries of the triple of a quadratic:
    the base and the partner rule's two moves (:func:`_partner_moves`).

    A wide quadratic swaps its far, then its near propagator for the
    chord between the far endpoints, and the partners keep quadratics on
    the chord's edges.  A narrow one swaps them for the two short
    propagators through its vanishing row, whose outer entries are the
    partners' factors: the two steps of the fan rotation out of its
    quadratic.

    Every member of a triple asks for it, and a wide triple's check
    rebuilds it from its base, so the entries are kept in ``W.memo``.  A
    refused move is kept as its message, not as the exception, whose
    traceback would hold its frames, and raised again on every call.
    """
    key = ("triple", f)
    entries = W.memo.get(key)
    if entries is None:
        try:
            entries = ((W, f), *(_move(W, *m) for m in _moves(W, f)))
        except InconsistencyError as exc:
            entries = str(exc)
        W.memo[key] = entries
    if isinstance(entries, str):
        raise InconsistencyError(entries)
    return entries


# The weights of a triple's (base, lose-far, lose-near) entries, each with
# its numerator over the common denominator 1-e as (constant, e) coefficients.
_TRIPLE_WEIGHTS = {"1": (1, -1), "e/(1-e)": (0, 1), "-1/(1-e)": (-1, 0)}


def _triple_group(
    entries: tuple[tuple[WilsonLoopDiagram, PoleFactor], ...], case: str, kind: str
) -> CancellationGroup:
    ordered = sorted(zip(entries, _TRIPLE_WEIGHTS), key=lambda ew: _entry_key(ew[0]))
    members = tuple(GroupMember(d, fac, "triple") for (d, fac), _ in ordered)
    wfun = tuple((m.token(), w) for m, (_, w) in zip(members, ordered))
    return CancellationGroup(case=case, kind=kind, members=members, weight_functions=wfun)


def _fan_base(W, f) -> tuple[WilsonLoopDiagram, PoleFactor]:
    """Quadratic entry of the narrow triple that holds a blocked (2a) entry.

    The hop q of x[p, v], its one partner propagator
    (:func:`_partner_moves`), crosses a propagator r that shares an
    endpoint edge e with p, and p is an end of the fan on e.
    One fan step swaps p for the chord u from the far end x of p's
    neighbour r in that fan to p's middle vertex next to e; the base is
    the quadratic of r and u on edge x.
    """
    n = W.n
    p = W.props[f.rows[0] - 1]
    ((_, q, _, _),) = _moves(W, f)
    e = next(t for b in W.props if b != p and crossing(q, b) for t in b if t in p)
    order = fan_order(W, e)
    r = order[1] if order[0] == p else order[-2]
    x = r.e2 if r.e1 == e else r.e1
    u = Propagator.of(x, cyc(e + 1, n) if cyc(e + 2, n) in p else cyc(e - 1, n))
    return _move(W, p, u, (r, u), x)


def partners(W: WilsonLoopDiagram, f: PoleFactor) -> CancellationGroup:
    """Cancellation group of a codimension-one factor.

    The members come from the partner rule (:func:`_partner_moves`).
    Tags 1 and 2 pair x[p, v] with its one move, which swaps p for the
    other propagator through V_p - {v} and takes the vertex it adds; the
    rule is symmetric, so the partner's partner is the entry itself.
    Tags 3 and 3b close into a triple with their two moves, and tag 2a
    builds the narrow triple of the quadratic one fan step away
    (:func:`_fan_base`).  Tags 1a and 3a have no group.
    """
    tag = classify(W, f)
    if tag in (CASE1A, CASE3A):
        raise StructuralError(f"{f.label()} on {W} is case {tag}: codimension >= 2")
    if tag == CASE3:
        entries = _triple(W, f)
        base = min(entries, key=_entry_key)
        if base != entries[0]:
            # the triple is closed under reconstruction; rebuild from the
            # smallest member so every entry point yields the same group
            rebuilt = _triple(*base)
            if frozenset(map(_entry_key, rebuilt)) != frozenset(map(_entry_key, entries)):
                raise InconsistencyError(f"wide triple of ({W}, {f.label()}) is not closed")
            entries = rebuilt
        return _triple_group(entries, CASE3, "wide")
    if tag in (CASE3B, CASE2A):
        base = _fan_base(W, f) if tag == CASE2A else (W, f)
        return _triple_group(_triple(*base), CASE3B, "narrow")

    (move,) = _moves(W, f)
    W2, f2 = _move(W, *move)
    tag2 = classify(W2, f2)
    if tag2 != tag:
        raise InconsistencyError(
            f"partner of ({W}, {f.label()}) classifies as {tag2}, expected {tag}"
        )
    ordered = sorted(((W, f), (W2, f2)), key=_entry_key)
    members = tuple(GroupMember(d, fac, w) for (d, fac), w in zip(ordered, ("+1", "-1")))
    return CancellationGroup(case=tag, kind="pair", members=members)


# ---------------------------------------------------------------------------
# verification


def _group_base(g: CancellationGroup) -> GroupMember | None:
    """The member whose limit describes the group's boundary: the first
    of a pair or wide triple, a narrow triple's quadratic, or None for a
    narrow group without one."""
    if g.kind in ("pair", "wide"):
        return g.members[0]
    return next((m for m in g.members if m.factor.kind == "quad"), None)


def _within(rows: list[dict[int, Polynomial]], support: frozenset[int]) -> dict[int, Polynomial]:
    """A nonzero row in the span of independent polynomial rows that
    vanishes off ``support``, or ``{}`` if there is none.

    A row already inside the support is returned as it is.  Otherwise
    the columns off the support are eliminated one at a time,
    fraction-free, over sparse rows that keep only nonzero entries.
    """
    for row in rows:
        if row.keys() <= support:
            return row
    zero = Polynomial()
    live = list(rows)
    for col in sorted({c for row in rows for c in row} - support):
        pivot = next((r for r in live if col in r), None)
        if pivot is None:
            continue
        live.remove(pivot)
        for i, r in enumerate(live):
            if col in r:
                cols = r.keys() | pivot.keys()
                combined = {c: pivot[col] * r.get(c, zero) - r[col] * pivot.get(c, zero) for c in cols}
                live[i] = {c: v for c, v in combined.items() if not v.is_zero()}
    return next((r for r in live if r), {})


def _meet(g: CancellationGroup, limits, ranks: dict[tuple, int], n: int, k: int, seed: int) -> None:
    """Every member meets the limit point of every other member.

    The limit point of a member a is its own symbolic limit rows
    (:meth:`poles.Limit.rows`).  Another member b meets it when, for
    each propagator x of b, the point's row space holds a row vanishing
    off x's support (:func:`_within`), b's factor vanishes on those rows
    as a polynomial identity, and the rows have generic rank k.  The same
    rule serves every kind of group; each (point, support) row is
    computed once.

    When a is a single entry and b's rows are exactly a's own generic
    rows, each used once, their entries are distinct indeterminates, so
    their generic rank is the transversal rank of a's limit set system
    (Edmonds, "Systems of distinct representatives and linear algebra"):
    the rank of a's limit matroid, ``ranks[lim.key]``, which ``limit_rank``
    has read.  Otherwise the rank is taken at one integer point, which
    proves generic rank k, because rank only drops under
    specialization; that point's draws come from a stream seeded per
    group, made on first use.
    """
    rng = None
    for a, lim in zip(g.members, limits):
        rows_a = lim.rows()
        own = sorted(map(id, rows_a)) if a.factor.kind == "var" else None
        found: dict[Propagator, dict[int, Polynomial]] = {}
        point: dict[VarId, int] = {}
        for b in g.members:
            if b is a:
                continue
            W, f = b.diagram, b.factor
            for x in W.props:
                if x not in found:
                    found[x] = _within(rows_a, frozenset(W.support(x)))
            grid = [found[x] for x in W.props]
            if not poly_det([[grid[r - 1].get(c, Polynomial()) for c in f.cols] for r in f.rows]).is_zero():
                raise InconsistencyError(f"{f.label()} of {W} does not vanish at the limit of {a.token()}")
            if own is not None and sorted(map(id, grid)) == own:
                rank = ranks[lim.key]
            else:
                rng = rng or seeded_rng(seed, "rowspace", "|".join(g.key()))
                rank = mat_rank(specialize(grid, n, point, rng))
            if rank != k:
                raise InconsistencyError(f"{b.token()} does not reach the limit of {a.token()}")


# Bounded: a run needs one entry, since every group of one amplitude is
# checked on the same samples.  An entry of ten samples holds 90-180 KB
# from (2, 7) to (5, 10) (tracemalloc), and the key carries the seed and
# the trial count, so a process that runs many seeds would keep them all.
@functools.lru_cache(maxsize=4)
def sign_samples(k: int, n: int, seed: int, count: int) -> tuple[TwistorData, ...]:
    """The positive twistor samples every pair group at (k, n) is checked on.

    Drawn once per amplitude: the stream depends on (seed, k, n) only,
    and each sample has passed the exhaustive ``check_positive``.
    """
    rng = seeded_rng(seed, "sign", k, n)
    return tuple(twistor_data(k, n, seed=rng.randrange(1 << 30)) for _ in range(count))


def _unverified(g: CancellationGroup, failure: str) -> CancellationGroup:
    """A group no check can run on, returned unverified with one failure."""
    return dataclasses.replace(g, boundary=None, checks=(), failures=(failure,), verified=False)


def verify_group(g: CancellationGroup, trials: int = 10, seed: int = 0) -> CancellationGroup:
    """Run all certificates on a group and return it annotated.

    Each member's :func:`poles.limit` is built once.  Checks: the limit
    matroids of all members agree (bases, necklace, reverse necklace,
    one matroid and one cell per distinct key of limit set systems; pairs
    also literally share limit supports), the base member's limit set
    system passes the minimality rule of ``factor_codim`` (a boundary
    cell of dimension 3k-1), the weights
    the group records sum to zero (a triple's as numerators over 1-e,
    every member's weight known), every member meets every other
    member's own limit point (:func:`_meet`, exact and run once, with
    the limit matroid ranks ``limit_rank`` reads standing in for the
    rank of a single entry's own generic rows), and pairs satisfy the
    exact localization sign identity on every twistor sample of
    :func:`sign_samples`, one set shared by all pairs of the amplitude,
    read from localized rows taken in one integer Laplace pass each
    (:func:`_localized_row`).
    ``trials`` counts only those sign samples, ``max(3, trials)`` of them.
    A pair not of two members fails both pair checks instead of raising.
    A group with no members, with members on different (k, n), with a
    member whose diagram is inadmissible or whose factor is not one of
    its R's, or a narrow group without a quadratic, comes back unverified
    with one failure and no checks.

    ``boundary`` describes the base member's limit.  For a wide triple
    its ``rows`` are the base quadratic's display supports, not the
    limit cell; only its necklaces come from the exact limit matroid.
    """
    if trials < 1:
        raise StructuralError(f"verify_group needs at least one trial, got {trials}")
    if not g.members:
        return _unverified(g, "group has no members")
    k = g.members[0].diagram.k
    n = g.members[0].diagram.n
    if any(m.diagram.k != k or m.diagram.n != n for m in g.members):
        return _unverified(g, "group members live on different ground data")
    base_member = _group_base(g)
    if base_member is None:
        return _unverified(g, f"{g.kind} group has no quadratic member")
    try:
        limits = [limit(m.diagram, m.factor) for m in g.members]
    except StructuralError as exc:  # an inadmissible diagram, or a factor not of its R
        return _unverified(g, f"member has no limit: {exc}")
    base = limits[g.members.index(base_member)]
    checks: list[tuple[str, bool]] = []
    failures: list[str] = []

    matroids = {key: limit_matroid(n, key) for key in {lim.key for lim in limits}}
    ranks = {key: min(M.basis_masks()).bit_count() for key, M in matroids.items()}
    rank_ok = all(r == k for r in ranks.values())
    checks.append(("limit_rank", rank_ok))
    bases_ok = neck_ok = rev_ok = False
    if rank_ok:
        # bases and both necklaces, once per distinct key
        cells = {key: (M.basis_masks(), *necklace_masks(M)) for key, M in matroids.items()}
        first = cells[limits[0].key]
        bases_ok, neck_ok, rev_ok = (all(c[i] == first[i] for c in cells.values()) for i in range(3))
    checks.append(("boundary_bases_equal", bases_ok))
    checks.append(("boundary_necklace_equal", neck_ok))
    checks.append(("boundary_reverse_equal", rev_ok))
    if not (bases_ok and neck_ok and rev_ok):
        failures.append("limit matroids of the members differ")

    two = len(g.members) == 2
    if g.kind == "pair":
        sup_ok = two and sorted(limits[0].masks) == sorted(limits[1].masks)
        checks.append(("limit_supports_equal", sup_ok))
        if not two:
            failures.append(f"pair needs two members, has {len(g.members)}")
        elif not sup_ok:
            failures.append("pair members have different limit supports")

    boundary = None
    dim_ok = False
    if rank_ok:
        # the codimension rule of factor_codim, on the base member's limit
        dim_ok = first_violation(base.masks) is None
        _, neck, rev = cells[base.key]
        boundary = CellDescriptor(
            k=k,
            n=n,
            rows=tuple(map(set_of, base.masks)),
            necklace=tuple(necklace_entries(neck)),
            reverse_necklace=tuple(necklace_entries(rev)),
            dimension=3 * k - 1 if dim_ok else None,
        )
    checks.append(("boundary_dimension", dim_ok))
    if not dim_ok:
        failures.append("boundary cell does not have dimension 3k-1")

    if g.kind == "pair":
        try:
            weight_ok = sum(Fraction(m.weight) for m in g.members) == 0
        except (TypeError, ValueError, ZeroDivisionError):  # a malformed weight
            weight_ok = False
    else:
        recorded = dict(g.weight_functions)
        nums = [_TRIPLE_WEIGHTS.get(recorded.get(m.token())) for m in g.members]
        weight_ok = None not in nums and all(sum(c) == 0 for c in zip(*nums))
    checks.append(("weight_sum_zero", weight_ok))
    if not weight_ok:
        failures.append("weights do not sum to zero")

    rows_ok = True
    try:
        _meet(g, limits, ranks, n, k, seed)
    except InconsistencyError as exc:
        rows_ok = False
        failures.append(f"row space: {exc}")
    checks.append(("row_space_match", rows_ok))

    if g.kind == "pair":
        sign_ok = two  # the identity relates exactly two entries
        for t, Z in enumerate(sign_samples(k, n, seed, max(3, trials)) if two else ()):
            v1, v2 = (
                _localized_entry(m.diagram, Z, m.factor.rows[0], m.factor.cols[0])
                for m in g.members
            )
            if v1 == 0 or v1 != -v2:
                sign_ok = False
                failures.append(f"sign identity fails at twistor sample {t}: {v1} vs {v2}")
                break
        checks.append(("sign_identity", sign_ok))

    verified = all(ok for _, ok in checks) and not failures
    return dataclasses.replace(
        g,
        boundary=boundary,
        checks=tuple(checks),
        failures=tuple(failures),
        verified=verified,
    )


# ---------------------------------------------------------------------------
# full report


@dataclass(frozen=True)
class ExcludedFactor:
    diagram: WilsonLoopDiagram
    factor: PoleFactor
    case: str

    def to_json(self) -> dict:
        return {
            "diagram": self.diagram.to_json(),
            "factor": self.factor.to_json(),
            "case": self.case,
        }


@dataclass(frozen=True)
class AmplitudeReport:
    """Cancellation certificate for all admissible diagrams at (k, n)."""

    k: int
    n: int
    seed: int
    trials: int
    groups: tuple[CancellationGroup, ...]
    excluded: tuple[ExcludedFactor, ...]
    failures: tuple[str, ...]
    status: str

    def to_json(self) -> dict:
        return {
            "schema": "1",
            "k": self.k,
            "n": self.n,
            "seed": self.seed,
            "trials": self.trials,
            "groups": [g.to_json() for g in self.groups],
            "excluded": [x.to_json() for x in self.excluded],
            "failures": list(self.failures),
            "status": self.status,
        }

    def to_csv(self) -> str:
        lines = ["group,case,kind,size,verified,seed,trials,members"]
        for i, g in enumerate(self.groups):
            members = "|".join(m.token() for m in g.members)
            lines.append(
                f"{i},{g.case},{g.kind},{len(g.members)},{g.verified},"
                f"{self.seed},{self.trials},{members}"
            )
        return "\n".join(lines) + "\n"


def amplitude_report(k: int, n: int, seed: int = 0, trials: int = 10) -> AmplitudeReport:
    """Classify every pole factor at (k, n) and certify all cancellations.

    Every codimension-one factor must land in exactly one verified
    group; factors of higher codimension are excluded with their case
    tag (1a or 3a).  Any unpaired, doubly paired or unverified factor
    is recorded as a failure and flips the status to incomplete.
    """
    diagrams = enumerate_diagrams(k, n)
    failures: list[str] = []
    excluded: list[ExcludedFactor] = []
    assignments: dict[tuple, tuple[str, ...]] = {}
    groups: dict[tuple[str, ...], CancellationGroup] = {}

    for W in diagrams:
        eq = check_r_equalities(W)
        if not eq.ok:
            raise InconsistencyError(f"pole polynomial routes disagree on {W}: {eq.mismatches}")
        for f in r_poly_edge(W).factors:
            tag = classify(W, f)
            codim = factor_codim(W, f)
            if codim == CODIM_GE2:
                if tag in (CASE1A, CASE3A):
                    excluded.append(ExcludedFactor(W, f, tag))
                else:
                    failures.append(
                        f"factor {f.label()} of {W} has codimension >= 2 but case {tag}"
                    )
                    excluded.append(ExcludedFactor(W, f, EXCLUDED_CODIM2))
                continue
            if tag in (CASE1A, CASE3A):
                failures.append(f"factor {f.label()} of {W} is case {tag} but codimension one")
                continue
            try:
                g = partners(W, f)
            except InconsistencyError as exc:
                failures.append(f"no partner group for factor {f.label()} of {W}: {exc}")
                continue
            if not any(m.diagram == W and m.factor == f for m in g.members):
                failures.append(f"{f.label()} of {W} is not a member of its own group")
                continue
            gkey = g.key()
            mkey = _entry_key((W, f))
            if mkey in assignments:
                if assignments[mkey] != gkey:
                    failures.append(f"{f.label()} of {W} lands in two different groups")
                continue
            assignments[mkey] = gkey
            groups.setdefault(gkey, g)

    enumerated = {W.props for W in diagrams}
    for gkey, g in groups.items():
        for m in g.members:
            if m.diagram.props not in enumerated:
                failures.append(f"group member {m.token()} is not an admissible (k, n) diagram")
                continue
            if assignments.get(_entry_key((m.diagram, m.factor))) != gkey:
                failures.append(f"group membership of {m.token()} is not symmetric")

    verified_groups = []
    for gkey in sorted(groups):
        vg = verify_group(groups[gkey], trials=trials, seed=seed)
        verified_groups.append(vg)
        if not vg.verified:
            failures.append(f"group {'|'.join(gkey)} failed verification")

    status = "complete" if not failures else "incomplete"
    return AmplitudeReport(
        k=k,
        n=n,
        seed=seed,
        trials=trials,
        groups=tuple(verified_groups),
        excluded=tuple(sorted(excluded, key=lambda x: (x.diagram.props, x.factor.sort_key()))),
        failures=tuple(failures),
        status=status,
    )


def report_json(report: AmplitudeReport) -> str:
    return dumps(report.to_json())
