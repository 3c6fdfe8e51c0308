"""Pole classification, partner groups, and the cancellation report."""

import copy
import dataclasses
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import wlpoles.cancel
import wlpoles.matroids
from wlpoles.cancel import (
    CASE2A,
    CASE3B,
    GroupMember,
    _fan_base,
    _localized_entry,
    _move,
    amplitude_report,
    classify,
    localize,
    partners,
    report_json,
    sign_samples,
    verify_group,
)
from wlpoles.diagrams import (
    Propagator,
    WilsonLoopDiagram,
    cyc,
    enumerate_diagrams,
    vertex_support,
)
from wlpoles.errors import InconsistencyError, StructuralError
from wlpoles.exact import VarId, mat_det
from wlpoles.matroids import TransversalMatroid
from wlpoles.poles import (
    CODIM_GE2,
    CODIM_ONE,
    factor_codim,
    limit,
    pole_quad,
    pole_var,
    r_poly_edge,
)
from wlpoles.positroids import cell_descriptor
from wlpoles.sampling import TwistorData, twistor_data

W42 = WilsonLoopDiagram(6, (Propagator.of(1, 3), Propagator.of(1, 5)))
W3B = WilsonLoopDiagram(6, (Propagator.of(1, 3), Propagator.of(1, 4)))
W3A = WilsonLoopDiagram(
    7, (Propagator.of(1, 3), Propagator.of(1, 5), Propagator.of(3, 5))
)


# -- localization -----------------------------------------------------------


def test_localize_matches_determinants():
    Z = twistor_data(2, 6, seed=5)
    vals = localize(W42, Z)
    # row 1 supports vertices 1,2,3,4; its gauge entry is that 4x4 minor
    block = [list(Z.rows[i][:4]) for i in (0, 1, 2, 3)]
    assert vals[VarId(1, 0)] == mat_det([r[:] for r in block])
    rep = [r[:] for r in block]
    rep[2] = list(Z.gauge[:4])
    assert vals[VarId(1, 3)] == mat_det(rep)
    assert set(vals) == {
        VarId(1, 0), VarId(1, 1), VarId(1, 2), VarId(1, 3), VarId(1, 4),
        VarId(2, 0), VarId(2, 1), VarId(2, 2), VarId(2, 5), VarId(2, 6),
    }


def test_localize_zero_gauge_kills_vertex_entries():
    # the gauge is drawn last, so the rows are those of the seeded sample
    Z = dataclasses.replace(twistor_data(2, 6, seed=5), gauge=(Fraction(0),) * 6)
    vals = localize(W42, Z)
    for v, x in vals.items():
        if v.col == 0:
            assert x != 0
        else:
            assert x == 0


def test_localize_rejects_degenerate_rows():
    good = twistor_data(1, 5, seed=1)
    rows = list(good.rows)
    rows[2] = rows[1]  # support rows of (2,4) become dependent
    Z = TwistorData(rows=tuple(rows), gauge=good.gauge)
    with pytest.raises(StructuralError):
        localize(WilsonLoopDiagram(5, (Propagator.of(2, 4),)), Z)


def direct_localize(W, Z):
    """localize without the memo: five 4x4 determinants per propagator."""
    out = {}
    for r0, p in enumerate(W.props, start=1):
        slots = vertex_support(p, W.n)
        block = [list(Z.rows[s - 1][:4]) for s in slots]
        out[VarId(r0, 0)] = mat_det([r[:] for r in block])
        for pos, m in enumerate(slots):
            rep = [r[:] for r in block]
            rep[pos] = list(Z.gauge[:4])
            out[VarId(r0, m)] = mat_det(rep)
    return out


def test_localize_memo_matches_determinants():
    Z = twistor_data(2, 7, seed=3)
    diagrams = enumerate_diagrams(2, 7)
    want = [direct_localize(W, Z) for W in diagrams]
    assert not Z.memo
    assert [localize(W, Z) for W in diagrams] == want  # fills the memo
    assert len(Z.memo) == len({p for W in diagrams for p in W.props})
    assert all(isinstance(key, Propagator) for key in Z.memo)  # cleared rows live apart
    assert [localize(W, Z) for W in diagrams] == want  # answered from it


def test_localize_degenerate_rows_not_memoized():
    good = twistor_data(2, 7, seed=1)
    rows = list(good.rows)
    rows[2] = rows[1]  # support rows of (2,4) become dependent
    Z = TwistorData(rows=tuple(rows), gauge=good.gauge)
    bad = Propagator.of(2, 4)
    first, second = [W for W in enumerate_diagrams(2, 7) if bad in W.props][:2]
    for W in (first, first, second):
        with pytest.raises(StructuralError):
            localize(W, Z)
    assert bad not in Z.memo


def test_localize_rejects_shape_mismatch():
    with pytest.raises(StructuralError):
        localize(W42, twistor_data(2, 7, seed=0))
    with pytest.raises(StructuralError):
        localize(W42, twistor_data(1, 6, seed=0))


def test_sign_check_entry_matches_localize():
    """The sign check reads one localized entry per member; it is the one
    ``localize`` gives, for every pair member on every sign sample at (2, 7)."""
    sign_samples.cache_clear()
    try:
        rep = amplitude_report(2, 7, seed=0, trials=10)
        samples = sign_samples(2, 7, 0, 10)
    finally:
        sign_samples.cache_clear()
    members = [m for g in rep.groups if g.kind == "pair" for m in g.members]
    assert members
    for Z in samples:
        for m in members:
            row, col = m.factor.rows[0], m.factor.cols[0]
            want = localize(m.diagram, Z)[VarId(row, col)]
            assert _localized_entry(m.diagram, Z, row, col) == want


# -- classification ---------------------------------------------------------


def test_classify_goldens_cover_every_tag():
    got = {
        classify(W42, pole_var(1, 3)): "slide vertex strictly inside",
        classify(W42, pole_var(1, 1)): "outer vertex, free hop",
        classify(W42, pole_var(1, 4)): "outer vertex, hop blocked",
        classify(W42, pole_quad(1, 2, 1, 2)): "wide quadratic",
        classify(W3B, pole_var(1, 3)): "slide target already present",
        classify(W3B, pole_quad(1, 2, 1, 2)): "adjacent-chord quadratic",
        classify(W3A, pole_quad(1, 2, 1, 2)): "chord already present",
    }
    assert set(got) == {"1", "2", "2a", "3", "1a", "3b", "3a"}


def test_classify_rejects_non_factor():
    with pytest.raises(StructuralError):
        classify(W42, pole_var(2, 3))


# -- partner groups ---------------------------------------------------------


def test_pair_partner_goldens():
    g = partners(W42, pole_var(1, 3))
    assert g.case == "1" and g.kind == "pair"
    assert g.key() == ("1-3;1-5/var:1:3", "1-4;1-5/var:1:5")
    assert [m.weight for m in g.members] == ["+1", "-1"]

    g2 = partners(W42, pole_var(1, 1))
    assert g2.case == "2" and g2.key() == ("1-3;1-5/var:1:1", "1-5;2-4/var:2:5")


def test_pair_partner_symmetric():
    g = partners(W42, pole_var(1, 3))
    other = g.members[1]
    back = partners(other.diagram, other.factor)
    assert back.key() == g.key()


def test_wide_group_closure():
    g = partners(W42, pole_quad(1, 2, 1, 2))
    assert g.kind == "wide" and g.case == "3"
    assert g.key() == (
        "1-3;1-5/quad:1:2:1:2",
        "1-3;3-5/quad:1:2:3:4",
        "1-5;3-5/quad:1:2:5:6",
    )
    assert dict(g.weight_functions) == {
        "1-3;1-5/quad:1:2:1:2": "1",
        "1-3;3-5/quad:1:2:3:4": "e/(1-e)",
        "1-5;3-5/quad:1:2:5:6": "-1/(1-e)",
    }
    # entering through either replacement diagram lands in the same group
    for m in g.members[1:]:
        assert partners(m.diagram, m.factor).key() == g.key()


def test_narrow_group_closure():
    g = partners(W3B, pole_quad(1, 2, 1, 2))
    assert g.kind == "narrow" and g.case == "3b"
    assert g.key() == (
        "1-3;1-4/quad:1:2:1:2",
        "1-3;3-5/var:2:6",
        "1-4;2-4/var:2:2",
    )
    # the single-entry members classify as blocked outer vertices and
    # reconstruct the quadratic base
    for m in g.members[1:]:
        assert classify(m.diagram, m.factor) == "2a"
        assert partners(m.diagram, m.factor).key() == g.key()


def _blocker_search(W, f):
    """Reference for :func:`_fan_base`: the search it replaced.  A blocked
    entry x[p, v] of a short propagator p, V_p = {a, .., a+3}, moves p onto
    the chord from the far end of every other propagator at the blocked
    edge to a+1, and exactly one of the moves lands on a narrow quadratic."""
    n = W.n
    p = W.props[f.rows[0] - 1]
    v = f.cols[0]
    a = p.e1 if cyc(p.e1 + 2, n) == p.e2 else p.e2
    assert cyc(a + 2, n) in p and v in (a, cyc(a + 3, n))
    edge = cyc(a + 2, n) if v == a else a
    found = []
    for b in W.props:
        if b == p or edge not in b:
            continue
        m = b.e2 if b.e1 == edge else b.e1
        u = Propagator.of(m, cyc(a + 1, n))
        try:
            entry = _move(W, p, u, (b, u), m)
        except InconsistencyError:
            continue
        if classify(*entry) == CASE3B:
            found.append(entry)
    assert len(found) == 1
    return found[0]


def test_fan_base_matches_blocker_search():
    """One fan step finds the base the blocker search found, for every
    blocked (2a) entry up to (3, 8) and at (4, 8)."""
    seen = 0
    for k, n in ((1, 5), (1, 6), (1, 7), (2, 6), (2, 7), (2, 8), (3, 7), (3, 8), (4, 8)):
        for W in enumerate_diagrams(k, n):
            for f in r_poly_edge(W).factors:
                if classify(W, f) == CASE2A:
                    seen += 1
                    assert _fan_base(W, f) == _blocker_search(W, f), (W, f.label())
    assert seen == 24 + 42 + 64 + 154 + 416 + 784


def test_inadmissible_partner_message():
    """A move onto a crossing diagram fails with the same text on the narrow
    path and on the blocked-single (2a) path."""
    W = WilsonLoopDiagram(7, ((1, 3), (1, 4), (4, 6)))
    with pytest.raises(InconsistencyError) as exc:
        partners(W, pole_quad(1, 2, 1, 2))
    assert str(exc.value) == "partner diagram ({(1,3),(3,5),(4,6)},[7]) is not admissible"

    W = WilsonLoopDiagram(7, ((1, 3), (1, 4), (1, 5)))
    with pytest.raises(InconsistencyError) as exc:
        partners(W, pole_var(1, 4))
    assert str(exc.value) == "partner diagram ({(1,5),(2,4),(2,7)},[7]) is not admissible"


def test_partners_reject_higher_codimension():
    with pytest.raises(StructuralError):
        partners(W3B, pole_var(1, 3))
    with pytest.raises(StructuralError):
        partners(W3A, pole_quad(1, 2, 1, 2))


# -- verification -----------------------------------------------------------

PAIR_CHECKS = {
    "limit_rank", "boundary_bases_equal", "boundary_necklace_equal",
    "boundary_reverse_equal", "limit_supports_equal", "boundary_dimension",
    "weight_sum_zero", "row_space_match", "sign_identity",
}
TRIPLE_CHECKS = (PAIR_CHECKS - {"limit_supports_equal", "sign_identity"})


def test_verify_pair():
    g = verify_group(partners(W42, pole_var(1, 3)), trials=3, seed=1)
    assert g.verified and not g.failures
    assert {n for n, _ in g.checks} == PAIR_CHECKS
    assert all(ok for _, ok in g.checks)
    assert g.boundary is not None


def test_verify_rejects_zero_trials():
    g = partners(W42, pole_var(1, 3))
    for trials in (0, -1):
        with pytest.raises(StructuralError):
            verify_group(g, trials=trials)


def test_sign_identity_fails_on_a_wrong_factor():
    g = verify_group(partners(W42, pole_var(1, 3)), trials=3, seed=1)
    assert g.verified
    m = g.members[1]
    row = m.diagram.props[m.factor.rows[0] - 1]
    other = next(c for c in sorted(m.diagram.support(row)) if c != m.factor.cols[0])
    wrong = dataclasses.replace(m, factor=pole_var(m.factor.rows[0], other))
    bad = verify_group(dataclasses.replace(g, members=(g.members[0], wrong)), trials=3, seed=1)
    assert dict(bad.checks)["sign_identity"] is False
    assert not bad.verified
    assert any(f.startswith("sign identity fails at twistor sample 0") for f in bad.failures)


def test_boundary_checks_fail_on_a_wrong_factor():
    g = partners(W42, pole_var(1, 3))
    m = g.members[1]
    row = m.diagram.props[m.factor.rows[0] - 1]
    other = next(c for c in sorted(m.diagram.support(row)) if c != m.factor.cols[0])
    wrong = dataclasses.replace(m, factor=pole_var(m.factor.rows[0], other))
    bad = verify_group(dataclasses.replace(g, members=(g.members[0], wrong)), trials=3, seed=1)
    checks = dict(bad.checks)
    for name in ("boundary_bases_equal", "boundary_necklace_equal", "boundary_reverse_equal"):
        assert checks[name] is False
    assert "limit matroids of the members differ" in bad.failures


def test_pair_boundary_is_the_cell_of_the_limit_rows():
    for f in (pole_var(1, 3), pole_var(1, 1)):  # tags 1 and 2
        g = verify_group(partners(W42, f), trials=3, seed=1)
        base = g.members[0]
        p = base.diagram.props[base.factor.rows[0] - 1]
        rows = [
            frozenset(base.diagram.support(x)) - ({base.factor.cols[0]} if x == p else set())
            for x in base.diagram.props
        ]
        assert g.verified and g.boundary == cell_descriptor(TransversalMatroid(base.diagram.n, rows))
        assert g.boundary.dimension == 3 * base.diagram.k - 1


def test_sign_samples_drawn_once_per_amplitude(monkeypatch):
    drawn, checked = [], []
    draw, check = wlpoles.cancel.twistor_data, TwistorData.check_positive

    def counted_draw(*args, **kwargs):
        Z = draw(*args, **kwargs)
        drawn.append(Z)
        return Z

    def counted_check(self):
        checked.append(self)
        check(self)

    monkeypatch.setattr(wlpoles.cancel, "twistor_data", counted_draw)
    monkeypatch.setattr(TwistorData, "check_positive", counted_check)
    sign_samples.cache_clear()
    try:
        rep = amplitude_report(2, 6, trials=10)
    finally:
        sign_samples.cache_clear()
    assert rep.status == "complete"
    assert sum(g.kind == "pair" for g in rep.groups) > 1
    assert len(drawn) == 10
    assert [id(Z) for Z in checked] == [id(Z) for Z in drawn]


def test_localize_det_calls_per_propagator_sample(monkeypatch):
    """Localization runs one Laplace pass (``replacement_dets``) on the
    integer 5x4 matrix of each localized propagator and sample, and no
    Bareiss or rational determinant."""
    calls = []
    kernel = wlpoles.cancel.replacement_dets

    def counted_kernel(rows):
        assert len(rows) == 5 and all(len(r) == 4 and all(type(x) is int for x in r) for r in rows)
        calls.append(rows)
        return kernel(rows)

    monkeypatch.setattr(wlpoles.cancel, "replacement_dets", counted_kernel)
    assert not hasattr(wlpoles.cancel, "mat_det") and not hasattr(wlpoles.cancel, "int_det")
    sign_samples.cache_clear()
    try:
        rep = amplitude_report(2, 6, trials=10)
        samples = sign_samples(2, 6, 0, 10)
    finally:
        sign_samples.cache_clear()
    assert rep.status == "complete"
    localized = {m.diagram.props[m.factor.rows[0] - 1] for g in rep.groups if g.kind == "pair" for m in g.members}
    assert all(set(Z.memo) == localized for Z in samples)
    assert len(calls) == len(localized) * len(samples) == len(localized) * 10


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_singular_support_block_raises_and_memoizes_nothing(data):
    """A propagator whose four support rows are dependent in their first
    four coordinates has a zero gauge minor: its entries raise, each time,
    and nothing is kept for it."""
    p = Propagator.of(2, 4)  # at n = 5 its support is rows 2, 3, 4, 5
    slots = vertex_support(p, 5)
    ints = st.integers(-10**4, 10**4)
    rows = [data.draw(st.lists(ints, min_size=5, max_size=5)) for _ in range(5)]
    i, j, l = data.draw(st.permutations(slots))[:3]
    a, b = data.draw(st.integers(-3, 3)), data.draw(st.integers(-3, 3))
    rows[i - 1][:4] = [a * x + b * y for x, y in zip(rows[j - 1][:4], rows[l - 1][:4])]
    gauge = tuple(data.draw(st.lists(ints, min_size=5, max_size=5)))
    Z = TwistorData(rows=tuple(map(tuple, rows)), gauge=gauge)
    W = WilsonLoopDiagram(5, (p,))
    for _ in range(2):
        with pytest.raises(StructuralError, match="gauge minor of .* vanishes"):
            _localized_entry(W, Z, 1, slots[0])
    with pytest.raises(StructuralError):
        localize(W, Z)
    assert not Z.memo


def test_limit_cell_computed_once_per_pair(monkeypatch):
    """The two members of a pair share one limit set system, so its
    matroid and cell (bases and both necklaces, one ``necklace_masks``
    walk) are built once; a triple builds one per distinct key of limit
    set systems, a quadratic's pair of systems keyed like a single entry's
    one.  Each system of a key gets one matroid
    (``TransversalMatroid._set_rows``), and the cell and the rank check
    read its basis masks, so no Hall table is built."""
    calls = []
    walk = wlpoles.cancel.necklace_masks
    monkeypatch.setattr(wlpoles.cancel, "necklace_masks", lambda M: calls.append(M) or walk(M))
    tables = []
    set_rows = TransversalMatroid._set_rows
    monkeypatch.setattr(
        TransversalMatroid, "_set_rows", lambda M, n, masks: tables.append(masks) or set_rows(M, n, masks)
    )
    hall = []
    row_unions = wlpoles.matroids.row_unions
    monkeypatch.setattr(wlpoles.matroids, "row_unions", lambda masks: hall.append(masks) or row_unions(masks))
    rep = amplitude_report(2, 6, seed=0, trials=3)
    pairs = [g for g in rep.groups if g.kind == "pair"]
    assert rep.status == "complete" and pairs
    assert any(g.kind != "pair" for g in rep.groups)
    for g in rep.groups:
        calls.clear()
        tables.clear()
        assert verify_group(g, trials=3, seed=0) == g
        systems = {limit(m.diagram, m.factor).key for m in g.members}
        assert len(calls) == len(systems)
        assert len(tables) == sum(len(key) for key in systems)
        assert not hall
        if g.kind == "pair":
            assert len(calls) == len(tables) == 1


def test_pair_cell_checks_fail_on_a_shifted_vertex():
    """A second member whose limit set system differs from the first's by
    one vertex fails both the bases and the limit supports checks."""
    g = partners(W42, pole_var(1, 3))
    first, second = g.members
    W2, f2 = second.diagram, second.factor
    other = next(c for c in W2.support(W2.props[f2.rows[0] - 1]) if c != f2.cols[0])
    moved = dataclasses.replace(second, factor=pole_var(f2.rows[0], other))
    old, new = (limit(W2, f).masks for f in (f2, moved.factor))
    assert sum(a != b for a, b in zip(old, new)) == 1
    assert verify_group(g, trials=3, seed=1).verified
    bad = verify_group(dataclasses.replace(g, members=(first, moved)), trials=3, seed=1)
    checks = dict(bad.checks)
    assert checks["limit_rank"] is True
    assert checks["boundary_bases_equal"] is False
    assert checks["limit_supports_equal"] is False
    assert "limit matroids of the members differ" in bad.failures and not bad.verified


def test_a_pair_without_two_members_fails_its_checks_without_raising():
    g = partners(W42, pole_var(1, 3))
    assert g.kind == "pair" and len(g.members) == 2
    bad = verify_group(dataclasses.replace(g, members=g.members[:1]), trials=3, seed=1)
    checks = dict(bad.checks)
    assert checks["limit_supports_equal"] is False and checks["sign_identity"] is False
    assert "pair needs two members, has 1" in bad.failures and not bad.verified


def test_a_group_without_members_fails_without_raising():
    for g in (partners(W42, pole_var(1, 3)), partners(W42, pole_quad(1, 2, 1, 2))):
        bad = verify_group(dataclasses.replace(g, members=()), trials=3, seed=1)
        assert bad.failures == ("group has no members",)
        assert not bad.verified and bad.checks == () and bad.boundary is None


def test_a_group_across_ground_data_fails_without_raising():
    """Members on different (k, n) come back unverified, as an empty group
    does: one failure and no checks."""
    g = partners(W42, pole_var(1, 3))
    for k, n in ((2, 7), (1, 6)):
        W = enumerate_diagrams(k, n)[0]
        stranger = GroupMember(W, r_poly_edge(W).factors[0], "-1")
        bad = verify_group(dataclasses.replace(g, members=(g.members[0], stranger)), trials=3, seed=1)
        assert bad.failures == ("group members live on different ground data",)
        assert not bad.verified and bad.checks == () and bad.boundary is None


def test_a_member_without_a_limit_fails_without_raising():
    """A member whose factor is not one of its R's factors, or whose
    diagram is not admissible, has no limit: the group comes back
    unverified with one failure naming them, as an empty group does."""
    W27 = WilsonLoopDiagram(7, (Propagator.of(1, 3), Propagator.of(1, 5)))
    g = partners(W27, pole_var(1, 3))
    crossed = WilsonLoopDiagram(7, (Propagator.of(1, 3), Propagator.of(2, 5)))
    for W, f, why in (
        (W27, pole_var(1, 7), "factor var:1:7 is not a factor of R(({(1,3),(1,5)},[7]))"),
        (crossed, pole_var(1, 3), "diagram not admissible: ({(1,3),(2,5)},[7])"),
    ):
        stranger = GroupMember(W, f, "-1")
        bad = verify_group(dataclasses.replace(g, members=(g.members[0], stranger)), trials=3, seed=1)
        assert bad.failures == (f"member has no limit: {why}",)
        assert not bad.verified and bad.checks == () and bad.boundary is None


def test_a_narrow_group_without_its_quadratic_fails_without_raising():
    g = partners(WilsonLoopDiagram(7, (Propagator.of(1, 3), Propagator.of(1, 4))), pole_quad(1, 2, 1, 2))
    assert g.kind == "narrow" and "1-3;1-4/quad:1:2:1:2" in g.key()
    rest = tuple(m for m in g.members if m.factor.kind != "quad")
    bad = verify_group(dataclasses.replace(g, members=rest), trials=3, seed=1)
    assert bad.failures == ("narrow group has no quadratic member",)
    assert not bad.verified and bad.checks == () and bad.boundary is None


def test_verify_wide_triple():
    g = verify_group(partners(W42, pole_quad(1, 2, 1, 2)), trials=3, seed=1)
    assert g.verified and {n for n, _ in g.checks} == TRIPLE_CHECKS


def test_weight_sum_fails_on_recorded_triple_weights():
    g = partners(W42, pole_quad(1, 2, 1, 2))
    assert all(ok for _, ok in verify_group(g, trials=3, seed=1).checks)
    wrong = g.weight_functions[:1] + tuple((tok, "1") for tok, _ in g.weight_functions[1:])
    bad = verify_group(dataclasses.replace(g, weight_functions=wrong), trials=3, seed=1)
    assert [name for name, ok in bad.checks if not ok] == ["weight_sum_zero"]
    assert bad.failures == ("weights do not sum to zero",) and not bad.verified
    unknown = (("not a member", "1"),) + g.weight_functions[1:]
    bad = verify_group(dataclasses.replace(g, weight_functions=unknown), trials=3, seed=1)
    assert dict(bad.checks)["weight_sum_zero"] is False


@pytest.mark.parametrize("weight", ["minus one", "1/0"])
def test_malformed_pair_weight_fails_weight_sum_without_raising(weight):
    g = partners(W42, pole_var(1, 3))
    members = (g.members[0], dataclasses.replace(g.members[1], weight=weight))
    bad = verify_group(dataclasses.replace(g, members=members), trials=3, seed=1)
    assert [name for name, ok in bad.checks if not ok] == ["weight_sum_zero"]
    assert bad.failures == ("weights do not sum to zero",) and not bad.verified


def test_verify_narrow_triple():
    g = verify_group(partners(W3B, pole_quad(1, 2, 1, 2)), trials=3, seed=1)
    assert g.verified and {n for n, _ in g.checks} == TRIPLE_CHECKS


@pytest.mark.parametrize("entry", [
    (W42, pole_var(1, 3)), (W42, pole_quad(1, 2, 1, 2)), (W3B, pole_quad(1, 2, 1, 2)),
], ids=["pair", "wide", "narrow"])
def test_groups_are_slotted_and_verification_leaves_them_unchanged(entry):
    """Groups and members are slotted and not frozen, so nothing but
    convention keeps them unchanged: verification returns a new group."""
    g = partners(*entry)
    assert not hasattr(g, "__dict__") and not any(hasattr(m, "__dict__") for m in g.members)
    before = copy.deepcopy(g)
    assert verify_group(g, trials=3, seed=1).verified
    assert g == before and not g.verified and g.checks == ()


# -- amplitude report -------------------------------------------------------


def test_report_small_amplitude_complete():
    rep = amplitude_report(1, 5, seed=0, trials=4)
    assert rep.status == "complete"
    assert len(rep.groups) == 10
    assert all(g.verified for g in rep.groups)
    assert not rep.excluded and not rep.failures


def test_report_excludes_higher_codim_factors():
    rep = amplitude_report(2, 6, seed=0, trials=2)
    assert rep.status == "complete"
    assert len(rep.groups) == 56
    assert len(rep.excluded) == 24
    assert {e.case for e in rep.excluded} == {"1a"}
    for e in rep.excluded[:4]:
        assert factor_codim(e.diagram, e.factor) == CODIM_GE2


def test_report_flags_codim_tag_disagreement(monkeypatch):
    """The tag/codimension cross-check can fail, and fails as data."""
    flipped = {(W3B, pole_var(1, 3)): CODIM_ONE, (W3B, pole_var(2, 2)): CODIM_GE2}
    monkeypatch.setattr(
        wlpoles.cancel, "factor_codim", lambda V, f: flipped.get((V, f)) or factor_codim(V, f)
    )
    rep = amplitude_report(2, 6, seed=0, trials=2)
    assert rep.status == "incomplete"
    assert f"factor var:2:2 of {W3B} has codimension >= 2 but case 1" in rep.failures
    assert f"factor var:1:3 of {W3B} is case 1a but codimension one" in rep.failures


def test_report_flags_an_entry_missing_from_its_own_group(monkeypatch):
    """An entry that the group built for it leaves out is a failure, whatever
    the kind of group; the group its other members build then also finds
    the entry unassigned."""
    real = partners
    dropped = (W3B, pole_quad(1, 2, 1, 2))

    def lossy(V, f):
        g = real(V, f)
        if (V, f) != dropped:
            return g
        kept = tuple(m for m in g.members if (m.diagram, m.factor) != dropped)
        return dataclasses.replace(g, members=kept)

    monkeypatch.setattr(wlpoles.cancel, "partners", lossy)
    rep = amplitude_report(2, 6, seed=0, trials=2)
    assert rep.status == "incomplete"
    assert rep.failures == (
        f"quad:1:2:1:2 of {W3B} is not a member of its own group",
        "group membership of 1-3;1-4/quad:1:2:1:2 is not symmetric",
    )


def test_report_k3_isolates_partner_failures():
    rep = amplitude_report(3, 7, seed=0, trials=3)
    assert rep.status == "incomplete"
    assert len(rep.groups) == 238
    assert all(g.verified for g in rep.groups)
    assert len(rep.failures) == 84
    first = "no partner group for factor var:1:4 of ({(1,3),(1,4),(1,5)},[7])"
    assert rep.failures[0].startswith(first)
    assert all(f.startswith("no partner group for factor ") for f in rep.failures)


def test_report_json_schema():
    rep = amplitude_report(1, 5, seed=3, trials=2)
    payload = json.loads(report_json(rep))
    assert payload["schema"] == "1"
    assert payload["k"] == 1 and payload["n"] == 5
    assert payload["seed"] == 3 and payload["trials"] == 2
    assert payload["status"] == "complete"
    assert len(payload["groups"]) == 10
    first = payload["groups"][0]
    assert set(first) >= {"case", "kind", "members", "checks", "verified"}


def test_report_csv_is_flat():
    rep = amplitude_report(1, 5, seed=0, trials=2)
    lines = rep.to_csv().splitlines()
    assert lines[0] == "group,case,kind,size,verified,seed,trials,members"
    assert len(lines) == 11
    for line in lines[1:]:
        assert line.count(",") == 7  # member tokens joined without commas


def test_report_deterministic():
    a = report_json(amplitude_report(1, 5, seed=9, trials=3))
    b = report_json(amplitude_report(1, 5, seed=9, trials=3))
    assert a == b


def test_report_bytes_depend_on_the_seed_only_through_its_field():
    """The sign samples differ between seeds, yet every check passes on
    any positive sample, so the certificate echoes the seed and nothing
    else of it."""
    assert sign_samples(2, 6, 0, 10) != sign_samples(2, 6, 1, 10)
    a, b = (amplitude_report(2, 6, seed=s) for s in (0, 1))
    assert a.status == "complete" and a.groups
    assert report_json(a) != report_json(b)
    assert report_json(a) == report_json(dataclasses.replace(b, seed=0))


def test_report_empty_amplitude():
    rep = amplitude_report(0, 5, seed=0, trials=1)
    assert rep.status == "complete" and not rep.groups
