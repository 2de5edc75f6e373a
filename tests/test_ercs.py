from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erctopo.ercs import (
    Ercs,
    _BasisSearch,
    basis_search,
    check_main_property,
    compact_base,
    compact_neighborhood_search,
    closed_subspace_compact_base,
    interval_ercs,
    cantor_ercs,
    locally_closed_compact_base,
    open_intersect,
    open_subspace_ercs,
    sigma_cover,
    whole_space_compact,
)
from erctopo.kernel import Accepted, PENDING, enumerate_list, enumerate_step, run_process
from erctopo.oracle import lift_finite, oracle_point, standard_oracle_spaces
from erctopo.sets import (
    OpenSet,
    closed_from_cdesc,
    compact_subset,
    member_open,
    open_from_fixture,
    whole_open,
)
from erctopo.spaces import (
    CantorSpace,
    LineSpace,
    PiecewiseSpace,
    PointName,
    QhatSpace,
    UnitIntervalSpace,
    cantor_point,
    encode_interval,
    point_from_rational,
    qhat_point_name,
    word_rank,
)

from oracle_harness import OracleFixture
from test_kernel import assert_fast_forward_twin
from test_spaces import CANTOR_WORDS, cantor_leaves

F = Fraction

_line = LineSpace()
_line_ercs = interval_ercs(_line)
_ui = UnitIntervalSpace()
_ui_ercs = interval_ercs(_ui)
_cantor = CantorSpace()
_cantor_ercs = cantor_ercs(_cantor)
_oracle = OracleFixture(standard_oracle_spaces()[3])


def _accepts(p, fuel=10 ** 4):
    return isinstance(run_process(p, fuel), Accepted)


# -- R soundness ------------------------------------------------------------------

def test_r_soundness_interval_prefix():
    for space, e in ((_line, _line_ercs), (_ui, interval_ercs(_ui))):
        from erctopo.spaces import fiv_subset
        for m, k in e.r_stream.listing(4000):
            dm, dk = space.decode(m), space.decode(k)
            assert dm is not None and dk is not None
            assert fiv_subset(space.fiv(dm), space.cfiv(dk)), (m, k)


# count and sha256 of "m,k;m,k;..." over r_stream.listing(10**5), recorded
# while r_step still compared fivs itself: asking the space must keep them
R_STREAM_DIGESTS = {
    "real-line": (26801, "866175e7a09cbccda5768649d7421c4e79c4e3cd2de41a7b12ead35af01590aa"),
    "unit-interval": (17415, "3ff770847611e2fdf09daeaba60328c14ca0284ab22445a3972092155c9241d7"),
}


@pytest.mark.parametrize("space", [LineSpace(), UnitIntervalSpace()],
                         ids=lambda sp: sp.name)
def test_r_stream_listing_is_unchanged(space):
    items = interval_ercs(space).r_stream.listing(10 ** 5)
    text = ";".join(f"{m},{k}" for m, k in items)
    assert (len(items), hashlib.sha256(text.encode()).hexdigest()) == \
        R_STREAM_DIGESTS[space.name]


def test_r_soundness_cantor_prefix():
    for m, k in _cantor_ercs.r_stream.listing(4000):
        assert _cantor.decode(m).startswith(_cantor.decode(k))


# -- basis search ------------------------------------------------------------------

def test_basis_search_line():
    x = point_from_rational(_line, F(0))
    u = open_from_fixture(_line, (F(-1), F(1)))
    w = basis_search(_line_ercs, x, u, 10 ** 4)
    assert w is not None
    a, b = _line.decode(w.n)
    assert a < 0 < b
    assert F(-1) <= a and b <= F(1)
    ka, kb = _line.decode(w.kid)
    assert F(-1) < ka and kb < F(1)  # the closed patch sits strictly inside


def test_basis_search_cantor():
    x = cantor_point(_cantor, "0", "0")
    u = open_from_fixture(_cantor, "0")
    w = basis_search(_cantor_ercs, x, u, 10 ** 4)
    assert w is not None
    word = _cantor.decode(w.n)
    assert word.startswith("0") or word == "0" * len(word) and word
    assert set(word) == {"0"}  # must contain the all-zero point


def test_basis_search_false_promise_pending():
    x = point_from_rational(_line, F(2))
    u = open_from_fixture(_line, (F(-1), F(1)))
    assert basis_search(_line_ercs, x, u, 10 ** 4) is None


def test_basis_search_oracle_agrees_with_exhaustion():
    fix = _oracle
    for p, name in fix.points.items():
        for o in fix.opens:
            w = basis_search(fix.ercs, name, fix.fresh_open(o), 10 ** 5)
            if p in o:
                assert w is not None
                basic = fix.space.decode(w.n)
                assert p in basic and basic <= o
            else:
                assert w is None


# -- compact base -------------------------------------------------------------------

def _sandwich_ok(space, x, v, k, u, fuel=10 ** 4):
    if not _accepts(member_open(x, v), fuel):
        return False
    return _accepts(compact_subset(k, u), fuel)


def test_compact_base_line():
    x = point_from_rational(_line, F(0))
    u = open_from_fixture(_line, (F(-1), F(1)))
    got = compact_base(_line_ercs, x, u, 10 ** 4)
    assert got is not None
    v, k = got
    assert _sandwich_ok(_line, x, v, k, open_from_fixture(_line, (F(-1), F(1))))


def test_compact_base_whole_space():
    x = point_from_rational(_ui, F(1, 2))
    got = compact_base(_ui_ercs, x, whole_open(_ui), 2 * 10 ** 4)
    assert got is not None
    v, k = got
    assert _accepts(member_open(x, v))
    assert k.cdesc is not None  # the patch is a closed trace inside [0, 1]


def test_compact_base_oracle_exhaustive_sandwich():
    fix = _oracle
    for p, name in fix.points.items():
        for o in fix.opens:
            if p not in o:
                continue
            got = compact_base(fix.ercs, name, fix.fresh_open(o), 10 ** 5)
            assert got is not None
            v, k = got
            assert _sandwich_ok(fix.space, fix.points[p], v, k,
                                fix.fresh_open(o), 10 ** 5)
            assert p in fix.space.decode(v.parts.listing(5)[0])
            assert k.cdesc <= o


# -- subspace transfers ---------------------------------------------------------------

def test_closed_subspace_compact_base():
    a = closed_from_cdesc(_line, _line.make_cdesc([(F(0), F(1))]))
    x = point_from_rational(_line, F(0))
    u = open_from_fixture(_line, (F(-1, 2), F(1, 2)))
    got = closed_subspace_compact_base(_line_ercs, a, x, u, 3 * 10 ** 4)
    assert got is not None
    v, k = got
    assert _accepts(member_open(x, v), 3 * 10 ** 4)
    # relative hull: inside [0,1] and inside (-1/2, 1/2)
    assert _accepts(compact_subset(k, open_from_fixture(_line, (F(-3, 4), F(3, 4)))),
                    3 * 10 ** 4)
    target = open_from_fixture(_line, (F(-1, 100), F(1, 2)))
    assert _accepts(compact_subset(k, target), 3 * 10 ** 4)


def test_closed_subspace_whole_closed_agrees_with_compact_base():
    a = closed_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1))]))  # the whole carrier
    x = point_from_rational(_ui, F(1, 2))
    u = open_from_fixture(_ui, (F(1, 4), F(3, 4)))
    got = closed_subspace_compact_base(_ui_ercs, a, x, u, 3 * 10 ** 4)
    assert got is not None
    v, k = got
    assert _accepts(member_open(x, v), 3 * 10 ** 4)
    assert _accepts(compact_subset(k, open_from_fixture(_ui, (F(1, 8), F(7, 8)))),
                    3 * 10 ** 4)


def test_open_subspace_ercs_solves_inner_search():
    sub = open_subspace_ercs(_line_ercs, open_from_fixture(_line, (F(0), F(1))))
    x = point_from_rational(_line, F(1, 2))
    u = open_from_fixture(_line, (F(1, 4), F(3, 4)))
    w = basis_search(sub, x, u, 10 ** 4)
    assert w is not None
    a, b = _line.decode(w.n)
    assert F(1, 4) <= a < F(1, 2) < b <= F(3, 4)
    ka, kb = _line.decode(w.kid)
    assert F(0) < ka and kb < F(1)  # the patch is certified inside the subspace


# sha256 of one "stage:item" line per item of the restricted system's
# u_stream, k_stream and r_stream, read stage by stage, recorded while every
# unknown patch was tested again whenever any part arrived; the last
# subspace, (-2, 2) listed at stage 300 only, certifies patches seen before
OPEN_SUBSPACE_PIN = "b3a864be1a7b91d1156f271d0c775bd22794d8a841e8c98bc4e39d652e4a633a"


def test_open_subspace_ercs_listing_is_pinned():
    late = OpenSet(_line, enumerate_step(
        lambda t: (encode_interval(F(-2), F(2)),) if t == 300 else ()), label="late")
    lines = []
    for space, e, y, stages in ((_line, interval_ercs(_line), (F(0), F(1)), 4000),
                                (_ui, interval_ercs(_ui), (F(1, 4), F(3, 4)), 6000),
                                (_cantor, cantor_ercs(_cantor), "01", 1000),
                                (_line, interval_ercs(_line), late, 1000)):
        sub = open_subspace_ercs(e, y if y is late else open_from_fixture(space, y))
        for name, stream in (("u", sub.u_stream), ("k", sub.k_stream), ("r", sub.r_stream)):
            reader = stream.cursor()
            lines += [f"{space.name}:{name}:{t}:{item!r}"
                      for t in range(stages) for item in reader.upto(t + 1)]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == OPEN_SUBSPACE_PIN


def test_locally_closed_compact_base():
    a = closed_from_cdesc(_line, _line.make_cdesc([(F(0), F(2))]))
    y = open_from_fixture(_line, (F(-1), F(1)))
    x = point_from_rational(_line, F(1, 2))
    got = locally_closed_compact_base(_line_ercs, a, y, x, y, 5 * 10 ** 4)
    assert got is not None
    v, k = got
    assert _accepts(member_open(x, v), 5 * 10 ** 4)
    # hull inside [0, 1): fits in (-1/100, 1) and not certified past 1
    assert _accepts(compact_subset(k, open_from_fixture(_line, (F(-1, 100), F(1)))),
                    5 * 10 ** 4)


# -- sigma cover and whole-space compactness ----------------------------------------------

def test_sigma_cover_line_hits_rational_probes():
    cover = sigma_cover(_line_ercs)
    probes = [F(0), F(1, 2), F(-3), F(22, 7)]
    listed = cover.listing(10 ** 3)
    for q in probes:
        assert any(k.cdesc is not None
                   and any(p <= q <= h for p, h in k.cdesc)
                   for k in listed), q


def test_sigma_cover_cantor_root_piece():
    cover = sigma_cover(_cantor_ercs)
    listed = cover.listing(10)
    assert any(k.cdesc == ("",) for k in listed)


def test_sigma_cover_oracle_exhaustive_coverage():
    fix = _oracle
    listed = sigma_cover(fix.ercs).listing(10 ** 4)
    covered = set()
    for k in listed:
        covered |= k.cdesc
    assert covered == set(fix.fs.points)


def test_whole_space_compact_unit_interval():
    kid = encode_interval(F(-1), F(2))
    k = whole_space_compact(_ui_ercs, {kid})
    u = open_from_fixture(_ui, (F(-1, 10), F(11, 10)))
    assert _accepts(compact_subset(k, u))


def test_whole_space_compact_cantor():
    k = whole_space_compact(_cantor_ercs, {word_rank("")})
    u = open_from_fixture(_cantor, "")
    assert _accepts(compact_subset(k, u))


def test_whole_space_compact_oracle_minimal_hint():
    fix = _oracle
    full_kid = 2 ** len(fix.fs.points) - 2  # last subset in enumeration order
    listed = fix.ercs.k_stream.listing(10 ** 4)
    assert full_kid in listed
    assert fix.ercs.compact_cdesc(full_kid) == frozenset(fix.fs.points)
    k = whole_space_compact(fix.ercs, {full_kid})
    for o in fix.opens:
        got = _accepts(compact_subset(k, fix.fresh_open(o)), 10 ** 5)
        assert got == (frozenset(fix.fs.points) <= o)


# -- reconstruction property -----------------------------------------------------------

def test_check_main_property_line():
    u = open_from_fixture(_line, (F(0), F(1)))
    probes = [point_from_rational(_line, F(1, 2))]
    reports = check_main_property(_line_ercs, u, probes, 10 ** 4)
    assert reports[0].closed
    w = reports[0].witness
    a, b = _line.decode(w.n)
    assert a < F(1, 2) < b and F(0) <= a and b <= F(1)
    ka, kb = _line.decode(w.kid)
    assert F(0) < ka and kb < F(1)


def test_check_main_property_cantor():
    u = open_from_fixture(_cantor, "01")
    probes = [cantor_point(_cantor, "01", "0")]
    reports = check_main_property(_cantor_ercs, u, probes, 10 ** 4)
    assert reports[0].closed
    assert _cantor.decode(reports[0].witness.n).startswith("01")


def test_check_main_property_bad_probe_flagged():
    u = open_from_fixture(_line, (F(0), F(1)))
    probes = [point_from_rational(_line, F(2))]
    reports = check_main_property(_line_ercs, u, probes, 10 ** 4)
    assert not reports[0].closed


def test_check_main_property_oracle_exhaustive():
    fix = _oracle
    for o in fix.opens:
        if not o:
            continue
        probes = [fix.points[p] for p in sorted(o)]
        reports = check_main_property(fix.ercs, fix.fresh_open(o), probes, 10 ** 5)
        for rep in reports:
            assert rep.closed
            basic = fix.space.decode(rep.witness.n)
            assert rep.probe.value in basic and basic <= o


# -- compact neighborhood probe (no system required) ------------------------------------

def test_pinch_search_positive_control_unit_interval():
    x = point_from_rational(_ui, F(1, 2))
    u = open_from_fixture(_ui, (F(1, 4), F(3, 4)))
    proc = compact_neighborhood_search(_ui, x, u)
    assert isinstance(run_process(proc, 10 ** 4), Accepted)


def test_pinch_search_positive_control_cantor():
    """Every cylinder is compact: the search pinches the first cylinder of
    the point inside the target to itself, and pends on a target that
    misses the point."""
    x = cantor_point(_cantor, "01", "1")
    proc = compact_neighborhood_search(_cantor, x, open_from_fixture(_cantor, "01"))
    assert isinstance(run_process(proc, 10 ** 4), Accepted)
    v, k = proc.found
    assert v.startswith("01") and _cantor.point_in_basic(x.value, v) and k == (v,)
    away = compact_neighborhood_search(_cantor, x, open_from_fixture(_cantor, "00"))
    assert run_process(away, 2000) is PENDING


def test_pinch_search_positive_control_gap_space():
    """At 1/3, the right end of the first carrier piece, the target
    (1/4, 1/2) traces to (1/4, 1/3]; the pinch clips the closure of a
    neighbourhood to the carrier, so it finds a compact [a, 1/3] inside."""
    gap = PiecewiseSpace([(0, F(1, 3)), (F(1, 2), 1)], name="two-pieces")
    target = (F(1, 4), F(1, 2))
    proc = compact_neighborhood_search(gap, point_from_rational(gap, F(1, 3)),
                                       open_from_fixture(gap, target))
    assert isinstance(run_process(proc, 10 ** 4), Accepted)
    v, k = proc.found
    [(a, b)] = k
    assert gap.point_in_basic(F(1, 3), v) and gap.basic_subset(v, target)
    assert F(1, 4) < a <= v[0] and b == F(1, 3) < v[1] < F(1, 2)


def test_pinch_search_qhat_inside_rationals_pending():
    qhat = QhatSpace()
    x = qhat_point_name(qhat, F(1, 2))
    # the open set of all rationals: every interval trace
    def rationals_step(t):
        d = qhat.decode(t)
        return (t,) if d is not None and d[0] == "iv" else ()

    from erctopo.kernel import enumerate_step
    from erctopo.sets import OpenSet
    u = OpenSet(qhat, enumerate_step(rationals_step), label="Q")
    proc = compact_neighborhood_search(qhat, x, u)
    assert run_process(proc, 10 ** 4) is PENDING


def test_pinch_search_qhat_at_infinity_accepts_in_whole_space():
    qhat = QhatSpace()
    x = qhat_point_name(qhat, ("inf",))
    proc = compact_neighborhood_search(qhat, x, whole_open(qhat))
    assert isinstance(run_process(proc, 10 ** 4), Accepted)


# -- stage pins and the stages fast_forward applies -----------------------------------------

def _criterion4_literals(kind: str) -> list[tuple]:
    """Every distinct literal of criterion 4's compact-base generator with
    equal margins: on the line and the unit interval a rational point q of
    denominator 1 to 4 and each margin m the generator may put on both
    sides of it; on Cantor space a word of length 0 to 3 and the number of
    zeros that follow it in the point."""
    if kind == "cantor":
        return [(format(v, "b").zfill(length)[:length] if length else "", zeros)
                for length in range(4) for v in range(2 ** length)
                for zeros in range(4)]
    lo, hi = (0, 1) if kind == "ui" else (-2, 2)
    points = sorted({F(n, den) for den in (1, 2, 3, 4)
                     for n in range(lo * den, hi * den + 1)})
    return [(q, F(m, 4)) for q in points
            for m in ((1, 2, 4) if abs(q) <= 1 else (2, 4))]


def _criterion4_case(kind: str, lit: tuple):
    """The system, a point maker and an open maker for one literal."""
    if kind == "cantor":
        word, zeros = lit
        return (_cantor_ercs, lambda: cantor_point(_cantor, word + "0" * zeros, "0"),
                lambda: open_from_fixture(_cantor, word))
    space, e = (_ui, _ui_ercs) if kind == "ui" else (_line, _line_ercs)
    q, m = lit
    return (e, lambda: point_from_rational(space, q),
            lambda: open_from_fixture(space, (q - m, q + m)))


# sha256 of one "kind:literal:stage:n:kid" line per criterion-4 literal
# (63 line, 21 unit-interval, 60 Cantor), recorded while every stage was
# stepped: stage numbers are answers, and no kernel change may move one
CRITERION4_PIN = "2dbb00e04ceb1408e773da9836fda89ec9f4e1790ef11265f40ef0db5efcdf07"


def test_criterion4_stages_and_witnesses_are_pinned():
    lines = []
    for kind in ("line", "ui", "cantor"):
        for lit in _criterion4_literals(kind):
            e, make_x, make_u = _criterion4_case(kind, lit)
            w = basis_search(e, make_x(), make_u(), 10 ** 5)
            assert w is not None, (kind, lit)
            lines.append(f"{kind}:{lit!r}:{w.stage}:{w.n}:{w.kid}")
    assert len(lines) == 63 + 21 + 60
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CRITERION4_PIN


class _CountedSteps(_BasisSearch):
    steps = 0

    def step(self, t: int) -> bool:
        self.steps += 1
        return super().step(t)


def _answer(cls, e, make_x, make_u, fuel: int, bigger: int | None = None):
    """(stage, witness, stalled) of a fresh search polled at ``fuel``,
    after a poll at ``bigger`` when given."""
    m = cls(e, make_x(), make_u())
    if bigger is not None:
        m.poll(bigger)
    stage = m.poll(fuel)
    witness = None if stage is None else (m.witness.n, m.witness.kid)
    return stage, witness, m.stalled


def _first_stalled_fuel(cls, e, make_x, make_u, cap: int) -> int | None:
    m = cls(e, make_x(), make_u())
    for fuel in range(cap + 1):
        if m.poll(fuel) is not None:
            return None
        if m.stalled:
            return fuel
    return None


def _skip_cases():
    """(label, ercs, point maker, open maker, fuel): cheap criterion-4
    literals and points outside their open on the line, the unit interval
    and Cantor space, and every point and open of every standard oracle
    space."""
    cases = []
    for kind, lits in (("line", [(F(-3, 4), F(1, 2)), (F(1, 3), F(1, 4)),
                                 (F(-1), F(1)), (F(5, 4), F(1, 2))]),
                       ("ui", [(F(0), F(1, 4)), (F(1), F(1, 2)), (F(2, 3), F(1, 2))]),
                       ("cantor", [("1", 0), ("01", 3), ("110", 2)])):
        for lit in lits:
            cases.append((f"{kind}:{lit}", *_criterion4_case(kind, lit), 4000))
    outside = [("line-outside", _line_ercs, lambda: point_from_rational(_line, F(2)),
                lambda: open_from_fixture(_line, (F(-1), F(1)))),
               ("ui-outside", _ui_ercs, lambda: point_from_rational(_ui, F(1)),
                lambda: open_from_fixture(_ui, (F(0), F(1, 2)))),
               ("cantor-outside", _cantor_ercs, lambda: cantor_point(_cantor, "1", "0"),
                lambda: open_from_fixture(_cantor, "0"))]
    cases += [(*case, 2000) for case in outside]
    # patches with no description, certified by their own processes
    bare = Ercs(_ui, _ui_ercs.u_stream, _ui_ercs.k_stream, _ui_ercs.r_stream,
                lambda kid: None, _ui_ercs.compact_value)
    for q in (F(3, 8), F(9, 10)):
        cases.append((f"ui-undescribed:{q}", bare, lambda q=q: point_from_rational(_ui, q),
                      lambda: open_from_fixture(_ui, (F(1, 4), F(3, 4))), 1000))
    # hand-made pair streams on the line, at stages where neither name emits:
    # the patch [-1/2, 1/2] is certified with a pair whose basic misses 0,
    # and a later pair of it accepts, alone or behind a pair of another patch
    patch, wide = encode_interval(F(-1, 2), F(1, 2)), encode_interval(F(-3), F(3))
    miss, hold = encode_interval(F(1, 4), F(1, 3)), encode_interval(F(-1, 8), F(1, 8))
    for label, table in (("certified-patch", {102: ((miss, patch),), 140: ((hold, patch),)}),
                         ("two-pairs", {102: ((miss, patch),),
                                        131: ((miss, wide), (hold, patch))})):
        e = Ercs(_line, _line_ercs.u_stream, _line_ercs.k_stream,
                 enumerate_step(lambda t, table=table: table.get(t, ())),
                 _line_ercs.compact_cdesc, _line_ercs.compact_value)
        cases.append((f"line-{label}", e, lambda: point_from_rational(_line, F(0)),
                      lambda: open_from_fixture(_line, (F(-1), F(1))), 400))
    # hand-made names of 0 whose neighborhood (-1/64, 1/64) arrives at
    # stage 160, inside a run (parts of (-1, 1) come at 156 and 162): it
    # makes the basic (-1/16, 1/16) hold the point, for a pair kept waiting
    # since 102, or for a pair of stage 160 itself, behind the neighborhood
    small = encode_interval(F(-1, 16), F(1, 16))
    names = {0: (encode_interval(F(-1, 2), F(1, 2)),),
             160: (encode_interval(F(-1, 64), F(1, 64)),)}
    for label, table in (("waiting-pair-holds", {102: ((small, patch),)}),
                         ("shared-stage", {102: ((miss, patch),), 160: ((small, patch),)})):
        e = Ercs(_line, _line_ercs.u_stream, _line_ercs.k_stream,
                 enumerate_step(lambda t, table=table: table.get(t, ())),
                 _line_ercs.compact_cdesc, _line_ercs.compact_value)
        cases.append((f"line-{label}", e,
                      lambda: PointName(_line, enumerate_step(lambda t: names.get(t, ())), F(0)),
                      lambda: open_from_fixture(_line, (F(-1), F(1))), 400))
    # the costliest criterion-4 literal, accepting at stage 49,786
    cases.append(("line:(1, 1/4)", *_criterion4_case("line", (F(1), F(1, 4))), 10 ** 5))
    for fs in standard_oracle_spaces():
        space, e = lift_finite(fs)
        for p in fs.points:
            for o in sorted(fs.opens, key=sorted):
                cases.append((f"{fs.name}:{p}:{''.join(sorted(o))}", e,
                              lambda p=p, sp=space: oracle_point(sp, p),
                              lambda o=o, sp=space: open_from_fixture(sp, o), 300))
    return cases


def _witness(m: _BasisSearch):
    return None if m.witness is None else (m.witness.n, m.witness.kid, m.witness.stage)


def test_skipping_idle_stages_moves_no_answer():
    for label, e, make_x, make_u, fuel in _skip_cases():
        assert_fast_forward_twin(lambda: _BasisSearch(e, make_x(), make_u()), fuel,
                                 _witness, label)
    # and the comparison is not vacuous: of the 1,901 stages of a line
    # search, step takes at most 69 and fast_forward applies the rest
    e, make_x, make_u = _criterion4_case("line", (F(-2, 3), F(1, 4)))
    counted = _CountedSteps(e, make_x(), make_u())
    assert counted.poll(10 ** 5) == 1900
    assert counted.steps <= 69
    # a run reads the point's name one emission ahead, no further than when
    # every run ended at its next emission: for x = 1, to stage 49,792
    e, make_x, make_u = _criterion4_case("line", (F(1), F(1, 4)))
    x = make_x()
    assert _BasisSearch(e, x, make_u()).poll(10 ** 5) == 49786
    assert x.neighborhoods._stage <= 49792


def test_undescribed_search_stalls_where_the_described_one_does():
    """With its patch descriptions dropped, a search on a finite space
    accepts where the described one accepts and stalls where it stalls:
    once the point, the open and the pairs are read, every patch process
    left uncertified stalls, and so does the search."""
    for fs in standard_oracle_spaces():
        space, e = lift_finite(fs)
        bare = Ercs(space, e.u_stream, e.k_stream, e.r_stream,
                    lambda kid: None, e.compact_value)
        for p in fs.points:
            for o in sorted(fs.opens, key=sorted):
                case = (lambda p=p, sp=space: oracle_point(sp, p),
                        lambda o=o, sp=space: open_from_fixture(sp, o), 2000)
                stage, _, stalled = _answer(_BasisSearch, e, *case)
                bare_stage, _, bare_stalled = _answer(_BasisSearch, bare, *case)
                assert (bare_stage is None, bare_stalled) == (stage is None, stalled), \
                    (fs.name, p, sorted(o))
    # point a against the empty open of finite:triangle: the described
    # search stalls at fuel 20, the undescribed one soon after
    fs = standard_oracle_spaces()[3]
    space, e = lift_finite(fs)
    bare = Ercs(space, e.u_stream, e.k_stream, e.r_stream, lambda kid: None, e.compact_value)
    case = (lambda: oracle_point(space, "a"), lambda: open_from_fixture(space, frozenset()))
    assert _first_stalled_fuel(_BasisSearch, e, *case, 300) == 20
    first = _first_stalled_fuel(_BasisSearch, bare, *case, 300)
    assert first is not None and _answer(_BasisSearch, bare, *case, 20000) == (None, None, True)


# -- open intersection helper ------------------------------------------------------------

def test_open_intersect_soundness_and_witnesses():
    u1 = open_from_fixture(_line, (F(0), F(1)))
    u2 = open_from_fixture(_line, (F(1, 2), F(2)))
    meet = open_intersect(u1, u2)
    listed = meet.parts.listing(3000)
    assert listed
    for n in listed:
        a, b = _line.decode(n)
        assert F(1, 2) <= a and b <= F(1)
    x = point_from_rational(_line, F(3, 4))
    assert _accepts(member_open(x, open_intersect(u1, u2)))


def _cantor_open(words) -> OpenSet:
    """The open set that lists the cylinder words[t] at stage t."""
    return OpenSet(_cantor, enumerate_list([word_rank(w) for w in words]), label="words")


def test_open_intersect_emits_a_cylinder_met_later():
    """[01] arrives first and [0] later: only the intersection code of the
    pair lists [01], since no part of the other set holds [01] when it
    arrives."""
    late = OpenSet(_cantor, enumerate_step(lambda t: (word_rank("0"),) if t == 5 else ()),
                   label="late")
    meet = open_intersect(_cantor_open(["01"]), late)
    assert [_cantor.decode(n) for n in meet.parts.listing(50)] == ["01"]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.lists(st.sampled_from(CANTOR_WORDS), max_size=6),
       st.lists(st.sampled_from(CANTOR_WORDS), max_size=6))
def test_open_intersect_matches_depth3_leaves_on_cantor(ws1, ws2):
    """The listed intersection of two enumerated unions of cylinders holds
    exactly the leaves that both unions hold, whatever the order of
    arrival."""
    meet = open_intersect(_cantor_open(ws1), _cantor_open(ws2)).parts
    words = [_cantor.decode(n) for n in meet.listing(20)]
    assert meet.quiescent(20)
    assert cantor_leaves(words) == cantor_leaves(ws1) & cantor_leaves(ws2)


def test_open_intersect_oracle():
    fix = _oracle
    opens = sorted(fix.fs.opens, key=sorted)
    rng = random.Random(17)
    for _ in range(20):
        o1, o2 = rng.choice(opens), rng.choice(opens)
        meet = open_intersect(fix.fresh_open(o1), fix.fresh_open(o2))
        for p, nm in fix.points.items():
            got = _accepts(member_open(nm, open_intersect(
                fix.fresh_open(o1), fix.fresh_open(o2))), 10 ** 5)
            assert got == (p in (o1 & o2)), (p, o1, o2)
