from __future__ import annotations

import hashlib
import random
from bisect import bisect_left, insort
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from erctopo.ercs import (
    BasisWitness,
    Ercs,
    _BasisSearch,
    _SwallowedPairs,
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
    swallowed_pairs,
    whole_space_compact,
)
from erctopo.kernel import (
    PENDING,
    Accepted,
    Machine,
    MonotoneEnumerator,
    SemidecisionProcess,
    enumerate_list,
    enumerate_step,
    filter_lane,
    pair,
    run_process,
    unpair,
)
from erctopo.oracle import lift_finite, oracle_point, standard_oracle_spaces
from erctopo.sets import (
    OpenSet,
    closed_from_cdesc,
    compact_subset,
    member_open,
    open_from_fixture,
    overt_from_cdesc,
    whole_open,
)
from erctopo.spaces import (
    CantorSpace,
    InsideReader,
    LineSpace,
    PiecewiseSpace,
    PointName,
    QhatSpace,
    UnitIntervalSpace,
    cantor_point,
    encode_interval,
    fiv_subset,
    point_from_rational,
    qhat_point_name,
    word_rank,
)

from oracle_harness import OracleFixture
from test_kernel import assert_fast_forward_twin
from test_spaces import CANTOR_WORDS, cantor_leaves, first_listed_inside

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


# count and sha256 of "n;n;..." over all_basics().listing(10**5), recorded
# while the basics were the filter lane of decode
BASICS_DIGESTS = {
    "real-line": (49340, "c64878a2c208c0ddd8816f00e83fd2afde24058159d630f19fa13f4e4eb10da5"),
    "unit-interval": (32736, "5393895458c968ef9886ddd223eb61b552fd238bf1c1cfd1c3e89b03ea5e3f51"),
}


@pytest.mark.parametrize("space", [LineSpace(), UnitIntervalSpace()],
                         ids=lambda sp: sp.name)
def test_all_basics_listing_is_unchanged(space):
    items = space.all_basics().listing(10 ** 5)
    text = ";".join(map(str, items))
    assert (len(items), hashlib.sha256(text.encode()).hexdigest()) == \
        BASICS_DIGESTS[space.name]


def _reference_streams(space):
    """The basics and the formal containment of ``interval_ercs`` as they
    were listed before they walked the pairing's diagonals: the filter lane
    of decode, and a step that decodes and unpairs every stage, comparing
    the fivs of the two basics itself."""

    def r_step(t: int):
        if t % 2 == 0:
            n = t // 2
            return ((n, n),) if space.decode(n) is not None else ()
        m, k = unpair(t // 2)
        dm, dk = space.decode(m), space.decode(k)
        if dm is not None and dk is not None and fiv_subset(space.fiv(dm), space.cfiv(dk)):
            return ((m, k),)
        return ()

    return filter_lane(space.decode, lambda d: True), enumerate_step(r_step)


def _below(lane, stage: int):
    """The items, change points and counts of the stages below ``stage``."""
    k = bisect_left(lane._marks, stage)
    return lane._items[:lane._counts[k - 1] if k else 0], lane._marks[:k], lane._counts[:k]


def _unread(groups):
    marks, counts, items, m, n, a = groups
    return marks[m:n], counts[m:n], items[a:counts[n - 1] if n > m else a]


_STREAM_SPACES = {"real-line": _line, "unit-interval": _ui}
# reads: the stream (u, k or r), how it is read, and how far the stage moves
stream_reads = st.lists(st.tuples(st.sampled_from("ukr"),
                                  st.sampled_from(["upto", "next", "groups", "quiescent",
                                                   "count", "listing", "emission"]),
                                  st.integers(0, 2500)), max_size=12)


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(sorted(_STREAM_SPACES)), stream_reads)
@example("unit-interval", [("r", "emission", 3), ("r", "next", 40), ("u", "groups", 7)])
@example("real-line", [("u", "next", 1), ("r", "emission", 0), ("k", "count", 9)])
def test_streams_equal_their_reference_twins(space_name, reads):
    """u_stream, k_stream and r_stream of an interval system list the items,
    change points and counts of their reference twins under every kind of
    read; u and k share one lane, and r reads it ahead of them."""
    space = _STREAM_SPACES[space_name]
    e = interval_ercs(space)
    basics, r_ref = _reference_streams(space)
    new = {"u": e.u_stream, "k": e.k_stream, "r": e.r_stream}
    old = {"u": basics, "k": basics, "r": r_ref}
    cursors = {name: (new[name].cursor(), old[name].cursor()) for name in "ukr"}
    stage = dict.fromkeys("ukr", 0)
    for name, how, move in reads + [("r", "upto", 12_000), ("u", "upto", 6_000)]:
        lane, ref = new[name], old[name]
        cur, ref_cur = cursors[name]
        s = stage[name] = stage[name] + move
        if how == "upto":
            assert list(cur.upto(s)) == list(ref_cur.upto(s))
        elif how == "next":
            assert cur.next_emission(s) == ref_cur.next_emission(s)
        elif how == "groups":
            assert _unread(cur.groups(s)) == _unread(ref_cur.groups(s))
        elif how == "quiescent":
            assert (cur.quiescent(s), lane.quiescent(s)) == (False, False)
            assert ref_cur.quiescent(s) is ref.quiescent(s) is False
        elif how == "count":
            assert lane.count(s) == ref.count(s)
        elif how == "listing":
            assert list(lane.listing(s)) == list(ref.listing(s))
        else:
            lane.advance(s, True)
            ref.advance(s, True)
        low = min(lane._stage, ref._stage)
        assert _below(lane, low) == _below(ref, low)
        if name == "r":
            assert lane._stage == ref._stage
    assert e.r_stream._stage >= 12_000


@pytest.mark.parametrize("space", [LineSpace(), UnitIntervalSpace()],
                         ids=lambda sp: sp.name)
def test_closure_pairs_join_is_fiv_containment(space):
    """A code pair(m, k) of two basics is listed exactly when fiv(m) lies in
    cfiv(k), on random pairs of valid codes; no invalid code is listed."""
    top = 2 * 10 ** 5
    listed = set(space.closure_pairs().listing(top))
    valid = [c for c in range(isqrt(2 * top)) if space.decode(c) is not None]
    assert all(space.decode(m) is not None and space.decode(k) is not None
               for m, k in map(unpair, listed))
    rng = random.Random(19)
    for _ in range(4000):
        m, k = rng.choice(valid), rng.choice(valid)
        if pair(m, k) >= top:
            continue
        want = fiv_subset(space.fiv(space.decode(m)), space.cfiv(space.decode(k)))
        assert (pair(m, k) in listed) == want, (space.decode(m), space.decode(k))


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


# -- the pairs an open swallows ------------------------------------------------------

# stages at which the listings are compared, around the late open's stage 300
_SWALLOW_STAGES = (1, 2, 3, 5, 8, 20, 64, 150, 300, 301, 302, 700, 1500)


def _swallow_cases():
    """(label, system, open): fixture opens on the line, the unit interval
    and Cantor space, and an open whose only part arrives at stage 300."""
    late = OpenSet(_line, enumerate_step(
        lambda t: (encode_interval(F(-2), F(2)),) if t == 300 else ()), label="late")
    return [("line:(0,1)", interval_ercs(_line), open_from_fixture(_line, (F(0), F(1)))),
            ("ui:(1/4,3/4)", interval_ercs(_ui), open_from_fixture(_ui, (F(1, 4), F(3, 4)))),
            ("ui:(-1,2)", interval_ercs(_ui), open_from_fixture(_ui, (F(-1), F(2)))),
            ("cantor:01", cantor_ercs(_cantor), open_from_fixture(_cantor, "01")),
            ("cantor:e", cantor_ercs(_cantor), open_from_fixture(_cantor, ""))
            ] + [("line:late", interval_ercs(_line), late)]


def _certified_by(e, u, stage: int) -> set:
    """The pairs of ``e.r_stream`` listed by ``stage`` whose patch the parts
    of u listed by ``stage`` cover, read from scratch."""
    region = e.space.region()
    for p in u.parts.listing(stage):
        region.add(e.space.decode(p))
    return {(n, kid) for n, kid in e.r_stream.listing(stage)
            if e.compact_cdesc(kid) is not None
            and region.covers_cdesc(e.compact_cdesc(kid))}


def test_swallowed_pairs_are_sound():
    """Every pair listed by stage S is a formal pair listed by S whose
    patch the parts of the open listed by S cover; no pair is listed
    twice."""
    for label, e, u in _swallow_cases():
        swallowed = swallowed_pairs(e, u)
        for stage in _SWALLOW_STAGES:
            listed = swallowed.listing(stage)
            assert len(set(listed)) == len(listed), (label, stage)
            assert set(listed) <= _certified_by(e, u, stage), (label, stage)


def test_swallowed_pairs_are_complete():
    """Every formal pair listed by stage S whose patch the parts listed by
    S cover is listed by S, read stage by stage or in one read."""
    emitted = 0
    for label, e, u in _swallow_cases():
        stepped = swallowed_pairs(e, u).cursor()
        seen: set = set()
        for stage in range(1, _SWALLOW_STAGES[-1] + 1):
            seen.update(stepped.upto(stage))
            if stage in _SWALLOW_STAGES:
                want = _certified_by(e, u, stage)
                assert want <= seen, (label, stage, sorted(want - seen)[:5])
                assert want <= set(swallowed_pairs(e, u).listing(stage)), (label, stage)
        emitted += len(seen)
    assert emitted > 100


class _SteppedSwallowed(_SwallowedPairs):
    """The pairs an open swallows, with every stage stepped: the twin of
    the run-based ``advance``."""
    advance = MonotoneEnumerator.advance


def _bare(e: Ercs) -> Ercs:
    """The system e with its patch descriptions dropped."""
    return Ercs(e.space, e.u_stream, e.k_stream, e.r_stream, lambda kid: None, e.compact_value)


def _swallow_twin_cases():
    """The swallow cases; two without patch descriptions: (1/4, 3/4) on the
    unit interval, and the largest open of finite:triangle, whose pairs and
    parts end, so that the listing stalls; and (-1, 1) on the line with a
    hand-made pair stream whose stages list several pairs, a listed pair
    before a parked one."""
    fs = standard_oracle_spaces()[3]
    space, e = lift_finite(fs)
    patch, inner = encode_interval(F(-1, 2), F(1, 2)), encode_interval(F(-1, 4), F(1, 4))
    wide, miss = encode_interval(F(-3), F(3)), encode_interval(F(1, 4), F(1, 3))
    hold = encode_interval(F(-1, 8), F(1, 8))
    table = {102: ((miss, patch), (hold, wide), (hold, inner)),
             160: ((hold, patch), (miss, wide), (miss, inner), (miss, patch))}
    several = Ercs(_line, _line_ercs.u_stream, _line_ercs.k_stream,
                   enumerate_step(lambda t: table.get(t, ())),
                   _line_ercs.compact_cdesc, _line_ercs.compact_value)
    return _swallow_cases() + [
        ("ui-bare:(1/4,3/4)", _bare(interval_ercs(_ui)),
         open_from_fixture(_ui, (F(1, 4), F(3, 4)))),
        ("triangle-bare", _bare(e), open_from_fixture(space, max(fs.opens, key=len))),
        ("line-several", several, open_from_fixture(_line, (F(-1), F(1))))]


swallow_reads = st.lists(st.tuples(st.sampled_from(["upto", "next", "groups", "quiescent",
                                                    "count", "listing", "emission"]),
                                   st.integers(0, 300)), max_size=12)


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 8), swallow_reads)
@example(6, [("emission", 0), ("next", 400), ("groups", 30), ("emission", 200)])
@example(8, [("emission", 50), ("next", 60), ("emission", 1), ("upto", 100)])
@example(7, [("next", 2), ("quiescent", 5), ("emission", 0), ("upto", 40)])
@example(5, [("emission", 250), ("next", 60), ("listing", 1)])
def test_swallowed_pairs_equal_their_stepped_twin(case, reads):
    """The run-based listing of the pairs an open swallows equals the
    listing that steps every stage, under every kind of read: items,
    change points, counts, stage and stall."""
    label, e, u = _swallow_twin_cases()[case]
    lane, ref = _SwallowedPairs(e, u), _SteppedSwallowed(e, u)
    cur, ref_cur = lane.cursor(), ref.cursor()
    s = 0
    for how, move in reads + [("upto", 1600)]:
        s += move
        if how == "upto":
            assert list(cur.upto(s)) == list(ref_cur.upto(s))
        elif how == "next":
            assert cur.next_emission(s) == ref_cur.next_emission(s)
        elif how == "groups":
            assert _unread(cur.groups(s)) == _unread(ref_cur.groups(s))
        elif how == "quiescent":
            assert cur.quiescent(s) == ref_cur.quiescent(s)
        elif how == "count":
            assert lane.count(s) == ref.count(s)
        elif how == "listing":
            assert list(lane.listing(s)) == list(ref.listing(s))
        else:
            lane.advance(s, True)
            ref.advance(s, True)
        assert ((_below(lane, lane._stage), lane._stage, lane.stalled)
                == (_below(ref, ref._stage), ref._stage, ref.stalled)), (label, how, s)


def test_open_subspace_certifies_patches_without_description():
    """Without patch descriptions the pairs (0, 1) swallows are certified
    by the patches' own processes: the subspace system finds a compact
    base of 1/2 inside (1/4, 3/4), and every pair listed by each stage has
    a patch inside (0, 1), by the descriptions the bare system hides."""
    bare = _bare(_ui_ercs)
    sub = open_subspace_ercs(bare, open_from_fixture(_ui, (F(0), F(1))))
    w = basis_search(sub, point_from_rational(_ui, F(1, 2)),
                     open_from_fixture(_ui, (F(1, 4), F(3, 4))), 20_000)
    assert w is not None
    a, b = _ui.decode(w.n)
    assert F(1, 4) <= a < F(1, 2) < b <= F(3, 4)
    reader = swallowed_pairs(bare, open_from_fixture(_ui, (F(0), F(1)))).cursor()
    listed = []
    for stage in range(1, 3001):
        for n, kid in reader.upto(stage):
            [(p, q)] = _ui_ercs.compact_cdesc(kid)
            assert 0 < p and q < 1, (stage, n, kid)
            listed.append((n, kid))
    assert listed and set(listed) <= set(_ui_ercs.r_stream.listing(3000))


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
# the same lines with ":V:K" added, V the basic n and K the description of
# patch kid, the sandwich that the semidecide benchmark checks for each of
# these literals; recorded while the search decoded and index-tested every
# neighborhood of the point's name
SANDWICH_PIN = "c2916f976a633d22e0d185712eaf0964ccea8e59d26e5e6f5004130ccfccf706"


def test_criterion4_stages_and_witnesses_are_pinned():
    lines, sandwiches = [], []
    for kind in ("line", "ui", "cantor"):
        for lit in _criterion4_literals(kind):
            e, make_x, make_u = _criterion4_case(kind, lit)
            w = basis_search(e, make_x(), make_u(), 10 ** 5)
            assert w is not None, (kind, lit)
            lines.append(f"{kind}:{lit!r}:{w.stage}:{w.n}:{w.kid}")
            sandwiches.append(f"{lines[-1]}:{e.space.decode(w.n)!r}:"
                              f"{e.compact_cdesc(w.kid)!r}")
    assert len(lines) == 63 + 21 + 60
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CRITERION4_PIN
    assert hashlib.sha256("\n".join(sandwiches).encode()).hexdigest() == SANDWICH_PIN


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
    space, with and without patch descriptions."""
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
    # the same exit on the unit interval, at 1/2, and on Cantor space, at
    # 000...: a neighborhood of stage 160, where the pairs do not emit,
    # makes the basic of a pair kept waiting since 102 hold the point
    for label, system, space, value, fixture, nb0, nb160, pair_ in (
            ("ui", _ui_ercs, _ui, F(1, 2), (F(0), F(1)), encode_interval(F(0), F(1)),
             encode_interval(F(31, 64), F(33, 64)),
             (encode_interval(F(7, 16), F(9, 16)), encode_interval(F(1, 4), F(3, 4)))),
            ("cantor", _cantor_ercs, _cantor, ("0", "0"), "0", word_rank("0"),
             word_rank("0000"), (word_rank("000"), word_rank("0")))):
        e = Ercs(space, system.u_stream, system.k_stream,
                 enumerate_step(lambda t, p=pair_: (p,) if t == 102 else ()),
                 system.compact_cdesc, system.compact_value)
        cases.append((f"{label}-waiting-pair-holds", e,
                      lambda sp=space, v=value, a=nb0, b=nb160: PointName(
                          sp, enumerate_step(lambda t: {0: (a,), 160: (b,)}.get(t, ())), v),
                      lambda sp=space, f=fixture: open_from_fixture(sp, f), 400))
    # names that stall: the open's one part (-1, 1) and the pairs are
    # quiescent early, and the point's name stalls at 300, after its last
    # neighborhood at 160; that neighborhood accepts a pair kept waiting
    # since 102, or leaves it waiting and the search stalls at 300
    stalling = {0: (encode_interval(F(-1, 2), F(1, 2)),),
                160: (encode_interval(F(-1, 64), F(1, 64)),)}
    for label, n in (("quiescent-accept", small), ("stalls-after-last-name", miss)):
        e = Ercs(_line, _line_ercs.u_stream, _line_ercs.k_stream,
                 enumerate_step(lambda t, n=n: ((n, patch),) if t == 102 else (), 120),
                 _line_ercs.compact_cdesc, _line_ercs.compact_value)
        cases.append((f"line-{label}", e,
                      lambda: PointName(_line, enumerate_step(
                          lambda t: stalling.get(t, ()), 300), F(0)),
                      lambda: OpenSet(_line, enumerate_list([encode_interval(F(-1), F(1))])),
                      400))
    # the costliest criterion-4 literal, accepting at stage 49,786
    cases.append(("line:(1, 1/4)", *_criterion4_case("line", (F(1), F(1, 4))), 10 ** 5))
    # every point and open of every standard oracle space, with patch
    # descriptions and without: a process may certify its patch at the
    # stage the listing stalls
    for fs in standard_oracle_spaces():
        space, e = lift_finite(fs)
        for p in fs.points:
            for o in sorted(fs.opens, key=sorted):
                for tag, system in (("", e), ("bare-", _bare(e))):
                    cases.append((f"{tag}{fs.name}:{p}:{''.join(sorted(o))}", system,
                                  lambda p=p, sp=space: oracle_point(sp, p),
                                  lambda o=o, sp=space: open_from_fixture(sp, o), 300))
    return cases


class ReferenceBasisSearch(Machine):
    """The basis search as it was while it certified patches itself, kept
    as the twin of the search that reads ``swallowed_pairs``.

    Dovetails patch-in-open certification, formal containment pairs and
    point membership; accepts at the first pair with both sides certified.

    Membership of the point in a basic is only tested for pairs whose patch
    is already certified inside the target, and retested only when the
    point's name contributes a genuinely smaller neighborhood; patch
    certifications are retested only when the target's covered region
    changes, or, without description, when the patch's process advances.
    These rules keep pending searches near-linear, and leave the stages
    between two parts of the target so little to do that ``fast_forward``
    applies them in one loop: the point's neighborhoods, and the pairs,
    parked under their patch or kept waiting.
    """

    def __init__(self, e: Ercs, x: PointName, u: OpenSet):
        super().__init__()
        self.e = e
        self.space = e.space
        self.x = x
        self.u = u
        self.witness: BasisWitness | None = None
        self._parts = u.parts.cursor()
        self._nbs = x.neighborhoods.cursor()
        self._pairs = e.r_stream.cursor()
        self._region = self.space.region()
        self._region_version = 0
        self._x_index = self.space.basic_inside_index()
        self._kid_unknown: list[int] = []      # kids awaiting certification
        self._kid_ok: set[int] = set()
        self._kid_proc: dict[int, SemidecisionProcess] = {}
        self._kid_fuel: dict[int, int] = {}
        self._live: list[int] = []   # uncertified kids with a process, in kid order
        self._parked: dict[int, list[tuple[int, int]]] = {}  # kid -> pairs
        self._waiting: list[tuple[int, int]] = []  # kid certified, n untested
        self._proc_cursor = 0

    def _certify_kid(self, kid: int) -> bool:
        cdesc = self.e.compact_cdesc(kid)
        if cdesc is not None:
            return self._region.covers_cdesc(cdesc)
        proc = self._kid_proc.get(kid)
        if proc is None:
            proc = compact_subset(self.e.compact_value(kid), self.u)
            self._kid_proc[kid] = proc
            self._kid_fuel[kid] = 0
            insort(self._live, kid)
        return proc.poll(self._kid_fuel[kid]) is not None

    def _certified(self, kid: int, t: int) -> bool:
        """Records kid as certified; True when a parked pair then accepts."""
        self._kid_ok.add(kid)
        if kid in self._kid_proc:
            self._live.remove(kid)
        return self._absorb_certified(self._parked.pop(kid, ()), t)

    def _n_holds(self, n: int, new=()) -> bool:
        """Whether the point is known to lie in basic n, once the basics
        ``new`` join its index: ``some_inside(d)`` then holds exactly when
        it held or one of them is a ``basic_subset`` of d."""
        sp = self.space
        d = sp.decode(n)
        if d is None:
            return False
        if self._x_index.some_inside(d):
            return True
        for nd in new:
            if sp.basic_subset(nd, d):
                return True
        return False

    def _absorb_certified(self, pairs, t: int) -> bool:
        for pair_ in pairs:
            if self._n_holds(pair_[0]):
                self.witness = BasisWitness(pair_[0], pair_[1], t)
                return True
            self._waiting.append(pair_)
        return False

    def fast_forward(self, t: int, limit: int) -> int:
        """Applies the stages before the next part of the open, as ``step``
        would: a stage's neighborhoods, then its pair, parked under a fresh
        kid the region does not cover, under a parked kid, or kept waiting
        under a certified kid whose basic misses the point.  Stops at the
        first stage with several pairs or one that could accept: a fresh
        kid the region covers or without description, a certified kid whose
        basic holds the point, or an informative neighborhood that makes a
        waiting pair's basic hold it, tested before the index holds it.
        The point's name is read one emission ahead, no further than when
        each of its emissions ended a run.  While a patch process runs, or
        once the pairs are quiescent, ``step`` takes every stage."""
        if self._live:
            return t
        nbs, pairs = self._nbs, self._pairs
        end = self._parts.next_emission(limit)
        if end == t or pairs.quiescent(end):
            return t
        marks, counts, items, m, last, a = pairs.groups(end)
        nb = nbs.next_emission(end)
        decode, index, n_holds = self.space.decode, self._x_index, self._n_holds
        cdesc_of, covers = self.e.compact_cdesc, self._region.covers_cdesc
        ok, parked, waiting = self._kid_ok, self._parked, self._waiting
        unknown = self._kid_unknown
        s = end
        while True:
            g = marks[m] if m < last else end
            new = ()
            if nb <= g:
                if nb == end:
                    break
                g = nb
                _, nb_counts, nb_items, k, _, b = nbs.groups(nb + 1)
                new = [d for d in map(decode, nb_items[b:nb_counts[k]])
                       if not index.some_inside(d)]
                if new and any(n_holds(n, new) for n, _ in waiting):
                    s = g
                    break
            if m < last and marks[m] == g:
                c = counts[m]
                if c - a > 1:
                    s = g
                    break
                pair_ = items[a]
                kid = pair_[1]
                if kid in ok:
                    if n_holds(pair_[0], new):
                        s = g
                        break
                    waiting.append(pair_)
                elif kid in parked:
                    parked[kid].append(pair_)
                else:
                    cdesc = cdesc_of(kid)
                    if cdesc is None or covers(cdesc):
                        s = g
                        break
                    parked[kid] = [pair_]
                    unknown.append(kid)
                m += 1
                a = c
            if g == nb:
                for d in new:
                    if not index.some_inside(d):
                        index.add(d)
                nbs.upto(nb + 1)
                nb = nbs.next_emission(end)
        pairs.upto(s)
        return s

    def step(self, t: int) -> bool:
        sp = self.space
        new_parts = self._parts.upto(t + 1)
        for p in new_parts:
            self._region.add(sp.decode(p))
        informative_x = False
        for nb in self._nbs.upto(t + 1):
            d = sp.decode(nb)
            if not self._x_index.some_inside(d):
                self._x_index.add(d)
                informative_x = True
        for pair_ in self._pairs.upto(t + 1):
            n, kid = pair_
            if kid in self._kid_ok:
                if self._absorb_certified([pair_], t):
                    return True
            elif kid in self._parked:
                self._parked[kid].append(pair_)
            else:
                self._parked[kid] = [pair_]
                if self._certify_kid(kid):
                    if self._certified(kid, t):
                        return True
                else:
                    self._kid_unknown.append(kid)
        # advance one uncertified desc-less patch process per stage
        advanced = None
        if self._live:
            advanced = self._live[self._proc_cursor % len(self._live)]
            self._proc_cursor += 1
            self._kid_fuel[advanced] += 1
        # re-examine pending certifications only when their evidence changed:
        # the region for every kid, the fuel of the advanced one for itself
        region_changed = self._region.version != self._region_version
        self._region_version = self._region.version
        if region_changed:
            still = []
            for kid in self._kid_unknown:
                if self._certify_kid(kid):
                    if self._certified(kid, t):
                        return True
                else:
                    still.append(kid)
            self._kid_unknown = still
        elif advanced is not None and self._certify_kid(advanced):
            self._kid_unknown.remove(advanced)
            if self._certified(advanced, t):
                return True
        if informative_x and self._waiting:
            still_w = []
            for pair_ in self._waiting:
                if self._n_holds(pair_[0]):
                    self.witness = BasisWitness(pair_[0], pair_[1], t)
                    return True
                still_w.append(pair_)
            self._waiting = still_w
        # quiescent sources and stalled patch processes: nothing can change
        if (self._parts.quiescent(t + 1) and self._nbs.quiescent(t + 1)
                and self._pairs.quiescent(t + 1)
                and all(self._kid_proc[kid].stalled for kid in self._live)):
            if not self._recheck_all(t):
                self.stall()
                return False
            return True
        return False

    def _recheck_all(self, t: int) -> bool:
        for kid in list(self._kid_unknown):
            if self._certify_kid(kid) and self._certified(kid, t):
                return True
        self._kid_unknown = [k for k in self._kid_unknown if k not in self._kid_ok]
        for pair_ in list(self._waiting):
            if self._n_holds(pair_[0]):
                self.witness = BasisWitness(pair_[0], pair_[1], t)
                return True
        return False


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
    # the search asks the point's name and reads none of it: for x = 1 the
    # name is not advanced (it was read to stage 49,792 while the search
    # read it one emission ahead)
    e, make_x, make_u = _criterion4_case("line", (F(1), F(1, 4)))
    x = make_x()
    assert _BasisSearch(e, x, make_u()).poll(10 ** 5) == 49786
    assert x.neighborhoods._stage == 0
    # once both names are quiescent the search goes to its stall in one
    # run: it steps the stall at 300 (and, while it read the name, the
    # stage of its last neighborhood, 160; 140 steps while it stepped
    # every stage to the stall)
    e, make_x, make_u = next(case[1:4] for case in _skip_cases()
                             if case[0] == "line-stalls-after-last-name")
    counted = _CountedSteps(e, make_x(), make_u())
    assert counted.poll(400) is None and counted.stalled and counted._stage == 301
    assert counted.steps == 1


class _CountedReads:
    """A cursor whose ``upto``, ``next_emission``, ``groups`` and
    ``quiescent`` calls are counted, per method."""

    def __init__(self, cursor):
        self.calls = dict.fromkeys(("upto", "next_emission", "groups", "quiescent"), 0)
        for name in self.calls:
            setattr(self, name, self._counted(name, getattr(cursor, name)))

    def _counted(self, name, read):
        def counted(*args):
            self.calls[name] += 1
            return read(*args)
        return counted


def test_compact_base_search_work_is_pinned():
    """Work pins of the x = 1 search inside (3/4, 5/4), run a second time
    on a warm line system.  The search asks the point's name when it first
    lists a basic inside each pair's basic, and reads none of it: no
    cursor of the name is built.  Measured: 20 asks of the swallowed pairs
    for their next emission and 354 ``Fraction.as_integer_ratio`` calls
    (11,598 while the search decoded and index-tested every neighborhood
    of the name, and 35,910 while it also turned once per emission of the
    name and the region converted each patch's ends at each coverage
    test).  The bound on the asks has a margin of 50% over its count, the
    one on the conversions 40%."""
    line = LineSpace()
    e = interval_ercs(line)

    def search(x):
        return _BasisSearch(e, x, open_from_fixture(line, (F(3, 4), F(5, 4))))

    assert search(point_from_rational(line, F(1))).poll(10 ** 5) == 49786
    x = point_from_rational(line, F(1))
    cursors, cursor = [], x.neighborhoods.cursor
    x.neighborhoods.cursor = lambda: cursors.append(cursor()) or cursors[-1]
    m = search(x)
    m._pairs = pairs = _CountedReads(m._pairs)
    ratio, conversions = F.as_integer_ratio, [0]

    def counted_ratio(q):
        conversions[0] += 1
        return ratio(q)

    F.as_integer_ratio = counted_ratio
    try:
        assert m.poll(10 ** 5) == 49786
    finally:
        F.as_integer_ratio = ratio
    assert _witness(m) == (24893, 24893, 49786)
    assert cursors == [] and x.neighborhoods._stage == 0
    assert pairs.calls["next_emission"] <= 30, pairs.calls
    assert conversions[0] <= 500, conversions


def _asks_first_inside(rng, label, sp, make_x, lane, codes, fuel):
    """Asks ``first_inside`` about the basics of ``codes`` at shuffled
    limits, in a shuffled order on one ``make_x()`` and once each on a
    fresh one, against the first stage at which ``lane`` lists a basic
    inside the asked one."""
    x = make_x()
    basics = [d for d in map(sp.decode, codes) if d is not None]
    limits = [0, 1, 101, 160, 161, 300, 301, fuel, rng.randrange(fuel)]
    asks = [(d, limit) for d in basics for limit in rng.sample(limits, 3)]
    rng.shuffle(asks)
    for d, limit in asks:
        want = first_listed_inside(lane, sp, d, limit)
        assert x.first_inside(d, limit) == want, (label, d, limit)
    for d, limit in asks[:5]:
        assert make_x().first_inside(d, limit) == first_listed_inside(lane, sp, d, limit)


def test_first_inside_reads_what_the_name_lists():
    """On the point names of ``_skip_cases`` (hand-made ones, some that
    stall, Cantor, finite and rational names), ``first_inside`` gives the
    first stage at which the listing holds a basic inside the asked one,
    for the basics of the pairs the open swallows and of the name's own
    neighborhoods, asked at shuffled limits in a shuffled order on one
    name, and once each on a fresh name.  So does the reader of an overt
    name's hits, on the unit interval and Cantor space, for basics spread
    over the system's listing and over the hits themselves."""
    rng = random.Random(25)
    for label, e, make_x, make_u, fuel in _skip_cases():
        fuel = min(fuel, 4000)
        lane = make_x().neighborhoods
        codes = [n for n, _ in swallowed_pairs(e, make_u()).listing(fuel)[:30]]
        codes += lane.listing(fuel)[:10]
        _asks_first_inside(rng, label, e.space, make_x, lane, codes, fuel)
    for label, e, pieces in (("ui-overt", _ui_ercs, [(F(0), F(1, 3)), (F(1, 2), F(1, 2))]),
                             ("cantor-overt", _cantor_ercs, ["01", "110"])):
        sp = e.space
        cdesc = sp.make_cdesc(pieces)
        lane = overt_from_cdesc(sp, cdesc).hits
        codes = e.u_stream.listing(2000)[::20][:30] + lane.listing(2000)[::600]
        _asks_first_inside(rng, label, sp,
                           lambda sp=sp, cdesc=cdesc: InsideReader(overt_from_cdesc(sp, cdesc).hits, sp),
                           lane, codes, 2000)


def test_basis_search_equals_its_reference_twin():
    """The search that reads the swallowed pairs answers as the search that
    certified patches itself: the same stage, witness and stall at every
    fuel, at doubling fuels for the 10^5 case."""
    for label, e, make_x, make_u, fuel in _skip_cases():
        new = _BasisSearch(e, make_x(), make_u())
        ref = ReferenceBasisSearch(e, make_x(), make_u())
        fuels = (range(fuel + 1) if fuel < 10 ** 5
                 else sorted({fuel} | {1 << k for k in range(fuel.bit_length())}))
        for f in fuels:
            assert ((new.poll(f), _witness(new), new.stalled)
                    == (ref.poll(f), _witness(ref), ref.stalled)), (label, f)


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
