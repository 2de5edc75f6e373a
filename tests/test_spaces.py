from __future__ import annotations

import hashlib
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from erctopo import spaces
from erctopo.kernel import Accepted, filter_lane, run_process, unpair
from erctopo.registry import registry_get
from erctopo.sets import (
    closed_from_cdesc,
    compact_from_cdesc,
    compact_subset,
    intersect_closed_compact,
    open_from_fixture,
    open_of_basic,
    open_union,
    overt_from_cdesc,
    union_compact,
)
from erctopo.spaces import (
    INF,
    CantorSpace,
    FivCoverIndex,
    FivUnion,
    LineSpace,
    OutOfSpace,
    PiecewiseSpace,
    QhatSpace,
    StarSpace,
    UnitIntervalSpace,
    _LineSubspace,
    _lo_search,
    cantor_point,
    decode_rational,
    decode_rational_set,
    encode_interval,
    encode_rational,
    encode_rational_set,
    fiv_disjoint,
    fiv_hull,
    fiv_member,
    fiv_mergeable,
    fiv_nonempty,
    fiv_subset,
    point_from_rational,
    qhat_point_name,
    qhat_point_tokens,
    star_distance,
    star_point,
    word_rank,
    word_unrank,
)

from test_kernel import _lane_state

F = Fraction


# -- codecs ------------------------------------------------------------------

def test_rational_code_roundtrip():
    for q in [F(0), F(1), F(-1), F(1, 2), F(-3, 4), F(22, 7), F(-100, 9)]:
        assert decode_rational(encode_rational(q)) == q


def test_rational_decode_total():
    for n in range(2000):
        decode_rational(n)  # never raises, always canonical via Fraction


def decode_interval(n):
    """The ends of interval code n built as Fractions, valid or not: the
    reference for the integer decoder."""
    i, j = unpair(n)
    return decode_rational(i), decode_rational(j)


def test_interval_code_roundtrip():
    n = encode_interval(F(-1, 4), F(3, 4))
    assert decode_interval(n) == (F(-1, 4), F(3, 4))
    assert LineSpace().decode(n) == (F(-1, 4), F(3, 4))


def test_word_rank_roundtrip():
    assert [word_unrank(n) for n in range(7)] == ["", "0", "1", "00", "01", "10", "11"]
    for n in range(300):
        assert word_rank(word_unrank(n)) == n


def test_rational_set_code_roundtrip():
    s = frozenset({F(1, 2), F(-3), F(0)})
    assert decode_rational_set(encode_rational_set(s)) == s


# -- flagged interval calculus ------------------------------------------------

def int_fiv(f):
    """The integer form (ln, ld, lo_open, hn, hd, hi_open) of a fiv written
    with rational ends, (lo, lo_open, hi, hi_open)."""
    lo, lo_open, hi, hi_open = f
    lo, hi = F(lo), F(hi)
    return (lo.numerator, lo.denominator, lo_open, hi.numerator, hi.denominator, hi_open)


def _fiv_points(f, grid):
    return {x for x in grid if fiv_member(x, f)}


def _grid():
    return [F(n, 8) for n in range(-40, 41)]


def test_fiv_subset_matches_pointwise_on_grid():
    rng = random.Random(7)
    grid = _grid()
    fivs = []
    for _ in range(60):
        a, b = sorted(rng.sample(range(-12, 13), 2))
        fivs.append(int_fiv((F(a, 4), rng.randint(0, 1), F(b, 4), rng.randint(0, 1))))
    for x in fivs:
        for y in fivs:
            claimed = fiv_subset(x, y)
            truth = _fiv_points(x, grid) <= _fiv_points(y, grid)
            # the grid refines all endpoints, so pointwise truth is exact here
            assert claimed == truth, (x, y)


def test_fiv_disjoint_matches_pointwise_on_grid():
    rng = random.Random(11)
    grid = _grid()
    fivs = []
    for _ in range(40):
        a, b = sorted(rng.sample(range(-12, 13), 2))
        fivs.append(int_fiv((F(a, 4), rng.randint(0, 1), F(b, 4), rng.randint(0, 1))))
    for x in fivs:
        for y in fivs:
            assert fiv_disjoint(x, y) == (not (_fiv_points(x, grid) & _fiv_points(y, grid)))


def test_fiv_union_covers():
    u = FivUnion()
    u.add(int_fiv((F(0), 1, F(1), 1)))
    u.add(int_fiv((F(1), 0, F(2), 1)))  # [1,2): touches (0,1) at a closed point
    assert u.covers(int_fiv((F(1, 2), 0, F(3, 2), 0)))
    assert not u.covers(int_fiv((F(0), 0, F(1), 0)))  # 0 itself is not covered
    u.add(int_fiv((F(-1), 1, F(1, 2), 1)))
    assert u.covers(int_fiv((F(0), 0, F(1), 0)))


def test_fiv_union_open_gap_not_merged():
    u = FivUnion()
    u.add(int_fiv((F(0), 1, F(1), 1)))
    u.add(int_fiv((F(1), 1, F(2), 1)))
    assert not u.covers(int_fiv((F(1, 2), 0, F(3, 2), 0)))  # 1 missing


def test_fiv_indexes_against_bruteforce():
    rng = random.Random(13)
    fivs = []
    for _ in range(120):
        a, b = sorted(rng.sample(range(-16, 17), 2))
        fivs.append(int_fiv((F(a, 4), rng.randint(0, 1), F(b, 4), rng.randint(0, 1))))
    cover = FivCoverIndex()
    inside = FivInsideIndex()
    seen = []
    for f in fivs:
        q = fivs[rng.randrange(len(fivs))]
        assert cover.contains(q) == any(fiv_subset(q, m) for m in seen)
        assert inside.some_inside(q) == any(fiv_subset(m, q) for m in seen)
        cover.add(f)
        inside.add(f)
        seen.append(f)


class FivInsideIndex:
    """Antichain of minimal fivs answering: is SOME member inside a query?
    The reference for the spaces' integer-key inside indexes."""

    def __init__(self) -> None:
        self._fivs: list[tuple] = []

    def add(self, f) -> None:
        if not fiv_nonempty(f) or self.some_inside(f):
            return
        k = _lo_search(self._fivs, f)
        j = k
        while j > 0 and fiv_subset(f, self._fivs[j - 1]):
            j -= 1
        self._fivs[j:k] = [f]

    def some_inside(self, f) -> bool:
        k = _lo_search(self._fivs, f)
        return k < len(self._fivs) and fiv_subset(self._fivs[k], f)


# Fraction references for the integer calculus: endpoints compared as
# (Fraction, flag) keys, as the calculus was first written.

def _ref_lo_key(f):
    return (f[0], f[1])


def _ref_hi_key(f):
    return (f[2], 1 - f[3])


def _ref_subset(a, b):
    return _ref_lo_key(b) <= _ref_lo_key(a) and _ref_hi_key(a) <= _ref_hi_key(b)


def _ref_disjoint(a, b):
    lo_a, lof_a, hi_a, hif_a = a
    lo_b, lof_b, hi_b, hif_b = b
    return bool(hi_a < lo_b or (hi_a == lo_b and (hif_a or lof_b))
                or hi_b < lo_a or (hi_b == lo_a and (hif_b or lof_a)))


def _ref_member(x, f):
    lo, lof, hi, hif = f
    return not (x < lo or (x == lo and lof) or x > hi or (x == hi and hif))


def _ref_mergeable(a, b):
    return not (a[2] < b[0] or (a[2] == b[0] and a[3] and b[1])
                or b[2] < a[0] or (b[2] == a[0] and b[3] and a[1]))


def _ref_hull(a, b):
    lo = min(_ref_lo_key(a), _ref_lo_key(b))
    hi = max(_ref_hi_key(a), _ref_hi_key(b))
    return (lo[0], lo[1], hi[0], 1 - hi[1])


PROPERTY = settings(max_examples=400, deadline=None, database=None, derandomize=True)

# coarse rationals (and some ints), so that equal endpoints are frequent
rationals = st.fractions(min_value=-2, max_value=2, max_denominator=3) | st.integers(-2, 2)
flags = st.integers(0, 1)


@st.composite
def fivs(draw):
    a, b = sorted((draw(rationals), draw(rationals)))
    return (a, draw(flags), b, draw(flags))


@PROPERTY
@given(fivs(), fivs(), rationals)
def test_integer_fiv_calculus_matches_fraction_reference(a, b, x):
    ia, ib = int_fiv(a), int_fiv(b)
    assert fiv_nonempty(ia) == (a[0] < a[2] or (a[0] == a[2] and not a[1] and not a[3]))
    assert fiv_member(x, ia) == _ref_member(x, a)
    assert fiv_member(a[0], ib) == _ref_member(a[0], b)
    assert fiv_disjoint(ia, ib) is _ref_disjoint(a, b)
    assert fiv_mergeable(ia, ib) == _ref_mergeable(a, b)
    assert fiv_hull(ia, ib) == int_fiv(_ref_hull(a, b))
    if fiv_nonempty(ia) and fiv_nonempty(ib):
        assert fiv_subset(ia, ib) == _ref_subset(a, b)


@PROPERTY
@given(st.lists(st.tuples(rationals, flags), max_size=12), rationals, flags)
def test_integer_bisect_matches_bisect(keys, x, flag):
    """The lo-key search over fivs sorted by lo key is bisect_left and
    bisect_right on the (Fraction, flag) lo keys."""
    # ints and Fractions mixed, with frequent ties
    keys = sorted(keys)
    fivs = [int_fiv((v, f, v, 0)) for v, f in keys]
    query = int_fiv((x, flag, x, 0))
    assert _lo_search(fivs, query) == bisect_left(keys, (x, flag))
    assert _lo_search(fivs, query, 1) == bisect_right(keys, (x, flag))


def _ref_components(fivs_added):
    """The components of a union of fivs: merge mergeable pairs until none
    is left."""
    comps = list(fivs_added)
    merged = True
    while merged:
        merged = False
        for i in range(len(comps)):
            for j in range(i):
                if _ref_mergeable(comps[i], comps[j]):
                    comps[j] = _ref_hull(comps[i], comps[j])
                    del comps[i]
                    merged = True
                    break
            if merged:
                break
    return comps


@settings(PROPERTY, max_examples=150)
@given(st.lists(st.tuples(fivs(), fivs()), max_size=25))
def test_fiv_indexes_match_bruteforce(steps):
    cover, inside, union = FivCoverIndex(), FivInsideIndex(), FivUnion()
    added = []
    for f, q in steps:
        cover.add(int_fiv(f))
        inside.add(int_fiv(f))
        union.add(int_fiv(f))
        if fiv_nonempty(int_fiv(f)):
            added.append(f)
        if not fiv_nonempty(int_fiv(q)):
            continue
        comps = _ref_components(added)
        assert cover.contains(int_fiv(q)) == any(_ref_subset(q, m) for m in added)
        assert inside.some_inside(int_fiv(q)) == any(_ref_subset(m, q) for m in added)
        assert union.covers(int_fiv(q)) == any(_ref_subset(q, c) for c in comps)
        for x in (q[0], q[2]):
            assert union.covers_point(x) == any(_ref_member(x, m) for m in added)
            assert union.part_at(x) == next(
                (int_fiv(c) for c in comps if _ref_member(x, c)), None)


@settings(PROPERTY, max_examples=150)
@given(st.lists(fivs(), max_size=25))
def test_union_version_moves_exactly_when_its_components_change(added):
    """FivUnion.add tells an unchanged union by tuple equality, and the
    refutation stages follow its version: the integer components are the
    reference components, end for end, and the version moves at an
    addition exactly when they change."""
    union, kept, comps = FivUnion(), [], set()
    for f in added:
        before = union.version
        union.add(int_fiv(f))
        if fiv_nonempty(int_fiv(f)):
            kept.append(f)
        now = {int_fiv(c) for c in _ref_components(kept)}
        assert set(union._parts) == now
        assert union.version - before == (now != comps), f
        comps = now


@settings(PROPERTY, max_examples=150)
@given(st.lists(fivs(), min_size=1, max_size=12), st.lists(fivs(), max_size=12))
def test_adding_a_covered_part_leaves_the_union_as_it_was(parts, queries):
    """A part the union covers already, every part added before among
    them, leaves its components and its version as they were."""
    union = FivUnion()
    for f in parts:
        union.add(int_fiv(f))
    for q in parts + queries:
        if union.covers(int_fiv(q)):
            before = (list(union._parts), union.version)
            union.add(int_fiv(q))
            assert (union._parts, union.version) == before, q


_LANE_SPACES = {"line": LineSpace(), "unit-interval": UnitIntervalSpace(),
                "gap": PiecewiseSpace([(F(0), F(1, 3)), (F(1, 2), F(1))], name="gap")}
# points at and near the unit interval's ends; fixtures clamped by it
lane_points = st.sampled_from([F(0), F(1), F(1, 1000), F(999, 1000), F(-1, 1000),
                               F(1001, 1000), F(1, 2), F(-5, 7), F(3, 2)])
lane_fixtures = st.sampled_from([(F(-1), F(1, 2)), (F(1, 2), F(2)), (F(-1), F(2)),
                                 (F(0), F(1)), (F(3, 4), F(5, 4)), (F(1, 4), F(1, 3)),
                                 (F(-1, 1000), F(1, 1000)), (F(999, 1000), F(1001, 1000))]) \
    | st.tuples(rationals, rationals).filter(lambda ab: ab[0] < ab[1])
lane_names = lane_points.map(lambda q: ("point", q)) | lane_fixtures.map(lambda d: ("fixture", d))
# reads: stages to move on, and how to read; a last advance passes stage 60,000
lane_reads = st.lists(st.tuples(st.integers(0, 3000),
                                st.sampled_from(["advance", "emission", "groups", "upto",
                                                 "next"])), max_size=12)


@settings(PROPERTY, max_examples=40)
@given(st.sampled_from(sorted(_LANE_SPACES)), lane_names, lane_reads)
@example("unit-interval", ("point", F(1)), [(49_000, "emission"), (5, "groups")])
@example("unit-interval", ("point", F(0)), [(1, "upto"), (2, "next"), (30, "emission")])
@example("unit-interval", ("fixture", (F(-1), F(1, 2))), [(2_080, "emission")])
@example("line", ("fixture", (F(3, 4), F(5, 4))), [(2_000, "next"), (17, "upto")])
def test_diagonal_lanes_equal_the_filter_lanes(space_name, name, reads):
    """The point names of the line subspaces and the fixture opens of the
    line and the unit interval walk the pairing's diagonals: the same
    items, change points and stage as the filter lane of their test, under
    every kind of read."""
    space = _LANE_SPACES[space_name]
    kind, value = name
    if kind == "point":
        assume(space.in_carrier(value))
        lane = space.point_name(value).neighborhoods

        def seeds(s):
            eps = F(1, 2 ** s)
            return (encode_interval(value - eps, value + eps),)

        ref = filter_lane(space.decode, partial(space.point_in_basic, value), seeds)
    else:
        assume(space_name != "gap")   # a carrier with gaps keeps the filter lane
        lane = open_from_fixture(space, value).parts

        def seeds(s):
            core = space.shrunk_core(value, s)
            return (core,) if space.decode(core) is not None else ()

        ref = filter_lane(space.decode, lambda d: space.basic_subset(d, value), seeds)
    reader, ref_reader = lane.cursor(), ref.cursor()
    stage = 0
    for move, how in reads + [(60_001, "advance")]:
        stage += move
        if how == "advance":
            lane.advance(stage)
            ref.advance(stage)
        elif how == "emission":
            lane.advance(stage, True)
            ref.advance(stage, True)
        elif how == "groups":
            assert reader.groups(stage) == ref_reader.groups(stage)
        elif how == "upto":
            assert list(reader.upto(stage)) == list(ref_reader.upto(stage))
        else:
            assert reader.next_emission(stage) == ref_reader.next_emission(stage)
        assert _lane_state(lane) == _lane_state(ref)
    assert lane._stage > 60_000


def first_listed_inside(lane, space, d, limit: int):
    """The first stage below ``limit`` at which ``lane`` lists a basic
    inside the basic d, read off its listing with ``basic_subset``."""
    for k, n in enumerate(lane.listing(limit)):
        if space.basic_subset(space.decode(n), d):
            return lane.stage_of(k)
    return None


# a basic around the point, by its margins on each side, from wider than
# the carriers to narrower than the last seed (2**-64), or any basic
margins = (st.sampled_from([F(3), F(1), F(1, 2), F(1, 3), F(1, 1000), F(1, 2 ** 20),
                            F(1, 2 ** 64), F(1, 2 ** 70)])
           | st.fractions(min_value=F(1, 16), max_value=2, max_denominator=16)
           .filter(lambda m: m > 0))
basic_asks = st.lists(st.tuples(st.tuples(margins, margins).map(lambda m: ("around", m))
                                | st.tuples(rationals, rationals).map(lambda ab: ("any", ab)),
                                st.integers(0, 2500)), min_size=1, max_size=6)


@settings(PROPERTY, max_examples=150)
@given(st.sampled_from(sorted(_LANE_SPACES)), lane_points, basic_asks)
@example("unit-interval", F(0), [(("around", (F(1, 4), F(1, 4))), 1000)])
@example("gap", F(1, 2), [(("around", (F(1, 4), F(1, 8))), 2500),
                          (("any", (F(1, 3), F(2, 3))), 7)])
@example("line", F(1), [(("around", (F(1, 2 ** 64), F(1, 2 ** 64))), 2500),
                        (("around", (F(1, 4), F(1, 4))), 2144)])
# a code beats the seeds where its ends are the basic's own ends (stages 1, 9)
# or, across the gap, the carrier's next point 1/2 (stage 35)
@example("line", F(-1, 1000), [(("any", (F(-1), F(0))), 100)])
@example("unit-interval", F(1, 1000), [(("any", (F(0), F(1))), 100)])
@example("gap", F(1, 1000), [(("any", (F(0), F(2, 5))), 100)])
def test_first_inside_closed_form_equals_the_listing(space_name, q, asks):
    """The rational names of the line subspaces answer ``first_inside`` in
    closed form: the first stage at which the listing holds a basic inside
    the asked one, for basics that hold the point and basics that do not,
    ends clamped by the unit interval and basics across the gap of a
    carrier; the same on one name whatever was asked before, and on a
    fresh one."""
    space = _LANE_SPACES[space_name]
    assume(space.in_carrier(q))
    x, lane = space.point_name(q), space.point_name(q).neighborhoods
    for (kind, (a, b)), limit in asks:
        d = space.decode(encode_interval(*((q - a, q + b) if kind == "around" else (a, b))))
        if d is None:
            continue
        want = first_listed_inside(lane, space, d, limit)
        assert x.first_inside(d, limit) == want, (d, limit)
        assert space.point_name(q).first_inside(d, limit) == want


@settings(PROPERTY, max_examples=200)
@given(st.sampled_from([LineSpace(), UnitIntervalSpace()]),
       st.lists(st.tuples(st.booleans(), rationals, rationals), max_size=30))
def test_integer_inside_index_matches_the_fiv_index(space, steps):
    index, ref = space.basic_inside_index(), FivInsideIndex()
    hulls, hull_ref = space.cdesc_inside_index(), FivInsideIndex()
    for add, a, b in steps:
        a, b = sorted((a, b))
        d = space.decode(encode_interval(a, b))
        if d is None:
            # a closed piece, a point when a == b, clipped to the carrier
            cdesc = space.make_cdesc([(a, b)])
            hulls.add(cdesc)
            if cdesc:
                hull_ref.add(int_fiv((cdesc[0][0], 0, cdesc[-1][1], 0)))
            continue
        f = space.fiv(d)
        # the decoded Fractions, and the ends as drawn (ints among them)
        assert index.some_inside(d) == ref.some_inside(f)
        assert index.some_inside((a, b)) == ref.some_inside(f)
        assert hulls.some_inside(d) == hull_ref.some_inside(f)
        if add:
            index.add(d)
            ref.add(f)
            cdesc = space.make_cdesc([(a, b), (b + 1, b + 2)] if a < 0 else [(a, b)])
            hulls.add(cdesc)
            hull_ref.add(int_fiv((cdesc[0][0], 0, cdesc[-1][1], 0)))


def test_decode_caches_are_bounded(monkeypatch):
    cap = 64
    makers = (LineSpace, UnitIntervalSpace, CantorSpace)
    expected = [[make().decode(n) for n in range(5 * cap)] for make in makers]
    monkeypatch.setattr(spaces, "DECODE_CACHE_CAP", cap)
    for make, want in zip(makers, expected):
        space = make()
        for n in range(5 * cap):
            assert space.decode(n) == want[n]
            assert len(space._decode_cache) <= cap
        for n in reversed(range(5 * cap)):
            assert space.decode(n) == want[n]
            assert len(space._decode_cache) <= cap


# -- interval spaces -----------------------------------------------------------

def test_line_decode_validity():
    line = LineSpace()
    n = encode_interval(F(0), F(1))
    assert line.decode(n) == (F(0), F(1))
    bad = encode_interval(F(1), F(0))
    assert line.decode(bad) is None


def _ref_trace_nonempty(space, a, b):
    """Whether the trace of (a, b) is nonempty, on Fractions: the test the
    decoders ran before they tested codes on integers."""
    if isinstance(space, PiecewiseSpace):
        return a < b and bool(space.trace((a, b)))
    return (a < b and (space.lo_bound is None or b > space.lo_bound)
            and (space.hi_bound is None or a < space.hi_bound))


_DECODE_SPACES = (LineSpace(), UnitIntervalSpace(),
                  PiecewiseSpace([(0, F(1, 3)), (F(1, 2), 1)], name="gap"),
                  PiecewiseSpace([(0, 0), (1, 2)], name="point-and-piece"),
                  PiecewiseSpace([(0, 5), (1, 2)], name="nested"))
_qhat = QhatSpace()


def _assert_same_ends(got, want):
    assert got == want
    for x, y in zip(got, want):
        assert type(x) is Fraction
        assert x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
        assert (x.numerator, x.denominator) == (y.numerator, y.denominator)
        assert hash(x) == hash(y)


# codes of every size, and codes of coarse ends, which often sit on a
# carrier bound or on each other
interval_codes = (st.integers(0, 10 ** 40) | st.integers(0, 10 ** 5)
                  | st.builds(encode_interval, rationals, rationals))


@settings(PROPERTY, max_examples=1000)
@given(interval_codes)
def test_integer_decoder_matches_fraction_reference(n):
    a, b = decode_interval(n)
    for space in _DECODE_SPACES:
        d = space.decode(n)
        if not _ref_trace_nonempty(space, a, b):
            assert d is None, (space.name, n)
        else:
            _assert_same_ends(d, (a, b))
    d = _qhat.decode(2 * n)
    if a < b:
        assert d[0] == "iv"
        _assert_same_ends(d[1:], (a, b))
    else:
        assert d is None


def _ref_clamp(a, b, lo, hi, open_ends):
    """(a, b), or [a, b] when open_ends is 0, clamped to [lo, hi] (None for
    no bound) as a fiv with Fraction ends, closed where clamped."""
    lof = hif = open_ends
    if lo is not None and a < lo:
        a, lof = lo, 0
    if hi is not None and b > hi:
        b, hif = hi, 0
    return (F(a), lof, F(b), hif)


def _assert_integer_ends(f, want):
    """The integer fiv f has the ends of the Fraction fiv want, in lowest
    terms with positive denominators, and its flags."""
    assert (f[2], f[5]) == (want[1], want[3])
    for n, d, end in ((f[0], f[1], want[0]), (f[3], f[4], want[2])):
        assert type(n) is int and type(d) is int
        assert d > 0 and gcd(n, d) == 1 and F(n, d) == end


_LOWEST_SPACES = (LineSpace(), UnitIntervalSpace(),
                  PiecewiseSpace([(0, F(1, 3)), (F(1, 2), 1)], name="gap"))


@settings(PROPERTY, max_examples=300)
@given(interval_codes, rationals, rationals)
@example(encode_interval(F(-1), F(2)), 0, 1)
@example(encode_interval(F(1, 3), F(1, 2)), F(-1), 2)
def test_integer_ends_are_the_fraction_ends_in_lowest_terms(n, a, b):
    """Every end that fiv, cfiv and trace give, of decoded basics and of
    hand-built descriptions with int and Fraction ends, is the Fraction end
    in lowest terms: FivUnion tells an unchanged union by tuple equality."""
    descs = [tuple(sorted((a, b)))]
    for space in _LOWEST_SPACES:
        d = space.decode(n)
        for u, v in descs + ([d] if d is not None else []):
            if isinstance(space, PiecewiseSpace):
                want = [f for f in (_ref_clamp(u, v, p, q, 1) for p, q in space.pieces)
                        if f[0] < f[2]]
            else:
                lo, hi = space.lo_bound, space.hi_bound
                _assert_integer_ends(space.fiv((u, v)), _ref_clamp(u, v, lo, hi, 1))
                _assert_integer_ends(space.cfiv((u, v)), _ref_clamp(u, v, lo, hi, 0))
                want = [_ref_clamp(u, v, lo, hi, 1)]
            got = space.trace((u, v))
            assert len(got) == len(want), (space.name, u, v)
            for f, w in zip(got, want):
                _assert_integer_ends(f, w)


def test_line_point_name_soundness_and_completeness():
    line = LineSpace()
    x = point_from_rational(line, F(0))
    listing = x.neighborhoods.listing(3000)
    assert listing, "neighborhood listing must be nonempty"
    for n in listing:
        a, b = line.decode(n)
        assert a < 0 < b
    # stage bound S0 for a specific neighborhood, frozen from a recorded run
    target = encode_interval(F(-1, 2), F(1, 2))
    s0 = next(s for s in range(1, 5000) if target in x.neighborhoods.listing(s))
    assert target in x.neighborhoods.listing(s0)
    assert s0 <= target + 1


def test_unit_interval_point_name_contains_quarter_interval():
    ui = UnitIntervalSpace()
    x = point_from_rational(ui, F(1, 2))
    target = encode_interval(F(1, 4), F(3, 4))
    # derived stage bound: run the enumerator and record the first stage
    s0 = next(s for s in range(1, 20000) if target in x.neighborhoods.listing(s))
    assert s0 == 6  # recorded: the generated lane emits (1/2 - 1/4, 1/2 + 1/4) at slot 2
    assert s0 <= target + 1  # and the filter lane bounds it in any case


def test_line_point_name_never_lists_wrong_basic():
    line = LineSpace()
    x = point_from_rational(line, F(2, 3))
    wrong = encode_interval(F(0), F(1, 2))
    assert wrong not in x.neighborhoods.listing(max(3000, wrong + 10))


def test_point_out_of_space():
    ui = UnitIntervalSpace()
    with pytest.raises(OutOfSpace):
        point_from_rational(ui, F(3, 2))


def test_line_base_completeness_property():
    # every rational x and interval around it gets a sub-basic within stage 10^4
    line = LineSpace()
    rng = random.Random(5)
    for _ in range(20):
        num = rng.randint(-8, 8)
        den = rng.randint(1, 6)
        x = F(num, den)
        r = F(1, rng.randint(1, 4))
        name = point_from_rational(line, x)
        found = False
        for n in name.neighborhoods.listing(10 ** 4):
            a, b = line.decode(n)
            if x - r <= a and b <= x + r:
                found = True
                break
        assert found, (x, r)


def test_unit_interval_trace_subset():
    ui = UnitIntervalSpace()
    # (-1, 1/2) and (-2, 1/2) trace to the same set [0, 1/2)
    d1 = (F(-1), F(1, 2))
    d2 = (F(-2), F(1, 2))
    assert ui.basic_subset(d1, d2) and ui.basic_subset(d2, d1)
    assert ui.basic_subset((F(0), F(1, 2)), d1)
    assert not ui.basic_subset(d1, (F(0), F(1, 2)))  # 0 in lhs only


# -- cantor ---------------------------------------------------------------------

def test_cantor_point_name():
    c = CantorSpace()
    x = cantor_point(c, "000", "0")  # the all-zero sequence
    listing = x.neighborhoods.listing(200)
    assert word_rank("0") in listing
    assert word_rank("00") in listing
    assert word_rank("1") not in listing
    assert word_rank("01") not in listing


def test_cantor_subset_disjoint():
    c = CantorSpace()
    assert c.basic_subset("010", "01")
    assert not c.basic_subset("01", "010")
    assert not c.basic_meets_cdesc("00", ("01",))
    assert c.basic_meets_cdesc("0", ("01",))


def test_cantor_meets_matches_shared_leaves():
    # two cylinders of depth at most 3 meet when they share a leaf at depth 3
    c = CantorSpace()
    words = [""] + [format(i, "b").zfill(k) for k in range(1, 4) for i in range(2 ** k)]

    def leaves(w):
        return {v for v in words if len(v) == 3 and v.startswith(w)}

    for d in words:
        for w in words:
            assert c.basic_meets_cdesc(d, (w,)) == bool(leaves(d) & leaves(w))


CANTOR_WORDS = [""] + [format(i, "b").zfill(k) for k in range(1, 4) for i in range(2 ** k)]


def cantor_leaves(words) -> set[str]:
    """The cylinders of depth 3 inside the union of the cylinders ``words``
    (each of length at most 3): two such unions are equal exactly when
    their leaf sets are."""
    return {v for v in CANTOR_WORDS if len(v) == 3 and any(v.startswith(w) for w in words)}


@PROPERTY
@given(st.lists(st.sampled_from(CANTOR_WORDS), max_size=5),
       st.lists(st.sampled_from(CANTOR_WORDS), max_size=5))
def test_cantor_intersection_and_union_match_depth3_leaves(ws1, ws2):
    """The exact intersection and union that ``intersect_closed_compact``
    and ``union_compact`` take from ``cdesc_intersect`` and
    ``cdesc_union`` hold the leaves that both or either description holds,
    and come back prefix-reduced."""
    c = CantorSpace()
    c1, c2 = c.make_cdesc(ws1), c.make_cdesc(ws2)
    meet = intersect_closed_compact(closed_from_cdesc(c, c1), compact_from_cdesc(c, c2)).cdesc
    join = union_compact(compact_from_cdesc(c, c1), compact_from_cdesc(c, c2)).cdesc
    assert cantor_leaves(meet) == cantor_leaves(c1) & cantor_leaves(c2)
    assert cantor_leaves(join) == cantor_leaves(c1) | cantor_leaves(c2)
    assert meet == c.make_cdesc(meet) and join == c.make_cdesc(join)


def test_cantor_region_split_cover():
    c = CantorSpace()
    r = c.region()
    r.add("0")
    assert not r.covers_cdesc(("",))
    r.add("1")
    assert r.covers_cdesc(("",))


# -- star -------------------------------------------------------------------------

def test_star_distances_exact():
    assert star_distance(INF, (3, F(1, 4))) == F(3, 8)
    assert star_distance((2, F(1, 2)), (2, F(1, 4))) == F(1, 4)
    assert star_distance((1, F(1, 10)), (2, F(1, 5))) == F(21, 20)


def test_star_metric_axioms_random():
    star = StarSpace()
    rng = random.Random(42)

    def rand_point():
        if rng.random() < 0.2:
            return INF
        return (rng.randint(0, 5), F(rng.randint(0, 8), 8))

    for _ in range(500):
        p, q, r = rand_point(), rand_point(), rand_point()
        dpq = star_distance(p, q)
        assert dpq == star_distance(q, p)
        assert (dpq == 0) == (p == q)
        assert dpq <= star_distance(p, r) + star_distance(r, q)


def test_star_point_name_and_basics():
    star = StarSpace()
    x = star_point(star, INF)
    listing = x.neighborhoods.listing(500)
    assert listing
    for n in listing:
        d = star.decode(n)
        assert star.point_in_basic(INF, d)


def test_star_ball_subset_sound():
    star = StarSpace()
    d1 = ("ball", (3, F(1, 4)), F(1, 8))
    d2 = ("ball", (3, F(1, 4)), F(1, 2))
    assert star.basic_subset(d1, d2)
    assert not star.basic_subset(d2, d1)


def test_star_pinch():
    star = StarSpace()
    v = ("ball", (2, F(1, 2)), F(1, 8))
    p = ("ball", (2, F(1, 2)), F(1, 2))
    k = star.local_pinch(v, p)
    assert k == (("seg", 2, F(3, 8), F(5, 8)),)
    # no pinch around the center
    vc = ("ball", INF, F(1, 8))
    pc = ("ball", INF, F(1, 2))
    assert star.local_pinch(vc, pc) is None


# -- qhat -----------------------------------------------------------------------

def test_qhat_tokens_infinity():
    toks = qhat_point_tokens(INF)
    first = list(toks.listing(100))
    assert len(first) == 100
    vals = [t[1] for t in first]
    assert all(t[0] == "EXCLUDE" for t in first)
    assert len(set(vals)) == 100
    assert ("STOP",) not in first


def test_qhat_tokens_rational_with_exclusions():
    toks = qhat_point_tokens(F(1, 2), exclusions=3)
    ts = list(toks.listing(10))
    assert [t[0] for t in ts[:3]] == ["EXCLUDE"] * 3
    assert ts[3] == ("STOP",)
    assert all(t[0] == "INTERVAL" for t in ts[4:])
    a, b = ts[4][1], ts[4][2]
    assert a < F(1, 2) < b


def test_qhat_exclusions_never_contain_the_point():
    toks = qhat_point_tokens(F(1, 2), exclusions=50)
    ts = list(toks.listing(50))
    assert F(1, 2) not in [t[1] for t in ts]


def test_qhat_point_names():
    qhat = QhatSpace()
    inf_name = qhat_point_name(qhat, INF)
    listing = inf_name.neighborhoods.listing(400)
    assert listing
    for n in listing:
        d = qhat.decode(n)
        assert d[0] == "cof"
    half = qhat_point_name(qhat, F(1, 2), exclusions=2)
    listing = half.neighborhoods.listing(2000)
    assert any(qhat.decode(n)[0] == "iv" for n in listing)
    for n in listing:
        assert qhat.point_in_basic(F(1, 2), qhat.decode(n))


def test_qhat_subset_and_disjoint_rules():
    qhat = QhatSpace()
    iv = ("iv", F(0), F(1))
    iv2 = ("iv", F(-1), F(2))
    cof = ("cof", frozenset({F(5)}))
    cof2 = ("cof", frozenset({F(5), F(7)}))
    assert qhat.basic_subset(iv, iv2)
    assert qhat.basic_subset(iv, cof)       # 5 is outside (0, 1)
    assert not qhat.basic_subset(iv2, ("cof", frozenset({F(1, 2)})))
    assert qhat.basic_subset(cof2, cof)
    assert not qhat.basic_subset(cof, cof2)
    assert not qhat.basic_subset(cof, iv)


def test_qhat_region_covers_whole_space():
    qhat = QhatSpace()
    r = qhat.region()
    r.add(("cof", frozenset({F(0), F(1)})))
    assert not r.covers_cdesc(("all",))
    r.add(("iv", F(-1), F(2)))
    assert r.covers_cdesc(("all",))


def _qhat_covers_whole(basics) -> bool:
    """Closed form: finitely many basics cover Q-hat when one of them is
    cofinite, for the point at infinity, and each rational that every
    cofinite one excludes lies in an interval trace."""
    cofs = [d[1] for d in basics if d[0] == "cof"]
    if not cofs:
        return False
    return all(any(d[0] == "iv" and d[1] < q < d[2] for d in basics)
               for q in frozenset.intersection(*cofs))


def test_qhat_whole_compact_inside_finite_unions_of_basics():
    bundle = registry_get("qhat")
    qhat, whole = bundle.space, bundle.whole_compact()
    cases = [[("cof", frozenset())],
             [("cof", frozenset({F(0), F(1)})), ("iv", F(-1), F(2))],
             [("cof", frozenset({F(0)}))],
             [("cof", frozenset({F(0), F(1)})), ("iv", F(-1), F(1))],
             [("iv", F(-5), F(5))]]
    assert [_qhat_covers_whole(basics) for basics in cases] == [True, True, False, False, False]
    for basics in cases:
        u = open_union(qhat, [open_of_basic(qhat, qhat.encode_basic(d)) for d in basics])
        got = run_process(compact_subset(whole, u), 2000)
        assert isinstance(got, Accepted) == _qhat_covers_whole(basics), basics
    # every listed cover covers, and the one basic that covers alone is the
    # full cofinite basic
    covers = whole.covers.listing(400)
    assert all(_qhat_covers_whole([qhat.decode(n) for n in f]) for f in covers)
    assert {n for f in covers if len(f) == 1 for n in f} == {qhat.encode_cof(frozenset())}


def test_qhat_compacts_meet_every_basic():
    """Both kinds of compact description hold the point at infinity and
    all but finitely many rationals, so their overt names list every basic;
    each is checked on a witness point."""
    qhat = QhatSpace()
    for cdesc in (("all",), ("cof", frozenset({F(0), F(1, 2), F(1, 4)}))):
        excluded = cdesc[1] if cdesc[0] == "cof" else frozenset()
        hits = overt_from_cdesc(qhat, cdesc).hits.listing(300)
        assert hits == [n for n in range(300) if qhat.decode(n) is not None]
        for n in hits:
            d = qhat.decode(n)
            witness = INF if d[0] == "cof" else next(
                q for q in (d[1] + (d[2] - d[1]) * F(j, 5) for j in (1, 2, 3, 4))
                if q not in excluded)
            assert qhat.point_in_basic(witness, d)


# The overt seed lanes and the first 4,096 stages of the overt names of six
# descriptions, recorded when each seed code was still built through
# Fractions: the unit interval with dyadic ends, non-dyadic ends, a singleton
# and two pieces, the real line, and a description cut into two pieces by a
# gap in the carrier.
SEED_LANES_SHA256 = "4041a8a9ef55dbb46e22046d9b8969d0242e40c3b822dc6081ee98fe1955f6bb"


def test_overt_seed_lanes_and_names_are_pinned():
    ui, line = UnitIntervalSpace(), LineSpace()
    gap = PiecewiseSpace([(0, F(1, 3)), (F(1, 2), 1)], name="two-pieces")
    cases = [(ui, [(0, F(1, 2))]), (ui, [(F(1, 3), F(2, 3))]),
             (ui, [(F(1, 4), F(1, 4))]), (ui, [(0, F(1, 8)), (F(1, 2), F(3, 4))]),
             (line, [(1, 2)]), (gap, [(F(1, 4), F(3, 4))])]
    h = hashlib.sha256()
    for space, pieces in cases:
        cdesc = space.make_cdesc(pieces)
        seeds = list(space.overt_seeds(cdesc))
        hits = list(overt_from_cdesc(space, cdesc).hits.listing(4096))
        h.update(repr((space.name, cdesc, seeds, hits)).encode())
    assert h.hexdigest() == SEED_LANES_SHA256


# The envelope covers of thirteen descriptions at slots 0 .. 64, recorded
# while each cover was still built through Fractions: the unit interval whole,
# with dyadic and non-dyadic ends, two singletons and two multi-piece
# descriptions (one mixing singletons and a piece), the real line with one
# piece, a singleton, three pieces and huge ends, and a description cut into
# two pieces by a gap in the carrier.
ENVELOPE_COVERS_SHA256 = "1ef69aebfbcc788ce13eb56e694561d1a5ee3a212593d0a2d6cb3de3b2ccf4cd"


def test_envelope_covers_are_pinned():
    ui, line = UnitIntervalSpace(), LineSpace()
    gap = PiecewiseSpace([(0, F(1, 3)), (F(1, 2), 1)], name="two-pieces")
    cases = [(ui, [(0, 1)]), (ui, [(0, F(1, 2))]), (ui, [(F(1, 3), F(2, 3))]),
             (ui, [(F(1, 4), F(1, 4))]), (ui, [(F(2, 7), F(2, 7))]),
             (ui, [(0, F(1, 8)), (F(1, 2), F(3, 4))]),
             (ui, [(0, 0), (F(1, 5), F(2, 9)), (1, 1)]),
             (line, [(1, 2)]), (line, [(F(-3, 7), F(5, 11))]), (line, [(-2, -2)]),
             (line, [(-5, -1), (0, F(1, 3)), (F(7, 2), 9)]),
             (line, [(F(-10**12, 3), F(10**12 + 1, 7))]),
             (gap, [(F(1, 4), F(3, 4))])]
    h = hashlib.sha256()
    for space, pieces in cases:
        cdesc = space.make_cdesc(pieces)
        for slot in range(65):
            covers = space.envelope_covers(cdesc, slot)
            h.update(repr((space.name, cdesc, slot,
                           [sorted(c) for c in covers])).encode())
    assert h.hexdigest() == ENVELOPE_COVERS_SHA256


@settings(PROPERTY, max_examples=300)
@given(st.sampled_from([LineSpace(), UnitIntervalSpace()]), rationals, rationals)
@example(UnitIntervalSpace(), -1, 2)
@example(UnitIntervalSpace(), F(1, 2), F(1, 3))
@example(UnitIntervalSpace(), F(3, 2), 2)
def test_one_piece_cdesc_equals_the_general_path(space, p, q):
    """The patch of one piece, clamped with no sort, is the description the
    sorting merge of every piece list gives: equal ends, all Fractions."""
    got = space.make_cdesc([(p, q)])
    assert got == _LineSubspace.make_cdesc(space, [(p, q)])
    assert all(type(end) is Fraction for piece in got for end in piece)


def test_all_basics_enumerates_valid_indices_only():
    for space in (LineSpace(), UnitIntervalSpace(), CantorSpace(), StarSpace(), QhatSpace()):
        basics = space.all_basics()
        for n in basics.listing(300):
            assert space.decode(n) is not None
