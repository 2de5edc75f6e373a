"""The spaces' own ball calculus and basic encodings against brute force.

On subspaces of the line every ball test is checked pointwise on a fine
grid of points of the basic's trace (its closed clamp ends included), and
the infimum distance against the nearest grid point of the trace's
closure.  Endpoints, centers and radii are multiples of 1/12, so a grid of
step 1/48 meets every trace piece and every nonempty intersection of a
trace with a ball.  Finite oracle spaces are checked exhaustively.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from erctopo.oracle import lift_finite, standard_oracle_spaces
from erctopo.registry import registry_get
from erctopo.spaces import (
    LineSpace,
    PiecewiseSpace,
    UnitIntervalSpace,
    _cells,
    emission_slot,
    encode_interval,
)

from test_spaces import int_fiv

F = Fraction
PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)

_line = LineSpace()
_ui = UnitIntervalSpace()
_gap = PiecewiseSpace([(F(0), F(1, 3)), (F(1, 2), F(1))], name="gap")

_STEP = F(1, 48)
_GRID = [k * _STEP for k in range(-100, 101)]
rationals = st.fractions(min_value=-2, max_value=2, max_denominator=4)
radii = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)


@st.composite
def line_basics(draw):
    space = draw(st.sampled_from([_line, _ui, _gap]))
    a, b = draw(rationals), draw(rationals)
    d = space.decode(encode_interval(min(a, b), max(a, b)))
    assume(d is not None)
    return space, d


def _in_basic(space, d, y) -> bool:
    """Membership straight from the definition of a trace."""
    return space.in_carrier(y) and d[0] < y < d[1]


def _points(space, d) -> list[Fraction]:
    return [y for y in _GRID if _in_basic(space, d, y)]


def _infimum(space, d, x) -> Fraction:
    """Least distance from x to a grid point of the closure of the trace:
    a grid point lies in the closure when it, or a point half a grid step
    away, lies in the trace."""
    h = _STEP / 2
    return min(abs(x - c) for c in _GRID
               if any(_in_basic(space, d, c + e) for e in (0, -h, h)))


def _supremum(space, d, x) -> Fraction:
    """The largest distance from x to a grid point of the trace's closure."""
    h = _STEP / 2
    return max(abs(x - c) for c in _GRID
               if any(_in_basic(space, d, c + e) for e in (0, -h, h)))


@PROPERTY
@given(line_basics(), rationals, radii)
@example((_ui, (F(-1), F(1, 2))), F(1, 2), F(1, 2))
@example((_ui, (F(1, 2), F(2))), F(0), F(1))
@example((_gap, (F(1, 3), F(3, 4))), F(0), F(1, 2))
def test_line_ball_calculus_against_brute_force(basic, x, r):
    space, d = basic
    assume(space.in_carrier(x))
    dists = [abs(y - x) for y in _points(space, d)]
    assert dists, d
    if space.metric.in_open_ball(x, d, r):
        assert max(dists) < r
    assert space.metric.meets_open_ball(x, d, r) == (min(dists) < r)
    assert space.metric.near(x, d) == _infimum(space, d, x)
    assert space.metric.far(x, d) == _supremum(space, d, x)


bests = st.one_of(st.none(), st.fractions(min_value=-1, max_value=4, max_denominator=8))


@PROPERTY
@given(line_basics(), rationals, bests)
@example((_ui, (F(0), F(1, 2))), F(1, 4), F(1, 4))
@example((_gap, (F(1, 4), F(3, 4))), F(3, 8), F(1, 8))
def test_far_and_near_with_a_best_to_beat(basic, x, best):
    """With a best, far and near give the unbounded bound exactly when it
    strictly improves on the best (below it for far, above it for near),
    and None otherwise."""
    space, d = basic
    assume(space.in_carrier(x))
    far, near = space.metric.far(x, d), space.metric.near(x, d)
    assert space.metric.far(x, d, best) == (far if best is None or far < best else None)
    assert space.metric.near(x, d, best) == (near if best is None or near > best else None)


def test_oracle_ball_calculus_exhaustive():
    for fs in standard_oracle_spaces():
        if fs.metric_table is None:
            continue
        space, _ = lift_finite(fs)
        dist = space.metric.exact
        values = sorted({dist(p, q) for p in fs.points for q in fs.points})
        rs = [v for v in values if v > 0] + [(u + v) / 2 for u, v in zip(values, values[1:])]
        for x in fs.points:
            for n in range(space.finite_basic_count):
                d = space.decode(n)
                ds = [dist(x, p) for p in d]
                assert space.metric.near(x, d) == min(ds)
                assert space.metric.far(x, d) == max(ds)
                for best in values:
                    assert space.metric.far(x, d, best) in (None, max(ds))
                    assert space.metric.near(x, d, best) in (None, min(ds))
                    if max(ds) < best:
                        assert space.metric.far(x, d, best) == max(ds)
                    if min(ds) > best:
                        assert space.metric.near(x, d, best) == min(ds)
                for r in rs:
                    ball = {p for p in fs.points if dist(x, p) < r}
                    assert space.metric.in_open_ball(x, d, r) == all(v < r for v in ds)
                    assert space.metric.meets_open_ball(x, d, r) == any(v < r for v in ds)
                    assert space.metric.ball_inside_basic(x, r, d) == (ball <= d)


_REGISTERED = [registry_get(name).space
               for name in ("real-line", "unit-interval", "cantor", "star", "qhat")]


@PROPERTY
@given(st.sampled_from(_REGISTERED + [_gap]), st.integers(0, 10 ** 5))
def test_encode_basic_inverts_decode(space, n):
    d = space.decode(n)
    assume(d is not None)
    assert space.decode(space.encode_basic(d)) == d


def test_encode_basic_inverts_decode_on_oracles():
    for fs in standard_oracle_spaces():
        space, _ = lift_finite(fs)
        for n in range(space.finite_basic_count):
            assert space.encode_basic(space.decode(n)) == n


# -- prepared filters ------------------------------------------------------------

@PROPERTY
@given(line_basics(), rationals, rationals)
# the unit interval with the fixed basic clamped at one end or both, and a
# basic ending on a carrier end
@example((_ui, (F(-1), F(1, 2))), F(-1, 2), F(1, 4))
@example((_ui, (F(1, 2), F(2))), F(1, 2), F(3, 2))
@example((_ui, (F(-1), F(2))), F(0), F(1))
@example((_ui, (F(0), F(1))), F(-1), F(1))
def test_subset_lane_lists_the_basic_subsets(case, a, b):
    # without seeds, code n is listed, at stage n, exactly when its basic
    # is a basic_subset of the lane's basic
    space, d2 = case
    d1 = space.decode(encode_interval(min(a, b), max(a, b)))
    assume(d1 is not None)
    lane = space.subset_lane(d2, None)
    n1, n2 = space.encode_basic(d1), space.encode_basic(d2)
    assert (n1 in lane.listing(n1 + 1)) == space.basic_subset(d1, d2)
    assert n2 in lane.listing(n2 + 1)


def test_subset_lane_on_oracles():
    for fs in standard_oracle_spaces():
        space, _ = lift_finite(fs)
        count = space.finite_basic_count
        basics = [space.decode(n) for n in range(count)]
        for d2 in basics:
            lane = space.subset_lane(d2, None)
            assert list(lane.listing(count + 1)) == \
                [n for n, d1 in enumerate(basics) if space.basic_subset(d1, d2)]
            assert lane.quiescent(count + 1)


@PROPERTY
@given(line_basics(), st.lists(st.tuples(rationals, rationals), min_size=1, max_size=3))
# the unit interval with the basic clamped at a carrier end that a piece
# touches, pieces touching the basic's ends, and a piece in each part of
# the gap space
@example((_ui, (F(-1), F(1, 4))), [(F(0), F(0))])
@example((_ui, (F(3, 4), F(2))), [(F(1), F(1))])
@example((_ui, (F(1, 4), F(1, 2))), [(F(1, 2), F(3, 4))])
@example((_ui, (F(1, 4), F(1, 2))), [(F(0), F(1, 4))])
@example((_gap, (F(1, 4), F(3, 4))), [(F(0), F(1, 4)), (F(3, 4), F(1))])
def test_prepared_meets_test_matches_basic_meets_cdesc(case, pieces):
    space, d = case
    cdesc = space.make_cdesc([(min(u, v), max(u, v)) for u, v in pieces])
    assume(cdesc)
    meets = space.basic_meets_cdesc_test(cdesc)
    assert meets(d) == space.basic_meets_cdesc(d, cdesc)


def test_prepared_meets_test_on_oracles():
    for fs in standard_oracle_spaces():
        space, _ = lift_finite(fs)
        basics = [space.decode(n) for n in range(space.finite_basic_count)]
        points = sorted(fs.points)
        for mask in range(1, 1 << len(points)):
            cdesc = frozenset(p for i, p in enumerate(points) if mask >> i & 1)
            meets = space.basic_meets_cdesc_test(cdesc)
            assert [meets(d) for d in basics] == \
                [space.basic_meets_cdesc(d, cdesc) for d in basics]


@PROPERTY
@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=4),
       st.integers(0, 10 ** 4), st.integers(1, 10 ** 6))
@example([-3, 3, 9], 3, 24)  # an end at 0
def test_cells_give_the_codes_of_encode_interval(mids, half, den):
    want = [encode_interval(F(m - half, den), F(m + half, den)) for m in mids]
    assert list(_cells(mids, half, den)) == want


@settings(PROPERTY, max_examples=60)
@given(st.sampled_from([_line, _ui, _gap]), rationals)
@example(_ui, F(0))
@example(_ui, F(1))
@example(_gap, F(1, 3))
def test_point_filter_lists_the_basics_containing_the_point(space, q):
    assume(space.in_carrier(q))
    stages = 1500
    want = []
    for t in range(stages):
        s = emission_slot(t)
        if s is not None:
            eps = F(1, 2 ** s)
            want.append(encode_interval(q - eps, q + eps))
        d = space.decode(t)
        if d is not None and space.point_in_basic(q, d):
            want.append(t)
    assert list(space.point_name(q).neighborhoods.listing(stages)) == want


# a region of up to four basics and up to three closed pieces, None for a
# singleton; every end a quarter in [-2, 2], so that pieces often touch a
# component's end, open, or closed at a clamp end of the unit interval
# or of a piece of the gapped space
_basics = st.lists(st.tuples(rationals, rationals).filter(lambda ab: ab[0] != ab[1]),
                   max_size=4)
_pieces = st.lists(st.tuples(rationals, rationals | st.none()), max_size=3)


@PROPERTY
@given(st.sampled_from([_line, _ui, _gap]), _basics, _pieces)
@example(_line, [], [(F(0), F(1))])                     # the empty region
@example(_line, [], [])
@example(_line, [(F(0), F(1))], [(F(0), F(1, 2))])        # an open end at p
@example(_line, [(F(0), F(1))], [(F(1), None)])           # a singleton at an open end
@example(_ui, [(F(-1), F(1, 2))], [(F(0), F(1, 4))])      # a closed clamp end at p
@example(_ui, [(F(1, 2), F(2))], [(F(3, 4), F(1))])       # and at q
@example(_ui, [(F(0), F(1, 2)), (F(1, 4), F(2))], [(F(0), None), (F(1, 2), F(1))])
@example(_gap, [(F(-1), F(2))], [(F(0), F(1, 3)), (F(1, 2), F(1))])
@example(_gap, [(F(-1), F(1, 2))], [(F(1, 4), F(1, 2))])  # the trace ends at 1/3
def test_region_covers_pieces_on_integers_as_on_fractions(space, basics, pieces):
    region = space.region()
    for a, b in basics:
        d = space.decode(encode_interval(min(a, b), max(a, b)))
        if d is not None:
            region.add(d)
    cdesc = space.make_cdesc([(p, p) if q is None else (min(p, q), max(p, q))
                              for p, q in pieces])
    # the reference: each piece as a closed fiv against the union
    want = all(region.union.covers(int_fiv((p, 0, q, 0))) for p, q in cdesc)
    assert region.covers_cdesc(cdesc) == want


def test_region_covers_pieces_with_integer_ends():
    """Ends that are ints, not Fractions, are read with as_integer_ratio,
    as Fraction ends are."""
    region = _line.region()
    region.add((0, 2))
    assert region.covers_cdesc(((F(1, 2), 1), (1, 1)))
    assert not region.covers_cdesc(((0, 1),))
    assert not region.covers_cdesc(((1, 2),))
