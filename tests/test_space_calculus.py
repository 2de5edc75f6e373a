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
    encode_interval,
)

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
    if space.in_open_ball(x, d, r):
        assert max(dists) < r
    if space.outside_closed_ball(x, d, r):
        assert min(dists) > r
    assert space.meets_open_ball(x, d, r) == (min(dists) < r)
    assert space.near(x, d) == _infimum(space, d, x)
    assert space.far(x, d) == _supremum(space, d, x)


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
                assert space.near(x, d) == min(ds)
                assert space.far(x, d) == max(ds)
                for r in rs:
                    ball = {p for p in fs.points if dist(x, p) < r}
                    assert space.in_open_ball(x, d, r) == all(v < r for v in ds)
                    assert space.outside_closed_ball(x, d, r) == all(v > r for v in ds)
                    assert space.meets_open_ball(x, d, r) == any(v < r for v in ds)
                    assert space.ball_inside_basic(x, r, d) == (ball <= d)


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
