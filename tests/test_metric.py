from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

import pytest

from erctopo.ercs import (
    Ercs,
    basis_search,
    check_main_property,
    compact_neighborhood_search,
    interval_ercs,
    whole_space_compact,
)
from erctopo.kernel import Accepted, PENDING, run_process, unpair
from erctopo.metric import (
    BoundsReal,
    ball_open,
    cl_ball_overt,
    closed_ball_closed,
    compact_ball,
    distance_to_located,
    ercs_from_compact_ball,
    exact_metric_point,
    hausdorff_distance,
    _within,
    nice_radius,
    radius,
    _Hull,
)
from erctopo.spaces import _CoverCells
from erctopo.oracle import lift_finite, standard_oracle_spaces
from erctopo.sets import (
    ClosedSet,
    CompactSet,
    LocatedSet,
    OvertSet,
    closed_from_cdesc,
    compact_from_cdesc,
    compact_subset,
    intersect_closed_compact,
    located_from_cdesc,
    member_open,
    open_from_fixture,
    overt_from_cdesc,
    whole_open,
)
from erctopo.kernel import enumerate_function
from erctopo.spaces import (
    INF,
    LineSpace,
    MetricStructure,
    OutOfSpace,
    PiecewiseSpace,
    StarSpace,
    UnitIntervalSpace,
    encode_interval,
    point_from_rational,
    star_point,
)

from test_spaces import int_fiv

F = Fraction

_line = LineSpace()
_line_ercs = interval_ercs(_line)
_ui = UnitIntervalSpace()
_ui_ercs = interval_ercs(_ui)
_UI_WHOLE_HINT = (encode_interval(F(-1), F(2)),)


def _accepts(p, fuel=10 ** 4):
    return isinstance(run_process(p, fuel), Accepted)


def _undescribed(a: LocatedSet) -> LocatedSet:
    """The same closed and overt names with every description dropped, so
    that the bound streams read the names alone."""
    return LocatedSet(ClosedSet(a.closed_part.complement),
                      OvertSet(a.space, a.overt_part.hits))


def _bracket_contains(real, k, value, fuel=None):
    got = real.approx(k, fuel)
    assert got is not None, "precision request ran out of fuel"
    lo, hi = got
    assert hi - lo <= F(1, 2 ** k)
    assert lo <= value <= hi, (lo, hi, value)


# -- exact real plumbing -----------------------------------------------------------

def test_bounds_real_nested_and_converging():
    real = BoundsReal(enumerate_function(
        lambda t: (F(1) - F(1, t + 1), F(1) + F(1, t + 1))))
    prev = None
    for k in (2, 4, 6):
        lo, hi = real.approx(k)
        assert hi - lo <= F(1, 2 ** k)
        assert lo <= F(1) <= hi
        if prev:
            assert prev[0] <= lo and hi <= prev[1]
        prev = (lo, hi)


def test_exact_point_finds_its_dense_index_at_the_first_cauchy_read():
    calls = []
    m = _ui.metric
    counted = MetricStructure(_ui, m.dense, lambda q: calls.append(q) or m.dense_index(q),
                              m.exact)
    for q in (F(0), F(1, 3), F(5, 7), F(1)):
        x = exact_metric_point(counted, q)
        assert not calls
        assert [m.dense(x.cauchy(k)) for k in range(4)] == [q] * 4
        assert calls == [q]
        calls.clear()
    with pytest.raises(OutOfSpace):
        exact_metric_point(counted, F(3, 2))


# -- balls in three roles ------------------------------------------------------------

def test_ball_open_contains_inner_basic():
    x = exact_metric_point(_ui.metric, F(1, 2))
    u = ball_open(_ui.metric, x, F(1, 4))
    target = encode_interval(F(3, 8), F(5, 8))
    assert target in u.parts.listing(10 ** 3)


def test_ball_open_covering_whole_interval():
    x = exact_metric_point(_ui.metric, F(1, 2))
    u = ball_open(_ui.metric, x, F(2, 3))
    for q in (F(0), F(1)):
        probe = point_from_rational(_ui, q)
        assert _accepts(member_open(probe, u))


def test_ball_open_soundness():
    x = exact_metric_point(_ui.metric, F(1, 2))
    u = ball_open(_ui.metric, x, F(1, 4))
    wrong = encode_interval(F(-1), F(1))  # trace [0, 1) around 0, radius 1
    assert wrong not in u.parts.listing(max(3000, wrong + 10))


def test_ball_open_respects_closed_clamp_ends():
    """On the unit interval the trace of (-1, 1/2) is [0, 1/2): it holds 0,
    at distance exactly 1/2 from 1/2, so it is not inside B(1/2, 1/2)."""
    ball = ball_open(_ui.metric, exact_metric_point(_ui.metric, F(1, 2)), F(1, 2))
    assert encode_interval(F(-1), F(1, 2)) not in ball.parts.listing(5000)
    assert member_open(point_from_rational(_ui, 0), ball).poll(5000) is None


def test_closed_ball_closed_complement_covers_outside_point():
    x = exact_metric_point(_line.metric, F(0))
    a = closed_ball_closed(_line.metric, x, F(1))
    probe = point_from_rational(_line, F(3, 2))
    assert _accepts(member_open(probe, a.complement), 10 ** 3)


def test_closed_ball_zero_radius_is_singleton():
    x = exact_metric_point(_line.metric, F(0))
    a = closed_ball_closed(_line.metric, x, F(0))
    for q in (F(1, 7), F(-2, 5), F(1)):
        probe = point_from_rational(_line, q)
        assert _accepts(member_open(probe, a.complement))


def test_cl_ball_overt_hits():
    from erctopo.sets import open_of_basic, overt_meets
    x = exact_metric_point(_ui.metric, F(1, 2))
    v = cl_ball_overt(_ui.metric, x, F(1, 4))
    near = encode_interval(F(5, 8) - F(1, 100), F(5, 8) + F(1, 100))
    assert _accepts(overt_meets(v, open_of_basic(_ui, near)))
    # soundness: everything listed truly meets the open ball
    for n in v.hits.listing(3000):
        a, b = _ui.decode(n)
        assert b > F(1, 4) and a < F(3, 4)
    far = encode_interval(F(9, 10) - F(1, 100), F(9, 10) + F(1, 100))
    v2 = cl_ball_overt(_ui.metric, x, F(1, 4))
    assert run_process(overt_meets(v2, open_of_basic(_ui, far)), 10 ** 4) is PENDING


def test_ball_ops_oracle_exact():
    fs = standard_oracle_spaces()[3]  # 3-point discrete
    space, e = lift_finite(fs)
    x = exact_metric_point(space.metric, "a")
    u = ball_open(space.metric, x, F(1, 2))
    listed = {space.decode(n) for n in u.parts.listing(10 ** 3)}
    assert listed == {frozenset({"a"})}
    a = closed_ball_closed(space.metric, x, F(1, 2))
    co = {space.decode(n) for n in a.complement.parts.listing(10 ** 3)}
    assert co == {d for d in (space.decode(i) for i in range(7)) if "a" not in d}
    v = cl_ball_overt(space.metric, x, F(1, 2))
    hits = {space.decode(n) for n in v.hits.listing(10 ** 3)}
    assert hits == {d for d in (space.decode(i) for i in range(7)) if "a" in d}


# -- compact balls ---------------------------------------------------------------------

def test_compact_ball_unit_interval():
    x = exact_metric_point(_ui.metric, F(1, 2))
    got = compact_ball(_ui_ercs, _ui.metric, x, 10 ** 4)
    assert got is not None
    n, k = got
    target = ball_open(_ui.metric, x, F(1, 2 ** n) + F(1, 100))
    assert _accepts(compact_subset(k, target))


def test_compact_ball_two_point_oracle():
    fs = standard_oracle_spaces()[1]  # two points at distance 1
    space, e = lift_finite(fs)
    x = exact_metric_point(space.metric, "a")
    got = compact_ball(e, space.metric, x, 10 ** 5)
    assert got is not None
    n, k = got
    want = frozenset({"a"}) if n >= 1 else frozenset({"a", "b"})
    for o in (frozenset({"a"}), frozenset({"a", "b"})):
        expect = want <= o
        assert _accepts(compact_subset(k, open_from_fixture(space, o)), 10 ** 5) == expect


def test_star_compact_ball_search_at_center_pending():
    star = StarSpace()
    x = star_point(star, INF)
    proc = compact_neighborhood_search(star, x, whole_open(star))
    assert run_process(proc, 10 ** 4) is PENDING


def test_star_compact_search_on_arm_accepts():
    star = StarSpace()
    x = star_point(star, (2, F(1, 2)))
    proc = compact_neighborhood_search(star, x, whole_open(star))
    assert isinstance(run_process(proc, 10 ** 4), Accepted)


def test_star_exact_point_is_named_by_star_point():
    star = StarSpace()
    for p in (INF, (0, F(1, 2)), (3, F(1, 4)), (1, F(1))):
        name, want = exact_metric_point(star.metric, p).name, star_point(star, p)
        assert name.value == want.value
        assert name.neighborhoods.listing(500) == want.neighborhoods.listing(500)


def test_star_metric_has_no_ball_calculus():
    """star's metric has its dense sequence and exact distances only, so a
    ball on it is a domain error, found before any name is built."""
    star = StarSpace()
    x = exact_metric_point(star.metric, (2, F(1, 2)))
    for ball in (ball_open, cl_ball_overt, closed_ball_closed):
        with pytest.raises(OutOfSpace, match="no ball calculus"):
            ball(star.metric, x, 1)


# -- system from compact balls -------------------------------------------------------------

def _ui_compact_ball_provider():
    whole = compact_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1))]))

    def cb(m: int):
        center = exact_metric_point(_ui.metric, _ui.metric.dense(m))
        ball = closed_ball_closed(_ui.metric, center, F(1))
        return 0, intersect_closed_compact(ball, whole)

    return cb


def test_ercs_from_compact_ball_r_soundness():
    from erctopo.spaces import fiv_subset
    e2 = ercs_from_compact_ball(_ui.metric, _ui_compact_ball_provider())
    listed = e2.r_stream.listing(4000)
    assert listed
    for code, kid in listed:
        d = _ui.decode(code)
        assert d is not None
        patch = e2.compact_cdesc(kid)
        hull = int_fiv((patch[0][0], 0, patch[-1][1], 0))
        assert fiv_subset(_ui.fiv(d), hull), (d, patch)


def test_ercs_from_compact_ball_main_property():
    e2 = ercs_from_compact_ball(_ui.metric, _ui_compact_ball_provider())
    u = open_from_fixture(_ui, (F(1, 4), F(3, 4)))
    probes = [point_from_rational(_ui, q) for q in (F(1, 2), F(3, 8), F(5, 8))]
    reports = check_main_property(e2, u, probes, 10 ** 5)
    for rep in reports:
        assert rep.closed
        a, b = _ui.decode(rep.witness.n)
        assert a < rep.probe.value < b
        patch = e2.compact_cdesc(rep.witness.kid)
        assert all(F(1, 4) < p and q < F(3, 4) for p, q in patch)


def test_ercs_from_compact_ball_u_and_k_streams():
    """Stage t = pair(n, i) of the u stream lists the ball B(dense(n), 2**-i)
    whenever it is a basic; the k stream lists the kid t at stage t."""
    e2 = ercs_from_compact_ball(_ui.metric, _ui_compact_ball_provider())
    for t in range(400):
        n, i = unpair(t)
        x, r = _ui.metric.dense(n), F(1, 2 ** i)
        want = [] if _ui.decode(encode_interval(x - r, x + r)) is None else [(x - r, x + r)]
        assert [_ui.decode(c) for c in e2.u_stream.between(t, t + 1)] == want
    assert e2.k_stream.listing(400) == list(range(400))


def _without_descriptions(e: Ercs) -> Ercs:
    """The same system with no patch description: a basis search then
    certifies each patch by running ``compact_subset`` on its value."""
    return Ercs(e.space, e.u_stream, e.k_stream, e.r_stream,
                lambda kid: None, e.compact_value)


def test_basis_search_certifies_undescribed_patches():
    u = open_from_fixture(_ui, (F(1, 4), F(3, 4)))
    balls = ercs_from_compact_ball(_ui.metric, _ui_compact_ball_provider())
    for e, probes in ((interval_ercs(_ui), (F(1, 2), F(3, 8))), (balls, (F(1, 2),))):
        bare = _without_descriptions(e)
        for q in probes:
            w = basis_search(bare, point_from_rational(_ui, q), u, 10 ** 5)
            assert w is not None and bare.compact_cdesc(w.kid) is None
            a, b = _ui.decode(w.n)
            assert a < q < b
            patch_inside = compact_subset(bare.compact_value(w.kid), u)
            assert isinstance(run_process(patch_inside, 10 ** 5), Accepted)
            # the described system finds the same basic
            assert w.n == basis_search(e, point_from_rational(_ui, q), u, 10 ** 5).n


# (system, probe) -> (stage, n, kid) of the basis search with no patch
# description, inside (1/4, 3/4), recorded while every uncertified patch
# process was polled again at every stage: stage numbers are answers
UNDESCRIBED_SEARCH_PIN = {
    ("interval", F(1, 2)): (1326, 653, 653),
    ("interval", F(3, 8)): (395, 197, 197),
    ("interval", F(5, 8)): (1326, 653, 653),
    ("balls", F(1, 2)): (971, 527427, 18),
    ("balls", F(3, 8)): (11545, 217383535, 69),
    ("balls", F(5, 8)): (34839, 482332495, 123),
}


def test_undescribed_basis_search_stages_are_pinned():
    for (kind, q), want in UNDESCRIBED_SEARCH_PIN.items():
        e = (interval_ercs(_ui) if kind == "interval" else
             ercs_from_compact_ball(_ui.metric, _ui_compact_ball_provider()))
        u = open_from_fixture(_ui, (F(1, 4), F(3, 4)))
        w = basis_search(_without_descriptions(e), point_from_rational(_ui, q), u, 10 ** 5)
        assert (w.stage, w.n, w.kid) == want, (kind, q)


# -- radius ----------------------------------------------------------------------------------

def test_radius_line_half():
    x = exact_metric_point(_line.metric, F(0))
    cd = _line.make_cdesc([(F(-1, 2), F(1, 2))])
    k = compact_from_cdesc(_line, cd)
    v = overt_from_cdesc(_line, cd)
    _bracket_contains(radius(_line.metric, x, k, v), 10, F(1, 2))


def test_radius_unit_interval_whole():
    x = exact_metric_point(_ui.metric, F(1, 2))
    cd = _ui.make_cdesc([(F(0), F(1))])
    k = compact_from_cdesc(_ui, cd)
    v = overt_from_cdesc(_ui, cd)
    _bracket_contains(radius(_ui.metric, x, k, v), 10, F(1, 2))


def test_radius_oracle_singleton_zero():
    fs = standard_oracle_spaces()[1]
    space, e = lift_finite(fs)
    x = exact_metric_point(space.metric, "a")
    cd = frozenset({"a"})
    k = compact_from_cdesc(space, cd)
    v = overt_from_cdesc(space, cd)
    _bracket_contains(radius(space.metric, x, k, v), 10, F(0))


# -- nice radius -----------------------------------------------------------------------------

def test_nice_radius_gap_space_avoids_one():
    space = PiecewiseSpace([(F(0), F(0)), (F(1), F(2))], name="gap")
    x = exact_metric_point(space.metric, F(0))
    k = compact_from_cdesc(space, space.make_cdesc([(F(-3, 2), F(3, 2))]))
    real = nice_radius(space.metric, x, F(3, 2), k)
    got = real.approx(10)
    assert got is not None
    lo, hi = got
    assert 0 < lo <= hi < F(3, 2)
    assert hi < 1 or lo > 1  # the degenerate radius is excluded
    # decision oracle: in this space the only radius in (0, 3/2) with
    # cl B(0, d) != closed-ball(0, d) is d = 1
    assert all(d != 1 for d in (lo, hi))


def test_nice_radius_unit_interval_any():
    x = exact_metric_point(_ui.metric, F(0))
    k = compact_from_cdesc(_ui, _ui.make_cdesc([(F(-1, 2), F(1, 2))]))
    real = nice_radius(_ui.metric, x, F(1, 2), k)
    got = real.approx(8)
    assert got is not None
    lo, hi = got
    assert 0 < lo <= hi < F(1, 2)


def test_width_test_matches_the_power_of_two():
    widths = [F(0), F(-1, 3), F(1), F(3), F(1, 3), F(5, 1024), F(1, 1024),
              F(2 ** 70 + 1, 2 ** 140), F(7, 2 ** 64)]
    for w in widths:
        for k in range(160):
            assert _within(w, k) == (w <= F(2) ** -k), (w, k)


def test_huge_precision_is_pending_on_its_fuel():
    # a precision of 10**20 builds no power of two of that length: it reads
    # the same stages as any precision the brackets cannot reach
    x = exact_metric_point(_ui.metric, F(0))
    k = compact_from_cdesc(_ui, _ui.make_cdesc([(F(-1, 2), F(1, 2))]))
    assert nice_radius(_ui.metric, x, F(1, 2), k).approx(10 ** 20, fuel=64) is None
    located = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    x = exact_metric_point(_ui.metric, F(1, 4))
    real = distance_to_located(_ui.metric, _ui_ercs, x, located)
    assert real.approx(10 ** 20, fuel=64) is None


def test_nice_radius_oracle_property():
    fs = standard_oracle_spaces()[1]  # two points at distance 1
    space, e = lift_finite(fs)
    x = exact_metric_point(space.metric, "a")
    k = compact_from_cdesc(space, frozenset({"a", "b"}))
    real = nice_radius(space.metric, x, F(3, 2), k)
    got = real.approx(8)
    assert got is not None
    lo, hi = got
    assert 0 < lo <= hi < F(3, 2)
    assert hi < 1 or lo > 1
    # exhaustive check: closure of the open ball equals the closed ball for
    # every radius in the bracket (both differ only at radius exactly 1)
    for d in (lo, hi):
        open_ball = {p for p in fs.points if fs.distance("a", p) < d}
        closed_ball = {p for p in fs.points if fs.distance("a", p) <= d}
        assert (open_ball == closed_ball) == (d != 1)
        assert d != 1


# -- distance to located sets ---------------------------------------------------------------

def test_distance_line_unit_gap():
    x = exact_metric_point(_line.metric, F(0))
    a = located_from_cdesc(_line, _line.make_cdesc([(F(1), F(2))]))
    real = distance_to_located(_line.metric, _line_ercs, x, a)
    _bracket_contains(real, 10, F(1))


def test_distance_membership_zero():
    x = exact_metric_point(_line.metric, F(3, 2))
    a = located_from_cdesc(_line, _line.make_cdesc([(F(1), F(2))]))
    real = distance_to_located(_line.metric, _line_ercs, x, a)
    _bracket_contains(real, 10, F(0))


def test_distance_oracle_exhaustive():
    from erctopo.oracle import brute_distance
    fs = standard_oracle_spaces()[4]  # scalene 3-point metric
    space, e = lift_finite(fs)
    for x in fs.points:
        xp = exact_metric_point(space.metric, x)
        for a in space_subsets(fs):
            if not a:
                continue
            located = located_from_cdesc(space, a)
            real = distance_to_located(space.metric, e, xp, located, hi_seed=F(2))
            _bracket_contains(real, 10, brute_distance(fs, x, a))


def test_metric_brackets_match_brute_force_on_oracle_spaces():
    for fs in standard_oracle_spaces():
        if fs.metric_table is None:
            continue
        space, e = lift_finite(fs)
        m = space.metric
        hint = (2 ** len(fs.points) - 2,)  # the patch of all points
        sets = [a for a in space_subsets(fs) if a]
        for x in fs.points:
            xp = exact_metric_point(m, x)
            for a in sets:
                real = distance_to_located(m, e, xp, located_from_cdesc(space, a))
                _bracket_contains(real, 10, min(fs.distance(x, p) for p in a),
                                  fuel=10 ** 5)
            for r in sorted({fs.distance(x, q) for q in fs.points}):
                ball = frozenset(q for q in fs.points if fs.distance(x, q) <= r)
                real = radius(m, xp, compact_from_cdesc(space, ball),
                              overt_from_cdesc(space, ball))
                _bracket_contains(real, 10, r, fuel=10 ** 5)
        for a in sets:
            for b in sets:
                want = max(max(min(fs.distance(p, q) for q in b) for p in a),
                           max(min(fs.distance(p, q) for q in a) for p in b))
                real = hausdorff_distance(m, e, located_from_cdesc(space, a),
                                          located_from_cdesc(space, b), hint)
                _bracket_contains(real, 10, want, fuel=10 ** 5)


def test_undescribed_hausdorff_matches_brute_force_on_oracle_spaces():
    # without descriptions each hull is read off the enumerated covers
    # through cover_hull
    for fs in standard_oracle_spaces():
        if fs.metric_table is None:
            continue
        space, e = lift_finite(fs)
        hull, hulled = space.metric.cover_hull, []
        space.metric.cover_hull = lambda descs: hulled.append(descs) or hull(descs)
        hint = (2 ** len(fs.points) - 2,)
        sets = [a for a in space_subsets(fs) if a]
        for a in sets:
            for b in sets:
                want = max(max(min(fs.distance(p, q) for q in b) for p in a),
                           max(min(fs.distance(p, q) for q in a) for p in b))
                real = hausdorff_distance(space.metric, e,
                                          _undescribed(located_from_cdesc(space, a)),
                                          _undescribed(located_from_cdesc(space, b)), hint)
                _bracket_contains(real, 10, want, fuel=10 ** 5)
        assert hulled


def space_subsets(fs):
    from itertools import combinations
    return [frozenset(c) for k in range(len(fs.points) + 1)
            for c in combinations(fs.points, k)]


# -- Hausdorff distance ------------------------------------------------------------------------

def test_hausdorff_half():
    a = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    b = located_from_cdesc(_ui, _ui.make_cdesc([(F(1, 2), F(1))]))
    real = hausdorff_distance(_ui.metric, _ui_ercs, a, b, _UI_WHOLE_HINT)
    _bracket_contains(real, 10, F(1, 2))


def test_hausdorff_identity_zero():
    a = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1))]))
    b = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1))]))
    real = hausdorff_distance(_ui.metric, _ui_ercs, a, b, _UI_WHOLE_HINT)
    _bracket_contains(real, 10, F(0))


def test_hausdorff_two_singletons():
    a = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(0))]))
    b = located_from_cdesc(_ui, _ui.make_cdesc([(F(1), F(1))]))
    real = hausdorff_distance(_ui.metric, _ui_ercs, a, b, _UI_WHOLE_HINT, hi_seed=F(2))
    _bracket_contains(real, 10, F(1))


def test_hausdorff_symmetry_exact():
    import random
    rng = random.Random(23)
    for _ in range(10):
        p1 = sorted(F(rng.randint(0, 8), 8) for _ in range(2))
        p2 = sorted(F(rng.randint(0, 8), 8) for _ in range(2))
        a = located_from_cdesc(_ui, _ui.make_cdesc([tuple(p1)]))
        b = located_from_cdesc(_ui, _ui.make_cdesc([tuple(p2)]))
        d1 = hausdorff_distance(_ui.metric, _ui_ercs, a, b, _UI_WHOLE_HINT).approx(8)
        a2 = located_from_cdesc(_ui, _ui.make_cdesc([tuple(p1)]))
        b2 = located_from_cdesc(_ui, _ui.make_cdesc([tuple(p2)]))
        d2 = hausdorff_distance(_ui.metric, _ui_ercs, b2, a2, _UI_WHOLE_HINT).approx(8)
        assert d1 is not None and d2 is not None
        # symmetric up to bracket overlap around the common true value
        assert max(d1[0], d2[0]) <= min(d1[1], d2[1])


# -- bound streams, the race path and replay -----------------------------------------------

def _cover_radius2_brute(hull, cells):
    # twice the least max(y - a, b - y) is max(y2 - 2a, 2b - y2) at
    # y = y2 / 2; every breakpoint sits at an integer y2
    return max((min(max(y2 - 2 * a, 2 * b - y2) for a, b in cells)
                for p, q in hull for y2 in range(2 * p, 2 * q + 1)), default=0)


def test_cover_radius_matches_brute_force():
    """Cells arrive in batches, nested in or around cells already given,
    given twice, or outside the hull, and the hull changes between reads;
    every read equals the brute force on the cells given so far, less
    those let go by the tracker's width rule."""
    rng = random.Random(5)
    for _ in range(300):
        cover, cells = _CoverCells(), []
        for _ in range(rng.randint(1, 5)):
            batch = []
            for _ in range(rng.randint(0, 6)):
                kind = rng.random()
                if cells and kind < 0.2:
                    batch.append(rng.choice(cells))
                elif cells and kind < 0.4:
                    a, b = rng.choice(cells)
                    lo, hi = rng.randint(-2, 2), rng.randint(-2, 2)
                    batch.append((min(a + lo, b - hi), b - hi))
                else:
                    a = rng.randint(-10, 30)
                    batch.append((a, a + rng.randint(0, 8)))
            cells += batch
            cover.add(list(batch))
            ends = sorted(rng.sample(range(0, 24), 4))
            hull = [(ends[0], ends[1]), (ends[2], ends[3])][:rng.randint(0, 2)]
            want = _cover_radius2_brute(hull, cells) if cells else None
            assert cover.radius2(hull) == want, (hull, cells)
            # an antichain: both ends strictly increasing, every cell given
            held = cover.cells
            assert all(u[0] < v[0] and u[1] < v[1] for u, v in zip(held, held[1:]))
            assert set(held) <= set(cells)
            if want is not None and rng.random() < 0.5:
                cells = [(a, b) for a, b in cells if b - a < want]
                cover.drop_wider(want)


class _LineCellsFromScratch:
    """The bounds a line space's Hausdorff tracker must give, recomputed
    from scratch in exact Fractions at every read.  A cell is held from the
    read that first sees it, measured against that read's hull, until it is
    at least twice as wide as an upper bound read; the upper bound is found
    among the hull ends and the points where the distance functions of two
    held cells cross."""

    def __init__(self, space):
        self.space = space
        self.held = {}
        self.new = []
        self.lower = F(0)

    def add(self, indices):
        for n in indices:
            if n not in self.held and n not in self.new:
                self.new.append(n)

    def bounds(self, hull):
        for n in self.new:
            trace = self.space.trace(self.space.decode(n))
            a, b = self.held[n] = F(trace[0][0], trace[0][1]), F(trace[-1][3], trace[-1][4])
            self.lower = max(self.lower, min((max(a - q, p - b) for p, q in hull),
                                             default=F(0)))
        self.new = []
        if not self.held:
            return self.lower, None
        spans = set(self.held.values())
        ys = [y for p, q in hull
              for y in [p, q] + [(a + b) / 2 for a, _ in spans for _, b in spans]
              if p <= y <= q]
        upper = max((min(max(y - a, b - y) for a, b in spans) for y in ys), default=F(0))
        self.held = {n: (a, b) for n, (a, b) in self.held.items() if b - a < 2 * upper}
        return self.lower, upper


class _OracleCellsFromScratch:
    """The bounds an oracle space's Hausdorff tracker must give, recomputed
    from every cell fed at every read."""

    def __init__(self, space):
        self.space = space
        self.cells = []

    def add(self, indices):
        for n in indices:
            if n not in self.cells:
                self.cells.append(n)

    def bounds(self, hull):
        space = self.space
        descs = [space.decode(n) for n in self.cells]
        lower = max((min((space.metric.near(z, c) for z in hull), default=F(0)) for c in descs),
                    default=F(0))
        if not descs:
            return lower, None
        return lower, max((min(space.metric.far(z, c) for c in descs) for z in hull),
                          default=F(0))


def _check_tracker(space, pool, hulls, reference, rng, trials=40):
    for _ in range(trials):
        cells, want, hull = space.metric.hausdorff_cells(), reference(space), rng.choice(hulls)
        fed = []
        for _ in range(rng.randint(1, 6)):
            batch = [rng.choice(fed if fed and rng.random() < 0.3 else pool)
                     for _ in range(rng.randint(0, 8))]
            fed += batch
            if rng.random() < 0.5:
                hull = rng.choice(hulls)
            cells.add(batch)
            want.add(batch)
            assert cells.bounds(hull) == want.bounds(hull), (space, hull, fed)


def test_hausdorff_cells_match_from_scratch():
    """Every read of every space's tracker equals the bounds recomputed
    from scratch on the cells fed so far, with hull changes between reads:
    the unit interval and a two-piece space on dyadic cells and hulls, where
    the 2**-64 grid is exact, and every metric oracle space."""
    rng = random.Random(8)
    sixteenths = [F(k, 16) for k in range(-4, 21)]
    for space in (_ui, PiecewiseSpace([(F(0), F(1, 4)), (F(1, 2), F(1))], name="gap")):
        pool = [n for n in (encode_interval(*sorted(rng.sample(sixteenths, 2)))
                            for _ in range(60)) if space.decode(n) is not None]
        hulls = [space.make_cdesc(sorted([tuple(sorted(rng.sample(sixteenths, 2)))
                                          for _ in range(rng.randint(1, 2))]))
                 for _ in range(8)]
        _check_tracker(space, pool, hulls, _LineCellsFromScratch, rng)
    for fs in standard_oracle_spaces():
        if fs.metric_table is None:
            continue
        space, _ = lift_finite(fs)
        _check_tracker(space, list(range(space.finite_basic_count)),
                       space_subsets(fs), _OracleCellsFromScratch, rng)
    # Two cases of a cell fed again, with hull changes between the reads.
    # A cell let go at one read, fed again after a later read with a larger
    # upper bound, is held afresh and sets the last upper bound.  A cell fed
    # again while still held, after an earlier read let cells of its width
    # go, is not measured again: its gap to the last hull would raise the
    # lower bound.
    wide, narrow, right, near = [encode_interval(a, b) for a, b in (
        (F(0), F(1, 2)), (F(1, 8), F(1, 4)), (F(3, 4), F(1)), (F(1, 2), F(9, 16)))]
    point, upper_half, zero = (((F(3, 16), F(3, 16)),), ((F(1, 2), F(1)),),
                               ((F(0), F(0)),))
    for steps in ([([wide, narrow, right, near], point), ([], upper_half),
                   ([wide], upper_half), ([], zero)],
                  [([narrow, near], point), ([right], upper_half), ([right], zero)]):
        cells, want = _ui.metric.hausdorff_cells(), _LineCellsFromScratch(_ui)
        for batch, hull in steps:
            cells.add(batch)
            want.add(batch)
            assert cells.bounds(hull) == want.bounds(hull), (steps, hull)


def test_streamed_brackets_sound_at_every_stage():
    x = exact_metric_point(_ui.metric, F(5, 16))
    ball = _ui.make_cdesc([(F(1, 16), F(9, 16))])
    pieces = _ui.make_cdesc([(F(1, 2), F(5, 8)), (F(7, 8), F(1))])
    other = _ui.make_cdesc([(F(0), F(1, 4))])
    cases = [
        (radius(_ui.metric, x, compact_from_cdesc(_ui, ball),
                overt_from_cdesc(_ui, ball)), F(1, 4)),
        (distance_to_located(_ui.metric, _ui_ercs, x,
                             located_from_cdesc(_ui, pieces)), F(3, 16)),
        (hausdorff_distance(_ui.metric, _ui_ercs, located_from_cdesc(_ui, pieces),
                            located_from_cdesc(_ui, other), _UI_WHOLE_HINT), F(3, 4)),
    ]
    for real, want in cases:
        assert isinstance(real, BoundsReal)
        widths = []
        for stage in range(1, 3000, 37):
            got = real.bracket(stage)
            if got is not None:
                assert got[0] <= want <= got[1], (stage, got, want)
                widths.append(got[1] - got[0])
        assert widths and widths == sorted(widths, reverse=True)
        _bracket_contains(real, 10, want)


class _RunningSides:
    """Reference reading of a bracket's two sides, each its own listing:
    the largest lower bound and the smallest upper bound seen by a stage,
    every bound asked for with no running best."""

    def __init__(self, lower: Callable[[int], list], upper: Callable[[int], list],
                 lo=F(0)):
        self._lower, self._upper = lower, upper
        self.lo, self.hi = lo, None

    def read(self, t: int) -> None:
        for b in self._lower(t):
            if b is not None and (self.lo is None or b > self.lo):
                self.lo = b
        for b in self._upper(t):
            if b is not None and (self.hi is None or b < self.hi):
                self.hi = b

    def bracket(self):
        if self.lo is None or self.hi is None:
            return None
        if self.lo > self.hi:
            mid = (self.lo + self.hi) / 2
            return (mid, mid)
        return (self.lo, self.hi)


def _radius_sides(space, xv, k, v):
    hits, covers = v.hits.cursor(), k.covers.cursor()

    def widest(cover):
        fars = [space.metric.far(xv, space.decode(n)) for n in cover]
        return None if None in fars else max(fars, default=F(0))

    return _RunningSides(
        lambda t: [space.metric.near(xv, space.decode(n)) for n in hits.upto(t + 1)],
        lambda t: [widest(c) for c in covers.upto(t + 1)])


def _distance_sides(space, xv, a):
    parts, hits = a.closed_part.complement.parts.cursor(), a.overt_part.hits.cursor()
    clear = space.metric.clearance(xv)
    return _RunningSides(
        lambda t: [clear(space.decode(n)) for n in parts.upto(t + 1)],
        lambda t: [space.metric.far(xv, space.decode(n)) for n in hits.upto(t + 1)])


def _hausdorff_sides(space, a, b, whole):
    # each direction: one set's hull, the hits of the other, their tracker,
    # read at the stages 0, 1, 3, 7, ... as the brackets read them
    sides = [(_Hull(space.metric, intersect_closed_compact(a.closed_part, whole)),
              b.overt_part.hits.cursor(), space.metric.hausdorff_cells()),
             (_Hull(space.metric, intersect_closed_compact(b.closed_part, whole)),
              a.overt_part.hits.cursor(), space.metric.hausdorff_cells())]
    highs: list = []

    def lows(t: int) -> list:
        # the lower bound of both directions, and their upper bounds kept
        # for the upper side, which reads the same stage next
        highs.clear()
        if t & (t + 1):
            return []
        got = []
        for hull, hits, cells in sides:
            hull.read(t + 1)
            cells.add(hits.upto(t + 1))
            lo, hi = cells.bounds(hull.cdesc)
            got.append(lo)
            highs.append(hi)
        return [max(got)]

    return _RunningSides(
        lows, lambda t: [max(highs)] if highs and None not in highs else [], lo=None)


def test_bracket_is_the_best_of_each_sides_listing():
    """At every stage up to 3,000, the bracket read off the one stream of
    running bounds equals the largest lower and smallest upper bound of
    the two sides, each read as its own listing."""
    x = exact_metric_point(_ui.metric, F(5, 16))
    ball = _ui.make_cdesc([(F(1, 16), F(9, 16))])
    pieces = _ui.make_cdesc([(F(1, 2), F(5, 8)), (F(7, 8), F(1))])
    other = _ui.make_cdesc([(F(0), F(1, 4))])
    halves = (_ui.make_cdesc([(F(0), F(1, 2))]), _ui.make_cdesc([(F(1, 2), F(1))]))
    crossing = LocatedSet(
        closed_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 8))])),
        overt_from_cdesc(_ui, _ui.make_cdesc([(F(1, 2), F(1, 2))])))
    line_x = exact_metric_point(_line.metric, F(0))
    whole = whole_space_compact(_ui_ercs, _UI_WHOLE_HINT)

    def distance(m, space, x, a):
        return (distance_to_located(m, _ui_ercs, x, a), _distance_sides(space, x.value, a))

    def hausdorff(a, b):
        return (hausdorff_distance(_ui.metric, _ui_ercs, a, b, _UI_WHOLE_HINT),
                _hausdorff_sides(_ui, a, b, whole))

    cases = {
        "radius": (radius(_ui.metric, x, compact_from_cdesc(_ui, ball),
                          overt_from_cdesc(_ui, ball)),
                   _radius_sides(_ui, x.value, compact_from_cdesc(_ui, ball),
                                 overt_from_cdesc(_ui, ball))),
        "distance": distance(_ui.metric, _ui, x, located_from_cdesc(_ui, pieces)),
        "distance-undescribed": distance(_ui.metric, _ui, x,
                                         _undescribed(located_from_cdesc(_ui, pieces))),
        "distance-line": distance(_line.metric, _line, line_x, located_from_cdesc(
            _line, _line.make_cdesc([(F(1), F(2))]))),
        "distance-crossing": distance(_ui.metric, _ui, x, crossing),
        "hausdorff": hausdorff(located_from_cdesc(_ui, pieces),
                               located_from_cdesc(_ui, other)),
        "hausdorff-halves": hausdorff(*map(lambda c: located_from_cdesc(_ui, c), halves)),
        "hausdorff-undescribed": hausdorff(
            *map(lambda c: _undescribed(located_from_cdesc(_ui, c)), halves)),
    }
    for label, (real, sides) in cases.items():
        answered = 0
        for stage in range(1, 3001):
            sides.read(stage - 1)
            got = real.bracket(stage)
            assert got == sides.bracket(), (label, stage, got, sides.bracket())
            answered += got is not None
        assert answered > 2000, label


def test_streamed_bounds_that_cross_still_give_a_bracket():
    # the closed name says [0, 1/8], the overt name says {1/2}: the lower
    # bound from the complement (3/8) passes the upper bound from the hits
    closed = closed_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 8))]))
    overt = overt_from_cdesc(_ui, _ui.make_cdesc([(F(1, 2), F(1, 2))]))
    a = LocatedSet(closed, overt, cdesc=closed.cdesc)
    x = exact_metric_point(_ui.metric, F(1, 2))
    lo, hi = distance_to_located(_ui.metric, _ui_ercs, x, a).approx(10)
    assert lo == hi and 0 < lo < F(3, 8)


def _least_answering_fuel(fresh, k):
    """The least power of two at which a fresh real answers precision k."""
    fuel = 1
    while fresh().approx(k, fuel=fuel) is None:
        fuel *= 2
    assert fuel > 1, "the premise needs a fuel at which the real is Pending"
    return fuel


def test_distance_replay_same_fuel_same_answer():
    x = exact_metric_point(_ui.metric, F(0))

    def fresh():
        a = located_from_cdesc(_ui, _ui.make_cdesc([(F(1, 3), F(1, 2))]))
        return distance_to_located(_ui.metric, _ui_ercs, x, a)

    # endpoint cells close precision 10 at stage 1, so the premise asks 20
    short = _least_answering_fuel(fresh, 20) // 2
    assert fresh().approx(20, fuel=short) is None
    real = fresh()
    _bracket_contains(real, 20, F(1, 3), fuel=10 ** 5)
    assert real.approx(20, fuel=short) is None
    assert real.approx(16, fuel=short) == fresh().approx(16, fuel=short)


def test_hausdorff_replay_same_fuel_same_answer():
    def fresh():
        a = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
        b = located_from_cdesc(_ui, _ui.make_cdesc([(F(1, 2), F(1))]))
        return hausdorff_distance(_ui.metric, _ui_ercs, a, b, _UI_WHOLE_HINT)

    # endpoint cells close precision 10 at stage 2, so the premise asks 20
    short = _least_answering_fuel(fresh, 20) // 2
    assert fresh().approx(20, fuel=short) is None
    real = fresh()
    _bracket_contains(real, 20, F(1, 2), fuel=10 ** 5)
    assert real.approx(20, fuel=short) is None
    assert real.approx(16, fuel=short) == fresh().approx(16, fuel=short)


def test_race_replay_same_fuel_same_answer():
    x = exact_metric_point(_ui.metric, F(0))

    def fresh():
        a = located_from_cdesc(_ui, _ui.make_cdesc([(F(1, 3), F(1, 2))]))
        return distance_to_located(_ui.metric, _ui_ercs, x, _undescribed(a))

    # the streams close precision 6 at stage 1, so the premise asks 20
    short = _least_answering_fuel(fresh, 20) // 2
    assert fresh().approx(20, fuel=short) is None
    real = fresh()
    assert isinstance(real, BoundsReal)
    _bracket_contains(real, 20, F(1, 3), fuel=10 ** 5)
    assert real.approx(20, fuel=short) is None
    assert real.approx(16, fuel=short) == fresh().approx(16, fuel=short)


def test_answer_stage_is_the_least_answering_fuel():
    x = exact_metric_point(_ui.metric, F(0))

    def located():
        return located_from_cdesc(_ui, _ui.make_cdesc([(F(1, 3), F(1, 2))]))

    for fresh, k in [
        (lambda: distance_to_located(_ui.metric, _ui_ercs, x, located()), 20),
        (lambda: distance_to_located(_ui.metric, _ui_ercs, x,
                                     _undescribed(located())), 4),
    ]:
        got = fresh().approx(k, fuel=10 ** 5)
        assert 0 < got.stage < 10 ** 5
        real = fresh()
        assert real.approx(k, fuel=got.stage - 1) is None
        again = real.approx(k, fuel=got.stage)
        assert again == got and again.stage == got.stage


def test_center_without_exact_value_is_out_of_space():
    import pytest
    from erctopo.metric import MetricPoint
    from erctopo.spaces import OutOfSpace
    cd = _ui.make_cdesc([(F(0), F(1, 2))])
    x = MetricPoint(_ui.metric, lambda k: 0, point_from_rational(_ui, F(0)))
    with pytest.raises(OutOfSpace):
        distance_to_located(_ui.metric, _ui_ercs, x, located_from_cdesc(_ui, cd))
    with pytest.raises(OutOfSpace):
        radius(_ui.metric, x, compact_from_cdesc(_ui, cd), overt_from_cdesc(_ui, cd))
    for ball in (ball_open, closed_ball_closed, cl_ball_overt):
        with pytest.raises(OutOfSpace):
            ball(_ui.metric, x, F(1, 2))
    with pytest.raises(OutOfSpace):
        compact_ball(_ui_ercs, _ui.metric, x, 10 ** 4)


def test_nice_radius_on_every_finite_metric_fixture():
    """In a finite space an open ball is closed, so a radius is nice exactly
    when no point lies at that distance from the center: around every
    point, the bracket lies in (0, r) and holds no distance."""
    r = F(3, 2)
    for fs in standard_oracle_spaces():
        if fs.metric_table is None:
            continue
        space, _ = lift_finite(fs)
        k = compact_from_cdesc(space, frozenset(fs.points))
        for p in fs.points:
            x = exact_metric_point(space.metric, p)
            got = nice_radius(space.metric, x, r, k).approx(8, fuel=20_000)
            assert got is not None, (fs.name, p)
            lo, hi = got
            assert 0 < lo <= hi < r
            assert not any(lo <= fs.distance(p, q) <= hi for q in fs.points), (fs.name, p)


def test_distance_race_without_descriptions():
    for q, pieces, want in [
        (F(0), [(F(1, 3), F(1, 2))], F(1, 3)),
        (F(1, 4), [(F(0), F(1, 2))], F(0)),
        (F(1, 2), [(F(0), F(1, 8)), (F(3, 4), F(1))], F(1, 4)),
    ]:
        x = exact_metric_point(_ui.metric, q)
        a = _undescribed(located_from_cdesc(_ui, _ui.make_cdesc(pieces)))
        real = distance_to_located(_ui.metric, _ui_ercs, x, a)
        assert isinstance(real, BoundsReal)
        _bracket_contains(real, 8, want, fuel=10 ** 5)


def test_hausdorff_race_without_descriptions():
    for a_pieces, b_pieces, want in [
        ([(F(0), F(0))], [(F(1), F(1))], F(1)),
        ([(F(1, 4), F(1, 2))], [(F(1, 4), F(1, 2))], F(0)),
        ([(F(0), F(1, 4)), (F(3, 4), F(1))], [(F(1, 2), F(1, 2))], F(1, 2)),
    ]:
        a = _undescribed(located_from_cdesc(_ui, _ui.make_cdesc(a_pieces)))
        b = _undescribed(located_from_cdesc(_ui, _ui.make_cdesc(b_pieces)))
        real = hausdorff_distance(_ui.metric, _ui_ercs, a, b, _UI_WHOLE_HINT,
                                  hi_seed=F(2))
        assert isinstance(real, BoundsReal)
        _bracket_contains(real, 2, want, fuel=10 ** 5)


def test_radius_race_without_descriptions():
    x = exact_metric_point(_ui.metric, F(1, 4))
    cd = _ui.make_cdesc([(F(0), F(3, 4))])
    k = CompactSet(_ui, compact_from_cdesc(_ui, cd).covers)
    v = OvertSet(_ui, overt_from_cdesc(_ui, cd).hits)
    real = radius(_ui.metric, x, k, v)
    assert isinstance(real, BoundsReal)
    _bracket_contains(real, 6, F(1, 2), fuel=10 ** 5)
