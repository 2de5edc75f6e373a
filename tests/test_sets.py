from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

from hypothesis import example, given, settings
from hypothesis import strategies as st

from erctopo.kernel import Accepted, PENDING, run_process
from erctopo.oracle import standard_oracle_spaces
from erctopo.sets import (
    CompactSet,
    _steady_seeds,
    check_located_coherence,
    closed_from_cdesc,
    compact_from_cdesc,
    compact_subset,
    intersect_closed_compact,
    located_from_cdesc,
    member_open,
    not_subset,
    open_from_fixture,
    open_of_basic,
    open_union,
    overt_from_cdesc,
    overt_meets,
    union_compact,
)
from erctopo.spaces import (
    CantorSpace,
    LineSpace,
    PiecewiseSpace,
    UnitIntervalSpace,
    encode_interval,
    point_from_rational,
)

from oracle_harness import OracleFixture

F = Fraction
FUEL = 10 ** 4

_line = LineSpace()
_ui = UnitIntervalSpace()
_cantor = CantorSpace()
_small_oracle = OracleFixture(standard_oracle_spaces()[3])  # 3-point discrete


def _accepts(p, fuel=FUEL):
    return isinstance(run_process(p, fuel), Accepted)


def _strip(k: CompactSet) -> CompactSet:
    """Forget the exact description, forcing the generic code paths."""
    return CompactSet(k.space, k.covers, cdesc=None)


# -- member_open ----------------------------------------------------------------

def test_member_open_accepts_inside():
    x = point_from_rational(_line, F(0))
    u = open_from_fixture(_line, (F(-1), F(1)))
    res = run_process(member_open(x, u), FUEL)
    assert isinstance(res, Accepted)
    assert res.stage <= 16  # recorded fuel: the generated lanes meet at once


def test_member_open_outside_is_pending():
    x = point_from_rational(_line, F(2))
    u = open_from_fixture(_line, (F(-1), F(1)))
    assert run_process(member_open(x, u), FUEL) is PENDING


def test_member_open_oracle_exhaustive():
    fix = _small_oracle
    for p, name in fix.points.items():
        for o, u in fix.opens.items():
            got = _accepts(member_open(name, fix.fresh_open(o)), 10 ** 5)
            assert got == (p in o), (p, o)


# -- compact_subset ---------------------------------------------------------------

def test_compact_subset_interval_inside():
    k = compact_from_cdesc(_line, _line.make_cdesc([(F(1, 4), F(3, 4))]))
    u = open_from_fixture(_line, (F(0), F(1)))
    assert _accepts(compact_subset(k, u))


def test_compact_subset_generic_path_interval_inside():
    k = _strip(compact_from_cdesc(_line, _line.make_cdesc([(F(1, 4), F(3, 4))])))
    u = open_from_fixture(_line, (F(0), F(1)))
    assert _accepts(compact_subset(k, u))


def test_compact_subset_failing_containment_pending():
    k = compact_from_cdesc(_line, _line.make_cdesc([(F(0), F(1))]))
    u = open_from_fixture(_line, (F(0), F(1)))
    assert run_process(compact_subset(k, u), FUEL) is PENDING
    assert run_process(compact_subset(_strip(k), u), FUEL) is PENDING


def test_compact_subset_empty_compact_accepts():
    k = compact_from_cdesc(_line, _line.make_cdesc([]))
    u = open_from_fixture(_line, (F(5), F(6)))
    res = run_process(compact_subset(k, u), FUEL)
    assert isinstance(res, Accepted)
    res2 = run_process(compact_subset(_strip(k), u), FUEL)
    assert isinstance(res2, Accepted)


def test_compact_subset_oracle_exhaustive():
    fix = _small_oracle
    for a, k in fix.compacts.items():
        for o in fix.opens:
            got = _accepts(compact_subset(k, fix.fresh_open(o)), 10 ** 5)
            assert got == (a <= o), (a, o)


def test_cover_soundness_random_instances():
    rng = random.Random(99)
    for _ in range(60):
        p = F(rng.randint(-8, 8), rng.randint(1, 4))
        q = p + F(rng.randint(1, 8), rng.randint(1, 4))
        cdesc = _line.make_cdesc([(p, q)])
        k = compact_from_cdesc(_line, cdesc)
        for cover in k.covers.listing(400):
            region = _line.region()
            for n in cover:
                region.add(_line.decode(n))
            assert region.covers_cdesc(cdesc), (cdesc, cover)


def test_cover_soundness_random_cylinders():
    rng = random.Random(7)
    for _ in range(40):
        words = {format(rng.randrange(2 ** 3), "b").zfill(3)[: rng.randint(1, 3)]
                 for _ in range(rng.randint(1, 3))}
        cdesc = _cantor.make_cdesc(words)
        k = compact_from_cdesc(_cantor, cdesc)
        for cover in k.covers.listing(300):
            region = _cantor.region()
            for n in cover:
                region.add(_cantor.decode(n))
            assert region.covers_cdesc(cdesc), (cdesc, cover)


# -- overt_meets / not_subset -------------------------------------------------------

def test_overt_meets_ball_fixture():
    v = overt_from_cdesc(_ui, _ui.make_cdesc([(F(3, 8), F(5, 8))]))
    u = open_from_fixture(_ui, (F(1, 4), F(3, 4)))
    assert _accepts(overt_meets(v, u))


def test_overt_meets_disjoint_pending():
    v = overt_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 4))]))
    u = open_from_fixture(_ui, (F(1, 2), F(1)))
    assert run_process(overt_meets(v, u), FUEL) is PENDING


def test_overt_meets_oracle_exhaustive():
    fix = _small_oracle
    for a, v in fix.overts.items():
        for o in fix.opens:
            got = _accepts(overt_meets(v, fix.fresh_open(o)), 10 ** 5)
            assert got == bool(a & o), (a, o)


def test_not_subset_fixture():
    v = overt_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    a = closed_from_cdesc(_ui, _ui.make_cdesc([(F(1, 2), F(1))]))
    assert _accepts(not_subset(v, a))


def test_not_subset_contained_pending():
    v = overt_from_cdesc(_ui, _ui.make_cdesc([(F(1, 2), F(3, 4))]))
    a = closed_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1))]))
    assert run_process(not_subset(v, a), FUEL) is PENDING


def test_not_subset_oracle_exhaustive():
    fix = _small_oracle
    for a in fix.closed_subsets:
        for b in fix.closed_subsets:
            got = _accepts(not_subset(fix.overts[a],
                                      closed_from_cdesc(fix.space, b)), 10 ** 5)
            assert got == bool(a - b), (a, b)


# -- seed schedule of described interval sets ---------------------------------------

def _resolution_major_cells(cdesc):
    """The seed schedule the dovetailed one replaced, as (lo, hi) cells:
    every anchor grid 2**0 .. 2**-12 at half-width 2**-s, then the piece
    endpoints at 2**-13 .. 2**-48.  Kept as the bound on seeds per piece."""
    for slot in range(0, 13, 2):
        eps = F(1, 2 ** slot)
        grid = 2 ** slot
        for p, q in cdesc:
            step = (q - p) / grid
            anchors = (p + j * step for j in range(grid + 1)) if q > p else (p,)
            for anchor in anchors:
                yield anchor - eps, anchor + eps
    for slot in range(13, 49):
        eps = F(1, 2 ** slot)
        for p, q in cdesc:
            for anchor in sorted({p, q}):
                yield anchor - eps, anchor + eps


def _per_piece(cdesc, cells) -> list[int]:
    """How many cells are centered on each piece."""
    counts = [0] * len(cdesc)
    for lo, hi in cells:
        mid = (lo + hi) / 2
        counts[next(i for i, (p, q) in enumerate(cdesc) if p <= mid <= q)] += 1
    return counts


_gap = PiecewiseSpace([(F(0), F(1, 3)), (F(1, 2), F(1))], name="gap")
_seed_ends = (st.fractions(min_value=-1, max_value=2, max_denominator=12)
              | st.sampled_from([F(0), F(1), F(1, 3), F(1, 2)]))


@st.composite
def described_sets(draw):
    """Empty sets, singletons, non-dyadic endpoints and pieces clamped onto
    the carrier bounds, on the line, the unit interval and a two-piece
    carrier."""
    space = draw(st.sampled_from([_line, _ui, _gap]))
    pieces = []
    for _ in range(draw(st.integers(0, 2))):
        p = draw(_seed_ends)
        q = draw(st.just(p) | _seed_ends)
        pieces.append((min(p, q), max(p, q)))
    return space, space.make_cdesc(pieces)


@settings(max_examples=30, deadline=None, database=None, derandomize=True)
@given(described_sets())
@example((_ui, ()))
@example((_ui, ((F(0), F(0)), (F(1, 3), F(1)))))
@example((_gap, ((F(1, 3), F(1, 3)), (F(1, 2), F(5, 7)))))
def test_dovetailed_seeds_finite_sound_and_no_more_per_piece(described):
    space, cdesc = described
    reference = list(_resolution_major_cells(cdesc))
    seeds = list(islice(_steady_seeds(space, cdesc), len(reference) + 1))
    assert len(seeds) <= len(reference)  # finite, however many pieces
    cells = [space.decode(c) for c in seeds]
    assert all(d is not None and space.basic_meets_cdesc(d, cdesc) for d in cells)
    got, bound = _per_piece(cdesc, cells), _per_piece(cdesc, reference)
    assert all(g <= b for g, b in zip(got, bound)), (got, bound)
    eps = F(1, 2 ** 48)
    for p, q in cdesc:
        for x in (p, q):
            assert encode_interval(x - eps, x + eps) in seeds


def test_dovetailed_seeds_match_fraction_cells():
    """The integer-built seed codes are encode_interval's codes of the
    endpoint and grid cells."""
    cdesc = _line.make_cdesc([(F(-7, 3), F(-1, 9)), (F(2), F(2))])
    seeds = list(_steady_seeds(_line, cdesc))
    ends = [encode_interval(x - F(1, 2 ** s), x + F(1, 2 ** s))
            for s in range(13, 49) for p, q in cdesc for x in sorted({p, q})]
    grid = [encode_interval(p + j * (q - p) / 2 ** s - F(1, 2 ** (s + 1)),
                            p + j * (q - p) / 2 ** s + F(1, 2 ** (s + 1)))
            for s in range(0, 13, 2) for p, q in cdesc
            for j in range(2 ** s + 1 if q > p else 1)]
    assert sorted(seeds) == sorted(ends + grid)
    # one endpoint seed to three grid seeds while both lanes last
    assert seeds[:8] == [ends[0]] + grid[:3] + [ends[1]] + grid[3:6]


# -- intersect_closed_compact --------------------------------------------------------

def test_intersect_closed_compact_fixture():
    a = closed_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    k = compact_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1))]))
    meet = intersect_closed_compact(a, k)
    u = open_from_fixture(_ui, (F(-1, 4), F(3, 4)))
    assert _accepts(compact_subset(meet, u))


def test_intersect_closed_compact_generic_path():
    a = closed_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    a_stripped = type(a)(a.complement, cdesc=None)
    k = _strip(compact_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1))])))
    meet = intersect_closed_compact(a_stripped, k)
    u = open_from_fixture(_ui, (F(-1, 4), F(3, 4)))
    assert _accepts(compact_subset(meet, u), 3 * 10 ** 4)
    # and soundness: every emitted cover truly covers the intersection [0, 1/2]
    target = _ui.make_cdesc([(F(0), F(1, 2))])
    for cover in meet.covers.listing(2000):
        region = _ui.region()
        for n in cover:
            region.add(_ui.decode(n))
        assert region.covers_cdesc(target)


def test_intersect_with_empty_closed_set():
    # complement of the empty set covers the whole carrier
    a = closed_from_cdesc(_ui, _ui.make_cdesc([]))
    k = compact_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1))]))
    meet = intersect_closed_compact(a, k)
    res = run_process(compact_subset(meet, open_from_fixture(_ui, (F(5), F(6)))), FUEL)
    assert isinstance(res, Accepted)  # empty intersection fits anywhere


def test_intersect_closed_compact_oracle_exhaustive():
    fix = _small_oracle
    for a in fix.closed_subsets:
        for kset in fix.subsets:
            meet = intersect_closed_compact(closed_from_cdesc(fix.space, a),
                                            fix.compacts[kset])
            want = a & kset
            for o in fix.opens:
                got = _accepts(compact_subset(meet, fix.fresh_open(o)), 10 ** 5)
                assert got == (want <= o), (a, kset, o)


def test_intersect_closed_compact_covers_match_exhaustion_on_oracle():
    fix = _small_oracle
    space = fix.space
    a = frozenset({"a", "b"})
    kset = frozenset({"b", "c"})
    meet = intersect_closed_compact(closed_from_cdesc(space, a), fix.compacts[kset])
    want = a & kset
    fuel = 2 ** len(fix.fs.base) + 64
    got_covers = set(meet.covers.listing(fuel))
    expect = set()
    for code in range(2 ** len(fix.fs.base)):
        idxs = frozenset(i for i in range(len(fix.fs.base)) if code >> i & 1)
        if want <= frozenset().union(*[fix.fs.base[i] for i in idxs]) if idxs else not want:
            expect.add(idxs)
    assert got_covers == expect


# -- union_compact ---------------------------------------------------------------------

def test_union_compact_fixture():
    k1 = compact_from_cdesc(_line, _line.make_cdesc([(F(0), F(1, 4))]))
    k2 = compact_from_cdesc(_line, _line.make_cdesc([(F(1, 2), F(3, 4))]))
    u = open_from_fixture(_line, (F(-1), F(1)))
    assert _accepts(compact_subset(union_compact(k1, k2), u))


def test_union_compact_generic_path():
    k1 = _strip(compact_from_cdesc(_line, _line.make_cdesc([(F(0), F(1, 4))])))
    k2 = _strip(compact_from_cdesc(_line, _line.make_cdesc([(F(1, 2), F(3, 4))])))
    u = open_from_fixture(_line, (F(-1), F(1)))
    assert _accepts(compact_subset(union_compact(k1, k2), u), 3 * 10 ** 4)


def test_union_with_empty_is_observationally_identity():
    rng = random.Random(3)
    k = compact_from_cdesc(_ui, _ui.make_cdesc([(F(1, 4), F(1, 2))]))
    both = union_compact(k, compact_from_cdesc(_ui, _ui.make_cdesc([])))
    for _ in range(50):
        a = F(rng.randint(-4, 3), 4)
        b = a + F(rng.randint(1, 8), 4)
        u1 = open_from_fixture(_ui, (a, b))
        u2 = open_from_fixture(_ui, (a, b))
        assert _accepts(compact_subset(k, u1)) == _accepts(compact_subset(both, u2))


def test_union_compact_oracle_exhaustive():
    fix = _small_oracle
    for a in fix.subsets:
        for b in fix.subsets:
            un = union_compact(fix.compacts[a], fix.compacts[b])
            for o in fix.opens:
                got = _accepts(compact_subset(un, fix.fresh_open(o)), 10 ** 5)
                assert got == (a | b <= o), (a, b, o)


# -- open constructors --------------------------------------------------------------

def test_open_union_empty_enumerates_nothing():
    u = open_union(_line, [])
    assert tuple(u.parts.listing(200)) == ()


def test_open_union_contains_sources_quickly():
    n1 = encode_interval(F(0), F(1))
    n2 = encode_interval(F(1), F(2))
    u = open_union(_line, [open_of_basic(_line, n1), open_of_basic(_line, n2)])
    listed = u.parts.listing(2)
    assert n1 in listed and n2 in listed


def test_open_of_basic_constant_listing():
    n = encode_interval(F(0), F(1))
    u = open_of_basic(_line, n)
    assert tuple(u.parts.listing(1)) == (n,)
    assert tuple(u.parts.listing(50)) == (n,)


# -- located coherence ----------------------------------------------------------------

def test_located_coherence_on_fixtures():
    a = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    assert check_located_coherence(a, 2000)
    for sub in _small_oracle.locateds.values():
        assert check_located_coherence(sub, 10 ** 4)
