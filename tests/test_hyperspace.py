from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import product

from erctopo.ercs import cantor_ercs, interval_ercs
from erctopo.hyperspace import (
    ForallSearch,
    PrefixOracle,
    SpecBits,
    consistency_refute,
    empty_or_predicate,
    flipped_bits,
    forall_located,
    located_from_spec,
    located_from_truth,
    located_not_equal,
    meets_predicate,
    or_predicate,
    realized_bits,
    spec_from_located,
    subset_predicate,
)
from erctopo.kernel import Accepted, Machine, PENDING, enumerate_step, run_process
from erctopo.oracle import lift_finite, standard_oracle_spaces
from erctopo.sets import (
    LocatedSet,
    OvertSet,
    check_located_coherence,
    compact_from_cdesc,
    located_from_cdesc,
    member_open,
    open_from_fixture,
    overt_meets,
)
from erctopo.spaces import (
    CantorSpace,
    UnitIntervalSpace,
    encode_interval,
    point_from_rational,
    word_rank,
)

from oracle_harness import OracleFixture
from test_kernel import assert_fast_forward_twin
from test_spaces import first_listed_inside

F = Fraction

_ui = UnitIntervalSpace()
_ui_ercs = interval_ercs(_ui)
_cantor = CantorSpace()
_cantor_ercs = cantor_ercs(_cantor)
_oracle = OracleFixture(standard_oracle_spaces()[3])


def _accepts(p, fuel=10 ** 4):
    return isinstance(run_process(p, fuel), Accepted)


def _zero_bits():
    return SpecBits(lambda n: 0)


# -- consistency -------------------------------------------------------------------

def test_all_zero_spec_never_refuted():
    assert consistency_refute(_ui_ercs, _zero_bits(), 10 ** 4) is None
    assert consistency_refute(_cantor_ercs, _zero_bits(), 10 ** 4) is None


def test_cantor_root_one_children_zero_refuted():
    bits = SpecBits(lambda n: 1 if n == word_rank("") else 0)
    cond = consistency_refute(_cantor_ercs, bits, 10 ** 4)
    assert cond is not None
    assert _cantor.decode(cond.n) == ""
    assert {_cantor.decode(i) for i in cond.cover} == {"0", "1"}


def test_refutation_witness_reverifiable():
    bits = SpecBits(lambda n: 1 if n == word_rank("") else 0)
    cond = consistency_refute(_cantor_ercs, bits, 10 ** 4)
    # the condition re-verifies against independently replayed streams
    e2 = cantor_ercs(_cantor)
    assert (cond.n, cond.kid) in list(e2.r_stream.listing(10 ** 4))
    covers = e2.compact_value(cond.kid).covers
    assert cond.cover in list(covers.listing(10 ** 4))
    assert bits.bit(cond.n) == 1
    assert all(bits.bit(i) == 0 for i in cond.cover)


def test_realized_spec_not_refuted():
    bits = realized_bits(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    assert consistency_refute(_ui_ercs, bits, 10 ** 4) is None


def test_broken_spec_refuted_with_witness():
    cdesc = _ui.make_cdesc([(F(0), F(1, 4))])
    base = realized_bits(_ui, cdesc)
    # flip one far-away basic to touched: its closure is avoided by a cover
    lonely = encode_interval(F(1, 2), F(1))
    bits = flipped_bits(base, {lonely: 1})
    cond = consistency_refute(_ui_ercs, bits, 10 ** 5)
    assert cond is not None
    assert bits.bit(cond.n) == 1
    assert all(bits.bit(i) == 0 for i in cond.cover)


def test_oracle_consistency_matches_bruteforce():
    fix = OracleFixture(standard_oracle_spaces()[6])  # sierpinski, 2 basics
    e = fix.ercs
    count = fix.space.finite_basic_count
    consistent_assignments = []
    for values in product((0, 1), repeat=count):
        bits = SpecBits(lambda n, v=values: v[n] if n < count else 0)
        got = consistency_refute(e, bits, 10 ** 5)
        truth = _brute_consistent(fix, values)
        assert (got is None) == truth, values
        if truth:
            consistent_assignments.append(values)
    # consistent assignments realize exactly the closed subsets
    realized = set()
    for values in consistent_assignments:
        a = frozenset(p for p in fix.fs.points
                      if all(values[n] == 1
                             for n in range(count) if p in fix.fs.base[n]))
        spec = tuple(1 if fix.fs.base[n] & a else 0 for n in range(count))
        assert spec == values
        realized.add(a)
    assert realized == set(fix.closed_subsets)


def _brute_consistent(fix, values) -> bool:
    fs = fix.fs
    count = len(fs.base)
    subsets = [frozenset(c) for k in range(len(fs.points) + 1)
               for c in __import__("itertools").combinations(fs.points, k)]
    for n in range(count):
        if values[n] != 1:
            continue
        for kid_set in subsets:
            if not fs.base[n] <= kid_set:
                continue
            # every basic cover of the patch with all-zero bits refutes
            zero_union = frozenset().union(
                *[fs.base[i] for i in range(count) if values[i] == 0]) \
                if any(values[i] == 0 for i in range(count)) else frozenset()
            if kid_set <= zero_union:
                return False
    return True


# -- located sets from specs ---------------------------------------------------------

def test_located_from_all_zero_spec_is_empty():
    a = located_from_spec(_ui_ercs, _zero_bits())
    assert tuple(a.overt_part.hits.listing(2000)) == ()
    probe = point_from_rational(_ui, F(1, 2))
    assert _accepts(member_open(probe, a.closed_part.complement))


def test_located_from_realized_spec_unit_interval():
    bits = realized_bits(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    a = located_from_spec(_ui_ercs, bits)
    u = open_from_fixture(_ui, (F(1, 4), F(3, 4)))
    assert _accepts(overt_meets(a.overt_part, u), 3 * 10 ** 4)
    probe = point_from_rational(_ui, F(3, 4))
    assert _accepts(member_open(probe, a.closed_part.complement))
    assert check_located_coherence(a, 4000)


def test_located_from_spec_oracle_bijection():
    fix = _oracle
    e = fix.ercs
    for sub in fix.closed_subsets:
        bits = realized_bits(fix.space, sub)
        a = located_from_spec(e, bits)
        hits = {fix.space.decode(n) for n in a.overt_part.hits.listing(10 ** 4)}
        assert hits == {d for d in (fix.space.decode(i)
                                    for i in range(fix.space.finite_basic_count))
                        if d & sub}
        co = set()
        for n in a.closed_part.complement.parts.listing(10 ** 4):
            co |= fix.space.decode(n)
        assert co == frozenset(fix.fs.points) - sub


# -- truth sequences ------------------------------------------------------------------

def test_spec_from_empty_located_set_goes_zero():
    a = located_from_cdesc(_ui, _ui.make_cdesc([]))
    t = spec_from_located(_ui_ercs, a)
    for n in (encode_interval(F(0), F(1, 2)), encode_interval(F(1, 4), F(3, 4))):
        got = t.entry(n, 10 ** 4)
        assert got is not None and got[0] == "zero"


def test_spec_from_whole_located_set_goes_one():
    a = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1))]))
    t = spec_from_located(_ui_ercs, a)
    for n in (encode_interval(F(0), F(1, 2)), encode_interval(F(1, 4), F(3, 4))):
        got = t.entry(n, 10 ** 4)
        assert got is not None and got[0] == "one"


def test_spec_from_located_specific_zero():
    a = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    t = spec_from_located(_ui_ercs, a)
    n = encode_interval(F(3, 5), F(4, 5))
    got = t.entry(n, 10 ** 5)
    assert got is not None and got[0] == "zero"


def test_truth_entries_monotone_and_stable():
    a = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    t = spec_from_located(_ui_ercs, a)
    n = encode_interval(F(1, 4), F(3, 4))
    seen = None
    for fuel in (10, 100, 1000, 10 ** 4):
        got = t.entry(n, fuel)
        if seen is not None:
            assert got == seen
        if got is not None:
            seen = got
    assert seen is not None and seen[0] == "one"


# -- roundtrips -----------------------------------------------------------------------

def test_roundtrip_unit_interval_probes():
    a = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    t = spec_from_located(_ui_ercs, a)
    back = located_from_truth(_ui_ercs, t)
    u = open_from_fixture(_ui, (F(1, 4), F(3, 4)))
    assert _accepts(overt_meets(back.overt_part, u), 10 ** 5)
    probe = point_from_rational(_ui, F(3, 4))
    assert _accepts(member_open(probe, back.closed_part.complement), 10 ** 5)


# sha256 of the roundtrip of [0, 1/2] read to stage 2000, with the entry at
# 2000 of every basic the system lists below 2000 (522 of 545 resolve, three
# to zero); a one resolves at the stage of the first hit inside its basic
TRUTH_ROUNDTRIP_PIN = "c1d63bd182ee69c8516e9d9517e5ce7c535950fad505998ed46c04abb00d0b4a"


def test_truth_roundtrip_entries_are_pinned():
    a = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    t = spec_from_located(_ui_ercs, a)
    back = located_from_truth(_ui_ercs, t)
    co = back.closed_part.complement.parts.listing(2000)
    hits = back.overt_part.hits.listing(2000)
    late = [t.entry(encode_interval(p, q), 2000)
            for p, q in ((F(3, 5), F(4, 5)), (F(1, 3), F(2, 3)), (F(-1, 7), F(1, 9)))]
    assert late == [None, ("one", 1), ("one", 0)]
    entries = [(n, t.entry(n, 2000)) for n in _ui_ercs.u_stream.listing(2000)]
    resolved = [got for _, got in entries if got is not None]
    assert (len(co), len(hits), len(entries), len(resolved)) == (3, 448, 545, 522)
    assert sum(got[0] == "zero" for got in resolved) == 3
    digest = hashlib.sha256(repr((co, hits, entries)).encode()).hexdigest()
    assert digest == TRUTH_ROUNDTRIP_PIN


def test_truth_entries_work_is_pinned(monkeypatch):
    """Work pin of the 545 entries of the pinned roundtrip, read on a fresh
    truth sequence: the "one" side asks the one reader of the hits, which
    tests only the informative hits, in stage order, once its index says
    that one lies inside.  Measured: 6,969 ``basic_subset`` calls (155,064
    while each entry scanned the hits one by one).  The bound, a tenth of
    the scan's count, has a margin of 122% over the count."""
    t = spec_from_located(_ui_ercs, located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))])))
    codes = _ui_ercs.u_stream.listing(2000)
    subset, calls = _ui.basic_subset, [0]

    def counted(d1, d2):
        calls[0] += 1
        return subset(d1, d2)

    monkeypatch.setattr(_ui, "basic_subset", counted)
    entries = [t.entry(n, 2000) for n in codes]
    monkeypatch.undo()
    assert (len(entries), sum(got is not None for got in entries)) == (545, 522)
    assert calls[0] <= 15_506, calls


def brute_entry(t, n: int, fuel: int):
    """``TruthSequence.entry`` read off the listings of ``hits`` and
    ``zeros`` directly: the zero at the stage that lists n, the one at the
    first hit inside basic n up to that stage (on a tie too)."""
    sp = t.space
    d = sp.decode(n)
    if d is None:
        return None
    got, end = None, fuel
    zeros = list(t.zeros.listing(fuel))
    if n in zeros:
        s = t.zeros.stage_of(zeros.index(n))
        got, end = ("zero", s), s + 1
    s = first_listed_inside(t.hits, sp, d, end)
    return got if s is None else ("one", s)


_REPLAY_FIXTURES = {
    "[0,1/2]": [(F(0), F(1, 2))],
    "[1/4,3/4]": [(F(1, 4), F(3, 4))],
    "[0,1/3]+[2/3,1]": [(F(0), F(1, 3)), (F(2, 3), F(1))],
    "{1/2}": [(F(1, 2), F(1, 2))],
}


def test_truth_translation_replays_whatever_is_read_first():
    """The truth sequence and the located set it names back are functions
    of the stage: the listings at a stage, and every entry, are the same on
    a fresh translation and after another name was read further."""

    def fresh(pieces):
        t = spec_from_located(_ui_ercs, located_from_cdesc(_ui, _ui.make_cdesc(pieces)))
        return t, located_from_truth(_ui_ercs, t)

    def listings(back):
        return [(tuple(back.closed_part.complement.parts.listing(s)),
                 tuple(back.overt_part.hits.listing(s)))
                for s in (400, 1000, 2000, 3000)]

    asks = [(encode_interval(p, q), f)
            for p, q in ((F(0), F(1, 4)), (F(3, 5), F(4, 5)), (F(1, 3), F(2, 3)),
                         (F(1, 2), F(5, 8)), (F(7, 8), F(1)))
            for f in (50, 400, 3000)] + [(0, 4000), (1, 4000)]
    for label, pieces in _REPLAY_FIXTURES.items():
        want = listings(fresh(pieces)[1])
        t, back = fresh(pieces)
        back.overt_part.hits.listing(4000)
        assert listings(back) == want, (label, "hits first")
        # basic (b, b + 1/8) at the set's first upper end b never resolves,
        # so its entry reads both names of the sequence to 4000
        b = pieces[0][1]
        edge = encode_interval(b, b + F(1, 8))
        t, back = fresh(pieces)
        assert t.entry(0, 4000) is None and t.entry(edge, 4000) is None
        assert listings(back) == want, (label, "entry first")
        for n, f in asks + [(edge, 3000)]:
            assert t.entry(n, f) == fresh(pieces)[0].entry(n, f), (label, n, f)


def test_truth_entries_equal_their_brute_force_twin():
    """On every replay fixture, each entry equals the one read off the
    listings of the hits and zeros of another translation, for basics
    spread over the system's listing, the first zeros and invalid codes,
    at shuffled fuels asked in a shuffled order on one sequence."""
    rng = random.Random(26)
    codes = _ui_ercs.u_stream.listing(3000)[::8] + [0, 1]
    for label, pieces in _REPLAY_FIXTURES.items():
        def fresh():
            return spec_from_located(_ui_ercs, located_from_cdesc(_ui, _ui.make_cdesc(pieces)))
        t, ref = fresh(), fresh()
        zeros = ref.zeros.listing(3000)[:8]
        asks = [(n, fuel) for n in codes + zeros
                for fuel in rng.sample([0, 1, 50, 400, 1000, 3000, rng.randrange(3000)], 2)]
        asks += [(n, 3000) for n in zeros]
        rng.shuffle(asks)
        got = [t.entry(n, fuel) for n, fuel in asks]
        assert got == [brute_entry(ref, n, fuel) for n, fuel in asks], label
        assert {g[0] for g in got if g is not None} == {"one", "zero"}, label


def test_hits_named_back_equal_their_brute_force_twin():
    """The hits named back from a truth sequence list, below each stage s,
    each basic the system lists below s that the patch of some pair listed
    below s lies inside, where the pair's basic holds a hit of the sequence
    listed below s.  The sequences here read each fixture's hits 300
    stages late, so that many pairs arrive before their basic turns
    positive and wait for the count of informative hits to move."""
    sp, lag = _ui, 300
    for label, pieces in _REPLAY_FIXTURES.items():
        a = located_from_cdesc(sp, sp.make_cdesc(pieces))
        late = enumerate_step(lambda t, h=a.overt_part.hits:
                              h.between(t - lag, t - lag + 1) if t >= lag else ())
        t = spec_from_located(_ui_ercs, LocatedSet(a.closed_part, OvertSet(sp, late)))
        hits = located_from_truth(_ui_ercs, t).overt_part.hits
        for s in (350, 400, 500, 700, 1000, 1300):
            touched = {n for n, _ in _ui_ercs.r_stream.listing(s)}
            touched = {n for n in touched
                       if first_listed_inside(t.hits, sp, sp.decode(n), s) is not None}
            patches = {_ui_ercs.compact_cdesc(kid) for n, kid in _ui_ercs.r_stream.listing(s)
                       if n in touched}
            want = {u for u in _ui_ercs.u_stream.listing(s)
                    if any(sp.cdesc_in_basic(c, sp.decode(u)) for c in patches)}
            listed = hits.listing(s)
            assert len(listed) == len(want) and set(listed) == want, (label, s)


def test_roundtrip_empty_located_set():
    a = located_from_cdesc(_ui, _ui.make_cdesc([]))
    back = located_from_truth(_ui_ercs, spec_from_located(_ui_ercs, a))
    assert tuple(back.overt_part.hits.listing(3000)) == ()
    probe = point_from_rational(_ui, F(1, 2))
    assert _accepts(member_open(probe, back.closed_part.complement))


def test_roundtrip_oracle_exact_all_subsets():
    fix = _oracle
    for sub in fix.closed_subsets:
        a = fix.locateds[sub]
        back = located_from_truth(fix.ercs, spec_from_located(fix.ercs, a))
        hits = {fix.space.decode(n) for n in back.overt_part.hits.listing(10 ** 4)}
        want_hits = {d for d in (fix.space.decode(i)
                                 for i in range(fix.space.finite_basic_count))
                     if d & sub}
        assert hits == want_hits, sub
        co = set()
        for n in back.closed_part.complement.parts.listing(10 ** 4):
            co |= fix.space.decode(n)
        assert co == frozenset(fix.fs.points) - sub, sub


# -- Hausdorffness ---------------------------------------------------------------------

def test_located_not_equal_disjointish_halves():
    a = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    b = located_from_cdesc(_ui, _ui.make_cdesc([(F(1, 2), F(1))]))
    assert _accepts(located_not_equal(a, b))


def test_located_equal_pending():
    a = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    b = located_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1, 2))]))
    assert run_process(located_not_equal(a, b), 10 ** 4) is PENDING


def test_located_not_equal_oracle_pairs():
    fix = _oracle
    for a_set in fix.closed_subsets:
        for b_set in fix.closed_subsets:
            a = located_from_cdesc(fix.space, a_set)
            b = located_from_cdesc(fix.space, b_set)
            got = _accepts(located_not_equal(a, b), 10 ** 5)
            assert got == (a_set != b_set), (a_set, b_set)


# -- universal quantification -------------------------------------------------------------

_UI_WHOLE = compact_from_cdesc(_ui, _ui.make_cdesc([(F(0), F(1))]))


def _ui_outside(a: Fraction, b: Fraction):
    """Compact name of the part of the carrier outside the open trace."""
    return compact_from_cdesc(_ui, _ui.make_cdesc([(F(0), a), (b, F(1))]))


def test_forall_subset_of_widened_interval_accepted():
    pred = subset_predicate(_ui_ercs, _ui_outside(F(-1, 2), F(3, 2)))
    search = forall_located(_ui_ercs, pred)
    res = run_process(search, 10 ** 4)
    assert isinstance(res, Accepted)
    assert search.closing_depth == 0


def test_forall_meets_is_refused_by_empty_set():
    pred = meets_predicate(_ui_ercs, open_from_fixture(_ui, (F(2, 5), F(3, 5))))
    search = forall_located(_ui_ercs, pred)
    assert run_process(search, 2 * 10 ** 4) is PENDING


def test_forall_empty_or_meets_accepted_unit_interval():
    pred = empty_or_predicate(
        _ui_ercs, _UI_WHOLE,
        meets_predicate(_ui_ercs, open_from_fixture(_ui, (F(-1), F(2)))))
    search = forall_located(_ui_ercs, pred)
    res = run_process(search, 10 ** 6)
    assert isinstance(res, Accepted)
    assert search.closing_depth is not None


def test_forall_empty_or_meets_accepted_cantor():
    whole = compact_from_cdesc(_cantor, ("",))
    pred = empty_or_predicate(
        _cantor_ercs, whole,
        meets_predicate(_cantor_ercs, open_from_fixture(_cantor, "")))
    search = forall_located(_cantor_ercs, pred)
    res = run_process(search, 10 ** 5)
    assert isinstance(res, Accepted)


class ReferenceMeets(Machine):
    """The per-node ``meets`` process that the shared stream replaced, kept
    as a reference: each node holds its own region over the open's parts
    and its own read of the formal pairs, and accepts once a pair (n, kid)
    with n touched has its patch inside u."""

    def __init__(self, e, u, ones: set[int]) -> None:
        super().__init__()
        self.e = e
        self.space = e.space
        self._ones = ones
        self._region = self.space.region()
        self._region_version = -1
        self._kids: list[int] = []
        self._parts = u.parts.cursor()
        self._pairs = e.r_stream.cursor()

    def step(self, t: int) -> bool:
        for p in self._parts.upto(t + 1):
            self._region.add(self.space.decode(p))
        for n, kid in self._pairs.upto(t + 1):
            if n in self._ones:
                self._kids.append(kid)
                if self._kid_in(kid):
                    return True
        if self._region.version != self._region_version:
            self._region_version = self._region.version
            return any(self._kid_in(k) for k in self._kids)
        return False

    def _kid_in(self, kid: int) -> bool:
        cdesc = self.e.compact_cdesc(kid)
        return cdesc is not None and self._region.covers_cdesc(cdesc)


def test_shared_meets_accepts_where_the_per_node_reference_does():
    """On the unit interval and Cantor space, nodes built from one meets
    predicate share the pairs the open swallows; each accepts at the
    stage of its own reference, at every fuel of a sweep, whatever the
    nodes before it read."""
    fuels = [1, 2, 3, 4, 6, 9, 14, 21, 32, 48, 72, 108, 162, 243, 365, 548, 822,
             1233, 1850, 2775, 4163, 6245]
    cases = [(_ui, _ui_ercs, [(F(-1), F(2)), (F(1, 4), F(3, 4)), (F(0), F(1, 2)),
                              (F(0), F(1, 8))]),
             (_cantor, _cantor_ercs, ["", "0", "10", "011"])]
    rng = random.Random(18)
    outcomes = set()
    for space, e, opens in cases:
        pool = [n for n in range(3000) if space.decode(n) is not None]
        for o in opens:
            u = open_from_fixture(space, o)
            build = meets_predicate(e, u)
            inside = [n for n in pool if space.basic_subset(space.decode(n), o)]
            nodes = []
            for _ in range(12):
                # a few basics inside the open, so that narrow opens accept
                indices = sorted(set(rng.sample(pool, 10) + rng.sample(inside, min(4, len(inside)))))
                depth = rng.randrange(1, len(indices) + 1)
                bits = tuple(rng.randrange(2) for _ in range(depth))
                oracle = PrefixOracle(bits, tuple(indices[:depth]))
                nodes.append((build(oracle),
                              ReferenceMeets(e, u, set(oracle.one_indices())), bits))
            # later nodes start after earlier ones have read the stream far
            for shared, reference, bits in nodes:
                for fuel in fuels:
                    got = shared.poll(fuel)
                    assert got == reference.poll(fuel), (space.name, o, bits, fuel)
                outcomes.add(got is None)
    assert outcomes == {True, False}


def test_forall_oracle_agreement_with_bruteforce():
    fix = OracleFixture(standard_oracle_spaces()[3])
    e = fix.ercs
    space = fix.space
    opens = sorted(fix.fs.opens, key=sorted)
    rng = random.Random(31)
    whole = compact_from_cdesc(space, frozenset(fix.fs.points))

    def outside(o):
        return compact_from_cdesc(space, frozenset(fix.fs.points) - o)

    for trial in range(10):
        o1, o2 = rng.choice(opens), rng.choice(opens)
        kind = trial % 3
        if kind == 0:
            pred = subset_predicate(e, outside(o1))
            semantic = lambda a, o1=o1: a <= o1
        elif kind == 1:
            pred = empty_or_predicate(e, whole, meets_predicate(
                e, open_from_fixture(space, o2)))
            semantic = lambda a, o2=o2: (not a) or bool(a & o2)
        else:
            pred = or_predicate(subset_predicate(e, outside(o1)),
                                meets_predicate(e, open_from_fixture(space, o2)))
            semantic = lambda a, o1=o1, o2=o2: a <= o1 or bool(a & o2)
        truth = all(semantic(a) for a in fix.closed_subsets)
        got = isinstance(run_process(forall_located(e, pred), 2 * 10 ** 5), Accepted)
        assert got == truth, (trial, o1, o2, truth)


# -- pinned answers --------------------------------------------------------------

# criterion 8's broken specs: a realized one-piece spec with one disjoint
# basic (a flip) flipped to touched, the base shifted by 0, 1/16 and 2/16;
# the flip (0, 1) leaves no room for a base
_FLIPS = ((F(0), F(1, 2)), (F(1, 2), F(1)), (F(0), F(1)), (F(1, 4), F(3, 4)),
          (F(0), F(1, 4)))


def _broken_specs():
    for flip in _FLIPS:
        for shift in (F(s, 16) for s in range(3)):
            if flip[1] < F(3, 4):
                base = _ui.make_cdesc([(flip[1] + F(1, 8) + shift,
                                        flip[1] + F(3, 8) + shift)])
            else:
                base = _ui.make_cdesc([(F(0), flip[0] - F(1, 8) - shift)])
            if base and not _ui.basic_meets_cdesc(flip, base):
                yield flip, base


def _tautologies():
    """Criterion 7's four tautology forms."""
    return (
        ("ui:subset-widened", _ui_ercs,
         lambda: subset_predicate(_ui_ercs, compact_from_cdesc(_ui, ()))),
        ("ui:isEmptyOr-meets-whole", _ui_ercs,
         lambda: empty_or_predicate(
             _ui_ercs, _UI_WHOLE,
             meets_predicate(_ui_ercs, open_from_fixture(_ui, (F(-1), F(2)))))),
        ("cantor:isEmptyOr-meets-root", _cantor_ercs,
         lambda: empty_or_predicate(
             _cantor_ercs, compact_from_cdesc(_cantor, ("",)),
             meets_predicate(_cantor_ercs, open_from_fixture(_cantor, "")))),
        ("cantor:zero-or-one", _cantor_ercs,
         lambda: or_predicate(
             subset_predicate(_cantor_ercs, compact_from_cdesc(_cantor, ("1",))),
             meets_predicate(_cantor_ercs, open_from_fixture(_cantor, "1")))),
    )


def _hyperspace_answers() -> list[str]:
    lines = []
    for flip, base in _broken_specs():
        bits = flipped_bits(realized_bits(_ui, base), {encode_interval(*flip): 1})
        cond = consistency_refute(_ui_ercs, bits, 10 ** 5)
        assert cond is not None, (flip, base)
        lines.append(f"broken:{flip!r}:{base!r}:"
                     f"{cond.n},{cond.kid},{sorted(cond.cover)}")
    for label, e, make in _tautologies():
        search = forall_located(e, make())
        got = run_process(search, 10 ** 6)
        assert isinstance(got, Accepted), label
        lines.append(f"tautology:{label}:{got.stage}:{search.closing_depth}")
    return lines


# sha256 of _hyperspace_answers(), recorded while the interval unions and
# indexes still searched with bisect over Fractions: the refuting
# conditions, acceptance stages and closing depths are answers
HYPERSPACE_PIN = "1e73411fa055c4c8c3e2e4004630cb127328b8eb88989a76f8157d6eb92bd631"


def test_hyperspace_answers_are_pinned():
    lines = _hyperspace_answers()
    assert len(lines) == 12 + 4
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == HYPERSPACE_PIN


# -- the stages fast_forward applies ---------------------------------------------

def _forall_cases():
    """(label, ercs, predicate maker): on every standard oracle space the
    three predicate kinds (subset, isEmptyOr(meets), subset or meets) over
    the first, a middle and the last open, and criterion 7's tautologies."""
    cases = []
    for fs in standard_oracle_spaces():
        space, e = lift_finite(fs)
        points = frozenset(fs.points)
        opens = sorted(fs.opens, key=sorted)
        for o in {opens[0], opens[len(opens) // 2], opens[-1]}:
            other = opens[-1] if o != opens[-1] else opens[0]

            def outside(o=o, space=space, points=points):
                return compact_from_cdesc(space, points - o)

            def meets(o, space=space, e=e):
                return meets_predicate(e, open_from_fixture(space, o))

            label = f"{fs.name}:{''.join(sorted(o))}"
            cases += [
                (f"{label}:subset", e, lambda e=e, outside=outside: subset_predicate(e, outside())),
                (f"{label}:isEmptyOr", e,
                 lambda e=e, space=space, points=points, o=o, meets=meets: empty_or_predicate(
                     e, compact_from_cdesc(space, points), meets(o))),
                (f"{label}:or", e,
                 lambda e=e, outside=outside, other=other, meets=meets: or_predicate(
                     subset_predicate(e, outside()), meets(other))),
            ]
    return cases + list(_tautologies())


def _meets_cases():
    """(label, ercs, space, open maker) of every meets predicate of
    ``_forall_cases``: the opens that isEmptyOr and or meet on the
    standard oracle spaces, and those of criterion 7's tautologies."""
    cases = []
    for fs in standard_oracle_spaces():
        space, e = lift_finite(fs)
        opens = sorted(fs.opens, key=sorted)
        met = set()
        for o in {opens[0], opens[len(opens) // 2], opens[-1]}:
            met |= {o, opens[-1] if o != opens[-1] else opens[0]}
        cases += [(f"{fs.name}:{''.join(sorted(o))}", e, space,
                   lambda o=o, space=space: open_from_fixture(space, o))
                  for o in sorted(met, key=sorted)]
    return cases + [
        ("ui:(-1,2)", _ui_ercs, _ui, lambda: open_from_fixture(_ui, (F(-1), F(2)))),
        ("cantor:e", _cantor_ercs, _cantor, lambda: open_from_fixture(_cantor, "")),
        ("cantor:1", _cantor_ercs, _cantor, lambda: open_from_fixture(_cantor, "1"))]


def test_meets_fast_forward_moves_no_answer():
    """The meets nodes skip the stages at which the swallowed pairs emit
    nothing: beside a twin that steps every stage, and beside the per-node
    reference at every fuel, for every node of depth 1 to 3 over the
    first basics of the space, built from one predicate per open."""
    accepted = 0
    for label, e, space, make_u in _meets_cases():
        indices = [n for n in range(space.finite_basic_count or 200)
                   if space.decode(n) is not None][:3]
        build, fuel = meets_predicate(e, make_u()), 300
        for bits in (b for depth in range(1, len(indices) + 1)
                     for b in product((0, 1), repeat=depth)):
            oracle = PrefixOracle(bits, tuple(indices[:len(bits)]))
            want = assert_fast_forward_twin(lambda: build(oracle), fuel,
                                            label=(label, bits))
            ones = set(oracle.one_indices())
            reference = ReferenceMeets(e, make_u(), ones)
            assert [reference.poll(f) for f in range(fuel + 1)] == [w[0] for w in want], \
                (label, bits)
            accepted += want[-1][0] is not None
    # and the comparison is not vacuous
    assert accepted > 100, accepted


def test_forall_fast_forward_moves_no_answer():
    accepted = 0
    for label, e, make in _forall_cases():
        want = assert_fast_forward_twin(lambda: ForallSearch(e, make()), 4000,
                                        lambda search: search.closing_depth, label, fresh=(50,))
        accepted += sum(want[fuel][0] is not None for fuel in (50, 4000))
    # and the comparison is not vacuous: searches accept, at stages where the
    # hook applied most of the stages
    assert accepted > 30
    search = ForallSearch(_ui_ercs, _tautologies()[1][2]())
    steps = []
    step = search.step
    search.step = lambda t: steps.append(t) or step(t)
    assert search.poll(10 ** 6) == 3013
    assert len(steps) < 3013 // 4
