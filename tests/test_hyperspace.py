from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from itertools import product

from erctopo.ercs import cantor_ercs, interval_ercs
from erctopo.hyperspace import (
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
from erctopo.kernel import Accepted, PENDING, run_process
from erctopo.oracle import standard_oracle_spaces
from erctopo.sets import (
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
