from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from erctopo.kernel import (
    Accepted,
    CANTOR,
    PENDING,
    Machine,
    accept_at,
    any_accepts,
    both_accept,
    dovetail_any,
    enumerate_function,
    enumerate_list,
    enumerate_step,
    interleave,
    never,
    pair,
    process_from_check,
    run_process,
    search,
    unpair,
)


def test_pairing_roundtrip_pairs():
    for i in range(60):
        for j in range(60):
            assert unpair(pair(i, j)) == (i, j)


def test_pairing_roundtrip_naturals():
    for n in range(5000):
        i, j = unpair(n)
        assert pair(i, j) == n


def test_pairing_scheme_object():
    assert CANTOR.decode(CANTOR.encode(7, 11)) == (7, 11)


def test_run_process_always_pending():
    assert run_process(never(), 1000) is PENDING


def test_run_process_insufficient_fuel():
    assert run_process(accept_at(3), 2) is PENDING


def test_run_process_accepts_at_stage():
    assert run_process(accept_at(3), 10) == Accepted(3)


def test_run_process_repeatable():
    p = accept_at(5)
    first = run_process(p, 100)
    assert run_process(p, 100) == first == Accepted(5)
    assert run_process(p, 3) is PENDING
    assert run_process(p, 100) == Accepted(5)


def test_process_monotone_in_fuel():
    p = process_from_check(lambda t: t >= 17)
    last_stage = None
    for fuel in range(0, 200):
        res = run_process(p, fuel)
        if last_stage is not None:
            assert isinstance(res, Accepted)
            assert res.stage <= last_stage
        if isinstance(res, Accepted):
            last_stage = res.stage
    assert last_stage == 17


def test_both_accept():
    assert run_process(both_accept(accept_at(1), accept_at(4)), 100) == Accepted(4)
    assert run_process(both_accept(accept_at(1), never()), 100) is PENDING
    assert run_process(both_accept(never(), never()), 100) is PENDING


def test_any_accepts():
    assert run_process(any_accepts(accept_at(9), accept_at(2)), 100) == Accepted(2)
    assert run_process(any_accepts(never(), never()), 100) is PENDING


# -- dovetailing ------------------------------------------------------------

def schedule_oracle(process_stages, appear_at, max_step):
    """Exhaustive run of the fixed schedule, independent of dovetail_any.

    process_stages[i] is the acceptance stage of process i (None = never);
    appear_at[i] is the enumeration stage at which process i is listed.
    Returns the first global step t = pair(i, j) whose decoded process is
    already listed and accepts with stage <= j.
    """
    for t in range(max_step):
        i, j = unpair(t)
        listed = [k for k in range(len(appear_at)) if appear_at[k] <= t]
        if i < len(listed):
            s = process_stages[listed[i]]
            if s is not None and s <= j:
                return t
    return None


def test_dovetail_finds_immediate_acceptor():
    ps = enumerate_list([accept_at(0)])
    res = run_process(dovetail_any(ps), 100)
    assert isinstance(res, Accepted)
    assert res.stage == schedule_oracle([0], [0], 100) == 0


def test_dovetail_all_pending():
    ps = enumerate_list([never(), never(), never()])
    assert run_process(dovetail_any(ps), 10 ** 4) is PENDING


def test_dovetail_late_acceptor_matches_schedule_oracle():
    # acceptor first appears at enumeration stage 5
    def step(t):
        if t == 5:
            return (accept_at(0),)
        if t < 5:
            return (never(),)
        return ()

    ps = enumerate_step(step)
    res = run_process(dovetail_any(ps), 10 ** 4)
    assert isinstance(res, Accepted)
    expected = schedule_oracle([None] * 5 + [0], [0, 1, 2, 3, 4, 5], 10 ** 4)
    assert res.stage == expected
    assert res.stage >= 5


def test_dovetail_order_insensitive_acceptance():
    # permuting a finite enumeration changes the stage but not acceptance
    base = [accept_at(2), never(), accept_at(7)]
    for perm in itertools.permutations(range(3)):
        ps = enumerate_list([base[k] for k in perm])
        assert isinstance(run_process(dovetail_any(ps), 10 ** 4), Accepted)
    for perm in itertools.permutations(range(3)):
        ps = enumerate_list([never(), never(), never()][k] for k in perm)
        assert run_process(dovetail_any(enumerate_list([never()] * 3)), 2000) is PENDING


# -- enumerators ------------------------------------------------------------

def test_listing_prefix_monotone():
    e = enumerate_function(lambda t: t * t)
    prev = ()
    for s in range(0, 300):
        cur = tuple(e.listing(s))
        assert cur[: len(prev)] == prev
        prev = cur
    assert prev[:5] == (0, 1, 4, 9, 16)


def test_enumerate_list_stalls():
    e = enumerate_list([10, 11])
    assert tuple(e.listing(50)) == (10, 11)
    assert e.quiescent(50)


def test_enumerate_step_sparse_emission():
    e = enumerate_step(lambda t: (t,) if t % 3 == 0 else ())
    assert tuple(e.listing(10)) == (0, 3, 6, 9)
    assert tuple(e.between(3, 7)) == (3, 6)


def test_interleave_is_fair_and_complete():
    a = enumerate_list(["a0", "a1"])
    b = enumerate_list(["b0"])
    merged = interleave([a, b])
    assert set(merged.listing(50)) == {"a0", "a1", "b0"}
    assert merged.quiescent(50)


def test_interleave_of_infinite_sources():
    a = enumerate_function(lambda t: ("a", t))
    b = enumerate_function(lambda t: ("b", t))
    merged = interleave([a, b])
    items = list(merged.listing(40))
    assert ("a", 0) in items and ("b", 0) in items
    assert items.index(("a", 0)) < items.index(("a", 1))


def test_search_emits_accepted_candidates():
    cands = enumerate_list([0, 1, 2, 3])
    found = search(cands, lambda c: accept_at(c) if c % 2 == 0 else never())
    listing = found.listing(4000)
    assert set(listing) == {0, 2}


def test_search_on_empty_candidates_stalls():
    found = search(enumerate_list([]), lambda c: accept_at(0))
    assert tuple(found.listing(100)) == ()
    assert found.quiescent(100)


# -- cursors ----------------------------------------------------------------

PROPERTY = settings(max_examples=300, deadline=None, database=None, derandomize=True)

# per stage, the items emitted then; a stall stage (or None)
emissions = st.lists(st.lists(st.integers(0, 99), max_size=3), max_size=20)
stall_stages = st.none() | st.integers(0, 25)
# per read: how far the cursor moves on, and how far a second consumer of
# the same source has run ahead of it just before the read
reads = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)), max_size=15)


def _source(items, stall_after):
    return enumerate_step(lambda t: items[t] if t < len(items) else (),
                          stall_after=stall_after)


@PROPERTY
@given(emissions, stall_stages, reads)
def test_cursor_reads_equal_between_windows(items, stall_after, moves):
    src = _source(items, stall_after)
    ref = _source(items, stall_after)
    reader, other = src.cursor(), src.cursor()
    stage = 0
    for step, ahead in moves:
        other.upto(stage + step + ahead)
        got = reader.upto(stage + step)
        assert list(got) == list(ref.between(stage, stage + step))
        stage += step
        assert reader.stage == stage
        assert reader.quiescent(stage) == ref.quiescent(stage)
    assert list(src.listing(stage)) == list(ref.listing(stage))


@PROPERTY
@given(emissions, stall_stages, st.integers(0, 30))
def test_cursor_read_once_per_stage_returns_that_stage(items, stall_after, last):
    src = _source(items, stall_after)
    reader = src.cursor()
    src.advance(last)  # another consumer ran ahead first
    for t in range(last):
        assert list(reader.upto(t + 1)) == list(src.between(t, t + 1))


def _logged_source(items, stall_after, log):
    """Like _source, logging every stage it steps."""
    def step(t):
        log.append(t)
        return items[t] if t < len(items) else ()
    return enumerate_step(step, stall_after=stall_after)


# per read: how far the cursor moves on, how far a second consumer has run
# ahead of it, and how far past the cursor the next-emission query looks
queried_reads = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6),
                                   st.integers(0, 8)), max_size=15)


@PROPERTY
@given(emissions, stall_stages, queried_reads)
def test_next_emission_is_the_next_unread_stage(items, stall_after, moves):
    log: list[int] = []
    src = _logged_source(items, stall_after, log)
    plain = _source(items, stall_after)   # the same reads without queries
    ref = _source(items, stall_after)
    reader, other = src.cursor(), src.cursor()
    plain_reader, plain_other = plain.cursor(), plain.cursor()
    stage = 0
    for step, ahead, span in moves:
        other.upto(stage + ahead)
        plain_other.upto(stage + ahead)
        limit = stage + span
        stepped = max(log, default=-1)
        got = reader.next_emission(limit)
        busy = [s for s in range(stage, limit) if ref.between(s, s + 1)]
        assert got == (busy[0] if busy else limit)
        # steps the source no further than the stage it reports
        assert max(log, default=-1) <= max(stepped, got)
        # and reads nothing: upto returns what it returns without the query
        assert list(reader.upto(stage + step)) == list(plain_reader.upto(stage + step))
        stage += step
        assert reader.quiescent(stage) == plain_reader.quiescent(stage)


class _StallAt(Machine):
    def __init__(self, stall: int, hit: int | None = None):
        super().__init__()
        self._stall_at = stall
        self._accept_at = hit

    def step(self, t: int) -> bool:
        if t == self._stall_at:
            self.stall()
        return t == self._accept_at


def test_stalled_is_part_of_the_process_protocol():
    dead = _StallAt(3)
    assert not dead.stalled
    assert dead.poll(10) is None and dead.stalled
    # a machine that accepted is not stalled, whatever it declared
    done = _StallAt(2, hit=2)
    assert done.poll(10) == 2 and not done.stalled
    # composites cannot tell, so they never claim it
    both = both_accept(_StallAt(0), _StallAt(0))
    assert both.poll(10) is None and not both.stalled
    assert not any_accepts(_StallAt(0)).stalled


def test_dovetail_stalls_once_every_listed_process_stalled():
    ps = enumerate_list([_StallAt(1), _StallAt(4)])
    proc = dovetail_any(ps)
    assert proc.poll(10 ** 6) is None
    assert proc.stalled
    # a composite process keeps the search alive
    ps = enumerate_list([_StallAt(1), both_accept(_StallAt(0), _StallAt(0))])
    proc = dovetail_any(ps)
    assert proc.poll(500) is None and not proc.stalled


def test_search_retires_stalled_processes_and_stalls():
    found = search(enumerate_list([0, 1, 2]),
                   lambda c: _StallAt(5, hit=1) if c == 1 else _StallAt(c))
    assert tuple(found.listing(200)) == (1,)
    assert found.quiescent(200)
