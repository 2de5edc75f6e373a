from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erctopo.kernel import (
    Accepted,
    PENDING,
    Machine,
    accept_at,
    any_accepts,
    both_accept,
    emission_slot,
    enumerate_function,
    enumerate_list,
    enumerate_step,
    filter_lane,
    interleave,
    never,
    pair,
    pair_lane,
    process_from_check,
    run_process,
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


@PROPERTY
@given(emissions, stall_stages, queried_reads)
def test_groups_are_the_unread_stages_and_read_nothing(items, stall_after, moves):
    src = _source(items, stall_after)
    plain = _source(items, stall_after)   # the same reads without groups
    ref = _source(items, stall_after)
    reader, plain_reader = src.cursor(), plain.cursor()
    stage = 0
    for step, _, span in moves:
        marks, counts, items, m, n, a = reader.groups(stage + span)
        got = []
        for i in range(m, n):
            got.append((marks[i], items[a:counts[i]]))
            a = counts[i]
        want = [(s, list(ref.between(s, s + 1))) for s in range(stage, stage + span)]
        assert got == [(s, g) for s, g in want if g]
        assert list(reader.upto(stage + step)) == list(plain_reader.upto(stage + step))
        stage += step


# a filter lane: per stage the decoded basic (None: an invalid code), per
# slot the seeds generated then (None: no seed lane), a stall stage (or
# None), and the advance calls made: stages to move on, and to_emission
decoded = st.lists(st.none() | st.integers(0, 20), max_size=80)
slot_seeds = st.none() | st.lists(st.lists(st.integers(100, 199), max_size=2), max_size=12)
lane_stalls = st.none() | st.integers(0, 90)
advances = st.lists(st.tuples(st.integers(0, 40), st.booleans()), max_size=12)


def _lane_parts(decodes, seed_table):
    def decode(t):
        return decodes[t] if t < len(decodes) else None

    def test(d):
        return d % 3 != 0

    seeds = None
    if seed_table is not None:
        def seeds(s):
            return seed_table[s] if s < len(seed_table) else ()
    return decode, test, seeds


def _lane_state(lane):
    return (list(lane._items), lane._marks, lane._counts, lane._stage, lane.stalled)


@PROPERTY
@given(decoded, slot_seeds, lane_stalls, advances)
def test_filter_lane_batches_equal_stage_by_stage_steps(decodes, seed_table,
                                                        stall_after, moves):
    decode, test, seeds = _lane_parts(decodes, seed_table)

    def step(t):
        # the lane as a step function, as the names wrote it by hand
        s = emission_slot(t)
        out = list(seeds(s)) if seeds is not None and s is not None else []
        d = decode(t)
        if d is not None and test(d):
            out.append(t)
        return out

    lane = filter_lane(decode, test, seeds, stall_after)
    ref = enumerate_step(step, stall_after=stall_after)
    single = filter_lane(decode, test, seeds, stall_after)
    stage = 0
    for move, to_emission in moves:
        stage += move
        lane.advance(stage, to_emission)
        ref.advance(stage, to_emission)
        assert _lane_state(lane) == _lane_state(ref)
        # one stage per call reaches the same state
        while single._stage < lane._stage and not single.stalled:
            single.advance(single._stage + 1)
        assert _lane_state(single) == _lane_state(lane)
    assert list(lane.listing(stage + 5)) == list(ref.listing(stage + 5))
    assert lane.quiescent(stage + 5) == ref.quiescent(stage + 5)


# a diagonal lane: the truth tables of the two ends, the joined pairs
# (i + j) % join_mod != 0 (0: no join), per slot the seeds, and the reads
# made: stages to move on, and whether to stop at an emission
end_tables = st.lists(st.booleans(), min_size=60, max_size=60)
join_mods = st.integers(0, 4)
diagonal_moves = st.lists(st.tuples(st.integers(0, 120), st.booleans()), max_size=25)


@PROPERTY
@given(end_tables, end_tables, join_mods, slot_seeds, diagonal_moves)
def test_pair_lane_equals_the_filter_lane(lefts, rights, join_mod, seed_table, moves):
    # stages up to 1,770, the first 59 diagonals, so every end index is
    # below 60
    join = None if not join_mod else (lambda i, j: (i + j) % join_mod != 0)
    seeds = _lane_parts([], seed_table)[2]

    def test(d):
        i, j = d
        return lefts[i] and rights[j] and (join is None or join(i, j))

    lane = pair_lane(lefts.__getitem__, rights.__getitem__, join, seeds)
    ref = filter_lane(unpair, test, seeds)
    stage = 0
    for move, to_emission in moves:
        stage = min(stage + move, 1770)
        lane.advance(stage, to_emission)
        ref.advance(stage, to_emission)
        assert _lane_state(lane) == _lane_state(ref)
    assert list(lane.listing(1770)) == list(ref.listing(1770))
    assert _lane_state(lane) == _lane_state(ref)


# -- runs applied by fast_forward --------------------------------------------------

def _machine_state(m: Machine, observe):
    return m._stage, m._hit, m._stalled, observe(m)


def assert_fast_forward_twin(make, fuel: int, observe=lambda m: None, label=None, fresh=()):
    """Checks that the ``fast_forward`` hook of the machines ``make()``
    builds moves no answer: beside a twin whose hook is set to None, so
    that it steps every stage, it compares the poll answer and ``stalled``
    at every fuel from 0 to ``fuel``, and the final state (stage, hit,
    stall and ``observe(machine)``), for one machine polled at every fuel,
    one polled at doubling fuels and one polled at ``fuel`` alone; fresh
    machines polled just below and at the acceptance stage, at the first
    stalled fuel and at each fuel of ``fresh``; and, for ``fuel`` and each
    of ``fresh``, a replay after a poll at four times it, beside a twin
    polled there.  Wherever a poll accepts, ``observe`` is compared too.
    Returns the twin's (answer, stalled) at every fuel."""
    twin = make()
    twin.fast_forward = None
    want = [(twin.poll(f), twin.stalled) for f in range(fuel + 1)]
    final = _machine_state(twin, observe)

    def answer(m, f):
        stage = m.poll(f)
        return stage, m.stalled, None if stage is None else observe(m)

    def wanted(f):
        stage, stalled = want[f]
        return stage, stalled, None if stage is None else final[3]

    doubling = sorted({0, fuel} | {1 << k for k in range(fuel.bit_length())})
    for fuels in (range(fuel + 1), doubling, (fuel,)):
        m = make()
        for f in fuels:
            assert answer(m, f) == wanted(f), (label, f)
        assert _machine_state(m, observe) == final, label
    stage = want[fuel][0]
    if stage is not None:
        assert make().poll(stage) is None, label
        assert answer(make(), stage + 1) == wanted(fuel), label
    first = next((f for f, (_, stalled) in enumerate(want) if stalled), None)
    if first is not None:
        m = make()
        assert m.poll(first) is None and m.stalled, label
        if first:
            m = make()
            assert m.poll(first - 1) is None and not m.stalled, label
    for f in fresh:
        assert answer(make(), f) == wanted(f), (label, f)
    for f in sorted({fuel, *fresh}):
        big = make()
        big.fast_forward = None
        m = make()
        assert answer(m, 4 * f) == answer(big, 4 * f), (label, 4 * f)
        assert answer(m, f) == answer(big, f), (label, f)
    return want


class _Runs(Machine):
    """Accepts at ``hit`` and stalls at ``stall``; its hook applies the
    idle stages before the next of those two, or, when ``overrun``, runs
    on past them to the limit."""

    def __init__(self, hit=None, stall=None, overrun=False):
        super().__init__()
        self._accept, self._stall_at, self._overrun = hit, stall, overrun

    def fast_forward(self, t: int, limit: int) -> int:
        if self._overrun:
            return limit
        busy = [s for s in (self._accept, self._stall_at) if s is not None and s >= t]
        return min(busy + [limit])

    def step(self, t: int) -> bool:
        if t == self._stall_at:
            self.stall()
        return t == self._accept


def test_fast_forward_twin_harness():
    assert assert_fast_forward_twin(lambda: _Runs(hit=37), 100)[-1] == (37, False)
    assert assert_fast_forward_twin(lambda: _Runs(stall=21), 100)[-1] == (None, True)
    assert assert_fast_forward_twin(lambda: _Runs(), 50)[-1] == (None, False)
    # a fresh fuel below the stall, replayed after a poll past it
    assert assert_fast_forward_twin(lambda: _Runs(stall=21), 100, fresh=(10,))[10] == (None, False)
    # a hook that applies the accepting or the stalling stage is caught
    for bad in (lambda: _Runs(hit=37, overrun=True), lambda: _Runs(stall=21, overrun=True)):
        with pytest.raises(AssertionError):
            assert_fast_forward_twin(bad, 100)


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
