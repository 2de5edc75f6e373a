"""Fuel discipline, semidecision processes and stage-indexed enumerations.

Everything observable in this library is built from two primitives:

* a ``SemidecisionProcess`` -- a deterministic computation that, given a
  finite fuel budget, either reports ``Accepted(stage)`` or ``Pending``.
  Acceptance is monotone in fuel and the reported stage never increases.
  Running out of fuel is an ordinary ``Pending`` outcome, never an error.

* a ``MonotoneEnumerator`` -- a stage-indexed growing listing.  The listing
  at stage ``s`` is always a prefix of the listing at stage ``s + 1``.

Both are pure functions of their stage/fuel argument; internal caches only
memoize work that has already been performed, so repeated evaluation is
cheap and replayable.

A consumer that reads a name incrementally -- stage by stage, as every
semidecision does -- holds its own ``Cursor`` from ``enumerator.cursor()``:
``upto(s)`` returns the items emitted before stage ``s`` that this cursor has
not returned yet, and ``quiescent(s)`` says whether the listing can still
grow.  A cursor keeps its place in the listing, so a read costs one advance
check and a slice however many consumers share the enumerator.

A ``Machine`` steps its stages in order, but it may apply a run of them
itself (``Machine.fast_forward``); ``Cursor.next_emission`` and
``Cursor.groups`` let it see what the coming stages bring without reading.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Generic, Iterator, Sequence, TypeVar

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Pairing

def pair(i: int, j: int) -> int:
    """Cantor pairing; a bijection between N x N and N."""
    s = i + j
    return s * (s + 1) // 2 + j


def unpair(n: int) -> tuple[int, int]:
    """Inverse of :func:`pair`."""
    s = (isqrt(8 * n + 1) - 1) // 2
    j = n - s * (s + 1) // 2
    return s - j, j


# ---------------------------------------------------------------------------
# Semidecision processes

@dataclass(frozen=True)
class Accepted:
    stage: int


class _Pending:
    __slots__ = ()

    def __repr__(self) -> str:
        return "Pending"


PENDING = _Pending()


class SemidecisionProcess:
    """A fuel-monotone accept/pending computation.

    ``eval(f)`` performs steps ``0 .. f-1``; once a step accepts, every
    larger budget reports an acceptance stage that is not larger.
    """

    def eval(self, fuel: int):
        stage = self.poll(fuel)
        return PENDING if stage is None else Accepted(stage)

    def poll(self, fuel: int) -> int | None:
        """Acceptance stage if it is ``< fuel``, else None."""
        raise NotImplementedError

    @property
    def stalled(self) -> bool:
        """True once no budget can make this process accept; a process that
        cannot tell says False."""
        return False


def run_process(process: SemidecisionProcess, fuel: int):
    """Evaluate ``process`` on ``fuel``; same fuel always gives the same answer."""
    if fuel < 0:
        raise ValueError("fuel must be nonnegative")
    return process.eval(fuel)


class Machine(SemidecisionProcess):
    """Incremental process: ``step(t)`` applies stage t, at most once per
    stage, in increasing stage order.

    Subclasses implement ``step`` returning True at the accepting stage.
    ``stall()`` declares that no future step can change anything, letting
    large-fuel polls of permanently pending machines return immediately.

    A subclass that can apply a run of stages for less than one ``step``
    call each defines ``fast_forward(t, limit)``: it applies the stages
    ``t .. s - 1`` itself, each exactly as ``step`` would, and returns s,
    ``t <= s <= limit``; ``poll`` then steps s (s == limit: none is left
    below the fuel).  No stage it applies may accept or stall, so it moves
    no acceptance stage and no stall, and the same fuel gives the same
    answer.  Stages are applied, not only skipped: an idle stage is applied
    by doing nothing.  Without the hook (None) every stage is stepped.
    """

    fast_forward: Callable[[int, int], int] | None = None

    def __init__(self) -> None:
        self._stage = 0
        self._hit: int | None = None
        self._stalled = False

    def poll(self, fuel: int) -> int | None:
        forward = self.fast_forward
        while self._hit is None and not self._stalled and self._stage < fuel:
            t = self._stage
            if forward is not None:
                t = forward(t, fuel)
                if t >= fuel:
                    self._stage = fuel
                    break
            self._stage = t + 1
            if self.step(t):
                self._hit = t
        if self._hit is not None and self._hit < fuel:
            return self._hit
        return None

    def step(self, t: int) -> bool:
        raise NotImplementedError

    def stall(self) -> None:
        self._stalled = True

    @property
    def stalled(self) -> bool:
        return self._stalled and self._hit is None


class _Check(Machine):
    def __init__(self, check: Callable[[int], bool]):
        super().__init__()
        self._check = check

    def step(self, t: int) -> bool:
        return self._check(t)


def process_from_check(check: Callable[[int], bool]) -> SemidecisionProcess:
    """Process accepting at the least stage where ``check`` holds."""
    return _Check(check)


def accept_at(stage: int) -> SemidecisionProcess:
    return _Check(lambda t: t == stage)


def never() -> SemidecisionProcess:
    return _Check(lambda t: False)


class _Both(SemidecisionProcess):
    def __init__(self, a: SemidecisionProcess, b: SemidecisionProcess):
        self.a = a
        self.b = b

    def poll(self, fuel: int) -> int | None:
        sa = self.a.poll(fuel)
        if sa is None:
            return None
        sb = self.b.poll(fuel)
        if sb is None:
            return None
        return max(sa, sb)


def both_accept(a: SemidecisionProcess, b: SemidecisionProcess) -> SemidecisionProcess:
    """Accepts iff both accept; stage is the max of the two stages."""
    return _Both(a, b)


class _Either(SemidecisionProcess):
    def __init__(self, processes: Sequence[SemidecisionProcess]):
        self.processes = tuple(processes)

    def poll(self, fuel: int) -> int | None:
        stages = [s for s in (p.poll(fuel) for p in self.processes) if s is not None]
        return min(stages) if stages else None


def any_accepts(*processes: SemidecisionProcess) -> SemidecisionProcess:
    """Accepts iff some argument accepts; stage is the least accepting stage."""
    return _Either(processes)


# ---------------------------------------------------------------------------
# Monotone enumerators

class MonotoneEnumerator(Generic[T]):
    """Stage-indexed listing; ``step(t)`` returns the items appearing at
    stage t as a sequence (a list or tuple, empty when nothing appears; not
    a generator, whose truth says nothing about its length).

    ``listing(s)`` is a prefix of ``listing(s + 1)`` by construction.  A
    stalled enumerator emits nothing at any later stage; finite listings
    stall once exhausted so consumers can stop polling them.
    """

    def __init__(self) -> None:
        self._items: list[T] = []
        # change points: _marks[i] = stage strictly after which _counts[i] items exist
        self._marks: list[int] = []
        self._counts: list[int] = []
        self._stage = 0
        self._stalled = False

    def step(self, t: int) -> Sequence[T]:
        raise NotImplementedError

    def stall(self) -> None:
        self._stalled = True

    @property
    def stalled(self) -> bool:
        return self._stalled

    def advance(self, stage: int, to_emission: bool = False) -> None:
        """Run the steps of the stages below ``stage``; with ``to_emission``,
        stop after the first step that emits."""
        step, items = self.step, self._items
        while self._stage < stage and not self._stalled:
            t = self._stage
            self._stage = t + 1
            new = step(t)
            if new:
                items.extend(new)
                self._marks.append(t)
                self._counts.append(len(items))
                if to_emission:
                    return

    def count(self, stage: int) -> int:
        """Number of items emitted at stages ``< stage``."""
        self.advance(stage)
        k = bisect_right(self._marks, stage - 1)
        return self._counts[k - 1] if k else 0

    def listing(self, stage: int) -> Sequence[T]:
        return self._items[: self.count(stage)]

    def stage_of(self, i: int) -> int:
        """The stage that emitted item i of a listing already read past it."""
        return self._marks[bisect_right(self._counts, i)]

    def between(self, lo_stage: int, hi_stage: int) -> Sequence[T]:
        """Items emitted at stages in ``[lo_stage, hi_stage)``."""
        a = self.count(lo_stage)
        b = self.count(hi_stage)
        return self._items[a:b]

    def quiescent(self, stage: int) -> bool:
        """True once the listing can no longer grow past ``stage``."""
        self.advance(stage)
        return self._stalled and self._stage <= stage

    def cursor(self) -> "Cursor[T]":
        """A fresh read position at the start of the listing."""
        return Cursor(self)


class Cursor(Generic[T]):
    """One consumer's place in a ``MonotoneEnumerator``.

    ``upto(stage)`` returns the items emitted at stages ``< stage`` that
    this cursor has not returned yet; ``stage`` is the bound of the latest
    read (stages passed to ``upto`` never decrease).  Read once per stage
    with ``upto(t + 1)``, it gives exactly the items emitted at stage t.
    """

    __slots__ = ("_source", "_mark", "_pos", "stage")

    def __init__(self, source: MonotoneEnumerator[T]):
        self._source = source
        self._mark = 0   # change points of the source already passed
        self._pos = 0    # items of the source already returned
        self.stage = 0

    def upto(self, stage: int) -> Sequence[T]:
        src = self._source
        if src._stage < stage and not src._stalled:
            src.advance(stage)
        self.stage = stage
        marks = src._marks
        m = self._mark
        n = len(marks)
        if m == n or marks[m] >= stage:
            return ()
        m += 1
        while m < n and marks[m] < stage:
            m += 1
        self._mark = m
        a, b = self._pos, src._counts[m - 1]
        self._pos = b
        return src._items[a:b]

    def next_emission(self, limit: int) -> int:
        """The least stage below ``limit`` at which the source emits an item
        this cursor has not returned, or ``limit`` if there is none.

        Steps the source no further than that stage and returns no items:
        ``upto`` stays the only read and still returns them.
        """
        src = self._source
        marks = src._marks
        m = self._mark
        if m == len(marks):
            src.advance(limit, True)
            if m == len(marks):
                return limit
        return min(marks[m], limit)

    def groups(self, stage: int) -> tuple[list[int], list[int], list[T], int, int, int]:
        """The unread items below ``stage``, grouped by the stage that
        emitted them, as index ranges for a caller that walks them in one
        loop: ``(marks, counts, items, m, n, a)``, where stage ``marks[i]``,
        m <= i < n, emitted ``items[counts[i - 1]:counts[i]]``, read from
        ``items[a]`` on for i = m.  A peek: the lists are the source's own,
        to be read and never changed, and ``upto`` reads."""
        src = self._source
        if src._stage < stage and not src._stalled:
            src.advance(stage)
        marks, m = src._marks, self._mark
        return marks, src._counts, src._items, m, bisect_left(marks, stage, m), self._pos

    def quiescent(self, stage: int) -> bool:
        """Same answer as ``MonotoneEnumerator.quiescent(stage)``."""
        src = self._source
        if src._stage < stage and not src._stalled:
            src.advance(stage)
        return src._stalled and src._stage <= stage


class _FromList(MonotoneEnumerator[T]):
    def __init__(self, items: Sequence[T]):
        super().__init__()
        self._source = tuple(items)

    def step(self, t: int) -> Sequence[T]:
        if t < len(self._source):
            return (self._source[t],)
        self.stall()
        return ()


def enumerate_list(items: Sequence[T]) -> MonotoneEnumerator[T]:
    """Finite listing, one item per stage, stalled afterwards."""
    return _FromList(items)


class _FromFunction(MonotoneEnumerator[T]):
    def __init__(self, fn: Callable[[int], T]):
        super().__init__()
        self._fn = fn

    def step(self, t: int) -> Sequence[T]:
        return (self._fn(t),)


def enumerate_function(fn: Callable[[int], T]) -> MonotoneEnumerator[T]:
    """Infinite listing whose stage-t item is ``fn(t)``."""
    return _FromFunction(fn)


class _FromStep(MonotoneEnumerator[T]):
    def __init__(self, step_fn: Callable[[int], Sequence[T]],
                 stall_after: int | None):
        super().__init__()
        self._step_fn = step_fn
        self._stall_after = stall_after
        if stall_after is None:
            self.step = step_fn  # advance calls it with no hop through a method

    def step(self, t: int) -> Sequence[T]:
        if t >= self._stall_after:
            self.stall()
            return ()
        return self._step_fn(t)


def enumerate_step(step_fn: Callable[[int], Sequence[T]],
                   stall_after: int | None = None) -> MonotoneEnumerator[T]:
    """Listing emitting ``step_fn(t)`` (possibly nothing) at stage t;
    ``step_fn`` returns a sequence, as ``MonotoneEnumerator.step`` does."""
    return _FromStep(step_fn, stall_after)


# Seed slot s fires at the triangular stage (s + 1)(s + 2)/2 - 1: generated
# items stay square-root-bounded in the stage count, fine slots come at
# quadratic stages, and slots stop at 64 (2**-64 serves no consumer).
# emission_slot(t) is the slot firing at stage t, or None; slot_stage(s)
# the stage at which slot s fires, or None past the last slot.
_SLOT_STAGES = [(s + 1) * (s + 2) // 2 - 1 for s in range(65)] + [-1]
_SLOT_AT = {t: s for s, t in enumerate(_SLOT_STAGES[:-1])}
emission_slot = _SLOT_AT.get
slot_stage = dict(enumerate(_SLOT_STAGES[:-1])).get


class _FilterLane(MonotoneEnumerator[int]):
    def __init__(self, decode, test, seeds, stall_after) -> None:
        super().__init__()
        self._lane = (decode, test, seeds, stall_after,
                      self._items, self._marks, self._counts)
        self._at = 0 if seeds is not None else -1   # the next slot stage

    def advance(self, stage: int, to_emission: bool = False) -> None:
        # once stalled, _stage is stop + 1 and the loop and its else pass
        decode, test, seeds, stop, items, marks, counts = self._lane
        end = stage if stop is None or stop > stage else stop
        at, t = self._at, self._stage
        while t < end:
            seeded = ()
            if t == at:
                slot = _SLOT_AT[t]
                seeded = seeds(slot)
                items.extend(seeded)
                at = self._at = _SLOT_STAGES[slot + 1]
            d = decode(t)
            if d is not None and test(d):
                items.append(t)
            elif not seeded:
                t += 1
                continue
            marks.append(t)
            counts.append(len(items))
            t += 1
            if to_emission:
                break
        else:
            if t == stop and t < stage:
                t += 1   # the stage at which enumerate_step's lane stalls
                self._stalled = True
        self._stage = t


def filter_lane(decode: Callable[[int], object], test: Callable[[object], bool],
                seeds: Callable[[int], Sequence[int]] | None = None,
                stall_after: int | None = None) -> MonotoneEnumerator[int]:
    """Stage t emits the sequence ``seeds(emission_slot(t))`` at a slot
    stage, then t when ``decode(t)`` is not None and passes ``test``; it
    stalls at stage ``stall_after`` (None: never) as ``enumerate_step``
    does.  ``advance`` applies a run of stages in one loop, calling
    ``seeds`` at slots only.  A lane whose test factors over the two
    halves of ``t = pair(i, j)`` is :func:`pair_lane`, which finds the
    same items without visiting every stage."""
    return _FilterLane(decode, test, seeds, stall_after)


class _PairLane(MonotoneEnumerator[int]):
    def __init__(self, left, right, join, seeds) -> None:
        super().__init__()
        self._lane = (left, right, join, seeds)
        self._s = -1        # the diagonal whose events are loaded
        self._next = 0      # its end: the first stage of diagonal s + 1
        self._lmask = 0     # bit j: left(s - j)
        self._rmask = 0     # bit j: right(j)
        self._events: list[int] = []   # its stages that may emit, ascending
        self._k = 0         # events already applied
        self._slot = -1     # its slot stage, or -1
        self._slot_hit = False   # whether that stage is t = pair(0, s) itself

    def _diagonal(self) -> None:
        """Loads diagonal s + 1: the codes pair(s + 1 - j, j), j = 0 .. s + 1."""
        left, right, join, seeds = self._lane
        s = self._s = self._s + 1
        lmask = self._lmask = self._lmask << 1 | left(s)
        rmask = self._rmask = self._rmask | right(s) << s
        base = s * (s + 1) >> 1
        events = []
        c = lmask & rmask
        while c:
            low = c & -c
            c ^= low
            j = low.bit_length() - 1
            if join is None or join(s - j, j):
                events.append(base + j)
        last = base + s
        self._next = last + 1
        self._slot_hit = hit = bool(events) and events[-1] == last
        self._slot = -1
        if seeds is not None and last in _SLOT_AT:
            self._slot = last
            if not hit:
                events.append(last)
        self._events, self._k = events, 0

    def advance(self, stage: int, to_emission: bool = False) -> None:
        # as _FilterLane.advance, stage by stage, but only the stages in
        # _events can emit
        items, marks, counts = self._items, self._marks, self._counts
        while self._stage < stage:
            events, k = self._events, self._k
            n = len(events)
            while k < n:
                e = events[k]
                if e >= stage:
                    self._k, self._stage = k, stage
                    return
                k += 1
                if e == self._slot:
                    seeded = self._lane[3](self._s)
                    items.extend(seeded)
                    if self._slot_hit:
                        items.append(e)
                    elif not seeded:
                        continue
                else:
                    items.append(e)
                marks.append(e)
                counts.append(len(items))
                if to_emission:
                    self._k, self._stage = k, e + 1
                    return
            self._k = k
            if self._next >= stage:
                self._stage = stage
                return
            self._stage = self._next
            self._diagonal()


def pair_lane(left: Callable[[int], bool], right: Callable[[int], bool],
              join: Callable[[int, int], bool] | None,
              seeds: Callable[[int], Sequence[int]] | None = None
              ) -> MonotoneEnumerator[int]:
    """The never-stalling :func:`filter_lane` whose code t = pair(i, j)
    passes exactly when ``left(i)``, ``right(j)`` and ``join(i, j)`` hold
    (None: always), with the same items, change points and stages.

    Stage order walks the pairing's diagonals: diagonal s holds the codes
    pair(s - j, j), j = 0 .. s, at stages s(s + 1)/2 + j, and ends at the
    slot stage of seed slot s.  Each diagonal calls ``left(s)`` and
    ``right(s)`` once, into truth masks of i and of j, and its candidates,
    the j where both hold, are ``rmask & lmask`` with ``lmask = lmask << 1
    | left(s)``; only they are joined.  The lane's work grows with its
    candidates and diagonals, not with its stages."""
    return _PairLane(left, right, join, seeds)


def pair_codes(left_bits: Callable[[int, int], int], right_bits: Callable[[int, int], int],
               join: Callable[[int, int], bool], lo: int, hi: int) -> Iterator[int]:
    """The codes t = pair(i, j) in [lo, hi), ascending, whose halves pass:
    bit i of the left bits, bit j of the right bits, then ``join(i, j)``.
    ``left_bits(a, b)`` gives the bits of the i in [a, b),
    bit i - a for i, and so does ``right_bits``; they are asked for blocks
    that double as the diagonals grow.

    These are the items of ``pair_lane(left, right, join)`` from the code
    lo on, found without the walk from code 0: the masks of the diagonal
    of lo come from one read of each, and each later diagonal adds one
    bit to each, as in the lane.  A range much shorter than its diagonal
    is tested code by code."""
    if lo >= hi:
        return
    s = (isqrt(8 * lo + 1) - 1) >> 1   # the diagonal of lo
    if (hi - lo) << 4 < s:
        for t in range(lo, hi):
            i, j = unpair(t)
            if left_bits(i, i + 1) and right_bits(j, j + 1) and join(i, j):
                yield t
        return
    base = s * (s + 1) >> 1
    held = s + 1   # bits held: of 0 .. held - 1
    lbits, rmask = left_bits(0, held), right_bits(0, held)
    lmask = int(format(lbits, f"0{held}b")[::-1], 2)   # bit j: left(s - j)
    c = lmask & rmask & -(1 << lo - base)
    while True:
        while c:
            low = c & -c
            c ^= low
            j = low.bit_length() - 1
            if base + j >= hi:
                return
            if join(s - j, j):
                yield base + j
        s += 1
        base += s
        if base >= hi:
            return
        if s == held:
            lbits |= left_bits(held, 2 * held) << held
            rmask |= right_bits(held, 2 * held) << held
            held *= 2
        lmask = lmask << 1 | lbits >> s & 1
        c = lmask & rmask


class _Interleave(MonotoneEnumerator[T]):
    def __init__(self, sources: Sequence[MonotoneEnumerator[T]]):
        super().__init__()
        self._readers = [s.cursor() for s in sources]

    def step(self, t: int) -> Sequence[T]:
        if not self._readers:
            self.stall()
            return ()
        reader = self._readers[t % len(self._readers)]
        out = reader.upto(reader.stage + 1)
        if all(r.quiescent(r.stage) for r in self._readers):
            self.stall()
        return out


def interleave(sources: Sequence[MonotoneEnumerator[T]]) -> MonotoneEnumerator[T]:
    """Fair round-robin merge; stalls when every source has been drained."""
    return _Interleave(sources)
