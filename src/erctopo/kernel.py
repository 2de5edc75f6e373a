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

A ``Machine`` steps its stages in order, but it may skip a stage at which
its step would provably do nothing (see ``Machine.skip_idle``): a skipped
stage reads nothing, changes nothing and accepts nothing, so skipping moves
no acceptance stage and no stall.  ``Cursor.next_emission`` is what lets a
reader see such stages coming without reading anything.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Generic, Sequence, TypeVar

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


@dataclass(frozen=True)
class PairingScheme:
    encode: Callable[[int, int], int]
    decode: Callable[[int], tuple[int, int]]


CANTOR = PairingScheme(encode=pair, decode=unpair)


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
    """Incremental process: ``step(t)`` runs at most once per stage, in
    increasing stage order, and every stage it skips is idle.

    Subclasses implement ``step`` returning True at the accepting stage.
    ``stall()`` declares that no future step can change anything, letting
    large-fuel polls of permanently pending machines return immediately.

    A stage is idle when its step would return False and change nothing a
    later step reads: it reads no item, accepts nothing and does not stall.
    A subclass that can see idle stages coming defines the method
    ``skip_idle(t, limit)``: it returns the least stage s with
    ``t <= s <= limit`` whose step may not be idle, and ``poll`` then steps
    s next (s == limit: no stage below the fuel needs a step).  Every stage
    in ``[t, s)`` must be idle, so skipping moves no acceptance stage and no
    stall, and the same fuel gives the same answer.  Without it (the
    default, None) every stage is stepped, at the cost of one test.
    """

    skip_idle: Callable[[int, int], int] | None = None

    def __init__(self) -> None:
        self._stage = 0
        self._hit: int | None = None
        self._stalled = False

    def poll(self, fuel: int) -> int | None:
        skip = self.skip_idle
        while self._hit is None and not self._stalled and self._stage < fuel:
            t = self._stage
            if skip is not None:
                t = skip(t, fuel)
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


# ---------------------------------------------------------------------------
# Dovetailing

class _DovetailAny(Machine):
    """Existential search over an enumerated family of processes.

    Schedule: at global step t, decode t = (i, j) and run process i for its
    j-th step; acceptance stage is the global step of the first acceptance.
    """

    def __init__(self, processes: MonotoneEnumerator[SemidecisionProcess]):
        super().__init__()
        self._reader = processes.cursor()
        self._listed: list[SemidecisionProcess] = []

    def step(self, t: int) -> bool:
        i, j = unpair(t)
        listed = self._listed
        listed.extend(self._reader.upto(t + 1))
        if i < len(listed):
            stage = listed[i].poll(j + 1)
            if stage is not None and stage <= j:
                return True
        # Periodically check whether progress is still possible at all.
        if t & (t + 1) == 0 and self._reader.quiescent(t + 1):
            if all(p.stalled for p in listed):
                self.stall()
        return False


def dovetail_any(processes: MonotoneEnumerator[SemidecisionProcess]) -> SemidecisionProcess:
    """Accepts iff some enumerated process accepts."""
    return _DovetailAny(processes)


# ---------------------------------------------------------------------------
# Round-robin search over spawned processes

class SearchEnumerator(MonotoneEnumerator[T]):
    """Emits each candidate whose spawned process accepts.

    Candidates arrive from ``candidates``; one live process is advanced by
    one fuel unit per stage, cycling deterministically.  Accepted candidates
    are emitted at the stage of detection and retired.
    """

    def __init__(self, candidates: MonotoneEnumerator[T],
                 spawn: Callable[[T], SemidecisionProcess]):
        super().__init__()
        self._candidates = candidates.cursor()
        self._spawn = spawn
        self._live: list[tuple[T, SemidecisionProcess, int]] = []
        self._next = 0

    def step(self, t: int) -> Sequence[T]:
        for cand in self._candidates.upto(t + 1):
            self._live.append((cand, self._spawn(cand), 0))
        out = []
        if self._live:
            self._next %= len(self._live)
            cand, proc, fuel = self._live[self._next]
            fuel += 1
            stage = proc.poll(fuel)
            if stage is not None:
                out.append(cand)
                self._live.pop(self._next)
            elif proc.stalled:
                self._live.pop(self._next)
            else:
                self._live[self._next] = (cand, proc, fuel)
                self._next += 1
        elif self._candidates.quiescent(t + 1):
            self.stall()
        return out


def search(candidates: MonotoneEnumerator[T],
           spawn: Callable[[T], SemidecisionProcess]) -> MonotoneEnumerator[T]:
    return SearchEnumerator(candidates, spawn)
