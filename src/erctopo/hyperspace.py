"""The hyperspace of located sets: bit specifications, consistency,
translations between located sets and truth sequences, Hausdorffness, and
the universal-quantification search that witnesses its compactness.

A bit specification assigns one bit per basic open: 1 may mean "touched",
0 means "avoided".  Consistency forbids a touched basic from being
formally trapped under a patch whose whole cover is avoided; consistent
specifications are exactly the ones realized by located sets, and the
space of specifications is searched as a finitely branching prefix tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .ercs import Ercs, open_subspace_ercs, swallowed_pairs
from .kernel import (
    Cursor,
    Machine,
    MonotoneEnumerator,
    SemidecisionProcess,
    any_accepts,
    enumerate_list,
    enumerate_step,
)
from .sets import (
    ClosedSet,
    CompactSet,
    LocatedSet,
    OpenSet,
    OvertSet,
    compact_subset,
    not_subset,
)
from .spaces import InsideReader, Space


# ---------------------------------------------------------------------------
# Bit specifications

class SpecBits:
    """A total deterministic bit per basic index."""

    def __init__(self, bit: Callable[[int], int]):
        self._bit = bit
        self._memo: dict[int, int] = {}

    def bit(self, n: int) -> int | None:
        try:
            return self._memo[n]
        except KeyError:
            b = self._bit(n)
            self._memo[n] = b
            return b


def realized_bits(space: Space, cdesc) -> SpecBits:
    """The specification of an exactly described set: a basic gets bit 1
    exactly when it intersects the set (invalid indices get 0)."""

    meets = space.basic_meets_cdesc_test(cdesc)

    def bit(n: int) -> int:
        d = space.decode(n)
        return 1 if d is not None and meets(d) else 0

    return SpecBits(bit)


def flipped_bits(base: SpecBits, overrides: dict[int, int]) -> SpecBits:
    over = dict(overrides)
    return SpecBits(lambda n: over[n] if n in over else base.bit(n))


# ---------------------------------------------------------------------------
# Consistency

@dataclass(frozen=True)
class ConsistencyCondition:
    n: int
    kid: int
    cover: frozenset
    stage: int   # the stage at which the cover was found avoided


class _RefuteMachine(Machine):
    """Enumerates conditions (touched basic below a patch, patch cover) and
    accepts at the first one whose cover is entirely avoided.

    A refuting cover consists of avoided basics only, so its union sits
    inside the union of all avoided basics; a patch is therefore eligible
    only once the avoided region provably covers it.  Cover streams are
    advanced for eligible patches alone, which keeps runs over realized
    (never refutable) specifications linear.
    """

    RECHECK_GRAIN = 16

    def __init__(self, e: Ercs, bits):
        super().__init__()
        self.e = e
        self.bits = bits
        self.condition: ConsistencyCondition | None = None
        self._kid_ns: dict[int, list[int]] = {}
        self._pending: list[int] = []
        self._active: list[int] = []
        self._kid_covers: dict[int, Cursor] = {}
        self._rr = 0
        self._zero_region = e.space.region()
        self._pairs = e.r_stream.cursor()
        self._us = e.u_stream.cursor()
        self._checked_version = -1
        self._next_recheck = 0

    def _check_cover(self, kid: int, cover: frozenset, t: int) -> bool:
        if any(self.bits.bit(i) != 0 for i in cover):
            return False
        n = self._kid_ns[kid][0]
        self.condition = ConsistencyCondition(n, kid, cover, t)
        return True

    def _advance_kid(self, kid: int, steps: int, t: int) -> bool:
        covers = self._kid_covers.get(kid)
        if covers is None:
            covers = self._kid_covers[kid] = self.e.compact_value(kid).covers.cursor()
        for cover in covers.upto(covers.stage + steps):
            if self._check_cover(kid, cover, t):
                return True
        return False

    def step(self, t: int) -> bool:
        for n, kid in self._pairs.upto(t + 1):
            if self.bits.bit(n) == 1:
                if kid not in self._kid_ns:
                    self._kid_ns[kid] = [n]
                    if self.e.covered(self._zero_region, kid):
                        self._active.append(kid)
                        if self._advance_kid(kid, 24, t):
                            return True
                    else:
                        self._pending.append(kid)
                else:
                    self._kid_ns[kid].append(n)
        for u in self._us.upto(t + 1):
            if self.bits.bit(u) == 0:
                self._zero_region.add(self.e.space.decode(u))
        quiet = self._pairs.quiescent(t + 1) and self._us.quiescent(t + 1)
        due = (self._zero_region.version != self._checked_version
               and t >= self._next_recheck)
        if self._pending and (quiet or due):
            self._checked_version = self._zero_region.version
            self._next_recheck = t + max(self.RECHECK_GRAIN, t // 8)
            still = []
            for kid in self._pending:
                if self.e.covered(self._zero_region, kid):
                    self._active.append(kid)
                    if self._advance_kid(kid, 24, t):
                        return True
                else:
                    still.append(kid)
            self._pending = still
        if self._active:
            self._rr %= len(self._active)
            kid = self._active[self._rr]
            self._rr += 1
            if self._advance_kid(kid, 1, t):
                return True
            if self.e.compact_value(kid).covers.stalled:
                self._active.remove(kid)
        elif quiet:
            # pending patches were just rechecked against the frozen region
            self.stall()
        return False


def consistency_refute(e: Ercs, bits, fuel: int) -> ConsistencyCondition | None:
    """First refuting condition found within the budget, or None.

    ``bits`` may be partial (None for unknown); only conditions whose bits
    are all known are used, so a refutation is sound for every extension.
    A returned condition certifies that no located set realizes the bits.
    """
    machine = _RefuteMachine(e, bits)
    if machine.poll(fuel) is None:
        return None
    return machine.condition


# ---------------------------------------------------------------------------
# Located sets from specifications

class _PositiveHits(MonotoneEnumerator[int]):
    """Basics certified to intersect the specified set: some touched basic
    is formally below a patch that fits inside the queried basic.

    ``positive(n, stage)`` says whether index n is touched as read below
    ``stage``; it may turn true over time (truth sequences), so formal
    pairs seen before their basic turned positive are retried whenever
    ``version(stage)`` moves, and the listing stalls only once
    ``quiet(stage)`` says that no index turns positive from ``stage`` on.
    """

    def __init__(self, e: Ercs, positive: Callable[[int, int], bool],
                 version: Callable[[int], int] = lambda stage: 0,
                 quiet: Callable[[int], bool] = lambda stage: True):
        super().__init__()
        self.e = e
        self.space = e.space
        self.positive = positive
        self.version = version
        self.quiet = quiet
        self._kid_index = self.space.cdesc_inside_index()
        self._kids_seen: set[int] = set()
        self._dormant: list[tuple[int, int]] = []
        self._pending: list[int] = []
        self._pending_set: set[int] = set()
        self._pairs = e.r_stream.cursor()
        self._us = e.u_stream.cursor()
        self._seen_version = 0

    def _activate(self, kid: int) -> bool:
        if kid in self._kids_seen:
            return False
        self._kids_seen.add(kid)
        cdesc = self.e.compact_cdesc(kid)
        if cdesc is None:
            return False
        self._kid_index.add(cdesc)
        return True

    def step(self, t: int):
        out = []
        sp = self.space
        fresh_kid = False
        for n, kid in self._pairs.upto(t + 1):
            if self.positive(n, t + 1):
                fresh_kid |= self._activate(kid)
            else:
                self._dormant.append((n, kid))
        v = self.version(t + 1)
        if v != self._seen_version:
            self._seen_version = v
            still = []
            for n, kid in self._dormant:
                if self.positive(n, t + 1):
                    fresh_kid |= self._activate(kid)
                else:
                    still.append((n, kid))
            self._dormant = still
        for u in self._us.upto(t + 1):
            d = sp.decode(u)
            if self._kid_index.some_inside(d):
                out.append(u)
            elif u not in self._pending_set:
                self._pending.append(u)
                self._pending_set.add(u)
        if fresh_kid and self._pending:
            still = []
            for u in self._pending:
                if self._kid_index.some_inside(sp.decode(u)):
                    out.append(u)
                    self._pending_set.discard(u)
                else:
                    still.append(u)
            self._pending = still
        if (self._pairs.quiescent(t + 1) and self._us.quiescent(t + 1)
                and self.quiet(t + 1)):
            self.stall()
        return out


def located_from_spec(e: Ercs, bits: SpecBits) -> LocatedSet:
    """The located set realizing a consistent specification.

    The complement collects every avoided basic; the overt side certifies
    hits through touched basics formally below patches inside the query.
    Refutable inputs yield a pair that fails coherence at some stage.
    """

    def co_step(t: int):
        d = e.space.decode(t)
        if d is not None and bits.bit(t) == 0:
            return (t,)
        return ()

    complement = OpenSet(e.space,
                         enumerate_step(co_step,
                                        stall_after=e.space.finite_basic_count),
                         label="spec-complement")
    hits = _PositiveHits(e, lambda n, stage: bits.bit(n) == 1)
    return LocatedSet(ClosedSet(complement), OvertSet(e.space, hits))


# ---------------------------------------------------------------------------
# Truth sequences

class TruthSequence:
    """The embedding of a located set into truth sequences, read off its
    names.

    ``hits`` is the set's overt name, read by the reader ``inside``.
    ``zeros`` lists, each once, the basics of the pairs that the set's
    complement swallows: a basic below a patch that misses the set.
    ``entry(n, fuel)`` returns ("one", s) at the stage s of the first hit
    inside basic n, ("zero", s) at the stage s at which ``zeros`` lists n,
    the earlier of the two below ``fuel`` (one on a tie), or None.  It is a
    function of (n, fuel), whatever was read before, so once an index
    resolves it never changes or flips.
    """

    def __init__(self, e: Ercs, a: LocatedSet):
        self.space = e.space
        self.hits = a.overt_part.hits
        self.inside = InsideReader(self.hits, self.space)
        self.zeros = open_subspace_ercs(e, a.closed_part.complement).u_stream
        # the zeros as far as entries read them, with each one's position
        self._zeros, self._zero_at = self.zeros.cursor(), {}

    def entry(self, n: int, fuel: int):
        d = self.space.decode(n)
        if d is None:
            return None
        got, end = None, fuel
        zero_at, cur = self._zero_at, self._zeros
        for z in cur.upto(max(fuel, cur.stage)):
            zero_at[z] = len(zero_at)
        i = zero_at.get(n)
        if i is not None and i < self.zeros.count(fuel):
            s = self.zeros.stage_of(i)
            got, end = ("zero", s), s + 1
        s = self.inside.first_inside(d, end)
        return got if s is None else ("one", s)


def spec_from_located(e: Ercs, a: LocatedSet) -> TruthSequence:
    return TruthSequence(e, a)


def located_from_truth(e: Ercs, t: TruthSequence) -> LocatedSet:
    """Inverse translation: the complement is the union of the zeros; hits
    are certified through positive basics below patches, a basic positive
    below a stage once the sequence's reader finds a hit inside it there.
    Both names are functions of the stage, whichever is read first."""
    inside, decode = t.inside, e.space.decode

    def positive(n: int, stage: int) -> bool:
        return inside.first_inside(decode(n), stage) is not None

    hits = _PositiveHits(e, positive, inside.informative, t.hits.quiescent)
    return LocatedSet(ClosedSet(OpenSet(e.space, t.zeros, label="truth-co")),
                      OvertSet(e.space, hits))


# ---------------------------------------------------------------------------
# Hausdorffness

def located_not_equal(a: LocatedSet, b: LocatedSet) -> SemidecisionProcess:
    """Semidecides inequality: one set escapes the other's closed name."""
    return any_accepts(not_subset(a.overt_part, b.closed_part),
                       not_subset(b.overt_part, a.closed_part))


# ---------------------------------------------------------------------------
# Universal quantification over located sets

class PrefixOracle:
    """Bit access handed to open predicates during the tree search."""

    def __init__(self, assigned: tuple[int, ...], indices: tuple[int, ...]):
        self.assigned = assigned
        self.indices = indices
        self._map = dict(zip(indices, assigned))

    def bit(self, n: int) -> int | None:
        return self._map.get(n)

    def zero_indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in zip(self.indices, self.assigned) if b == 0)

    def one_indices(self) -> tuple[int, ...]:
        return tuple(i for i, b in zip(self.indices, self.assigned) if b == 1)


class ForallSearch(Machine):
    """Depth-first prefix-tree search with iterative deepening.

    A branch closes when the predicate accepts on its prefix (sound for
    all extensions by monotonicity) or when the prefix alone is refuted
    (no consistent extension).  The search accepts when every branch of
    some finite depth closes; ``closing_depth`` reports how deep it went.
    """

    def __init__(self, e: Ercs, predicate):
        super().__init__()
        self.e = e
        self.predicate = predicate  # PrefixOracle -> SemidecisionProcess
        self.closing_depth: int | None = None
        self._indices: list[int] = []
        self._index_cursor = 0
        self._round = 0
        self._node_fuel = 0
        self._depth_limit = 0
        self._stack: list[tuple[int, ...]] = []
        self._machines: dict[tuple[int, ...], tuple] = {}
        self._closed: set[tuple[int, ...]] = set()
        self._max_depth_seen = 0

    def _valid_index(self, k: int) -> int | None:
        while len(self._indices) <= k:
            if (self.e.space.finite_basic_count is not None
                    and self._index_cursor >= self.e.space.finite_basic_count):
                return None
            if self.e.space.decode(self._index_cursor) is not None:
                self._indices.append(self._index_cursor)
            self._index_cursor += 1
        return self._indices[k]

    def _node(self, prefix: tuple[int, ...]):
        got = self._machines.get(prefix)
        if got is None:
            indices = tuple(self._indices[: len(prefix)])
            oracle = PrefixOracle(prefix, indices)
            refute = _RefuteMachine(self.e, oracle)
            accept = self.predicate(oracle)
            got = (accept, refute, [0])
            self._machines[prefix] = got
        return got

    def _start_round(self) -> None:
        self._round += 1
        self._depth_limit = self._round
        self._node_fuel = 8 * self._round
        self._stack = [()]
        self._max_depth_seen = 0

    def fast_forward(self, t: int, limit: int) -> int:
        """Applies the stages at which the top node only takes one more unit
        of fuel, in one poll of each of its fuel-monotone processes; ``step``
        then closes or expands the node."""
        stack = self._stack
        if not stack or stack[-1] in self._closed:
            return t
        accept, refute, fuel_box = self._node(stack[-1])
        fuel = fuel_box[0]
        last = fuel + min(limit - t, self._node_fuel - 1 - fuel)
        if last <= fuel:
            return t
        # the node closes just past its least acceptance stage; as in step,
        # refute runs only below the fuel at which accept closes it
        for process in (accept, refute):
            stage = process.poll(last)
            last = last if stage is None else stage
        fuel_box[0] = last
        self._max_depth_seen = max(self._max_depth_seen, len(stack[-1]))
        return t + last - fuel

    def step(self, t: int) -> bool:
        if not self._stack:
            self._start_round()
        prefix = self._stack[-1]
        self._max_depth_seen = max(self._max_depth_seen, len(prefix))
        if prefix in self._closed:
            self._stack.pop()
            if not self._stack:
                self.closing_depth = self._max_depth_seen
                return True
            return False
        accept, refute, fuel_box = self._node(prefix)
        fuel_box[0] += 1
        fuel = fuel_box[0]
        if accept.poll(fuel) is not None or refute.poll(fuel) is not None:
            self._closed.add(prefix)
            return False
        if fuel < self._node_fuel:
            return False
        # fuel for this node is spent at the current round
        if len(prefix) < self._depth_limit:
            depth = len(prefix)
            if self._valid_index(depth) is None:
                # no further basics: the prefix is total; abandon the round
                self._stack = []
                return False
            self._stack.pop()
            self._stack.append(prefix + (1,))
            self._stack.append(prefix + (0,))
            return False
        self._stack = []  # depth limit hit: deepen and retry
        return False


def forall_located(e: Ercs, predicate) -> ForallSearch:
    """Semidecides that an open predicate holds for every located set.

    The predicate maps a PrefixOracle to a semidecision process, monotone
    in both revealed bits and fuel; acceptance of the search implies the
    predicate holds on every located set of the space.
    """
    return ForallSearch(e, predicate)


# ---------------------------------------------------------------------------
# Open predicates for the search (and the command-line surface)

def subset_predicate(e: Ercs, outside_compact: CompactSet):
    """P(A): A avoids the given compact outside-region, i.e. A is included
    in the open set whose complement the region covers: certified when the
    avoided basics swallow the region."""

    def build(oracle: PrefixOracle) -> SemidecisionProcess:
        zeros = enumerate_list(oracle.zero_indices())
        return compact_subset(outside_compact, OpenSet(e.space, zeros, label="zero-bits"))

    return build


class _Meets(Machine):
    """Accepts at the first pair the open swallows whose basic is touched.
    Only a stage at which the pairs emit can accept, so ``fast_forward``
    applies the stages before the next one by doing nothing."""

    def __init__(self, swallowed: MonotoneEnumerator[tuple[int, int]],
                 ones: set[int]) -> None:
        super().__init__()
        self._swallowed = swallowed.cursor()
        self._ones = ones

    def fast_forward(self, t: int, limit: int) -> int:
        return self._swallowed.next_emission(limit)

    def step(self, t: int) -> bool:
        ones = self._ones
        return any(n in ones for n, _ in self._swallowed.upto(t + 1))


def meets_predicate(e: Ercs, u: OpenSet):
    """P(A): A intersects the open set: certified by a touched basic below
    a patch inside it, read off the pairs u swallows, listed once for
    every node of the search."""
    swallowed = swallowed_pairs(e, u)

    def build(oracle: PrefixOracle) -> SemidecisionProcess:
        return _Meets(swallowed, set(oracle.one_indices()))

    return build


def empty_or_predicate(e: Ercs, whole: CompactSet, inner):
    """P(A): A is empty (the avoided basics cover the space) or the inner
    predicate holds."""
    empty_side = subset_predicate(e, whole)

    def build(oracle: PrefixOracle) -> SemidecisionProcess:
        return any_accepts(empty_side(oracle), inner(oracle))

    return build


def and_predicate(*parts):
    def build(oracle: PrefixOracle) -> SemidecisionProcess:
        from .kernel import both_accept
        procs = [p(oracle) for p in parts]
        out = procs[0]
        for q in procs[1:]:
            out = both_accept(out, q)
        return out

    return build


def or_predicate(*parts):
    def build(oracle: PrefixOracle) -> SemidecisionProcess:
        return any_accepts(*[p(oracle) for p in parts])

    return build
