"""Concrete represented spaces and their countable bases.

A space here is a countable family of coded basic opens together with a
sound, decidable containment calculus on their descriptions.  Points are
named by monotone enumerations of basic opens containing them; all
endpoint arithmetic is exact rational arithmetic, never floating point.

Registered instance spaces: the rational line, the unit interval (basics
are traces of rational intervals), Cantor space (basics are cylinders),
the star space made of countably many unit-interval arms glued at a
center, and the one-point compactification of the rationals.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import partial
from heapq import merge
from itertools import chain, zip_longest
from math import gcd, isqrt
from operator import add, is_not, sub
from typing import Callable, Iterable, Iterator, Sequence

from .kernel import (
    MonotoneEnumerator,
    emission_slot,
    enumerate_list,
    enumerate_step,
    filter_lane,
    pair,
    pair_codes,
    pair_lane,
    slot_stage,
    unpair,
)


class UnknownSpace(Exception):
    pass


class MalformedLiteral(Exception):
    pass


class OutOfSpace(Exception):
    pass


class ParseError(Exception):
    pass


# A rational literal may have at most this many digits plus the magnitude of
# its decimal exponent, so that no integer it builds has more digits.  The
# answers print the ends they compute, CPython prints no integer of more
# than 4,300 digits (sys.get_int_max_str_digits), and building 10**e for a
# huge exponent e would not end.
LITERAL_DIGITS = 1000


def parse_rational(text: str) -> Fraction:
    t = text.strip()
    mantissa, _, exponent = t.lower().partition("e")
    size = sum(c.isdigit() for c in mantissa)
    magnitude = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if magnitude.isdigit():
        # more digits than the bound has: beyond it, with no int() built
        size += (int(magnitude) if len(magnitude) <= len(str(LITERAL_DIGITS))
                 else LITERAL_DIGITS + 1)
    if size > LITERAL_DIGITS:
        shown = t if len(t) <= 40 else f"{t[:20]}...{t[-12:]}"
        raise ParseError(f"rational literal {shown!r} is beyond {LITERAL_DIGITS} "
                         f"digits, exponent included")
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {text!r}") from exc


def rational_text(x: Fraction) -> str:
    """``p/q``, or ``p`` for an integer: a literal parse_rational reads."""
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def parse_open_interval(text: str):
    t = text.strip()
    if not (t.startswith("(") and t.endswith(")")):
        raise ParseError(f"open interval literal must look like (a,b): {text!r}")
    parts = t[1:-1].split(",")
    if len(parts) != 2:
        raise ParseError(f"open interval literal must have two endpoints: {text!r}")
    a, b = parse_rational(parts[0]), parse_rational(parts[1])
    if a >= b:
        raise ParseError(f"empty interval literal: {text!r}")
    return a, b


# A space memoizes decoded basics; registered spaces live for the process,
# so each cache is emptied whenever it reaches this many entries.
DECODE_CACHE_CAP = 1 << 17


def _remember(cache: dict, n: int, value) -> None:
    if len(cache) >= DECODE_CACHE_CAP:
        cache.clear()
    cache[n] = value


# ---------------------------------------------------------------------------
# Integer / rational / word codes

def zigzag(n: int) -> int:
    """Natural -> integer: 0, -1, 1, -2, 2, ..."""
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


def zigzag_inv(k: int) -> int:
    return 2 * k if k >= 0 else -2 * k - 1


def decode_rational(n: int) -> Fraction:
    u, v = unpair(n)
    return Fraction(zigzag(u), v + 1)


def encode_rational(q: Fraction) -> int:
    if not isinstance(q, Fraction):
        q = Fraction(q)
    return pair(zigzag_inv(q.numerator), q.denominator - 1)


def _rational_code(num: int, den: int) -> int:
    """encode_rational(num / den), den > 0, with no Fraction built."""
    g = gcd(num, den)
    return pair(zigzag_inv(num // g), den // g - 1)


# Entry i is decode_rational(i) as (numerator, denominator), not always in
# lowest terms: the end tests of the diagonal lanes read the ends of
# interval codes here, one table for every lane, grown as they reach
# further diagonals.
_ENDS: list[tuple[int, int]] = []


def _end(i: int) -> tuple[int, int]:
    ends = _ENDS
    while len(ends) <= i:
        u, v = unpair(len(ends))
        ends.append((zigzag(u), v + 1))
    return ends[i]


def _ends_ordered(i: int, j: int) -> bool:
    """a < b for the rational ends a, b of codes i and j, both already in
    the table: the join of the diagonal lanes of interval codes."""
    (an, ad), (bn, bd) = _ENDS[i], _ENDS[j]
    return an * bd < bn * ad


def _end_mask(lo: int, hi: int, bound: tuple[int, int] | None, closed: int,
              below: bool) -> int:
    """Bit x - lo, for each code x in [lo, hi), set when the rational end
    of code x lies below the bound (above it, when ``below`` is False), or
    at it when ``closed`` is 1; every bit when the bound is None.  The
    masks of :func:`pair_codes` on end codes."""
    if bound is None:
        return (1 << hi - lo) - 1
    _end(hi - 1)
    bn, bd = bound
    ends = _ENDS[hi - 1:lo - 1:-1] if lo else _ENDS[hi - 1::-1]
    if below:
        bits = ["1" if n * bd - bn * d < closed else "0" for n, d in ends]
    else:
        bits = ["1" if bn * d - n * bd < closed else "0" for n, d in ends]
    return int("".join(bits), 2)


_new_object = object.__new__


def _lowest(num: int, den: int) -> Fraction:
    """num / den, den > 0, as a Fraction in lowest terms: one gcd, and the
    slots set directly, as Fraction._from_coprime_ints does on CPython
    3.12 and later.  Fraction(num, den) would add about 0.3 us of type
    dispatch and normalising per end (CPython 3.11)."""
    g = gcd(num, den)
    q = _new_object(Fraction)
    q._numerator, q._denominator = num // g, den // g
    return q


def interval_ends(n: int, lo: tuple[int, int] | None = None,
                  hi: tuple[int, int] | None = None):
    """The ends (a, b) of the open interval coded by n (the inverse of
    :func:`encode_interval`) when a < b, lo < b and a < hi, or None.

    The code is unpaired and zigzagged to the integers of both ends, and
    the bounds, given as (numerator, denominator) pairs or None for no
    bound, are tested on those integers: an invalid code builds no
    Fraction, and only a valid one gets its two ends, in lowest terms.
    """
    # unpair(n), then unpair each half and zigzag its first part, inline
    s = (isqrt(8 * n + 1) - 1) >> 1
    j = n - (s * s + s >> 1)
    i = s - j
    s = (isqrt(8 * i + 1) - 1) >> 1
    ad = i - (s * s + s >> 1)
    an = s - ad
    an = an >> 1 if not an & 1 else -(an + 1 >> 1)
    ad += 1
    s = (isqrt(8 * j + 1) - 1) >> 1
    bd = j - (s * s + s >> 1)
    bn = s - bd
    bn = bn >> 1 if not bn & 1 else -(bn + 1 >> 1)
    bd += 1
    if an * bd >= bn * ad:
        return None
    if lo is not None and bn * lo[1] <= lo[0] * bd:
        return None
    if hi is not None and an * hi[1] >= hi[0] * ad:
        return None
    return _lowest(an, ad), _lowest(bn, bd)


def encode_interval(lo, hi) -> int:
    return pair(encode_rational(lo), encode_rational(hi))


def word_rank(w: str) -> int:
    """Binary words ordered by length then value; '' -> 0, '0' -> 1, '1' -> 2."""
    return (1 << len(w)) - 1 + (int(w, 2) if w else 0)


def word_unrank(n: int) -> str:
    length = (n + 1).bit_length() - 1
    offset = n - ((1 << length) - 1)
    return format(offset, "b").zfill(length) if length else ""


def encode_rational_set(qs: Iterable[Fraction]) -> int:
    n = 0
    for q in qs:
        n |= 1 << encode_rational(q)
    return n


def decode_rational_set(n: int) -> frozenset[Fraction]:
    out = []
    i = 0
    while n:
        if n & 1:
            out.append(decode_rational(i))
        n >>= 1
        i += 1
    return frozenset(out)


# ---------------------------------------------------------------------------
# One-dimensional interval calculus with endpoint flags
#
# An "fiv" is (ln, ld, lo_open, hn, hd, hi_open): the set of x with ln / ld
# <(=) x <(=) hn / hd, each end an integer pair in lowest terms with a
# positive denominator, so that equal ends are equal pairs.  A basic is a
# code of two rational codes, so its ends are integers before they are
# values: fiv, cfiv and trace convert a description's two Fraction ends
# once, with as_integer_ratio (which ints have too), and every test below
# compares ends by integer cross-multiplication.  Endpoints order as keys
# so that containment becomes two-sided dominance: the lo key (lo,
# lo_open) puts closed=0 before open=1 at the same point, the hi key (hi,
# 1 - hi_open) puts open before closed.

Fiv = tuple[int, int, int, int, int, int]


def as_fiv(lo, lo_open: int, hi, hi_open: int) -> Fiv:
    """The fiv with the rational ends lo and hi, Fractions or ints."""
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    return (ln, ld, lo_open, hn, hd, hi_open)


def fiv_nonempty(f: Fiv) -> bool:
    ln, ld, lf, hn, hd, hf = f
    c = ln * hd - hn * ld
    return c < 0 or (c == 0 and not lf and not hf)


def fiv_subset(a: Fiv, b: Fiv) -> bool:
    """a included in b; both assumed nonempty."""
    aln, ald, alf, ahn, ahd, ahf = a
    bln, bld, blf, bhn, bhd, bhf = b
    c = bln * ald - aln * bld
    if c > 0 or (c == 0 and blf > alf):
        return False
    c = ahn * bhd - bhn * ahd
    return c < 0 or (c == 0 and ahf >= bhf)


def _apart(hn: int, hd: int, hi_open, ln: int, ld: int, lo_open) -> bool:
    """An interval ending at hn / hd lies wholly left of one starting at
    ln / ld."""
    c = hn * ld - ln * hd
    return c < 0 or (c == 0 and bool(hi_open or lo_open))


def fiv_disjoint(a: Fiv, b: Fiv) -> bool:
    return (_apart(a[3], a[4], a[5], b[0], b[1], b[2])
            or _apart(b[3], b[4], b[5], a[0], a[1], a[2]))


def fiv_member(x, f: Fiv) -> bool:
    """The rational x, a Fraction or an int, lies in f."""
    xn, xd = x.as_integer_ratio()
    c = xn * f[1] - f[0] * xd
    if c < 0 or (c == 0 and f[2]):
        return False
    c = xn * f[4] - f[3] * xd
    return c < 0 or (c == 0 and not f[5])


def fiv_mergeable(a: Fiv, b: Fiv) -> bool:
    """True when the union of a and b is again an interval."""
    c = a[3] * b[1] - b[0] * a[4]
    if c < 0 or (c == 0 and a[5] and b[2]):
        return False
    c = b[3] * a[1] - a[0] * b[4]
    return not (c < 0 or (c == 0 and b[5] and a[2]))


def fiv_hull(a: Fiv, b: Fiv) -> Fiv:
    c = a[0] * b[1] - b[0] * a[1]
    lo = a if c < 0 or (c == 0 and a[2] <= b[2]) else b
    c = a[3] * b[4] - b[3] * a[4]
    hi = a if c > 0 or (c == 0 and a[5] <= b[5]) else b
    return lo[:3] + hi[3:]


def _lo_search(fivs: list[Fiv], f, right: int = 0) -> int:
    """The first position of ``fivs``, sorted by lo key, whose lo key is at
    least f's, or above it when ``right`` is 1: ``bisect_left`` or
    ``bisect_right`` on the lo keys.  Only f[:3], its lo key, is read."""
    n, d, flag = f[0], f[1], f[2]
    lo, hi = 0, len(fivs)
    while lo < hi:
        mid = (lo + hi) >> 1
        m = fivs[mid]
        # m's lo key below f's for bisect_left, at most f's for bisect_right
        c = m[0] * d - n * m[1]
        if c < 0 or c == 0 and m[2] - flag < right:
            lo = mid + 1
        else:
            hi = mid
    return lo


class FivUnion:
    """Growing union of fivs; answers whether it covers a given fiv.

    Components are kept sorted by lo key and pairwise non-mergeable.
    ``version`` counts the additions that actually changed the union, so
    callers can skip requerying an unchanged state.
    """

    def __init__(self) -> None:
        self._parts: list[Fiv] = []
        self.version = 0

    def add(self, f: Fiv) -> None:
        if self.covers(f):   # empty, or held by the component at its left end
            return
        parts = self._parts
        k = _lo_search(parts, f)
        i = k
        while i > 0 and fiv_mergeable(parts[i - 1], f):
            i -= 1
        j = k
        while j < len(parts) and fiv_mergeable(parts[j], f):
            j += 1
        merged = f
        for p in parts[i:j]:
            merged = fiv_hull(merged, p)
        if j - i == 1 and parts[i] == merged:
            return
        parts[i:j] = [merged]
        self.version += 1

    def covers(self, f: Fiv) -> bool:
        if not fiv_nonempty(f):
            return True
        k = _lo_search(self._parts, f, 1)
        return k > 0 and fiv_subset(f, self._parts[k - 1])

    def covers_point(self, x) -> bool:
        return self.part_at(x) is not None

    def part_at(self, x) -> Fiv | None:
        """The component of the union that contains the rational x, if any."""
        f = as_fiv(x, 0, x, 0)
        k = _lo_search(self._parts, f, 1)
        if k and fiv_subset(f, self._parts[k - 1]):
            return self._parts[k - 1]
        return None


class FivCoverIndex:
    """Antichain of maximal fivs answering: is a query inside SOME member?

    Members are sorted by lo key; being an antichain, hi keys increase with
    lo keys, so the best candidate container for a query is the member with
    the largest lo key not exceeding the query's.
    """

    def __init__(self) -> None:
        self._fivs: list[Fiv] = []

    def add(self, f: Fiv) -> None:
        if not fiv_nonempty(f) or self.contains(f):
            return
        k = _lo_search(self._fivs, f)
        j = k
        while j < len(self._fivs) and fiv_subset(self._fivs[j], f):
            j += 1
        self._fivs[k:j] = [f]

    def contains(self, f: Fiv) -> bool:
        k = _lo_search(self._fivs, f, 1)
        return k > 0 and fiv_subset(f, self._fivs[k - 1])


# ---------------------------------------------------------------------------
# Space interface

class Space:
    """A countably based space with a decidable calculus on basic opens.

    ``decode`` maps every natural number to a basic-open description or
    None when the index is malformed for this space; enumerations of basics
    only ever produce valid indices.  The containment and disjointness
    tests are sound, and complete for the registered instance spaces.

    Each space owns its topological calculus: the containment tests, the
    compact description operations and the generated lanes of set names.
    A default that answers False, None or an empty lane (or raises
    OutOfSpace) means "unsupported" and never asserts anything.  The ball
    tests and the distance bounds of a metric space belong to its
    ``metric`` (see :class:`MetricStructure`).
    """

    name: str = "?"

    # description-level calculus -------------------------------------------------
    def decode(self, n: int):
        raise NotImplementedError

    def basic_subset(self, d1, d2) -> bool:
        raise NotImplementedError

    def subset_lane(self, desc, seeds) -> MonotoneEnumerator[int]:
        """The lane of ``open_from_fixture``: at each slot stage the codes
        ``seeds(slot)``, then each code t whose basic is a ``basic_subset``
        of the basic desc; it stalls at ``finite_basic_count``.  A space
        may find the same stages more cheaply."""
        return filter_lane(self.decode, lambda d1: self.basic_subset(d1, desc), seeds,
                           self.finite_basic_count)

    def point_in_basic(self, value, d) -> bool:
        raise NotImplementedError

    def cdesc_in_basic(self, cdesc, d) -> bool:
        """Sound test: compact description included in one basic open."""
        raise NotImplementedError

    def closure_pairs(self) -> MonotoneEnumerator[int]:
        """Fresh lane of the codes p = pair(m, k) whose basic m lies inside
        the closure of the basic k, each listed at stage p; sound, and the
        default, an empty stalled lane, asserts nothing."""
        return enumerate_list(())

    def basic_meets_cdesc(self, d, cdesc) -> bool:
        """Sound (exact on instances): the basic intersects the described set."""
        raise NotImplementedError

    def basic_meets_cdesc_test(self, cdesc) -> Callable[[object], bool]:
        """The predicate ``d -> basic_meets_cdesc(d, cdesc)``, for a filter
        that tests many basics against one fixed description; a space may
        prepare the description once."""
        return lambda d: self.basic_meets_cdesc(d, cdesc)

    def cdesc_intersect(self, c1, c2):
        """Exact intersection of compact descriptions, or None if unsupported."""
        return None

    def cdesc_union(self, c1, c2):
        """Exact union of compact descriptions, or None if unsupported."""
        return None

    # aggregate helpers ------------------------------------------------------
    def region(self) -> "Region":
        """Tracker for a growing union of basics."""
        raise NotImplementedError

    def cover_index(self):
        """Index of basics answering: is a query basic inside some member?"""
        return _ScanCoverIndex(self)

    def basic_inside_index(self):
        """Index of basics answering: is some member inside a query basic?"""
        return _ScanBasicInsideIndex(self)

    def cdesc_inside_index(self):
        """Index of compact descriptions answering: is some member inside a basic?"""
        return _ScanInsideIndex(self)

    # enumeration ------------------------------------------------------------
    finite_basic_count: int | None = None

    def all_basics(self) -> MonotoneEnumerator[int]:
        """Fresh enumeration of every valid basic index, in index order."""
        return filter_lane(self.decode, lambda d: True, stall_after=self.finite_basic_count)

    def basic_intersection_code(self, d1, d2) -> int | None:
        """Index of the basic equal to the intersection, when that exists."""
        return None

    # optional structure -------------------------------------------------------
    metric: "MetricStructure | None" = None
    whole_compact_desc = None

    def local_pinch(self, vdesc, pdesc):
        """Given basics v (a candidate neighborhood) and p (a target), return
        a compact description K with v included in K included in p, or None.
        Soundness only; None never asserts impossibility."""
        return None

    def pinch_candidate(self, vdesc) -> bool:
        """False when no target can ever pinch with this neighborhood."""
        return True

    def pinch_target(self, pdesc) -> bool:
        """False when no neighborhood can ever pinch with this target."""
        return True

    # encoding, points and literals ------------------------------------------
    def encode_basic(self, d) -> int | None:
        """An index that decodes to d, or None; the default searches a
        finite base."""
        for n in range(self.finite_basic_count or 0):
            if self.decode(n) == d:
                return n
        return None

    def point_name(self, value) -> "PointName":
        """Name of the exact fixture point ``value``: sound at every stage,
        complete in the limit.  Raises OutOfSpace when value is no point
        or the space has no exact point names."""
        raise OutOfSpace(f"no exact points for {self.name}")

    def parse_basic(self, text: str):
        """The basic description written in ``text``; the default reads an
        open interval ``(a,b)``.  Raises ParseError."""
        return parse_open_interval(text)

    def parse_point(self, text: str):
        """The exact point written in ``text``; the default reads a
        rational.  Raises ParseError or OutOfSpace."""
        return parse_rational(text)

    def format_basic(self, d) -> str:
        """The literal that ``parse_basic`` reads as the basic d; the
        default writes an open interval ``(a,b)``."""
        return f"({rational_text(d[0])},{rational_text(d[1])})"

    def format_located(self, cdesc) -> list[str]:
        """The chunks of a literal, joined with '+', that ``parse_located``
        reads as cdesc; the default writes closed intervals ``[p,q]``."""
        return [f"[{rational_text(p)},{rational_text(q)}]" for p, q in cdesc]

    def parse_located(self, text: str):
        """The compact description written in ``text``; the default reads
        closed rational intervals and finite point sets joined with '+',
        e.g. ``[0,1/2]`` or ``{0,1}+[3/4,1]``.  Raises ParseError or
        OutOfSpace."""
        pieces = []
        for chunk in text.split("+"):
            t = chunk.strip()
            if t.startswith("[") and t.endswith("]"):
                parts = t[1:-1].split(",")
                if len(parts) != 2:
                    raise ParseError(f"closed interval needs two endpoints: {t!r}")
                p, q = parse_rational(parts[0]), parse_rational(parts[1])
                if p > q:
                    raise ParseError(f"empty closed interval: {t!r}")
                pieces.append((p, q))
            elif t.startswith("{") and t.endswith("}"):
                for point in t[1:-1].split(","):
                    q = parse_rational(point)
                    pieces.append((q, q))
            else:
                raise ParseError(f"located literal chunk {t!r} (want [a,b] or {{p,...}})")
        return self.make_cdesc(pieces)

    def make_cdesc(self, pieces):
        """The compact description of the given pieces; raises OutOfSpace
        if unsupported or if a piece is not part of the space."""
        raise OutOfSpace(f"no compact descriptions on {self.name}")

    def compact_complement(self, d):
        """Exact compact description of the whole compact minus the basic
        d, or None if unsupported."""
        return None

    # generated lanes of set names: each item is sound for its name ------------
    def shrunk_core(self, d, slot: int) -> int | None:
        """A basic inside the basic d (d itself at slot 0), or None."""
        return self.encode_basic(d) if slot == 0 else None

    def complement_gaps(self, cdesc, slot: int) -> list[int]:
        """Basics that miss the described set."""
        return []

    def envelope_covers(self, cdesc, slot: int) -> list[frozenset]:
        """Finite families of basics that cover the described set."""
        return []

    def overt_seeds(self, cdesc) -> Iterable[int]:
        """A finite stream of basics that meet the described set."""
        return ()

    def __repr__(self) -> str:
        return f"<space {self.name}>"


class Region:
    """The covered part of a growing union of basics.  ``covers`` tests a
    compact description in the form ``key`` gives it, which a caller that
    tests one description many times computes once."""

    version = 0

    def add(self, desc) -> None:
        raise NotImplementedError

    def key(self, cdesc):
        return cdesc

    def covers(self, key) -> bool:
        raise NotImplementedError

    def covers_cdesc(self, cdesc) -> bool:
        return self.covers(self.key(cdesc))


class _ScanCoverIndex:
    def __init__(self, space: Space):
        self.space = space
        self.members: list = []

    def add(self, d) -> None:
        self.members.append(d)

    def contains(self, d) -> bool:
        return any(self.space.basic_subset(d, m) for m in self.members)


class _ScanInsideIndex:
    def __init__(self, space: Space):
        self.space = space
        self.members: list = []

    def add(self, cdesc) -> None:
        self.members.append(cdesc)

    def some_inside(self, d) -> bool:
        return any(self.space.cdesc_in_basic(m, d) for m in self.members)


class _ScanBasicInsideIndex:
    def __init__(self, space: Space):
        self.space = space
        self.members: list = []

    def add(self, d) -> None:
        self.members.append(d)

    def some_inside(self, d) -> bool:
        return any(self.space.basic_subset(m, d) for m in self.members)


# ---------------------------------------------------------------------------
# Listings of basics and point names

class InsideReader:
    """A listing of basic codes (a point's name, an overt set's hits), read
    for the one question asked of it: when does it first list a basic
    inside the basic d?  It is read through one cursor, no further than a
    question needs, and its informative items (none of an earlier stage
    lies inside them) are kept with their stages: they are tested in stage
    order once the space's ``basic_inside_index`` of them says that one of
    them lies inside d."""

    def __init__(self, listing: MonotoneEnumerator[int], space: Space):
        self.space = space
        self._cursor = listing.cursor()
        self._index = space.basic_inside_index()
        self._kept: list[tuple[int, object]] = []   # informative (stage, basic)s

    def first_inside(self, d, limit: int) -> int | None:
        """The least stage below ``limit`` at which the listing holds a
        basic inside the basic d (by ``basic_subset``), or None; the answer
        depends on (d, limit) only, whatever was asked before."""
        if self._index.some_inside(d):
            subset = self.space.basic_subset
            s = next(s for s, nd in self._kept if subset(nd, d))
            return s if s < limit else None
        return self._read(d, limit)

    def informative(self, stage: int) -> int:
        """The number of informative items listed below ``stage``: it moves
        whenever ``first_inside(d, stage)`` leaves None for some d."""
        self._read(None, stage)
        return bisect_left(self._kept, (stage,))

    def _read(self, d, limit: int) -> int | None:
        """Reads on to the first stage below ``limit`` that lists a new
        informative basic inside d (never, when d is None), and returns it."""
        sp, cursor, index, kept = self.space, self._cursor, self._index, self._kept
        subset = sp.basic_subset
        while True:
            s = cursor.next_emission(limit)
            if s == limit:
                return None
            hit = False
            for nd in map(sp.decode, cursor.upto(s + 1)):
                if not index.some_inside(nd):
                    index.add(nd)
                    kept.append((s, nd))
                    hit = hit or d is not None and subset(nd, d)
            if hit:
                return s


class PointName:
    """A point given by a sound enumeration of basic opens containing it.

    ``value`` carries the exact fixture datum (a rational, a word, ...)
    when the name was built from one; generic algorithms never rely on it,
    verification code does.

    ``first_inside(d, limit)`` asks the name when it first lists a basic
    inside the basic d: the compact-base search asks it of each basic it
    may accept.  A name whose listing has a closed form answers from it
    (see ``_LineSubspace.point_name``); the method here asks an
    :class:`InsideReader` of the name, built at the first question.
    """

    def __init__(self, space: Space, neighborhoods: MonotoneEnumerator[int],
                 value=None):
        self.space = space
        self.neighborhoods = neighborhoods
        self.value = value
        self._reader: InsideReader | None = None

    def first_inside(self, d, limit: int) -> int | None:
        if self._reader is None:
            self._reader = InsideReader(self.neighborhoods, self.space)
        return self._reader.first_inside(d, limit)

    def __repr__(self) -> str:
        return f"<point {self.value!r} in {self.space.name}>"


# ---------------------------------------------------------------------------
# Metric structure

class MetricStructure:
    """Dense sequence with an exactly computable distance.

    ``exact(p, q)`` is the distance between two points of the space as a
    rational; ``dense(i)`` is the i-th dense point and ``dense_index`` its
    inverse.

    A metric with ``calculus`` set is one family's class that also
    implements, on exact centers x, the ball calculus and the distance
    bounds that the balls and brackets of ``erctopo.metric`` read.  Every
    test is sound: True certifies the relation, False asserts nothing.

    - ``in_open_ball(x, d, r)``: the basic d lies inside B(x, r);
      ``meets_open_ball(x, d, r)``: d meets B(x, r);
      ``ball_inside_basic(x, r, d)``: B(x, r) lies inside d.
    - ``far(x, d, below)`` is at least the supremum, ``near(x, d, above)``
      at most the infimum distance from x to a point of d.  A bound stream
      passes its running best as ``below`` or ``above``: a bound that
      would not strictly improve on it may then come back as None, so
      that a metric can skip building it.
    - ``clearance(x)`` is a fresh tracker of a growing union of basics:
      each call adds a basic and answers at most the distance from x to
      every point of the space outside the basics added so far, or None.
      Fed the parts of a closed set's complement name, it bounds the
      distance from x to the set from below.
    - ``cover_hull(descs)``: a compact description of a set containing
      every basic in descs.
    - ``hausdorff_cells()`` is a fresh tracker of the bounds between a set
      X, given at each read by a hull (a compact description of a set
      containing X), and a set Y, given by indices of basics that each
      meet Y.  ``add(indices)`` feeds such indices as they are enumerated;
      an index already held is ignored.  ``bounds(hull)`` returns (lower,
      upper): lower at most the supremum over y in Y of d(y, X), upper at
      least the supremum over x in X of d(x, Y), or None while no cell is
      held.  A tracker may measure a cell against the hull of the read
      that first sees it, and may let go of a cell that can never bring
      an upper bound below the one returned.
    - ``closed_ball_desc(x, r)`` and ``annulus_desc(x, lo, hi)``: exact
      compact descriptions of the closed ball and of {y : lo <= d(x, y)
      <= hi}.
    - ``encode_ball(x, r)``: an index of a basic equal to B(x, r), or
      None; ``ball_core(x, r, slot)``: a basic inside B(x, r), growing
      toward it with the slot, or None.
    - Candidates the caller checks: ``ball_seeds(x, r)``, a finite stream
      of basics near B(x, r); ``annulus_tiles(x, lo, hi, w)``, basics of
      width about 2w tiling the annulus between lo and hi around x;
      ``witness_candidates(x, dist, rho)``, points within rho of the
      sphere of radius dist around x.
    """

    calculus = False

    def __init__(self, space: Space, dense: Callable[[int], object],
                 dense_index: Callable[[object], int],
                 exact: Callable[[object, object], Fraction]):
        self.space = space
        self.dense = dense
        self.dense_index = dense_index
        self.exact = exact


# ---------------------------------------------------------------------------
# Subspaces of the line: the line, the unit interval and finite unions of
# closed intervals

class _LineSubspace(Space):
    """A subspace of the rational line; basics are traces of open rational
    intervals (a, b) and d(x, y) = |x - y|.

    ``trace(d)`` gives the trace of d as flagged intervals, one per carrier
    piece it meets, and the calculus here is written once over traces.
    Compact descriptions are sorted, disjoint tuples of closed pieces
    (p, q), p <= q, inside the carrier.
    """

    # The least and greatest points of the carrier as (numerator,
    # denominator) pairs, None on an unbounded side; and whether the
    # carrier has gaps, where an interval meeting its hull may miss it.
    _hull: tuple[tuple[int, int] | None, tuple[int, int] | None] = (None, None)
    _gaps = False
    # The open intervals (lo, hi) of the line outside the carrier, in order,
    # an end None where there is none; decode's test that joins the end
    # codes i and j of a basic (each subclass sets it); and the join of
    # closure_pairs on codes (m, k), None where it lists nothing.
    _outside: tuple[tuple[tuple[int, int] | None, tuple[int, int] | None], ...] = ()
    _basic_join: Callable[[int, int], bool]
    _closure_join: Callable[[int, int], bool] | None = None

    def __init__(self) -> None:
        # a subclass sets _hull and _gaps first: the metric reads them
        self._decode_cache: dict[int, object] = {}
        self.metric = _LineMetric(self)

    def decode(self, n: int):
        """The open interval (a, b) coded by n, or None when its trace is
        empty.  The code is tested on integers, a < b and against the
        carrier's hull (see :func:`interval_ends`); Fractions are built
        only for a valid code, and only a carrier with gaps then tests the
        trace itself."""
        try:
            return self._decode_cache[n]
        except KeyError:
            pass
        d = interval_ends(n, *self._hull)
        if d is not None and self._gaps and not self.trace(d):
            d = None
        _remember(self._decode_cache, n, d)
        return d

    def trace(self, d) -> Sequence[Fiv]:
        raise NotImplementedError

    def _clip(self, p: Fraction, q: Fraction) -> Sequence[tuple[Fraction, Fraction]]:
        """The parts of the closed piece [p, q] inside the carrier."""
        raise NotImplementedError

    def in_carrier(self, x: Fraction) -> bool:
        raise NotImplementedError

    def basic_subset(self, d1, d2) -> bool:
        # plain loops, not all/any generators: the overt semideciders call
        # this once per enumerated basic, and generators cost 50% more here
        t2 = self.trace(d2)
        for f1 in self.trace(d1):
            for f2 in t2:
                if fiv_subset(f1, f2):
                    break
            else:
                return False
        return True

    def point_in_basic(self, value, d) -> bool:
        for f in self.trace(d):
            if fiv_member(value, f):
                return True
        return False

    def make_cdesc(self, pieces) -> tuple:
        out: list[tuple[Fraction, Fraction]] = []
        for p, q in sorted(c for u, v in pieces
                           for c in self._clip(Fraction(u), Fraction(v))):
            if out and p <= out[-1][1]:
                out[-1] = (out[-1][0], max(out[-1][1], q))
            else:
                out.append((p, q))
        return tuple(out)

    def cdesc_in_basic(self, cdesc, d) -> bool:
        traces = self.trace(d)
        return all(any(fiv_subset(as_fiv(p, 0, q, 0), f) for f in traces)
                   for p, q in cdesc)

    def basic_meets_cdesc(self, d, cdesc) -> bool:
        return any(not fiv_disjoint(f, as_fiv(p, 0, q, 0))
                   for f in self.trace(d) for p, q in cdesc)

    def basic_meets_cdesc_test(self, cdesc) -> Callable[[object], bool]:
        # Every piece [p, q] lies inside the carrier, so the trace of (a, b)
        # meets it exactly when (a, b) does: a < q and p < b, tested on the
        # integers of the ends.
        ends = [(*p.as_integer_ratio(), *q.as_integer_ratio()) for p, q in cdesc]

        def test(d) -> bool:
            (an, ad), (bn, bd) = d[0].as_integer_ratio(), d[1].as_integer_ratio()
            for pn, pd, qn, qd in ends:
                if an * qd < qn * ad and pn * bd < bn * pd:
                    return True
            return False

        return test

    def cdesc_intersect(self, c1, c2):
        out = []
        for p1, q1 in c1:
            for p2, q2 in c2:
                lo, hi = max(p1, p2), min(q1, q2)
                if lo <= hi:
                    out.append((lo, hi))
        return self.make_cdesc(out)

    def cdesc_union(self, c1, c2):
        return self.make_cdesc(list(c1) + list(c2))

    def basic_intersection_code(self, d1, d2) -> int | None:
        # the trace of a basic is nonempty, so each of d1 and d2 has its
        # left end below the carrier's greatest point and its right end
        # above the least, and so do a and b: only a < b and the gaps are
        # left to test
        a, b = max(d1[0], d2[0]), min(d1[1], d2[1])
        if a >= b or self._gaps and not self.trace((a, b)):
            return None
        return encode_interval(a, b)

    def region(self) -> Region:
        return _TraceRegion(self)

    # encoding, points and literals ------------------------------------------
    def encode_basic(self, d) -> int:
        return encode_interval(*d)

    def point_name(self, value) -> PointName:
        q = Fraction(value)
        if not self.in_carrier(q):
            raise OutOfSpace(f"{q} outside carrier of {self.name}")
        return _RationalName(self, q)

    def _widest(self, d) -> tuple[tuple[int, int] | None, tuple[int, int] | None]:
        """The ends of the widest open interval whose trace is d's, as
        (numerator, denominator) pairs, None on a side where it has no
        end: the greatest carrier point at most d's left end, and the
        least at least its right end.  On a carrier without gaps these are
        d's own ends, where they do not lie beyond the carrier."""
        lo, hi = self._hull
        (an, ad), (bn, bd) = d[0].as_integer_ratio(), d[1].as_integer_ratio()
        return ((an, ad) if lo is None or lo[0] * ad <= an * lo[1] else None,
                (bn, bd) if hi is None or bn * hi[1] <= hi[0] * bd else None)

    def compact_complement(self, d):
        whole = self.whole_compact_desc
        if whole is None:
            return None
        a, b = d
        return self.make_cdesc([(p, min(q, a)) for p, q in whole if p <= a] +
                               [(max(p, b), q) for p, q in whole if q >= b])

    # generated lanes of set names -------------------------------------------
    def shrunk_core(self, d, slot: int) -> int:
        a, b = d
        if slot == 0:
            return encode_interval(a, b)
        # (a + w, b - w), w = (b - a) / 2**(slot + 2), over the denominator
        # ad * bd << slot + 2: integers, with one gcd per end
        an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
        den, w = ad * bd << slot + 2, bn * ad - an * bd
        return pair(_rational_code((an * bd << slot + 2) + w, den),
                    _rational_code((bn * ad << slot + 2) - w, den))

    def complement_gaps(self, cdesc, slot: int) -> list[int]:
        width = Fraction(2 ** slot)
        if not cdesc:
            return [encode_interval(-width, width)]
        out = []
        if slot == 0:
            for (_, q1), (p2, _) in zip(cdesc, cdesc[1:]):
                out.append(encode_interval(q1, p2))
        lo, hi = cdesc[0][0], cdesc[-1][1]
        out.append(encode_interval(lo - width, lo))
        out.append(encode_interval(hi, hi + width))
        return out

    def envelope_covers(self, cdesc, slot: int) -> list[frozenset]:
        if not cdesc:
            return []
        # Coded with _cells, as the seed lanes are.  Each piece [p, q] is put
        # over unit = den(p) * den(q), at p = lo / unit and q = (lo + span) /
        # unit.  One margin envelope per piece, (p - eps, q + eps) with eps =
        # 4 / 2**slot: margins sweep down from coarse.
        envelope, cells = [], []
        m = min(slot, 6)
        for p, q in cdesc:
            unit = p.denominator * q.denominator
            lo = p.numerator * q.denominator
            span = q.numerator * p.denominator - lo
            # over unit * 2**(slot + 1): mid (p + q) / 2, half (q - p) / 2 + eps
            envelope.extend(_cells((lo + lo + span << slot,),
                                   (span << slot) + 8 * unit, unit << slot + 1))
            if span:
                # a partition of the piece into 2**m cells of width w =
                # (q - p) / 2**m, each widened by w / 4 on both sides: over
                # unit * 2**(m + 2), cell i has mid (lo << m + 2) + (4i + 2)
                # * span and half 3 * span
                first = (lo << m + 2) + 2 * span
                cells.extend(_cells(range(first, first + (span << m + 2), 4 * span),
                                    3 * span, unit << m + 2))
            else:
                # a singleton: the cell of half-width 2**-(slot + 2) around it
                cells.extend(_cells((p.numerator << slot + 2,), p.denominator,
                                    p.denominator << slot + 2))
        return [frozenset(envelope), frozenset(cells)]

    def overt_seeds(self, cdesc) -> Iterable[int]:
        """Two finite lanes dovetailed, one endpoint seed to three grid
        seeds, either running on alone once the other is spent: see
        :func:`_endpoint_lane` and :func:`_grid_lane`."""
        grid = _grid_lane(cdesc)  # passed three times: three seeds a round
        rounds = zip_longest(_endpoint_lane(cdesc), grid, grid, grid)
        return filter(partial(is_not, None), chain.from_iterable(rounds))


class _RationalName(PointName):
    """The name ``_LineSubspace.point_name`` gives a rational q: the filter
    of point_in_basic(q, decode(t)), q's carrier test done first, is a < q
    on the code of a and q < b on the code of b.  They imply a < b, and a
    trace that holds q, so decode passes every such code, even on a
    carrier with gaps: the lane walks diagonals with no join.  Slot s adds
    the seed (q - 2**-s, q + 2**-s).

    ``first_inside`` has a closed form.  Every listed basic (a, b) holds q,
    and its trace lies inside d's exactly when lo <= a and b <= hi, where
    (lo, hi) is the widest open interval with d's trace (``_widest``).  The
    lane lists the code t = pair(i, j) at stage t, and pair grows in both
    halves, so its first code inside d is pair(i, j) for the least end
    codes i and j that pass, and its first seed inside d is that of the
    least slot s with 2**-s at most q's margin in (lo, hi).  The answer is
    the smaller of the two stages; end codes are scanned only while their
    pair lies below it, or below the limit.
    """

    def __init__(self, space: "_LineSubspace", q: Fraction):
        qn, qd = self._q = q.numerator, q.denominator

        def seeds(s: int):
            eps = Fraction(1, 2 ** s)
            return (encode_interval(q - eps, q + eps),)

        def left(i: int) -> bool:
            n, d = _end(i)
            return n * qd < qn * d

        def right(j: int) -> bool:
            n, d = _end(j)
            return qn * d < n * qd

        super().__init__(space, pair_lane(left, right, None, seeds), value=q)

    def first_inside(self, d, limit: int) -> int | None:
        qn, qd = self._q
        lo, hi = self.space._widest(d)
        # the first slot whose seed lies inside: its 2**-s within q's
        # margin on both sides; None when q lies outside
        s = 0
        if lo is not None:
            ln, ld = lo
            gap = qn * ld - ln * qd
            if gap <= 0:
                return None
            s = _halvings(gap, qd * ld)
        if hi is not None:
            hn, hd = hi
            gap = hn * qd - qn * hd
            if gap <= 0:
                return None
            s = max(s, _halvings(gap, qd * hd))
        best = slot_stage(s)
        if best is None or best > limit:
            best = limit
        # the least end codes i (lo <= a < q) and j (q < b <= hi) whose
        # pair lies below best: pair(i, j) >= pair(i, 0) = i(i + 1)/2
        _end(isqrt(2 * best) + 1)
        ends = _ENDS
        i = 0
        while i * (i + 1) >> 1 < best:
            n, dn = ends[i]
            if n * qd < qn * dn and (lo is None or ln * dn <= n * ld):
                break
            i += 1
        else:
            return best if best < limit else None
        j = 0
        while True:
            t = pair(i, j)
            if t >= best:
                break
            n, dn = ends[j]
            if qn * dn < n * qd and (hi is None or n * hd <= hn * dn):
                best = t
                break
            j += 1
        return best if best < limit else None


def _halvings(num: int, den: int) -> int:
    """The least s >= 0 with 2**-s at most num / den (both positive)."""
    s = max(0, den.bit_length() - num.bit_length())
    return s if num << s >= den else s + 1


class _LineMetric(MetricStructure):
    """d(x, y) = |x - y| on a subspace of the line, with the rationals of
    its carrier as the dense sequence.

    The ball calculus and the distance bounds are written once over the
    space's traces, whose integer ends they compare: ``far`` and the
    Hausdorff grid read the least and the greatest end of a trace, as the
    farthest points of a trace are its two ends, and ``near`` the ends of
    each piece.
    """

    calculus = True

    def __init__(self, space: _LineSubspace):
        dense, dense_index = _rational_dense(space, space.in_carrier)
        super().__init__(space, dense, dense_index, lambda p, q: abs(p - q))
        # the space's helpers, bound once: a bound stream calls far and
        # near once per cell it reads
        self._trace, self._gaps = space.trace, space._gaps
        self._decode, self._cached = space.decode, space._decode_cache.get
        # the carrier's ends on the Hausdorff grid, rounded outward
        lo, hi = space._hull
        self._grid_lo = None if lo is None else _grid_floor(*lo)
        self._grid_hi = None if hi is None else _grid_ceil(*hi)

    # ball calculus ----------------------------------------------------------
    def in_open_ball(self, x, d, r: Fraction) -> bool:
        ball = as_fiv(x - r, 1, x + r, 1)
        return all(fiv_subset(f, ball) for f in self._trace(d))

    def meets_open_ball(self, x, d, r: Fraction) -> bool:
        ball = as_fiv(x - r, 1, x + r, 1)
        return any(not fiv_disjoint(f, ball) for f in self._trace(d))

    def ball_inside_basic(self, x, r: Fraction, d) -> bool:
        return self.space.basic_subset((x - r, x + r), d)

    # distances ---------------------------------------------------------------
    # x and the ends are compared on integers, the best to beat too, and a
    # Fraction is built only for a bound that improves on it.
    def far(self, x, d, below: Fraction | None = None) -> Fraction | None:
        trace = self._trace(d)
        lo, hi = trace[0], trace[-1]
        xn, xd = x.as_integer_ratio()
        # x - lo over lo's denominator times xd, hi - x over hi's
        u, ud = xn * lo[1] - lo[0] * xd, lo[1] * xd
        v, vd = hi[3] * xd - xn * hi[4], hi[4] * xd
        if below is not None:
            bn, bd = below.as_integer_ratio()
            if u * bd >= bn * ud or v * bd >= bn * vd:
                return None
        return _lowest(u, ud) if u * vd >= v * ud else _lowest(v, vd)

    def near(self, x, d, above: Fraction | None = None) -> Fraction | None:
        xn, xd = x.as_integer_ratio()
        gap, gd = None, 1  # the least max(lo - x, x - hi, 0) over the pieces
        for ln, ld, _, hn, hd, _ in self._trace(d):
            g, den = ln * xd - xn * ld, ld * xd  # lo - x
            if g <= 0:
                g, den = max(xn * hd - hn * xd, 0), xd * hd  # x - hi, or 0
            if gap is None or g * gd < gap * den:
                gap, gd = g, den
        if above is not None:
            an, ad = above.as_integer_ratio()
            if gap * ad <= an * gd:
                return None
        return _lowest(gap, gd)

    def clearance(self, x) -> Callable[[object], Fraction | None]:
        # the union of the raw intervals: the space has no points beyond a
        # carrier clamp end, so those ends are no edges, and a raw interval
        # misses a set of the space exactly when its trace does
        gaps = FivUnion()
        xn, xd = x.as_integer_ratio()

        def add(d) -> Fraction | None:
            gaps.add(as_fiv(d[0], 1, d[1], 1))
            part = gaps.part_at(x)
            if part is None:
                return None
            # the lesser of x - lo and hi - x
            ln, ld, _, hn, hd, _ = part
            u, ud = xn * ld - ln * xd, ld * xd
            v, vd = hn * xd - xn * hd, hd * xd
            return _lowest(u, ud) if u * vd <= v * ud else _lowest(v, vd)

        return add

    def cover_hull(self, descs) -> tuple:
        return self.space.make_cdesc([(_lowest(f[0], f[1]), _lowest(f[3], f[4]))
                                      for d in descs for f in self._trace(d)])

    def _grid_spans(self, indices: Iterable[int]) -> list[tuple[int, int]]:
        """The least and the greatest end of the trace of each decoded basic
        on the Hausdorff grid, rounded outward."""
        trace, cached, decode = self._trace, self._cached, self._decode
        spans = []
        if self._gaps:
            for n in indices:
                t = trace(decode(n))
                spans.append((_grid_floor(t[0][0], t[0][1]), _grid_ceil(t[-1][3], t[-1][4])))
            return spans
        # one piece: the ends of d put on the grid, then clamped there, as
        # rounding commutes with the clamps; no fiv built, _grid_floor and
        # _grid_ceil inline, and the decode cache read first (a Hausdorff
        # bracket puts some 12k cells on the grid)
        grid_lo, grid_hi = self._grid_lo, self._grid_hi
        for n in indices:
            a, b = cached(n) or decode(n)
            (an, ad), (bn, bd) = a.as_integer_ratio(), b.as_integer_ratio()
            lo, hi = (an << _GRID) // ad, -((-bn << _GRID) // bd)
            if grid_lo is not None and lo < grid_lo:
                lo = grid_lo
            if grid_hi is not None and hi > grid_hi:
                hi = grid_hi
            spans.append((lo, hi))
        return spans

    def hausdorff_cells(self) -> "_LineHausdorffCells":
        return _LineHausdorffCells(self)

    # descriptions, codes and candidates ---------------------------------------
    def closed_ball_desc(self, x, r: Fraction):
        return self.space.make_cdesc([(x - r, x + r)])

    def annulus_desc(self, x, lo: Fraction, hi: Fraction):
        return self.space.make_cdesc([(x - hi, x - lo), (x + lo, x + hi)])

    def encode_ball(self, x, r: Fraction) -> int:
        return encode_interval(x - r, x + r)

    def ball_core(self, x, r: Fraction, slot: int) -> int:
        return self.encode_ball(x, r - r / 2 ** (slot + 1))

    def ball_seeds(self, x, r: Fraction) -> Iterable[int]:
        # anchor grids over the ball, coarse to fine
        for s in range(13):
            grid = 2 ** s
            for j in range(-grid, grid + 1):
                yield self.encode_ball(x + j * r / grid, r / (2 * grid))
        # fine refinements at the ball boundary, where escape witnesses live
        for s in range(13, 49):
            for anchor in (x - r, x, x + r):
                yield self.encode_ball(anchor, r / 2 ** s)

    def annulus_tiles(self, x, lo: Fraction, hi: Fraction, w: Fraction) -> list[int]:
        return [self.encode_ball(x + side * (lo + i * w), w)
                for i in range(int((hi - lo) / w) + 1) for side in (-1, 1)]

    def witness_candidates(self, x, dist: Fraction, rho: Fraction) -> list:
        cands = [x]
        for side in (-1, 1):
            for frac in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
                z = x + side * dist - side * rho * frac
                if self.space.in_carrier(z):
                    cands.append(z)
        return cands


def _endpoint_lane(cdesc):
    """Cells of half-width 2**-s around every piece endpoint, s = 13 .. 48:
    where escape and boundary witnesses live."""
    for slot in range(13, 49):
        for p, q in cdesc:
            for x in sorted({p, q}):
                # over the denominator 2**s * den(x): x and the half-width
                yield from _cells((x.numerator << slot,), x.denominator,
                                  x.denominator << slot)


def _grid_lane(cdesc):
    """Relative anchor grids: at slot s = 0, 2, .., 12 the anchors
    p + j * (q - p) / 2**s, j = 0 .. 2**s (just p on a singleton), each in
    a cell of half-width 2**-(s + 1).  A piece of length L is then covered
    within (1/2 + L/2) * 2**-s of every point."""
    for slot in range(0, 13, 2):
        for p, q in cdesc:
            # over the denominator 2**(s + 1) * unit, with unit = den(p) *
            # den(q): anchor j sits at 2 * (lo * 2**s + j * span) and the
            # half-width is unit; generated lazily, as consumers often stop
            # early
            unit = p.denominator * q.denominator
            lo = p.numerator * q.denominator
            span = q.numerator * p.denominator - lo
            first, den = lo << (slot + 1), unit << (slot + 1)
            step = 2 * span or 1  # a singleton has the one anchor p
            yield from _cells(range(first, first + (span << slot + 1) + 1, step),
                              unit, den)


def _cells(mids: Iterable[int], half: int, den: int):
    """The codes encode_interval gives of the open intervals ((mid - half) /
    den, (mid + half) / den), den > 0, one for each mid: each end is put in
    lowest terms, zigzagged and paired with its denominator, and the two
    ends are paired, all on integers in one loop, with no Fraction built
    and no call but gcd."""
    for mid in mids:
        num = mid - half
        g = gcd(num, den)
        i, j = num // g, den // g - 1
        i = i + i if i >= 0 else -i - i - 1
        s = i + j
        left = (s * s + s >> 1) + j
        num = mid + half
        g = gcd(num, den)
        i, j = num // g, den // g - 1
        i = i + i if i >= 0 else -i - i - 1
        s = i + j
        right = (s * s + s >> 1) + j
        s = left + right
        yield (s * s + s >> 1) + right


# Hausdorff bounds on subspaces of the line work on an integer grid of
# 2**-_GRID: cell and hull ends are rounded outward, so every bound stays
# sound, and sorting and comparing integers is several times cheaper than
# Fractions.
_GRID = 64


# An end n / d, d > 0, put on the grid: a trace's end as it is, a hull's
# through as_integer_ratio.
def _grid_floor(n: int, d: int) -> int:
    return (n << _GRID) // d


def _grid_ceil(n: int, d: int) -> int:
    return -((-n << _GRID) // d)


class _CoverCells:
    """Integer cells (a, b), a <= b, kept as an antichain under containment,
    for cover radii of hulls on the grid.

    A cell that contains another is nowhere the least max(y - a, b - y),
    so dropping it moves no cover radius.  Sorted by midpoint, the cells
    of an antichain have increasing left and right ends as well: ``cells``
    is sorted by both.
    """

    def __init__(self) -> None:
        self.cells: list[tuple[int, int]] = []

    def add(self, spans: list[tuple[int, int]]) -> None:
        """Add the cells ``spans``, in one merge pass over the cells held:
        a cell that contains another goes, and so does all but one copy of
        a cell given twice."""
        if not spans:
            return
        spans.sort()  # so that sorted() below merges two sorted runs
        kept: list[tuple[int, int]] = []
        least = None  # the least right end kept so far, scanning leftward
        for cell in reversed(sorted(chain(self.cells, spans))):
            a, b = cell
            if least is None or b < least:
                if kept and kept[-1][0] == a:  # kept last, it contains (a, b)
                    kept.pop()
                kept.append(cell)
                least = b
        kept.reverse()
        self.cells = kept

    def drop_wider(self, width: int) -> None:
        """Let go of every cell at least ``width`` wide."""
        self.cells = [cell for cell in self.cells if cell[1] - cell[0] < width]

    def radius2(self, hull: Sequence[tuple[int, int]]) -> int | None:
        """Twice the sup, over y in the hull, of the least max(y - a, b - y)
        over the cells (a, b); None without cells.

        The midpoints split the line into segments.  On the segment between
        midpoints i and i+1 the least is min(y - a_i, b_{i+1} - y), a tent
        whose apex (a_i + b_{i+1}) / 2 lies inside the segment, since both
        ends increase.  A segment inside a hull piece thus contributes
        b_{i+1} - a_i; only the segments cut by a piece's ends, and the
        rays beyond the first and the last midpoint, need the clipped tent.
        """
        if not self.cells:
            return None
        los = [a for a, _ in self.cells]
        his = [b for _, b in self.cells]
        mids = list(map(add, los, his))
        worst = 0
        for p, q in hull:
            p2, q2 = 2 * p, 2 * q
            if p2 <= mids[0]:
                worst = max(worst, 2 * his[0] - p2)
            if q2 >= mids[-1]:
                worst = max(worst, q2 - 2 * los[-1])
            i, j = bisect_left(mids, p2), bisect_right(mids, q2)
            if j - i >= 2:
                worst = max(worst, max(map(sub, his[i + 1:j], los[i:j - 1])))
            for s in {i - 1, j - 1}:
                if 0 <= s < len(mids) - 1:
                    u2, v2 = max(mids[s], p2), min(mids[s + 1], q2)
                    if u2 > v2:
                        continue
                    apex = los[s] + his[s + 1]
                    if apex < u2:
                        worst = max(worst, 2 * his[s + 1] - u2)
                    elif apex > v2:
                        worst = max(worst, v2 - 2 * los[s])
                    else:
                        worst = max(worst, his[s + 1] - los[s])
        return worst


class _LineHausdorffCells:
    """Hausdorff bounds on a subspace of the line, on the 2**-64 grid and
    rounded outward.

    Each cell is converted once, at the first read that sees it, to its
    span (a, b) and its gap to that read's hull, the least over hull
    pieces [p, q] of max(a - q, p - b); the lower bound is the largest gap
    so far.  The upper bound is the cover radius of the hull by the cells
    held (see :class:`_CoverCells`).  A cell at least twice as wide as the
    upper bound can never lower it and is let go, and is held afresh if it
    is fed again.

    A read does not look at the cells it lets go of: each converted cell
    keeps only the number of the read that converted it, and a cell fed
    again is converted again and tested against the widths at which the
    reads since then let cells go.
    """

    def __init__(self, metric: _LineMetric):
        self._spans = metric._grid_spans
        # index -> the read that converted it; None until then
        self._fed: dict[int, int | None] = {}
        self._new: list[int] = []  # indices to convert at the next read
        self._drops: list[int] = []  # per read with cells: cells this wide go
        self._cells = _CoverCells()
        self._lower = 0

    def add(self, indices: Iterable[int]) -> None:
        fed, new, drops = self._fed, self._new, self._drops
        for n in indices:
            if n not in fed:
                fed[n] = None
                new.append(n)
                continue
            read = fed[n]
            if read is not None:
                (a, b), = self._spans((n,))
                if b - a >= min(drops[read:]):
                    fed[n] = None  # let go since its read: held afresh
                    new.append(n)

    def bounds(self, hull) -> tuple[Fraction, Fraction | None]:
        fed, new = self._fed, self._new
        pieces = [(_grid_floor(*p.as_integer_ratio()), _grid_ceil(*q.as_integer_ratio()))
                  for p, q in hull]
        lower = self._lower
        read = len(self._drops)
        spans = self._spans(new)
        for n, (a, b) in zip(new, spans):
            # the gap is at most lower when a piece is within lower of the cell
            for p, q in pieces:
                if a - q <= lower and p - b <= lower:
                    break
            else:
                lower = max(lower, min((max(a - q, p - b) for p, q in pieces), default=0))
            fed[n] = read
        new.clear()
        self._lower = lower
        self._cells.add(spans)
        worst = self._cells.radius2(pieces)
        if worst is None:  # no cells, none converted at this read
            return Fraction(lower, 1 << _GRID), None
        self._drops.append(worst)
        self._cells.drop_wider(worst)
        return Fraction(lower, 1 << _GRID), Fraction(worst, 2 << _GRID)


class _TraceRegion(Region):
    def __init__(self, space: _LineSubspace):
        self.space = space
        self.union = FivUnion()

    @property
    def version(self) -> int:
        return self.union.version

    def add(self, desc) -> None:
        for f in self.space.trace(desc):
            self.union.add(f)

    def key(self, cdesc):
        """The closed pieces' ends as integers, ``((pn, pd, qn, qd), ...)``."""
        return tuple((*p.as_integer_ratio(), *q.as_integer_ratio()) for p, q in cdesc)

    def covers(self, key) -> bool:
        # Each closed piece [p, q] (nonempty by contract) against the one
        # component that can hold p, the last whose lo key is at most p's
        # closed key (components are pairwise apart): it holds the piece
        # when q is within its hi key.
        parts = self.union._parts
        for pn, pd, qn, qd in key:
            k = _lo_search(parts, (pn, pd, 0), 1)
            if not k:
                return False
            _, _, _, hn, hd, hi_open = parts[k - 1]
            c = qn * hd - hn * qd
            if c > 0 or c == 0 and hi_open:
                return False
        return True

    # The patches the union U covers, on codes.  The patch of a basic (a, b)
    # is [a, b] clipped to the carrier (make_cdesc([(a, b)])), and it lies
    # in U exactly when [a, b] lies in one stretch: a component of U joined
    # with the parts of the line outside the carrier that touch it.  So a
    # code pair(i, j) is covered exactly when, for one stretch, the end of
    # code i lies in it from the left and that of j from the right, joined
    # by decode's own tests: a pair lane of masks on end codes.

    def _stretches(self) -> list[tuple]:
        """(lo, hi, lo_open, hi_open) for each stretch, in order; an end is
        (numerator, denominator), or None where the stretch has none."""
        gaps = self.space._outside
        out: list[list] = []
        for ln, ld, lf, hn, hd, hf in self.union._parts:
            # the gaps joined on the left and on the right, by position
            left = next((g for g, (_, e) in enumerate(gaps) if not lf and e == (ln, ld)), None)
            right = next((g for g, (e, _) in enumerate(gaps) if not hf and e == (hn, hd)), None)
            lo, lo_open = ((ln, ld), lf) if left is None else (gaps[left][0], 1)
            hi, hi_open = ((hn, hd), hf) if right is None else (gaps[right][1], 1)
            if out and left is not None and out[-1][4] == left:   # one gap joins them
                out[-1][1], out[-1][3], out[-1][4] = hi, hi_open, right
            else:
                out.append([lo, hi, lo_open, hi_open, right])
        return [tuple(s[:4]) for s in out]

    def covered_patches(self, lo: int, hi: int) -> Iterator[int]:
        """The codes k in [lo, hi), ascending, of the basics whose patch,
        the closure ``make_cdesc([decode(k)])``, the region covers."""
        sp = self.space
        h_lo, h_hi = sp._hull
        lanes = []
        for s_lo, s_hi, s_lf, s_hf in self._stretches():
            # with a < b, a lies below the stretch's right end and b above
            # its left end too: nearly every candidate joins
            def left(a, b, s_lo=s_lo, s_hi=s_hi, closed=1 - s_lf):
                return (_end_mask(a, b, s_lo, closed, False) & _end_mask(a, b, s_hi, 0, True)
                        & _end_mask(a, b, h_hi, 0, True))

            def right(a, b, s_lo=s_lo, s_hi=s_hi, closed=1 - s_hf):
                return (_end_mask(a, b, s_hi, closed, True) & _end_mask(a, b, s_lo, 0, False)
                        & _end_mask(a, b, h_lo, 0, False))

            lanes.append(pair_codes(left, right, sp._basic_join, lo, hi))
        return merge(*lanes)

    def covered_closure_pairs(self, lo: int, hi: int) -> Iterator[int]:
        """The codes p = pair(m, k) in [lo, hi), ascending, that the space's
        ``closure_pairs`` lists, with the patch of k covered.  The patch of
        m then lies in k's, so both halves are covered patches."""
        join = self.space._closure_join
        if join is None:
            return iter(())
        held: dict[tuple[int, int], int] = {}

        def covered(a: int, b: int) -> int:
            if (a, b) not in held:
                held[a, b] = sum(1 << k - a for k in self.covered_patches(a, b))
            return held[a, b]

        return pair_codes(covered, covered, join, lo, hi)


class _IntervalSpaceBase(_LineSubspace):
    """The line or a closed interval of it: every trace is the single
    flagged interval ``fiv(d)``, which the indexes and the local pinch use
    directly."""

    lo_bound: Fraction | None = None  # the carrier's ends, read into _hull
    hi_bound: Fraction | None = None

    _basic_join = staticmethod(_ends_ordered)

    def __init__(self) -> None:
        self._hull = lo, hi = tuple(None if e is None else e.as_integer_ratio()
                                    for e in (self.lo_bound, self.hi_bound))
        self._outside = (((None, lo),) if lo else ()) + (((hi, None),) if hi else ())
        self._clamped_ends: list[tuple[int, int, int, int]] = []
        super().__init__()

    def subset_lane(self, desc, seeds) -> MonotoneEnumerator[int]:
        # fiv_subset(fiv(d1), fiv(desc)) compares lo keys (value, flag) and
        # hi keys (value, 1 - flag).  fiv's lo key for (a, b) is the larger
        # of (a, 1) and (lo_bound, 0), its hi key the smaller of (b, 0) and
        # (hi_bound, 1).  Where fiv(desc) is clamped, its key is that bound
        # key, which no trace's key passes: the side always holds.  Where it
        # is not, its key (a2, 1) (or (b2, 0)) lies on the carrier's side of
        # the bound key, so the side holds exactly when a2 <= a (b <= b2).
        # Add decode's a < b, lo_bound < b and a < hi_bound: with lo, hi
        # the ends of fiv(desc), a code passes exactly when lo <= a (on an
        # unclamped side) and a < hi, lo < b and b <= hi (on an unclamped
        # side), and a < b.  (a < hi follows from b <= b2 or the carrier,
        # lo < b from a2 <= a or the carrier.)  Only a < b joins the ends.
        ln, ld, lof, hn, hd, hif = self.fiv(desc)

        def left(i: int) -> bool:
            n, d = _end(i)
            return n * hd < hn * d and (not lof or ln * d <= n * ld)

        def right(j: int) -> bool:
            n, d = _end(j)
            return ln * d < n * ld and (not hif or n * hd <= hn * d)

        return pair_lane(left, right, _ends_ordered, seeds)

    def all_basics(self) -> MonotoneEnumerator[int]:
        # decode's own tests, on the end codes: a < hi_bound on i and
        # lo_bound < b on j, joined by a < b
        lo, hi = self._hull

        def left(i: int) -> bool:
            n, d = _end(i)
            return hi is None or n * hi[1] < hi[0] * d

        def right(j: int) -> bool:
            n, d = _end(j)
            return lo is None or lo[0] * d < n * lo[1]

        return pair_lane(left, right, _ends_ordered)

    def closure_pairs(self) -> MonotoneEnumerator[int]:
        def valid(c: int) -> bool:
            return self.decode(c) is not None

        return pair_lane(valid, valid, self._closure_join)

    def _closure_join(self, m: int, k: int) -> bool:
        """Whether the basic m lies in the closure of the trace of the basic
        k, both valid codes.  That closure is [a, b] clamped to the carrier,
        cfiv((a, b)), and fiv_subset(fiv(dm), cfiv(dk)) compares values
        only, as the closure holds its ends: it holds exactly when the
        clamped ends of k lie outside those of m, equal ends included.  The
        clamped ends of each code are kept; the codes m and k of a closure
        pair p = pair(m, k) are at most about the square root of 2p."""
        ends = self._clamped_ends
        while len(ends) <= max(m, k):
            i, j = unpair(len(ends))
            _end(max(i, j))
            (an, ad), (bn, bd) = _ENDS[i], _ENDS[j]
            lo, hi = self._hull
            if lo is not None and an * lo[1] < lo[0] * ad:
                an, ad = lo
            if hi is not None and bn * hi[1] > hi[0] * bd:
                bn, bd = hi
            ends.append((an, ad, bn, bd))
        man, mad, mbn, mbd = ends[m]
        kan, kad, kbn, kbd = ends[k]
        return kan * mad <= man * kad and mbn * kbd <= kbn * mbd

    def fiv(self, d, open_ends: int = 1) -> Fiv:
        """The trace of the open interval d: its ends, each clamped to the
        carrier, closed where clamped.  With ``open_ends`` 0, the closed
        piece d clamped to the carrier (see cfiv)."""
        (ln, ld), (hn, hd) = d[0].as_integer_ratio(), d[1].as_integer_ratio()
        lf = hf = open_ends
        lo, hi = self._hull
        if lo is not None and ln * lo[1] < lo[0] * ld:
            (ln, ld), lf = lo, 0
        if hi is not None and hn * hi[1] > hi[0] * hd:
            (hn, hd), hf = hi, 0
        return (ln, ld, lf, hn, hd, hf)

    def trace(self, d) -> tuple[Fiv]:
        return (self.fiv(d),)

    def cfiv(self, piece) -> Fiv:
        """Closed piece (p, q) as a flagged interval, clamped to the carrier."""
        return self.fiv(piece, 0)

    def _clip(self, p: Fraction, q: Fraction):
        # fiv((p, q)) closes exactly the clamped ends: only those are built
        ln, ld, lf, hn, hd, hf = self.fiv((p, q))
        if ln * hd > hn * ld:
            return ()
        return ((p if lf else _lowest(ln, ld), q if hf else _lowest(hn, hd)),)

    def make_cdesc(self, pieces) -> tuple:
        if len(pieces) != 1:
            return super().make_cdesc(pieces)
        # one piece, as the patch of a basic: _clip alone, with no sort and
        # no Fraction rebuilt
        (p, q), = pieces
        return self._clip(p if isinstance(p, Fraction) else Fraction(p),
                          q if isinstance(q, Fraction) else Fraction(q))

    def in_carrier(self, x: Fraction) -> bool:
        xn, xd = x.as_integer_ratio()
        lo, hi = self._hull
        return ((lo is None or lo[0] * xd <= xn * lo[1])
                and (hi is None or xn * hi[1] <= hi[0] * xd))

    def cover_index(self):
        return _FivBasicCoverIndex(self)

    def basic_inside_index(self):
        return _FivBasicInsideIndex(self)

    def cdesc_inside_index(self):
        return _FivHullInsideIndex(self)

    def local_pinch(self, vdesc, pdesc):
        vf, pf = self.fiv(vdesc), self.fiv(pdesc)
        if not fiv_subset(vf, pf):
            return None
        # the midpoints of the two lo ends and of the two hi ends
        lo = _lowest(vf[0] * pf[1] + pf[0] * vf[1], 2 * vf[1] * pf[1])
        hi = _lowest(vf[3] * pf[4] + pf[3] * vf[4], 2 * vf[4] * pf[4])
        k = as_fiv(lo, 0, hi, 0)
        if not (fiv_subset(vf, k) and fiv_subset(k, pf)):
            return None
        return self.make_cdesc([(lo, hi)])


class _FivBasicCoverIndex:
    def __init__(self, space: _IntervalSpaceBase):
        self.space = space
        self.index = FivCoverIndex()

    def add(self, d) -> None:
        self.index.add(self.space.fiv(d))

    def contains(self, d) -> bool:
        return self.index.contains(self.space.fiv(d))


class _FivBasicInsideIndex:
    """Antichain of the minimal traces ``fiv(d)`` of basics, answering: is
    SOME member inside a query?  Sorted by lo key, members of an antichain
    have hi keys growing with their lo keys (see ``FivCoverIndex``): the
    candidate for a query is the first member whose lo key is at least its
    lo key, the one with the least hi key among those."""

    def __init__(self, space: _IntervalSpaceBase):
        self._fiv = space.fiv  # bound once: a query reads it
        self._fivs: list[Fiv] = []

    def add(self, d) -> None:
        self._add(self._fiv(d))

    def _add(self, f: Fiv) -> None:
        fivs = self._fivs
        k = _lo_search(fivs, f)
        if k < len(fivs) and _hi_within(fivs[k], f):
            return
        j = k
        while j and _hi_within(f, fivs[j - 1]):
            j -= 1
        fivs[j:k] = [f]

    def some_inside(self, d) -> bool:
        f = self._fiv(d)
        fivs = self._fivs
        k = _lo_search(fivs, f)
        return k < len(fivs) and _hi_within(fivs[k], f)


def _hi_within(m: Fiv, f: Fiv) -> bool:
    """The hi key of m is at most f's: its end is left of f's, or at it
    and open or f's closed."""
    c = m[3] * f[4] - f[3] * m[4]
    return c < 0 or c == 0 and m[5] >= f[5]


class _FivHullInsideIndex(_FivBasicInsideIndex):
    """The same index over the closed hulls [first lo, last hi] of compact
    descriptions, asked whether some hull lies inside ``fiv(d)``."""

    def add(self, cdesc) -> None:
        if cdesc:
            self._add(as_fiv(cdesc[0][0], 0, cdesc[-1][1], 0))


def _rational_dense(space: Space, carrier: Callable[[Fraction], bool]):
    """Dense sequence of rationals filtered by a carrier predicate."""
    values: list[Fraction] = []
    positions: dict[Fraction, int] = {}
    cursor = [0]

    def grow_until(k: int) -> None:
        while len(values) <= k:
            q = decode_rational(cursor[0])
            cursor[0] += 1
            if carrier(q) and q not in positions:
                positions[q] = len(values)
                values.append(q)

    def dense(i: int):
        grow_until(i)
        return values[i]

    def dense_index(q) -> int:
        q = Fraction(q)
        if not carrier(q):
            raise OutOfSpace(f"{q} is not a point of {space.name}")
        while q not in positions:
            grow_until(len(values))
        return positions[q]

    return dense, dense_index


class LineSpace(_IntervalSpaceBase):
    name = "real-line"


class UnitIntervalSpace(_IntervalSpaceBase):
    name = "unit-interval"
    lo_bound = Fraction(0)
    hi_bound = Fraction(1)

    def __init__(self) -> None:
        super().__init__()
        self.whole_compact_desc = self.make_cdesc([(0, 1)])


class PiecewiseSpace(_LineSubspace):
    """Finite unions of closed rational intervals as a subspace of the line.

    Basics are rational-interval traces; a trace may be scattered across
    several carrier pieces.  Used for metric fixtures whose carrier is
    disconnected.
    """

    def __init__(self, pieces, name: str = "pieces"):
        self.pieces = tuple(sorted((Fraction(p), Fraction(q)) for p, q in pieces))
        if not self.pieces or any(p > q for p, q in self.pieces):
            raise ValueError("carrier needs nonempty closed pieces")
        self.name = name
        self._carrier = [as_fiv(p, 0, q, 0) for p, q in self.pieces]
        self._hull = (self.pieces[0][0].as_integer_ratio(),
                      max(q for _, q in self.pieces).as_integer_ratio())
        self._gaps = len(self.pieces) > 1
        runs: list[list[Fraction]] = []   # the pieces merged where they meet
        for p, q in self.pieces:
            if runs and p <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], q)
            else:
                runs.append([p, q])
        ends = [None] + [e.as_integer_ratio() for run in runs for e in run] + [None]
        self._outside = tuple(zip(ends[::2], ends[1::2]))
        super().__init__()
        self.whole_compact_desc = self.make_cdesc(self.pieces)

    def _basic_join(self, i: int, j: int) -> bool:
        # a < b, and (a, b) meets the carrier: a < q and p < b for a piece
        (an, ad), (bn, bd) = _ENDS[i], _ENDS[j]
        return an * bd < bn * ad and any(an * qd < qn * ad and pn * bd < bn * pd
                                         for pn, pd, _, qn, qd, _ in self._carrier)

    def in_carrier(self, x: Fraction) -> bool:
        return any(p <= x <= q for p, q in self.pieces)

    def _widest(self, d):
        (an, ad), (bn, bd) = d[0].as_integer_ratio(), d[1].as_integer_ratio()
        lo = hi = None
        for pn, pd, _, rn, rd, _ in self._carrier:
            if pn * ad <= an * pd:   # p <= a: min(r, a) is its greatest point <= a
                e = (an, ad) if an * rd <= rn * ad else (rn, rd)
                if lo is None or lo[0] * e[1] < e[0] * lo[1]:
                    lo = e
            if bn * rd <= rn * bd:   # b <= r: max(p, b) is its least point >= b
                e = (bn, bd) if pn * bd <= bn * pd else (pn, pd)
                if hi is None or e[0] * hi[1] < hi[0] * e[1]:
                    hi = e
        return lo, hi

    def trace(self, d) -> list[Fiv]:
        (an, ad), (bn, bd) = d[0].as_integer_ratio(), d[1].as_integer_ratio()
        out = []
        for pn, pd, _, qn, qd, _ in self._carrier:
            ln, ld, lf = (an, ad, 1) if an * pd >= pn * ad else (pn, pd, 0)
            hn, hd, hf = (bn, bd, 1) if bn * qd <= qn * bd else (qn, qd, 0)
            f = (ln, ld, lf, hn, hd, hf)
            if fiv_nonempty(f):
                out.append(f)
        return out

    def _clip(self, u: Fraction, v: Fraction):
        return [(max(u, p), min(v, q)) for p, q in self.pieces
                if max(u, p) <= min(v, q)]

    def local_pinch(self, vdesc, pdesc):
        if not self.basic_subset(vdesc, pdesc):
            return None
        k = self.make_cdesc([vdesc])
        if self.cdesc_in_basic(k, pdesc):
            return k
        return None


def point_from_rational(space: Space, q) -> PointName:
    """Name of a rational point: sound at every stage, complete in the limit."""
    return space.point_name(Fraction(q))


# ---------------------------------------------------------------------------
# Cantor space

class CantorSpace(Space):
    name = "cantor"

    def __init__(self) -> None:
        self._decode_cache: dict[int, str] = {}

    def decode(self, n: int):
        try:
            return self._decode_cache[n]
        except KeyError:
            w = word_unrank(n)
            _remember(self._decode_cache, n, w)
            return w

    def basic_subset(self, d1: str, d2: str) -> bool:
        return d1.startswith(d2)

    def point_in_basic(self, value, w: str) -> bool:
        prefix, period = value
        return _cantor_word(value, len(w)) == w

    # compact description: tuple of cylinder words, sorted, prefix-reduced
    def make_cdesc(self, words) -> tuple:
        ws = sorted(set(words), key=lambda w: (len(w), w))
        out: list[str] = []
        for w in ws:
            if not any(w.startswith(v) for v in out):
                out.append(w)
        return tuple(sorted(out))

    def cdesc_in_basic(self, cdesc, d: str) -> bool:
        return all(w.startswith(d) for w in cdesc)

    def basic_meets_cdesc(self, d: str, cdesc) -> bool:
        return any(w.startswith(d) or d.startswith(w) for w in cdesc)

    def cdesc_intersect(self, c1, c2):
        out = []
        for v in c1:
            for w in c2:
                if v.startswith(w):
                    out.append(v)
                elif w.startswith(v):
                    out.append(w)
        return self.make_cdesc(out)

    def cdesc_union(self, c1, c2):
        return self.make_cdesc(tuple(c1) + tuple(c2))

    def basic_intersection_code(self, d1: str, d2: str) -> int | None:
        if d1.startswith(d2):
            return word_rank(d1)
        if d2.startswith(d1):
            return word_rank(d2)
        return None

    def region(self) -> Region:
        return _CantorRegion()

    def cover_index(self):
        return _CantorCoverIndex()

    def basic_inside_index(self):
        return _CantorBasicInsideIndex()

    whole_compact_desc = ("",)

    def local_pinch(self, vdesc: str, pdesc: str):
        if vdesc.startswith(pdesc):
            return (vdesc,)
        return None

    def encode_basic(self, d: str) -> int:
        return word_rank(d)

    def parse_basic(self, text: str) -> str:
        """A cylinder ``[w]``; ``[e]`` is the root."""
        t = text.strip()
        if not (t.startswith("[") and t.endswith("]")):
            raise ParseError(f"cantor basic must be [word]: {text!r}")
        word = "" if t == "[e]" else t[1:-1]
        if set(word) - {"0", "1"}:
            raise ParseError(f"cylinder word must be binary: {text!r}")
        return word

    def format_basic(self, d: str) -> str:
        return f"[{d or 'e'}]"

    def format_located(self, cdesc) -> list[str]:
        """The cylinders of cdesc, each written as a basic."""
        return [self.format_basic(w) for w in cdesc]

    def compact_complement(self, d: str):
        return self.make_cdesc(_cantor_complement((d,)))

    def envelope_covers(self, cdesc, slot: int) -> list[frozenset]:
        if not cdesc:
            return []
        out = []
        if slot == 0:
            lcp = _common_prefix(cdesc)
            for k in range(len(lcp) + 1):
                out.append(frozenset([word_rank(lcp[:k])]))
        if slot <= 6:
            out.append(frozenset(word_rank(w + format(u, "b").zfill(slot) if slot else w)
                                 for w in cdesc for u in range(2 ** slot)))
        return out


def _cantor_complement(words) -> tuple:
    """Finite union of cylinders equal to the complement of the given union."""
    out: list[str] = []

    def walk(w: str) -> None:
        if any(w.startswith(v) for v in words):
            return
        if not any(v.startswith(w) for v in words):
            out.append(w)
            return
        walk(w + "0")
        walk(w + "1")

    walk("")
    return tuple(out)


def _common_prefix(words) -> str:
    lcp = words[0]
    for w in words[1:]:
        k = 0
        while k < min(len(lcp), len(w)) and lcp[k] == w[k]:
            k += 1
        lcp = lcp[:k]
    return lcp


def _cantor_word(value, k: int) -> str:
    prefix, period = value
    w = prefix
    while len(w) < k:
        w += period
    return w[:k]


def cantor_point(space: CantorSpace, prefix: str, period: str = "0") -> PointName:
    if set(prefix + period) - {"0", "1"} or not period:
        raise OutOfSpace("cantor points need a binary prefix and nonempty period")
    value = (prefix, period)
    lane = filter_lane(space.decode, partial(space.point_in_basic, value),
                       lambda s: (word_rank(_cantor_word(value, s)),))
    return PointName(space, lane, value=value)


class _CantorRegion(Region):
    """Covered-subtree marks: a node is covered when added or when both
    children are covered."""

    def __init__(self) -> None:
        self.marked: set[str] = set()
        self.version = 0

    def add(self, w: str) -> None:
        if self._has_marked_ancestor(w):
            return
        self.version += 1
        self.marked.add(w)
        while w:
            parent = w[:-1]
            sibling = parent + ("1" if w[-1] == "0" else "0")
            if sibling in self.marked and not self._has_marked_ancestor(parent):
                self.marked.add(parent)
                w = parent
            else:
                break

    def _has_marked_ancestor(self, w: str) -> bool:
        for k in range(len(w) + 1):
            if w[:k] in self.marked:
                return True
        return False

    def covers(self, cdesc) -> bool:
        return all(self._has_marked_ancestor(w) for w in cdesc)


class _CantorCoverIndex:
    def __init__(self) -> None:
        self.words: set[str] = set()

    def add(self, w: str) -> None:
        self.words.add(w)

    def contains(self, w: str) -> bool:
        return any(w[:k] in self.words for k in range(len(w) + 1))


class _CantorBasicInsideIndex:
    def __init__(self) -> None:
        self.prefixes: set[str] = set()

    def add(self, w: str) -> None:
        for k in range(len(w) + 1):
            self.prefixes.add(w[:k])

    def some_inside(self, d: str) -> bool:
        return d in self.prefixes


# ---------------------------------------------------------------------------
# Star space: arms {n} x [0,1] glued at a center point

INF = ("inf",)


def star_distance(p1, p2) -> Fraction:
    """Exact distance in the star space.

    Points are INF or pairs (n, x) with x a rational in [0, 1]; the center
    sits at distance 2**-n + x from (n, x), points of one arm are at |x - y|,
    and points of distinct arms are joined through the center.
    """
    if p1 == p2:
        return Fraction(0)
    if p1 == INF:
        n, x = p2
        return Fraction(1, 2 ** n) + x
    if p2 == INF:
        n, x = p1
        return Fraction(1, 2 ** n) + x
    n, x = p1
    m, y = p2
    if n == m:
        return abs(x - y)
    return x + y + Fraction(1, 2 ** n) + Fraction(1, 2 ** m)


class StarSpace(Space):
    """Countably many unit-interval arms glued at a single center point.

    Basic opens are metric balls around dense points; the only compact
    descriptions are the closed arm segments that ``local_pinch`` returns.
    As a negative fixture it has points, basics, the pinch calculus and the
    metric only: it has no region, no ``make_cdesc`` and no relatively
    compact system, and the CLI refuses it before any search.
    """

    name = "star"

    def __init__(self) -> None:
        self._decode_cache: dict[int, object] = {}
        self._dense_cache: list = [INF]
        self._dense_pos: dict = {INF: 0}
        self._unit_vals: list[Fraction] = []
        self._unit_pos: dict[Fraction, int] = {}
        self._unit_cursor = 0
        self.metric = MetricStructure(self, self.dense, self.dense_index,
                                      star_distance)

    # dense sequence: center first, then (arm, rational) dovetailed
    def _unit_rational(self, i: int) -> Fraction:
        while len(self._unit_vals) <= i:
            q = decode_rational(self._unit_cursor)
            self._unit_cursor += 1
            if 0 <= q <= 1 and q not in self._unit_pos:
                self._unit_pos[q] = len(self._unit_vals)
                self._unit_vals.append(q)
        return self._unit_vals[i]

    def _unit_rational_index(self, q: Fraction) -> int:
        while q not in self._unit_pos:
            self._unit_rational(len(self._unit_vals))
        return self._unit_pos[q]

    def dense(self, i: int):
        if i == 0:
            return INF
        n, qi = unpair(i - 1)
        return (n, self._unit_rational(qi))

    def dense_index(self, p) -> int:
        if p == INF:
            return 0
        n, x = p
        return pair(n, self._unit_rational_index(Fraction(x))) + 1

    def is_point(self, p) -> bool:
        if p == INF:
            return True
        return (isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], int)
                and p[0] >= 0 and 0 <= Fraction(p[1]) <= 1)

    # basics: balls (center dense index, positive rational radius)
    def decode(self, n: int):
        try:
            return self._decode_cache[n]
        except KeyError:
            pass
        i, rc = unpair(n)
        r = decode_rational(rc)
        d = ("ball", self.dense(i), r) if r > 0 else None
        _remember(self._decode_cache, n, d)
        return d

    def encode_ball(self, center, r: Fraction) -> int:
        return pair(self.dense_index(center), encode_rational(Fraction(r)))

    def basic_subset(self, d1, d2) -> bool:
        _, c1, r1 = d1
        _, c2, r2 = d2
        return star_distance(c1, c2) + r1 <= r2

    def point_in_basic(self, value, d) -> bool:
        _, c, r = d
        return star_distance(value, c) < r

    def _ball_arm_trace(self, d, arm: int) -> Fiv | None:
        """Trace of a ball on one arm as a flagged subinterval of [0,1]."""
        _, c, r = d
        if c == INF:
            hi = r - Fraction(1, 2 ** arm)
        else:
            n, x = c
            if n == arm:
                f = as_fiv(max(x - r, Fraction(0)), 1 if x - r >= 0 else 0,
                           min(x + r, Fraction(1)), 1 if x + r <= 1 else 0)
                return f if fiv_nonempty(f) else None
            hi = r - x - Fraction(1, 2 ** n) - Fraction(1, 2 ** arm)
        if hi <= 0:
            return None
        return as_fiv(0, 0, min(hi, Fraction(1)), 1 if hi <= 1 else 0)

    def _ball_contains_inf(self, d) -> bool:
        _, c, r = d
        return star_distance(INF, c) < r

    # compact descriptions: tuples of closed arm segments ("seg", n, lo, hi)
    def cdesc_in_basic(self, cdesc, d) -> bool:
        for _, n, lo, hi in cdesc:
            trace = self._ball_arm_trace(d, n)
            if trace is None or not fiv_subset(as_fiv(lo, 0, hi, 0), trace):
                return False
        return True

    def pinch_candidate(self, vdesc) -> bool:
        _, c, r = vdesc
        return c != INF and not self._ball_contains_inf(vdesc)

    def local_pinch(self, vdesc, pdesc):
        if not self.basic_subset(vdesc, pdesc):
            return None
        _, c, r = vdesc
        if c == INF or self._ball_contains_inf(vdesc):
            return None  # neighborhoods of the center have no compact hull
        # a ball missing the center lives entirely on its own arm
        n, x = c
        seg = ("seg", n, max(x - r, Fraction(0)), min(x + r, Fraction(1)))
        if self.cdesc_in_basic((seg,), pdesc):
            return (seg,)
        return None

    def encode_basic(self, d) -> int:
        return self.encode_ball(d[1], d[2])

    def point_name(self, value) -> PointName:
        return star_point(self, value)

    def parse_point(self, text: str):
        """Star points have no literal form."""
        raise OutOfSpace(f"no point literals on {self.name}: {text!r}")


def star_point(space: StarSpace, p) -> PointName:
    if not space.is_point(p):
        raise OutOfSpace(f"{p!r} is not a star point")
    p = p if p == INF else (p[0], Fraction(p[1]))
    lane = filter_lane(space.decode, partial(space.point_in_basic, p),
                       lambda s: (space.encode_ball(p, Fraction(1, 2 ** s)),))
    return PointName(space, lane, value=p)


# ---------------------------------------------------------------------------
# One-point compactification of the rationals

class QhatSpace(Space):
    """The rationals plus a point at infinity whose neighborhoods are
    cofinite.  Basic opens: rational-interval traces on Q (even indices)
    and sets {inf} + (Q minus a finite exclusion list) (odd indices).  As
    a negative fixture it has points, basics, the pinch calculus and the
    compact calculus of its whole compact and its clopen cofinite basics;
    it has no relatively compact system."""

    name = "qhat"

    def __init__(self) -> None:
        self._decode_cache: dict[int, object] = {}
        self.whole_compact_desc = ("all",)

    def decode(self, n: int):
        try:
            return self._decode_cache[n]
        except KeyError:
            pass
        if n % 2 == 0:
            ends = interval_ends(n // 2)
            d = None if ends is None else ("iv", *ends)
        else:
            d = ("cof", decode_rational_set(n // 2))
        _remember(self._decode_cache, n, d)
        return d

    def encode_iv(self, a, b) -> int:
        return 2 * encode_interval(a, b)

    def encode_cof(self, excluded) -> int:
        return 2 * encode_rational_set(excluded) + 1

    def basic_subset(self, d1, d2) -> bool:
        k1, k2 = d1[0], d2[0]
        if k1 == "iv" and k2 == "iv":
            return d2[1] <= d1[1] and d1[2] <= d2[2]
        if k1 == "iv" and k2 == "cof":
            # the interval trace avoids every excluded rational
            return all(not (d1[1] < q < d1[2]) for q in d2[1])
        if k1 == "cof" and k2 == "cof":
            return d2[1] <= d1[1]
        return False  # a cofinite basic never fits inside an interval trace

    def point_in_basic(self, value, d) -> bool:
        if d[0] == "iv":
            return value != INF and d[1] < value < d[2]
        return value == INF or value not in d[1]

    # compact descriptions: ("all",) | ("cof", excluded rationals)
    # (a clopen cofinite basic is compact)
    def cdesc_in_basic(self, cdesc, d) -> bool:
        if cdesc[0] == "cof":
            return d[0] == "cof" and d[1] <= cdesc[1]
        return d[0] == "cof" and not d[1]  # ("all",) fits only in the full basic

    def basic_meets_cdesc(self, d, cdesc) -> bool:
        # every valid basic meets both kinds: a cofinite basic shares their
        # point at infinity, and an interval trace holds infinitely many
        # rationals, of which they miss finitely many
        return True

    def region(self) -> Region:
        return _QhatRegion(self)

    def pinch_candidate(self, vdesc) -> bool:
        return vdesc[0] == "cof"

    def pinch_target(self, pdesc) -> bool:
        return pdesc[0] == "cof"

    def local_pinch(self, vdesc, pdesc):
        # only cofinite neighborhoods have compact hulls: they are clopen
        if vdesc[0] == "cof" and pdesc[0] == "cof" and self.basic_subset(vdesc, pdesc):
            return ("cof", vdesc[1])
        return None

    def encode_basic(self, d) -> int:
        return self.encode_iv(d[1], d[2]) if d[0] == "iv" else self.encode_cof(d[1])


class _QhatRegion(Region):
    def __init__(self, space: QhatSpace):
        self.space = space
        self.ivs = FivUnion()
        self.has_cof = False
        self.cof_excluded: frozenset = frozenset()
        self.version = 0

    def add(self, d) -> None:
        if d[0] == "iv":
            before = self.ivs.version
            self.ivs.add(as_fiv(d[1], 1, d[2], 1))
            if self.ivs.version != before:
                self.version += 1
        else:
            if self.has_cof:
                new = self.cof_excluded & d[1]
                if new != self.cof_excluded:
                    self.cof_excluded = new
                    self.version += 1
            else:
                self.has_cof = True
                self.cof_excluded = d[1]
                self.version += 1

    def _covers_rational(self, q: Fraction) -> bool:
        if self.has_cof and q not in self.cof_excluded:
            return True
        return self.ivs.covers_point(q)

    def covers(self, cdesc) -> bool:
        if not self.has_cof:
            return False
        leftovers = self.cof_excluded - cdesc[1] if cdesc[0] == "cof" else self.cof_excluded
        return all(self._covers_rational(q) for q in sorted(leftovers))


STOP = ("STOP",)


def qhat_point_tokens(kind, exclusions: int = 0) -> MonotoneEnumerator:
    """Token stream of a point name: EXCLUDE(q)* then, for a rational point,
    STOP followed by shrinking interval refinements.

    ``kind`` is INF or a rational.  The excluded rationals are the first
    ``exclusions`` distinct rationals in code order different from the
    point itself (for INF, the exclusion list never ends)."""
    if kind == INF:
        def step(t: int):
            return (("EXCLUDE", _nth_distinct_rational(t, None)),)

        return enumerate_step(step)

    q = Fraction(kind)

    def step(t: int):
        if t < exclusions:
            return (("EXCLUDE", _nth_distinct_rational(t, q)),)
        if t == exclusions:
            return (STOP,)
        s = min(t - exclusions, 64)  # refinements below 2**-64 serve nobody
        eps = Fraction(1, 2 ** s)
        return (("INTERVAL", q - eps, q + eps),)

    return enumerate_step(step)


def _nth_distinct_rational(n: int, avoid: Fraction | None) -> Fraction:
    seen: set[Fraction] = set()
    i = 0
    while True:
        q = decode_rational(i)
        i += 1
        if q in seen or q == avoid:
            continue
        seen.add(q)
        if len(seen) == n + 1:
            return q


def qhat_point_name(space: QhatSpace, kind, exclusions: int = 0) -> PointName:
    """Neighborhood name derived from the token stream."""
    tokens = qhat_point_tokens(kind, exclusions).cursor()
    excluded: list[Fraction] = []
    state = {"stopped": kind != INF and exclusions == 0}
    value = INF if kind == INF else Fraction(kind)

    def step(t: int):
        out = []
        for tok in tokens.upto(t + 1):
            if tok[0] == "EXCLUDE":
                excluded.append(tok[1])
            elif tok == STOP:
                state["stopped"] = True
        s = emission_slot(t)
        if s is not None:
            if value == INF:
                out.append(space.encode_cof(frozenset(excluded)))
            elif state["stopped"]:
                eps = Fraction(1, 2 ** s)
                out.append(space.encode_iv(value - eps, value + eps))
        d = space.decode(t)
        if d is not None and space.point_in_basic(value, d):
            # soundness from the name's own data only: a cofinite basic is
            # certified for a rational point once the refinement separates
            # it from the exclusions; interval basics once inside.
            if value == INF:
                if d[0] == "cof" and d[1] <= frozenset(excluded):
                    out.append(t)
            elif state["stopped"]:
                out.append(t)
        return out

    return PointName(space, enumerate_step(step), value=value)
