"""The four benchmark workloads: seeded inputs, the timed operation and the
answer check for each op.

A workload is built in two steps.  ``setup(seed)`` constructs the spaces and
systems, generates the seeded fixture pools and returns a ``Workload``; its
``warmup()`` runs one small op of every op kind.  ``Workload.op(i)`` then
hands out op number ``i`` of the closed loop: the workload's op list, one
*pass*, is run over and over, so every op is timed several times in a run.
The seed picks the literals of the ops and the order of a pass; the mix of
op kinds in a pass is the same for every seed.

Every op builds fresh names and a fresh real when it runs (the timed part)
and is checked afterwards (untimed).  A check either returns the canonical
text of the answer, which feeds the output digest, and whether the op
failed (ended Pending although the truth is positive), or raises
``WrongAnswer``.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from erctopo import cli
from erctopo.ercs import cantor_ercs, compact_base, interval_ercs
from erctopo.hyperspace import (
    and_predicate,
    consistency_refute,
    empty_or_predicate,
    flipped_bits,
    forall_located,
    meets_predicate,
    or_predicate,
    realized_bits,
    subset_predicate,
)
from erctopo.kernel import Accepted, PENDING, run_process
from erctopo.metric import (
    distance_to_located,
    exact_metric_point,
    hausdorff_distance,
    radius,
)
from erctopo.oracle import lift_finite, oracle_point, standard_oracle_spaces
from erctopo.sets import (
    closed_from_cdesc,
    compact_from_cdesc,
    compact_subset,
    located_from_cdesc,
    member_open,
    not_subset,
    open_from_fixture,
    overt_from_cdesc,
    overt_meets,
)
from erctopo.spaces import (
    CantorSpace,
    LineSpace,
    UnitIntervalSpace,
    cantor_point,
    encode_interval,
    point_from_rational,
)

F = Fraction

# Fuel caps: the acceptance suite's budgets (criteria 1, 4, 5, 7 and 8).
FUEL = 10 ** 5
TAUTOLOGY_FUEL = 10 ** 6
RADIUS_DISTANCE_FUEL = 3 * 10 ** 5
HAUSDORFF_FUEL = 4 * 10 ** 5
BRACKET_PRECISION = 10
# Warm-up literals do not depend on the workload seed, so set-up time does not
# vary with it.
WARMUP_SEED = 0


class WrongAnswer(Exception):
    """An answer contradicts the brute-force or closed-form truth."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]          # timed: builds fresh names, computes
    check: Callable[[object], tuple]   # untimed: -> (answer text, failed)


@dataclass
class Workload:
    name: str
    ops: list[Op]            # one pass; op i is ops[i % len(ops)]
    warmup_ops: list[Op]     # one small op per op kind

    @property
    def pass_size(self) -> int:
        return len(self.ops)

    def op(self, i: int) -> Op:
        return self.ops[i % len(self.ops)]

    def warmup(self) -> None:
        for op in self.warmup_ops:
            op.check(op.run())


def _fr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _stage_text(res) -> str:
    return f"Accepted({res.stage})" if isinstance(res, Accepted) else "Pending"


def _semidecision(kind: str, run: Callable[[], object], truth: bool) -> Op:
    """A semidecision with a known truth value: a positive truth must be
    Accepted (Pending counts as a failed op), a negative one must stay
    Pending."""

    def check(res):
        accepted = isinstance(res, Accepted)
        if accepted and not truth:
            raise WrongAnswer(f"{kind}: accepted a false statement")
        if not accepted and res is not PENDING:
            raise WrongAnswer(f"{kind}: not a semidecision answer: {res!r}")
        return f"{kind}:{truth}:{_stage_text(res)}", truth and not accepted

    return Op(kind, run, check)


def _bracket_check(kind: str, want: Fraction, k: int):
    """A bracket must have width at most 2**-k and contain the closed form;
    None (fuel ran out) is a failed op because the value always exists."""
    width = F(1, 2 ** k)

    def check(got):
        if got is None:
            return f"{kind}:{_fr(want)}:Pending", True
        lo, hi = got
        if hi - lo > width:
            raise WrongAnswer(f"{kind}: bracket wider than 2^-{k}: {got}")
        if not lo <= want <= hi:
            raise WrongAnswer(f"{kind}: bracket {got} misses {want}")
        return f"{kind}:{_fr(want)}:{_fr(lo)},{_fr(hi)}", False

    return check


# ---------------------------------------------------------------------------
# semidecide: compact-base sandwiches and finite-oracle semidecisions

def _sandwich_grid(kind: str) -> list[tuple]:
    """The distinct literals of criterion 4's generator for ``kind``, with
    equal margins: for the line and the unit interval every rational point
    q of denominator 1 to 4 and each margin the generator may put on both
    sides of it; for Cantor space every word of length 0 to 3 and the
    number of zeros that follow it."""
    if kind == "cantor":
        return [(format(v, "b").zfill(length)[:length] if length else "", zeros)
                for length in range(4) for v in range(2 ** length)
                for zeros in range(4)]
    lo, hi = (0, 1) if kind == "ui" else (-2, 2)
    points = sorted({F(n, den) for den in (1, 2, 3, 4)
                     for n in range(lo * den, hi * den + 1)})
    return [(q, F(m, 4)) for q in points
            for m in ((1, 2, 4) if abs(q) <= 1 else (2, 4))]


def _sandwich_op(space, e, kind: str, lit: tuple, fuel: int = FUEL) -> Op:
    """Criterion 4's generator: a point, an open around it, and the
    sandwich x in V inside K inside U found by compact_base."""
    if kind == "cantor":
        word, zeros = lit
        u_desc = word
        make_x = lambda: cantor_point(space, word + "0" * zeros, "0")
    else:
        q, margin = lit
        u_desc = (q - margin, q + margin)
        make_x = lambda: point_from_rational(space, q)

    def run():
        x = make_x()
        return x, compact_base(e, x, open_from_fixture(space, u_desc), fuel)

    def check(res):
        x, got = res
        label = f"sandwich-{kind}:{lit!r}:{u_desc!r}"
        if got is None:
            return f"{label}:Pending", True
        v, k = got
        inner = run_process(member_open(x, v), fuel)
        outer = run_process(compact_subset(k, open_from_fixture(space, u_desc)), fuel)
        if not (isinstance(inner, Accepted) and isinstance(outer, Accepted)
                and space.cdesc_in_basic(k.cdesc, u_desc)):
            raise WrongAnswer(f"{label}: sandwich does not verify")
        vdesc = space.decode(v.parts.listing(2)[0])
        return (f"{label}:V={vdesc!r}:K={k.cdesc!r}:"
                f"{_stage_text(inner)}:{_stage_text(outer)}"), False

    return Op(f"sandwich-{kind}", run, check)


class _OracleFixture:
    """One lifted finite space; every name is rebuilt per op."""

    def __init__(self, fs):
        self.fs = fs
        self.space, self.ercs = lift_finite(fs)
        self.points = list(fs.points)
        self.opens = sorted(fs.opens, key=sorted)
        self.subsets = sorted({frozenset(s) for s in _all_subsets(self.points)},
                              key=lambda s: (len(s), sorted(s)))
        self.closed = [a for a in self.subsets if fs.is_closed(a)]


def _all_subsets(points):
    out = [frozenset()]
    for p in points:
        out += [s | {p} for s in out]
    return out


def _oracle_op(fix: _OracleFixture, kind: str, rng: random.Random) -> Op:
    """member / compact-subset / overt-meets / not-subset, answered by the
    generic semideciders and checked against set-level brute force."""
    sp = fix.space
    label = f"{kind}@{fix.fs.name}"
    if kind == "member":
        p, o = rng.choice(fix.points), rng.choice(fix.opens)
        return _semidecision(label, lambda: run_process(
            member_open(oracle_point(sp, p), open_from_fixture(sp, o)), FUEL),
            p in o)
    if kind == "compact-subset":
        a, o = rng.choice(fix.subsets), rng.choice(fix.opens)
        return _semidecision(label, lambda: run_process(
            compact_subset(compact_from_cdesc(sp, a), open_from_fixture(sp, o)),
            FUEL), a <= o)
    if kind == "overt-meets":
        a, o = rng.choice(fix.subsets), rng.choice(fix.opens)
        return _semidecision(label, lambda: run_process(
            overt_meets(overt_from_cdesc(sp, a), open_from_fixture(sp, o)), FUEL),
            bool(a & o))
    a, b = rng.choice(fix.subsets), rng.choice(fix.closed)
    return _semidecision(label, lambda: run_process(
        not_subset(overt_from_cdesc(sp, a), closed_from_cdesc(sp, b)), FUEL),
        bool(a - b))


ORACLE_KINDS = ("member", "compact-subset", "overt-meets", "not-subset")


# Per pass of semidecide, how often each broken spec and each tautology
# form appears: about one of each per six sandwiches.
BROKEN_REPEATS = 2
TAUTOLOGY_REPEATS = 6


def setup_semidecide(seed: int) -> Workload:
    rng = random.Random(seed)
    line, ui, cantor = LineSpace(), UnitIntervalSpace(), CantorSpace()
    systems = {"line": (line, interval_ercs(line)),
               "ui": (ui, interval_ercs(ui)),
               "cantor": (cantor, cantor_ercs(cantor))}
    e_ui, e_c = systems["ui"][1], systems["cantor"][1]
    fixtures = [_OracleFixture(fs) for fs in standard_oracle_spaces()]
    # One pass holds every distinct sandwich literal once per system, each
    # sandwich followed by one op of every finite-oracle kind, and the two
    # hyperspace kinds that accept (broken specs refuted, tautologies
    # searched), each literal a fixed number of times.  Sandwich costs span
    # four orders of magnitude, so every run measures the same multiset of
    # literals; the seed orders the pass and picks the finite-oracle
    # literals, which are cheap and many.
    units: list[list[Op]] = []
    for kind, (space, e) in systems.items():
        for lit in _sandwich_grid(kind):
            units.append([_sandwich_op(space, e, kind, lit)] + [
                _oracle_op(rng.choice(fixtures), okind, rng)
                for okind in ORACLE_KINDS])
    units += [[_broken_op(ui, e_ui, lit)]
              for lit in _broken_grid(ui) * BROKEN_REPEATS]
    units += [[_tautology_op(ui, e_ui, cantor, e_c, form)]
              for form in range(TAUTOLOGY_FORMS)] * TAUTOLOGY_REPEATS
    rng.shuffle(units)
    ops = [op for unit in units for op in unit]
    warm_rng = random.Random(WARMUP_SEED)
    warmup = [_sandwich_op(*systems[k], k, warm_rng.choice(_sandwich_grid(k)))
              for k in systems]
    warmup += [_oracle_op(fixtures[-1], k, warm_rng) for k in ORACLE_KINDS]
    warmup += [_broken_op(ui, e_ui, _broken_grid(ui)[0]),
               _tautology_op(ui, e_ui, cantor, e_c, 0)]
    return Workload("semidecide", ops, warmup)


# ---------------------------------------------------------------------------
# hyperspace: consistency refutation and the forall search

def _rand_pieces(ui, rng: random.Random, count: int):
    pieces = []
    for _ in range(count):
        p = F(rng.randint(0, 12), 16)
        pieces.append((p, p + F(rng.randint(0, 4), 16)))
    return ui.make_cdesc(pieces)


def _constructible_cdesc(ui, rng: random.Random):
    """Criterion 8's generator of realized unit-interval sets."""
    while True:
        kind = rng.randrange(3)
        if kind == 0:
            p = F(rng.randint(0, 12), 16)
            out = ui.make_cdesc([(p, p + F(rng.randint(1, 4), 16))])
        elif kind == 1:
            out = ui.make_cdesc([(F(rng.randint(0, 6), 8), F(rng.randint(0, 6), 8))])
        else:
            out = _rand_pieces(ui, rng, 2)
        if out:
            return out


def _realized_op(ui, e, rng: random.Random, fuel: int = FUEL) -> Op:
    cdesc = _constructible_cdesc(ui, rng)

    def run():
        return consistency_refute(e, realized_bits(ui, cdesc), fuel)

    def check(cond):
        if cond is not None:
            raise WrongAnswer(f"realized spec {cdesc!r} refuted by {cond!r}")
        return f"realized:{cdesc!r}:NoneYet", False

    return Op("consistency-realized", run, check)


_FLIPS = ((F(0), F(1, 2)), (F(1, 2), F(1)), (F(0), F(1)), (F(1, 4), F(3, 4)),
          (F(0), F(1, 4)))


def _broken_grid(ui) -> list[tuple]:
    """Criterion 8's broken specs, every one its generator can draw: a
    realized spec (the base) with one disjoint basic (the flip) flipped to
    touched, so a refuting condition exists."""
    grid = []
    for flip in _FLIPS:
        for shift in (F(s, 16) for s in range(3)):
            if flip[1] < F(3, 4):
                base = ui.make_cdesc([(flip[1] + F(1, 8) + shift,
                                       flip[1] + F(3, 8) + shift)])
            else:
                base = ui.make_cdesc([(F(0), flip[0] - F(1, 8) - shift)])
            if base and not ui.basic_meets_cdesc(flip, base):
                grid.append((flip, base))
    return grid


def _broken_op(ui, e, lit: tuple, fuel: int = FUEL) -> Op:
    """A broken spec from ``_broken_grid``: consistency_refute must find a
    condition that refutes it."""
    flip, base = lit
    flip_n = encode_interval(*flip)

    def run():
        bits = flipped_bits(realized_bits(ui, base), {flip_n: 1})
        return bits, consistency_refute(e, bits, fuel)

    def check(res):
        bits, cond = res
        label = f"broken:{flip!r}:{base!r}"
        if cond is None:
            return f"{label}:NoneYet", True
        if bits.bit(cond.n) != 1 or any(bits.bit(j) != 0 for j in cond.cover):
            raise WrongAnswer(f"{label}: condition {cond!r} does not refute")
        if (cond.n, cond.kid) not in set(e.r_stream.listing(fuel)):
            raise WrongAnswer(f"{label}: condition pair not in the system")
        covers = e.compact_value(cond.kid).covers.listing(max(200, fuel // 100))
        if cond.cover not in covers:
            raise WrongAnswer(f"{label}: condition cover not enumerated")
        return f"{label}:{cond.n},{cond.kid},{sorted(cond.cover)}", False

    return Op("consistency-broken", run, check)


def _ui_outside_compact(ui, a, b):
    return compact_from_cdesc(
        ui, ui.make_cdesc([(F(0), min(F(1), a)), (max(F(0), b), F(1))])
        if a > 0 or b < 1 else ())


def _falsifiable_op(ui, e_ui, cantor, e_c, rng: random.Random,
                    fuel: int = FUEL) -> Op:
    """Criterion 7's falsifiable predicates with seeded endpoints: the
    search must stay Pending."""
    form = rng.randrange(5)
    if form == 0:
        a = F(rng.randint(0, 6), 8)
        b = a + F(rng.randint(1, 2), 8)
        label = f"meets({a},{b})"
        make = lambda: (e_ui, meets_predicate(e_ui, open_from_fixture(ui, (a, b))))
    elif form == 1:
        a = F(rng.randint(0, 2), 4)
        b = a + F(rng.randint(1, 2), 4)
        label = f"subset({a},{b})"
        make = lambda: (e_ui, subset_predicate(e_ui, _ui_outside_compact(ui, a, b)))
    elif form == 2:
        a = F(rng.randint(0, 1), 4)
        c = F(rng.randint(2, 3), 4)
        label = f"and(meets(({a},{a + F(1, 4)})),meets(({c},1)))"
        make = lambda: (e_ui, and_predicate(
            meets_predicate(e_ui, open_from_fixture(ui, (a, a + F(1, 4)))),
            meets_predicate(e_ui, open_from_fixture(ui, (c, F(1))))))
    elif form == 3:
        w = rng.choice(("0", "1", "01", "10"))
        label = f"meets([{w}])"
        make = lambda: (e_c, meets_predicate(e_c, open_from_fixture(cantor, w)))
    else:
        w = rng.choice(("0", "1"))
        other = "1" if w == "0" else "0"
        label = f"subset([{w}])"
        make = lambda: (e_c, subset_predicate(
            e_c, compact_from_cdesc(cantor, (other,))))

    def run():
        e, pred = make()
        return run_process(forall_located(e, pred), fuel)

    def check(res):
        if isinstance(res, Accepted):
            raise WrongAnswer(f"forall {label}: accepted a falsifiable predicate")
        if res is not PENDING:
            raise WrongAnswer(f"forall {label}: not a semidecision answer")
        return f"falsifiable:{label}:Pending", False

    return Op("forall-falsifiable", run, check)


TAUTOLOGY_FORMS = 4


def _tautology_op(ui, e_ui, cantor, e_c, form: int,
                  fuel: int = TAUTOLOGY_FUEL) -> Op:
    """Criterion 7's tautologies, ``form`` picking one of
    ``TAUTOLOGY_FORMS``: the search must accept."""
    if form == 0:
        label = "ui:subset-widened"
        make = lambda: (e_ui, subset_predicate(e_ui, compact_from_cdesc(ui, ())))
    elif form == 1:
        label = "ui:isEmptyOr-meets-whole"
        make = lambda: (e_ui, empty_or_predicate(
            e_ui, compact_from_cdesc(ui, ui.make_cdesc([(F(0), F(1))])),
            meets_predicate(e_ui, open_from_fixture(ui, (F(-1), F(2))))))
    elif form == 2:
        label = "cantor:isEmptyOr-meets-root"
        make = lambda: (e_c, empty_or_predicate(
            e_c, compact_from_cdesc(cantor, ("",)),
            meets_predicate(e_c, open_from_fixture(cantor, ""))))
    else:
        label = "cantor:zero-or-one"
        make = lambda: (e_c, or_predicate(
            subset_predicate(e_c, compact_from_cdesc(cantor, ("1",))),
            meets_predicate(e_c, open_from_fixture(cantor, "1"))))

    def run():
        e, pred = make()
        search = forall_located(e, pred)
        return search, run_process(search, fuel)

    def check(res):
        search, got = res
        if not isinstance(got, Accepted):
            return f"tautology:{label}:Pending", True
        return (f"tautology:{label}:{_stage_text(got)}:"
                f"depth={search.closing_depth}"), False

    return Op("forall-tautology", run, check)


def setup_hyperspace(seed: int) -> Workload:
    rng = random.Random(seed)
    ui, cantor = UnitIntervalSpace(), CantorSpace()
    e_ui, e_c = interval_ercs(ui), cantor_ercs(cantor)
    broken = _broken_grid(ui)
    # a pass of 8: six run-to-cap ops, so the median lies in that mode,
    # and one of each fast kind
    ops = [_realized_op(ui, e_ui, rng),
           _falsifiable_op(ui, e_ui, cantor, e_c, rng),
           _realized_op(ui, e_ui, rng),
           _broken_op(ui, e_ui, rng.choice(broken)),
           _falsifiable_op(ui, e_ui, cantor, e_c, rng),
           _realized_op(ui, e_ui, rng),
           _falsifiable_op(ui, e_ui, cantor, e_c, rng),
           _tautology_op(ui, e_ui, cantor, e_c, rng.randrange(TAUTOLOGY_FORMS))]
    warm_rng = random.Random(WARMUP_SEED)
    warmup = [_realized_op(ui, e_ui, warm_rng, fuel=FUEL // 10),
              _falsifiable_op(ui, e_ui, cantor, e_c, warm_rng, fuel=FUEL // 10),
              _broken_op(ui, e_ui, broken[0]),
              _tautology_op(ui, e_ui, cantor, e_c, 0)]
    return Workload("hyperspace", ops, warmup)


# ---------------------------------------------------------------------------
# brackets-p10: radius, distance and Hausdorff distance at precision 10

def _brute_directed_sup(a_pieces, b_pieces) -> Fraction:
    def dist_to_b(x):
        return min(max(p - x, x - q, F(0)) for p, q in b_pieces)

    candidates = []
    for p, q in a_pieces:
        candidates.extend((p, q))
        for (_, q1), (p2, _) in zip(b_pieces, b_pieces[1:]):
            mid = (q1 + p2) / 2
            if p <= mid <= q:
                candidates.append(mid)
    return max(dist_to_b(c) for c in candidates)


def _brute_hausdorff(a_pieces, b_pieces) -> Fraction:
    return max(_brute_directed_sup(a_pieces, b_pieces),
               _brute_directed_sup(b_pieces, a_pieces))


def _point_distance(q, pieces) -> Fraction:
    return min(max(p - q, q - hi, F(0)) for p, hi in pieces)


def _radius_op(ui, rng, k=BRACKET_PRECISION, fuel=RADIUS_DISTANCE_FUEL) -> Op:
    c = F(rng.randint(2, 14), 16)
    r = F(rng.randint(1, 6), 16)
    cdesc = ui.make_cdesc([(c - r, c + r)])
    want = max(c - max(c - r, F(0)), min(c + r, F(1)) - c)

    def run():
        x = exact_metric_point(ui.metric, c)
        real = radius(ui.metric, x, compact_from_cdesc(ui, cdesc),
                      overt_from_cdesc(ui, cdesc), hi_seed=F(2))
        return real.approx(k, fuel=fuel)

    return Op("radius", run, _bracket_check(f"radius({c},{cdesc!r})", want, k))


def _distance_op(ui, e, rng, zero: bool, k=BRACKET_PRECISION,
                 fuel=RADIUS_DISTANCE_FUEL) -> Op:
    pieces = _rand_pieces(ui, rng, rng.randint(1, 2))
    if zero:  # value 0: the point lies in the located set
        p, hi = rng.choice(pieces)
        q = p + (hi - p) * F(rng.randint(0, 2), 2)
    else:
        q = F(rng.randint(0, 16), 16)
    want = _point_distance(q, pieces)

    def run():
        x = exact_metric_point(ui.metric, q)
        real = distance_to_located(ui.metric, e, x, located_from_cdesc(ui, pieces),
                                   hi_seed=F(2))
        return real.approx(k, fuel=fuel)

    kind = "distance-zero" if zero else "distance"
    return Op(kind, run, _bracket_check(f"{kind}({q},{pieces!r})", want, k))


_UI_HINT = (encode_interval(F(-1), F(2)),)


def _hausdorff_op(ui, e, rng, same: bool, k=BRACKET_PRECISION,
                  fuel=HAUSDORFF_FUEL) -> Op:
    a_pieces = _rand_pieces(ui, rng, rng.randint(1, 2))
    # value 0: the Hausdorff distance of a set with itself
    b_pieces = a_pieces if same else _rand_pieces(ui, rng, rng.randint(1, 2))
    want = _brute_hausdorff(a_pieces, b_pieces)

    def run():
        real = hausdorff_distance(ui.metric, e, located_from_cdesc(ui, a_pieces),
                                  located_from_cdesc(ui, b_pieces), _UI_HINT,
                                  hi_seed=F(2))
        return real.approx(k, fuel=fuel)

    kind = "hausdorff-self" if same else "hausdorff"
    return Op(kind, run, _bracket_check(f"{kind}({a_pieces!r},{b_pieces!r})", want, k))


def setup_brackets(seed: int) -> Workload:
    rng = random.Random(seed)
    ui = UnitIntervalSpace()
    e = interval_ercs(ui)
    # a pass of 6, radius : distance : Hausdorff = 1 : 1 : 1, with one
    # value-0 distance and one value-0 Hausdorff op
    ops = [_radius_op(ui, rng),
           _distance_op(ui, e, rng, zero=False),
           _hausdorff_op(ui, e, rng, same=False),
           _radius_op(ui, rng),
           _distance_op(ui, e, rng, zero=True),
           _hausdorff_op(ui, e, rng, same=True)]
    warm_rng = random.Random(WARMUP_SEED)
    warmup = [_radius_op(ui, warm_rng, k=4),
              _distance_op(ui, e, warm_rng, zero=False, k=4),
              _hausdorff_op(ui, e, warm_rng, same=False, k=4)]
    return Workload("brackets-p10", ops, warmup)


# ---------------------------------------------------------------------------
# cli-deep: the README's metric commands through the command-line entry

def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _cli_op(kind: str, argv: list[str], want: Fraction, precision: int) -> Op:
    argv = argv + ["--precision", str(precision), "--format", "json"]
    label = f"cli-{kind}-p{precision}"

    def check(res):
        code, out, err = res
        if code not in (0, 2):
            raise WrongAnswer(f"{label}: exit {code}: {err.strip()}")
        try:
            payload = json.loads(out)
        except json.JSONDecodeError as exc:
            raise WrongAnswer(f"{label}: output is not JSON: {out!r}") from exc
        if code == 2:
            if payload.get("result") != "Pending":
                raise WrongAnswer(f"{label}: exit 2 without Pending: {out!r}")
            return f"{label}:{' '.join(argv)}:Pending", True
        result = payload["result"]
        lo, hi = F(result["lo"]), F(result["hi"])
        if hi - lo > F(1, 2 ** precision) or not lo <= want <= hi:
            raise WrongAnswer(f"{label}: bracket [{lo},{hi}] fails for {want}")
        return f"{label}:{' '.join(argv)}:{out.strip()}", False

    return Op(label, lambda: run_cli(argv), check)


# The README's distance, hausdorff and radius commands, and two value-0
# cases: a point inside a located set, a set against itself.  kind ->
# (argv, closed-form value).
CLI_LITERALS = {
    "distance": (["distance", "--space", "real-line", "--x", "0",
                  "--located", "[1,2]"], F(1)),
    "hausdorff": (["hausdorff", "--space", "unit-interval", "--a", "[0,1/2]",
                   "--b", "[1/2,1]"], F(1, 2)),
    "radius": (["radius", "--space", "unit-interval", "--x", "1/2",
                "--ball", "[0,1]"], F(1, 2)),
    "distance-zero": (["distance", "--space", "unit-interval", "--x", "1/4",
                       "--located", "[0,1/2]"], F(0)),
    "hausdorff-self": (["hausdorff", "--space", "unit-interval", "--a", "[0,1/2]",
                        "--b", "[0,1/2]"], F(0)),
}

# One pass: the three README commands at precisions 8 and 12 (precision
# scaling), and the two value-0 cases at 12, past the 2^-11.4 where those
# brackets stall, so they end Pending.  The literals are the same for every
# seed: the cost of one of these ops moves by up to 40% between variants of
# its literals, and with eight ops a pass, seeded variants gave quartile
# spreads of 0.25 to 0.47 over five seeds.  The seed orders the pass.
CLI_PASS = (("distance", 8), ("radius", 8), ("hausdorff", 8),
            ("distance", 12), ("radius", 12), ("hausdorff", 12),
            ("distance-zero", 12), ("hausdorff-self", 12))


def setup_cli(seed: int) -> Workload:
    ops = [_cli_op(kind, *CLI_LITERALS[kind], precision)
           for kind, precision in CLI_PASS]
    random.Random(seed).shuffle(ops)
    warmup = [_cli_op(kind, *CLI_LITERALS[kind], 4)
              for kind in ("distance", "hausdorff", "radius")]
    return Workload("cli-deep", ops, warmup)


WORKLOADS = {
    "semidecide": setup_semidecide,
    "hyperspace": setup_hyperspace,
    "brackets-p10": setup_brackets,
    "cli-deep": setup_cli,
}
