from __future__ import annotations

from fractions import Fraction

import pytest

from erctopo.oracle import (
    EmptySetArgument,
    FiniteSpace,
    MalformedSpace,
    brute_distance,
    brute_forall,
    brute_located,
    lift_finite,
    oracle_point,
    parse_finite_literal,
    standard_oracle_spaces,
)
from erctopo.ercs import compact_neighborhood_search
from erctopo.sets import compact_subset, member_open, open_from_fixture, open_of_basic
from erctopo.kernel import Accepted, run_process

F = Fraction


def test_three_point_discrete_has_seven_basics():
    fs = FiniteSpace(["a", "b", "c"],
                     metric={("a", "b"): F(1), ("a", "c"): F(1), ("b", "c"): F(1)})
    space, ercs = lift_finite(fs)
    assert space.finite_basic_count == 7
    assert len({space.decode(n) for n in range(7)}) == 7


def test_one_point_space_trivial():
    fs = FiniteSpace(["a"], metric={})
    space, ercs = lift_finite(fs)
    x = oracle_point(space, "a")
    u = open_from_fixture(space, frozenset({"a"}))
    assert isinstance(run_process(member_open(x, u), 10 ** 4), Accepted)
    from erctopo.sets import compact_from_cdesc
    k = compact_from_cdesc(space, frozenset({"a"}))
    assert isinstance(run_process(compact_subset(k, u), 10 ** 4), Accepted)


def test_malformed_spaces_rejected():
    with pytest.raises(MalformedSpace):
        FiniteSpace([], metric={})
    with pytest.raises(MalformedSpace):
        FiniteSpace(["a", "b"], metric={})  # missing distance
    with pytest.raises(MalformedSpace):
        FiniteSpace(["a", "b"], metric={("a", "b"): F(0)})
    with pytest.raises(MalformedSpace):
        FiniteSpace(["a", "b", "c"],
                    metric={("a", "b"): F(1), ("a", "c"): F(5), ("b", "c"): F(1)})
    with pytest.raises(MalformedSpace):
        FiniteSpace(["a"], base=None)


def test_parse_finite_literal():
    fs = parse_finite_literal("{a,b,c; d(a,b)=1, d(a,c)=1, d(b,c)=1}")
    assert fs.points == ("a", "b", "c")
    assert fs.distance("b", "a") == F(1)
    with pytest.raises(MalformedSpace):
        parse_finite_literal("{a,b; d(a,q)=1}")
    with pytest.raises(MalformedSpace):
        parse_finite_literal("a,b")


def test_brute_forall_trivial():
    fs = standard_oracle_spaces()[3]
    assert brute_forall(fs, lambda a: a <= frozenset(fs.points))
    assert not brute_forall(fs, lambda a: bool(a))  # fails on the empty set


def test_brute_distance():
    fs = FiniteSpace(["0", "1"], metric={("0", "1"): F(1)})
    assert brute_distance(fs, "0", ["1"]) == F(1)
    assert brute_distance(fs, "0", ["0", "1"]) == F(0)
    with pytest.raises(EmptySetArgument):
        brute_distance(fs, "0", [])


def test_brute_located_power_set_on_discrete():
    fs = standard_oracle_spaces()[3]
    located = brute_located(fs)
    assert len(located) == 8
    sets = {a.cdesc for a in located}
    assert frozenset() in sets and frozenset(fs.points) in sets


def test_standard_spaces_at_most_four_points():
    spaces = standard_oracle_spaces()
    assert len(spaces) >= 10
    assert all(len(fs.points) <= 4 for fs in spaces)


def test_non_discrete_topology_closed_subsets():
    fs = FiniteSpace(["0", "1"], base=[frozenset("1"), frozenset("01")])
    assert fs.is_closed(frozenset("0"))
    assert not fs.is_closed(frozenset("1"))
    located = brute_located(fs)
    assert {a.cdesc for a in located} == {frozenset(), frozenset("0"),
                                          frozenset("01")}


def test_pinch_search_accepts_every_point_in_every_basic():
    # every subset of a finite space is compact, so each basic around a
    # point pinches with itself
    for fs in standard_oracle_spaces():
        space, _ = lift_finite(fs)
        for n in range(space.finite_basic_count):
            basic = space.decode(n)
            for p in sorted(basic):
                search = compact_neighborhood_search(space, oracle_point(space, p),
                                                     open_of_basic(space, n))
                assert isinstance(run_process(search, 100), Accepted), (fs.name, p, n)
                v, k = search.found
                assert p in v and v <= k <= basic


def test_point_in_basic_agrees_with_the_point_names():
    for fs in standard_oracle_spaces():
        space, _ = lift_finite(fs)
        count = space.finite_basic_count
        for p in fs.points:
            listed = oracle_point(space, p).neighborhoods.listing(count + 1)
            assert listed == [n for n in range(count) if space.point_in_basic(p, space.decode(n))]


def test_dense_sequence_round_trips():
    for fs in standard_oracle_spaces():
        if fs.metric_table is None:
            continue
        m = lift_finite(fs)[0].metric
        assert [m.dense(m.dense_index(p)) for p in fs.points] == list(fs.points)
        assert [m.dense_index(m.dense(i)) for i in range(len(fs.points))] == list(
            range(len(fs.points)))
