from __future__ import annotations

import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

import erctopo
from erctopo.cli import main, parse_located, parse_open_interval, parse_rational
from erctopo.spaces import UnitIntervalSpace

F = Fraction


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def test_parse_rational_forms():
    assert parse_rational("1/2") == F(1, 2)
    assert parse_rational("0.25") == F(1, 4)
    assert parse_rational("-3") == F(-3)


def test_parse_open_interval_rejects_garbage():
    from erctopo.cli import ParseError
    with pytest.raises(ParseError):
        parse_open_interval("[0,1]")
    with pytest.raises(ParseError):
        parse_open_interval("(1,0)")


def test_parse_located_union():
    ui = UnitIntervalSpace()
    cdesc = parse_located(ui, "[0,1/4]+{1/2}+[3/4,1]")
    assert cdesc == ((F(0), F(1, 4)), (F(1, 2), F(1, 2)), (F(3, 4), F(1)))


def test_compact_base_verified_exit_zero():
    code, out = run_cli(["compact-base", "--space", "real-line",
                         "--x", "0", "--u", "(-1,1)", "--format", "json"])
    assert code == 0
    assert '"result":"verified"' in out


def test_compact_base_pending_exit_two():
    code, out = run_cli(["compact-base", "--space", "real-line", "--x", "2",
                         "--u", "(-1,1)", "--fuel", "1000", "--format", "json"])
    assert code == 2
    assert '"result":"Pending"' in out


def test_compact_base_star_domain_error():
    code, _ = run_cli(["compact-base", "--space", "star",
                       "--x", "0", "--u", "(-1,1)"])
    assert code == 3


def test_unknown_space_domain_error():
    code, _ = run_cli(["compact-base", "--space", "banach",
                       "--x", "0", "--u", "(-1,1)"])
    assert code == 3


def test_parse_error_exit_one():
    code, _ = run_cli(["compact-base", "--space", "real-line",
                       "--x", "zero", "--u", "(-1,1)"])
    assert code == 1


def test_consistency_refuted_with_cover_witness():
    code, out = run_cli(["consistency", "--space", "cantor",
                         "--bits", "[e]=1,[0]=0,[1]=0", "--format", "json"])
    assert code == 0
    assert '"result":"Refuted"' in out
    assert "'0'" in out and "'1'" in out


def test_consistency_none_yet_pending():
    code, out = run_cli(["consistency", "--space", "cantor",
                         "--bits", "[e]=0", "--fuel", "2000", "--format", "json"])
    assert code == 2
    assert "NoneYet" in out


def test_hausdorff_half_value():
    code, out = run_cli(["hausdorff", "--space", "unit-interval",
                         "--a", "[0,1/2]", "--b", "[1/2,1]",
                         "--precision", "10", "--format", "json"])
    assert code == 0
    import json
    payload = json.loads(out)
    lo = F(payload["result"]["lo"])
    hi = F(payload["result"]["hi"])
    assert lo <= F(1, 2) <= hi
    assert hi - lo <= F(1, 2 ** 10)


def test_forall_subset_accepted_with_depth():
    code, out = run_cli(["forall", "--space", "unit-interval",
                         "--pred", "subset(open(-0.5,1.5))", "--format", "json"])
    assert code == 0
    assert '"closingDepth":0' in out


def test_forall_meets_pending():
    code, out = run_cli(["forall", "--space", "unit-interval",
                         "--pred", "meets(open(2/5,3/5))",
                         "--fuel", "20000", "--format", "json"])
    assert code == 2


def test_radius_and_distance_values():
    import json
    code, out = run_cli(["radius", "--space", "unit-interval", "--x", "1/2",
                         "--ball", "[0,1]", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert F(payload["result"]["lo"]) <= F(1, 2) <= F(payload["result"]["hi"])
    code, out = run_cli(["distance", "--space", "real-line", "--x", "0",
                         "--located", "[1,2]", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert F(payload["result"]["lo"]) <= F(1) <= F(payload["result"]["hi"])


def test_json_determinism_three_runs():
    commands = [
        ["compact-base", "--space", "real-line", "--x", "0", "--u", "(-1,1)",
         "--format", "json"],
        ["consistency", "--space", "cantor", "--bits", "[e]=1,[0]=0,[1]=0",
         "--format", "json"],
        ["forall", "--space", "unit-interval",
         "--pred", "subset(open(-0.5,1.5))", "--format", "json"],
        ["hausdorff", "--space", "unit-interval", "--a", "[0,1/2]",
         "--b", "[1/2,1]", "--precision", "8", "--format", "json"],
        ["radius", "--space", "unit-interval", "--x", "1/2", "--ball", "[0,1]",
         "--precision", "8", "--format", "json"],
        ["distance", "--space", "unit-interval", "--x", "0",
         "--located", "[1/2,1]", "--precision", "8", "--format", "json"],
    ]
    for argv in commands:
        outputs = {run_cli(list(argv))[1] for _ in range(3)}
        assert len(outputs) == 1, argv


def test_finite_literal_space_reachable():
    code, out = run_cli(["compact-base",
                         "--space", "finite:{a,b;d(a,b)=1}",
                         "--x", "0", "--u", "(-1,1)"])
    # rational points make no sense there; a clean domain error is expected
    assert code == 3


def _json(argv):
    import json
    code, out = run_cli(argv + ["--format", "json"])
    return code, json.loads(out)


def test_value_zero_distance_and_hausdorff_answer_at_precision_12():
    for argv in (["distance", "--space", "unit-interval", "--x", "1/4",
                  "--located", "[0,1/2]"],
                 ["hausdorff", "--space", "unit-interval", "--a", "[0,1/2]",
                  "--b", "[0,1/2]"]):
        code, payload = _json(argv + ["--precision", "12"])
        assert code == 0, argv
        lo, hi = F(payload["result"]["lo"]), F(payload["result"]["hi"])
        assert lo <= 0 <= hi and hi - lo <= F(1, 2 ** 12), argv


# the README's metric commands
README_METRIC = [["distance", "--space", "real-line", "--x", "0", "--located", "[1,2]"],
                 ["hausdorff", "--space", "unit-interval", "--a", "[0,1/2]",
                  "--b", "[1/2,1]", "--precision", "10"],
                 ["radius", "--space", "unit-interval", "--x", "1/2", "--ball", "[0,1]"]]


def test_fuel_used_is_the_closing_stage():
    for argv in README_METRIC:
        code, payload = _json(argv)
        assert code == 0, argv
        assert 0 < payload["fuelUsed"] < payload["config"]["fuel"], argv
        # the reported stage is enough fuel for the same answer
        code, again = _json(argv + ["--fuel", str(payload["fuelUsed"])])
        assert code == 0 and again["result"] == payload["result"], argv
    code, payload = _json(["distance", "--space", "unit-interval", "--x", "1/4",
                           "--located", "[0,1/2]", "--precision", "12",
                           "--fuel", "100"])
    assert code == 2 and payload["result"] == "Pending"
    assert payload["fuelUsed"] == 100


def test_huge_precision_ends_pending_at_once():
    for argv in (["distance", "--space", "unit-interval", "--x", "1/4",
                  "--located", "[0,1/2]"],
                 ["hausdorff", "--space", "unit-interval", "--a", "[0,1/2]",
                  "--b", "[0,1/2]"]):
        start = time.perf_counter()
        code, payload = _json(argv + ["--precision", str(10 ** 20), "--fuel", "64"])
        assert time.perf_counter() - start < 1, argv
        assert code == 2 and payload["result"] == "Pending", argv


def test_readme_metric_brackets_are_dyadic():
    for argv in README_METRIC:
        code, payload = _json(argv)
        assert code == 0, argv
        for end in ("lo", "hi"):
            den = F(payload["result"][end]).denominator
            assert den & (den - 1) == 0, (argv, end, den)


def test_bits_split_only_at_top_level_commas():
    from erctopo.cli import parse_bits
    ui = UnitIntervalSpace()
    bits = parse_bits(ui, "(0,1/2)=1, (1/4,3/4)=0,(1/2,1)=1")
    for (a, b), want in [((F(0), F(1, 2)), 1), ((F(1, 4), F(3, 4)), 0),
                         ((F(1, 2), F(1)), 1), ((F(0), F(1)), 0)]:
        assert bits.bit(ui.encode_basic((a, b))) == want, (a, b)
    code, payload = _json(["consistency", "--space", "unit-interval",
                           "--bits", "(0,1/2)=1", "--fuel", "2000"])
    assert code in (0, 2) and payload["command"] == "consistency"


def test_finite_space_metric_commands():
    space = "finite:{0,1;d(0,1)=1}"
    for argv in (["hausdorff", "--space", space, "--a", "{0}", "--b", "{1}"],
                 ["distance", "--space", space, "--x", "0", "--located", "{1}"],
                 ["radius", "--space", space, "--x", "0", "--ball", "{0,1}"]):
        code, payload = _json(argv)
        assert code == 0, argv
        assert F(payload["result"]["lo"]) <= 1 <= F(payload["result"]["hi"]), argv
    for argv in (["distance", "--space", space, "--x", "2", "--located", "{1}"],
                 ["distance", "--space", space, "--x", "0", "--located", "{1,7}"]):
        assert run_cli(argv)[0] == 3, argv
    assert run_cli(["radius", "--space", space, "--x", "0", "--ball", "[0,1]"])[0] == 1


def test_empty_located_literal_is_a_domain_error():
    for argv in (["radius", "--space", "unit-interval", "--x", "1/2", "--ball", "[2,3]"],
                 ["distance", "--space", "unit-interval", "--x", "1/2",
                  "--located", "{5}"],
                 ["hausdorff", "--space", "unit-interval", "--a", "[0,1]",
                  "--b", "[-2,-1]"]):
        assert run_cli(argv)[0] == 3, argv


def test_star_point_literal_is_a_domain_error():
    assert run_cli(["radius", "--space", "star", "--x", "0", "--ball", "[0,1]"])[0] == 3


# -- the fuel default from the environment -------------------------------------

_DISTANCE = ["distance", "--space", "unit-interval", "--x", "0",
             "--located", "[1/2,1]", "--precision", "2"]


def test_malformed_default_fuel_exits_one_without_a_traceback():
    env = dict(os.environ, ERCTOPO_DEFAULT_FUEL="abc",
               PYTHONPATH=str(Path(erctopo.__file__).parents[1]))
    got = subprocess.run([sys.executable, "-m", "erctopo.cli", *_DISTANCE],
                         env=env, capture_output=True, text=True, timeout=120)
    assert got.returncode == 1
    assert "Traceback" not in got.stderr
    assert got.stderr.count("\n") == 1 and "ERCTOPO_DEFAULT_FUEL" in got.stderr
    assert got.stdout == ""


def test_default_fuel_is_read_at_each_call(monkeypatch):
    # the parser is built once per process, so each call must still see the
    # environment as it is at that call
    for fuel in (64, 65, 64):
        monkeypatch.setenv("ERCTOPO_DEFAULT_FUEL", str(fuel))
        code, payload = _json(_DISTANCE)
        assert code == 0 and payload["config"]["fuel"] == fuel
    code, payload = _json(_DISTANCE + ["--fuel", "7"])
    assert code == 0 and payload["config"]["fuel"] == 7
    monkeypatch.delenv("ERCTOPO_DEFAULT_FUEL")
    assert _json(_DISTANCE)[1]["config"]["fuel"] == 100000


# -- hostile literals and exact centers -----------------------------------------

_HOSTILE = {
    "compact-base-1e5000": ["compact-base", "--space", "unit-interval", "--x", "1e5000",
                            "--u", "(0,1)"],
    "distance-1e5000": ["distance", "--space", "real-line", "--x", "0",
                        "--located", "[0,1e5000]"],
    "hausdorff-1e-5000": ["hausdorff", "--space", "unit-interval", "--a", "[0,1e-5000]",
                          "--b", "[1/2,1]"],
    # refused before 10**99999999 is built, which would not end
    "distance-1e99999999": ["distance", "--space", "real-line", "--x", "1e99999999",
                            "--located", "[0,1]"],
    "distance-5001-digits": ["distance", "--space", "real-line", "--x", "1" + "0" * 5000,
                             "--located", "[0,1]"],
}


@pytest.mark.parametrize("argv", _HOSTILE.values(), ids=_HOSTILE.keys())
def test_hostile_literal_exits_one_with_one_line(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(erctopo.__file__).parents[1]))
    start = time.perf_counter()
    got = subprocess.run([sys.executable, "-m", "erctopo.cli", *argv],
                         env=env, capture_output=True, text=True, timeout=30)
    assert time.perf_counter() - start < 10
    assert got.returncode == 1
    assert "Traceback" not in got.stderr
    assert got.stderr.count("\n") == 1 and got.stderr.startswith("parse error:")
    assert got.stdout == ""


def test_literal_digits_are_bounded():
    from erctopo.cli import ParseError
    from erctopo.spaces import LITERAL_DIGITS
    assert LITERAL_DIGITS == 1000
    assert parse_rational("1e999") == 10 ** 999
    assert parse_rational("-2.5E-998") == F(-25, 10 ** 999)
    assert parse_rational("9" * 1000) == 10 ** 1000 - 1
    assert parse_rational("1e+00000000000000000003") == 1000
    for text in ("1e1000", "1e-1000", "9" * 1001, "1/" + "3" * 1000,
                 "0." + "0" * 999 + "1", "1e" + "9" * 5000, "1e99999999"):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            parse_rational(text)
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("space", ["unit-interval", "real-line"])
def test_exact_centers_never_walk_the_dense_sequence(monkeypatch, space):
    from erctopo.registry import registry_get

    def dense_index(q):
        raise AssertionError(f"dense_index({q}) read for an exact center")

    monkeypatch.setattr(registry_get(space).metric, "dense_index", dense_index)
    x = F(1, 1009)
    for argv, value in ((["distance", "--x", "1/1009", "--located", "[1/2,1]"], F(1, 2) - x),
                        (["radius", "--x", "1/1009", "--ball", "[1/2,1]"], 1 - x)):
        start = time.perf_counter()
        code, payload = _json(argv + ["--space", space])
        assert time.perf_counter() - start < 2, argv
        assert code == 0, argv
        assert F(payload["result"]["lo"]) <= value <= F(payload["result"]["hi"]), argv
