"""Golden answers of the CLI commands.

Each metric command's exact JSON output was recorded before the Hausdorff
bounds became an incremental tracker and the bound streams started testing
improvements on integers.  Those changes may move no bracket and no
``fuelUsed``, so any difference here is a changed answer.  The ``forall``
forms, the domain errors and the bit-literal errors were recorded before
the space interface was cut to the methods its consumers call; the
``compact-base`` and ``consistency`` rows and the text envelope were
recorded before the six commands became one table and one runner.  The
two ``compact-base`` rows and the point-set ``consistency`` row on a finite
space were recorded when finite spaces began reading their basics as point
sets and ``compact-base`` its point and basic through the space; the Cantor
``compact-base`` row's output is the same before and after that change.
The ``consistency`` witness was written with ``repr`` of the decoded
basics until it was written through the space's ``format_basic`` and
``format_located``, so that a finite space's point sets print in one
order: the two Cantor ``consistency`` Refuted rows (JSON and text) changed
then, and the finite-space Refuted row was added.  ``compact-base`` and
``consistency`` printed the whole budget as ``fuelUsed`` until they
reported one past the stage of their answer: the three verified
``compact-base`` rows and the three Refuted ``consistency`` rows changed
then, in ``fuelUsed`` only.  The Pending ``compact-base`` row on a finite
space, whose search stalls, was added when the basis search began to read
the pairs its open swallows; it gives the same output before that change.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from erctopo.cli import main

GOLDEN = [
    # the benchmark's cli-deep pass: the README commands at precisions 8
    # and 12, and the two value-0 cases at 12
    ('distance --space real-line --x 0 --located [1,2] --precision 8',
     0,
     ('{"command":"distance","config":{"fuel":100000,"precision":8'
      ',"space":"real-line"},"fuelUsed":4,"result":{"hi":"16385/16384","lo":"1"'
      ',"tolerance":"2^-8","value":"32769/32768"},"witness":null}')),
    ('radius --space unit-interval --x 1/2 --ball [0,1] --precision 8',
     0,
     ('{"command":"radius","config":{"fuel":100000,"precision":8'
      ',"space":"unit-interval"},"fuelUsed":1,"result":{"hi":"1/2","lo":"4095/8192"'
      ',"tolerance":"2^-8","value":"8191/16384"},"witness":null}')),
    ('hausdorff --space unit-interval --a [0,1/2] --b [1/2,1] --precision 8',
     0,
     ('{"command":"hausdorff","config":{"fuel":100000,"precision":8'
      ',"space":"unit-interval"},"fuelUsed":2,"result":{"hi":"4097/8192"'
      ',"lo":"4095/8192","tolerance":"2^-8","value":"1/2"},"witness":null}')),
    ('distance --space real-line --x 0 --located [1,2] --precision 12',
     0,
     ('{"command":"distance","config":{"fuel":100000,"precision":12'
      ',"space":"real-line"},"fuelUsed":4,"result":{"hi":"16385/16384","lo":"1"'
      ',"tolerance":"2^-12","value":"32769/32768"},"witness":null}')),
    ('radius --space unit-interval --x 1/2 --ball [0,1] --precision 12',
     0,
     ('{"command":"radius","config":{"fuel":100000,"precision":12'
      ',"space":"unit-interval"},"fuelUsed":1,"result":{"hi":"1/2","lo":"4095/8192"'
      ',"tolerance":"2^-12","value":"8191/16384"},"witness":null}')),
    ('hausdorff --space unit-interval --a [0,1/2] --b [1/2,1] --precision 12',
     0,
     ('{"command":"hausdorff","config":{"fuel":100000,"precision":12'
      ',"space":"unit-interval"},"fuelUsed":2,"result":{"hi":"4097/8192"'
      ',"lo":"4095/8192","tolerance":"2^-12","value":"1/2"},"witness":null}')),
    ('distance --space unit-interval --x 1/4 --located [0,1/2] --precision 12',
     0,
     ('{"command":"distance","config":{"fuel":100000,"precision":12'
      ',"space":"unit-interval"},"fuelUsed":1024,"result":{"hi":"1/8192","lo":"0"'
      ',"tolerance":"2^-12","value":"1/16384"},"witness":null}')),
    ('hausdorff --space unit-interval --a [0,1/2] --b [0,1/2] --precision 12',
     0,
     ('{"command":"hausdorff","config":{"fuel":100000,"precision":12'
      ',"space":"unit-interval"},"fuelUsed":2048,"result":{"hi":"3/16384","lo":"0"'
      ',"tolerance":"2^-12","value":"3/32768"},"witness":null}')),
    # the README's distance, hausdorff and radius commands at 10, 20, 30
    ('distance --space real-line --x 0 --located [1,2] --precision 10',
     0,
     ('{"command":"distance","config":{"fuel":100000,"precision":10'
      ',"space":"real-line"},"fuelUsed":4,"result":{"hi":"16385/16384","lo":"1"'
      ',"tolerance":"2^-10","value":"32769/32768"},"witness":null}')),
    ('hausdorff --space unit-interval --a [0,1/2] --b [1/2,1] --precision 10',
     0,
     ('{"command":"hausdorff","config":{"fuel":100000,"precision":10'
      ',"space":"unit-interval"},"fuelUsed":2,"result":{"hi":"4097/8192"'
      ',"lo":"4095/8192","tolerance":"2^-10","value":"1/2"},"witness":null}')),
    ('radius --space unit-interval --x 1/2 --ball [0,1] --precision 10',
     0,
     ('{"command":"radius","config":{"fuel":100000,"precision":10'
      ',"space":"unit-interval"},"fuelUsed":1,"result":{"hi":"1/2","lo":"4095/8192"'
      ',"tolerance":"2^-10","value":"8191/16384"},"witness":null}')),
    ('distance --space real-line --x 0 --located [1,2] --precision 20',
     0,
     ('{"command":"distance","config":{"fuel":100000,"precision":20'
      ',"space":"real-line"},"fuelUsed":16,"result":{"hi":"1048577/1048576","lo":"1"'
      ',"tolerance":"2^-20","value":"2097153/2097152"},"witness":null}')),
    ('hausdorff --space unit-interval --a [0,1/2] --b [1/2,1] --precision 20',
     0,
     ('{"command":"hausdorff","config":{"fuel":100000,"precision":20'
      ',"space":"unit-interval"},"fuelUsed":32,"result":{"hi":"134217729/268435456"'
      ',"lo":"134217727/268435456","tolerance":"2^-20","value":"1/2"},"witness":null}')),
    ('radius --space unit-interval --x 1/2 --ball [0,1] --precision 20',
     0,
     ('{"command":"radius","config":{"fuel":100000,"precision":20'
      ',"space":"unit-interval"},"fuelUsed":16,"result":{"hi":"1/2"'
      ',"lo":"524287/1048576","tolerance":"2^-20","value":"1048575/2097152"}'
      ',"witness":null}')),
    ('distance --space real-line --x 0 --located [1,2] --precision 30',
     0,
     ('{"command":"distance","config":{"fuel":100000,"precision":30'
      ',"space":"real-line"},"fuelUsed":64'
      ',"result":{"hi":"17592186044417/17592186044416","lo":"1","tolerance":"2^-30"'
      ',"value":"35184372088833/35184372088832"},"witness":null}')),
    ('hausdorff --space unit-interval --a [0,1/2] --b [1/2,1] --precision 30',
     0,
     ('{"command":"hausdorff","config":{"fuel":100000,"precision":30'
      ',"space":"unit-interval"},"fuelUsed":64'
      ',"result":{"hi":"8796093022209/17592186044416"'
      ',"lo":"8796093022207/17592186044416","tolerance":"2^-30","value":"1/2"}'
      ',"witness":null}')),
    ('radius --space unit-interval --x 1/2 --ball [0,1] --precision 30',
     0,
     ('{"command":"radius","config":{"fuel":100000,"precision":30'
      ',"space":"unit-interval"},"fuelUsed":64,"result":{"hi":"1/2"'
      ',"lo":"8796093022207/17592186044416","tolerance":"2^-30"'
      ',"value":"17592186044415/35184372088832"},"witness":null}')),
    # a distance with the point outside the unit-interval set
    ('distance --space unit-interval --x 0 --located [1/2,1] --precision 30',
     0,
     ('{"command":"distance","config":{"fuel":100000,"precision":30'
      ',"space":"unit-interval"},"fuelUsed":64'
      ',"result":{"hi":"8796093022209/17592186044416","lo":"1/2","tolerance":"2^-30"'
      ',"value":"17592186044417/35184372088832"},"witness":null}')),
    # the value-0 cases past where they close within 5000 stages: the
    # distance still answers at 13 and is Pending at 14, the Hausdorff
    # distance is Pending at 13
    ('distance --space unit-interval --x 1/4 --located [0,1/2] --precision 13 --fuel 5000',
     0,
     ('{"command":"distance","config":{"fuel":5000,"precision":13'
      ',"space":"unit-interval"},"fuelUsed":1024,"result":{"hi":"1/8192","lo":"0"'
      ',"tolerance":"2^-13","value":"1/16384"},"witness":null}')),
    ('hausdorff --space unit-interval --a [0,1/2] --b [0,1/2] --precision 13 --fuel 5000',
     2,
     ('{"command":"hausdorff","config":{"fuel":5000,"precision":13'
      ',"space":"unit-interval"},"fuelUsed":5000,"result":"Pending","witness":null}')),
    ('distance --space unit-interval --x 1/4 --located [0,1/2] --precision 14 --fuel 5000',
     2,
     ('{"command":"distance","config":{"fuel":5000,"precision":14'
      ',"space":"unit-interval"},"fuelUsed":5000,"result":"Pending","witness":null}')),
]


@pytest.mark.parametrize("argv, code, want", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_metric_command_answers_are_unchanged(argv, code, want):
    buf = io.StringIO()
    with redirect_stdout(buf):
        got = main(argv.split() + ["--format", "json"])
    assert (got, buf.getvalue().strip()) == (code, want)


# (argv, exit code, stdout, stderr)
OTHER_GOLDEN = [
    # the forall predicate forms: isEmptyOr on Cantor space, and and/or
    # over subset on the unit interval
    ('forall --space cantor --pred isEmptyOr(meets(open([e])))',
     0,
     ('{"command":"forall","config":{"fuel":100000,"precision":10,"space":"cantor"}'
      ',"fuelUsed":12,"result":"Accepted","witness":{"closingDepth":1}}\n'),
     ''),
    # meets off Cantor space: isEmptyOr on the unit interval, recorded
    # while each node of the search read its own pairs and region
    ('forall --space unit-interval --pred isEmptyOr(meets(open(-1,2)))',
     0,
     ('{"command":"forall","config":{"fuel":100000,"precision":10'
      ',"space":"unit-interval"},"fuelUsed":3014,"result":"Accepted"'
      ',"witness":{"closingDepth":11}}\n'),
     ''),
    ('forall --space unit-interval --pred and(subset(open(-1,2)),subset(open(-0.5,1.5)))',
     0,
     ('{"command":"forall","config":{"fuel":100000,"precision":10'
      ',"space":"unit-interval"},"fuelUsed":2,"result":"Accepted"'
      ',"witness":{"closingDepth":0}}\n'),
     ''),
    ('forall --space unit-interval --pred or(subset(open(0,1/2)),subset(open(-1,2)))',
     0,
     ('{"command":"forall","config":{"fuel":100000,"precision":10'
      ',"space":"unit-interval"},"fuelUsed":2,"result":"Accepted"'
      ',"witness":{"closingDepth":0}}\n'),
     ''),
    # a false subset claim on Cantor space: its compact complement and the
    # compact-name lanes run until the fuel is spent
    ('forall --space cantor --pred subset(open([0])) --fuel 3000',
     2,
     ('{"command":"forall","config":{"fuel":3000,"precision":10,"space":"cantor"}'
      ',"fuelUsed":3000,"result":"Pending","witness":null}\n'),
     ''),
    # domain errors: no system on the negative fixtures, no metric on
    # Cantor space, no compact whole on the line
    ('consistency --space star --bits (0,1)=1',
     3,
     ('{"command":"consistency","config":{"fuel":100000,"precision":10,"space":"star"}'
      ',"fuelUsed":0,"result":"error: space has no relatively compact system"'
      ',"witness":null}\n'),
     ''),
    ('forall --space qhat --pred meets(open(0,1))',
     3,
     ('{"command":"forall","config":{"fuel":100000,"precision":10,"space":"qhat"}'
      ',"fuelUsed":0,"result":"error: space has no relatively compact system"'
      ',"witness":null}\n'),
     ''),
    ('distance --space cantor --x 0 --located [0,1]',
     3,
     ('{"command":"distance","config":{"fuel":100000,"precision":10,"space":"cantor"}'
      ',"fuelUsed":0,"result":"error: needs a metric and a relatively compact system"'
      ',"witness":null}\n'),
     ''),
    ('hausdorff --space real-line --a [0,1] --b [1,2]',
     3,
     ('{"command":"hausdorff","config":{"fuel":100000,"precision":10'
      ',"space":"real-line"},"fuelUsed":0'
      ',"result":"error: needs a compact metric space with a system","witness":null}\n'),
     ''),
    ('radius --space cantor --x 0 --ball [0,1]',
     3,
     ('{"command":"radius","config":{"fuel":100000,"precision":10,"space":"cantor"}'
      ',"fuelUsed":0,"result":"error: needs a metric space","witness":null}\n'),
     ''),
    # a radius that runs out of fuel
    ('radius --space unit-interval --x 1/2 --ball [0,1] --fuel 1 --precision 20',
     2,
     ('{"command":"radius","config":{"fuel":1,"precision":20,"space":"unit-interval"}'
      ',"fuelUsed":1,"result":"Pending","witness":null}\n'),
     ''),
    # bit literals: each error is one line on stderr
    ('consistency --space unit-interval --bits (0,1)',
     1, '', "parse error: bit assignment needs '=': '(0,1)'\n"),
    ('consistency --space unit-interval --bits (0,1)=2',
     1, '', "parse error: bit must be 0 or 1: '(0,1)=2'\n"),
    # an interval is no basic of a finite space
    ('consistency --space finite:{a,b;d(a,b)=1} --bits (0,1)=1',
     1, '', "parse error: no index for the basic '(0,1)'\n"),
    # a point set is: the set {a} meets {a} and {a,b} and misses {b}
    ('consistency --space finite:{a,b;d(a,b)=1} --bits {a}=1,{a,b}=1 --fuel 2000',
     2,
     ('{"command":"consistency","config":{"fuel":2000,"precision":10'
      ',"space":"finite:{a,b;d(a,b)=1}"},"fuelUsed":2000,"result":"NoneYet"'
      ',"witness":null}\n'),
     ''),
    # compact-base: the README call verified with its witness, a point
    # outside U that runs out of fuel, a space without a system and a
    # literal that is no rational
    ('compact-base --space real-line --x 0 --u (-1,1)',
     0,
     ('{"command":"compact-base","config":{"fuel":100000,"precision":10'
      ',"space":"real-line"},"fuelUsed":147,"result":"verified"'
      ',"witness":{"memberStage":2,"neighborhood":"(-1/2,1/2)"'
      ',"patch":["[-1/2,1/2]"],"subsetStage":0}}\n'),
     ''),
    ('compact-base --space real-line --x 2 --u (-1,1) --fuel 1000',
     2,
     ('{"command":"compact-base","config":{"fuel":1000,"precision":10'
      ',"space":"real-line"},"fuelUsed":1000,"result":"Pending","witness":null}\n'),
     ''),
    ('compact-base --space star --x 0 --u (-1,1)',
     3,
     ('{"command":"compact-base","config":{"fuel":100000,"precision":10,"space":"star"}'
      ',"fuelUsed":0,"result":"error: space has no relatively compact system"'
      ',"witness":null}\n'),
     ''),
    ('compact-base --space real-line --x zero --u (-1,1)',
     1, '', "parse error: bad rational literal 'zero'\n"),
    # compact-base reads its point and basic through the space: on a finite
    # space a point name and a point set, verified with its witness, and a
    # set that is no basic; Cantor space names no exact point
    ('compact-base --space finite:{a,b;d(a,b)=1} --x a --u {a}',
     0,
     ('{"command":"compact-base","config":{"fuel":100000,"precision":10'
      ',"space":"finite:{a,b;d(a,b)=1}"},"fuelUsed":1,"result":"verified"'
      ',"witness":{"memberStage":0,"neighborhood":"{a}","patch":["{a}"]'
      ',"subsetStage":0}}\n'),
     ''),
    # a point outside U: the search stalls long before the budget runs out
    ('compact-base --space finite:{a,b;d(a,b)=1} --x a --u {b}',
     2,
     ('{"command":"compact-base","config":{"fuel":100000,"precision":10'
      ',"space":"finite:{a,b;d(a,b)=1}"},"fuelUsed":100000,"result":"Pending"'
      ',"witness":null}\n'),
     ''),
    ('compact-base --space finite:{a,b;d(a,b)=1} --x a --u {c}',
     1, '', "parse error: no index for the basic '{c}'\n"),
    ('compact-base --space cantor --x 0 --u [0]',
     3, '', 'domain error: no exact points for cantor\n'),
    # consistency: the README bits refuted with the cover witness, and a
    # satisfiable specification that stays NoneYet
    ('consistency --space cantor --bits [e]=1,[0]=0,[1]=0',
     0,
     ('{"command":"consistency","config":{"fuel":100000,"precision":10'
      ',"space":"cantor"},"fuelUsed":17,"result":"Refuted"'
      ',"witness":{"cover":["[0]","[1]"],"patch":["[e]"],"touched":"[e]"}}\n'),
     ''),
    # a point-set witness on a finite space, written as the space writes
    # its literals: the same bytes whatever the string hashing
    ('consistency --space finite:{a,b;d(a,b)=1} --bits {a}=1,{b}=1,{a,b}=0',
     0,
     ('{"command":"consistency","config":{"fuel":100000,"precision":10'
      ',"space":"finite:{a,b;d(a,b)=1}"},"fuelUsed":6,"result":"Refuted"'
      ',"witness":{"cover":["{a,b}"],"patch":["{a}"],"touched":"{a}"}}\n'),
     ''),
    ('consistency --space cantor --bits [e]=0 --fuel 2000',
     2,
     ('{"command":"consistency","config":{"fuel":2000,"precision":10'
      ',"space":"cantor"},"fuelUsed":2000,"result":"NoneYet","witness":null}\n'),
     ''),
]


@pytest.mark.parametrize("argv, code, want_out, want_err", OTHER_GOLDEN,
                         ids=[row[0] for row in OTHER_GOLDEN])
def test_other_command_answers_are_unchanged(argv, code, want_out, want_err):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        got = main(argv.split() + ["--format", "json"])
    assert (got, out.getvalue(), err.getvalue()) == (code, want_out, want_err)


def _answer(argv: str, fuel: int):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv.split() + ["--fuel", str(fuel), "--format", "json"])
    payload = json.loads(out.getvalue())
    return code, payload["result"], payload["witness"], payload["fuelUsed"]


_ANSWERED = [row[0] for row in OTHER_GOLDEN
             if row[1] == 0 and row[0].split()[0] in ("compact-base", "consistency", "forall")]


@pytest.mark.parametrize("argv", _ANSWERED)
def test_fuel_used_is_the_fuel_the_answer_needs(argv):
    """``fuelUsed`` of an answer is true: that budget gives the same answer,
    and one unit less gives none."""
    code, result, witness, used = _answer(argv, 10 ** 5)
    assert code == 0 and used < 10 ** 5
    assert _answer(argv, used) == (code, result, witness, used)
    assert _answer(argv, used - 1)[0] == 2


# (argv, exit code, stdout): the text envelope, sorted keys without the
# config, of each command's answer, a Pending and a domain error
TEXT_GOLDEN = [
    ('compact-base --space real-line --x 0 --u (-1,1) --format text',
     0,
     "command: compact-base\nfuelUsed: 147\nresult: verified\n"
     "witness: {'neighborhood': '(-1/2,1/2)', 'patch': ['[-1/2,1/2]'], "
     "'memberStage': 2, 'subsetStage': 0}\n"),
    ('consistency --space cantor --bits [e]=1,[0]=0,[1]=0 --format text',
     0,
     "command: consistency\nfuelUsed: 17\nresult: Refuted\n"
     "witness: {'touched': '[e]', 'patch': ['[e]'], 'cover': ['[0]', '[1]']}\n"),
    ('forall --space unit-interval --pred subset(open(-0.5,1.5)) --format text',
     0,
     "command: forall\nfuelUsed: 2\nresult: Accepted\n"
     "witness: {'closingDepth': 0}\n"),
    ('distance --space real-line --x 0 --located [1,2] --format text',
     0,
     "command: distance\nfuelUsed: 4\nresult: {'value': '32769/32768', "
     "'lo': '1', 'hi': '16385/16384', 'tolerance': '2^-10'}\nwitness: None\n"),
    ('hausdorff --space unit-interval --a [0,1/2] --b [1/2,1] --format text',
     0,
     "command: hausdorff\nfuelUsed: 2\nresult: {'value': '1/2', "
     "'lo': '4095/8192', 'hi': '4097/8192', 'tolerance': '2^-10'}\n"
     "witness: None\n"),
    ('radius --space unit-interval --x 1/2 --ball [0,1] --format text',
     0,
     "command: radius\nfuelUsed: 1\nresult: {'value': '8191/16384', "
     "'lo': '4095/8192', 'hi': '1/2', 'tolerance': '2^-10'}\nwitness: None\n"),
    ('radius --space unit-interval --x 1/2 --ball [0,1] --fuel 1 --precision 20 '
     '--format text',
     2,
     "command: radius\nfuelUsed: 1\nresult: Pending\nwitness: None\n"),
    ('forall --space cantor --pred subset(open([0])) --fuel 3000 --format text',
     2,
     "command: forall\nfuelUsed: 3000\nresult: Pending\nwitness: None\n"),
    ('radius --space cantor --x 0 --ball [0,1] --format text',
     3,
     "command: radius\nfuelUsed: 0\nresult: error: needs a metric space\n"
     "witness: None\n"),
]


@pytest.mark.parametrize("argv, code, want", TEXT_GOLDEN,
                         ids=[row[0] for row in TEXT_GOLDEN])
def test_text_output_is_unchanged(argv, code, want):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        got = main(argv.split())
    assert (got, out.getvalue(), err.getvalue()) == (code, want, '')
