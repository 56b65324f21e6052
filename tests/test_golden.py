"""`growthcalc repro`, `growthcalc table`, `growthcalc classify` and
`growthcalc props` stdout, byte for byte.

The files under tests/golden/ hold the JSON these commands print;
classify.json maps each expression to the stdout of
`growthcalc classify <expression>`, and props.json maps each argument
string (split on spaces) to the stdout of `growthcalc props <arguments>`.
A change that is meant to alter a verdict or a reported figure replaces
the file in the same change and says why.
"""

import json
from pathlib import Path

import pytest

from growthcalc import cli

GOLDEN = Path(__file__).with_name("golden")
CLASSIFY = json.loads((GOLDEN / "classify.json").read_text())
PROPS = json.loads((GOLDEN / "props.json").read_text())


@pytest.mark.parametrize("command", ["repro", "table"])
def test_stdout_matches_golden(capsys, command):
    code = cli.main([command])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == (GOLDEN / f"{command}.json").read_text()


def test_repro_text_lists_the_golden_criteria(capsys):
    code = cli.main(["--format", "text", "repro"])
    out, _ = capsys.readouterr()
    criteria = json.loads((GOLDEN / "repro.json").read_text())["criteria"]
    assert code == 0 and len(criteria) == 11
    assert out.splitlines() == [f"{c['id']:2d} PASS  {c['name']}: {c['detail']}"
                                for c in criteria] + ["=> 11/11 passed"]


@pytest.mark.parametrize("expr", list(CLASSIFY))
def test_classify_stdout_matches_golden(capsys, expr):
    code = cli.main(["classify", expr])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == CLASSIFY[expr]


@pytest.mark.parametrize("args", list(PROPS))
def test_props_stdout_matches_golden(capsys, args):
    code = cli.main(["props", *args.split()])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == PROPS[args]
