"""`growthcalc repro` and `growthcalc table` stdout, byte for byte.

The files under tests/golden/ hold the JSON these commands print.  A change
that is meant to alter a verdict or a reported figure replaces the file in
the same change and says why.
"""

from pathlib import Path

import pytest

from growthcalc import cli

GOLDEN = Path(__file__).with_name("golden")


@pytest.mark.parametrize("command", ["repro", "table"])
def test_stdout_matches_golden(capsys, command):
    code = cli.main([command])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == (GOLDEN / f"{command}.json").read_text()
