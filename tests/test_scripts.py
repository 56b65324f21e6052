import runpy
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "half_operator_search.py"

# pinned output: every residual rests on the inverses _bisect finds, which
# do not depend on the start bracket
EXPECTED = """\
candidate H_s(f) = f(f^-1 + s); residual of H_s(H_s(f)) vs L(f)
  f = exp       s = 0.50 residual = 5.917e-01; best s = 0.70 residual = 5.630e-01
  f = 2x        s = 0.50 residual = 3.750e-01; best s = 0.70 residual = 3.250e-01
  f = x^2 + 1   s = 0.50 residual = 4.521e-01; best s = 0.70 residual = 3.967e-01
no s in the scan drives the residual to zero (for f = 2x the
composite is x + s while L gives x + 2, so the family misses by
construction); the square-root-of-L question stays open here.
"""


def test_half_operator_search_output(capsys):
    runpy.run_path(str(SCRIPT), run_name="__main__")
    assert capsys.readouterr().out == EXPECTED
