"""A pytest plugin, not collected by tier-1, that prints each executable line
of src/growthcalc/*.py the tests never ran.  From the repo root:
PYTHONPATH=src:tests python -m pytest -p linetrace -q --hypothesis-profile=ci tests"""
import importlib.util
import pathlib
import sys

import pytest

_ROOT = str(pathlib.Path(importlib.util.find_spec("growthcalc").origin).parent)
_ran = set()


def _trace(frame, event, arg):
    if frame.f_code.co_filename.startswith(_ROOT):
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
        return _trace


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):  # a RecursionError inside _trace switches it off
    sys.settrace(_trace)


pytest_runtest_call = pytest_runtest_teardown = pytest_runtest_setup
sys.settrace(_trace)  # before the tests import the package


def _lines(code):
    yield from (line for _, _, line in code.co_lines() if line is not None)
    for const in filter(lambda c: hasattr(c, "co_lines"), code.co_consts):
        yield from _lines(const)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    unrun = [f"unrun {path.name}:{line}" for path in sorted(pathlib.Path(_ROOT).glob("*.py"))
             for line in sorted(set(_lines(compile(path.read_text(), str(path), "exec"))))
             if (str(path), line) not in _ran]
    terminalreporter.write_line("\n".join(unrun + [f"{len(unrun)} executable lines never ran"]))
