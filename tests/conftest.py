"""Hypothesis profiles.  `--hypothesis-profile=ci` draws the same examples
on every run (derandomize) and drops the per-example deadline, so property
tests neither flake on slow runners nor vary from run to run."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
