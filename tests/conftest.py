"""Hypothesis settings shared by every test module."""

from hypothesis import settings

# The same examples on every run, so a tier-1 result repeats; no deadline,
# since shared machines stall single examples. Tests keep their max_examples.
settings.register_profile("survnet", derandomize=True, deadline=None)
settings.load_profile("survnet")
