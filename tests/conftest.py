"""Shared test settings: Hypothesis runs a fixed, bounded set of examples,
so every run of the suite checks the same cases."""

from hypothesis import settings

settings.register_profile("ggp", derandomize=True, max_examples=60, deadline=None,
                          database=None, print_blob=True)
settings.load_profile("ggp")
