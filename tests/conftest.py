"""Shared test settings: Hypothesis runs a fixed, bounded set of examples.

derandomize=True fixes the cases only for a fixed source tree and a fixed set
of loaded modules: Hypothesis (6.155, pinned in pyproject.toml) mixes the
literals of the loaded modules into its draws, so an edit to a constant in
src/ggp or tests/, or loading another module, changes the examples that every
property test sees."""

from hypothesis import settings

settings.register_profile("ggp", derandomize=True, max_examples=60, deadline=None,
                          database=None, print_blob=True)
settings.load_profile("ggp")
