"""Shared test settings.

The property tests draw their examples from a fixed seed (``derandomize``),
so every run of the suite checks the same cases, and they carry no per-example
deadline, so a slow shared machine cannot fail them on timing alone.
"""

from hypothesis import settings

settings.register_profile(
    "catscamp", derandomize=True, deadline=None, max_examples=25, database=None
)
settings.load_profile("catscamp")
