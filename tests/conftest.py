"""Property tests draw the same examples on every run and store none."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")
