"""Shared test settings: every property test is derandomized (the same
examples on every run) and has no per-example deadline."""

from hypothesis import settings

settings.register_profile("fnlslab", derandomize=True, deadline=None)
settings.load_profile("fnlslab")
