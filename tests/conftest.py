"""Shared test settings: property tests replay a fixed example sequence."""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("derandomized")
