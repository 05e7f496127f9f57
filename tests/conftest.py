"""One Hypothesis profile for every property test: derandomized, so a run is
reproducible; no example database; no per-example deadline, so a slow runner
cannot fail a test on timing alone.  Each test keeps its own ``max_examples``."""
from hypothesis import settings

settings.register_profile("netcon", derandomize=True, database=None, deadline=None)
settings.load_profile("netcon")
