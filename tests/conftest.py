"""One hypothesis profile for every property test: derandomized, with no
example database and no deadline, so runs repeat exactly whatever the
host's speed.  Modules set only ``max_examples``."""

from hypothesis import settings

settings.register_profile("centertrans", derandomize=True, database=None, deadline=None)
settings.load_profile("centertrans")
