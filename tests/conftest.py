from hypothesis import settings

# Each run of the suite draws the same examples: the property tests use a
# fixed derandomized seed, and no example database carries a failure from
# one run into the next.  Every test keeps its own max_examples.
settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")
