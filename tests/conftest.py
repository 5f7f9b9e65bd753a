from hypothesis import settings

# `pytest --hypothesis-profile=ci`: ten times hypothesis's default examples.
# CI runs the accepted-domain properties (tests/test_domain.py), the closed
# form against its 50-digit reference (tests/test_reference.py), the
# histogram binning and goodness-of-fit properties and the window means
# against the windowed oracle (tests/test_montecarlo.py) under it.
settings.register_profile("ci", max_examples=10 * settings.default.max_examples)
