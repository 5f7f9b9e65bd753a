from hypothesis import settings

# `pytest --hypothesis-profile=ci`: ten times hypothesis's default examples.
# CI runs tests/test_domain.py, the accepted-domain property, under it.
settings.register_profile("ci", max_examples=10 * settings.default.max_examples)
