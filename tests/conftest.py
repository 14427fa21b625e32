"""Hypothesis profiles: the default one runs on every push; `thorough`, loaded with
`pytest --hypothesis-profile=thorough`, draws ten times as many examples for the
properties that do not set their own count, and runs weekly in CI."""

from hypothesis import settings

settings.register_profile("thorough", max_examples=1000, deadline=None)
