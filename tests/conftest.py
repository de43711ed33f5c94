from __future__ import annotations

from fractions import Fraction

import pytest
from circle_order import value
from hypothesis import HealthCheck, settings

from f8tight.slope import Slope

# The library keeps slopes as integer pairs and has no `Slope.as_fraction`.
# The acceptance checks' bypass oracle still reads a slope's value by that
# name, so the tests supply it.
Slope.as_fraction = value

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def fractions_built(monkeypatch):
    """``fractions_built(f, *args)`` calls f and returns (its result, the Fractions built meanwhile)."""
    built = [0]
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))

    def call(f, *args):
        before = built[0]
        result = f(*args)
        return result, built[0] - before

    return call
