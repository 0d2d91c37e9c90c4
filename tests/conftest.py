import os

import pytest
from hypothesis import settings

from doublelift.lift import lift_data

from support import fixture_corpus

# HYPOTHESIS_PROFILE=ci runs the property tests that set no example count
# of their own with ten times the default number of examples.
settings.register_profile("ci", max_examples=1000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def corpus():
    return fixture_corpus()


@pytest.fixture(scope="session")
def corpus_lifts(corpus):
    return [(tag, lift_data(dec, phi)) for tag, dec, phi in corpus]
