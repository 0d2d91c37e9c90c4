import os

import pytest
from hypothesis import settings

from doublelift.doublecat import check_double_axioms
from doublelift.errors import StructureError
from doublelift.fincat import FiniteCategory, FunctorData
from doublelift.lift import LiftData, lift_data

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


# lift_data builds c1, the three structure functors and the double category
# unchecked, by the lifting theorem, so every lift that a test builds is
# checked here.  The checks are bound now, before a test wraps them to count
# the calls of the program under test.
_check_category, _check_functor = FiniteCategory._validate, FunctorData._validate


@pytest.fixture(autouse=True, scope="session")
def every_lift_is_checked():
    build = LiftData.__init__

    def checked(self, dec, phi, key_index, dc):
        _check_category(dc.c1)
        for functor in (dc.src, dc.tgt, dc.hid):
            _check_functor(functor)
        for law, ok, witness in check_double_axioms(dc):
            if not ok:
                raise StructureError(law, repr(witness))
        build(self, dec, phi, key_index, dc)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(LiftData, "__init__", checked)
        yield
