"""Differential tests of gamma's vertical closure against the loop it replaced.

``analysis._vertical_closure`` repeats one set pass over the composition
of ``c1``, adding the composites of kept squares, until a pass adds
nothing.  ``flag_loop_closure`` below is the loop that it replaced, kept
verbatim: it walks every composable pair and sets a flag when it adds a
composite.  On lifts drawn from the corpus and from semidirect and graded
lifts, as ``tests/test_lift.py`` draws them:

* both close a drawn set of squares to the same set;
* ``gamma_data`` gives the same ``dc``, ``square_ids`` and ``levels`` with
  the reference patched in.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from doublelift import analysis
from doublelift.doublecat import DoubleCategory
from doublelift.examples import graded_category, object_fixing_precosheaf
from doublelift.fincat import delooping
from doublelift.lift import lift_data
from doublelift.twocat import decorate, suspend

from support import fixture_corpus, semidirect_lift
from test_lift import _actions, _monoids


def flag_loop_closure(c: DoubleCategory, squares: set[int]) -> set[int]:
    out = set(squares)
    changed = True
    while changed:
        changed = False
        for (q, p) in c.c1.composition:
            if q in out and p in out:
                r = c.c1.composition[(q, p)]
                if r not in out:
                    out.add(r)
                    changed = True
    return out


@lru_cache(maxsize=None)
def _corpus_lifts():
    return [lift_data(dec, phi) for _, dec, phi in fixture_corpus()]


@st.composite
def _lifts(draw):
    kind = draw(st.sampled_from(("corpus", "semidirect", "graded")))
    if kind == "corpus":
        return draw(st.sampled_from(_corpus_lifts()))
    m, n = draw(_monoids()), draw(_monoids())
    action = draw(st.sampled_from(_actions(m, n)))
    if kind == "semidirect":
        return semidirect_lift(n, m, action)
    dec = decorate(delooping(m), suspend(graded_category(m, n)))
    return lift_data(dec, object_fixing_precosheaf(dec, m, n, action))


def _gamma(c: DoubleCategory):
    gd = analysis.gamma_data(c)
    return gd.dc, gd.square_ids, gd.levels


@settings(deadline=None, max_examples=settings.default.max_examples * 2)
@given(data=st.data())
def test_the_set_pass_closure_equals_the_flag_loop(data):
    ld = data.draw(_lifts())
    seed = data.draw(st.sets(st.integers(0, ld.dc.c1.n_morphisms - 1)))
    assert analysis._vertical_closure(ld.dc, seed) == flag_loop_closure(ld.dc, seed)


@settings(deadline=None, max_examples=settings.default.max_examples)
@given(data=st.data())
def test_gamma_data_equals_a_run_on_the_flag_loop(data):
    ld = data.draw(_lifts())
    got = _gamma(ld.dc)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "_vertical_closure", flag_loop_closure)
        assert got == _gamma(ld.dc)
