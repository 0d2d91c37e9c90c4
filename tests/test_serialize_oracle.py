"""Differential tests of the canonical JSON writer against json's encoder.

``oracle`` is the object tree that ``serialize.dumps`` used to build and hand
to ``json.dumps(..., sort_keys=True, indent=2)``.  That call stays the
reference for the byte layout: ``dumps`` must write exactly its text, plus a
trailing newline, for every corpus lift and its parts, for two larger lifts,
and for random monoids, categories, monoidal categories, bicategories and
pre-cosheaves whose names hold text that JSON must escape.  Two planted
writer bugs check that the random property can fail.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

from doublelift import serialize
from doublelift.examples import fixture_by_name
from doublelift.fincat import (FiniteCategory, Monoid, MonoidAction, delooping,
                               monoidal_delooping)
from doublelift.grothendieck import precosheaf_from_action
from doublelift.serialize import FUNCTOR, HCOMP, KINDS, MAPPING, NAMES, TABLE, dumps
from doublelift.twocat import StrictBicategory, decorate, suspend

from support import discrete


def _oracle_field(value, shape):
    if isinstance(shape, str):
        return oracle(value)
    if shape is TABLE:
        return sorted([a, b, v] for (a, b), v in value.items())
    if shape is MAPPING:
        return sorted([k, v] for k, v in value.items())
    if shape is FUNCTOR:
        return [list(value.object_map), list(value.morphism_map)]
    if shape is HCOMP:
        return sorted([kind, u, v, w] for (kind, u, v), w in value.items())
    if shape in ([int], NAMES):
        return list(value)
    if isinstance(shape, list):
        return [_oracle_field(x, shape[0]) for x in value]
    return value


def oracle(value) -> dict:
    for kind, (cls, fields) in KINDS.items():
        if isinstance(value, cls):
            out = {"kind": kind}
            for key, shape in fields.items():
                field = getattr(value, key)
                if shape is not NAMES or field:
                    out[key] = _oracle_field(field, shape)
            return out
    raise TypeError(type(value).__name__)


def reference(value) -> str:
    return json.dumps(oracle(value), sort_keys=True, indent=2) + "\n"


def _parts(ld):
    return (ld.dec, ld.phi, ld.dc, ld.dec.decoration, ld.dec.bicat)


def test_writer_matches_the_reference_on_the_corpus(corpus_lifts):
    for tag, ld in corpus_lifts:
        for value in _parts(ld):
            assert dumps(value) == reference(value), (tag, type(value).__name__)


@pytest.mark.parametrize("name", ["semidirect:z3:z7:triv", "graded:z3:z5:triv"])
def test_writer_matches_the_reference_on_larger_lifts(name):
    for value in _parts(fixture_by_name(name)):
        assert dumps(value) == reference(value), type(value).__name__


def test_writer_matches_the_reference_on_empty_tables():
    empty = StrictBicategory(0, (), (), (), (), (), (), {}, {}, {})
    for value in (discrete(0), empty, decorate(discrete(0), empty)):
        assert dumps(value) == reference(value), type(value).__name__


# -- random structures -------------------------------------------------------

# Characters JSON must escape or writes as \uXXXX, drawn often; the rest of
# a name is any code point, lone surrogates included.
_AWKWARD = st.sampled_from('"\\/\x00\x08\x1f\x7f\x80\xe9\u20ac\u2028\ufeff\U0001f600\ud800')
_NAME = st.text(st.characters(exclude_categories=()) | _AWKWARD, max_size=6)


def _names(draw, n):
    return draw(st.none() | st.lists(_NAME, min_size=n, max_size=n).map(tuple))


def _transformation_monoid(draw, generators):
    """The monoid of maps on a set of at most three points generated by
    random maps, with its elements in a random order."""
    k = draw(st.integers(1, 3))
    gens = draw(st.lists(st.tuples(*[st.integers(0, k - 1)] * k), max_size=generators))
    elements, todo = [tuple(range(k))], [tuple(range(k))]
    while todo:
        f = todo.pop()
        for g in gens:
            h = tuple(f[x] for x in g)
            if h not in elements:
                elements.append(h)
                todo.append(h)
    elements = draw(st.permutations(elements))
    pos = {f: i for i, f in enumerate(elements)}
    table = tuple(tuple(pos[tuple(f[x] for x in g)] for g in elements) for f in elements)
    return Monoid(table, pos[tuple(range(k))], _names(draw, len(elements)))


def _preorder_category(draw):
    """The category of a random preorder on at most three objects."""
    n = draw(st.integers(0, 3))
    point = st.integers(0, max(n - 1, 0))
    rel = set(draw(st.lists(st.tuples(point, point), max_size=4 * n))) | {(a, a) for a in range(n)}
    while True:
        more = {(a, d) for a, b in rel for c, d in rel if b == c} - rel
        if not more:
            break
        rel |= more
    arrows = sorted(rel)
    pos = {ab: i for i, ab in enumerate(arrows)}
    comp = {(pos[b, c], pos[a, b]): pos[a, c]
            for (a, b), (b2, c) in itertools.product(arrows, repeat=2) if b == b2}
    return FiniteCategory(n, tuple(a for a, _ in arrows), tuple(b for _, b in arrows),
                          tuple(pos[a, a] for a in range(n)), comp,
                          _names(draw, n), _names(draw, len(arrows)))


@st.composite
def structures(draw):
    acting = _transformation_monoid(draw, 2)
    target = _transformation_monoid(draw, 1)  # one generator: commutative
    fiber = monoidal_delooping(target)
    dec = decorate(delooping(acting), suspend(fiber))
    phi = precosheaf_from_action(dec, MonoidAction.trivial(acting, target))
    return (acting, target, _preorder_category(draw), discrete(draw(st.integers(0, 2))),
            fiber, dec, phi)


@settings(deadline=None)
@given(structures())
def test_writer_matches_the_reference_on_random_structures(values):
    for value in values:
        assert dumps(value) == reference(value), type(value).__name__


def test_the_property_catches_an_unescaped_name(monkeypatch):
    monkeypatch.setitem(serialize._LEAF, str, lambda s: '"' + s + '"')
    with pytest.raises(AssertionError):
        test_writer_matches_the_reference_on_random_structures()


def test_the_property_catches_a_wrong_indent_in_nested_maps(monkeypatch):
    write = serialize._write

    def misindent(value, shape, ind):
        return write(value, shape, ind + " " if shape is MAPPING else ind)

    monkeypatch.setattr(serialize, "_write", misindent)
    with pytest.raises(AssertionError):
        test_writer_matches_the_reference_on_random_structures()
