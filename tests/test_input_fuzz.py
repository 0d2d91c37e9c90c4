"""Mutation fuzzing at the input boundary.

Every file kind in ``serialize.KINDS`` is seeded with the canonical files of
the corpus structures and of the lifts of three corpus entries.  A mutation
sets one integer of a file to -1, to n (one past the largest integer in the
file, so outside every cell range of it), to its value plus or minus one,
or to 0; drops one key of an object; retypes one integer as a string, a
list or a bool; or drops or duplicates one row, an entry of a list whose
entries are lists.  ``serialize.loads`` must then return a structure or
raise a ``StructureError`` that names a law, never another exception, and
``doublelift check`` on the file must exit 0, or exit 1 naming that law.
Retyped leaves and lengthened or shortened rows must fail ``schema`` at the
path that a walk of the file item by item names first.
The same mutations of the DEC or PHI file of a corpus entry must make
``doublelift lift`` exit 1 naming a law, or write a lift that ``doublelift
check`` accepts.
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from doublelift.analysis import single_object_monoids
from doublelift.cli import run
from doublelift.errors import StructureError
from doublelift.fincat import Monoid, delooping, monoidal_delooping
from doublelift.lift import lift
from doublelift.serialize import KINDS, NAMES, dumps, loads
from doublelift.twocat import decorate, suspend

from support import end_category, fixture_corpus

LIFTED = ("semidirect:z3:z2:inv", "twoobject", "graded:z2:z3:inv")


@lru_cache(maxsize=None)
def _seed_texts() -> tuple[str, ...]:
    texts = set()
    for tag, dec, phi in fixture_corpus():
        values = [dec.decoration, dec.bicat, dec, phi, end_category(dec.bicat, 0)]
        if dec.bicat.n0 == dec.bicat.n1 == 1:
            values.extend(single_object_monoids(dec))
        if tag in LIFTED:
            values.append(lift(dec, phi))
        texts.update(dumps(v) for v in values)
    return tuple(sorted(texts))


def _walk(obj, path=()):
    """(path, value) for every value nested in ``obj``, depth first."""
    items = enumerate(obj) if isinstance(obj, list) else obj.items() if isinstance(obj, dict) else ()
    for key, item in items:
        yield path + (key,), item
        yield from _walk(item, path + (key,))


def _int_paths(obj):
    return [path for path, value in _walk(obj) if type(value) is int]


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _run(argv) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of the command line ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _check(obj) -> tuple[int, str]:
    """Exit status and report of ``doublelift check`` on the file ``obj``."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "mutant.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return _run(["check", path])[:2]


def test_the_seeds_cover_every_kind():
    assert {json.loads(text)["kind"] for text in _seed_texts()} == set(KINDS)


def _assert_loads_or_names_a_law(obj, path):
    try:
        loads(json.dumps(obj))
        law = None
    except StructureError as exc:
        law = exc.law
        assert law and str(exc).startswith(law), (path, str(exc))
    code, report = _check(obj)
    if law is None:
        assert code == 0, (path, report)
    else:
        assert code == 1 and f"FAIL  load: {law}: " in report, (path, report)


def _draw_seed(data):
    return json.loads(data.draw(st.sampled_from(_seed_texts())))


# The mutations: each changes ``obj`` in place and returns the path it changed.


def _set_integer(data, obj):
    paths = _int_paths(obj)
    path = data.draw(st.sampled_from(paths))
    n = 1 + max(_at(obj, p) for p in paths)
    old = _at(obj, path)
    _at(obj, path[:-1])[path[-1]] = data.draw(st.sampled_from([-1, n, old + 1, old - 1, 0]))
    return path


def _drop_key(data, obj):
    path = data.draw(st.sampled_from([p for p, _ in _walk(obj) if isinstance(p[-1], str)]))
    del _at(obj, path[:-1])[path[-1]]
    return path


def _retype_integer(data, obj):
    path = data.draw(st.sampled_from(_int_paths(obj)))
    old = _at(obj, path)
    _at(obj, path[:-1])[path[-1]] = data.draw(st.sampled_from([str(old), [old], True, False]))
    return path


def _drop_or_duplicate_row(data, obj):
    path = data.draw(st.sampled_from([p for p, v in _walk(obj) if isinstance(p[-1], int) and type(v) is list]))
    rows, i = _at(obj, path[:-1]), path[-1]
    if data.draw(st.booleans()):
        rows.insert(i, rows[i])
    else:
        del rows[i]
    return path


MUTATIONS = (_set_integer, _drop_key, _retype_integer, _drop_or_duplicate_row)


@settings(deadline=None)
@given(data=st.data())
def test_single_integer_mutations_end_in_a_named_law(data):
    obj = _draw_seed(data)
    _assert_loads_or_names_a_law(obj, _set_integer(data, obj))


@settings(deadline=None)
@given(data=st.data())
def test_dropped_keys_end_in_a_named_law(data):
    obj = _draw_seed(data)
    _assert_loads_or_names_a_law(obj, _drop_key(data, obj))


@settings(deadline=None)
@given(data=st.data())
def test_retyped_integers_end_in_a_named_law(data):
    obj = _draw_seed(data)
    _assert_loads_or_names_a_law(obj, _retype_integer(data, obj))


@settings(deadline=None)
@given(data=st.data())
def test_dropped_or_duplicated_rows_end_in_a_named_law(data):
    obj = _draw_seed(data)
    _assert_loads_or_names_a_law(obj, _drop_or_duplicate_row(data, obj))


def _schema_walk(value, shape, path: str):
    """The schema check item by item, as it ran before lists of leaves and
    of rows were decided by C-level passes: the detail of the first
    offending path, or None."""
    if isinstance(shape, str):
        if not isinstance(value, dict) or value.get("kind") != shape:
            return f"{path}: expected a {shape} object"
        for key, sub in KINDS[shape][1].items():
            if key not in value and sub is not NAMES:
                return f"{path}.{key}: missing"
            if key in value and (found := _schema_walk(value[key], sub, f"{path}.{key}")):
                return found
        return None
    if shape in (int, str):
        return None if type(value) is shape else f"{path}: expected {'an integer' if shape is int else 'a string'}"
    if not isinstance(value, list):
        return f"{path}: expected a list"
    if isinstance(shape, tuple) and len(value) != len(shape):
        return f"{path}: expected {len(shape)} entries"
    for i, item in enumerate(value):
        if found := _schema_walk(item, shape[i] if isinstance(shape, tuple) else shape[0], f"{path}[{i}]"):
            return found
    return None


def _retype_leaf(data, obj):
    # the top-level kind picks the schema, so it stays
    path = data.draw(st.sampled_from([p for p, v in _walk(obj) if type(v) in (int, str) and p != ("kind",)]))
    old = _at(obj, path)
    _at(obj, path[:-1])[path[-1]] = data.draw(st.sampled_from([str(old), [old], True, 0, 1.5, None]))
    return path


def _reshape_row(data, obj):
    rows = [p for p, v in _walk(obj) if type(v) is list and v and not any(type(x) in (list, dict) for x in v)]
    if not rows:
        return
    row = _at(obj, data.draw(st.sampled_from(rows)))
    if data.draw(st.booleans()):
        row.append(data.draw(st.sampled_from([0, "sq"])))
    else:
        row.pop()


@settings(deadline=None)
@given(data=st.data())
def test_schema_failures_name_the_path_of_an_item_by_item_walk(data):
    obj = _draw_seed(data)
    for _ in range(data.draw(st.integers(1, 3))):
        data.draw(st.sampled_from([_retype_leaf, _reshape_row]))(data, obj)
    try:
        loads(json.dumps(obj))
        detail = None
    except StructureError as exc:
        detail = exc.detail if exc.law == "schema" and not exc.detail.startswith("repeated key") else None
    assert detail == _schema_walk(obj, obj["kind"], "$")


@lru_cache(maxsize=None)
def _lift_inputs() -> tuple[tuple[str, str], ...]:
    """The DEC and PHI files of every corpus entry."""
    return tuple((dumps(dec), dumps(phi)) for _, dec, phi in fixture_corpus())


@settings(deadline=None)
@given(data=st.data())
def test_mutated_lift_inputs_end_in_a_named_law_or_a_lift_that_passes_check(data):
    # lift builds its output unchecked, relying on the lifting theorem for
    # inputs that pass their laws; check reads the output back with every law
    files = list(data.draw(st.sampled_from(_lift_inputs())))
    which = data.draw(st.sampled_from([0, 1]))
    obj = json.loads(files[which])
    path = data.draw(st.sampled_from(MUTATIONS))(data, obj)
    files[which] = json.dumps(obj)
    with tempfile.TemporaryDirectory() as d:
        dec, phi, out = (os.path.join(d, name) for name in ("dec.json", "phi.json", "out.json"))
        for name, text in zip((dec, phi), files):
            with open(name, "w") as fh:
                fh.write(text)
        code, report, err = _run(["lift", dec, phi, "-o", out])
        if code == 0:
            assert _run(["check", out])[0] == 0, (which, path)
        else:
            law = err.removeprefix("first failing law: ").rstrip("\n")
            assert code == 1 and law and f"FAIL  {law}: " in report, (which, path, report, err)


def _semidirect_dec():
    z2, z3 = Monoid.cyclic(2), Monoid.cyclic(3)
    return decorate(delooping(z2), suspend(monoidal_delooping(z3)))


# Inputs that ended in a bare IndexError or KeyError before ids were
# range-checked, with the law they now fail.  Tables are stored as sorted
# [lhs, rhs, result] rows, so [0, 2] is the first result.
@pytest.mark.parametrize("path, value, law", [
    (("bicat", "vcomp", 0, 2), 999, "vertical-boundary"),
    (("bicat", "vcomp", 0, 2), -1, "vertical-boundary"),
    (("bicat", "hcomp1", 0, 2), 999, "horizontal-boundary"),
    (("bicat", "hcomp1", 0, 2), -1, "horizontal-boundary"),
    (("bicat", "hcomp2", 0, 2), 999, "horizontal-boundary"),
    (("bicat", "hcomp2", 0, 2), -1, "horizontal-boundary"),
    (("bicat", "id1", 0), 999, "identity-boundary"),
    (("bicat", "id1", 0), -1, "identity-boundary"),
    (("bicat", "id2", 0), 999, "identity-boundary"),
    (("bicat", "id2", 0), -1, "identity-boundary"),
])
def test_out_of_range_bicategory_ids_fail_a_named_law(path, value, law):
    obj = json.loads(dumps(_semidirect_dec()))
    _at(obj, path[:-1])[path[-1]] = value
    code, report = _check(obj)
    assert code == 1 and f"FAIL  load: {law}: " in report


@pytest.mark.parametrize("path, value, law", [
    (("tensor_mor", 0, 2), 7, "tensor-boundary"),
    (("tensor_mor", 0, 2), -1, "tensor-boundary"),
    (("unit_obj",), 5, "tensor-unit"),
    (("unit_obj",), -1, "tensor-unit"),
])
def test_out_of_range_monoidal_ids_fail_a_named_law(path, value, law):
    obj = json.loads(dumps(monoidal_delooping(Monoid.cyclic(3))))
    _at(obj, path[:-1])[path[-1]] = value
    code, report = _check(obj)
    assert code == 1 and f"FAIL  load: {law}: " in report


@pytest.mark.parametrize("kind, field, entry, law", [
    ("decorated-bicategory", ("bicat", "vcomp"), [5, 0, 0], "vertical-domain"),
    ("decorated-bicategory", ("bicat", "hcomp1"), [0, -1, 0], "horizontal-domain"),
    ("decorated-bicategory", ("bicat", "hcomp2"), [3, 0, 0], "horizontal-domain"),
    ("monoidal-category", ("tensor_obj",), [0, 1, 0], "tensor-totality"),
    ("monoidal-category", ("tensor_mor",), [-1, 0, 0], "tensor-totality"),
])
def test_keys_outside_the_cells_fail_a_named_law(kind, field, entry, law):
    value = _semidirect_dec() if kind == "decorated-bicategory" else monoidal_delooping(Monoid.cyclic(3))
    obj = json.loads(dumps(value))
    _at(obj, field).append(entry)
    code, report = _check(obj)
    assert code == 1 and f"FAIL  load: {law}: " in report
