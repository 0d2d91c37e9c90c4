"""Canonical JSON serialization for every structure kind.

Every file is a JSON object with a top-level "kind" tag.  Composition and
tensor tables are stored as arrays of [lhs, rhs, result] rows sorted
lexicographically, and dumps always emits sorted keys, so the canonical
form of a value is unique and round-trips byte for byte.

``KINDS`` declares each kind's class and fields once; writing, the schema
check and reading all follow it.  ``dumps`` writes the text itself, in the
layout of ``json.dumps(obj, sort_keys=True, indent=2)``: every row of a
table is one %-template, and every string goes through json's C escaper.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from json.encoder import encode_basestring_ascii
from operator import add

from .doublecat import DoubleCategory
from .errors import StructureError
from .fincat import FiniteCategory, FunctorData, Monoid, StrictMonoidalCategory
from .grothendieck import Precosheaf
from .twocat import DecoratedBicategory, StrictBicategory

# Field shapes: int and str are leaves, [t] is a list of t, (t, u, ...) a
# list of exactly those entries, and a kind name a nested object of that
# kind.  The shapes below are compared by identity, since each is stored in
# a different form: a table as sorted [lhs, rhs, result] rows, a map as
# sorted [key, value] pairs, a functor as its object and morphism maps, and
# the horizontal composition as sorted [kind, lhs, rhs, result] entries.
TABLE = [(int, int, int)]
MAPPING = [(int, int)]
FUNCTOR = ([int], [int])
HCOMP = [(str, int, int, int)]
NAMES = [str]  # optional: omitted when empty

KINDS = {
    "monoid": (Monoid, {"table": [[int]], "unit": int, "names": NAMES}),
    "category": (FiniteCategory, {
        "n_objects": int, "dom": [int], "cod": [int], "identity": [int], "composition": TABLE,
        "object_names": NAMES, "morphism_names": NAMES}),
    "monoidal-category": (StrictMonoidalCategory, {
        "base": "category", "unit_obj": int, "tensor_obj": TABLE, "tensor_mor": TABLE}),
    "bicategory": (StrictBicategory, {
        "n0": int, "dom0": [int], "cod0": [int], "dom1": [int], "cod1": [int], "id1": [int],
        "id2": [int], "vcomp": TABLE, "hcomp1": TABLE, "hcomp2": TABLE,
        "names1": NAMES, "names2": NAMES}),
    "decorated-bicategory": (DecoratedBicategory, {"decoration": "category", "bicat": "bicategory"}),
    "precosheaf": (Precosheaf, {
        "dec": "decorated-bicategory", "on_cells1": [MAPPING], "on_cells2": [MAPPING]}),
    "double-category": (DoubleCategory, {
        "c0": "category", "c1": "category", "src": FUNCTOR, "tgt": FUNCTOR, "hid": FUNCTOR,
        "hcomp": HCOMP}),
}


def _list(items, ind: str) -> str:
    """A JSON array of items already written, its brackets at indent ``ind``."""
    inner = ind + "  "
    body = (",\n" + inner).join(items)
    return "[\n" + inner + body + "\n" + ind + "]" if body else "[]"


def _rows(table: dict, row_shape: tuple, ind: str) -> str:
    """A table keyed by a leaf or by a tuple of leaves, as its sorted
    [key..., value] rows, each written by one %-template; str leaves are
    encoded first."""
    if len(row_shape) == 2:
        rows = sorted(table.items())
    else:
        rows = sorted(map(add, table, zip(table.values())))
    if str in row_shape and rows:
        rows = zip(*(col if leaf is int else map(encode_basestring_ascii, col)
                     for leaf, col in zip(row_shape, zip(*rows))))
    row = _list(["%d" if leaf is int else "%s" for leaf in row_shape], ind + "  ")
    return _list(map(row.__mod__, rows), ind)


_LEAF = {int: int.__repr__, str: encode_basestring_ascii}


def _write(value, shape, ind: str) -> str:
    """The canonical JSON of a value of the given field shape, its first
    line at indent ``ind``."""
    if isinstance(shape, str):
        return _object(value, ind)
    if shape in (int, str):
        return _LEAF[shape](value)
    inner = ind + "  "
    if shape is FUNCTOR:
        return _list((_write(value.object_map, [int], inner),
                      _write(value.morphism_map, [int], inner)), ind)
    item = shape[0]
    if isinstance(item, tuple):
        return _rows(value, item, ind)
    if item in (int, str):
        return _list(map(_LEAF[item], value), ind)
    return _list([_write(x, item, inner) for x in value], ind)


def _object(value, ind: str) -> str:
    """The canonical JSON of a structure of any kind in ``KINDS``."""
    for kind, (cls, fields) in KINDS.items():
        if isinstance(value, cls):
            inner = ind + "  "
            out = {"kind": encode_basestring_ascii(kind)}
            for key, shape in fields.items():
                field = getattr(value, key)
                if shape is not NAMES or field:
                    out[key] = _write(field, shape, inner)
            return "{\n" + inner + (",\n" + inner).join(
                map('"%s": %s'.__mod__, sorted(out.items()))) + "\n" + ind + "}"
    raise StructureError("unknown-kind", type(value).__name__)


def _check_schema(value, shape, path: str) -> None:
    """Raise StructureError("schema", <json path>) at the first missing key
    or value of the wrong JSON type; bools are not integers."""
    if isinstance(shape, str):
        if not isinstance(value, dict) or value.get("kind") != shape:
            raise StructureError("schema", f"{path}: expected a {shape} object")
        for key, sub in KINDS[shape][1].items():
            if key in value:
                _check_schema(value[key], sub, f"{path}.{key}")
            elif sub is not NAMES:
                raise StructureError("schema", f"{path}.{key}: missing")
    elif shape in (int, str):
        if type(value) is not shape:
            raise StructureError("schema", f"{path}: expected {'an integer' if shape is int else 'a string'}")
    elif not isinstance(value, list):
        raise StructureError("schema", f"{path}: expected a list")
    elif isinstance(shape, tuple) and len(value) != len(shape):
        raise StructureError("schema", f"{path}: expected {len(shape)} entries")
    elif not _leaves_fit(value, shape):
        for i, item in enumerate(value):
            sub = shape[i] if isinstance(shape, tuple) else shape[0]
            if type(item) is not sub:  # a matching leaf needs no call
                _check_schema(item, sub, f"{path}[{i}]")


def _leaves_fit(value: list, shape) -> bool:
    """Whether a list of leaves, or of rows of leaves, the bulk of a file,
    has its field shape, decided by C-level passes over its items, their
    lengths and their entries.  Any other list is walked item by item."""
    item = shape[0] if isinstance(shape, list) else None
    if item in (int, str):
        return set(map(type, value)) <= {item}
    rows = isinstance(item, tuple) and set(map(type, value)) <= {list} and set(map(len, value)) <= {len(item)}
    return rows and list(map(type, itertools.chain.from_iterable(value))) == list(item) * len(value)


def _structure(value, kind: str, seen: list):
    """Build a structure of ``kind`` from a value that has passed
    _check_schema, and record both in ``seen``."""
    cls, fields = KINDS[kind]
    args = [_decode(value[key], sub, seen) if key in value else None for key, sub in fields.items()]
    if cls is DoubleCategory:
        c0, c1, src, tgt, hid, hcomp = args
        args = [c0, c1, FunctorData(c1, c0, *src), FunctorData(c1, c0, *tgt),
                FunctorData(c0, c1, *hid), hcomp]
    structure = cls(*args)
    seen.append((value, structure))
    return structure


def _decode(value, shape, seen: list):
    """Read a field value that has passed _check_schema.  A nested
    structure whose JSON is recorded in ``seen`` has passed its laws, and
    is reused.  A table whose rows repeat a key fails ``schema``."""
    if isinstance(shape, str):
        reused = [structure for prior, structure in seen if prior == value]
        return reused[0] if reused else _structure(value, shape, seen)
    if shape is TABLE:
        table = {(a, b): v for a, b, v in value}
    elif shape is MAPPING:
        table = {k: v for k, v in value}
    elif shape is HCOMP:
        table = {(kind, u, v): w for kind, u, v, w in value}
    elif shape in ([int], NAMES):
        return tuple(value)
    elif isinstance(shape, (list, tuple)):
        return tuple(_decode(x, shape[0] if isinstance(shape, list) else shape[i], seen)
                     for i, x in enumerate(value))
    else:
        return value
    if len(table) != len(value):
        keys = Counter(json.dumps(row[:-1]) for row in value)
        raise StructureError("schema", "repeated key " + next(k for k, n in keys.items() if n > 1))
    return table


def dumps(value) -> str:
    return _object(value, "") + "\n"


def loads(text: str, seen: list | None = None):
    """The structure a JSON text describes.  ``seen`` records the structures
    read so far; the loads of one command share it, so that a structure
    embedded in several files is checked once."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError("parse-error", f"line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except (ValueError, RecursionError) as exc:  # nesting or an integer too large to parse
        raise StructureError("parse-error", str(exc))
    if not isinstance(obj, dict):
        raise StructureError("parse-error", "top level must be an object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise StructureError("unknown-kind", repr(kind))
    _check_schema(obj, kind, "$")
    return _structure(obj, kind, [] if seen is None else seen)


def dump(value, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(value))


def load(path: str, seen: list | None = None):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise StructureError("parse-error", f"not UTF-8: {exc.reason} at byte {exc.start}")
    return loads(text, seen)
