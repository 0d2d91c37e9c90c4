"""Double categories as table data, the axiom suite, and horizontalization.

A double category is stored as a category of objects ``c0``, a category of
squares ``c1`` (objects of ``c1`` are the horizontal 1-cells, morphisms are
squares, composition is the vertical pasting), source/target functors
``src, tgt: c1 -> c0``, a horizontal identity functor ``hid: c0 -> c1``,
and a single partial horizontal composition table ``hcomp`` covering both
1-cells and squares, keyed by cell kind.

``hcomp[("ob", x, y)]`` is the horizontal composite of 1-cells read left to
right, defined exactly when the right endpoint of ``x`` is the left endpoint
of ``y``.  ``hcomp[("sq", p, q)]`` pastes squares side by side in the same
order, defined exactly when ``tgt(p) == src(q)``.  ``DoubleCategory.hparts``
splits it once into the two tables keyed by ``(x, y)``, which the axiom
suite, horizontalization and the analysis read.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property

from .errors import StructureError
from .fincat import (FiniteCategory, Frozen, FunctorData, associativity_failure, class_rows,
                     interchange_failure, totality_failure, unit_failure)
from .twocat import DecoratedBicategory, StrictBicategory

HKey = tuple[str, int, int]


class DoubleCategory(Frozen):
    _fields = ("c0", "c1", "src", "tgt", "hid", "hcomp")

    def __init__(self, c0: FiniteCategory, c1: FiniteCategory, src: FunctorData, tgt: FunctorData,
                 hid: FunctorData, hcomp: Mapping[HKey, int], validate: bool = True):
        vars(self).update(c0=c0, c1=c1, src=src, tgt=tgt, hid=hid, hcomp=dict(hcomp))
        self.__post_init__(validate)

    def _validate(self):
        for law, ok, witness in check_double_axioms(self):
            if not ok:
                raise StructureError(law, repr(witness))

    @cached_property
    def hparts(self) -> tuple[dict, dict, tuple | None, tuple | None]:
        """``hcomp`` split into its partial operations on 1-cells and on
        squares, keyed by ``(x, y)``, then each one's first key outside its
        cells with "defined" appended, or None; a key of neither kind counts
        against 1-cells.  Built on first use and kept, as ``c1.rows`` is."""
        tables, stray = {"ob": {}, "sq": {}}, {}
        cells = {"ob": range(self.c1.n_objects), "sq": range(self.c1.n_morphisms)}
        for key, w in self.hcomp.items():
            kind, x, y = key
            if kind in tables:
                tables[kind][x, y] = w
                if x in cells[kind] and y in cells[kind]:
                    continue
            stray.setdefault("sq" if kind == "sq" else "ob", key + ("defined",))
        return tables["ob"], tables["sq"], stray.get("ob"), stray.get("sq")

    def hob(self, x: int, y: int) -> int:
        return self.hcomp[("ob", x, y)]

    def hsq(self, p: int, q: int) -> int:
        return self.hcomp[("sq", p, q)]

    # endpoint helpers: the left/right 0-cell of a horizontal 1-cell
    def left0(self, x: int) -> int:
        return self.src.object_map[x]

    def right0(self, x: int) -> int:
        return self.tgt.object_map[x]

    def is_globular(self, p: int) -> bool:
        return self.c0.is_identity(self.src.morphism_map[p]) and \
            self.c0.is_identity(self.tgt.morphism_map[p])


# The laws of check_double_axioms, in report order.
LAWS = (
    "hid-section",
    "hcomp-totality-1cells",
    "hcomp-totality-squares",
    "hcomp-boundary",
    "hcomp-identity",
    "interchange",
    "hcomp-unit",
    "hcomp-associativity",
)


def check_double_axioms(c: DoubleCategory) -> list[tuple[str, bool, tuple | None]]:
    """Run the full strict double-category axiom suite.

    Returns one entry per law: (law name, passed, first counterexample).
    The component categories and the three structure functors validate
    themselves on construction, so the laws here are the ones that relate
    them: the section equations for hid, and everything about horizontal
    composition.  The suite stops after a failed totality or boundary law,
    since the equational laws need every pasting they name to exist.
    """
    c0, c1 = c.c0, c.c1
    report: list[tuple[str, bool, tuple | None]] = []

    def record(law: str, witness: tuple | None):
        report.append((law, witness is None, witness))

    for fun, name in ((c.src, "src"), (c.tgt, "tgt")):
        if fun.source is not c1 and fun.source != c1:
            raise StructureError("wiring", f"{name} is not a functor out of c1")
        if fun.target != c0:
            raise StructureError("wiring", f"{name} does not land in c0")
    if c.hid.source != c0 or c.hid.target != c1:
        raise StructureError("wiring", "hid is not a functor from c0 to c1")

    record("hid-section", next((
        ("object", a) for a in range(c0.n_objects)
        if c.src.object_map[c.hid.object_map[a]] != a or c.tgt.object_map[c.hid.object_map[a]] != a
    ), None) or next((
        ("morphism", f) for f in range(c0.n_morphisms)
        if c.src.morphism_map[c.hid.morphism_map[f]] != f
        or c.tgt.morphism_map[c.hid.morphism_map[f]] != f
    ), None))

    ob, sq, ob_stray, sq_stray = c.hparts
    left0, right0, srcm, tgtm = c.src.object_map, c.tgt.object_map, c.src.morphism_map, c.tgt.morphism_map
    parts = (("ob", "1cells", ob, left0, right0, c.hid.object_map),
             ("sq", "squares", sq, srcm, tgtm, c.hid.morphism_map))
    for (_, name, table, left, right, _), stray in zip(parts, (ob_stray, sq_stray)):
        record(f"hcomp-totality-{name}", totality_failure(table, right, left) or stray)
    if any(not ok for _, ok, _ in report):
        return report

    # a pasting result outside the cells has no boundary, so it fails here
    record("hcomp-boundary", next((
        (x, y) for (x, y), z in ob.items()
        if not 0 <= z < c1.n_objects or left0[z] != left0[x] or right0[z] != right0[y]
    ), None) or next((
        (p, q) for (p, q), r in sq.items()
        if not 0 <= r < c1.n_morphisms or srcm[r] != srcm[p] or tgtm[r] != tgtm[q]
        or c1.dom[r] != ob[(c1.dom[p], c1.dom[q])] or c1.cod[r] != ob[(c1.cod[p], c1.cod[q])]
    ), None))
    if not report[-1][1]:
        return report

    record("hcomp-identity", next((
        (x, y) for (x, y), z in ob.items() if sq[(c1.identity[x], c1.identity[y])] != c1.identity[z]
    ), None))
    # the rows of c1 and of the squares; hcomp-associativity reads the latter too
    rows = c1.rows, class_rows(sq, tgtm, srcm)
    record("interchange", interchange_failure(c1.composition, c1.dom, c1.cod, sq, tgtm, srcm,
                                              (rows[0][1:], rows[1][1:])))
    record("hcomp-unit", next((
        (kind, x) for kind, _, table, left, right, hid in parts
        if (x := unit_failure(table, right, left, hid)) is not None
    ), None))
    record("hcomp-associativity", next((
        (kind, *fail) for kind, _, table, left, right, _ in parts
        if (fail := associativity_failure(table, right, left, table, rows[1] if kind == "sq" else None))
    ), None))
    return report


def globular_squares(c: DoubleCategory) -> set[int]:
    """Squares whose vertical sides are both identity morphisms of c0."""
    return {p for p in range(c.c1.n_morphisms) if c.is_globular(p)}


def horizontalization(c: DoubleCategory) -> StrictBicategory:
    """The bicategory of objects, horizontal 1-cells, and globular squares.

    2-cell identifiers are the globular squares in ascending square order;
    0-cells and 1-cells keep the identifiers of c0-objects and c1-objects.

    Precondition: ``c`` passed ``check_double_axioms``, is a lift of checked
    inputs, or is a closed sub-structure of either.  The bicategory laws of
    the result then follow from the double-category axioms, so it is built
    without running them again.
    """
    glob = sorted(globular_squares(c))
    pos = {p: i for i, p in enumerate(glob)}
    # restrict renumbers glob in ascending order, as pos does, and checks
    # closure only; every table is kept in ascending key order, in which the
    # bicategory laws and check_monoidal_map report their first failure
    v = c.c1.restrict(glob)
    ob, sq, _, _ = c.hparts
    hcomp2 = dict(sorted(((pos[p], pos[q]), pos[r]) for (p, q), r in sq.items() if p in pos and q in pos))
    return StrictBicategory(
        c.c0.n_objects, c.src.object_map, c.tgt.object_map,
        v.dom, v.cod, c.hid.object_map, v.identity, dict(sorted(v.composition.items())),
        dict(sorted(ob.items())), hcomp2, names1=c.c1.object_names, validate=False,
    )


def decorated_horizontalization(c: DoubleCategory) -> DecoratedBicategory:
    return DecoratedBicategory(c.c0, horizontalization(c))


class DoubleFunctor(Frozen):
    _fields = ("f0", "f1")

    def __init__(self, f0: FunctorData, f1: FunctorData):
        vars(self).update(f0=f0, f1=f1)

    def check(self, c: DoubleCategory, d: DoubleCategory) -> None:
        """Exhaustively verify compatibility with src, tgt, hid and hcomp."""
        if self.f0.source != c.c0 or self.f0.target != d.c0:
            raise StructureError("wiring", "f0 is not a functor between the object categories")
        if self.f1.source != c.c1 or self.f1.target != d.c1:
            raise StructureError("wiring", "f1 is not a functor between the square categories")
        for x in range(c.c1.n_objects):
            if d.left0(self.f1.object_map[x]) != self.f0.object_map[c.left0(x)] or \
               d.right0(self.f1.object_map[x]) != self.f0.object_map[c.right0(x)]:
                raise StructureError("double-functor-boundary", f"1-cell {x}")
        for p in range(c.c1.n_morphisms):
            if d.src.morphism_map[self.f1.morphism_map[p]] != self.f0.morphism_map[c.src.morphism_map[p]] or \
               d.tgt.morphism_map[self.f1.morphism_map[p]] != self.f0.morphism_map[c.tgt.morphism_map[p]]:
                raise StructureError("double-functor-boundary", f"square {p}")
        for a in range(c.c0.n_objects):
            if self.f1.object_map[c.hid.object_map[a]] != d.hid.object_map[self.f0.object_map[a]]:
                raise StructureError("double-functor-hid", f"object {a}")
        for f in range(c.c0.n_morphisms):
            if self.f1.morphism_map[c.hid.morphism_map[f]] != d.hid.morphism_map[self.f0.morphism_map[f]]:
                raise StructureError("double-functor-hid", f"morphism {f}")
        for (kind, u, v), w in c.hcomp.items():
            f, cells = (self.f1.object_map, "1-cells") if kind == "ob" else (self.f1.morphism_map, "squares")
            if f[w] != d.hcomp[(kind, f[u], f[v])]:
                raise StructureError("double-functor-hcomp", f"{cells} ({u}, {v})")
