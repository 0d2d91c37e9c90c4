"""Finite strict bicategories (2-categories) and decorations.

Conventions:

* ``vcomp[(q, p)]`` is the vertical composite ``q after p`` (defined when
  the top 1-cell of ``q`` equals the bottom 1-cell of ``p``).
* ``hcomp1[(x, y)]`` is the diagrammatic horizontal composite ``x * y``
  read left to right, defined when ``cod0(x) == dom0(y)``.
* ``hcomp2[(p, q)]`` pastes 2-cells side by side in the same order.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property

from .errors import StructureError
from .fincat import (
    FiniteCategory,
    Frozen,
    StrictMonoidalCategory,
    associativity_failure,
    class_rows,
    interchange_failure,
    totality_failure,
    unit_failure,
)


class StrictBicategory(Frozen):
    _fields = ("n0", "dom0", "cod0", "dom1", "cod1", "id1", "id2", "vcomp", "hcomp1", "hcomp2")

    def __init__(self, n0: int, dom0, cod0, dom1, cod1, id1, id2,
                 vcomp: Mapping[tuple[int, int], int], hcomp1: Mapping[tuple[int, int], int],
                 hcomp2: Mapping[tuple[int, int], int], names1: tuple[str, ...] | None = None,
                 names2: tuple[str, ...] | None = None, validate: bool = True):
        vars(self).update(n0=n0, dom0=tuple(dom0), cod0=tuple(cod0), dom1=tuple(dom1),
                          cod1=tuple(cod1), id1=tuple(id1), id2=tuple(id2), vcomp=dict(vcomp),
                          hcomp1=dict(hcomp1), hcomp2=dict(hcomp2), names1=names1, names2=names2)
        self.__post_init__(validate)

    def _validate(self):
        n0, n1, n2 = self.n0, self.n1, self.n2
        dom0, cod0, dom1, cod1, id1, id2 = self.dom0, self.cod0, self.dom1, self.cod1, self.id1, self.id2
        vcomp, hcomp1, hcomp2 = self.vcomp, self.hcomp1, self.hcomp2
        if len(cod0) != n1 or len(cod1) != n2 or len(id1) != n0 or len(id2) != n1:
            raise StructureError("table-shape", "cell table lengths inconsistent")
        if any(not 0 <= a < n0 for a in dom0 + cod0):
            raise StructureError("boundary-range", "1-cell endpoint outside 0-cells")
        if any(not 0 <= x < n1 for x in dom1 + cod1):
            raise StructureError("boundary-range", "2-cell boundary outside 1-cells")
        for p in range(n2):
            if dom0[dom1[p]] != dom0[cod1[p]] or cod0[dom1[p]] != cod0[cod1[p]]:
                raise StructureError("globe-boundary", f"2-cell {p} between non-parallel 1-cells")
        for a, x in enumerate(id1):
            if not 0 <= x < n1 or dom0[x] != a or cod0[x] != a:
                raise StructureError("identity-boundary", f"id1 of 0-cell {a}")
        for x, p in enumerate(id2):
            if not 0 <= p < n2 or dom1[p] != x or cod1[p] != x:
                raise StructureError("identity-boundary", f"id2 of 1-cell {x}")

        # vertical composition, then horizontal composition of 1-cells and of
        # 2-cells, each a partial operation with its boundaries, identities
        # and the law names and details of its failures
        left, right = [dom0[x] for x in dom1], [cod0[x] for x in dom1]
        parts = (
            ("vertical", "", vcomp, n2, dom1, cod1,
             lambda q, p, r: dom1[r] == dom1[p] and cod1[r] == cod1[q], id2, "vertical-identity", "2-cell"),
            ("horizontal", "1-cells ", hcomp1, n1, cod0, dom0,
             lambda x, y, z: dom0[z] == dom0[x] and cod0[z] == cod0[y], id1, "horizontal-unit", "1-cell"),
            ("horizontal", "2-cells ", hcomp2, n2, right, left,
             lambda p, q, r: dom1[r] == hcomp1[(dom1[p], dom1[q])] and cod1[r] == hcomp1[(cod1[p], cod1[q])],
             [id2[x] for x in id1], "horizontal-unit", "2-cell"),
        )
        for law, cells, table, n, rb, lb, fits, ident, unit_law, cell in parts:
            fail = totality_failure(table, rb, lb)
            if fail:
                kind, text = ("domain", "not composable") if fail[2] == "defined" else ("totality", "missing")
                raise StructureError(f"{law}-{kind}", f"{cells}({fail[0]}, {fail[1]}) {text}")
            for (x, y), v in table.items():
                if not (0 <= x < n and 0 <= y < n):
                    raise StructureError(f"{law}-domain", f"{cells}({x}, {y}) not composable")
                if not 0 <= v < n or not fits(x, y, v):
                    raise StructureError(f"{law}-boundary", f"{cells}({x}, {y}) -> {v}")
            x = unit_failure(table, rb, lb, ident)
            if x is not None:
                raise StructureError(unit_law, f"{cell} {x}")
            if table is vcomp:
                # (r q) p = r (q p) has its free 2-cell r on the left, so the
                # kernel runs on the opposite operation, where it is on the right
                fail = associativity_failure({(p, q): v for (q, p), v in vcomp.items()}, cod1, dom1,
                                             [(p, q) for q, p in vcomp])
                if fail:
                    raise StructureError("vertical-associativity", str(fail[::-1]))
            else:
                rows = class_rows(table, rb, lb)
                fail = associativity_failure(table, rb, lb, table, rows)
                if fail:
                    raise StructureError("horizontal-associativity", f"{cells}{fail}")
        for (x, y), z in hcomp1.items():
            if hcomp2[(id2[x], id2[y])] != id2[z]:
                raise StructureError("horizontal-identity", f"id2 tensor at ({x}, {y})")

        # interchange (exchange law), on vcomp's rows and hcomp2's, the last part, without their classes
        rows = class_rows(vcomp, dom1, cod1)[1:], rows[1:]
        fail = interchange_failure(vcomp, dom1, cod1, hcomp2, right, left, rows)
        if fail:
            raise StructureError("interchange", str((fail[:2], fail[2:])))

    @property
    def n1(self) -> int:
        return len(self.dom0)

    @property
    def n2(self) -> int:
        return len(self.dom1)

    def is_endo_1cell(self, x: int) -> bool:
        return self.dom0[x] == self.cod0[x]

    def cells2_between(self, x: int, y: int) -> list[int]:
        return [p for p in range(self.n2) if self.dom1[p] == x and self.cod1[p] == y]

    @cached_property
    def endo_cells(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """Per 0-cell ``a``: the endo 1-cells at ``a`` and the 2-cells
        between them, both ascending.  These are the objects and morphisms
        of End_B(a)."""
        cells1: list[list[int]] = [[] for _ in range(self.n0)]
        cells2: list[list[int]] = [[] for _ in range(self.n0)]
        for x in range(self.n1):
            if self.is_endo_1cell(x):
                cells1[self.dom0[x]].append(x)
        for p in range(self.n2):
            if self.is_endo_1cell(self.dom1[p]):
                cells2[self.dom0[self.dom1[p]]].append(p)
        return tuple((tuple(c1), tuple(c2)) for c1, c2 in zip(cells1, cells2))

    def identity_maps(self, cells0) -> tuple[tuple[dict[int, int], ...], tuple[dict[int, int], ...]]:
        """For each 0-cell of the sequence ``cells0``, the identity map on its
        endo 1-cells and the one on their 2-cells, gathered in two tuples."""
        return (tuple({x: x for x in self.endo_cells[a][0]} for a in cells0),
                tuple({p: p for p in self.endo_cells[a][1]} for a in cells0))


def check_monoidal_map(b: StrictBicategory, a: int, c: int, m1: Mapping[int, int],
                       m2: Mapping[int, int], law: str, where: str,
                       domain: tuple[str, str]) -> None:
    """Raise unless ``m1`` (on 1-cells) and ``m2`` (on 2-cells) form a strict
    monoidal functor End_B(a) -> End_B(c).

    The end categories are read off the cells of ``b``, which has passed its
    own laws, so only the map is checked.  Law names are ``law`` plus a
    suffix and details start with ``where``; keys or values outside the end
    categories raise ``domain[0]`` with detail "1-cell " or "2-cell "
    followed by ``domain[1]``.
    """
    (src1, src2), (tgt1, tgt2) = b.endo_cells[a], b.endo_cells[c]
    if m1.keys() != set(src1) or not set(m1.values()) <= set(tgt1):
        raise StructureError(domain[0], f"1-cell {domain[1]}")
    if m2.keys() != set(src2) or not set(m2.values()) <= set(tgt2):
        raise StructureError(domain[0], f"2-cell {domain[1]}")
    for p in src2:
        if b.dom1[m2[p]] != m1[b.dom1[p]] or b.cod1[m2[p]] != m1[b.cod1[p]]:
            raise StructureError(f"{law}-boundary", f"{where}, 2-cell {p}")
    for x in src1:
        if m2[b.id2[x]] != b.id2[m1[x]]:
            raise StructureError(f"{law}-identity", f"{where}, 1-cell {x}")
    for (q, p), r in b.vcomp.items():
        if q in m2 and p in m2 and m2[r] != b.vcomp[(m2[q], m2[p])]:
            raise StructureError(f"{law}-composition", f"{where}, ({q}, {p})")
    if m1[b.id1[a]] != b.id1[c]:
        raise StructureError(f"{law}-monoidal-unit", where)
    for cells, m, table, name in ((src1, m1, b.hcomp1, "1-cells"), (src2, m2, b.hcomp2, "2-cells")):
        for x in cells:
            for y in cells:
                if m[table[(x, y)]] != table[(m[x], m[y])]:
                    raise StructureError(f"{law}-monoidal", f"{where}, {name} ({x}, {y})")


def suspend(d: StrictMonoidalCategory) -> StrictBicategory:
    """The one-object bicategory whose endomorphism category is ``d``.

    ``d`` is a checked monoidal category whose base satisfies the category
    laws (it has passed them, or inherited them).  The vertical, horizontal
    and interchange laws of the result are exactly d's composition, tensor
    and interchange laws, so they are not checked again.
    """
    base = d.base
    n1 = base.n_objects
    return StrictBicategory(
        1,
        (0,) * n1, (0,) * n1,
        base.dom, base.cod,
        (d.unit_obj,), base.identity,
        base.composition, d.tensor_obj, d.tensor_mor,
        names1=base.object_names, names2=base.morphism_names, validate=False,
    )


class DecoratedBicategory(Frozen):
    _fields = ("decoration", "bicat")

    def __init__(self, decoration: FiniteCategory, bicat: StrictBicategory):
        if decoration.n_objects != bicat.n0:
            raise StructureError(
                "decoration-mismatch",
                f"{decoration.n_objects} decoration objects vs {bicat.n0} 0-cells",
            )
        vars(self).update(decoration=decoration, bicat=bicat)


def decorate(bstar: FiniteCategory, b: StrictBicategory) -> DecoratedBicategory:
    return DecoratedBicategory(bstar, b)
