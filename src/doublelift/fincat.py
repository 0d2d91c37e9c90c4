"""Finite monoids, categories, functors and strict monoidal categories.

Everything is table-backed and validated exhaustively at construction time.
Identifiers are dense integers starting at 0; optional names are metadata
only and never take part in equality.

Composition conventions used throughout the package:

* ``Monoid.mul(x, y)`` is the product ``x * y``.
* ``FiniteCategory.composition[(g, f)]`` is ``g after f`` and is defined
  exactly when ``cod(f) == dom(g)``.
* ``StrictMonoidalCategory.tensor_obj[(a, b)]`` is ``a (x) b``.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional

from .errors import StructureError

if TYPE_CHECKING:  # pragma: no cover
    from .twocat import StrictBicategory


def _raise_first(violations: list[tuple[str, str]]) -> None:
    if violations:
        law, detail = violations[0]
        raise StructureError(law, detail)


# ---------------------------------------------------------------------------
# monoids


def monoid_violations(table, unit) -> list[tuple[str, str]]:
    """Check a multiplication table against the monoid laws."""
    out: list[tuple[str, str]] = []
    n = len(table)
    if not (0 <= unit < n):
        return [("unit-range", f"unit {unit} outside [0, {n})")]
    for x, row in enumerate(table):
        if len(row) != n:
            return [("table-shape", f"row {x} has length {len(row)}, expected {n}")]
        for y, v in enumerate(row):
            if not (0 <= v < n):
                return [("table-range", f"table[{x}][{y}] = {v} outside [0, {n})")]
    for x in range(n):
        if table[unit][x] != x or table[x][unit] != x:
            out.append(("unit-law", f"unit fails at element {x}"))
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    out.append(("associativity", f"({x}, {y}, {z})"))
    return out


@dataclass(frozen=True)
class Monoid:
    table: tuple[tuple[int, ...], ...]
    unit: int = 0
    names: Optional[tuple[str, ...]] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "table", tuple(tuple(row) for row in self.table))
        _raise_first(monoid_violations(self.table, self.unit))

    @property
    def size(self) -> int:
        return len(self.table)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    @property
    def is_commutative(self) -> bool:
        n = self.size
        return all(self.table[x][y] == self.table[y][x] for x in range(n) for y in range(n))

    def is_group(self) -> bool:
        return all(self._has_inverse(x) for x in range(self.size))

    def _has_inverse(self, x: int) -> bool:
        return any(
            self.table[x][y] == self.unit and self.table[y][x] == self.unit
            for y in range(self.size)
        )

    def inverse(self, x: int) -> int:
        for y in range(self.size):
            if self.table[x][y] == self.unit and self.table[y][x] == self.unit:
                return y
        raise StructureError("not-invertible", f"element {x} has no inverse")

    def element_order(self, x: int) -> int:
        k, acc = 1, x
        while acc != self.unit:
            acc = self.table[acc][x]
            k += 1
            if k > self.size + 1:
                return 0  # not of finite order through the unit (non-group monoid)
        return k

    @staticmethod
    def cyclic(n: int) -> "Monoid":
        """Z_n written additively, unit 0."""
        table = tuple(tuple((x + y) % n for y in range(n)) for x in range(n))
        names = tuple(str(x) for x in range(n))
        return Monoid(table, 0, names)

    @staticmethod
    def trivial() -> "Monoid":
        return Monoid(((0,),), 0, ("e",))

    @staticmethod
    def flag() -> "Monoid":
        """{1, 0} under multiplication: the smallest monoid with a non-unit
        idempotent and no non-trivial invertibles."""
        return Monoid(((0, 1), (1, 1)), 0, ("1", "0"))


def monoid_morphism_violations(src: Monoid, tgt: Monoid, mapping) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    if len(mapping) != src.size:
        return [("map-shape", f"expected {src.size} entries, got {len(mapping)}")]
    if any(not (0 <= v < tgt.size) for v in mapping):
        return [("map-range", "value outside target")]
    if mapping[src.unit] != tgt.unit:
        out.append(("unit-preservation", f"unit maps to {mapping[src.unit]}"))
    for x in range(src.size):
        for y in range(src.size):
            if mapping[src.mul(x, y)] != tgt.mul(mapping[x], mapping[y]):
                out.append(("product-preservation", f"({x}, {y})"))
    return out


@dataclass(frozen=True)
class MonoidMorphism:
    source: Monoid
    target: Monoid
    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(self.mapping))
        _raise_first(monoid_morphism_violations(self.source, self.target, self.mapping))

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def compose(self, other: "MonoidMorphism") -> "MonoidMorphism":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise StructureError("composition-mismatch", "morphism targets do not line up")
        return MonoidMorphism(other.source, self.target, tuple(self.mapping[v] for v in other.mapping))


@dataclass(frozen=True)
class MonoidAction:
    """A monoid morphism from ``acting`` into the endomorphism monoid of
    ``target``, stored as an element-indexed family of endomorphism tables."""

    acting: Monoid
    target: Monoid
    maps: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(tuple(m) for m in self.maps))
        if len(self.maps) != self.acting.size:
            raise StructureError("action-shape", f"expected {self.acting.size} endomorphisms")
        for m, f in enumerate(self.maps):
            _raise_first(
                [(f"action-endomorphism[{m}].{law}", d)
                 for law, d in monoid_morphism_violations(self.target, self.target, f)]
            )
        ident = tuple(range(self.target.size))
        if self.maps[self.acting.unit] != ident:
            raise StructureError("action-unit", "unit does not act as identity")
        for m1 in range(self.acting.size):
            for m2 in range(self.acting.size):
                composite = tuple(self.maps[m1][self.maps[m2][x]] for x in range(self.target.size))
                if self.maps[self.acting.mul(m1, m2)] != composite:
                    raise StructureError("action-functoriality", f"({m1}, {m2})")

    def apply(self, m: int, x: int) -> int:
        return self.maps[m][x]

    @staticmethod
    def trivial(acting: Monoid, target: Monoid) -> "MonoidAction":
        ident = tuple(range(target.size))
        return MonoidAction(acting, target, tuple(ident for _ in range(acting.size)))

    @staticmethod
    def inversion(target: Monoid) -> "MonoidAction":
        """Z_2 acting on an abelian group by taking inverses."""
        if not target.is_commutative:
            raise StructureError("action-precondition", "inversion needs a commutative group")
        inv = tuple(target.inverse(x) for x in range(target.size))
        z2 = Monoid.cyclic(2)
        return MonoidAction(z2, target, (tuple(range(target.size)), inv))


def monoid_endomorphisms(m: Monoid) -> list[tuple[int, ...]]:
    """All endomorphisms of ``m``, by brute force. Fine for |m| <= 6."""
    out = []
    for candidate in itertools.product(range(m.size), repeat=m.size):
        if candidate[m.unit] != m.unit:
            continue
        if all(candidate[m.mul(x, y)] == m.mul(candidate[x], candidate[y])
               for x in range(m.size) for y in range(m.size)):
            out.append(candidate)
    return out


def monoid_automorphisms(m: Monoid) -> list[tuple[int, ...]]:
    return [f for f in monoid_endomorphisms(m) if len(set(f)) == m.size]


def enumerate_actions(acting: Monoid, target: Monoid) -> list[MonoidAction]:
    """Every monoid morphism acting -> End(target), as MonoidAction values."""
    endos = monoid_endomorphisms(target)
    index = {f: i for i, f in enumerate(endos)}
    ident = tuple(range(target.size))
    out = []
    for assignment in itertools.product(range(len(endos)), repeat=acting.size):
        if endos[assignment[acting.unit]] != ident:
            continue
        ok = True
        for m1 in range(acting.size):
            for m2 in range(acting.size):
                f1, f2 = endos[assignment[m1]], endos[assignment[m2]]
                comp = tuple(f1[f2[x]] for x in range(target.size))
                if assignment[acting.mul(m1, m2)] != index.get(comp, -1):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(MonoidAction(acting, target, tuple(endos[i] for i in assignment)))
    return out


def monoid_isomorphism(a: Monoid, b: Monoid) -> Optional[tuple[int, ...]]:
    """Exhaustive isomorphism search with order-profile pruning."""
    if a.size != b.size:
        return None
    prof_a = [a.element_order(x) for x in range(a.size)]
    prof_b = [b.element_order(x) for x in range(b.size)]
    if sorted(prof_a) != sorted(prof_b):
        return None
    candidates = [[y for y in range(b.size) if prof_b[y] == prof_a[x]] for x in range(a.size)]

    mapping: list[int] = [-1] * a.size
    used = [False] * b.size

    def extend(x: int) -> bool:
        if x == a.size:
            return True
        for y in candidates[x]:
            if used[y]:
                continue
            mapping[x] = y
            used[y] = True
            consistent = True
            for u in range(x + 1):
                if mapping[u] < 0:
                    continue
                for v in range(x + 1):
                    if mapping[v] < 0:
                        continue
                    w = a.mul(u, v)
                    if mapping[w] >= 0 and b.mul(mapping[u], mapping[v]) != mapping[w]:
                        consistent = False
                        break
                if not consistent:
                    break
            if consistent and mapping[a.unit] in (b.unit, -1):
                if extend(x + 1):
                    return True
            used[y] = False
            mapping[x] = -1
        return False

    if extend(0):
        return tuple(mapping)
    return None


# ---------------------------------------------------------------------------
# finite categories


def category_violations(n_objects, dom, cod, identity, composition) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    n_mor = len(dom)
    if len(cod) != n_mor:
        return [("table-shape", "dom/cod length mismatch")]
    if len(identity) != n_objects:
        return [("table-shape", f"expected {n_objects} identity entries")]
    if any(not (0 <= d < n_objects) for d in dom) or any(not (0 <= c < n_objects) for c in cod):
        return [("boundary-range", "dom/cod outside object range")]
    for a, i in enumerate(identity):
        if not (0 <= i < n_mor) or dom[i] != a or cod[i] != a:
            out.append(("identity-boundary", f"identity of object {a}"))
    for (g, f), h in composition.items():
        if not (0 <= g < n_mor and 0 <= f < n_mor and 0 <= h < n_mor):
            return [("composition-range", f"entry ({g}, {f})")]
        if cod[f] != dom[g]:
            out.append(("composition-domain", f"({g}, {f}) not composable"))
        elif dom[h] != dom[f] or cod[h] != cod[g]:
            out.append(("composite-boundary", f"({g}, {f}) -> {h}"))
    for g in range(n_mor):
        for f in range(n_mor):
            if cod[f] == dom[g] and (g, f) not in composition:
                out.append(("composition-totality", f"({g}, {f}) missing"))
    if out:
        return out
    for f in range(n_mor):
        if composition[(f, identity[dom[f]])] != f or composition[(identity[cod[f]], f)] != f:
            out.append(("identity-law", f"morphism {f}"))
    for h in range(n_mor):
        for g in range(n_mor):
            if cod[g] != dom[h]:
                continue
            for f in range(n_mor):
                if cod[f] != dom[g]:
                    continue
                if composition[(composition[(h, g)], f)] != composition[(h, composition[(g, f)])]:
                    out.append(("associativity", f"({h}, {g}, {f})"))
    return out


@dataclass(frozen=True)
class FiniteCategory:
    n_objects: int
    dom: tuple[int, ...]
    cod: tuple[int, ...]
    identity: tuple[int, ...]
    composition: Mapping[tuple[int, int], int]
    object_names: Optional[tuple[str, ...]] = field(default=None, compare=False)
    morphism_names: Optional[tuple[str, ...]] = field(default=None, compare=False)
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        object.__setattr__(self, "dom", tuple(self.dom))
        object.__setattr__(self, "cod", tuple(self.cod))
        object.__setattr__(self, "identity", tuple(self.identity))
        object.__setattr__(self, "composition", dict(self.composition))
        if validate:
            _raise_first(category_violations(
                self.n_objects, self.dom, self.cod, self.identity, self.composition))

    @property
    def n_morphisms(self) -> int:
        return len(self.dom)

    def compose(self, g: int, f: int) -> int:
        """g after f."""
        return self.composition[(g, f)]

    def hom(self, a: int, b: int) -> list[int]:
        return [f for f in range(self.n_morphisms) if self.dom[f] == a and self.cod[f] == b]

    def is_identity(self, f: int) -> bool:
        return self.identity[self.dom[f]] == f

    def restrict(self, morphisms) -> "FiniteCategory":
        """The wide subcategory on ``morphisms``, renumbered in ascending order.

        A subcategory of a valid category inherits every category law, so
        only closure is checked: every identity is kept, and so is every
        composite of kept morphisms.
        """
        ids = sorted(morphisms)
        if ids and not (0 <= ids[0] and ids[-1] < self.n_morphisms):
            raise StructureError("restriction-closure", "morphism outside the category")
        pos = {f: i for i, f in enumerate(ids)}
        for a, i in enumerate(self.identity):
            if i not in pos:
                raise StructureError("restriction-closure", f"identity of object {a} dropped")
        comp = {}
        for (g, f), h in self.composition.items():
            if g in pos and f in pos:
                if h not in pos:
                    raise StructureError("restriction-closure", f"({g}, {f}) -> {h} dropped")
                comp[(pos[g], pos[f])] = pos[h]
        return FiniteCategory(
            self.n_objects, tuple(self.dom[f] for f in ids), tuple(self.cod[f] for f in ids),
            tuple(pos[i] for i in self.identity), comp, self.object_names, validate=False,
        )

    @staticmethod
    def discrete(n: int) -> "FiniteCategory":
        return FiniteCategory(
            n, tuple(range(n)), tuple(range(n)), tuple(range(n)),
            {(i, i): i for i in range(n)},
        )


def delooping(m: Monoid) -> FiniteCategory:
    """The one-object category whose endomorphisms are ``m``."""
    comp = {(g, f): m.mul(g, f) for g in range(m.size) for f in range(m.size)}
    return FiniteCategory(
        1, (0,) * m.size, (0,) * m.size, (m.unit,), comp,
        object_names=("*",), morphism_names=m.names,
    )


def endomorphism_monoid_of_object(cat: FiniteCategory, obj: int) -> tuple[Monoid, tuple[int, ...]]:
    """The endomorphism monoid of ``obj`` plus the morphism id of each element."""
    elements = tuple(cat.hom(obj, obj))
    pos = {f: i for i, f in enumerate(elements)}
    table = tuple(
        tuple(pos[cat.compose(x, y)] for y in elements) for x in elements
    )
    return Monoid(table, pos[cat.identity[obj]]), elements


# ---------------------------------------------------------------------------
# functors


def functor_violations(source: FiniteCategory, target: FiniteCategory,
                       object_map, morphism_map) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    if len(object_map) != source.n_objects or len(morphism_map) != source.n_morphisms:
        return [("map-shape", "object/morphism map length mismatch")]
    if any(not (0 <= a < target.n_objects) for a in object_map):
        return [("map-range", "object map outside target")]
    if any(not (0 <= f < target.n_morphisms) for f in morphism_map):
        return [("map-range", "morphism map outside target")]
    for f in range(source.n_morphisms):
        if target.dom[morphism_map[f]] != object_map[source.dom[f]] or \
           target.cod[morphism_map[f]] != object_map[source.cod[f]]:
            out.append(("boundary-preservation", f"morphism {f}"))
    for a in range(source.n_objects):
        if morphism_map[source.identity[a]] != target.identity[object_map[a]]:
            out.append(("identity-preservation", f"object {a}"))
    if out:
        return out
    for (g, f), h in source.composition.items():
        if target.compose(morphism_map[g], morphism_map[f]) != morphism_map[h]:
            out.append(("composition-preservation", f"({g}, {f})"))
    return out


@dataclass(frozen=True)
class FunctorData:
    source: FiniteCategory
    target: FiniteCategory
    object_map: tuple[int, ...]
    morphism_map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "object_map", tuple(self.object_map))
        object.__setattr__(self, "morphism_map", tuple(self.morphism_map))
        _raise_first(
            functor_violations(self.source, self.target, self.object_map, self.morphism_map)
        )

    @staticmethod
    def identity(cat: FiniteCategory) -> "FunctorData":
        return FunctorData(cat, cat, tuple(range(cat.n_objects)), tuple(range(cat.n_morphisms)))

    def compose(self, other: "FunctorData") -> "FunctorData":
        """self after other."""
        return FunctorData(
            other.source, self.target,
            tuple(self.object_map[a] for a in other.object_map),
            tuple(self.morphism_map[f] for f in other.morphism_map),
        )


# ---------------------------------------------------------------------------
# strict monoidal categories


def monoidal_violations(base: FiniteCategory, unit_obj, tensor_obj, tensor_mor) -> list[tuple[str, str]]:
    out: list[tuple[str, str]] = []
    n_obj, n_mor = base.n_objects, base.n_morphisms
    for a in range(n_obj):
        for b in range(n_obj):
            if (a, b) not in tensor_obj:
                return [("tensor-totality", f"objects ({a}, {b})")]
    for f in range(n_mor):
        for g in range(n_mor):
            if (f, g) not in tensor_mor:
                return [("tensor-totality", f"morphisms ({f}, {g})")]
    for f in range(n_mor):
        for g in range(n_mor):
            h = tensor_mor[(f, g)]
            if base.dom[h] != tensor_obj[(base.dom[f], base.dom[g])] or \
               base.cod[h] != tensor_obj[(base.cod[f], base.cod[g])]:
                out.append(("tensor-boundary", f"({f}, {g})"))
    if out:
        return out
    for a in range(n_obj):
        if tensor_obj[(unit_obj, a)] != a or tensor_obj[(a, unit_obj)] != a:
            out.append(("tensor-unit", f"object {a}"))
    for f in range(n_mor):
        iu = base.identity[unit_obj]
        if tensor_mor[(iu, f)] != f or tensor_mor[(f, iu)] != f:
            out.append(("tensor-unit", f"morphism {f}"))
    for a in range(n_obj):
        for b in range(n_obj):
            for c in range(n_obj):
                if tensor_obj[(tensor_obj[(a, b)], c)] != tensor_obj[(a, tensor_obj[(b, c)])]:
                    out.append(("tensor-associativity", f"objects ({a}, {b}, {c})"))
    for f in range(n_mor):
        for g in range(n_mor):
            for h in range(n_mor):
                if tensor_mor[(tensor_mor[(f, g)], h)] != tensor_mor[(f, tensor_mor[(g, h)])]:
                    out.append(("tensor-associativity", f"morphisms ({f}, {g}, {h})"))
                    break
    for a in range(n_obj):
        for b in range(n_obj):
            if tensor_mor[(base.identity[a], base.identity[b])] != base.identity[tensor_obj[(a, b)]]:
                out.append(("tensor-identity", f"({a}, {b})"))
    # interchange: (g (x) g') o (f (x) f') = (g o f) (x) (g' o f')
    for (g, f) in base.composition:
        for (g2, f2) in base.composition:
            lhs = base.compose(tensor_mor[(g, g2)], tensor_mor[(f, f2)])
            rhs = tensor_mor[(base.compose(g, f), base.compose(g2, f2))]
            if lhs != rhs:
                out.append(("interchange", f"(({g}, {f}), ({g2}, {f2}))"))
    return out


@dataclass(frozen=True)
class StrictMonoidalCategory:
    base: FiniteCategory
    unit_obj: int
    tensor_obj: Mapping[tuple[int, int], int]
    tensor_mor: Mapping[tuple[int, int], int]

    def __post_init__(self):
        object.__setattr__(self, "tensor_obj", dict(self.tensor_obj))
        object.__setattr__(self, "tensor_mor", dict(self.tensor_mor))
        _raise_first(monoidal_violations(self.base, self.unit_obj, self.tensor_obj, self.tensor_mor))


def monoidal_delooping(m: Monoid) -> StrictMonoidalCategory:
    """Delooping of a commutative monoid with tensor given by the product.

    Eckmann-Hilton: the delooping of a non-commutative monoid carries no
    strict monoidal structure with tensor = product, so we reject it.
    """
    if not m.is_commutative:
        raise StructureError("eckmann-hilton", "monoid must be commutative")
    base = delooping(m)
    tensor_mor = {(f, g): m.mul(f, g) for f in range(m.size) for g in range(m.size)}
    return StrictMonoidalCategory(base, 0, {(0, 0): 0}, tensor_mor)


def semidirect_product(n: Monoid, m: Monoid, action: MonoidAction) -> Monoid:
    """N x| M with product (n', m') * (n, m) = (n' * phi_{m'}(n), m' * m).

    Element (x, y) gets identifier x * |M| + y.
    """
    if not n.is_commutative:
        raise StructureError("semidirect-precondition", "N must be commutative")
    if action.acting != m or action.target != n:
        raise StructureError("semidirect-precondition", "action must be M acting on N")
    size = n.size * m.size

    def enc(x: int, y: int) -> int:
        return x * m.size + y

    table = [[0] * size for _ in range(size)]
    for x1 in range(n.size):
        for y1 in range(m.size):
            for x2 in range(n.size):
                for y2 in range(m.size):
                    px = n.mul(x1, action.apply(y1, x2))
                    py = m.mul(y1, y2)
                    table[enc(x1, y1)][enc(x2, y2)] = enc(px, py)
    names = None
    if n.names and m.names:
        names = tuple(f"({n.names[x]}, {m.names[y]})" for x in range(n.size) for y in range(m.size))
    return Monoid(tuple(tuple(row) for row in table), enc(n.unit, m.unit), names)


# ---------------------------------------------------------------------------
# endomorphism categories of bicategories


@dataclass(frozen=True)
class EndData:
    """End_B(a) together with the bicategory cells its indices come from."""

    cat: StrictMonoidalCategory
    objects_as_cells1: tuple[int, ...]
    morphisms_as_cells2: tuple[int, ...]


def vertical_category(b: "StrictBicategory", cells1, cells2) -> FiniteCategory:
    """The 1-cells ``cells1`` of ``b`` and the 2-cells ``cells2`` between
    them under vertical composition, renumbered in the given orders."""
    pos1 = {x: i for i, x in enumerate(cells1)}
    pos2 = {p: i for i, p in enumerate(cells2)}
    dom = tuple(pos1[b.dom1[p]] for p in cells2)
    cod = tuple(pos1[b.cod1[p]] for p in cells2)
    identity = tuple(pos2[b.id2[x]] for x in cells1)
    comp = {(pos2[q], pos2[p]): pos2[r] for (q, p), r in b.vcomp.items() if q in pos2 and p in pos2}
    return FiniteCategory(len(cells1), dom, cod, identity, comp)


def end_data(b: "StrictBicategory", a: int) -> EndData:
    if not (0 <= a < b.n0):
        raise StructureError("unknown-cell", f"0-cell {a}")
    cells1, cells2 = b.endo_cells[a]
    base = vertical_category(b, cells1, cells2)
    pos1 = {x: i for i, x in enumerate(cells1)}
    pos2 = {p: i for i, p in enumerate(cells2)}
    tensor_obj = {
        (pos1[x], pos1[y]): pos1[b.hcomp1[(x, y)]] for x in cells1 for y in cells1
    }
    tensor_mor = {
        (pos2[p], pos2[q]): pos2[b.hcomp2[(p, q)]] for p in cells2 for q in cells2
    }
    cat = StrictMonoidalCategory(base, pos1[b.id1[a]], tensor_obj, tensor_mor)
    return EndData(cat, cells1, cells2)


def end_category(b: "StrictBicategory", a: int) -> StrictMonoidalCategory:
    """End_B(a): endo 1-cells at ``a`` under vertical composition, tensored
    by horizontal composition."""
    return end_data(b, a).cat
