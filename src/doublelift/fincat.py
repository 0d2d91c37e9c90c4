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
from collections import Counter
from collections.abc import Iterator, Mapping
from functools import cached_property
from operator import attrgetter, itemgetter

from .errors import StructureError


class Frozen:
    """Base of the package's structures: immutable, and equal only to an
    instance of the same class with equal ``_fields``, which hashing and
    ``repr`` also read.  Each ``__init__`` stores the fields and metadata
    such as names; a checked one ends with ``self.__post_init__(validate)``,
    which runs the class's laws in ``_validate``."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._key = attrgetter(*cls._fields)

    def __post_init__(self, validate: bool = True):
        if validate:
            self._validate()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return other is self or self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is frozen: {name!r} cannot be set or deleted")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


# ---------------------------------------------------------------------------
# laws of partial operations: tables {(x, y): x y} on the cells 0 .. n-1,
# where x y is defined iff right[x] == left[y].  The cells y with left[y] == b
# form the boundary class of b.  Each law's byte pass decides it whenever
# the cells fit in a byte, at most 256 of them; a walk decides it over more
# cells, and names the first failure.


def boundary_classes(left) -> dict[int, list[int]]:
    """The members of each boundary class, ascending."""
    classes: dict[int, list[int]] = {}
    for y, b in enumerate(left):
        classes.setdefault(b, []).append(y)
    return classes


def totality_failure(table, right, left) -> tuple[int, int, str] | None:
    """The least pair of cells ``(x, y)`` that is a key but does not
    compose, as ``(x, y, "defined")``, or composes but is no key, as ``(x,
    y, "missing")``; keys outside the cells are skipped.  Keys are distinct,
    so every composable pair is a key iff there are as many composable keys
    as composable pairs, sum_x |class of right[x]|; only if not are the
    composable pairs walked, up to the first missing one."""
    n, classes = len(right), boundary_classes(left)
    stray, composable = None, 0
    for key in table:
        x, y = key
        if 0 <= x < n and 0 <= y < n:
            if right[x] == left[y]:
                composable += 1
            elif stray is None or key < stray:
                stray = key
    fails = [] if stray is None else [(*stray, "defined")]
    if composable != sum(len(classes.get(b, ())) for b in right):
        fails.append(next((x, y, "missing") for x in range(n) for y in classes.get(right[x], ())
                          if (x, y) not in table))
    return min(fails, default=None)


def unit_failure(table, right, left, ident) -> int | None:
    """The first cell ``x`` of a total table with ``x ident[right[x]] != x``
    or ``ident[left[x]] x != x``."""
    for x, (rb, lb) in enumerate(zip(right, left)):
        if table[(x, ident[rb])] != x or table[(ident[lb], x)] != x:
            return x
    return None


def class_rows(table, right, left) -> tuple[dict[int, list[int]], list[int], list]:
    """The boundary classes, the position of each cell in its class, and
    the rows of a total ``table``: row ``x`` holds ``x y`` for the ``y`` in
    the class of ``right[x]``, in class order, so the rows take memory in
    proportion to the entries.  With at most 256 cells every cell fits in a
    byte, and the rows are ``bytes``."""
    classes = boundary_classes(left)
    pos = [0] * len(left)
    for members in classes.values():
        for i, y in enumerate(members):
            pos[y] = i
    rows = [[0] * len(classes.get(b, ())) for b in right]
    for (x, y), v in table.items():
        rows[x][pos[y]] = v
    return classes, pos, rows if len(rows) > 256 else list(map(bytes, rows))


def associativity_failure(table, right, left, pairs, rows=None) -> tuple[int, int, int] | None:
    """The first ``(x, y, z)`` with ``(x y) z != x (y z)``, taking ``pairs``
    in order and ``z`` ascending, in a total table whose composites ``x y``
    have the boundaries ``left[x]`` and ``right[y]``; ``rows``, if given, is
    ``class_rows(table, right, left)``.

    Up to 256 cells ``_associative`` decides the law per cell, one
    comparison for every ``y`` and ``z`` of a cell ``x``; only on a
    failure, or over more cells, does the walk run, which names the
    triple.  It takes the pairs one at a time: over all ``z``, ``(x y) z``
    is row ``x y`` of ``class_rows`` and ``x (y z)`` is row ``x`` read at
    the positions of the values of row ``y``, one row comparison in C.
    """
    classes, pos, rows = rows or class_rows(table, right, left)
    if len(rows) <= 256 and _associative(rows, right, classes, pos):
        return None
    rows = [tuple(row) for row in rows]
    # itemgetter reads one position as an item, not as a 1-tuple
    through = [itemgetter(*at) if len(at) > 1 else lambda row, at=at: tuple(row[i] for i in at)
               for at in ([pos[v] for v in row] for row in rows)]
    for x, y in pairs:
        row = rows[x]
        first, second = rows[row[pos[y]]], through[y](row)
        if first != second:
            return x, y, next(z for z, u, v in zip(classes[right[y]], first, second) if u != v)
    return None


def _associative(rows, right, classes, pos) -> bool:
    """Whether the byte rows of ``associativity_failure`` are associative.
    For a cell ``x`` and every ``y`` and ``z``, ``(x y) z`` is the rows of
    the values of row ``x``, joined, and ``x (y z)`` is the rows of the
    class of ``right[x]``, joined once per class and taken to class
    positions, read through row ``x`` as a ``bytes.translate`` table: one
    comparison per cell."""
    at = bytes(pos).ljust(256, b"\0")
    joined = {b: b"".join(map(rows.__getitem__, members)).translate(at) for b, members in classes.items()}
    return all(b"".join(map(rows.__getitem__, row)) == joined.get(b, b"").translate(row.ljust(256, b"\0"))
               for row, b in zip(rows, right))


def preserves(rows, right, classes, mapping, table) -> bool:
    """Whether ``mapping`` takes products to products, where ``rows``,
    ``right`` and ``classes`` are the source's, as ``class_rows`` gives
    them, ``table`` is the target's composition, and both sides have at
    most 256 cells.

    Per source cell ``x``, row ``x`` through ``mapping`` is compared with
    the target row of ``mapping[x]`` read at the images of the class of
    ``right[x]``.  The target is read only there, once per image cell and
    class, and the rows of all cells are compared at once, as bytes."""
    images = {b: [mapping[y] for y in members] for b, members in classes.items()}
    wanted = dict.fromkeys(zip(mapping, right))
    for u, b in wanted:
        wanted[u, b] = bytes(map(table.__getitem__, zip(itertools.repeat(u), images.get(b, ()))))
    return b"".join(map(bytes, rows)).translate(bytes(mapping).ljust(256, b"\0")) == \
        b"".join(map(wanted.__getitem__, zip(mapping, right)))


def interchange_failure(vtable, vright, vleft, htable, hright, hleft,
                        rows=None) -> tuple[int, int, int, int] | None:
    """The first ``(q, p, q2, p2)`` with ``(q * q2) . (p * p2) != (q . p) *
    (q2 . p2)``, where ``.`` is ``vtable`` and ``*`` is ``htable``, total
    operations on the cells ``0 .. n-1`` whose boundary laws hold, in which
    ``(x, y)`` composes iff ``right[x] == left[y]``.  The pairs ``(q, p)``,
    and the ``(q2, p2)`` pasted onto each, are taken in ``vtable`` order;
    ``rows``, if given, is ``class_rows(...)[1:]`` of ``vtable`` and ``htable``.

    Up to 256 cells ``_interchange_holds`` decides the law first; only on a
    failure, or over more cells, does the scalar loop run to name the
    quadruple.  Each ``(q2, p2)`` waits in its group with the class
    positions that the loop reads, so both take memory in proportion to the
    entries.
    """
    (vpos, vrows), (hpos, hrows) = rows or (class_rows(vtable, vright, vleft)[1:],
                                            class_rows(htable, hright, hleft)[1:])
    if len(vrows) <= 256 and _interchange_holds(vrows, vpos, hrows, hpos, vright, vleft, hright, hleft):
        return None
    groups: dict[tuple[int, int], list[tuple[int, int, int, int, int]]] = {}
    for (q2, p2), v in vtable.items():
        groups.setdefault((hleft[q2], hleft[p2]), []).append((q2, p2, hpos[q2], hpos[p2], hpos[v]))
    for (q, p), v in vtable.items():
        hq, hp, hqp = hrows[q], hrows[p], hrows[v]
        for q2, p2, i, j, k in groups.get((hright[q], hright[p]), ()):
            if vrows[hq[i]][vpos[hp[j]]] != hqp[k]:
                return q, p, q2, p2
    return None


def interchange_boxes(vright, vleft, hright, hleft) -> list[tuple[list[int], list[int], list]]:
    """The quadruples of ``interchange_failure`` as boxes ``(qs, ps,
    groups)``: each ``q`` in ``qs`` and ``p`` in ``ps`` with each ``q2`` and
    ``p2`` of one ``(q2s, p2s)`` in ``groups``.  A box holds the ``q`` of one
    ``(vright[q], hright[q])`` and the ``p`` of one ``a = hright[p]``, and a
    group the ``q2`` and ``p2`` of one ``x2 = vright[q2] = vleft[p2]``."""
    qs, ps, q2s, p2s = {}, {}, {}, {}
    for x in range(len(vright)):
        qs.setdefault((vright[x], hright[x]), []).append(x)
        ps.setdefault(vleft[x], {}).setdefault(hright[x], []).append(x)
        q2s.setdefault(hleft[x], {}).setdefault(vright[x], []).append(x)
        p2s.setdefault((hleft[x], vleft[x]), []).append(x)
    return [(box_qs, box_ps, groups) for (b, c), box_qs in qs.items() for a, box_ps in ps.get(b, {}).items()
            if (groups := [(members, p2s[a, x2]) for x2, members in q2s.get(c, {}).items()
                           if (a, x2) in p2s])]


def _interchange_holds(vrows, vpos, hrows, hpos, vright, vleft, hright, hleft) -> bool:
    """Whether interchange holds, on the byte ``class_rows`` of both
    tables, padded to 256 as ``bytes.translate`` tables.  For each box and
    each of its ``q``, the left side is one translate per ``q2``: the block
    of ``p * p2`` at its class positions through the row of ``q * q2``,
    laid out [q2][p2][p].  The right side is one per ``p``: the block of
    ``q2 . p2`` at its class positions through the row of ``q . p``, laid
    out [p][q2][p2].  Strided slices bring the left side to that layout for
    one comparison.  The law reads the same with the tables swapped; the
    orientation with fewer boxes is taken."""
    boxes = interchange_boxes(vright, vleft, hright, hleft)
    swapped = interchange_boxes(hright, hleft, vright, vleft)
    if len(swapped) < len(boxes):
        boxes, vrows, vpos, hrows, hpos = swapped, hrows, hpos, vrows, vpos
    vpad, hpad = ([row.ljust(256, b"\0") for row in rows] for rows in (vrows, hrows))
    for qs, ps, groups in boxes:
        q2_at, p_at = [hpos[q2] for members, _ in groups for q2 in members], [vpos[p] for p in ps]
        hblocks = [block for members, p2s in groups for block in
                   [bytes([vpos[hrows[p][hpos[p2]]] for p2 in p2s for p in ps])] * len(members)]
        vblock = bytes([hpos[vrows[q2][vpos[p2]]] for members, p2s in groups for q2 in members for p2 in p2s])
        columns = [slice(i, None, len(ps)) for i in range(len(ps))]
        for q in qs:
            hq, vq = hrows[q], vrows[q]
            left = b"".join(map(bytes.translate, hblocks, map(vpad.__getitem__, map(hq.__getitem__, q2_at))))
            right = b"".join(map(vblock.translate, map(hpad.__getitem__, map(vq.__getitem__, p_at))))
            if b"".join(map(left.__getitem__, columns)) != right:
                return False
    return True


# ---------------------------------------------------------------------------
# monoids


class Monoid(Frozen):
    _fields = ("table", "unit")

    def __init__(self, table, unit: int = 0, names: tuple[str, ...] | None = None,
                 validate: bool = True):
        vars(self).update(table=tuple(tuple(row) for row in table), unit=unit, names=names)
        self.__post_init__(validate)

    def _validate(self):
        table = self.table
        n, unit = len(table), self.unit
        if not 0 <= unit < n:
            raise StructureError("unit-range", f"unit {unit} outside [0, {n})")
        for x, row in enumerate(table):
            if len(row) != n:
                raise StructureError("table-shape", f"row {x} has length {len(row)}, expected {n}")
            for y, v in enumerate(row):
                if not 0 <= v < n:
                    raise StructureError("table-range", f"table[{x}][{y}] = {v} outside [0, {n})")
        # one boundary class: every pair composes
        ops, ends = {(x, y): v for x, row in enumerate(table) for y, v in enumerate(row)}, (0,) * n
        x = unit_failure(ops, ends, ends, (unit,))
        if x is not None:
            raise StructureError("unit-law", f"unit fails at element {x}")
        fail = associativity_failure(ops, ends, ends, ops)
        if fail:
            raise StructureError("associativity", str(fail))

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
        return all(any(self.table[x][y] == self.unit and self.table[y][x] == self.unit
                       for y in range(self.size)) for x in range(self.size))

    def inverse(self, x: int) -> int:
        for y in range(self.size):
            if self.table[x][y] == self.unit and self.table[y][x] == self.unit:
                return y
        raise StructureError("not-invertible", f"element {x} has no inverse")

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


class MonoidMorphism(Frozen):
    _fields = ("source", "target", "mapping")

    def __init__(self, source: Monoid, target: Monoid, mapping):
        vars(self).update(source=source, target=target, mapping=tuple(mapping))
        self.__post_init__()

    def _validate(self):
        src, tgt, mapping = self.source, self.target, self.mapping
        if len(mapping) != src.size:
            raise StructureError("map-shape", f"expected {src.size} entries, got {len(mapping)}")
        if any(not 0 <= v < tgt.size for v in mapping):
            raise StructureError("map-range", "value outside target")
        if mapping[src.unit] != tgt.unit:
            raise StructureError("unit-preservation", f"unit maps to {mapping[src.unit]}")
        for x, row in enumerate(src.table):
            image = tgt.table[mapping[x]]
            for y, v in enumerate(row):
                if mapping[v] != image[mapping[y]]:
                    raise StructureError("product-preservation", f"({x}, {y})")


class MonoidAction(Frozen):
    """A monoid morphism from ``acting`` into the endomorphism monoid of
    ``target``, stored as an element-indexed family of endomorphism tables."""

    _fields = ("acting", "target", "maps")

    def __init__(self, acting: Monoid, target: Monoid, maps):
        vars(self).update(acting=acting, target=target, maps=tuple(tuple(m) for m in maps))
        self.__post_init__()

    def _validate(self):
        if len(self.maps) != self.acting.size:
            raise StructureError("action-shape", f"expected {self.acting.size} endomorphisms")
        for m, f in enumerate(self.maps):
            try:
                MonoidMorphism(self.target, self.target, f)
            except StructureError as exc:
                raise StructureError(f"action-endomorphism[{m}].{exc.law}", exc.detail) from None
        ident = tuple(range(self.target.size))
        if self.maps[self.acting.unit] != ident:
            raise StructureError("action-unit", "unit does not act as identity")
        for m1 in range(self.acting.size):
            for m2 in range(self.acting.size):
                composite = tuple(self.maps[m1][self.maps[m2][x]] for x in range(self.target.size))
                if self.maps[self.acting.mul(m1, m2)] != composite:
                    raise StructureError("action-functoriality", f"({m1}, {m2})")

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


def cayley_tree(m: Monoid) -> tuple[list[int], list[tuple[int, int, int]]]:
    """A generating set of ``m`` and a spanning tree of its right Cayley graph.

    The generators are chosen greedily in ascending id order: each is the
    least element not yet generated.  The tree lists, in breadth-first
    order from the unit, each other element ``z`` as ``(z, y, k)`` with
    ``z = y * generators[k]`` and ``y`` listed before ``z`` (Froidure &
    Pin, *Algorithms for computing finite semigroups*, 1997; the Monoid
    constructor has checked associativity, so no rewriting is needed).
    """
    gens: list[int] = []
    tree: list[tuple[int, int, int]] = []
    seen = {m.unit}
    for x in range(m.size):
        if x in seen:
            continue
        gens.append(x)
        tree, seen, frontier = [], {m.unit}, [m.unit]
        for y in frontier:
            for k, g in enumerate(gens):
                z = m.table[y][g]
                if z not in seen:
                    seen.add(z)
                    frontier.append(z)
                    tree.append((z, y, k))
    return gens, tree


def monoid_homomorphisms(source: Monoid, table, unit: int, *,
                         injective: bool = False) -> Iterator[tuple[int, ...]]:
    """Every monoid homomorphism from ``source`` into the monoid with product
    table ``table`` and unit ``unit``, lazily, in lexicographic order.

    The images of the generators of ``cayley_tree(source)`` are chosen depth
    first in ``itertools.product`` order, and every other image is set along
    the tree, which pins the unit.  Every id below a generator is generated
    by the generators before it, so product order is lexicographic order.
    Each product ``x * y`` is checked as soon as the images of x, y and x y
    are set, which cuts only subtrees that hold no homomorphism.  At most
    |target|^(number of generators) leaves are reached: |target| for a
    cyclic source on its own labels.  With ``injective``, only injective ones
    are kept, and a subtree is cut as soon as two images set so far coincide.
    """
    gens, tree = cayley_tree(source)
    n, src = source.size, source.table
    # fixed[x]: how many generator images fix the image of x along the tree
    fixed = [0] * n
    steps: list[list[tuple[int, int, int]]] = [[] for _ in range(len(gens) + 1)]
    for z, y, k in tree:
        fixed[z] = max(fixed[y], k + 1)
        steps[fixed[z]].append((z, y, k))
    checks: list[list[tuple[int, int, int]]] = [[] for _ in range(len(gens) + 1)]
    for x in range(n):
        for y in range(n):
            checks[max(fixed[x], fixed[y], fixed[src[x][y]])].append((x, y, src[x][y]))
    # set_by[j]: the elements whose images the first j generator images set
    set_by = [[x for x in range(n) if fixed[x] <= j] for j in range(len(gens) + 1)]
    img, images = [unit] * n, [unit] * len(gens)

    def extend(j: int):
        if injective and len({img[x] for x in set_by[j]}) < len(set_by[j]):
            return
        if not all(img[xy] == table[img[x]][img[y]] for x, y, xy in checks[j]):
            return
        if j == len(gens):
            yield tuple(img)
            return
        for g in range(len(table)):
            images[j] = g
            for z, y, k in steps[j + 1]:
                img[z] = table[img[y]][images[k]]
            yield from extend(j + 1)

    yield from extend(0)


def monoid_endomorphisms(m: Monoid) -> list[tuple[int, ...]]:
    """All endomorphisms of ``m``, in lexicographic order."""
    return list(monoid_homomorphisms(m, m.table, m.unit))


def monoid_automorphisms(m: Monoid) -> list[tuple[int, ...]]:
    return list(monoid_homomorphisms(m, m.table, m.unit, injective=True))


def enumerate_actions(acting: Monoid, target: Monoid) -> list[MonoidAction]:
    """Every monoid morphism acting -> End(target), as MonoidAction values,
    in lexicographic order of their indices into ``monoid_endomorphisms``."""
    endos = monoid_endomorphisms(target)
    index = {f: i for i, f in enumerate(endos)}
    composites = [[index[tuple(f1[x] for x in f2)] for f2 in endos] for f1 in endos]
    return [MonoidAction(acting, target, tuple(endos[i] for i in hom))
            for hom in monoid_homomorphisms(acting, composites, index[tuple(range(target.size))])]


# ---------------------------------------------------------------------------
# finite categories


class FiniteCategory(Frozen):
    _fields = ("n_objects", "dom", "cod", "identity", "composition")

    def __init__(self, n_objects: int, dom, cod, identity, composition: Mapping[tuple[int, int], int],
                 object_names: tuple[str, ...] | None = None,
                 morphism_names: tuple[str, ...] | None = None, validate: bool = True):
        vars(self).update(n_objects=n_objects, dom=tuple(dom), cod=tuple(cod),
                          identity=tuple(identity), composition=dict(composition),
                          object_names=object_names, morphism_names=morphism_names)
        self.__post_init__(validate)

    def _validate(self):
        dom, cod, identity, comp = self.dom, self.cod, self.identity, self.composition
        n_mor = len(dom)
        if len(cod) != n_mor:
            raise StructureError("table-shape", "dom/cod length mismatch")
        if len(identity) != self.n_objects:
            raise StructureError("table-shape", f"expected {self.n_objects} identity entries")
        if any(not 0 <= a < self.n_objects for a in dom + cod):
            raise StructureError("boundary-range", "dom/cod outside object range")
        # one walk: a range failure raises at once, the first boundary one after the identities
        bad = None
        for (g, f), h in comp.items():
            if not (0 <= g < n_mor and 0 <= f < n_mor and 0 <= h < n_mor):
                raise StructureError("composition-range", f"entry ({g}, {f})")
            if bad is None and (cod[f] != dom[g] or dom[h] != dom[f] or cod[h] != cod[g]):
                bad = g, f, h
        for a, i in enumerate(identity):
            if not 0 <= i < n_mor or dom[i] != a or cod[i] != a:
                raise StructureError("identity-boundary", f"identity of object {a}")
        if bad:
            g, f, h = bad
            if cod[f] != dom[g]:
                raise StructureError("composition-domain", f"({g}, {f}) not composable")
            raise StructureError("composite-boundary", f"({g}, {f}) -> {h}")
        # every key composes now: the table is total iff it has a key per composable pair
        ending = Counter(cod)
        if len(comp) < sum(ending[a] for a in dom):
            fail = totality_failure(comp, dom, cod)
            raise StructureError("composition-totality", f"({fail[0]}, {fail[1]}) missing")
        f = unit_failure(comp, dom, cod, identity)
        if f is not None:
            raise StructureError("identity-law", f"morphism {f}")
        fail = associativity_failure(comp, dom, cod, sorted(comp), self.rows)
        if fail:
            raise StructureError("associativity", str(fail))

    @cached_property
    def rows(self):
        """``class_rows`` of the composition, where ``g f`` is in row ``g``,
        built on first use and kept: the associativity check, the functors
        out of this category and, for a category of squares, interchange
        read them."""
        return class_rows(self.composition, self.dom, self.cod)

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


def delooping(m: Monoid) -> FiniteCategory:
    """The one-object category whose endomorphisms are ``m``.

    ``m`` must satisfy the monoid laws (it has passed them, or inherited
    them).  The category laws of the result are exactly those laws, so they
    are not checked again.
    """
    comp = {(g, f): m.mul(g, f) for g in range(m.size) for f in range(m.size)}
    return FiniteCategory(
        1, (0,) * m.size, (0,) * m.size, (m.unit,), comp,
        object_names=("*",), morphism_names=m.names, validate=False,
    )


def endomorphism_monoid_of_object(cat: FiniteCategory, obj: int) -> tuple[Monoid, tuple[int, ...]]:
    """The endomorphism monoid of ``obj`` plus the morphism id of each element.

    ``cat`` must satisfy the category laws: it has passed them, was cut
    out of a category that has, or is one by construction, as the extended
    total category of a checked pre-cosheaf is.  The monoid's unit and
    associativity laws are then those of ``cat`` on the endomorphisms of
    ``obj``, so they are not checked again.
    """
    elements = tuple(cat.hom(obj, obj))
    pos = {f: i for i, f in enumerate(elements)}
    table = tuple(
        tuple(pos[cat.compose(x, y)] for y in elements) for x in elements
    )
    return Monoid(table, pos[cat.identity[obj]], validate=False), elements


# ---------------------------------------------------------------------------
# functors


class FunctorData(Frozen):
    """A functor between finite categories, as its object and morphism maps.

    The check takes the maps' shape and range, then boundaries and
    identities per cell, then composition: ``preserves`` decides it per
    source morphism when both sides have at most 256 morphisms, and a walk
    over the source composition, in table order, decides it otherwise and
    names the first pair that is not preserved."""

    _fields = ("source", "target", "object_map", "morphism_map")

    def __init__(self, source: FiniteCategory, target: FiniteCategory, object_map, morphism_map,
                 validate: bool = True):
        vars(self).update(source=source, target=target, object_map=tuple(object_map),
                          morphism_map=tuple(morphism_map))
        self.__post_init__(validate)

    def _validate(self):
        source, target, omap, mmap = self.source, self.target, self.object_map, self.morphism_map
        if len(omap) != source.n_objects or len(mmap) != source.n_morphisms:
            raise StructureError("map-shape", "object/morphism map length mismatch")
        if any(not 0 <= a < target.n_objects for a in omap):
            raise StructureError("map-range", "object map outside target")
        if any(not 0 <= f < target.n_morphisms for f in mmap):
            raise StructureError("map-range", "morphism map outside target")
        for f in range(source.n_morphisms):
            if target.dom[mmap[f]] != omap[source.dom[f]] or target.cod[mmap[f]] != omap[source.cod[f]]:
                raise StructureError("boundary-preservation", f"morphism {f}")
        for a in range(source.n_objects):
            if mmap[source.identity[a]] != target.identity[omap[a]]:
                raise StructureError("identity-preservation", f"object {a}")
        tcomp = target.composition
        if max(source.n_morphisms, target.n_morphisms) <= 256:
            classes, _, rows = source.rows
            if preserves(rows, source.dom, classes, mmap, tcomp):
                return
        for (g, f), h in source.composition.items():
            if tcomp[mmap[g], mmap[f]] != mmap[h]:
                raise StructureError("composition-preservation", f"({g}, {f})")

    @staticmethod
    def identity(cat: FiniteCategory) -> "FunctorData":
        """The identity functor of ``cat``, which must satisfy the category
        laws; it is then a functor, so it is not checked."""
        return FunctorData(cat, cat, tuple(range(cat.n_objects)), tuple(range(cat.n_morphisms)),
                           validate=False)


# ---------------------------------------------------------------------------
# strict monoidal categories


class StrictMonoidalCategory(Frozen):
    _fields = ("base", "unit_obj", "tensor_obj", "tensor_mor")

    def __init__(self, base: FiniteCategory, unit_obj: int, tensor_obj: Mapping[tuple[int, int], int],
                 tensor_mor: Mapping[tuple[int, int], int], validate: bool = True):
        vars(self).update(base=base, unit_obj=unit_obj, tensor_obj=dict(tensor_obj),
                          tensor_mor=dict(tensor_mor))
        self.__post_init__(validate)

    def _validate(self):
        base, unit, t_obj, t_mor = self.base, self.unit_obj, self.tensor_obj, self.tensor_mor
        n_obj, n_mor = base.n_objects, base.n_morphisms
        # each tensor has one boundary class: every pair composes
        parts = (("objects", t_obj, (0,) * n_obj), ("morphisms", t_mor, (0,) * n_mor))
        for name, table, ends in parts:
            n = len(ends)
            fail = totality_failure(table, ends, ends)
            if fail:
                raise StructureError("tensor-totality", f"{name} ({fail[0]}, {fail[1]})")
            if len(table) != n * n:
                key = next(k for k in table if not (0 <= k[0] < n and 0 <= k[1] < n))
                raise StructureError("tensor-totality", f"{name} {key} outside [0, {n})")
        # every object pair is the domain of a pair of identities, so once
        # this passes, the values of both tables are cells too
        for f in range(n_mor):
            for g in range(n_mor):
                h = t_mor[(f, g)]
                if not 0 <= h < n_mor or base.dom[h] != t_obj[(base.dom[f], base.dom[g])] or \
                   base.cod[h] != t_obj[(base.cod[f], base.cod[g])]:
                    raise StructureError("tensor-boundary", f"({f}, {g})")
        if not 0 <= unit < n_obj:
            raise StructureError("tensor-unit", f"unit object {unit} outside [0, {n_obj})")
        for (name, table, ends), ident in zip(parts, (unit, base.identity[unit])):
            x = unit_failure(table, ends, ends, (ident,))
            if x is not None:
                raise StructureError("tensor-unit", f"{name[:-1]} {x}")
        for name, table, ends in parts:
            rows = class_rows(table, ends, ends)
            pairs = itertools.product(range(len(ends)), repeat=2)
            fail = associativity_failure(table, ends, ends, pairs, rows)
            if fail:
                raise StructureError("tensor-associativity", f"{name} {fail}")
        for a in range(n_obj):
            for b in range(n_obj):
                if t_mor[(base.identity[a], base.identity[b])] != base.identity[t_obj[(a, b)]]:
                    raise StructureError("tensor-identity", f"({a}, {b})")
        # (g (x) g') o (f (x) f') = (g o f) (x) (g' o f'); t_mor's classes go, interchange reads no classes
        rows = base.rows[1:], rows[1:]
        fail = interchange_failure(base.composition, base.dom, base.cod, t_mor, ends, ends, rows)
        if fail:
            raise StructureError("interchange", str((fail[:2], fail[2:])))


def monoidal_delooping(m: Monoid) -> StrictMonoidalCategory:
    """Delooping of a commutative monoid with tensor given by the product.

    Eckmann-Hilton: the delooping of a non-commutative monoid carries no
    strict monoidal structure with tensor = product, so we reject it.  For
    a commutative ``m`` that satisfies the monoid laws, every monoidal law
    of the result is a monoid law, so they are not checked again.
    """
    if not m.is_commutative:
        raise StructureError("eckmann-hilton", "monoid must be commutative")
    base = delooping(m)
    tensor_mor = {(f, g): m.mul(f, g) for f in range(m.size) for g in range(m.size)}
    return StrictMonoidalCategory(base, 0, {(0, 0): 0}, tensor_mor, validate=False)


def semidirect_product(n: Monoid, m: Monoid, action: MonoidAction) -> Monoid:
    """N x| M with product (n', m') * (n, m) = (n' * phi_{m'}(n), m' * m).

    Element (x, y) gets identifier x * |M| + y.  ``n`` and ``m`` must satisfy
    the monoid laws and ``action`` is a checked action, which makes the
    product unital and associative, so the result is not checked again.
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
                    px = n.mul(x1, action.maps[y1][x2])
                    py = m.mul(y1, y2)
                    table[enc(x1, y1)][enc(x2, y2)] = enc(px, py)
    names = None
    if n.names and m.names:
        names = tuple(f"({n.names[x]}, {m.names[y]})" for x in range(n.size) for y in range(m.size))
    return Monoid(tuple(tuple(row) for row in table), enc(n.unit, m.unit), names, validate=False)

