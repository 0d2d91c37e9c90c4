"""Lifting a decorated bicategory along a monoidal pre-cosheaf to a double
category, and the functoriality of the construction in the pre-cosheaf.

The lifted double category has c0 = the decoration and c1 = the extended
total category, whose squares are the pairs (f, payload), a 2-cell being the
pair over an identity, each known by its key (f, top 1-cell, payload).
Squares sharing a vertical side f paste to the pair over f of the horizontal
composites of their top 1-cells and payloads.
"""

from __future__ import annotations

from .doublecat import DoubleCategory, DoubleFunctor, HKey, decorated_horizontalization
from .errors import StructureError
from .fincat import Frozen, FunctorData
from .grothendieck import Precosheaf, extended_total
from .twocat import DecoratedBicategory, check_monoidal_map


class LiftData(Frozen):
    """A lifted double category together with its construction data.

    The objects of ``dc.c1`` are the 1-cells of the bicategory with their
    original identifiers, and squares ``0..n2-1`` are its 2-cells, so the
    horizontalization of ``dc`` is the input decorated bicategory on the
    nose.  ``key_index`` maps the key (f, top 1-cell, payload) of each
    square to it in square order, the 2-cells ``0..n2-1`` first, then the
    pair squares; it is compared, so equal lifts have equal payloads.
    """

    _fields = ("dec", "phi", "key_index", "dc")

    def __init__(self, dec: DecoratedBicategory, phi: Precosheaf,
                 key_index: dict[tuple[int, int, int], int], dc: DoubleCategory):
        vars(self).update(dec=dec, phi=phi, key_index=key_index, dc=dc)


def lift_data(dec: DecoratedBicategory, phi: Precosheaf) -> LiftData:
    """The lift of ``dec`` along ``phi`` with its construction data.

    Precondition: checked ``dec`` and ``phi``: the result is a double
    category by the lifting theorem, so its ``c1``, its three structure
    functors and its axioms are not checked.  Its horizontalization is
    still compared with ``dec``.
    """
    b = dec.bicat
    bstar = dec.decoration
    c1, key_index = extended_total(dec, phi)

    src = FunctorData(c1, bstar, b.dom0, tuple(f for f, _, _ in key_index), validate=False)
    # a 2-cell's right side is the identity of its top 1-cell's right 0-cell
    tgt_mor = tuple(f if j >= b.n2 else bstar.identity[b.cod0[x]]
                    for j, (f, x, _) in enumerate(key_index))
    tgt = FunctorData(c1, bstar, b.cod0, tgt_mor, validate=False)
    hid_mor = []
    for f in range(bstar.n_morphisms):
        a, bb = bstar.dom[f], bstar.cod[f]
        hid_mor.append(key_index[(f, b.id1[a], b.id2[b.id1[bb]])])
    hid = FunctorData(bstar, c1, tuple(b.id1), tuple(hid_mor), validate=False)

    hcomp: dict[HKey, int] = {}
    for (x, y), z in b.hcomp1.items():
        hcomp[("ob", x, y)] = z
    # p pastes left of the squares whose left vertical side is p's right one
    by_left: dict[int, list[tuple[int, int, int]]] = {}
    for q, (fq, xq, aq) in enumerate(key_index):
        by_left.setdefault(fq, []).append((q, xq, aq))
    for p, (fp, xp, ap) in enumerate(key_index):
        for q, xq, aq in by_left.get(tgt_mor[p], ()):
            hcomp[("sq", p, q)] = key_index[(fp, b.hcomp1[(xp, xq)], b.hcomp2[(ap, aq)])]

    dc = DoubleCategory(bstar, c1, src, tgt, hid, hcomp, validate=False)
    hstar = decorated_horizontalization(dc)
    if hstar != dec:
        raise StructureError("horizontalization-mismatch",
                             "lift does not restrict to its input decorated bicategory")
    return LiftData(dec, phi, key_index, dc)


def lift(dec: DecoratedBicategory, phi: Precosheaf) -> DoubleCategory:
    """The double category of ``lift_data``, under the same precondition."""
    return lift_data(dec, phi).dc


# ---------------------------------------------------------------------------
# functoriality in the pre-cosheaf


class PrecosheafMap(Frozen):
    """A natural transformation between pre-cosheaves over the same
    decoration, with strict monoidal components ``comp1`` (on endo 1-cells)
    and ``comp2`` (on 2-cells), one per decoration object."""

    _fields = ("phi", "psi", "comp1", "comp2")

    def __init__(self, phi: Precosheaf, psi: Precosheaf, comp1, comp2):
        vars(self).update(phi=phi, psi=psi, comp1=tuple(dict(m) for m in comp1),
                          comp2=tuple(dict(m) for m in comp2))
        self.__post_init__()

    def _validate(self):
        if self.phi.dec != self.psi.dec:
            raise StructureError("naturality", "pre-cosheaves over different decorations")
        b, bstar = self.phi.dec.bicat, self.phi.dec.decoration
        if len(self.comp1) != bstar.n_objects or len(self.comp2) != bstar.n_objects:
            raise StructureError("component-shape", "one component per decoration object")
        for a in range(bstar.n_objects):
            check_monoidal_map(b, a, a, self.comp1[a], self.comp2[a], "component", f"object {a}",
                               ("component-shape", f"component at object {a}"))
        # naturality: component(cod f) after phi_f = psi_f after component(dom f)
        for f in range(bstar.n_morphisms):
            a, bb = bstar.dom[f], bstar.cod[f]
            for x, v in self.phi.on_cells1[f].items():
                if self.comp1[bb][v] != self.psi.on_cells1[f][self.comp1[a][x]]:
                    raise StructureError("naturality", f"morphism {f}, 1-cell {x}")
            for p, v in self.phi.on_cells2[f].items():
                if self.comp2[bb][v] != self.psi.on_cells2[f][self.comp2[a][p]]:
                    raise StructureError("naturality", f"morphism {f}, 2-cell {p}")

    @staticmethod
    def identity(phi: Precosheaf) -> "PrecosheafMap":
        objects = range(phi.dec.decoration.n_objects)
        return PrecosheafMap(phi, phi, *phi.dec.bicat.identity_maps(objects))

    def compose(self, other: "PrecosheafMap") -> "PrecosheafMap":
        """self after other (vertical composition of transformations)."""
        if other.psi != self.phi:
            raise StructureError("composition-mismatch", "transformations do not line up")
        comp1 = tuple({x: self.comp1[a][v] for x, v in other.comp1[a].items()}
                      for a in range(len(self.comp1)))
        comp2 = tuple({p: self.comp2[a][v] for p, v in other.comp2[a].items()}
                      for a in range(len(self.comp2)))
        return PrecosheafMap(other.phi, self.psi, comp1, comp2)


def lift_functor(eta: PrecosheafMap, src_ld: LiftData, tgt_ld: LiftData) -> DoubleFunctor:
    """The double functor between the lifts of the source and target of a
    pre-cosheaf map, which the caller passes in.

    It is the identity on the decoration, on non-endo cells, and on the
    1-cell part only when the components fix all endo 1-cells.  Lifting is
    functorial in the pre-cosheaf: a checked map between the lifts of its
    checked source and target gives a double functor by construction, so
    it is not checked again.
    """
    if src_ld.phi != eta.phi or tgt_ld.phi != eta.psi:
        raise StructureError("wiring", "lifts are not those of the map's source and target")
    dec = eta.phi.dec
    b = dec.bicat
    bstar = dec.decoration

    obj_map = []
    for x in range(b.n1):
        if b.is_endo_1cell(x):
            obj_map.append(eta.comp1[b.dom0[x]][x])
        else:
            obj_map.append(x)
    mor_map = []
    for j, (f, x, payload) in enumerate(src_ld.key_index):
        if b.is_endo_1cell(x):
            mor_map.append(tgt_ld.key_index[(f, obj_map[x], eta.comp2[bstar.cod[f]][payload])])
        else:
            mor_map.append(j)

    f0 = FunctorData.identity(bstar)
    f1 = FunctorData(src_ld.dc.c1, tgt_ld.dc.c1, tuple(obj_map), tuple(mor_map),
                     validate=False)
    return DoubleFunctor(f0, f1)
