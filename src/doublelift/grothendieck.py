"""The Grothendieck construction for monoidal pre-cosheaves on a decoration,
and its extension by the non-endo cells of the bicategory.

A pre-cosheaf assigns to each 0-cell ``a`` the endomorphism category
End_B(a) (this is forced, so we store no fiber data) and to each decoration
morphism ``f: a -> b`` a strict monoidal functor End_B(a) -> End_B(b),
recorded directly as maps on the bicategory's 1- and 2-cells.

The extended total category keeps one record per morphism, its key (f, top
1-cell, payload), off which its sides, 1-cells and payload are read.
"""

from __future__ import annotations

from .errors import StructureError
from .fincat import FiniteCategory, Frozen, MonoidAction
from .twocat import DecoratedBicategory, check_monoidal_map


class Precosheaf(Frozen):
    _fields = ("dec", "on_cells1", "on_cells2")

    def __init__(self, dec: DecoratedBicategory, on_cells1, on_cells2):
        vars(self).update(dec=dec, on_cells1=tuple(dict(m) for m in on_cells1),
                          on_cells2=tuple(dict(m) for m in on_cells2))
        self.__post_init__()

    def _validate(self):
        b, bstar = self.dec.bicat, self.dec.decoration
        if len(self.on_cells1) != bstar.n_morphisms or len(self.on_cells2) != bstar.n_morphisms:
            raise StructureError("action-shape", "one action per decoration morphism required")
        for f in range(bstar.n_morphisms):
            check_monoidal_map(b, bstar.dom[f], bstar.cod[f], self.on_cells1[f], self.on_cells2[f],
                               "action", f"morphism {f}", ("action-domain", f"map of morphism {f}"))
        # functoriality of the whole family
        ids1, ids2 = b.identity_maps(range(bstar.n_objects))
        for a, i in enumerate(bstar.identity):
            if self.on_cells1[i] != ids1[a] or self.on_cells2[i] != ids2[a]:
                raise StructureError("precosheaf-identity", f"object {a}")
        for (g, f), h in bstar.composition.items():
            comp1 = {x: self.on_cells1[g][v] for x, v in self.on_cells1[f].items()}
            comp2 = {p: self.on_cells2[g][v] for p, v in self.on_cells2[f].items()}
            if self.on_cells1[h] != comp1 or self.on_cells2[h] != comp2:
                raise StructureError("precosheaf-functoriality", f"({g}, {f})")


def precosheaf_from_action(dec: DecoratedBicategory, action: MonoidAction) -> Precosheaf:
    """Pre-cosheaf over a single-object decoration (Omega M, 2 Omega N),
    where the action is a family of monoid endomorphisms of N."""
    b = dec.bicat
    bstar = dec.decoration
    if bstar.n_objects != 1 or b.n0 != 1 or b.n1 != 1:
        raise StructureError("shape-mismatch", "expected a delooping-shaped decorated bicategory")
    if bstar.n_morphisms != action.acting.size or b.n2 != action.target.size:
        raise StructureError("shape-mismatch", "action does not match the decoration")
    on1 = tuple({0: 0} for _ in range(bstar.n_morphisms))
    on2 = tuple({x: action.maps[m][x] for x in range(b.n2)} for m in range(bstar.n_morphisms))
    return Precosheaf(dec, on1, on2)


def identity_precosheaf(dec: DecoratedBicategory) -> Precosheaf:
    """All actions the identity. Only well-typed when every decoration
    morphism is an endomorphism."""
    bstar = dec.decoration
    for f in range(bstar.n_morphisms):
        if bstar.dom[f] != bstar.cod[f]:
            raise StructureError("shape-mismatch",
                                 f"morphism {f} is not an endomorphism; no identity action")
    return Precosheaf(dec, *dec.bicat.identity_maps(bstar.dom))


def constant_precosheaf(dec: DecoratedBicategory) -> Precosheaf:
    """Collapse every non-identity action to the monoidal unit.

    This is only functorial when no composite of non-identity decoration
    morphisms is an identity; validation rejects decorations (e.g. by a
    non-trivial group) where that fails.
    """
    b = dec.bicat
    bstar = dec.decoration
    on1, on2 = (list(maps) for maps in b.identity_maps(bstar.dom))
    for f in range(bstar.n_morphisms):
        if not bstar.is_identity(f):
            unit = b.id1[bstar.cod[f]]
            on1[f] = dict.fromkeys(on1[f], unit)
            on2[f] = dict.fromkeys(on2[f], b.id2[unit])
    return Precosheaf(dec, tuple(on1), tuple(on2))


# ---------------------------------------------------------------------------
# the extended total category


def extended_total(dec: DecoratedBicategory, phi: Precosheaf
                   ) -> tuple[FiniteCategory, dict[tuple[int, int, int], int]]:
    """The extended total category of ``phi`` over ``dec``, on the 1-cells
    of the bicategory, and its key index.  It is the disjoint union of the
    non-endo cells and the Grothendieck total category, its full subcategory
    on the endo 1-cells, whose morphisms are the pairs (f, payload) with
    payload: Phi_f(x) -> x'.

    ``key_index`` maps the key (f, x, payload) of each morphism x -> x' to
    its index, in square order: the 2-cells ``0..n2-1``, each the pair over
    the identity of its left 0-cell since Phi_id = id, then the pairs over
    non-identity decoration morphisms.

    Precondition: checked ``dec`` and ``phi``.  The category is then a
    category by the Grothendieck construction, so it is not checked.
    """
    if phi.dec != dec:
        raise StructureError("fiber-constraint", "pre-cosheaf is not attached to this decoration")
    b = dec.bicat
    bstar = dec.decoration

    key_index = {(bstar.identity[b.dom0[b.dom1[p]]], b.dom1[p], p): p for p in range(b.n2)}
    for f in range(bstar.n_morphisms):
        if bstar.is_identity(f):
            continue
        for x in b.endo_cells[bstar.dom[f]][0]:
            fx = phi.on_cells1[f][x]
            for p in b.endo_cells[bstar.cod[f]][1]:
                if b.dom1[p] == fx:
                    key_index[(f, x, p)] = len(key_index)

    keys = list(key_index)
    dom = tuple(x for _, x, _ in keys)
    cod = tuple(b.cod1[p] for _, _, p in keys)
    identity = tuple(b.id2[x] for x in range(b.n1))
    comp: dict[tuple[int, int], int] = {}
    ending_at: list[list[int]] = [[] for _ in range(b.n1)]  # the morphisms into each 1-cell
    for p, x in enumerate(cod):
        ending_at[x].append(p)
    # the pair composite q after p: (f_q f_p, x_p, p_q . Phi_{f_q}(p_p)); a
    # non-endo p lies over an identity, whose Phi fixes it
    for q, (fq, x, pq) in enumerate(keys):
        act = phi.on_cells2[fq]
        for p in ending_at[x]:
            fp, xp, pp = keys[p]
            comp[q, p] = key_index[bstar.composition[fq, fp], xp, b.vcomp[pq, act.get(pp, pp)]]
    cat = FiniteCategory(b.n1, dom, cod, identity, comp, validate=False)
    return cat, key_index
