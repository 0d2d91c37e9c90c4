"""Recovering a pre-cosheaf from a globularily generated double category of
vertical length one over a one-object group decoration, the comparison
functor from the lift of the recovered pre-cosheaf, and the triangle
identities making the two constructions adjoint.
"""

from __future__ import annotations

import itertools

from .analysis import _search_limit, gamma_data, single_object_monoids, single_object_precosheaf
from .doublecat import DoubleCategory, DoubleFunctor, globular_squares
from .errors import StructureError
from .fincat import (FunctorData, Monoid, delooping, endomorphism_monoid_of_object,
                     monoid_endomorphisms, monoid_homomorphisms, monoidal_delooping)
from .grothendieck import Precosheaf
from .lift import LiftData, PrecosheafMap, lift_data, lift_functor
from .twocat import DecoratedBicategory, decorate, suspend


def _check_shape(c: DoubleCategory) -> None:
    if c.c0.n_objects != 1:
        raise StructureError("shape-mismatch", "decoration must have a single object")
    if c.c1.n_objects != 1:
        raise StructureError("shape-mismatch", "expected a single horizontal 1-cell")
    if not endomorphism_monoid_of_object(c.c0, 0)[0].is_group():
        raise StructureError("not-a-group", "vertical morphisms must form a group")
    gd = gamma_data(c)
    if gd.dc is not c:
        raise StructureError("not-gg", "double category is not globularily generated")
    if len(gd.levels) != 1:
        raise StructureError("vertical-length", "vertical length must be 1")


def extract_phi(c: DoubleCategory) -> Precosheaf:
    """Read off the pre-cosheaf of a length-one GG double category over a
    one-object group decoration.

    The action of a vertical morphism g on a globular square a is the
    vertical composite of i_{g^{-1}}, then a, then i_g: the unique globular
    square q with q . i_g == i_g . a, which single_object_precosheaf reads.
    """
    _check_shape(c)
    return single_object_precosheaf(c)


def pi_functor(c: DoubleCategory) -> DoubleFunctor:
    """The comparison functor from the lift of the extracted pre-cosheaf
    back to c.  It is the identity on the decoration, sends the globular
    square with index i back to the i-th globular square of c, and sends a
    pair square (g, a) to the composite of that globular square with i_g.
    The result is checked to be a full double functor fixing the
    horizontalization."""
    phi = extract_phi(c)
    return _comparison(c, lift_data(phi.dec, phi))


def _comparison(c: DoubleCategory, ld: LiftData) -> DoubleFunctor:
    """pi_functor for c, given the lift of the pre-cosheaf extracted from c."""
    glob = sorted(globular_squares(c))
    # a 2-cell is the pair over the identity, whose i_id is an identity square
    mor_map = tuple(c.c1.compose(glob[payload], c.hid.morphism_map[g])
                    for g, _, payload in ld.key_index)
    f0 = FunctorData.identity(c.c0)
    f1 = FunctorData(ld.dc.c1, c.c1, (0,), mor_map)
    df = DoubleFunctor(f0, f1)
    df.check(ld.dc, c)
    if set(f1.morphism_map) != set(range(c.c1.n_morphisms)):
        raise StructureError("pi-not-full", "comparison functor misses a square")
    return df


def phi_of_double_functor(f: DoubleFunctor, c: DoubleCategory, d: DoubleCategory) -> PrecosheafMap:
    """Restrict a double functor between internalizations of the same
    decorated bicategory to globular squares, giving a map of the extracted
    pre-cosheaves."""
    ident = tuple(range(c.c0.n_morphisms))
    if f.f0.object_map != (0,) or f.f0.morphism_map != ident:
        raise StructureError("base-not-identity", "double functor must fix the decoration")
    return _globular_map(f, _globular(c)[0], _globular(d)[1], extract_phi(c), extract_phi(d))


def _globular(c: DoubleCategory) -> tuple[list[int], dict[int, int]]:
    """The globular squares of ``c`` in ascending order, and the position
    of each in that order."""
    glob = sorted(globular_squares(c))
    return glob, {p: i for i, p in enumerate(glob)}


def _globular_map(f: DoubleFunctor, glob_c: list[int], pos_d: dict[int, int],
                  phi_c: Precosheaf, phi_d: Precosheaf) -> PrecosheafMap:
    """phi_of_double_functor for a functor that fixes the decoration, given
    the globular squares of its source c and their positions in its
    target d (see ``_globular``) and the pre-cosheaves extracted from c
    and d."""
    comp2 = {}
    for i, p in enumerate(glob_c):
        image = f.f1.morphism_map[p]
        if image not in pos_d:
            raise StructureError("globular-not-preserved", f"square {p}")
        comp2[i] = pos_d[image]
    return PrecosheafMap(phi_c, phi_d, ({0: 0},), (comp2,))


def enumerate_precosheaf_maps(phi: Precosheaf, psi: Precosheaf) -> list[PrecosheafMap]:
    """All natural transformations between single-object pre-cosheaves.

    Over one 0-cell and one 1-cell the horizontal composite of 2-cells is
    the vertical one (Eckmann-Hilton), so a strict monoidal component is a
    monoid endomorphism of the globular monoid; each candidate is then
    checked for naturality by the PrecosheafMap constructor."""
    if phi.dec.decoration.n_objects != 1 or phi.dec.bicat.n1 != 1:
        raise StructureError("shape-mismatch", "enumeration needs the one-object shape")
    _, a = single_object_monoids(phi.dec)
    out = []
    for candidate in monoid_endomorphisms(a):
        try:
            eta = PrecosheafMap(phi, psi, ({0: 0},), (dict(enumerate(candidate)),))
        except StructureError:
            continue
        out.append(eta)
    return out


def group_decoration(g: Monoid, a: Monoid) -> DecoratedBicategory:
    """(Omega G, 2 Omega A), over which a group g acts on a commutative
    monoid a."""
    if not g.is_group():
        raise StructureError("not-a-group", "decorating monoid must be a group")
    return decorate(delooping(g), suspend(monoidal_delooping(a)))


def check_triangle_identities(phis: list[Precosheaf]) -> tuple[tuple[str, bool, str], ...]:
    """Verify both triangle laws and the naturality of the comparison
    functors over a family of pre-cosheaves on a group decoration
    (Omega G, 2 Omega A), each lifted over its own ``dec``.  Returns the
    (name, passed, detail) entries; extract_phi rejects other shapes.

    A naturality candidate is an ordered pair of pre-cosheaves and an
    endomorphism of A.  When there are more candidates than the search
    budget, the naturality entries are replaced by one failed entry that
    says so; End(A) is drawn only until the count exceeds the budget."""
    entries: list[tuple[str, bool, str]] = []
    # each lift with the square map of its comparison functor, its
    # extracted pre-cosheaf and its globular squares, built once and reused
    # below; every functor passed to _globular_map fixes the decoration
    lifts = []
    for i, phi in enumerate(phis):
        ld = lift_data(phi.dec, phi)

        recovered = extract_phi(ld.dc)
        ok = recovered == phi
        entries.append((f"round-trip[{i}]", ok, "extract_phi(lift) == phi"))

        # pi_functor(ld.dc): ld is the lift of recovered when the round trip
        # holds, as the theorem says it does; when it fails, its entry fails
        # and the naturality loop below raises "wiring"
        pi = _comparison(ld.dc, ld)
        glob, pos = _globular(ld.dc)
        lifts.append((ld, pi.f1.morphism_map, recovered, glob, pos))
        ident1 = tuple(range(ld.dc.c1.n_morphisms))
        ok = pi.f1.morphism_map == ident1 and pi.f1.object_map == (0,)
        entries.append((f"pi-identity[{i}]", ok, "pi on a lift is the identity"))

        eta = _globular_map(pi, glob, pos, recovered, recovered)
        ident2 = {x: x for x in range(phi.dec.bicat.n2)}
        ok = eta.comp2[0] == ident2
        entries.append((f"phi-of-pi-identity[{i}]", ok, "extracted map of pi is the identity"))

    if phis:
        limit = _search_limit()
        _, a = single_object_monoids(phis[0].dec)
        pairs = len(phis) ** 2
        endos = monoid_homomorphisms(a, a.table, a.unit)
        if sum(1 for _ in itertools.islice(endos, limit // pairs + 1)) * pairs > limit:
            entries.append(("naturality", False, f"inconclusive (budget {limit} exceeded)"))
            return tuple(entries)

    # naturality of pi for every map f: f . pi_i == pi_j . L(back), compared on squares
    for i, (ld1, pi1, phi1, glob1, _) in enumerate(lifts):
        for j, (ld2, pi2, phi2, _, pos2) in enumerate(lifts):
            for k, eta in enumerate(enumerate_precosheaf_maps(ld1.phi, ld2.phi)):
                f = lift_functor(eta, ld1, ld2)
                back = _globular_map(f, glob1, pos2, phi1, phi2)
                lifted_back = lift_functor(back, ld1, ld2).f1.morphism_map
                ok = [f.f1.morphism_map[p] for p in pi1] == [pi2[p] for p in lifted_back]
                entries.append((f"naturality[{i},{j},{k}]", ok,
                                "comparison commutes with lifted maps"))
    return tuple(entries)
