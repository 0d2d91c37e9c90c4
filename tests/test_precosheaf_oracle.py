"""Differential tests of the shared strict-monoidal-map checker against the
two law loops it replaced.

``oracle_precosheaf`` and ``oracle_map`` are the validators that
``Precosheaf`` and ``PrecosheafMap`` ran before their laws moved into
``twocat.check_monoidal_map``: each recomputes the endo cells of every
0-cell and checks the action or component laws inline.  On single-entry
mutations of the corpus pre-cosheaves and of identity and collapse maps, the
constructors must accept exactly what the oracles accept, and otherwise raise
the same message.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from doublelift.errors import StructureError
from doublelift.grothendieck import Precosheaf
from doublelift.lift import PrecosheafMap


def oracle_precosheaf(dec, on_cells1, on_cells2) -> None:
    on_cells1 = tuple(dict(m) for m in on_cells1)
    on_cells2 = tuple(dict(m) for m in on_cells2)
    b = dec.bicat
    bstar = dec.decoration
    if len(on_cells1) != bstar.n_morphisms or len(on_cells2) != bstar.n_morphisms:
        raise StructureError("action-shape", "one action per decoration morphism required")
    endo_at = [
        {x for x in range(b.n1) if b.is_endo_1cell(x) and b.dom0[x] == a}
        for a in range(b.n0)
    ]
    cells2_at = [
        {p for p in range(b.n2) if b.dom1[p] in endo_at[a]} for a in range(b.n0)
    ]
    for f in range(bstar.n_morphisms):
        a, bb = bstar.dom[f], bstar.cod[f]
        m1, m2 = on_cells1[f], on_cells2[f]
        if set(m1) != endo_at[a] or not set(m1.values()) <= endo_at[bb]:
            raise StructureError("action-domain", f"1-cell map of morphism {f}")
        if set(m2) != cells2_at[a] or not set(m2.values()) <= cells2_at[bb]:
            raise StructureError("action-domain", f"2-cell map of morphism {f}")
        for p in cells2_at[a]:
            if b.dom1[m2[p]] != m1[b.dom1[p]] or b.cod1[m2[p]] != m1[b.cod1[p]]:
                raise StructureError("action-boundary", f"morphism {f}, 2-cell {p}")
        for x in endo_at[a]:
            if m2[b.id2[x]] != b.id2[m1[x]]:
                raise StructureError("action-identity", f"morphism {f}, 1-cell {x}")
        for (q, p) in b.vcomp:
            if q in m2 and p in m2:
                if m2[b.vcomp[(q, p)]] != b.vcomp[(m2[q], m2[p])]:
                    raise StructureError("action-composition", f"morphism {f}, ({q}, {p})")
        if m1[b.id1[a]] != b.id1[bb]:
            raise StructureError("action-monoidal-unit", f"morphism {f}")
        for x in endo_at[a]:
            for y in endo_at[a]:
                if m1[b.hcomp1[(x, y)]] != b.hcomp1[(m1[x], m1[y])]:
                    raise StructureError("action-monoidal", f"morphism {f}, 1-cells ({x}, {y})")
        for p in cells2_at[a]:
            for q in cells2_at[a]:
                if m2[b.hcomp2[(p, q)]] != b.hcomp2[(m2[p], m2[q])]:
                    raise StructureError("action-monoidal", f"morphism {f}, 2-cells ({p}, {q})")
    for a in range(bstar.n_objects):
        i = bstar.identity[a]
        if on_cells1[i] != {x: x for x in endo_at[a]} or \
           on_cells2[i] != {p: p for p in cells2_at[a]}:
            raise StructureError("precosheaf-identity", f"object {a}")
    for (g, f), h in bstar.composition.items():
        comp1 = {x: on_cells1[g][v] for x, v in on_cells1[f].items()}
        comp2 = {p: on_cells2[g][v] for p, v in on_cells2[f].items()}
        if on_cells1[h] != comp1 or on_cells2[h] != comp2:
            raise StructureError("precosheaf-functoriality", f"({g}, {f})")


def oracle_map(phi, psi, comp1, comp2) -> None:
    comp1 = tuple(dict(m) for m in comp1)
    comp2 = tuple(dict(m) for m in comp2)
    if phi.dec != psi.dec:
        raise StructureError("naturality", "pre-cosheaves over different decorations")
    dec = phi.dec
    b = dec.bicat
    bstar = dec.decoration
    if len(comp1) != bstar.n_objects or len(comp2) != bstar.n_objects:
        raise StructureError("component-shape", "one component per decoration object")
    for a in range(bstar.n_objects):
        endo = {x for x in range(b.n1) if b.is_endo_1cell(x) and b.dom0[x] == a}
        cells2 = {p for p in range(b.n2) if b.dom1[p] in endo}
        m1, m2 = comp1[a], comp2[a]
        if set(m1) != endo or not set(m1.values()) <= endo:
            raise StructureError("component-shape", f"1-cell component at object {a}")
        if set(m2) != cells2 or not set(m2.values()) <= cells2:
            raise StructureError("component-shape", f"2-cell component at object {a}")
        for p in cells2:
            if b.dom1[m2[p]] != m1[b.dom1[p]] or b.cod1[m2[p]] != m1[b.cod1[p]]:
                raise StructureError("component-boundary", f"object {a}, 2-cell {p}")
        for x in endo:
            if m2[b.id2[x]] != b.id2[m1[x]]:
                raise StructureError("component-identity", f"object {a}, 1-cell {x}")
        for (q, p) in b.vcomp:
            if q in m2 and p in m2 and m2[b.vcomp[(q, p)]] != b.vcomp[(m2[q], m2[p])]:
                raise StructureError("component-composition", f"object {a}, ({q}, {p})")
        if m1[b.id1[a]] != b.id1[a]:
            raise StructureError("component-monoidal-unit", f"object {a}")
        for x in endo:
            for y in endo:
                if m1[b.hcomp1[(x, y)]] != b.hcomp1[(m1[x], m1[y])]:
                    raise StructureError("component-monoidal", f"object {a}, 1-cells ({x}, {y})")
        for p in cells2:
            for q in cells2:
                if m2[b.hcomp2[(p, q)]] != b.hcomp2[(m2[p], m2[q])]:
                    raise StructureError("component-monoidal", f"object {a}, 2-cells ({p}, {q})")
    for f in range(bstar.n_morphisms):
        a, bb = bstar.dom[f], bstar.cod[f]
        for x, v in phi.on_cells1[f].items():
            if comp1[bb][v] != psi.on_cells1[f][comp1[a][x]]:
                raise StructureError("naturality", f"morphism {f}, 1-cell {x}")
        for p, v in phi.on_cells2[f].items():
            if comp2[bb][v] != psi.on_cells2[f][comp2[a][p]]:
                raise StructureError("naturality", f"morphism {f}, 2-cell {p}")


def _outcome(build) -> object:
    try:
        build()
    except Exception as exc:  # a crash in either must show up as a mismatch
        return type(exc).__name__, str(exc)
    return "accepted"


def _mutate(maps, index, op, key, value, n):
    """One single-entry change of ``maps[index % len(maps)]``: a new value
    for an existing key, a dropped key, or an added key."""
    maps = [dict(m) for m in maps]
    m = maps[index % len(maps)]
    keys = sorted(m)
    if op == "value" and keys:
        m[keys[key % len(keys)]] = value % n
    elif op == "drop" and keys:
        del m[keys[key % len(keys)]]
    else:
        m[key % (n + 1)] = value % n
    return tuple(maps)


def _collapse(phi):
    """Every component sends the endo cells at a to the unit 1-cell at a
    and its identity 2-cell: a map from phi to itself."""
    b = phi.dec.bicat
    comp1 = tuple({x: b.id1[a] for x in cells1} for a, (cells1, _) in enumerate(b.endo_cells))
    comp2 = tuple({p: b.id2[b.id1[a]] for p in cells2} for a, (_, cells2) in enumerate(b.endo_cells))
    return PrecosheafMap(phi, phi, comp1, comp2)


_MUTATION = (st.integers(min_value=0), st.sampled_from(["value", "drop", "add"]),
             st.integers(min_value=0), st.integers(min_value=0), st.integers(min_value=0),
             st.booleans())


def test_oracles_accept_the_corpus(corpus):
    tags = [tag for tag, _, _ in corpus]
    assert "twoobject" in tags
    for tag, dec, phi in corpus:
        oracle_precosheaf(dec, phi.on_cells1, phi.on_cells2)
        for eta in (PrecosheafMap.identity(phi), _collapse(phi)):
            oracle_map(phi, phi, eta.comp1, eta.comp2)


@settings(max_examples=300, deadline=None)
@given(*_MUTATION)
def test_precosheaf_agrees_with_the_oracle(corpus, which, op, index, key, value, on_cells2):
    tag, dec, phi = corpus[which % len(corpus)]
    n = dec.bicat.n2 if on_cells2 else dec.bicat.n1
    on1, on2 = phi.on_cells1, phi.on_cells2
    if on_cells2:
        on2 = _mutate(on2, index, op, key, value, n)
    else:
        on1 = _mutate(on1, index, op, key, value, n)
    assert _outcome(lambda: Precosheaf(dec, on1, on2)) == \
        _outcome(lambda: oracle_precosheaf(dec, on1, on2)), (tag, op)


@settings(max_examples=300, deadline=None)
@given(*_MUTATION, st.booleans())
def test_precosheaf_map_agrees_with_the_oracle(corpus, which, op, index, key, value, on_comp2,
                                               collapse):
    tag, dec, phi = corpus[which % len(corpus)]
    eta = _collapse(phi) if collapse else PrecosheafMap.identity(phi)
    n = dec.bicat.n2 if on_comp2 else dec.bicat.n1
    comp1, comp2 = eta.comp1, eta.comp2
    if on_comp2:
        comp2 = _mutate(comp2, index, op, key, value, n)
    else:
        comp1 = _mutate(comp1, index, op, key, value, n)
    assert _outcome(lambda: PrecosheafMap(phi, phi, comp1, comp2)) == \
        _outcome(lambda: oracle_map(phi, phi, comp1, comp2)), (tag, op)


def test_mutations_reach_every_law(corpus):
    """Exhaustive single-value changes of the corpus actions and of the
    collapse maps fail each law that single-entry changes can reach first,
    so the properties above are not vacuous.  (A changed value that keeps
    vertical composition also keeps the tensor on these end categories.)"""
    laws = set()
    for tag, dec, phi in corpus:
        eta = _collapse(phi)
        b = dec.bicat
        cases = (
            (phi.on_cells1, b.n1, lambda m: Precosheaf(dec, m, phi.on_cells2)),
            (phi.on_cells2, b.n2, lambda m: Precosheaf(dec, phi.on_cells1, m)),
            (eta.comp1, b.n1, lambda m: PrecosheafMap(phi, phi, m, eta.comp2)),
            (eta.comp2, b.n2, lambda m: PrecosheafMap(phi, phi, eta.comp1, m)),
        )
        for maps, n, build in cases:
            for index in range(len(maps)):
                for key in range(len(maps[index])):
                    for value in range(n):
                        try:
                            build(_mutate(maps, index, "value", key, value, n))
                        except StructureError as exc:
                            laws.add(exc.law)
    assert {"action-domain", "action-boundary", "action-identity", "action-composition",
            "component-shape", "component-boundary", "component-identity",
            "component-composition"} <= laws, laws
