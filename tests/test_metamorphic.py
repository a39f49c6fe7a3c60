"""Invariants that must survive relabelling a group or respelling it.

A relabelled table reaches the solvers through ``parse_table_text``, the
nilpotency check, the maximal-subgroup routes and the element signatures,
so these tests cover every layer with inputs whose element order differs.
"""

import pytest

import nimgen as ng

import support


def _diagram_shape(d: ng.SimplifiedDiagram) -> tuple:
    """Each merged vertex's type, size and option types, in sorted order."""
    return tuple(sorted(
        (tuple(v.vtype), len(v.members),
         tuple(sorted(tuple(d.vertices[b].vtype) for a, b in d.edges if a == i)))
        for i, v in enumerate(d.vertices)))


def _invariants(g: ng.GroupTable) -> tuple:
    gen = ng.solve(g, ng.GEN)
    dng = ng.solve(g, ng.DNG)
    lat = gen.lattice
    nims = ng.structure_nim(g, lat)
    dt = ng.deficiency_table(lat)
    shape = _diagram_shape(ng.simplify(ng.build_digraph(g, lat, nims, dt)))
    return gen.nim, dng.nim, len(lat.intersections), gen.d_g, shape


@pytest.mark.parametrize("spec", ng.EXTENDED_CATALOG)
def test_relabelling_keeps_every_invariant(spec):
    g = support.group(spec)
    relabelled = support.relabelled(g, seed=sum(map(ord, spec)))
    assert _invariants(relabelled) == _invariants(g)


@pytest.mark.parametrize("a,b", [
    ("Z3xZ4", "Z12"),
    ("Z2xZ3", "Z6"),
    ("Dih(Z2xZ3)", "Dih(Z6)"),
    ("Dih(Z3xZ5)", "Dih(Z15)"),
    ("Dih(Z2xZ2)", "Z2xZ2xZ2"),
])
def test_isomorphic_spellings_agree(a, b):
    assert _invariants(support.group(a)) == _invariants(support.group(b))


def _odd_frattini(spec: str) -> bool:
    n = support.lattice(spec).frattini_mask.bit_count()
    return n > 1 and n % 2 == 1


# Every maximal subgroup contains Φ(G), so G and G/Φ(G) have matching
# carriers, options and d(G), each carrier's order multiplied by |Φ(G)|.
# An odd |Φ(G)| keeps every parity, so both games and the diagram agree.
ODD_FRATTINI = [s for s in ng.EXTENDED_CATALOG if _odd_frattini(s)]


def test_odd_frattini_groups_of_the_catalog():
    assert ODD_FRATTINI == ["Z9", "Dih(Z9)", "Dih(Z3xZ9)"]


@pytest.mark.parametrize("spec", ODD_FRATTINI)
def test_frattini_quotient_keeps_every_invariant(spec):
    g = support.group(spec)
    quotient = support.frattini_quotient(g)
    assert quotient.order * support.lattice(spec).frattini_mask.bit_count() == g.order
    assert _invariants(quotient) == _invariants(g)
