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
