import json
import random

import pytest

import nimgen as ng

import support


def test_type_of_dihz4():
    lat = support.lattice("Dih(Z4)")
    nims = support.nims("Dih(Z4)")
    assert ng.type_of(nims, lat, 0) == (0, 0, 2)
    assert ng.type_of(nims, lat, 1) == (0, 1, 2)
    assert ng.type_of(nims, lat, ng.TERMINAL) == (0, 0, 0)
    z7 = support.lattice("Z7")
    assert ng.type_of(support.nims("Z7"), z7, ng.TERMINAL) == (1, 0, 0)


def test_build_digraph_dihz4():
    d = support.digraph("Dih(Z4)")
    assert len(d.vertices) == 5
    assert len(d.edges) == 6
    by_cid = {v.cid: v for v in d.vertices}
    assert by_cid[0].carrier_order == 2
    assert by_cid[0].deficiency == 2
    assert by_cid[0].vtype == (0, 0, 2)
    assert by_cid[ng.TERMINAL].carrier_order == 8
    assert by_cid[ng.TERMINAL].deficiency == 0


def test_digraph_odd_types_dihz3z3():
    d = support.digraph("Dih(Z3xZ3)")
    dt = support.deficiencies("Dih(Z3xZ3)")
    expected = {1: (1, 2, 1), 2: (1, 3, 0), 3: (1, 3, 1)}
    odd = [v for v in d.vertices if v.parity == 1 and v.cid != ng.TERMINAL]
    assert odd, "odd classes must exist"
    for v in odd:
        assert tuple(v.vtype) == expected[dt.per_class[v.cid]]


def _relabelled_digraph(spec: str) -> tuple:
    """The lattice and digraph of a seeded relabelling of ``spec``'s table."""
    h = support.relabelled(support.group(spec), seed=sum(map(ord, spec)))
    r = ng.solve(h, ng.GEN, mode="structure")
    return r.lattice, ng.build_digraph(h, r.lattice, r.classes, r.deficiency)


@pytest.mark.parametrize("spec", ng.EXTENDED_CATALOG)
def test_digraph_addresses_every_class_by_id(spec):
    # vertices and options sit in class-id order with the terminal last, so
    # a class id, TERMINAL included, indexes both; edges flatten the options
    for lat, d in ((support.lattice(spec), support.digraph(spec)),
                   _relabelled_digraph(spec)):
        assert len(d.vertices) == len(d.options) == len(lat.options) + 1
        for cid in range(len(lat.options)):
            assert d.vertices[cid].cid == cid
            assert d.options[cid] == lat.options[cid]
        assert d.vertices[ng.TERMINAL].cid == ng.TERMINAL
        assert d.options[ng.TERMINAL] == ()
        assert d.edges == tuple((cid, j) for cid, opts in enumerate(lat.options)
                                for j in opts), spec


def test_simplify_matches_pairwise_merge_reference():
    # both games' class values, and simplify's own output as input
    for spec in ng.EXTENDED_CATALOG + ("A4", "S4"):
        g, lat = support.group(spec), support.lattice(spec)
        for nims in (support.nims(spec), ng.structure_nim(g, lat, ng.DNG)):
            d = ng.build_digraph(g, lat, nims, support.deficiencies(spec))
            s = ng.simplify(d)
            assert s == support.reference_simplify(d), spec
            assert s == support.reference_simplify(d, random.Random(len(spec)))
            assert ng.simplify(s) == support.reference_simplify(s) == s, spec


def test_simplify_dihz4():
    s = ng.simplify(support.digraph("Dih(Z4)"))
    assert len(s.vertices) == 3
    types = [tuple(v.vtype) for v in s.vertices]
    assert types == [(0, 0, 0), (0, 0, 2), (0, 1, 2)]
    assert [len(v.members) for v in s.vertices] == [1, 1, 3]
    assert s.edges == ((1, 2), (2, 0))


def test_simplify_prime_cyclic_unchanged():
    d = support.digraph("Z7")
    s = ng.simplify(d)
    assert len(s.vertices) == len(d.vertices) == 2
    assert all(len(v.members) == 1 for v in s.vertices)


def test_simplify_idempotent():
    for spec in ("Dih(Z4)", "Dih(Z5)", "Dih(Z3xZ3)", "Z2xZ2xZ2", "Z12"):
        s = ng.simplify(support.digraph(spec))
        assert ng.simplify(s) == s, spec


def test_simplify_merge_order_invariant():
    for spec in ("Dih(Z4)", "Dih(Z3xZ3)", "Z2xZ2xZ2"):
        base = ng.simplify(support.digraph(spec))
        for seed in range(10):
            shuffled = ng.simplify(support.digraph(spec),
                                   rng=random.Random(seed))
            assert shuffled == base, (spec, seed)


def test_terminal_never_merges():
    # no class shares the terminal's type and profile, whichever game's
    # values the digraph carries, and simplifying again keeps it alone
    for spec in ng.EXTENDED_CATALOG + ("A4", "S4"):
        g, lat = support.group(spec), support.lattice(spec)
        for nims in (support.nims(spec), ng.structure_nim(g, lat, ng.DNG)):
            s = ng.simplify(ng.build_digraph(g, lat, nims,
                                             support.deficiencies(spec)))
            for d in (s, ng.simplify(s)):
                homes = [v.members for v in d.vertices
                         if ng.TERMINAL in v.members]
                assert homes == [(ng.TERMINAL,)], spec


def test_to_dot_full():
    text = ng.to_dot(support.digraph("Dih(Z4)"))
    assert text.startswith("digraph structure {\n")
    assert text.endswith("}\n")
    assert 'label="I=2 pty=0 d=2 type=(0,0,2)"' in text
    assert text.count("->") == 6


def test_to_dot_plain_and_simplified():
    plain = ng.to_dot(support.digraph("Z7"), style="plain")
    assert 'label="(1,2,1)"' in plain
    simp = ng.to_dot(ng.simplify(support.digraph("Dih(Z4)")))
    assert 'label="type=(0,1,2) members=3"' in simp
    assert simp.count("->") == 2


def test_to_dot_rejects_unknown_style():
    with pytest.raises(ValueError):
        ng.to_dot(support.digraph("Z7"), style="fancy")


def test_dict_dumps_are_json_ready():
    d = support.digraph("Dih(Z4)")
    full = ng.digraph_to_dict(d)
    simp = ng.simplified_to_dict(ng.simplify(d))
    json.dumps(full)
    json.dumps(simp)
    assert {v["cid"] for v in full["vertices"]} == {ng.TERMINAL, 0, 1, 2, 3}
    assert full["edges"] == sorted(full["edges"])
    assert [v["members"] for v in simp["vertices"]] == [[-1], [0], [1, 2, 3]]
