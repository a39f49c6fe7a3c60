import pytest
from hypothesis import given
from hypothesis import strategies as st

import nimgen as ng

import support


def test_mex_basics():
    assert ng.mex([]) == 0
    assert ng.mex({0, 1, 3}) == 2
    assert ng.mex({1, 2}) == 0
    assert ng.mex(range(5)) == 5


@given(st.sets(st.integers(min_value=0, max_value=40)))
def test_mex_property(values):
    m = ng.mex(values)
    assert m not in values
    assert set(range(m)) <= values


@given(st.sets(st.integers(min_value=0, max_value=12)),
       st.sets(st.integers(min_value=0, max_value=12)))
def test_within_class_move_keeps_the_carrier_value(a, b):
    # structure_nim: n_carrier = mex(A), n_other = mex(B | {n_carrier}).
    # Positions of the carrier's parity below the carrier also reach
    # n_other; that move never changes their mex.
    n_carrier = ng.mex(a)
    assert ng.mex(a | {ng.mex(b | {n_carrier})}) == n_carrier


def test_brute_gen_z2():
    # nim(∅)=mex{nim{e}=1, nim{g}=0}=2, worked by hand
    memo = support.brute_memo("Z2", ng.GEN)
    assert memo[0] == 2
    assert memo[0b01] == 1
    assert 0b10 not in memo  # {g} generates Z2: terminal, not memoized
    assert ng.brute_nim(support.group("Z2"), ng.GEN) == 2


def test_brute_dng_z2():
    memo = support.brute_memo("Z2", ng.DNG)
    assert memo[0b01] == 0
    assert memo[0] == 1


def test_brute_known_values():
    assert ng.brute_nim(support.group("Dih(Z5)"), ng.DNG) == 3
    assert ng.brute_nim(support.group("Dih(Z4)"), ng.DNG) == 0
    assert ng.brute_nim(support.group("Z2xZ2"), ng.GEN) == 1
    assert ng.brute_nim(support.group("Dih(Z3)"), ng.GEN) == 3


def test_brute_caps():
    with pytest.raises(ng.CapacityError):
        ng.brute_nim(support.group("Dih(Z4)"), ng.GEN, brute_cap=4)
    with pytest.raises(ValueError):
        ng.brute_nim(ng.build_cyclic(1), ng.GEN)


@pytest.mark.parametrize("variant", [ng.GEN, ng.DNG])
@pytest.mark.parametrize("spec,seed", [
    *((spec, None) for spec in ng.SMALL_CATALOG + ("Z2xZ2xZ2xZ2",)),
    ("A4", None),  # non-normal subgroups of index 3 and 4
    ("Dih(Z2xZ4)", 9),  # a seeded relabelling read back from a table
])
def test_brute_search_matches_reference(spec, seed, variant):
    # The reference also stores the generating positions GEN reaches; the
    # search stores only non-generating ones, the same keys in both games.
    g = support.group(spec)
    if seed is not None:
        g = support.relabelled(g, seed)
    memo = ng.brute_search(g, variant)
    ref = support.reference_brute_search(g, variant)
    proper = {m: v for m, v in ref.items()
              if support.reference_closure(g, m) != g.full_mask}
    assert memo == proper
    assert all(v == 0 for m, v in ref.items() if m not in proper)
    if variant == ng.GEN:
        assert memo.keys() == ng.brute_search(g, ng.DNG).keys()


@pytest.mark.parametrize("variant", [ng.GEN, ng.DNG])
def test_brute_matches_structure_above_brute_cap(variant):
    # Every extended-catalog group of order 2..26, up to Dih(Z2xZ6), whose
    # GEN search memoizes 28,392 positions.
    specs = [s for s in ng.EXTENDED_CATALOG if 2 <= support.group(s).order <= 26]
    assert {"Dih(Z12)", "Dih(Z3xZ3)", "Dih(Z2xZ6)"} <= set(specs)
    for spec in specs:
        g = support.group(spec)
        assert ng.brute_nim(g, variant, brute_cap=g.order) == \
            ng.structure_nim(g, support.lattice(spec), variant).game_nim, spec


@pytest.mark.parametrize("variant", [ng.GEN, ng.DNG])
def test_brute_matches_structure_on_permutation_groups(variant):
    # A4 and S4 are not dihedral, so their maximals come from enumeration
    for name, want in (("A4", 3), ("S4", 0)):
        g = support.group(name)
        nim = ng.structure_nim(g, ng.intersection_subgroups(g), variant).game_nim
        assert nim == want, g.label
        assert ng.brute_nim(g, variant, brute_cap=24) == nim, g.label


@pytest.mark.parametrize("variant", [ng.GEN, ng.DNG])
def test_brute_search_closes_each_join_once(variant, monkeypatch):
    # One coset extension per (subgroup H, double coset HxH outside H) at most.
    import nimgen.groups

    calls = []
    extend = nimgen.groups.extend_subgroup

    def counting(g, h, elems, gens, x):
        calls.append((h, x))
        return extend(g, h, elems, gens, x)

    g = support.group("Dih(Z13)")
    mul = g.mul
    bound = 0
    for h in ng.all_subgroups(g):
        rest = g.full_mask & ~h
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= ~ng.mask_of(mul[mul[a][x]][b]
                                for a in ng.iter_mask(h) for b in ng.iter_mask(h))
            bound += 1
    assert bound == 104
    monkeypatch.setattr(nimgen.groups, "extend_subgroup", counting)
    # the 8,218 non-generating positions, the same keys in either game
    assert len(ng.brute_search(g, variant, brute_cap=g.order)) == 8218
    assert 0 < len(calls) <= bound


def test_structure_nim_dihz4_frozen():
    nims = support.nims("Dih(Z4)")
    assert nims.per_class[0] == (0, 2)
    assert nims.per_class[1] == (1, 2)
    assert nims.per_class[2] == (1, 2)
    assert nims.per_class[3] == (1, 2)
    assert nims.per_class[ng.TERMINAL] == (0, 0)
    assert nims.game_nim == 0


def test_structure_nim_dihz5_frozen():
    lat = support.lattice("Dih(Z5)")
    nims = support.nims("Dih(Z5)")
    by_mask = {m: i for i, m in enumerate(lat.intersections)}
    rotations = by_mask[0b11111]
    trivial = by_mask[1]
    assert nims.per_class[rotations] == (2, 1)
    assert nims.per_class[trivial] == (3, 0)
    reflection_cids = set(nims.per_class) - {rotations, trivial, ng.TERMINAL}
    assert all(nims.per_class[c] == (1, 2) for c in reflection_cids)
    assert nims.game_nim == 3


def test_structure_solves_avoidance():
    # Dih(Z5) under DNG: the rotations class loses its only option, the
    # terminal class, so its carrier is a dead end of value 0.
    lat = support.lattice("Dih(Z5)")
    nims = ng.structure_nim(support.group("Dih(Z5)"), lat, ng.DNG)
    assert nims.per_class[lat.intersections.index(0b11111)] == (1, 0)
    assert nims.game_nim == 3


def test_structure_matches_brute_dng_cells():
    # every non-generating position's DNG value is its (class, parity) cell
    for spec in ng.SMALL_CATALOG + ("Z2xZ2xZ2xZ2",):
        g = support.group(spec)
        lat = support.lattice(spec)
        nims = ng.structure_nim(g, lat, ng.DNG)
        memo = support.brute_memo(spec, ng.DNG)
        for mask, nim in memo.items():
            cid = ng.ceil_class(lat, g, mask)
            assert nims.per_class[cid][mask.bit_count() & 1] == nim, (spec, mask)
        assert nims.game_nim == memo[0], spec


def test_structure_dng_matches_prediction():
    for spec in ng.ABELIAN_CATALOG:
        a = ng.AbelianSpec.from_spec(spec)
        assert ng.nim_of_game(f"Dih({a.spec_string})", ng.DNG,
                              mode="structure") == ng.predict_dng_dih(a), spec


def test_structure_matches_brute_small():
    for spec in ("Z2", "Z3", "Z4", "Z5", "Z6", "Z2xZ2", "Dih(Z3)", "Dih(Z4)",
                 "Dih(Z5)", "Z2xZ4", "Z12"):
        assert support.nims(spec).game_nim == support.brute_memo(spec)[0], spec


def test_equal_nim_within_class_and_parity():
    # every brute-force value is a function of (class, position parity)
    for spec in ("Dih(Z4)", "Dih(Z5)", "Z12", "Z2xZ4"):
        g = support.group(spec)
        lat = support.lattice(spec)
        cells = {}
        for mask, nim in support.brute_memo(spec).items():
            key = (ng.ceil_class(lat, g, mask), mask.bit_count() & 1)
            cells.setdefault(key, set()).add(nim)
        assert all(len(v) == 1 for v in cells.values()), spec


def test_structure_agrees_with_brute_per_class():
    # spot-check the class table against representative brute values
    spec = "Dih(Z4)"
    g = support.group(spec)
    lat = support.lattice(spec)
    nims = support.nims(spec)
    memo = support.brute_memo(spec)
    for mask, nim in memo.items():
        cid = ng.ceil_class(lat, g, mask)
        assert cid != ng.TERMINAL  # the memo holds no generating position
        assert nims.per_class[cid][mask.bit_count() & 1] == nim


def test_nim_of_game_modes():
    assert ng.nim_of_game("Dih(Z5)") == 3
    assert ng.nim_of_game("Dih(Z5)", mode="brute") == 3
    assert ng.nim_of_game("Dih(Z5)", mode="structure") == 3
    assert ng.nim_of_game("Dih(Z9)") == 3  # auto routes large orders to structure
    assert ng.nim_of_game("Dih(Z6)", ng.DNG) == 0
    assert ng.nim_of_game("Z4", ng.DNG, mode="structure") == \
        ng.nim_of_game("Z4", ng.DNG, mode="brute")
    assert ng.nim_of_game("Dih(Z9)", ng.DNG) == 3  # above the brute cap
    with pytest.raises(ValueError):
        ng.nim_of_game("Z4", mode="bogus")
    with pytest.raises(ValueError):
        ng.nim_of_game("Z1")


def test_nim_of_game_refuses_an_over_cap_spec_unbuilt(monkeypatch):
    support.refuse_builds_over(monkeypatch, 1000)
    with pytest.raises(ng.CapacityError,
                       match="capped at order 200, group has order 100000"):
        ng.nim_of_game("Z100000")


@pytest.mark.parametrize("variant", [ng.GEN, ng.DNG])
def test_solve_carries_the_structure_tables(variant):
    for spec in ng.EXTENDED_CATALOG:
        g, lat = support.group(spec), support.lattice(spec)
        r = ng.solve(g, variant, "structure")
        assert r.lattice.group is g
        assert r.deficiency == ng.deficiency_table(lat), spec
        assert r.classes == ng.structure_nim(g, lat, variant), spec
        assert r.d_g == r.deficiency.d_g
        assert r.nim == r.classes.game_nim
    for spec in ("Z2", "Z7", "Z2xZ2", "Dih(Z4)"):
        r = ng.solve(support.group(spec), variant, "brute")
        assert r.classes is None
        assert r.deficiency == support.deficiencies(spec), spec


def test_unknown_variant_is_rejected():
    # both solvers once read a lower-case "gen" differently: brute force as
    # DNG (value 1 on Z2), the structure solver as GEN (value 2)
    g = support.group("Z2")
    for mode in ("brute", "structure"):
        with pytest.raises(ValueError, match="unknown game"):
            ng.nim_of_game("Z2", "gen", mode=mode)
    with pytest.raises(ValueError, match="unknown game"):
        ng.brute_search(g, "gen")
    with pytest.raises(ValueError, match="unknown game"):
        ng.structure_nim(g, support.lattice("Z2"), "avoid")
