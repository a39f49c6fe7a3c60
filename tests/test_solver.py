import pytest
from hypothesis import given
from hypothesis import strategies as st

import nimgen as ng
import nimgen.solver
from nimgen.groups import subgroup_walk

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
    # nim(∅)=mex{nim{e}=1, nim{g}=0}=2, worked by hand; the states are
    # (subgroup mask, size), and ∅ and {e} both generate the trivial subgroup
    memo = ng.brute_search(support.group("Z2"), ng.GEN)
    assert memo == {(0b01, 0): 2, (0b01, 1): 1}  # {g} generates Z2: not memoized
    assert ng.brute_nim(support.group("Z2"), ng.GEN) == 2


def test_brute_dng_z2():
    memo = ng.brute_search(support.group("Z2"), ng.DNG)
    assert memo == {(0b01, 0): 1, (0b01, 1): 0}


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
    # The reference memoizes positions, the generating ones GEN reaches
    # included; the search memoizes non-generating states (<P>, |P|), the
    # same keys in both games, and none that no position reaches.
    g = support.group(spec)
    if seed is not None:
        g = support.relabelled(g, seed)
    memo = ng.brute_search(g, variant)
    reached = set()
    for mask, v in support.reference_brute_search(g, variant).items():
        h = support.reference_closure(g, mask)
        if h == g.full_mask:
            assert v == 0
            continue
        state = (h, mask.bit_count())
        assert memo[state] == v, (mask, state)
        reached.add(state)
    assert memo.keys() == reached
    if variant == ng.GEN:
        assert memo.keys() == ng.brute_search(g, ng.DNG).keys()


@pytest.mark.parametrize("variant", [ng.GEN, ng.DNG])
def test_brute_matches_structure_on_permutation_groups(variant):
    # A4 and S4 are not dihedral, so their maximals come from the subgroup walk
    for name, want in (("A4", 3), ("S4", 0)):
        g = support.group(name)
        nim = ng.structure_nim(g, ng.intersection_subgroups(g), variant).game_nim
        assert nim == want, g.label
        assert ng.brute_nim(g, variant, brute_cap=24) == nim, g.label


def check_brute_states(g, lat, variant) -> int:
    """Every state (H, k) of ``brute_search`` on ``g`` against the position
    cell (class of H, parity of k) of the structure solver on ``lat``;
    returns the number of states."""
    nims = ng.structure_nim(g, lat, variant)
    memo = ng.brute_search(g, variant, brute_cap=g.order)
    assert memo[1, 0] == nims.game_nim, g.label
    for (h, k), v in memo.items():
        assert nims.per_class[ng.ceil_class(lat, g, h)][k & 1] == v, (g.label, h, k)
    return len(memo)


@pytest.mark.parametrize("variant", [ng.GEN, ng.DNG])
def test_brute_states_match_structure_classes(variant):
    # The whole brute table against the class table, on every
    # extended-catalog group (orders up to 54), the permutation groups A4,
    # S4 and A5, and one seeded relabelling of each.
    groups = [support.group(s) for s in (*ng.EXTENDED_CATALOG, "A4", "S4", "A5")]
    groups += [support.relabelled(g, seed) for seed, g in enumerate(groups)]
    assert sum(check_brute_states(g, ng.intersection_subgroups(g), variant)
               for g in groups) == 8178


def test_product_catalog_up_to_72():
    # Products of Dih(A) with an abelian group or another Dih(B) that take
    # the general route of maximal_subgroups, with one seeded relabelling
    # of each: maximals against the containment filter, and the brute
    # states against the class table in both games.
    specs = list(support.product_catalog(72))
    assert len(specs) == 37
    for seed, spec in enumerate(specs):
        g = support.group(spec)
        want = support.reference_maximals(g)
        for h in (g, support.relabelled(g, seed)):
            lat = ng.intersection_subgroups(h)
            assert lat.maximals == support.carried(want, g, h), h.label
            for variant in (ng.GEN, ng.DNG):
                check_brute_states(h, lat, variant)


def counting_extensions(monkeypatch):
    # Patch groups.extend_subgroup to record each (H, x) it closes.
    import nimgen.groups

    calls = []
    extend = nimgen.groups.extend_subgroup

    def counting(g, h, elems, gens, x):
        calls.append((h, x))
        return extend(g, h, elems, gens, x)

    monkeypatch.setattr(nimgen.groups, "extend_subgroup", counting)
    return calls


def double_cosets(g):
    # The number of pairs (subgroup H, double coset HxH outside H).
    mul, count = g.mul, 0
    for h, _, _ in subgroup_walk(g):
        rest = g.full_mask & ~h
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= ~ng.mask_of(mul[mul[a][x]][b]
                                for a in ng.iter_mask(h) for b in ng.iter_mask(h))
            count += 1
    return count


@pytest.mark.parametrize("variant", [ng.GEN, ng.DNG])
def test_brute_search_closes_each_join_once(variant, monkeypatch):
    # The walk looks each join up among the subgroups it has found before it
    # closes one, so on Dih(Z13) it makes one closure per subgroup other than
    # the trivial one, well under the 104 double cosets HxH outside H.
    g = support.group("Dih(Z13)")
    assert double_cosets(g) == 104
    walked = len(subgroup_walk(g))
    calls = counting_extensions(monkeypatch)
    # the 41 non-generating states, the same keys in either game
    assert len(ng.brute_search(g, variant, brute_cap=g.order)) == 41
    assert len(calls) == walked - 1 == 15


def test_walk_closes_each_new_subgroup_once(monkeypatch):
    # In abelian groups and Dih(A) the walk makes exactly one closure per
    # subgroup other than the trivial one; elsewhere it never makes more
    # closures than there are double cosets.
    others = [support.group(s) for s in ("A4", "S4", "Dih(Z3)xDih(Z3)")]
    others.append(support.heisenberg(3))
    bounds = [double_cosets(h) for h in others]
    calls = counting_extensions(monkeypatch)
    specs = [a.spec_string for n in range(2, 65) for a in ng.abelian_groups(n)]
    specs += [f"Dih({a.spec_string})" for n in range(1, 33) for a in ng.abelian_groups(n)]
    assert len(specs) == 171
    for spec in specs:
        h = support.group(spec)
        calls.clear()
        assert len(subgroup_walk(h)) - 1 == len(calls), spec
    for h, bound in zip(others, bounds):
        calls.clear()
        subgroup_walk(h)
        assert len(calls) <= bound, h.label


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
        assert ng.solve(f"Dih({a.spec_string})", ng.DNG,
                        "structure").nim == ng.predict_dng_dih(a), spec


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


def test_solve_modes_on_specs():
    assert ng.solve("Dih(Z5)").nim == 3
    assert ng.solve("Dih(Z5)", mode="brute").nim == 3
    assert ng.solve("Dih(Z5)", mode="structure").nim == 3
    assert ng.solve("Dih(Z9)").nim == 3  # auto routes large orders to structure
    assert ng.solve("Dih(Z6)", ng.DNG).nim == 0
    assert ng.solve("Z4", ng.DNG, mode="structure").nim == \
        ng.solve("Z4", ng.DNG, mode="brute").nim
    assert ng.solve("Dih(Z9)", ng.DNG).nim == 3  # above the brute cap
    with pytest.raises(ValueError):
        ng.solve("Z4", mode="bogus")
    with pytest.raises(ValueError):
        ng.solve("Z1")


def test_solve_refuses_an_over_cap_spec_unbuilt(monkeypatch):
    support.refuse_builds_over(monkeypatch, 1000)
    with pytest.raises(ng.CapacityError,
                       match="capped at order 200, group has order 100000"):
        ng.solve("Z100000")


def test_solve_takes_a_lattice_as_it_is(monkeypatch):
    lat = support.lattice("Dih(Z5)")
    with pytest.raises(ng.CapacityError, match="capped at order 8, group has order 10"):
        ng.solve(lat, order_cap=8)
    monkeypatch.setattr(nimgen.solver, "intersection_subgroups", None)
    for variant in (ng.GEN, ng.DNG):
        assert ng.solve(lat, variant, "structure", order_cap=10).lattice is lat


def _outcome(group, variant, mode):
    """What ``solve`` gives, or the error it raises, as comparable values."""
    try:
        r = ng.solve(group, variant, mode)
    except (ng.NimgenError, ValueError) as exc:
        return type(exc), str(exc)
    return r.nim, r.mode, r.d_g, r.lattice.intersections, r.lattice.group


@pytest.mark.parametrize("variant", [ng.GEN, ng.DNG])
def test_solve_builds_a_spec_as_build_group_does(variant, tmp_path):
    # brute mode over the brute cap must fail the same way from both inputs
    for spec in ng.EXTENDED_CATALOG:
        g = support.group(spec)
        for mode in ("auto", "brute", "structure"):
            assert _outcome(spec, variant, mode) == _outcome(g, variant, mode) == \
                _outcome(support.lattice(spec), variant, mode), (spec, mode)
    path = tmp_path / "dih5.tbl"
    path.write_text(ng.to_table_text(support.group("Dih(Z5)")), encoding="utf-8")
    for spec in (ng.TableFile(str(path)), ng.parse_group_spec("Dih(Z3xZ3)")):
        for mode in ("auto", "brute", "structure"):
            assert _outcome(spec, variant, mode) == \
                _outcome(ng.build_group(spec), variant, mode), (spec, mode)


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
            ng.solve("Z2", "gen", mode=mode)
    with pytest.raises(ValueError, match="unknown game"):
        ng.brute_search(g, "gen")
    with pytest.raises(ValueError, match="unknown game"):
        ng.structure_nim(g, support.lattice("Z2"), "avoid")


# structure_nim is handed Z2's lattice: Z1 has none, and the gate refuses
# the group before the lattice is read.
_SOLVERS = {
    "brute_search": ng.brute_search,
    "structure_nim": lambda g, variant: ng.structure_nim(g, support.lattice("Z2"), variant),
    "solve": ng.solve,
}


@pytest.mark.parametrize("solver", sorted(_SOLVERS))
@pytest.mark.parametrize("spec, variant, message", [
    ("Z2", "gen", "unknown game 'gen', expected 'GEN' or 'DNG'"),
    ("Z1", ng.GEN, "generation games need a group of order at least 2"),
    ("Z1", ng.DNG, "generation games need a group of order at least 2"),
], ids=["unknown-game", "Z1-GEN", "Z1-DNG"])
def test_every_solver_refuses_a_bad_game_alike(solver, spec, variant, message):
    with pytest.raises(ValueError) as exc:
        _SOLVERS[solver](support.group(spec), variant)
    assert str(exc.value) == message



# EXTENDED_CATALOG holds Dih(Z3xZ3xZ3) already.
FLAT_PASS_GROUPS = (*ng.EXTENDED_CATALOG, "A4", "S4", "A4 relabelled", "S4 relabelled",
                    "Z2xZ2xZ2xZ2xZ2xZ2")


@pytest.mark.parametrize("name", FLAT_PASS_GROUPS)
def test_flat_class_passes_equal_references(name):
    # The lattice walk, class mex, deficiency and digraph as flat loops per
    # class give what the passes built on map, reduce and min gave.
    base, _, relabel = name.partition(" ")
    g = support.relabelled(support.group(base), 1) if relabel else support.group(base)
    lat, ref = ng.intersection_subgroups(g), support.reference_intersection_subgroups(g)
    assert lat.intersections == ref.intersections
    assert lat.options == ref.options
    assert lat.intent_index == ref.intent_index
    assert lat == ref
    dt, ref_dt = ng.deficiency_table(lat), support.reference_deficiency_table(ref)
    assert dt.per_class == ref_dt.per_class and dt.d_g == ref_dt.d_g
    cids = [*range(len(ref.options)), ng.TERMINAL]
    orders = [m.bit_count() for m in ref.intersections] + [g.order]
    for variant in (ng.GEN, ng.DNG):
        nims = ng.structure_nim(g, lat, variant)
        ref_nims = support.reference_structure_nim(g, ref, variant)
        assert list(nims.per_class.items()) == list(ref_nims.per_class.items())
        assert nims.game_nim == ref_nims.game_nim
        vertices = [ng.DigraphVertex(cid, n, ng.class_parity(ref, cid), ref_dt.per_class[cid],
                                     ng.type_of(ref_nims, ref, cid))
                    for cid, n in zip(cids, orders)]
        assert list(ng.build_digraph(g, lat, nims, dt).vertices) == vertices
