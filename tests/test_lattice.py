import functools
import itertools

import pytest

import nimgen as ng
from nimgen import lattice
from nimgen.groups import prime_factors, span, subgroup_walk

import support


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_cyclic_subgroup_counts():
    assert len(subgroup_walk(support.group("Z4"))) == 3
    # one subgroup per divisor of 12
    assert len(subgroup_walk(support.group("Z12"))) == 6


def test_dihedral_subgroup_count():
    # Dih(Z_n) has one cyclic subgroup per divisor d of n and n/d dihedral
    # ones per divisor d: tau(n) + sigma(n) in all
    counts = {n: len(subgroup_walk(ng.build_group(f"Dih(Z{n})")))
              for n in [*range(1, 61), 99]}
    for n, count in counts.items():
        divisors = _divisors(n)
        assert count == len(divisors) + sum(divisors), n
    assert counts[4] == 10
    assert counts[99] == 162


def test_subgroups_match_join_closure_reference():
    # products of dihedral groups have many conjugacy classes of subgroups;
    # conjugation reads g.inv, so relabelled tables permute the inverses too
    specs = ng.EXTENDED_CATALOG + (
        "Dih(Z2xZ2xZ2xZ2)", "Z2xZ4xZ8", "Dih(Z3)xDih(Z5)", "Dih(Z3)xZ4",
        "Dih(Z4)xDih(Z4)")
    groups = [support.group(spec) for spec in specs]
    groups += [support.relabelled(support.group(spec), seed)
               for spec in ("Dih(Z15)", "Dih(Z3xZ6)") for seed in (1, 2)]
    for g in groups:
        assert support.walk_subgroups(g) == support.reference_subgroups(g), g.label


@pytest.mark.parametrize("name,order,subgroups,maximals", [
    ("A4", 12, 10, 5), ("S4", 24, 30, 8), ("A5", 60, 59, 21)])
def test_permutation_group_subgroups(name, order, subgroups, maximals):
    # A5 is not soluble: the walk needs no solubility
    g = support.permutation_table(support.PERMUTATION_GROUPS[name], name)
    assert g.order == order
    assert not support.reference_is_nilpotent(g)
    subs = support.walk_subgroups(g)
    assert len(subs) == subgroups
    assert subs == support.reference_subgroups(g)
    maxi = ng.maximal_subgroups(g)
    assert len(maxi) == maximals
    assert maxi == support.reference_maximals(g)


def test_s5_general_route():
    g = support.group("S5")
    assert g.order == 120
    subs = support.walk_subgroups(g)
    assert len(subs) == 156
    assert subs == support.reference_subgroups(g)
    maxi = ng.maximal_subgroups(g)
    assert len(maxi) == 22
    assert maxi == support.reference_maximals(g)
    assert [ng.solve(g, v).nim for v in (ng.GEN, ng.DNG)] == [1, 0]


def test_trivial_group_subgroups():
    # Z1 has no proper divisor to bound a join by
    assert subgroup_walk(ng.build_cyclic(1)) == [(1, 0, set())]


def test_subgroups_are_sorted_and_closed():
    g = support.group("Dih(Z5)")
    subs = [h for h, _, _ in subgroup_walk(g)]
    assert [h.bit_count() for h in subs] == [10, 5, 2, 2, 2, 2, 2, 1]
    assert all(support.reference_closure(g, m) == m for m in subs)


def test_order_cap():
    with pytest.raises(ng.CapacityError):
        ng.intersection_subgroups(support.group("Dih(Z8)"), order_cap=10)


def test_maximals_of_z6():
    g = support.group("Z6")
    maxs = ng.maximal_subgroups(g)
    assert sorted(m.bit_count() for m in maxs) == [2, 3]


def test_nilpotency_matches_coprime_order_reference(monkeypatch):
    # the Frattini route refuses exactly the groups that are not nilpotent,
    # and takes every other one without the walk, which would give the
    # same maximals; Dih(Z2xZ3) is another table of Dih(Z6)
    specs = [a.spec_string for n in range(1, 65) for a in ng.abelian_groups(n)]
    specs += [f"Dih({a.spec_string})" for n in range(1, 33) for a in ng.abelian_groups(n)]
    specs += [*support.product_catalog(72), "A4", "S4", "A5", "S5", "Dih(Z2xZ3)"]
    groups = [support.group(spec) for spec in specs]
    groups += [support.heisenberg(3), support.heisenberg(5)]
    _refuse_walk(monkeypatch)
    nilpotent = 0
    for g in groups:
        want = support.reference_is_nilpotent(g)
        nilpotent += want
        for h in (g, support.relabelled(g, 1)):
            route = lattice._frattini_maximals(h, *span(h, h.full_mask))
            assert (route is not None) == want, h.label
            if want and h.order > 1:
                ng.maximal_subgroups(h)
    assert (nilpotent, len(groups)) == (138, 216)


def test_maximals_match_containment_filter():
    # non-abelian Dih(A) take the closed form, other nilpotent groups the
    # Frattini-quotient route, and Dih(Z3)xZ4, A4 and S4 the subgroup
    # walk; all must agree with the O(S^2) filter, also on relabelled
    # tables whose identity the parser moved to index 0, which take the
    # plain table's filter through the element names.  Z5xZ25, Z7xZ7xZ2
    # and Z3xZ9xZ5 have p >= 5 with N_p != 1, Z5xZ5xZ5 is the one group
    # within the cap with p >= 5 and rank >= 3, so its hyperplanes have two
    # trailing coefficients up to 4, and Heisenberg(5) is a non-abelian
    # p-group for an odd p.
    extra = ("Z2xZ2xZ2xZ2xZ2", "Dih(Z2xZ2xZ2xZ2)", "Z2xZ4xZ8", "Z3xZ3xZ3xZ3",
             "Dih(Z2xZ2xZ4)", "Dih(Z4)xZ3", "Dih(Z4)xDih(Z4)", "Dih(Z2xZ4)xZ5",
             "Dih(Z3xZ6)", "Dih(Z3)xZ4", "A4", "S4", "Z5xZ25", "Z7xZ7xZ2",
             "Z3xZ9xZ5", "Z5xZ5xZ5")
    groups = [support.group(spec) for spec in ng.EXTENDED_CATALOG + extra]
    groups += [support.heisenberg(3), support.heisenberg(5)]
    nilpotent = 0
    for g in groups:
        spec = g.label
        want = support.reference_maximals(g)
        assert ng.maximal_subgroups(g) == want, spec
        if support.reference_is_nilpotent(g):
            nilpotent += 1
            for seed in (1, 2):
                h = support.relabelled(g, seed)
                assert lattice._frattini_maximals(h, *span(h, h.full_mask)) is not None, spec
                assert ng.maximal_subgroups(h) == support.carried(want, g, h), spec
    assert nilpotent == 39


def _non_abelian_dih(limit):
    """Every non-abelian Dih(A) with |A| <= ``limit``."""
    groups = (ng.build_group(f"Dih({a.spec_string})")
              for n in range(1, limit + 1) for a in ng.abelian_groups(n))
    return [g for g in groups if not ng.is_abelian(g)]


def test_dih_route_matches_containment_filter():
    # the Dih(A) route reads A off the table, so relabelled tables take it
    # too; each is checked against the plain table's filter, carried over
    for g in _non_abelian_dih(48):
        want = support.reference_maximals(g)
        for h in (g, support.relabelled(g, 1)):
            assert lattice._dih_maximals(h) is not None, h.label
            assert ng.maximal_subgroups(h) == support.carried(want, g, h), h.label


def _index_p_counts(a):
    """(p, (p^r - 1)/(p - 1)) for each prime p dividing |A|, where r is the
    number of invariant factors of A divisible by p."""
    for p in prime_factors(a.order):
        r = sum(f % p == 0 for f in a.factors)
        yield p, (p ** r - 1) // (p - 1)


def test_maximal_counts_match_closed_form():
    # an abelian A has one maximal of index p per hyperplane of A/A^p; a
    # non-abelian Dih(A) has A and p maximals over each maximal M of A
    for n in range(2, 201):
        for a in ng.abelian_groups(n):
            want = sum(count for _, count in _index_p_counts(a))
            assert len(ng.maximal_subgroups(ng.build_group(a.spec_string))) == want, a
    dih = 0
    for n in range(1, 101):
        for a in ng.abelian_groups(n):
            g = ng.build_group(f"Dih({a.spec_string})")
            if not ng.is_abelian(g):
                dih += 1
                want = 1 + sum(p * count for p, count in _index_p_counts(a))
                assert len(ng.maximal_subgroups(g)) == want, a
    assert dih == 178


def test_dih_route_fires_only_on_non_abelian_dih():
    # Dih(Z4)xZ2 is Dih(Z4xZ2); Z2 is Dih(Z1) but abelian
    assert lattice._dih_maximals(support.group("Dih(Z4)xZ2")) is not None
    others = [support.group(spec) for spec in (
        "A4", "S4", "A5", "Dih(Z3)xZ3", "Dih(Z3)xDih(Z3)", "Dih(Z4)xZ3", "Z4xZ2")]
    others += [ng.build_group(a.spec_string)
               for n in range(2, 65) for a in ng.abelian_groups(n)]
    for g in others:
        assert lattice._dih_maximals(g) is None, g.label


def _refuse_walk(monkeypatch):
    """Make the general route of ``maximal_subgroups`` raise."""
    def refusing(*args, **kwargs):
        raise AssertionError("subgroup_walk called")

    monkeypatch.setattr(lattice, "subgroup_walk", refusing)


@pytest.mark.parametrize("a", ["Z99", "Z3xZ9", "Z2xZ2xZ2xZ2xZ6"])
def test_dih_solve_enumerates_no_subgroups(a, monkeypatch):
    _refuse_walk(monkeypatch)
    g, spec = ng.build_group(f"Dih({a})"), ng.AbelianSpec.from_spec(a)
    for variant, predict in ((ng.GEN, ng.predict_gen_dih), (ng.DNG, ng.predict_dng_dih)):
        result = ng.solve(g, variant)
        assert (result.nim, result.d_g) == (predict(spec), spec.rank + 1)


@pytest.mark.parametrize("spec", ["Heisenberg(3)", "Dih(Z4)xDih(Z4)"])
def test_nilpotent_solve_enumerates_no_subgroups(spec, monkeypatch):
    # non-abelian and nilpotent, so not a Dih(A): the Frattini-quotient
    # route, checked against the state search, which walks on its own
    g = support.heisenberg(3) if spec == "Heisenberg(3)" else support.group(spec)
    assert lattice._dih_maximals(g) is None and support.reference_is_nilpotent(g)
    want = {v: ng.brute_nim(g, v, brute_cap=g.order) for v in (ng.GEN, ng.DNG)}
    _refuse_walk(monkeypatch)
    for variant in (ng.GEN, ng.DNG):
        assert ng.solve(g, variant).nim == want[variant], (spec, variant)


def test_maximals_need_order_two():
    with pytest.raises(ValueError):
        ng.maximal_subgroups(ng.build_cyclic(1))


def test_dihz4_lattice_frozen():
    lat = support.lattice("Dih(Z4)")
    assert sorted(m.bit_count() for m in lat.maximals) == [4, 4, 4]
    assert sorted(lat.maximals) == [15, 85, 165]
    assert [m.bit_count() for m in lat.intersections] == [2, 4, 4, 4]
    assert lat.frattini_index == 0
    assert lat.frattini_mask == 0b101


def test_z12_intersections():
    lat = support.lattice("Z12")
    assert sorted(m.bit_count() for m in lat.intersections) == [2, 4, 6]
    assert lat.frattini_mask == ng.mask_of([0, 6])


def test_frattini_below_everything():
    for spec in ("Z12", "Dih(Z4)", "Dih(Z3xZ3)", "Z2xZ2xZ2"):
        lat = support.lattice(spec)
        phi = lat.frattini_mask
        assert all(m | phi == m for m in lat.intersections)


def test_intersections_closed_under_meet():
    for spec in ("Dih(Z4)", "Dih(Z6)", "Dih(Z3xZ3)", "Z2xZ2xZ2"):
        lat = support.lattice(spec)
        masks = set(lat.intersections)
        for a, b in itertools.combinations(masks, 2):
            assert a & b in masks


def test_containment_matrix():
    # carrier i lies in carrier j iff every maximal holding j holds i
    for spec in ("Dih(Z4)", "Dih(Z6)", "Dih(Z3xZ3)", "Z2xZ2xZ2", "Z12"):
        lat = support.lattice(spec)
        matrix = support.containment(lat)
        intents = tuple(lat.intent_index)
        for i in range(len(intents)):
            for j in range(len(intents)):
                assert matrix[i][j] == (intents[i] & intents[j] == intents[j])


def test_options_and_ceil_match_mask_reference():
    # Dih(Z31) has 32 maximal classes and little else; Z2^5 and Dih(Z3^3)
    # have 373 and 211 classes
    for spec in ng.EXTENDED_CATALOG + ("Dih(Z31)", "Z2xZ2xZ2xZ2xZ2", "Dih(Z3xZ3xZ3)"):
        g = support.group(spec)
        lat = support.lattice(spec)
        for cid in range(len(lat.intersections)):
            assert lat.options[cid] == support.reference_options(lat, g, cid), spec
        for intent, cid in lat.intent_index.items():
            if intent.bit_count() == 1:
                assert lat.options[cid] == (ng.TERMINAL,), spec
        masks = {carrier | (1 << x) for carrier in lat.intersections
                 for x in range(g.order)}
        masks.update(range(0, 1 << min(g.order, 12), 5))
        for mask in masks:
            assert ng.ceil_class(lat, g, mask) == support.reference_ceil(lat, g, mask)


# The catalog plus larger groups with many classes or many subgroups, and
# two seeded relabellings of each nilpotent one.
_REFERENCE_SPECS = ng.EXTENDED_CATALOG + (
    "Z2xZ2xZ2xZ2xZ2xZ2", "Z3xZ3xZ3xZ3", "Dih(Z3xZ6)", "Dih(Z2xZ10)", "Dih(Z99)")


@functools.lru_cache(maxsize=None)
def _reference_lattices():
    out = []
    for spec in _REFERENCE_SPECS:
        g = support.group(spec)
        out.append((g, support.lattice(spec)))
        if support.reference_is_nilpotent(g):
            for seed in (1, 2):
                h = support.relabelled(g, seed)
                out.append((h, ng.intersection_subgroups(h)))
    return out


def test_intersections_match_mask_closure_reference():
    for g, lat in _reference_lattices():
        assert lat.intersections == support.reference_intersections(g), g.label
        assert lat.frattini_mask == functools.reduce(int.__and__, lat.maximals)


def test_deficiency_matches_bfs_reference():
    for g, lat in _reference_lattices():
        edges = [(cid, j) for cid, opts in enumerate(lat.options) for j in opts]
        want = support.reference_deficiency(lat, edges)
        assert ng.deficiency_table(lat) == want, g.label


@pytest.mark.parametrize("variant", [ng.GEN, ng.DNG])
def test_class_nims_match_set_mex_reference(variant):
    for g, lat in _reference_lattices():
        got = ng.structure_nim(g, lat, variant).per_class
        want = support.reference_class_nims(lat, variant)
        assert list(got.items()) == list(want.items()), g.label


def test_elementary_abelian_2_group_of_rank_6():
    # the classes are the 2824 proper subspaces of F_2^6
    g = support.group("Z2xZ2xZ2xZ2xZ2xZ2")
    for variant in (ng.GEN, ng.DNG):
        r = ng.solve(g, variant, mode="structure")
        assert (r.nim, r.d_g, len(r.lattice.intersections)) == (0, 6, 2824)
    assert len(r.lattice.maximals) == 63
    assert len(set(r.lattice.sig)) == 64


def test_carrier_lookup():
    lat = support.lattice("Dih(Z4)")
    assert lat.intersections[0] == lat.frattini_mask
    assert list(lat.intent_index.values()) == [0, 1, 2, 3]
    for intent, cid in lat.intent_index.items():
        held = [m for i, m in enumerate(lat.maximals) if (intent >> i) & 1]
        assert lat.intersections[cid] == functools.reduce(int.__and__, held)


def test_ceil_examples():
    g = support.group("Dih(Z4)")
    lat = support.lattice("Dih(Z4)")
    by_mask = {m: i for i, m in enumerate(lat.intersections)}
    r, s = 1, 4
    assert ng.ceil_class(lat, g, 0) == by_mask[0b101]
    assert ng.ceil_class(lat, g, 1) == by_mask[0b101]
    assert ng.ceil_class(lat, g, ng.mask_of([r])) == by_mask[15]
    assert ng.ceil_class(lat, g, ng.mask_of([s])) == by_mask[85]
    assert ng.ceil_class(lat, g, ng.mask_of([r, s])) == ng.TERMINAL
    # bits at or above the order are ignored, as generated_subgroup does
    for mask in (0, 1, ng.mask_of([r]), ng.mask_of([s]), ng.mask_of([r, s])):
        for high in (1 << g.order, 1 << 9):
            assert ng.ceil_class(lat, g, mask | high) == ng.ceil_class(lat, g, mask)
    assert ng.ceil_class(lat, g, g.full_mask | 1 << g.order) == ng.TERMINAL


def test_ceil_is_tightest_superset():
    # the chosen class carrier contains the closure and no smaller one does,
    # on sampled masks and on every option probe the solvers make
    sampled = ("Dih(Z6)", "Z12", "Dih(Z2xZ2)", "Dih(Z3xZ3)", "Dih(Z2xZ4)",
               "Z2xZ2xZ2xZ2")
    for spec in dict.fromkeys(sampled + ng.EXTENDED_CATALOG):
        g = support.group(spec)
        lat = support.lattice(spec)
        probes = {carrier | (1 << x) for carrier in lat.intersections
                  for x in range(g.order)}
        if spec in sampled:
            probes.update(range(0, 1 << g.order, 7))
        for probe in probes:
            cid = ng.ceil_class(lat, g, probe)
            closure = ng.generated_subgroup(g, probe)
            if cid == ng.TERMINAL:
                assert closure == g.full_mask
                continue
            carrier = lat.intersections[cid]
            assert closure | carrier == carrier
            for m in lat.intersections:
                if m.bit_count() < carrier.bit_count():
                    assert closure | m != m or m == carrier


def test_class_parity():
    lat = support.lattice("Dih(Z4)")
    assert all(ng.class_parity(lat, cid) == 0 for cid in range(4))
    assert ng.class_parity(lat, ng.TERMINAL) == 0
    z7 = support.lattice("Z7")
    assert ng.class_parity(z7, 0) == 1
    assert ng.class_parity(z7, ng.TERMINAL) == 1


def test_options_dihz4():
    lat = support.lattice("Dih(Z4)")
    assert lat.options == ((1, 2, 3), (ng.TERMINAL,), (ng.TERMINAL,),
                           (ng.TERMINAL,))


def test_edges_dihz4():
    assert set(support.edges("Dih(Z4)")) == {
        (0, 1), (0, 2), (0, 3),
        (1, ng.TERMINAL), (2, ng.TERMINAL), (3, ng.TERMINAL),
    }


def test_options_never_contain_self():
    for spec in ("Dih(Z6)", "Dih(Z3xZ3)", "Z2xZ2xZ2"):
        for cid, opt in support.edges(spec):
            assert opt != cid


def test_every_class_reaches_terminal():
    # walked backwards from the terminal class, nothing is left over
    for spec in ("Dih(Z6)", "Dih(Z3xZ3)", "Z12"):
        lat = support.lattice(spec)
        reverse = {}
        for a, b in support.edges(spec):
            reverse.setdefault(b, set()).add(a)
        seen = {ng.TERMINAL}
        stack = [ng.TERMINAL]
        while stack:
            for u in reverse.get(stack.pop(), ()):
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        assert seen == set(range(len(lat.intersections))) | {ng.TERMINAL}
