import functools
import itertools

import pytest

import nimgen as ng

import support


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_cyclic_subgroup_counts():
    assert len(ng.all_subgroups(support.group("Z4"))) == 3
    # one subgroup per divisor of 12
    assert len(ng.all_subgroups(support.group("Z12"))) == 6


def test_dihedral_subgroup_count():
    # Dih(Z_n) has one cyclic subgroup per divisor d of n and n/d dihedral
    # ones per divisor d: tau(n) + sigma(n) in all
    counts = {n: len(ng.all_subgroups(ng.build_group(f"Dih(Z{n})")))
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
        assert ng.all_subgroups(g) == support.reference_subgroups(g), g.label


@pytest.mark.parametrize("name,order,subgroups,maximals", [
    ("A4", 12, 10, 5), ("S4", 24, 30, 8), ("A5", 60, 59, 21)])
def test_permutation_group_subgroups(name, order, subgroups, maximals):
    # A5 is not soluble: enumeration up to conjugacy needs no solubility
    g = support.permutation_table(support.PERMUTATION_GROUPS[name], name)
    assert g.order == order
    assert not ng.is_nilpotent(g)
    subs = ng.all_subgroups(g)
    assert len(subs) == subgroups
    assert subs == support.reference_subgroups(g)
    maxi = ng.maximal_subgroups(g)
    assert len(maxi) == maximals
    assert maxi == support.reference_maximals(g)


def test_trivial_group_subgroups():
    # Z1 has no proper divisor to bound a join by
    assert ng.all_subgroups(ng.build_cyclic(1)) == (1,)


def test_subgroups_are_sorted_and_closed():
    g = support.group("Dih(Z5)")
    subs = ng.all_subgroups(g)
    assert list(subs) == sorted(subs, key=lambda m: (bin(m).count("1"), m))
    assert all(support.reference_closure(g, m) == m for m in subs)


def test_order_cap():
    with pytest.raises(ng.CapacityError):
        ng.all_subgroups(support.group("Z8"), order_cap=4)
    with pytest.raises(ng.CapacityError):
        ng.intersection_subgroups(support.group("Dih(Z8)"), order_cap=10)


def test_maximals_of_z6():
    g = support.group("Z6")
    maxs = ng.maximal_subgroups(g)
    assert sorted(m.bit_count() for m in maxs) == [2, 3]


def test_nilpotency_check():
    for spec in ("Dih(Z4)", "Z2xZ2xZ2xZ2xZ2", "Z12", "Dih(Z2xZ2xZ2)", "Z2xZ4xZ8"):
        assert ng.is_nilpotent(support.group(spec)), spec
    # Dih(Z3) is S3
    for spec in ("Dih(Z3)", "Dih(Z2xZ3)", "Dih(Z6)", "Dih(Z12)", "Dih(Z5xZ5)"):
        assert not ng.is_nilpotent(support.group(spec)), spec


def _heisenberg(p):
    """Upper unitriangular 3x3 matrices over F_p: nilpotent, not abelian."""
    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    index = {e: i for i, e in enumerate(elems)}
    rows = [" ".join(str(index[(x[0] + y[0]) % p, (x[1] + y[1]) % p,
                                 (x[2] + y[2] + x[0] * y[1]) % p])
                     for y in elems) for x in elems]
    return ng.parse_table_text(f"{len(elems)}\n" + "\n".join(rows) + "\n",
                               label=f"Heisenberg({p})")


def test_maximals_match_containment_filter():
    # nilpotent groups take the Frattini-quotient route, the others the
    # subgroup enumeration; both must agree with the O(S^2) filter, also
    # on relabelled tables whose identity the parser moved to index 0
    extra = ("Z2xZ2xZ2xZ2xZ2", "Dih(Z2xZ2xZ2xZ2)", "Z2xZ4xZ8", "Z3xZ3xZ3xZ3",
             "Dih(Z2xZ2xZ4)", "Dih(Z4)xZ3", "Dih(Z4)xDih(Z4)", "Dih(Z2xZ4)xZ5",
             "Dih(Z3xZ6)", "Dih(Z3)xZ4")
    groups = [support.group(spec) for spec in ng.EXTENDED_CATALOG + extra]
    groups.append(_heisenberg(3))
    nilpotent = 0
    for g in groups:
        spec = g.label
        want = support.reference_maximals(g)
        assert ng.maximal_subgroups(g) == want, spec
        if ng.is_nilpotent(g):
            nilpotent += 1
            for seed in (1, 2):
                h = support.relabelled(g, seed)
                assert ng.is_nilpotent(h)
                assert ng.maximal_subgroups(h) == support.reference_maximals(h), spec
    assert nilpotent == 34


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
        intents = lat.intents
        for i in range(len(intents)):
            for j in range(len(intents)):
                assert matrix[i][j] == (intents[i] & intents[j] == intents[j])


def test_options_and_ceil_match_mask_reference():
    for spec in ng.EXTENDED_CATALOG:
        g = support.group(spec)
        lat = support.lattice(spec)
        for cid in range(len(lat.intersections)):
            assert lat.options[cid] == support.reference_options(lat, g, cid), spec
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
        if ng.is_nilpotent(g):
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
        want = support.reference_deficiency(lat, ng.class_edges(lat))
        assert ng.deficiency_table(lat) == want, g.label


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
    assert [lat.intent_index[i] for i in lat.intents] == [0, 1, 2, 3]


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


def test_class_options_dihz4():
    lat = support.lattice("Dih(Z4)")
    assert lat.options == ((1, 2, 3), (ng.TERMINAL,), (ng.TERMINAL,),
                           (ng.TERMINAL,))


def test_class_edges_dihz4():
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
