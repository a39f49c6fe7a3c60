"""Cached builders shared across test modules, and reference algorithms.

Every module pulls groups, lattices, and solver output through these
memoized helpers, so each is built once per test session.
"""

import dataclasses
import random
from collections import deque
from functools import lru_cache

import nimgen as ng
from nimgen.groups import Cyclic, Dih, Product


@lru_cache(maxsize=None)
def group(spec: str) -> ng.GroupTable:
    """The group of a spec, or a ``PERMUTATION_GROUPS`` group by its name."""
    if spec in PERMUTATION_GROUPS:
        return permutation_table(PERMUTATION_GROUPS[spec], spec)
    return ng.build_group(spec)


@lru_cache(maxsize=None)
def lattice(spec: str) -> ng.IntersectionLattice:
    return ng.intersection_subgroups(group(spec))


@lru_cache(maxsize=None)
def nims(spec: str) -> ng.ClassNimTable:
    return ng.structure_nim(group(spec), lattice(spec))


@lru_cache(maxsize=None)
def edges(spec: str) -> tuple:
    return tuple(ng.class_edges(lattice(spec), group(spec)))


@lru_cache(maxsize=None)
def deficiencies(spec: str) -> ng.DeficiencyTable:
    return ng.deficiency_table(lattice(spec))


@lru_cache(maxsize=None)
def digraph(spec: str) -> ng.StructureDigraph:
    return ng.build_digraph(group(spec), lattice(spec), nims(spec),
                            deficiencies(spec))


@lru_cache(maxsize=None)
def brute_memo(spec: str, variant: str = ng.GEN) -> dict:
    return ng.brute_search(group(spec), variant)


def reference_brute_search(g: ng.GroupTable, variant: str = ng.GEN) -> dict[int, int]:
    """Memoized nim values of every position reachable from the empty set,
    with one ``generated_subgroup`` closure per position: the reference
    for the memoized-join search of ``brute_search``."""
    full = g.full_mask
    closures: dict[int, int] = {}

    def closure(mask: int) -> int:
        if mask not in closures:
            closures[mask] = ng.generated_subgroup(g, mask)
        return closures[mask]

    memo: dict[int, int] = {}

    def nim(mask: int) -> int:
        if mask in memo:
            return memo[mask]
        values = set()
        if variant == ng.GEN:
            if closure(mask) != full:
                for x in range(g.order):
                    if not (mask >> x) & 1:
                        values.add(nim(mask | (1 << x)))
        else:
            for x in range(g.order):
                if not (mask >> x) & 1:
                    child = mask | (1 << x)
                    if closure(child) != full:
                        values.add(nim(child))
        memo[mask] = ng.mex(values)
        return memo[mask]

    nim(0)
    return memo


def reference_deficiency_map(g: ng.GroupTable) -> list[int]:
    """Deficiency of every subset with one ``generated_subgroup`` closure
    per mask: the reference for the per-subgroup deficiencies behind
    ``check_deficiency_oracle``."""
    n = g.order
    delta = [0] * (1 << n)
    for mask in reversed(range(1 << n)):
        if ng.generated_subgroup(g, mask) != g.full_mask:
            delta[mask] = 1 + min(
                delta[mask | (1 << x)] for x in range(n) if not (mask >> x) & 1)
    return delta


def reference_cyclic(n: int) -> ng.GroupTable:
    """Cyclic group of order ``n``, one entry at a time: the reference for
    the row-rotation kernel of ``build_cyclic``."""
    mul = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    inv = tuple((-i) % n for i in range(n))
    names = tuple("e" if k == 0 else "g" if k == 1 else f"g^{k}" for k in range(n))
    return ng.GroupTable(order=n, mul=mul, inv=inv, names=names, label=f"Z{n}")


def reference_direct_product(g: ng.GroupTable, h: ng.GroupTable) -> ng.GroupTable:
    """Direct product, one entry at a time, (a, b) encoded as a * |h| + b:
    the reference for the shifted-row kernel of ``direct_product``."""
    n, m = g.order, h.order
    mul = tuple(tuple(g.mul[a][c] * m + h.mul[b][d] for c in range(n) for d in range(m))
                for a in range(n) for b in range(m))
    inv = tuple(g.inv[a] * m + h.inv[b] for a in range(n) for b in range(m))
    names = tuple(f"({g.names[a]},{h.names[b]})" for a in range(n) for b in range(m))
    label = f"{g.label}x{h.label}" if g.label and h.label else ""
    return ng.GroupTable(order=n * m, mul=mul, inv=inv, names=names, label=label)


def reference_is_abelian(g: ng.GroupTable) -> bool:
    """Commutativity scan over all element pairs: the reference for the
    transpose test of ``is_abelian``."""
    mul = g.mul
    return all(mul[i][j] == mul[j][i] for i in range(g.order) for j in range(i + 1, g.order))


def reference_dihedralize(a: ng.GroupTable) -> ng.GroupTable:
    """Generalized dihedral group of an abelian group, one entry at a time,
    x*a_m at index |A| + m: the reference for the row kernel of
    ``dihedralize``."""
    assert reference_is_abelian(a)
    n = a.order
    mul = []
    for k1 in range(2):
        for m1 in range(n):
            row = []
            for k2 in range(2):
                for m2 in range(n):
                    if k2 == 0:
                        row.append(k1 * n + a.mul[m1][m2])
                    else:
                        row.append((1 - k1) * n + a.mul[a.inv[m1]][m2])
            mul.append(tuple(row))
    inv = a.inv + tuple(n + m for m in range(n))
    names = a.names + tuple("x" if m == 0 else f"x·{a.names[m]}" for m in range(n))
    label = f"Dih({a.label})" if a.label else ""
    return ng.GroupTable(order=2 * n, mul=tuple(mul), inv=inv, names=names, label=label)


def reference_group(spec) -> ng.GroupTable:
    """The group of a spec without table files, built by the reference
    builders above."""
    if isinstance(spec, str):
        spec = ng.parse_group_spec(spec)
    if isinstance(spec, Cyclic):
        return reference_cyclic(spec.n)
    if isinstance(spec, Product):
        return reference_direct_product(reference_group(spec.left),
                                        reference_group(spec.right))
    assert isinstance(spec, Dih), spec
    return reference_dihedralize(reference_group(spec.inner))


def reference_subgroups(g: ng.GroupTable) -> tuple[int, ...]:
    """Every subgroup mask, sorted like ``all_subgroups``, by join closure.

    Joins each subgroup found with every element outside it, one
    ``generated_subgroup`` call each: O(|K|^2) per join, kept as the
    reference that the coset closure of ``all_subgroups`` must match.
    """
    seen = {1}
    frontier = [1]
    while frontier:
        h = frontier.pop()
        for x in range(1, g.order):
            if not (h >> x) & 1:
                j = ng.generated_subgroup(g, h | (1 << x))
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
    return tuple(sorted(seen, key=lambda m: (m.bit_count(), m)))


def reference_maximals(g: ng.GroupTable) -> tuple[int, ...]:
    """Maximal subgroups by the O(S^2) containment filter over every
    subgroup: the reference for both routes of ``maximal_subgroups``."""
    proper = [m for m in ng.all_subgroups(g) if m != g.full_mask]
    return tuple(m for m in proper
                 if not any(m != k and m | k == k for k in proper))


def reference_ceil(lat: ng.IntersectionLattice, g: ng.GroupTable, mask: int) -> int:
    """Class of a mask as the meet of the maximals containing it, by
    |G|-bit mask tests: the reference for the signature ``ceil_class``."""
    meet = -1
    for m in lat.maximals:
        if mask | m == m:
            meet &= m
    return ng.TERMINAL if meet == -1 else lat.intersections.index(meet)


def reference_options(lat: ng.IntersectionLattice, g: ng.GroupTable,
                      cid: int) -> tuple[int, ...]:
    """Option classes of a class by probing its carrier with every element
    outside it: the reference for the signature walk that fills
    ``IntersectionLattice.options``."""
    carrier = lat.intersections[cid]
    return tuple(sorted({reference_ceil(lat, g, carrier | (1 << x))
                         for x in range(g.order) if not (carrier >> x) & 1}))


def reference_intersections(g: ng.GroupTable) -> tuple[int, ...]:
    """The maximals closed under intersection by intersecting each new
    member with each maximal, on |G|-bit masks: the reference for the
    signature walk of ``intersection_subgroups``."""
    maxi = ng.maximal_subgroups(g)
    members = set(maxi)
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for b in maxi:
            c = a & b
            if c not in members:
                members.add(c)
                frontier.append(c)
    return tuple(sorted(members, key=lambda m: (m.bit_count(), m)))


def reference_deficiency(lat: ng.IntersectionLattice, edges) -> ng.DeficiencyTable:
    """Breadth-first distances to the terminal class over reversed
    ``edges``: the reference for the class-order pass of
    ``deficiency_table``.  Checks that every class is reached and that the
    Frattini class is the farthest."""
    reverse: dict[int, list[int]] = {}
    for a, b in edges:
        reverse.setdefault(b, []).append(a)
    dist = {ng.TERMINAL: 0}
    frontier = deque([ng.TERMINAL])
    while frontier:
        v = frontier.popleft()
        for u in reverse.get(v, ()):
            if u not in dist:
                dist[u] = dist[v] + 1
                frontier.append(u)
    assert len(dist) == len(lat.intersections) + 1
    d_g = dist[lat.frattini_index]
    assert max(dist.values()) == d_g
    return ng.DeficiencyTable(per_class=dist, d_g=d_g)


def containment(lat: ng.IntersectionLattice) -> tuple[tuple[bool, ...], ...]:
    """``containment(lat)[i][j]`` says carrier i is a subset of carrier j."""
    return tuple(tuple(a | b == b for b in lat.intersections)
                 for a in lat.intersections)


def relabelled(g: ng.GroupTable, seed: int) -> ng.GroupTable:
    """``g`` with its elements shuffled by a seeded permutation, written out
    with ``to_table_text`` and read back through ``parse_table_text``; the
    identity usually moves away from index 0 before the parser restores it."""
    perm = list(range(g.order))
    random.Random(seed).shuffle(perm)
    mul = [[0] * g.order for _ in range(g.order)]
    for i, row in enumerate(g.mul):
        for j, k in enumerate(row):
            mul[perm[i]][perm[j]] = perm[k]
    inv, names = [0] * g.order, [""] * g.order
    for i in range(g.order):
        inv[perm[i]], names[perm[i]] = perm[g.inv[i]], g.names[i]
    shuffled = dataclasses.replace(g, mul=tuple(map(tuple, mul)),
                                   inv=tuple(inv), names=tuple(names))
    return ng.parse_table_text(ng.to_table_text(shuffled),
                               label=f"{g.label} relabelled {seed}")


# Generators of small permutation groups, each permutation of 0..k-1 given
# as the tuple of its images.
PERMUTATION_GROUPS = {
    "A4": ((1, 2, 0, 3), (1, 0, 3, 2)),        # (0 1 2), (0 1)(2 3)
    "S4": ((1, 2, 3, 0), (1, 0, 2, 3)),        # (0 1 2 3), (0 1)
    "A5": ((1, 2, 3, 4, 0), (1, 2, 0, 3, 4)),  # (0 1 2 3 4), (0 1 2)
}


def permutation_table(gens, label: str = "") -> ng.GroupTable:
    """The group generated by permutations of 0..k-1, each given as the
    tuple of its images, as a Cayley table with the identity first."""
    identity = tuple(range(len(gens[0])))
    elems, index = [identity], {identity: 0}
    for p in elems:
        for s in gens:
            q = tuple(s[i] for i in p)
            if q not in index:
                index[q] = len(elems)
                elems.append(q)
    rows = [" ".join(str(index[tuple(b[i] for i in a)]) for b in elems)
            for a in elems]
    return ng.parse_table_text(f"{len(elems)}\n" + "\n".join(rows) + "\n",
                               label=label)


def small_orders(limit: int):
    """Catalog entries whose group order is at most ``limit``."""
    return [s for s in ng.SMALL_CATALOG if group(s).order <= limit]
