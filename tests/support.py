"""Cached builders shared across test modules, and reference algorithms.

Every module pulls groups, lattices, and solver output through these
memoized helpers, so each is built once per test session.
"""

from functools import lru_cache

import nimgen as ng


@lru_cache(maxsize=None)
def group(spec: str) -> ng.GroupTable:
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
    return ng.deficiency_table(group(spec), lattice(spec), edges(spec))


@lru_cache(maxsize=None)
def digraph(spec: str) -> ng.StructureDigraph:
    return ng.build_digraph(group(spec), lattice(spec), nims(spec),
                            deficiencies(spec))


@lru_cache(maxsize=None)
def brute_memo(spec: str, variant: str = ng.GEN) -> dict:
    return ng.brute_search(group(spec), variant)


@lru_cache(maxsize=None)
def exhaustive_map(spec: str) -> tuple:
    return tuple(ng.exhaustive_deficiency_map(group(spec)))


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


def small_orders(limit: int):
    """Catalog entries whose group order is at most ``limit``."""
    return [s for s in ng.SMALL_CATALOG if group(s).order <= limit]
