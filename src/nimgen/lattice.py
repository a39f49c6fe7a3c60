"""Subgroup enumeration and the intersection lattice of maximal subgroups.

A position of the generation game sits inside a unique smallest intersection
of maximal subgroups (or generates the whole group).  That intersection is
the position's structure class; the terminal class of generating positions
is identified by the sentinel ``TERMINAL``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import CapacityError
from .groups import GroupTable

TERMINAL = -1  # class id of the terminal class (the whole group)

DEFAULT_ORDER_CAP = 200


def all_subgroups(g: GroupTable, *, order_cap: int = DEFAULT_ORDER_CAP) -> tuple[int, ...]:
    """Masks of every subgroup, sorted by size, then by mask.

    Every subgroup is the join of the cyclic subgroups inside it, so each
    subgroup H found, from the trivial one on, is joined with one generator
    c of every cyclic subgroup it lacks.  K = <H, c> is closed as a union
    of right cosets of H, after Dimino's algorithm: from representative e,
    for each representative r and each generator s of K (the tuple H was
    found with, plus c) with r·s not yet in K, the coset H·(r·s) joins K
    and r·s becomes a representative.  That costs O(|K| + #reps·#gens)
    table lookups.  A proper subgroup has at most half the elements, so
    once K passes |G|/2 it is the whole group, which is never joined.
    """
    if g.order > order_cap:
        raise CapacityError(
            f"subgroup enumeration capped at order {order_cap}, group has order {g.order}")
    mul = g.mul
    cyclic: dict[int, int] = {}  # mask of <x> -> its first generator x
    for x in range(1, g.order):
        m, y = 1, x
        while y:
            m |= 1 << y
            y = mul[y][x]
        cyclic.setdefault(m, x)
    found = {1: ([0], ())}  # mask -> (elements, generating tuple)
    frontier = [1]
    while frontier:
        h = frontier.pop()
        elems, gens = found[h]
        for c in cyclic.values():
            if (h >> c) & 1:
                continue
            k, k_elems, k_gens, reps = h, list(elems), gens + (c,), [0]
            for r in reps:
                for s in k_gens:
                    t = mul[r][s]
                    if not (k >> t) & 1:
                        coset = [mul[z][t] for z in elems]
                        for z in coset:
                            k |= 1 << z
                        k_elems += coset
                        reps.append(t)
                if 2 * len(k_elems) > g.order:
                    k = g.full_mask
                    break
            if k not in found:
                found[k] = (k_elems, k_gens)
                frontier.append(k)
    return tuple(sorted(found, key=lambda m: (m.bit_count(), m)))


def maximal_subgroups(g: GroupTable, *, order_cap: int = DEFAULT_ORDER_CAP) -> tuple[int, ...]:
    """Masks of the maximal subgroups (proper subgroups maximal by inclusion)."""
    if g.order < 2:
        raise ValueError("the trivial group has no maximal subgroups")
    subs = all_subgroups(g, order_cap=order_cap)
    full = g.full_mask
    proper = [m for m in subs if m != full]
    return tuple(m for m in proper
                 if not any(m != k and m | k == k for k in proper))


@dataclass(frozen=True)
class IntersectionLattice:
    """All intersections of maximal subgroups, sorted by size.

    ``intersections[frattini_index]`` is the Frattini subgroup, the minimum
    of the family.  ``options[cid]`` lists the option classes of class
    ``cid``; it and ``containment`` are computed on first use.
    """

    group: GroupTable = field(repr=False, compare=False)
    intersections: tuple[int, ...]
    frattini_index: int
    maximals: tuple[int, ...]

    @property
    def group_order(self) -> int:
        return self.group.order

    @property
    def frattini_mask(self) -> int:
        return self.intersections[self.frattini_index]

    @cached_property
    def index(self) -> dict[int, int]:
        """Class id of every intersection subgroup, by mask."""
        return {m: i for i, m in enumerate(self.intersections)}

    @cached_property
    def containment(self) -> tuple[tuple[bool, ...], ...]:
        """``containment[i][j]`` says carrier i is a subset of carrier j."""
        return tuple(tuple(a | b == b for b in self.intersections)
                     for a in self.intersections)

    @cached_property
    def options(self) -> tuple[tuple[int, ...], ...]:
        return tuple(class_options(self, self.group, cid)
                     for cid in range(len(self.intersections)))

    def carrier(self, cid: int) -> int:
        if cid == TERMINAL:
            raise ValueError("the terminal class has no carrier in the lattice")
        return self.intersections[cid]


def intersection_subgroups(g: GroupTable, *, order_cap: int = DEFAULT_ORDER_CAP) -> IntersectionLattice:
    """Close the maximal subgroups under intersection.

    Every member is an intersection of maximals, so intersecting each new
    member with each maximal reaches the whole family.  The smallest member
    is the intersection of all maximals, the Frattini subgroup.
    """
    maxi = maximal_subgroups(g, order_cap=order_cap)
    members = set(maxi)
    frontier = list(members)
    while frontier:
        a = frontier.pop()
        for b in maxi:
            c = a & b
            if c not in members:
                members.add(c)
                frontier.append(c)
    return IntersectionLattice(
        group=g,
        intersections=tuple(sorted(members, key=lambda m: (m.bit_count(), m))),
        frattini_index=0,
        maximals=tuple(sorted(maxi, key=lambda m: (m.bit_count(), m))),
    )


def ceil_class(lat: IntersectionLattice, g: GroupTable, mask: int) -> int:
    """Class of a position: the smallest intersection subgroup containing it.

    That subgroup is the meet of the maximal subgroups containing the
    subset.  Returns ``TERMINAL`` when no maximal subgroup contains it,
    which happens exactly when the subset generates the whole group.
    """
    meet = -1
    for m in lat.maximals:
        if mask | m == m:
            meet &= m
    return TERMINAL if meet == -1 else lat.index[meet]


def class_parity(lat: IntersectionLattice, cid: int) -> int:
    """Parity bit of a class: 1 if its carrier has odd order."""
    if cid == TERMINAL:
        return lat.group_order & 1
    return lat.intersections[cid].bit_count() & 1


def class_options(lat: IntersectionLattice, g: GroupTable, cid: int) -> tuple[int, ...]:
    """Classes reachable from this one by adding a single element.

    Probing with the carrier itself is enough: two positions in one class
    reach the same other classes.  Every probe adds an element outside the
    carrier, so the result never contains ``cid``; moves that stay in the
    class are handled by the solver.  Solvers read these lists from
    ``IntersectionLattice.options``.
    """
    if cid == TERMINAL:
        raise ValueError("the terminal class has no options")
    carrier = lat.intersections[cid]
    return tuple(sorted({ceil_class(lat, g, carrier | (1 << x))
                         for x in range(g.order) if not (carrier >> x) & 1}))


def class_edges(lat: IntersectionLattice, g: GroupTable) -> tuple[tuple[int, int], ...]:
    """All (class, option class) edges of the structure digraph."""
    return tuple((cid, opt) for cid, opts in enumerate(lat.options)
                 for opt in opts)
