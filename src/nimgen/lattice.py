"""Maximal subgroups and the intersection lattice they generate.

A position of the generation game sits inside a unique smallest intersection
of maximal subgroups (or generates the whole group).  That intersection is
the position's structure class; the terminal class of generating positions
is identified by the sentinel ``TERMINAL``.  Classes are found through the
element-by-maximal incidence: an element's signature is the set of maximals
holding it, and a class's intent is the set of maximals holding its carrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

from .errors import CapacityError
from .groups import (GroupTable, generated_subgroup, is_nilpotent, iter_mask,
                     prime_factors)

TERMINAL = -1  # class id of the terminal class (the whole group)

DEFAULT_ORDER_CAP = 200


def _by_size(masks) -> tuple[int, ...]:
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def _check_order_cap(g: GroupTable, order_cap: int) -> None:
    if g.order > order_cap:
        raise CapacityError(
            f"subgroup enumeration capped at order {order_cap}, group has order {g.order}")


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
    _check_order_cap(g, order_cap)
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
    return _by_size(found)


def _nilpotent_maximals(g: GroupTable) -> list[int]:
    """Maximal subgroups of a nilpotent group, from its Frattini quotients.

    Every maximal subgroup of a nilpotent group is normal of prime index p
    and contains N_p = <commutators, p-th powers>, and G/N_p is an F_p
    vector space (Burnside basis theorem; Holt-Eick-O'Brien, Handbook of
    Computational Group Theory, on the Frattini subgroup).  So the maximals
    of index p are the preimages of the hyperplanes of G/N_p: each element
    gets its coordinates over a greedy basis b_1..b_r of G/N_p, and each
    functional whose first non-zero coefficient is 1 cuts out one maximal,
    (p^r - 1)/(p - 1) of them.
    """
    n, mul, inv = g.order, g.mul, g.inv
    commutators = 0
    for x in range(n):
        for y in range(n):
            commutators |= 1 << mul[inv[mul[y][x]]][mul[x][y]]
    maxi = []
    for p in prime_factors(n):
        seed = commutators
        for x in range(n):
            y = x
            for _ in range(p - 1):
                y = mul[y][x]
            seed |= 1 << y
        coords = {z: () for z in iter_mask(generated_subgroup(g, seed))}
        for b in range(n):
            if b in coords:
                continue
            # The subgroup covered so far contains N_p, so it is normal and
            # adjoining b adds the cosets b^a of it, a = 1..p-1.
            old, power = list(coords.items()), 0
            coords = {z: v + (0,) for z, v in old}
            for a in range(1, p):
                power = mul[power][b]
                for z, v in old:
                    coords[mul[power][z]] = v + (a,)
        r = len(coords[0])
        for lead in range(r):
            for tail in product(range(p), repeat=r - lead - 1):
                f = (0,) * lead + (1,) + tail
                maxi.append(sum(1 << z for z, v in coords.items()
                                if sum(c * a for c, a in zip(f, v)) % p == 0))
    return maxi


def maximal_subgroups(g: GroupTable, *, order_cap: int = DEFAULT_ORDER_CAP) -> tuple[int, ...]:
    """Masks of the maximal subgroups, sorted by size, then by mask.

    Nilpotent groups read them off their Frattini quotients.  Other groups
    enumerate every subgroup and keep, from the largest proper one down,
    each that lies in no maximal kept so far: O(subgroups x maximals).
    """
    if g.order < 2:
        raise ValueError("the trivial group has no maximal subgroups")
    _check_order_cap(g, order_cap)
    if is_nilpotent(g):
        return _by_size(_nilpotent_maximals(g))
    maxi: list[int] = []
    for m in reversed(all_subgroups(g, order_cap=order_cap)[:-1]):
        if not any(m | k == k for k in maxi):
            maxi.append(m)
    return _by_size(maxi)


def _intent_of(sig: tuple[int, ...], mask: int) -> int:
    """The AND of the signatures of the elements in ``mask``: the maximals
    that contain the subset, 0 as soon as none does."""
    intent = sig[0]
    while mask and intent:
        low = mask & -mask
        intent &= sig[low.bit_length() - 1]
        mask ^= low
    return intent


@dataclass(frozen=True)
class IntersectionLattice:
    """All intersections of maximal subgroups, sorted by size.

    ``intersections[frattini_index]`` is the Frattini subgroup, the minimum
    of the family.  The cached properties, computed on first use, hold the
    element-by-maximal incidence: bit i of ``sig[x]`` says ``maximals[i]``
    contains element x, and bit i of ``intents[cid]`` says it contains the
    carrier of class ``cid``.  ``options[cid]`` lists the option classes of
    class ``cid``.
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
    def sig(self) -> tuple[int, ...]:
        """Per element, the bitset of maximals that contain it."""
        sig = [0] * self.group.order
        for i, m in enumerate(self.maximals):
            for x in iter_mask(m):
                sig[x] |= 1 << i
        return tuple(sig)

    @cached_property
    def signatures(self) -> tuple[int, ...]:
        """The distinct element signatures; elements sharing one are
        interchangeable in every class computation."""
        return tuple(dict.fromkeys(self.sig))

    @cached_property
    def intents(self) -> tuple[int, ...]:
        """Per class, the bitset of maximals that contain its carrier."""
        return tuple(_intent_of(self.sig, c) for c in self.intersections)

    @cached_property
    def intent_index(self) -> dict[int, int]:
        """Class id by intent.  A class is the meet of its intent's maximals,
        so the intent identifies it."""
        return {intent: i for i, intent in enumerate(self.intents)}

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
    return IntersectionLattice(group=g, intersections=_by_size(members),
                               frattini_index=0, maximals=maxi)


def ceil_class(lat: IntersectionLattice, g: GroupTable, mask: int) -> int:
    """Class of a position: the smallest intersection subgroup containing it.

    That subgroup is the meet of the maximal subgroups containing the
    subset, so its intent is the AND of the subset's signatures.  Returns
    ``TERMINAL`` when no maximal subgroup contains it, which happens exactly
    when the subset generates the whole group.
    """
    intent = _intent_of(lat.sig, mask)
    return lat.intent_index[intent] if intent else TERMINAL


def class_parity(lat: IntersectionLattice, cid: int) -> int:
    """Parity bit of a class: 1 if its carrier has odd order."""
    if cid == TERMINAL:
        return lat.group_order & 1
    return lat.intersections[cid].bit_count() & 1


def class_options(lat: IntersectionLattice, g: GroupTable, cid: int) -> tuple[int, ...]:
    """Classes reachable from this one by adding a single element.

    Probing with the carrier itself is enough: two positions in one class
    reach the same other classes.  Adding element x to a class of intent I
    leads to the class of intent ``I & sig[x]``, or to ``TERMINAL`` when no
    maximal is left; x lies outside the carrier exactly when that drops a
    bit of I.  So one probe per distinct signature suffices, and the result
    never contains ``cid``; moves that stay in the class are handled by the
    solver.  Solvers read these lists from ``IntersectionLattice.options``.
    """
    if cid == TERMINAL:
        raise ValueError("the terminal class has no options")
    intent = lat.intents[cid]
    index = lat.intent_index
    return tuple(sorted({index[intent & s] if intent & s else TERMINAL
                         for s in lat.signatures if intent & s != intent}))


def class_edges(lat: IntersectionLattice, g: GroupTable) -> tuple[tuple[int, int], ...]:
    """All (class, option class) edges of the structure digraph."""
    return tuple((cid, opt) for cid, opts in enumerate(lat.options)
                 for opt in opts)
