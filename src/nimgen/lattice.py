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
from itertools import product
from typing import Mapping

from .errors import CapacityError
from .groups import (GroupTable, generated_subgroup, is_nilpotent, iter_mask,
                     prime_factors)

TERMINAL = -1  # class id of the terminal class (the whole group)

DEFAULT_ORDER_CAP = 200


def _by_size(masks) -> tuple[int, ...]:
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def check_order_cap(order: int, order_cap: int) -> None:
    """Raise CapacityError if a group of ``order`` is over ``order_cap``."""
    if order > order_cap:
        raise CapacityError(
            f"structure lattice capped at order {order_cap}, group has order {order}")


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
    check_order_cap(g.order, order_cap)
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
    check_order_cap(g.order, order_cap)
    if is_nilpotent(g):
        return _by_size(_nilpotent_maximals(g))
    maxi: list[int] = []
    for m in reversed(all_subgroups(g, order_cap=order_cap)[:-1]):
        if not any(m | k == k for k in maxi):
            maxi.append(m)
    return _by_size(maxi)


def _and_over(values: tuple[int, ...], bits: int, acc: int) -> int:
    """``acc`` ANDed with ``values[i]`` for every set bit i of ``bits``,
    stopping once it reaches 0."""
    while bits and acc:
        low = bits & -bits
        acc &= values[low.bit_length() - 1]
        bits ^= low
    return acc


@dataclass(frozen=True)
class IntersectionLattice:
    """All intersections of maximal subgroups, sorted by size.

    ``intersections[frattini_index]`` is the Frattini subgroup, the minimum
    of the family.  The element-by-maximal incidence is kept with it: bit i
    of ``sig[x]`` says ``maximals[i]`` contains element x, and bit i of
    ``intents[cid]`` says it contains the carrier of class ``cid``.
    ``options[cid]`` lists the option classes of class ``cid``, sorted,
    and ``intent_index`` maps each intent back to its class id: a class is
    the meet of its intent's maximals, so the intent identifies it.
    """

    group: GroupTable = field(repr=False, compare=False)
    intersections: tuple[int, ...]
    frattini_index: int
    maximals: tuple[int, ...]
    sig: tuple[int, ...] = field(repr=False)
    intents: tuple[int, ...] = field(repr=False)
    options: tuple[tuple[int, ...], ...] = field(repr=False)
    intent_index: dict[int, int] = field(repr=False, compare=False)

    @property
    def frattini_mask(self) -> int:
        return self.intersections[self.frattini_index]


def intersection_subgroups(g: GroupTable, *, order_cap: int = DEFAULT_ORDER_CAP) -> IntersectionLattice:
    """The intersections of maximal subgroups, with each class's options.

    Adding element x to a class of intent I leads to the class of intent
    ``I & sig[x]``, or to ``TERMINAL`` when no maximal is left; elements
    with equal signatures lead to the same class, so one probe per distinct
    signature suffices.  Walking these moves from the Frattini class, whose
    intent ``sig[0]`` holds every maximal, reaches every class, since each
    carrier is the Frattini subgroup plus its own elements.  Every result
    other than I is an option of I.  A carrier is the meet of its intent's
    maximals; classes are numbered by carrier size, then mask, so every
    option has a larger id than its class.
    """
    maxi = maximal_subgroups(g, order_cap=order_cap)
    sig = [0] * g.order
    for i, m in enumerate(maxi):
        for x in iter_mask(m):
            sig[x] |= 1 << i
    signatures = set(sig)
    moves: dict[int, set[int]] = {}  # intent -> intents of its options
    frontier = [sig[0]]
    while frontier:
        intent = frontier.pop()
        if intent in moves:
            continue
        moves[intent] = {intent & s for s in signatures if intent & s != intent}
        frontier += [j for j in moves[intent] if j and j not in moves]
    carrier = {i: _and_over(maxi, i, g.full_mask) for i in moves}
    intents = sorted(moves, key=lambda i: (carrier[i].bit_count(), carrier[i]))
    index = {intent: cid for cid, intent in enumerate(intents)}
    options = tuple(tuple(sorted(index[j] if j else TERMINAL for j in moves[i]))
                    for i in intents)
    return IntersectionLattice(
        group=g, intersections=tuple(carrier[i] for i in intents),
        frattini_index=0, maximals=maxi, sig=tuple(sig), intents=tuple(intents),
        options=options, intent_index=index)


def ceil_class(lat: IntersectionLattice, g: GroupTable, mask: int) -> int:
    """Class of a position: the smallest intersection subgroup containing it.

    That subgroup is the meet of the maximal subgroups containing the
    subset, so its intent is the AND of the subset's signatures.  Returns
    ``TERMINAL`` when no maximal subgroup contains it, which happens exactly
    when the subset generates the whole group.
    """
    intent = _and_over(lat.sig, mask, lat.sig[0])
    return lat.intent_index[intent] if intent else TERMINAL


def class_parity(lat: IntersectionLattice, cid: int) -> int:
    """Parity bit of a class: 1 if its carrier has odd order."""
    if cid == TERMINAL:
        return lat.group.order & 1
    return lat.intersections[cid].bit_count() & 1


def class_edges(lat: IntersectionLattice, g: GroupTable) -> tuple[tuple[int, int], ...]:
    """All (class, option class) edges of the structure digraph."""
    return tuple((cid, opt) for cid, opts in enumerate(lat.options)
                 for opt in opts)


@dataclass(frozen=True)
class DeficiencyTable:
    """Distance of every structure class to the terminal class."""

    per_class: Mapping[int, int]
    d_g: int


def deficiency_table(lat: IntersectionLattice) -> DeficiencyTable:
    """Distances to the terminal class along option edges.

    Every option of a class has a larger class id or is terminal, so one
    pass from the last class down settles each distance.  Every carrier is
    proper and so has an option; the Frattini class, inside every carrier,
    is the farthest, at d(G).
    """
    dist = {TERMINAL: 0}
    for cid in reversed(range(len(lat.options))):
        dist[cid] = 1 + min(dist[j] for j in lat.options[cid])
    return DeficiencyTable(per_class=dist, d_g=dist[lat.frattini_index])
