"""Maximal subgroups and the intersection lattice they generate.

The maximal subgroups come by one of three routes: a closed form for a
non-abelian Dih(A), the Frattini quotients of a nilpotent group, and for
any other group the enumeration of every subgroup.

A position of the generation game sits inside a unique smallest intersection
of maximal subgroups (or generates the whole group).  That intersection is
the position's structure class; the terminal class of generating positions
is identified by the sentinel ``TERMINAL``.  Classes are found through the
element-by-maximal incidence: an element's signature is the set of maximals
holding it, and a class's intent is the set of maximals holding its carrier.
Every entry point that takes a group spec builds it through ``build_capped``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Mapping, Sequence

from .errors import CapacityError
from .groups import (GroupSpec, GroupTable, build_group, double_coset, extend_subgroup,
                     generated_subgroup, is_nilpotent, iter_mask, mask_of,
                     parse_group_spec, prime_factors, span, spec_order)

TERMINAL = -1  # class id of the terminal class (the whole group)

DEFAULT_ORDER_CAP = 200


def _by_size(masks) -> tuple[int, ...]:
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def check_order_cap(order: int, order_cap: int, exact: bool = True) -> None:
    """Raise CapacityError if a group of ``order`` is over ``order_cap``;
    with ``exact`` false, ``order`` is the lower bound a spec declares."""
    if order > order_cap:
        found = f"group has order {order}" if exact else f"spec declares order at least {order}"
        raise CapacityError(f"structure lattice capped at order {order_cap}, {found}")


def build_capped(spec: GroupSpec | str, order_cap: int) -> GroupTable:
    """The group of a spec, refused with CapacityError before any table is
    built when its order, or the lower bound ``spec_order`` gives, is over
    ``order_cap``.  Orders below 2 are left to the solvers to refuse."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    order, exact = spec_order(spec)
    if order >= 2:
        check_order_cap(order, order_cap, exact)
    return build_group(spec)


def all_subgroups(g: GroupTable, *, order_cap: int = DEFAULT_ORDER_CAP) -> tuple[int, ...]:
    """Masks of every subgroup, sorted by size, then by mask.

    Neubüser's cyclic extension, run up to conjugacy (Holt-Eick-O'Brien,
    Handbook of Computational Group Theory, on subgroup lattices).  Every
    subgroup is generated by its elements of prime-power order, so each
    representative H, from the trivial subgroup on, is joined with one
    generator c of every cyclic subgroup of prime-power order.  A join K
    not seen before enters ``seen`` with all its conjugates, the orbit of
    K under conjugation by a greedy generating set of G, and only K itself
    is expanded; a join already seen is not.

    This reaches every subgroup.  Take L = <c_1..c_m> with each c_i of
    prime-power order, and the chain L_i = <c_1..c_i>.  Suppose L_i^g is
    an expanded representative R.  Then L_{i+1}^g = <R, c_{i+1}^g>, and
    c_{i+1}^g generates the same cyclic subgroup as one of the chosen
    generators, so that join is made: L_{i+1}^g is a new representative
    or a conjugate of one.  By induction from L_0 = 1, L is in ``seen``.

    <H, c'> = <H, c> for every c' in the double coset HcH, so after each
    join HcH is marked done for H and its generators are not joined again.
    Each join is closed by Dimino's coset extension (``extend_subgroup``)
    of the generating tuple H was found with, and the greedy generating set
    is the one ``span`` closes G with.
    """
    check_order_cap(g.order, order_cap)
    n, mul, inv, full = g.order, g.mul, g.inv, g.full_mask
    cyclic: dict[int, int] = {}  # mask of <x> of prime-power order -> x
    for x in range(1, n):
        m, y = 1, x
        while y:
            m |= 1 << y
            y = mul[y][x]
        if len(prime_factors(m.bit_count())) == 1:
            cyclic.setdefault(m, x)
    # z -> s^-1·z·s, for each s of a greedy generating set
    conj = [tuple(mul[mul[inv[s]][z]][s] for z in range(n)) for s in span(g, full)[2]]
    seen = {1, full}
    frontier = [(1, [0], ())]  # (mask, elements, generating tuple)
    while frontier:
        h, elems, gens = frontier.pop()
        done = h
        for c in cyclic.values():
            if (done >> c) & 1:
                continue
            k, k_elems, k_gens = extend_subgroup(g, h, elems, gens, c)
            done |= double_coset(g, elems, c)
            if k in seen:
                continue
            seen.add(k)
            frontier.append((k, k_elems, k_gens))
            orbit = [k_elems]
            for members in orbit:
                for perm in conj:
                    image = [perm[z] for z in members]
                    m = mask_of(image)
                    if m not in seen:
                        seen.add(m)
                        orbit.append(image)
    return _by_size(seen)


def _nilpotent_maximals(g: GroupTable, elems: Sequence[int]) -> list[int]:
    """Maximal subgroups of the nilpotent subgroup with elements ``elems``
    (``range(g.order)`` for G itself), from its Frattini quotients.

    Every maximal subgroup of a nilpotent group is normal of prime index p
    and contains N_p = <commutators, p-th powers>, and G/N_p is an F_p
    vector space (Burnside basis theorem; Holt-Eick-O'Brien, Handbook of
    Computational Group Theory, on the Frattini subgroup).  So the maximals
    of index p are the preimages of the hyperplanes of G/N_p: each element
    gets its coordinates over a greedy basis b_1..b_r of G/N_p, and each
    functional whose first non-zero coefficient is 1 cuts out one maximal,
    (p^r - 1)/(p - 1) of them.
    """
    mul, inv = g.mul, g.inv
    commutators = 0
    for x in elems:
        for y in elems:
            commutators |= 1 << mul[inv[mul[y][x]]][mul[x][y]]
    maxi = []
    for p in prime_factors(len(elems)):
        seed = commutators
        for x in elems:
            y = x
            for _ in range(p - 1):
                y = mul[y][x]
            seed |= 1 << y
        coords = {z: () for z in iter_mask(generated_subgroup(g, seed))}
        for b in elems:
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


def _dih_maximals(g: GroupTable) -> list[int] | None:
    """Maximal subgroups of a non-abelian Dih(A) = A ⋊ <t>, t inverting A,
    or None when G is not one.

    Let A be the span of the non-involutions.  G is a non-abelian Dih(A)
    exactly when A is non-trivial of index 2 and every element outside A is
    an involution: then (ta)^2 = e gives t·a·t^-1 = a^-1 for every a in A,
    so inversion is an automorphism of A and A is abelian.  The maximals
    are A and, for each maximal M of A, of prime index p, the p subgroups
    M ∪ M·r·t, one per coset rM: a maximal H ≠ A meets A in some M, t
    normalizes every subgroup of A, so M is maximal in A, and each such
    union has prime index.
    """
    n, mul = g.order, g.mul
    a, elems, _ = span(g, mask_of(x for x in range(n) if mul[x][x]))
    outside = [x for x in range(n) if not (a >> x) & 1]
    if n == 2 or 2 * len(elems) != n or any(mul[x][x] for x in outside):
        return None
    t, maxi = outside[0], [a]
    for m in _nilpotent_maximals(g, elems):
        members, covered = list(iter_mask(m)), 0
        for r in elems:
            if not (covered >> r) & 1:
                coset = [mul[z][r] for z in members]
                covered |= mask_of(coset)
                maxi.append(m | mask_of(mul[c][t] for c in coset))
    return maxi


def maximal_subgroups(g: GroupTable, *, order_cap: int = DEFAULT_ORDER_CAP) -> tuple[int, ...]:
    """Masks of the maximal subgroups, sorted by size, then by mask.

    Three routes, with no subgroup enumeration for the first two.  A
    non-abelian Dih(A), recognized on the table, takes A and the maximals
    of A with their cosets through t (``_dih_maximals``).  Nilpotent groups
    read them off their Frattini quotients.  Other groups enumerate every
    subgroup and keep, from the largest proper one down, each that lies in
    no maximal kept so far: O(subgroups x maximals).
    """
    if g.order < 2:
        raise ValueError("the trivial group has no maximal subgroups")
    check_order_cap(g.order, order_cap)
    if (dih := _dih_maximals(g)) is not None:
        return _by_size(dih)
    if is_nilpotent(g):
        return _by_size(_nilpotent_maximals(g, range(g.order)))
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
    of ``sig[x]`` says ``maximals[i]`` contains element x.  A class's
    intent has bit i set when ``maximals[i]`` contains its carrier; a class
    is the meet of its intent's maximals, so the intent identifies it, and
    ``intent_index`` maps each intent to its class id, in class-id order.
    ``options[cid]`` lists the option classes of class ``cid``, sorted.
    """

    group: GroupTable = field(repr=False, compare=False)
    intersections: tuple[int, ...]
    frattini_index: int
    maximals: tuple[int, ...]
    sig: tuple[int, ...] = field(repr=False)
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
    other than I is an option of I.  An option J of I probes only J & r for
    the options r of I: J & s = J & (I & s) for every signature s, and
    J & I = J.  A carrier is the meet of its intent's maximals; classes are
    numbered by carrier size, then mask, so every option has a larger id
    than its class.
    """
    maxi = maximal_subgroups(g, order_cap=order_cap)
    sig = [0] * g.order
    for i, m in enumerate(maxi):
        for x in iter_mask(m):
            sig[x] |= 1 << i
    moves: dict[int, set[int]] = {}  # intent -> intents of its options
    frontier = [(sig[0], set(sig))]  # (intent, the masks it probes)
    while frontier:
        intent, probes = frontier.pop()
        if intent in moves:
            continue
        opts = moves[intent] = {intent & s for s in probes if intent & s != intent}
        frontier += [(j, opts) for j in opts if j and j not in moves]
    carrier = {i: _and_over(maxi, i, g.full_mask) for i in moves}
    intents = sorted(moves, key=lambda i: (carrier[i].bit_count(), carrier[i]))
    index = {intent: cid for cid, intent in enumerate(intents)}
    options = tuple(tuple(sorted(index[j] if j else TERMINAL for j in moves[i]))
                    for i in intents)
    return IntersectionLattice(
        group=g, intersections=tuple(carrier[i] for i in intents),
        frattini_index=0, maximals=maxi, sig=tuple(sig), options=options,
        intent_index=index)


def ceil_class(lat: IntersectionLattice, g: GroupTable, mask: int) -> int:
    """Class of a position: the smallest intersection subgroup containing it.

    That subgroup is the meet of the maximal subgroups containing the
    subset, so its intent is the AND of the subset's signatures.  Returns
    ``TERMINAL`` when no maximal subgroup contains it, which happens exactly
    when the subset generates the whole group.  Bits past the order are ignored.
    """
    intent = _and_over(lat.sig, mask & lat.group.full_mask, lat.sig[0])
    return lat.intent_index[intent] if intent else TERMINAL


def class_parity(lat: IntersectionLattice, cid: int) -> int:
    """Parity bit of a class: 1 if its carrier has odd order."""
    if cid == TERMINAL:
        return lat.group.order & 1
    return lat.intersections[cid].bit_count() & 1


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
