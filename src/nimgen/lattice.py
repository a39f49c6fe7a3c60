"""Maximal subgroups and the intersection lattice they generate.

The maximal subgroups come by one of three routes: a closed form for a
non-abelian Dih(A), the Frattini quotients of a nilpotent group, and for
any other group the walk over every subgroup and its joins.

A position of the generation game sits inside a unique smallest intersection
of maximal subgroups (or generates the whole group).  That intersection is
the position's structure class; the terminal class of generating positions
is identified by the sentinel ``TERMINAL``.  Classes are found through the
element-by-maximal incidence: an element's signature is the set of maximals
holding it, and a class's intent is the set of maximals holding its carrier.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Sequence

from .groups import (GroupTable, check_order_cap, extend_subgroup, mask_of,
                     normal_closure, prime_factors, span, subgroup_walk)

TERMINAL = -1  # class id of the terminal class (the whole group)

DEFAULT_ORDER_CAP = 200


def _by_size(masks) -> tuple[int, ...]:
    return tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))


def _frattini_maximals(g: GroupTable, a: int, elems: Sequence[int], gens: tuple[int, ...]
                       ) -> list[tuple[int, list[int], tuple[int, ...]]] | None:
    """Maximal subgroups of the subgroup A = ``span``'s ``(a, elems, gens)``,
    from its Frattini quotients, as ``(mask, elements, generating tuple)``
    triples like ``extend_subgroup``'s, or None when A is not nilpotent.

    A is nilpotent iff its lower central series reaches 1 before a term
    repeats: γ_2 = A' is the normal closure of the commutators of ``gens``,
    γ_{i+1} that of γ_i's generators' commutators with ``gens``.  Every
    maximal of a nilpotent group is normal of prime index p and contains
    N_p = A'A^p, so the maximals of index p are the preimages of the
    hyperplanes of the F_p vector space A/N_p (Burnside basis theorem;
    Holt-Eick-O'Brien, Handbook of Computational Group Theory, on the
    Frattini subgroup).  N_p is the normal closure of A' and the p-th
    powers of ``gens``: modulo it the generators commute and have order p,
    and it lies inside A'A^p.  The elements that ``extend_subgroup`` adds
    to N_p to reach A, in index order, are a basis b_1..b_d of A/N_p, and
    the kernel of the functional with coefficients c, whose first non-zero
    c_i is 1, is spanned over N_p by b_j for j < i and b_j·b_i^-c_j for
    j > i.  Kernels that agree on c up to c_j share their span up to b_j,
    which is built once.
    """
    mul, inv = g.mul, g.inv

    def commutators(xs):
        return mask_of(mul[inv[mul[y][x]]][mul[x][y]] for x in xs for y in gens)

    derived = term = normal_closure(g, commutators(gens), gens)
    while term[0] != 1:
        last, term = term[0], normal_closure(g, commutators(term[2]), gens)
        if term[0] == last:
            return None
    maxi = []
    for p in prime_factors(len(elems)):
        pth = gens  # the p-th powers of gens, once the loop is done
        for _ in range(p - 1):
            pth = [mul[y][x] for y, x in zip(pth, gens)]
        seed = mask_of((*derived[2], *pth))
        chain, basis = [normal_closure(g, seed, gens)], []  # chain[i] = <N_p, b_1..b_i>
        while rest := a & ~chain[-1][0]:
            basis.append((rest & -rest).bit_length() - 1)
            chain.append(extend_subgroup(g, *chain[-1], basis[-1]))
        for i, b in enumerate(basis):
            powers = [0]  # b^-c for c = 0..p-1
            for _ in range(p - 1):
                powers.append(mul[powers[-1]][inv[b]])
            spans = [chain[i]]  # one per choice of the coefficients so far
            for bj in basis[i + 1:]:
                spans = [extend_subgroup(g, *m, mul[bj][q])
                         for m in spans for q in powers]
            maxi += spans
    return maxi


def _dih_maximals(g: GroupTable) -> list[int] | None:
    """Maximal subgroups of a non-abelian Dih(A) = A ⋊ <t>, t inverting A,
    or None when G is not one.

    Let A be the span of the non-involutions, so that every element outside
    A is an involution.  G is a non-abelian Dih(A) exactly when A is
    non-trivial of index 2: then (ta)^2 = e gives t·a·t^-1 = a^-1 for every
    a in A, so inversion is an automorphism of A and A is abelian.  The
    maximals are A and, for each maximal M of A, of prime index p, the p
    subgroups M ∪ M·s, one per coset M·s of M in the reflections: a maximal
    H ≠ A meets A in some M, every reflection s normalizes every subgroup
    of A, so M is maximal in A, and each such union has prime index.
    """
    n, mul = g.order, g.mul
    if n == 2 or n & 1:  # a non-abelian Dih(A) has even order above 2
        return None
    a, elems, gens = span(g, mask_of(x for x in range(n) if mul[x][x]))
    if 2 * len(elems) != n:
        return None
    maxi = [a]
    for m, m_elems, _ in _frattini_maximals(g, a, elems, gens):
        rest = g.full_mask & ~a  # the reflections in no coset M·s built so far
        while rest.bit_count() > len(m_elems):
            s = (rest & -rest).bit_length() - 1
            coset = mask_of(map(mul[s].__getitem__, m_elems))  # s·M = M·s
            maxi.append(m | coset)
            rest &= ~coset
        maxi.append(m | rest)
    return maxi


def maximal_subgroups(g: GroupTable, *, order_cap: int = DEFAULT_ORDER_CAP) -> tuple[int, ...]:
    """Masks of the maximal subgroups, sorted by size, then by mask.

    Three routes, with no subgroup enumeration for the first two.  A
    non-abelian Dih(A), recognized on the table, takes A and each maximal
    M of A united with each of its cosets in the reflections
    (``_dih_maximals``).  Nilpotent groups read them off their Frattini
    quotients as spans over N_p, each built from G' (``_frattini_maximals``).
    That route follows G's lower central series from G' and refuses the
    group when a term repeats before 1; such a group walks every subgroup
    with its joins (``subgroup_walk``): a proper subgroup is maximal
    exactly when its only join is G.
    """
    if g.order < 2:
        raise ValueError("the trivial group has no maximal subgroups")
    check_order_cap(g.order, order_cap)
    if (dih := _dih_maximals(g)) is not None:
        return _by_size(dih)
    if (maxi := _frattini_maximals(g, *span(g, g.full_mask))) is not None:
        return _by_size(m for m, _, _ in maxi)
    return _by_size(h for h, _, joins in subgroup_walk(g) if joins == {g.full_mask})


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
    maximals: tuple[int, ...]
    sig: tuple[int, ...] = field(repr=False)
    options: tuple[tuple[int, ...], ...] = field(repr=False)
    intent_index: dict[int, int] = field(repr=False, compare=False)
    # classes are numbered by carrier size, so the Frattini class comes first
    frattini_index: ClassVar[int] = 0

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
    J & I = J.  So pending intents wait in a dict, each with the option
    set of whichever parent reached it last.  A class whose intent is a
    single maximal is that maximal subgroup, so its one option is
    ``TERMINAL`` and it is not probed.  A carrier is the meet of its
    intent's maximals; classes are numbered by carrier size, then mask, so
    every option has a larger id than its class.
    """
    maxi = maximal_subgroups(g, order_cap=order_cap)
    sig = [0] * g.order
    for i, m in enumerate(maxi):
        bit = 1 << i
        while m:
            low = m & -m
            sig[low.bit_length() - 1] |= bit
            m ^= low
    moves: dict[int, set[int]] = {}  # intent -> intents of its options
    todo = {sig[0]: set(sig)}  # pending intent -> the masks it probes
    while todo:
        intent, probes = todo.popitem()
        # a single maximal's class is that maximal: its one option is TERMINAL
        opts = moves[intent] = {intent & s for s in probes} if intent & (intent - 1) else {0}
        opts.discard(intent)
        for j in opts:
            if j and j not in moves:
                todo[j] = opts
    full, by_carrier = g.full_mask, {}
    for i in moves:
        carrier, bits = full, i
        while bits:
            low = bits & -bits
            carrier &= maxi[low.bit_length() - 1]
            bits ^= low
        by_carrier[carrier] = i
    carriers = sorted(sorted(by_carrier), key=int.bit_count)
    index = {by_carrier[c]: cid for cid, c in enumerate(carriers)}
    index[0] = TERMINAL
    get = index.__getitem__
    options = tuple(tuple(sorted(map(get, moves[by_carrier[c]]))) for c in carriers)
    del index[0]
    return IntersectionLattice(
        group=g, intersections=tuple(carriers), maximals=maxi,
        sig=tuple(sig), options=options, intent_index=index)


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
    options = lat.options
    dist = [0] * (len(options) + 1)  # the terminal's 0 last, read as -1
    per = {TERMINAL: 0}
    for cid in reversed(range(len(options))):
        d = len(options)  # above every distance
        for j in options[cid]:
            if dist[j] < d:
                d = dist[j]
        per[cid] = dist[cid] = d + 1
    return DeficiencyTable(per_class=per, d_g=per[lat.frattini_index])
