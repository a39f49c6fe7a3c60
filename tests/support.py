"""Cached builders shared across test modules, and reference algorithms.

Every module pulls groups, lattices, and solver output through these
memoized helpers, so each is built once per test session.
"""

import dataclasses
import random
from collections import deque
from functools import lru_cache, reduce
from math import gcd
from operator import or_

import nimgen as ng
from nimgen.groups import Cyclic, Dih, Product, iter_mask, subgroup_walk
from nimgen.lattice import (TERMINAL, DeficiencyTable, IntersectionLattice, _and_over,
                            _dih_maximals, class_parity, maximal_subgroups)
from nimgen.solver import GEN, ClassNimTable, _check_game


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
    return tuple((cid, j) for cid, opts in enumerate(lattice(spec).options)
                 for j in opts)


@lru_cache(maxsize=None)
def deficiencies(spec: str) -> ng.DeficiencyTable:
    return ng.deficiency_table(lattice(spec))


@lru_cache(maxsize=None)
def digraph(spec: str) -> ng.StructureDigraph:
    return ng.build_digraph(group(spec), lattice(spec), nims(spec),
                            deficiencies(spec))


@lru_cache(maxsize=None)
def brute_memo(spec: str, variant: str = ng.GEN) -> dict:
    """Nim value of every non-generating position P, read from the state
    memo of ``brute_search`` at (<P>, |P|).  <P> is <P minus its top
    element> joined with that element, one ``reference_closure`` per
    distinct join."""
    g = group(spec)
    states = ng.brute_search(g, variant)
    full = g.full_mask
    span = [1] * (1 << g.order)  # span[P] = <P>
    joined: dict[int, int] = {}
    memo = {0: states[1, 0]}
    for mask in range(1, 1 << g.order):
        top = 1 << (mask.bit_length() - 1)
        h = span[mask ^ top]
        if h != full and not h & top:
            seed = h | top
            if seed not in joined:
                joined[seed] = reference_closure(g, seed)
            h = joined[seed]
        span[mask] = h
        if h != full:
            memo[mask] = states[h, mask.bit_count()]
    return memo


def refuse_builds_over(monkeypatch, limit: int) -> None:
    """Patch the table builders of ``nimgen.groups`` to raise AssertionError
    when asked for a group of order over ``limit``, so a test sees any
    table built past a cap instead of waiting for it."""
    import nimgen.groups

    def refusing(build, order_of):
        def wrapper(*groups):
            if order_of(*groups) > limit:
                raise AssertionError(f"{build.__name__} asked for order "
                                     f"{order_of(*groups)}")
            return build(*groups)
        return wrapper

    for name, order_of in (("build_cyclic", lambda n: n),
                           ("direct_product", lambda g, h: g.order * h.order),
                           ("dihedralize", lambda a: 2 * a.order)):
        monkeypatch.setattr(nimgen.groups, name,
                            refusing(getattr(nimgen.groups, name), order_of))


def reference_closure(g: ng.GroupTable, seed: int) -> int:
    """Mask of the subgroup generated by ``seed`` (the identity is always
    in), closing the set under products pairwise: the reference for the
    coset closure behind ``generated_subgroup``, ``span`` and joins."""
    n = g.order
    mul = g.mul
    full = g.full_mask
    mask = (seed | 1) & full
    elems = list(ng.iter_mask(mask))
    # A proper subgroup has at most half the elements, so once the closure
    # passes n/2 it can only be the whole group.
    if 2 * len(elems) > n:
        return full
    pending = list(elems)
    while pending:
        x = pending.pop()
        row = mul[x]
        for idx in range(len(elems)):
            y = elems[idx]
            for z in (row[y], mul[y][x]):
                b = 1 << z
                if not mask & b:
                    mask |= b
                    elems.append(z)
                    pending.append(z)
        if 2 * len(elems) > n:
            return full
    return mask


def reference_normal_closure(g: ng.GroupTable, seed: int) -> int:
    """Mask of the least normal subgroup holding ``seed``: the set with its
    conjugates by every element, closed by ``reference_closure`` until
    nothing changes; the reference for ``normal_closure``."""
    mul, inv = g.mul, g.inv
    mask = (seed | 1) & g.full_mask
    while True:
        conjugates = ng.mask_of(mul[mul[inv[s]][x]][s]
                                for x in ng.iter_mask(mask) for s in range(g.order))
        closed = reference_closure(g, mask | conjugates)
        if closed == mask:
            return mask
        mask = closed


def reference_brute_search(g: ng.GroupTable, variant: str = ng.GEN) -> dict[int, int]:
    """Memoized nim values of every position reachable from the empty set,
    with one ``reference_closure`` per position: the reference
    for the memoized-join search of ``brute_search``."""
    full = g.full_mask
    closures: dict[int, int] = {}

    def closure(mask: int) -> int:
        if mask not in closures:
            closures[mask] = reference_closure(g, mask)
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
    """Deficiency of every subset with one ``reference_closure`` per mask:
    the reference for the per-subgroup deficiencies behind
    ``check_deficiency_oracle``."""
    n = g.order
    delta = [0] * (1 << n)
    for mask in reversed(range(1 << n)):
        if reference_closure(g, mask) != g.full_mask:
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


def reference_is_nilpotent(g: ng.GroupTable) -> bool:
    """A finite group is nilpotent iff elements of coprime order commute,
    each order counted by powering: the reference for the lower central
    series that ``lattice._frattini_maximals`` follows to refuse a group."""
    mul = g.mul
    by_order: dict[int, list[int]] = {}
    for x in range(g.order):
        k, y = 1, x
        while y != 0:
            y = mul[y][x]
            k += 1
        by_order.setdefault(k, []).append(x)
    return all(mul[x][y] == mul[y][x]
               for a in by_order for b in by_order if 1 < a < b and gcd(a, b) == 1
               for x in by_order[a] for y in by_order[b])


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
        return reduce(reference_direct_product, map(reference_group, spec.factors))
    assert isinstance(spec, Dih), spec
    return reference_dihedralize(reference_group(spec.inner))


def reference_subgroups(g: ng.GroupTable) -> tuple[int, ...]:
    """Every subgroup mask, sorted by size, then by mask, by join closure.

    Joins each subgroup H found with one element x of each right coset Hx
    outside it, since <H, a·x> = <H, x> for every a in H: one
    ``reference_closure`` call each, O(|K|^2) per join, kept as the
    reference that the Dimino and double-coset walk of ``subgroup_walk``
    must match.
    """
    mul = g.mul
    seen = {1}
    frontier = [1]
    while frontier:
        h = frontier.pop()
        elems = list(ng.iter_mask(h))
        covered = h
        for x in range(1, g.order):
            if not (covered >> x) & 1:
                covered |= sum(1 << mul[a][x] for a in elems)
                j = reference_closure(g, h | (1 << x))
                if j not in seen:
                    seen.add(j)
                    frontier.append(j)
    return tuple(sorted(seen, key=lambda m: (m.bit_count(), m)))


def walk_subgroups(g: ng.GroupTable) -> tuple[int, ...]:
    """Every subgroup mask that ``subgroup_walk`` reaches, sorted like
    ``reference_subgroups``."""
    return tuple(sorted((h for h, _, _ in subgroup_walk(g)),
                        key=lambda m: (m.bit_count(), m)))


def reference_maximals(g: ng.GroupTable) -> tuple[int, ...]:
    """Maximal subgroups by the O(S^2) containment filter over every
    subgroup: the reference for every route of ``maximal_subgroups``.

    The subgroups come from ``subgroup_walk``, which reads none of their
    containments; ``test_subgroups_match_join_closure_reference`` and
    ``test_permutation_group_subgroups`` pin its subgroup set to
    ``reference_subgroups``, too slow to feed this filter in every test."""
    proper = walk_subgroups(g)[:-1]
    return tuple(m for m in proper
                 if not any(m != k and m | k == k for k in proper))


def carried(masks, g: ng.GroupTable, h: ng.GroupTable) -> tuple[int, ...]:
    """Masks over ``g`` moved to ``h``, a relabelling of ``g``, through the
    element names that ``relabelled`` keeps, sorted by size, then by mask:
    one reference computed on ``g`` serves each relabelled table."""
    where = {name: i for i, name in enumerate(h.names)}
    assert len(where) == h.order == g.order, "element names must be distinct"
    to = [1 << where[name] for name in g.names]
    return tuple(sorted((sum(map(to.__getitem__, ng.iter_mask(m))) for m in masks),
                        key=lambda m: (m.bit_count(), m)))


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


def reference_class_nims(lat: ng.IntersectionLattice,
                         variant: str = ng.GEN) -> dict[int, tuple[int, int]]:
    """Per-class (even, odd) nim values from sets of option values and
    ``mex``, the terminal class filtered out of every option list in DNG:
    the reference for the bit-mask class mex of ``structure_nim``, with
    its keys in the same order."""
    options = lat.options
    if variant == ng.DNG:
        options = [[j for j in opts if j != ng.TERMINAL] for opts in options]
    per = {ng.TERMINAL: (0, 0)}
    for cid in reversed(range(len(options))):
        opts = options[cid]
        pools = ({per[j][0] for j in opts}, {per[j][1] for j in opts})
        q = ng.class_parity(lat, cid)
        n_carrier = ng.mex(pools[1 - q])
        n_other = ng.mex(pools[q] | {n_carrier})
        per[cid] = (n_carrier, n_other) if q == 0 else (n_other, n_carrier)
    return per


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


# The class passes as they were before each became one flat loop per
# class, kept verbatim apart from their names: the references that the flat
# ``intersection_subgroups``, ``structure_nim`` and ``deficiency_table``
# must equal.


def reference_intersection_subgroups(g: ng.GroupTable, *,
                                     order_cap: int = ng.DEFAULT_ORDER_CAP
                                     ) -> ng.IntersectionLattice:
    """The intersections of maximal subgroups, with each class's options.

    Adding element x to a class of intent I leads to the class of intent
    ``I & sig[x]``, or to ``TERMINAL`` when no maximal is left; elements
    with equal signatures lead to the same class, so one probe per distinct
    signature suffices.  Walking these moves from the Frattini class, whose
    intent ``sig[0]`` holds every maximal, reaches every class, since each
    carrier is the Frattini subgroup plus its own elements.  Every result
    other than I is an option of I.  An option J of I probes only J & r for
    the options r of I: J & s = J & (I & s) for every signature s, and
    J & I = J.  A class whose intent is a single maximal is that maximal
    subgroup, so its one option is ``TERMINAL`` and it is not probed.  A
    carrier is the meet of its intent's maximals; classes are numbered by
    carrier size, then mask, so every option has a larger id than its
    class.
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
        # a single maximal's class is that maximal: its one option is TERMINAL
        opts = moves[intent] = {intent & s for s in probes} if intent & (intent - 1) else {0}
        opts.discard(intent)
        frontier += [(j, opts) for j in opts if j and j not in moves]
    by_carrier = {_and_over(maxi, i, g.full_mask): i for i in moves}
    carriers = sorted(sorted(by_carrier), key=int.bit_count)
    index = {by_carrier[c]: cid for cid, c in enumerate(carriers)}
    index[0] = TERMINAL
    options = tuple(tuple(sorted(map(index.__getitem__, moves[by_carrier[c]])))
                    for c in carriers)
    del index[0]
    return IntersectionLattice(
        group=g, intersections=tuple(carriers), maximals=maxi,
        sig=tuple(sig), options=options, intent_index=index)


def reference_structure_nim(g: ng.GroupTable, lat: ng.IntersectionLattice,
                            variant: str = ng.GEN) -> ng.ClassNimTable:
    """Solve a game over structure classes instead of positions.

    Classes are processed from the last id down; every option of a class
    lies in a class with a strictly larger carrier, hence a larger id, or is
    terminal.  Even and odd nim values are one-bit masks in two lists, so
    a pool is an OR and its mex the lowest clear bit.  The terminal class
    has the last slot, read by option ``TERMINAL`` (-1): a generating
    position ends GEN with value 0, so the slot holds the bit of 0; in DNG
    no move may reach one, so it holds nothing.
    """
    _check_game(g, variant)
    even = [0] * len(lat.options) + [1 if variant == GEN else 0]
    odd = list(even)
    per: dict[int, tuple[int, int]] = {TERMINAL: (0, 0)}
    for cid in reversed(range(len(lat.options))):
        opts = lat.options[cid]
        pools = (reduce(or_, map(even.__getitem__, opts)),
                 reduce(or_, map(odd.__getitem__, opts)))
        q = class_parity(lat, cid)
        # A move adds one element, so every option of a position has the
        # opposite parity.  Positions sharing the carrier's parity include
        # the carrier itself, which has no move that stays inside the class;
        # opposite-parity positions are proper subsets of the carrier and
        # always have such a move.  Proper subsets of the carrier's parity
        # also reach n_other != n_carrier, which leaves their mex unchanged.
        n_carrier = ~pools[1 - q] & (pools[1 - q] + 1)  # lowest clear bit
        n_other = ~(pools[q] | n_carrier) & ((pools[q] | n_carrier) + 1)
        even[cid], odd[cid] = (n_carrier, n_other) if q == 0 else (n_other, n_carrier)
        per[cid] = (even[cid].bit_length() - 1, odd[cid].bit_length() - 1)
    return ClassNimTable(per_class=per, game_nim=per[lat.frattini_index][0])


def reference_deficiency_table(lat: ng.IntersectionLattice) -> ng.DeficiencyTable:
    """Distances to the terminal class along option edges.

    Every option of a class has a larger class id or is terminal, so one
    pass from the last class down settles each distance.  Every carrier is
    proper and so has an option; the Frattini class, inside every carrier,
    is the farthest, at d(G).
    """
    dist = [0] * (len(lat.options) + 1)  # the terminal's 0 last, read as -1
    per = {TERMINAL: 0}
    for cid in reversed(range(len(lat.options))):
        per[cid] = dist[cid] = 1 + min(map(dist.__getitem__, lat.options[cid]))
    return DeficiencyTable(per_class=per, d_g=per[lat.frattini_index])


def reference_simplify(d, rng: random.Random | None = None) -> ng.SimplifiedDiagram:
    """Merge two blocks of equal type and equal option-type profile, one
    pair at a time (a random pair with ``rng``), until no pair qualifies:
    the definition in ``simplify``'s docstring.  A block's profile is its
    type with the types its members' edges reach; the edges are read from
    ``d.edges``, and a structure digraph's class ids are mapped to vertex
    indices through each vertex's ``cid``."""
    if isinstance(d, ng.StructureDigraph):
        members = [(v.cid,) for v in d.vertices]
        index = {v.cid: i for i, v in enumerate(d.vertices)}
    else:
        members = [v.members for v in d.vertices]
        index = {i: i for i in range(len(d.vertices))}
    types = [v.vtype for v in d.vertices]
    reach = [{types[i]} for i in range(len(types))]
    for a, b in d.edges:
        reach[index[a]].add(types[index[b]])
    blocks = [[i] for i in range(len(types))]
    while True:
        by_key: dict = {}
        for k, block in enumerate(blocks):
            profile = frozenset().union(*(reach[i] for i in block))
            by_key.setdefault((types[block[0]], profile), []).append(k)
        pairs = [ks for ks in by_key.values() if len(ks) > 1]
        if not pairs:
            break
        ks = rng.choice(pairs) if rng else pairs[0]
        x, y = sorted(rng.sample(ks, 2)) if rng else ks[:2]
        blocks[x] += blocks.pop(y)
    named = sorted((types[block[0]], tuple(sorted(c for i in block for c in members[i])),
                    block) for block in blocks)
    home = {i: k for k, (_, _, block) in enumerate(named) for i in block}
    edges = {(home[index[a]], home[index[b]]) for a, b in d.edges}
    return ng.SimplifiedDiagram(
        vertices=tuple(ng.MergedVertex(vtype=t, members=cids) for t, cids, _ in named),
        options=tuple(tuple(sorted(b for a, b in edges if a == k and b != k))
                      for k in range(len(named))))


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


def frattini_quotient(g: ng.GroupTable) -> ng.GroupTable:
    """G/Φ(G) as a Cayley table, one element per coset xΦ, numbered in the
    order of its least member x, so the identity coset comes first."""
    phi = list(ng.iter_mask(ng.intersection_subgroups(g).frattini_mask))
    coset_of: dict[int, int] = {}
    reps = []
    for x in range(g.order):
        if x not in coset_of:
            for z in phi:
                coset_of[g.mul[x][z]] = len(reps)
            reps.append(x)
    rows = [" ".join(str(coset_of[g.mul[a][b]]) for b in reps) for a in reps]
    return ng.parse_table_text(f"{len(reps)}\n" + "\n".join(rows) + "\n",
                               label=f"{g.label}/Frattini")


# Generators of small permutation groups, each permutation of 0..k-1 given
# as the tuple of its images.
PERMUTATION_GROUPS = {
    "A4": ((1, 2, 0, 3), (1, 0, 3, 2)),        # (0 1 2), (0 1)(2 3)
    "S4": ((1, 2, 3, 0), (1, 0, 2, 3)),        # (0 1 2 3), (0 1)
    "A5": ((1, 2, 3, 4, 0), (1, 2, 0, 3, 4)),  # (0 1 2 3 4), (0 1 2)
    "S5": ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4)),  # (0 1 2 3 4), (0 1)
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


@lru_cache(maxsize=None)
def heisenberg(p: int) -> ng.GroupTable:
    """Upper unitriangular 3x3 matrices over F_p: nilpotent, not abelian."""
    elems = [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]
    index = {e: i for i, e in enumerate(elems)}
    rows = [" ".join(str(index[(x[0] + y[0]) % p, (x[1] + y[1]) % p,
                                 (x[2] + y[2] + x[0] * y[1]) % p])
                     for y in elems) for x in elems]
    return ng.parse_table_text(f"{len(elems)}\n" + "\n".join(rows) + "\n",
                               label=f"Heisenberg({p})")


def small_orders(limit: int):
    """Catalog entries whose group order is at most ``limit``."""
    return [s for s in ng.SMALL_CATALOG if group(s).order <= limit]


def product_catalog(order_cap: int):
    """Specs Dih(A)xB, with B abelian of order at least 2, and Dih(A)xDih(B),
    over unordered pairs with |A|, |B| at least 2, of order at most
    ``order_cap``, that reach the general route of ``maximal_subgroups``:
    neither a non-abelian Dih(A) nor nilpotent.  A and B run over
    ``abelian_groups``; there are 266 such specs at order cap 200."""
    parts = [a for n in range(1, order_cap // 2 + 1) for a in ng.abelian_groups(n)]
    specs = [f"Dih({a.spec_string})x{b.spec_string}" for a in parts for b in parts
             if b.order >= 2 and 2 * a.order * b.order <= order_cap]
    specs += [f"Dih({a.spec_string})xDih({b.spec_string})"
              for i, a in enumerate(parts) for b in parts[i:]
              if a.order >= 2 and b.order >= 2 and 4 * a.order * b.order <= order_cap]
    for spec in specs:
        g = ng.build_group(spec)
        if _dih_maximals(g) is None and not reference_is_nilpotent(g):
            yield spec
