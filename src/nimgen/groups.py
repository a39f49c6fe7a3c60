"""Finite groups as immutable Cayley tables.

Element indices run 0..order-1 and index 0 is always the identity.  Subsets
of a group (game positions, subgroup carriers, generating sets) are plain
``int`` bitmasks over element indices, so membership, union and intersection
are single integer operations.  ``build_group`` builds a spec from the inside
out and refuses the first table over an order cap before building it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Union

from .errors import CapacityError, NonAbelianError, SpecParseError, TableFormatError


def mask_of(indices: Iterable[int]) -> int:
    """Bitmask with the given element indices set."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def iter_mask(mask: int) -> Iterator[int]:
    """Indices set in ``mask``, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class GroupTable:
    """A finite group: multiplication table, inverses and display names."""

    order: int
    mul: tuple[tuple[int, ...], ...]
    inv: tuple[int, ...]
    names: tuple[str, ...]
    label: str = ""

    @property
    def full_mask(self) -> int:
        return (1 << self.order) - 1


def build_cyclic(n: int) -> GroupTable:
    """Cyclic group of order ``n`` with elements e, g, g^2, ..."""
    if n < 1:
        raise ValueError(f"cyclic group order must be at least 1, got {n}")
    r = tuple(range(n))
    mul = tuple(r[i:] + r[:i] for i in r)
    inv = tuple((-i) % n for i in r)
    names = tuple("e" if k == 0 else "g" if k == 1 else f"g^{k}" for k in range(n))
    return GroupTable(order=n, mul=mul, inv=inv, names=names, label=f"Z{n}")


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Direct product; element (a, b) is encoded as a * |h| + b."""
    n, m = g.order, h.order
    # Row (a, b) is h's row b shifted by (a*c)*|h|, for each c in g's row a.
    shifted = [[tuple(map((p * m).__add__, row)) for row in h.mul] for p in range(n)]
    mul = tuple(tuple(chain.from_iterable(shifted[p][b] for p in g.mul[a]))
                for a in range(n) for b in range(m))
    inv = tuple(g.inv[a] * m + h.inv[b] for a in range(n) for b in range(m))
    names = tuple(f"({g.names[a]},{h.names[b]})" for a in range(n) for b in range(m))
    label = f"{g.label}x{h.label}" if g.label and h.label else ""
    return GroupTable(order=n * m, mul=mul, inv=inv, names=names, label=label)


def is_abelian(g: GroupTable) -> bool:
    """The table equals its transpose."""
    return list(zip(*g.mul)) == list(g.mul)


def dihedralize(a: GroupTable) -> GroupTable:
    """Generalized dihedral group of an abelian group.

    Adjoins a flip ``x`` with x^2 = e and x a x = a^-1, doubling the order.
    Elements 0..|A|-1 are the original group; element |A|+m is x*a_m.  Every
    element outside the original group is an involution.
    """
    if not is_abelian(a):
        raise NonAbelianError(
            f"dihedralize needs an abelian group, {a.label or 'input'} is not abelian")
    n, mul_a, inv_a = a.order, a.mul, a.inv
    # a_m * x*a_k = x*(a_m^-1 a_k) and x*a_m * x*a_k = a_m^-1 a_k.
    shift = [tuple(map(n.__add__, row)) for row in mul_a]
    mul = (tuple(mul_a[m] + shift[inv_a[m]] for m in range(n))
           + tuple(shift[m] + mul_a[inv_a[m]] for m in range(n)))
    inv = inv_a + tuple(range(n, 2 * n))
    names = a.names + tuple("x" if m == 0 else f"x·{a.names[m]}" for m in range(n))
    label = f"Dih({a.label})" if a.label else ""
    return GroupTable(order=2 * n, mul=mul, inv=inv, names=names, label=label)


def prime_factors(n: int) -> set[int]:
    """The primes dividing ``n``."""
    out = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return out


def generated_subgroup(g: GroupTable, seed: int) -> int:
    """Mask of the subgroup generated by ``seed`` (the identity is always in)."""
    return span(g, seed)[0]


def extend_subgroup(g: GroupTable, h: int, elems: list[int], gens: tuple[int, ...],
                    x: int) -> tuple[int, list[int], tuple[int, ...]]:
    """Mask, elements and generating tuple of K = <H, x>, for a subgroup H
    (mask ``h``, elements ``elems``, generating tuple ``gens``) and x not in H,
    or G itself when H = G.

    Dimino's algorithm: K is a union of right cosets of H.  For each coset
    representative r, from e, and each generator s of K with r·s not yet in
    K, the coset H·(r·s) joins K and r·s becomes a representative, at
    O(|K| + cosets·generators) table lookups.  |K| is a multiple of |H|
    dividing |G|, so once K passes the largest proper such divisor it is G.
    """
    n, mul = g.order, g.mul
    index, p = n // len(elems), 2
    while p < index and index % p:
        p += 1
    limit = n // p  # the largest proper divisor of n that |H| divides
    k, k_elems, k_gens, reps = h, list(elems), gens + (x,), [0]
    for r in reps:
        for s in k_gens:
            t = mul[r][s]
            if not (k >> t) & 1:
                coset = [mul[z][t] for z in elems]
                for z in coset:
                    k |= 1 << z
                k_elems += coset
                reps.append(t)
        if len(k_elems) > limit:
            return g.full_mask, list(range(n)), k_gens
    return k, k_elems, k_gens


def span(g: GroupTable, seed: int) -> tuple[int, list[int], tuple[int, ...]]:
    """Mask, elements and generating tuple of the subgroup generated by
    ``seed``: ``extend_subgroup`` by each element of ``seed`` within G that
    the subgroup built so far misses, in index order, from the trivial one."""
    k, elems, gens = 1, [0], ()
    rest = seed & g.full_mask & ~1
    while rest:
        x = (rest & -rest).bit_length() - 1
        k, elems, gens = extend_subgroup(g, k, elems, gens, x)
        rest &= ~k
    return k, elems, gens


def normal_closure(g: GroupTable, seed: int, gens: tuple[int, ...]
                   ) -> tuple[int, list[int], tuple[int, ...]]:
    """Mask, elements and generating tuple of the least subgroup holding
    ``seed`` that ``gens`` normalize: ``span(g, seed)``, extended by each
    conjugate s^-1·k·s it misses, for k among its generators and s in ``gens``."""
    mul, inv = g.mul, g.inv
    k, elems, k_gens = span(g, seed)
    for x in (todo := list(k_gens)):  # each generator the closure adds joins todo
        for s in gens:
            c = mul[mul[inv[s]][x]][s]
            if not (k >> c) & 1:
                k, elems, k_gens = extend_subgroup(g, k, elems, k_gens, c)
                todo.append(c)
    return k, elems, k_gens


def double_coset(g: GroupTable, elems: list[int], x: int) -> int:
    """Mask of the double coset HxH of the subgroup H with elements
    ``elems``, built one left coset a·x·H at a time."""
    mul = g.mul
    coset = 0
    for a in elems:
        t = mul[a][x]
        if not (coset >> t) & 1:
            row = mul[t]
            for z in elems:
                coset |= 1 << row[z]
    return coset


def subgroup_walk(g: GroupTable) -> list[tuple[int, int, set[int]]]:
    """Every subgroup H of G as (mask, d(H), joins), largest first: d(H) is
    the fewest elements that generate H, and the joins are the subgroups
    <H, x> for x outside H.

    One breadth-first walk from the trivial subgroup.  Before it closes a
    join <H, x>, the walk looks for it among the subgroups found so far: a
    found S holding H and x is <H, x> when (a) |S| = p·|H| for a prime p,
    since Lagrange leaves nothing strictly between H and S, or (b) |S| =
    |H|·|<x>| / |H ∩ <x>|, the size of the product set H<x> ⊆ <H, x> ⊆ S.
    In an abelian group <H, x> = H<x>, so there every found join is found
    this way.  A miss costs one ``extend_subgroup`` of the elements and
    generating tuple H was found with.  Then the walk drops the elements y
    with <H, y> = <H, x>: all of <H, x> when its index over H is prime, by
    (a), and the double coset HxH otherwise.  A chain of joins is a
    generating tuple and an irredundant generating tuple is a chain of
    joins, so the walk reaches every subgroup and H's depth is d(H).
    """
    n, full, mul = g.order, g.full_mask, g.mul
    primes = prime_factors(n)
    cyclic = []  # the mask of <x>, one power at a time
    for x in range(n):
        c, t = 1, x
        while t:
            c, t = c | 1 << t, mul[t][x]
        cyclic.append(c)
    # bit i of sig[e] is set when queue[i], the i-th subgroup found, holds
    # e, and by_size maps a size to the bits of the subgroups of that size
    sig, by_size = [1] + [0] * (n - 1), {1: 1}
    depth = {1: 0}
    joins: dict[int, set[int]] = {}
    queue: list[tuple[int, list[int], tuple[int, ...]]] = [(1, [0], ())]
    for h, elems, gens in queue:
        out = joins[h] = set()
        size = len(elems)
        over = (1 << len(queue)) - 1  # the found subgroups that hold H
        for s in gens:
            over &= sig[s]
        # the found subgroups of prime index over H; one found from H takes
        # all its elements out of rest, so it needs no bit here
        near = 0
        for p in primes:
            near |= by_size.get(p * size, 0)
        rest = full & ~h
        while rest:
            x = (rest & -rest).bit_length() - 1
            c = cyclic[x]
            hit = over & sig[x] & (
                near | by_size.get(size * c.bit_count() // (h & c).bit_count(), 0))
            if hit:
                k = queue[hit.bit_length() - 1][0]
            else:
                k, k_elems, k_gens = extend_subgroup(g, h, elems, gens, x)
                if k not in depth:
                    depth[k] = depth[h] + 1
                    bit = 1 << len(queue)
                    queue.append((k, k_elems, k_gens))
                    for e in k_elems:
                        sig[e] |= bit
                    by_size[len(k_elems)] = by_size.get(len(k_elems), 0) | bit
                    over |= bit
            out.add(k)
            rest &= ~(k if k.bit_count() // size in primes else double_coset(g, elems, x))
    return [(h, depth[h], joins[h])
            for h in sorted(depth, key=int.bit_count, reverse=True)]


# ---------------------------------------------------------------------------
# Group spec expressions


@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class Product:
    """The direct product of two or more factors, left to right."""

    factors: tuple["GroupSpec", ...]


@dataclass(frozen=True)
class Dih:
    inner: "GroupSpec"


@dataclass(frozen=True)
class TableFile:
    path: str


GroupSpec = Union[Cyclic, Product, Dih, TableFile]


# Each Dih doubles the order, so a spec nested deeper names a group of order
# at least 2**100; the parser and ``build_group`` recurse once per level.
_MAX_DIH_DEPTH = 100


class _SpecParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def fail(self, message: str) -> None:
        raise SpecParseError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expr(self) -> GroupSpec:
        factors = [self.atom()]
        self.skip_ws()
        while self.pos < len(self.text) and self.text[self.pos] == "x":
            self.pos += 1
            factors.append(self.atom())
            self.skip_ws()
        return Product(tuple(factors)) if len(factors) > 1 else factors[0]

    def atom(self) -> GroupSpec:
        self.skip_ws()
        text = self.text
        if text.startswith("Dih", self.pos):
            if self.depth == _MAX_DIH_DEPTH:
                self.fail(f"Dih nested more than {_MAX_DIH_DEPTH} deep")
            self.depth += 1
            self.pos += 3
            self.skip_ws()
            if self.pos >= len(text) or text[self.pos] != "(":
                self.fail("expected '(' after 'Dih'")
            self.pos += 1
            inner = self.expr()
            self.skip_ws()
            if self.pos >= len(text) or text[self.pos] != ")":
                self.fail("expected ')'")
            self.pos += 1
            self.depth -= 1
            return Dih(inner)
        if text.startswith("table:", self.pos):
            self.pos += len("table:")
            end = text.find(")", self.pos)
            if end == -1:
                end = len(text)
            path = text[self.pos:end].strip()
            if not path:
                self.fail("empty path after 'table:'")
            self.pos = end
            return TableFile(path)
        if self.pos < len(text) and text[self.pos] == "Z":
            self.pos += 1
            start = self.pos
            while self.pos < len(text) and text[self.pos] in "0123456789":
                self.pos += 1
            if self.pos == start:
                self.fail("expected digits after 'Z'")
            try:
                n = int(text[start:self.pos])
            except ValueError:  # over sys.get_int_max_str_digits()
                self.pos = start
                self.fail("cyclic group order has too many digits")
            if n < 1:
                self.pos = start
                self.fail("cyclic group order must be at least 1")
            return Cyclic(n)
        self.fail("expected 'Z<n>', 'Dih(...)' or 'table:<path>'")
        raise AssertionError  # unreachable


def parse_group_spec(text: str) -> GroupSpec:
    """Parse expressions like ``Z12``, ``Z2xZ4``, ``Dih(Z3xZ9)``, ``table:k4.tbl``."""
    p = _SpecParser(text)
    spec = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.fail("unexpected trailing input")
    return spec


def check_order_cap(order: int, order_cap: int | None) -> None:
    """Raise CapacityError if a group of ``order`` is over ``order_cap``
    (``None``: no cap); orders below 2 are left to the solvers to refuse."""
    if order_cap is not None and order >= 2 and order > order_cap:
        raise CapacityError(
            f"structure lattice capped at order {order_cap}, group has order {order}")


def build_group(spec: GroupSpec | str, order_cap: int | None = None) -> GroupTable:
    """Construct the group a spec describes, from the inside out.

    With an ``order_cap``, the first table over it is refused with
    CapacityError before it is built: a product factor by factor, left to
    right, on the order so far, a ``Dih`` on its inner order, a table file on its header, which is read
    before the rest of the file.
    """
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if isinstance(spec, Cyclic):
        check_order_cap(spec.n, order_cap)
        return build_cyclic(spec.n)
    if isinstance(spec, Product):
        first, *rest = spec.factors
        g = build_group(first, order_cap)
        for factor in rest:
            h = build_group(factor, order_cap)
            check_order_cap(g.order * h.order, order_cap)
            g = direct_product(g, h)
        return g
    if isinstance(spec, Dih):
        inner = build_group(spec.inner, order_cap)
        check_order_cap(2 * inner.order, order_cap)
        return dihedralize(inner)
    if isinstance(spec, TableFile):
        p = Path(spec.path)
        try:
            with p.open(encoding="utf-8") as fh:
                header = chain.from_iterable(map(str.splitlines, fh))
                check_order_cap(_declared_order(header), order_cap)
                fh.seek(0)
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise TableFormatError(f"cannot read table file {p}: {exc}") from exc
        return parse_table_text(text, label=f"table:{p}")
    raise TypeError(f"not a group spec: {spec!r}")


# ---------------------------------------------------------------------------
# Cayley table files


def _declared_order(lines: Iterable[str]) -> int:
    """The group order on the first non-blank line of a table file."""
    first = next((ln for ln in map(str.strip, lines) if ln), None)
    if first is None:
        raise TableFormatError("empty table file")
    try:
        n = int(first)
    except ValueError:
        raise TableFormatError(f"first line must be the group order, got {first!r}") from None
    if n < 1:
        raise TableFormatError(f"group order must be at least 1, got {n}")
    return n


def load_table_file(path: str | Path) -> GroupTable:
    """Load and validate a Cayley table file."""
    return build_group(TableFile(str(path)))


def to_table_text(g: GroupTable) -> str:
    """The table file of a group, with its element names; the inverse of
    ``parse_table_text``."""
    lines = [str(g.order)]
    lines += [" ".join(map(str, row)) for row in g.mul]
    lines += [f"name {i} {name}" for i, name in enumerate(g.names)]
    return "\n".join(lines) + "\n"


def parse_table_text(text: str, label: str = "") -> GroupTable:
    """Parse a Cayley table.

    Format: first line is the order n, followed by n lines of n 0-based
    indices (row i, column j holds the index of element i * element j), then
    optional ``name <i> <string>`` lines.  The table is checked to be a group
    and re-indexed so the identity sits at index 0.
    """
    lines = [ln for ln in map(str.strip, text.splitlines()) if ln]
    n = _declared_order(lines)
    if len(lines) < 1 + n:
        raise TableFormatError(f"expected {n} table rows, found {len(lines) - 1}")

    mul: list[tuple[int, ...]] = []
    for i in range(n):
        tokens = lines[1 + i].split()
        if len(tokens) != n:
            raise TableFormatError(f"row {i} has {len(tokens)} entries, expected {n}")
        try:
            row = tuple(map(int, tokens))
        except ValueError:
            raise TableFormatError(f"row {i} contains a non-integer entry") from None
        if min(row) < 0 or max(row) >= n:
            j = next(j for j, v in enumerate(row) if not 0 <= v < n)
            raise TableFormatError(f"entry ({i}, {j}) is {row[j]}, outside 0..{n - 1}")
        mul.append(row)

    name_overrides: dict[int, str] = {}
    for extra in lines[1 + n:]:
        parts = extra.split(maxsplit=2)
        if len(parts) != 3 or parts[0] != "name":
            raise TableFormatError(f"unrecognized trailing line: {extra!r}")
        try:
            idx = int(parts[1])
        except ValueError:
            raise TableFormatError(f"bad name index in line: {extra!r}") from None
        if not 0 <= idx < n:
            raise TableFormatError(f"name index {idx} outside 0..{n - 1}")
        name_overrides[idx] = parts[2]

    # Every entry is in range, so a line is a permutation iff it has no repeat.
    for i, row in enumerate(mul):
        if len(set(row)) != n:
            raise TableFormatError(f"row {i} is not a permutation of 0..{n - 1}")
    cols = list(zip(*mul))
    for j, col in enumerate(cols):
        if len(set(col)) != n:
            raise TableFormatError(f"column {j} is not a permutation of 0..{n - 1}")

    everything = tuple(range(n))
    identity = next((e for e in everything
                     if mul[e] == everything and cols[e] == everything), None)
    if identity is None:
        raise TableFormatError("table has no two-sided identity element")

    # Light's test: the elements s with (x*s)*y = x*(s*y) for all x, y are
    # closed under the product, so checking a set that generates the table
    # under the product is exact.  Each element the closure of the earlier
    # ones misses is checked and joins the closure.  The closure is built
    # from the table directly: a non-associative table need not obey
    # Lagrange's theorem, which extend_subgroup relies on.  Its elements
    # all associate, so u*(v*s) = (u*v)*s for u, v in it and a checked s:
    # the closure is the checked elements closed under right products by them.
    # The identity always associates, so it seeds the closure untested, and
    # at order 1 no row reaches ``itemgetter``, which would return a scalar.
    closure, members, checked = 1 << identity, [identity], [identity]
    for s in everything:
        if (closure >> s) & 1:
            continue
        row_s, times_s = mul[s], itemgetter(*mul[s])
        for i, row_i in enumerate(mul):
            row_is = mul[row_i[s]]
            if row_is != times_s(row_i):
                k = next(k for k in everything if row_is[k] != row_i[row_s[k]])
                raise TableFormatError(
                    f"associativity fails for triple ({i}, {s}, {k}): "
                    f"({i}*{s})*{k} = {row_is[k]} but {i}*({s}*{k}) = {row_i[row_s[k]]}")
        checked.append(s)
        closure |= 1 << s
        members.append(s)
        pending = list(members)
        while pending:
            for c in map(mul[pending.pop()].__getitem__, checked):
                if not (closure >> c) & 1:
                    closure |= 1 << c
                    members.append(c)
                    pending.append(c)

    # Re-index so the identity is element 0: swapping 0 and the identity is
    # its own inverse, so new row k is old row swap[k], relabelled.  A table
    # with its identity at 0 already is kept, as at order 1, where
    # ``itemgetter`` would return a scalar.
    swap = list(everything)
    swap[identity], swap[0] = 0, identity
    relabel = itemgetter(*swap)
    new_mul = (tuple(itemgetter(*relabel(mul[old]))(swap) for old in swap)
               if identity else tuple(mul))
    names = tuple(name_overrides.get(old, f"g{old}") for old in swap)

    # Each right inverse is two-sided: i*j = e makes j*i idempotent,
    # (j*i)(j*i) = j(ij)i = j*i, and with permutation rows only e is.
    inv = tuple(row.index(0) for row in new_mul)
    return GroupTable(order=n, mul=new_mul, inv=inv, names=names, label=label)
