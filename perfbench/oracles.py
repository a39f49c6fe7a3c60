"""Expected answers computed from the definitions, apart from nimgen.

Nothing here imports nimgen.  Every value comes either from a published
classification or from counting subspaces:

* GEN(Dih(A)) is 1 if A is cyclic with |A| = 2 (mod 4), 3 if |A| is odd and
  d(A) <= 2, and 0 otherwise (the paper's classification).
* DNG(Dih(A)) is 3 if A is cyclic of odd order and 0 otherwise (Benesh,
  Ernst and Sieben, *Impartial avoidance games for generating finite
  groups*).
* d(A) is the largest number of cyclic factors of A divisible by one prime,
  and d(Dih(A)) = d(A) + 1.
* Dih(Z_n) has tau(n) + sigma(n) subgroups, and Z_p^k has one subgroup per
  subspace of F_p^k.
* Intersection counts: in an abelian A the maximal subgroups containing the
  Frattini subgroup pA_p of each Sylow part A_p are the preimages of the
  hyperplanes of A_p / pA_p = F_p^(r_p), so the intersections of maximal
  subgroups of A are the products of preimages of subspaces V_p, not all of
  them full.  The maximal subgroups of Dih(A) are A and <M, as> for M
  maximal in A and each coset aM; intersecting them gives every B in
  Int(A) + {A}, and <B, as> for every B in Int(A) and each of the [A:B]
  cosets of B.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from math import prod


def prime_factors(n: int) -> list[int]:
    """Distinct primes dividing ``n``, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def gaussian_binomial(k: int, j: int, p: int) -> int:
    """Number of j-dimensional subspaces of F_p^k."""
    num = prod(p ** (k - i) - 1 for i in range(j))
    den = prod(p ** (i + 1) - 1 for i in range(j))
    return num // den


def subspaces(p: int, k: int) -> int:
    """Number of subspaces of F_p^k, including 0 and the whole space."""
    return sum(gaussian_binomial(k, j, p) for j in range(k + 1))


def _weighted_subspaces(p: int, k: int) -> int:
    """Sum over subspaces V of F_p^k of the index [F_p^k : V]."""
    return sum(gaussian_binomial(k, j, p) * p ** (k - j) for j in range(k + 1))


@dataclass(frozen=True)
class Abelian:
    """A finite abelian group as a product of cyclic factors."""

    factors: tuple[int, ...]

    @property
    def order(self) -> int:
        return prod(self.factors)

    def ranks(self) -> dict[int, int]:
        """Per prime p, the number of cyclic factors divisible by p."""
        return {p: sum(1 for f in self.factors if f % p == 0)
                for p in prime_factors(self.order)}

    @property
    def d(self) -> int:
        return max(self.ranks().values(), default=0)

    @property
    def is_cyclic(self) -> bool:
        return self.d <= 1

    def intersections(self) -> int:
        """Number of intersections of maximal subgroups of A."""
        return prod(subspaces(p, r) for p, r in self.ranks().items()) - 1

    def dih_intersections(self) -> int:
        """Number of intersections of maximal subgroups of Dih(A)."""
        ranks = self.ranks().items()
        return (prod(subspaces(p, r) for p, r in ranks)
                + prod(_weighted_subspaces(p, r) for p, r in ranks) - 1)


def gen_dih(a: Abelian) -> int:
    """Achievement-game nim value of Dih(A)."""
    if a.is_cyclic and a.order % 4 == 2:
        return 1
    if a.order % 2 == 1 and a.d <= 2:
        return 3
    return 0


def dng_dih(a: Abelian) -> int:
    """Avoidance-game nim value of Dih(A)."""
    return 3 if a.is_cyclic and a.order % 2 == 1 else 0


def dih_cyclic_subgroups(n: int) -> int:
    """Subgroup count of Dih(Z_n): tau(n) cyclic plus sigma(n) dihedral."""
    divisors = [k for k in range(1, n + 1) if n % k == 0]
    return len(divisors) + sum(divisors)


_SPEC = re.compile(r"^(Dih\()?(Z\d+(?:xZ\d+)*)\)?$")


@dataclass(frozen=True)
class Expected:
    """What any correct solver must report for one group."""

    order: int
    d: int
    intersections: int
    gen: int | None
    dng: int | None
    subgroups: int | None


def parse(spec: str) -> tuple[bool, Abelian]:
    """Split ``Z..xZ..`` or ``Dih(Z..xZ..)`` into (is Dih, abelian part)."""
    m = _SPEC.match(spec)
    if m is None:
        raise ValueError(f"no oracle for {spec!r}")
    return bool(m.group(1)), Abelian(
        tuple(int(f) for f in m.group(2)[1:].split("xZ")))


def expected(spec: str) -> Expected:
    """Expected values for ``Z..xZ..`` or ``Dih(Z..xZ..)``.

    Nim values are known for Dih(A); a plain abelian group gets them only
    when it is an elementary abelian 2-group Z2^k = Dih(Z2^(k-1)).
    """
    is_dih, a = parse(spec)
    if is_dih:
        subgroups = (dih_cyclic_subgroups(a.order) if a.is_cyclic
                     else subspaces(2, a.d + 1) if set(a.factors) == {2}
                     else None)
        return Expected(order=2 * a.order, d=a.d + 1,
                        intersections=a.dih_intersections(),
                        gen=gen_dih(a), dng=dng_dih(a), subgroups=subgroups)
    elementary = [p for p in a.ranks() if all(f == p for f in a.factors)]
    inner = Abelian((2,) * (len(a.factors) - 1)) if elementary == [2] else None
    return Expected(
        order=a.order, d=a.d, intersections=a.intersections(),
        gen=gen_dih(inner) if inner and inner.factors else None,
        dng=dng_dih(inner) if inner and inner.factors else None,
        subgroups=subspaces(elementary[0], a.d) if elementary else None)


def dih_table(factors: tuple[int, ...]) -> list[list[int]]:
    """Cayley table of Dih(A) from its definition, before any relabelling.

    Element s^k a (k in {0, 1}, a a tuple of residues) has index
    k * |A| + (mixed-radix index of a); (s^k1 a1)(s^k2 a2) = s^(k1+k2)
    (a1^((-1)^k2) a2), since s a s^-1 = a^-1.
    """
    size = prod(factors)

    def digits(i: int) -> list[int]:
        out = []
        for f in reversed(factors):
            out.append(i % f)
            i //= f
        return out[::-1]

    def index(ds: list[int]) -> int:
        i = 0
        for f, x in zip(factors, ds):
            i = i * f + x % f
        return i

    elems = [digits(i) for i in range(size)]
    table = []
    for k1 in range(2):
        for a1 in elems:
            row = []
            for k2 in range(2):
                sign = -1 if k2 else 1
                for a2 in elems:
                    row.append(((k1 + k2) % 2) * size
                               + index([sign * x + y for x, y in zip(a1, a2)]))
            table.append(row)
    return table


def relabelled_table_text(table: list[list[int]], rng: random.Random) -> str:
    """Table file text after renaming every element by a random permutation."""
    n = len(table)
    perm = list(range(n))
    rng.shuffle(perm)
    new = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            new[perm[i]][perm[j]] = perm[table[i][j]]
    return f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in new)
