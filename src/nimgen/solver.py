"""Nim-value solvers for the generation games.

GEN is the achievement game: players alternately pick unchosen elements and
whoever first makes the chosen set generate the whole group wins.  DNG is the
avoidance game: a player forced to complete a generating set loses.  Both are
scored by Sprague-Grundy values over the position DAG.

The brute solver reads only the Cayley table.  The game from a position P
depends only on the state (H, k) = (<P>, |P|): each of the |H| - k moves
inside H leads to (H, k + 1), and a move to x outside H leads to
(<H, x>, k + 1), since <P ∪ {x}> = <H ∪ {x}>.  One walk of the subgroups
(``groups.subgroup_walk``) gives each subgroup's joins and d(H), the least
size of a position generating H, and a loop from the largest subgroup down
fills one value per non-generating state; a generating move only adds 0 to
a mex.

The structure solver evaluates either game per structure class: inside a
class, positions of the carrier's parity and of the opposite parity each
share one nim value, so two mex equations per class suffice.  The games
differ only in the terminal class's slot: the bit of 0 in GEN, none in DNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Mapping

from .errors import CapacityError
from .groups import GroupSpec, GroupTable, build_group, check_order_cap, subgroup_walk
from .lattice import (
    DEFAULT_ORDER_CAP,
    TERMINAL,
    DeficiencyTable,
    IntersectionLattice,
    deficiency_table,
    intersection_subgroups,
)

GEN = "GEN"
DNG = "DNG"
Variant = Literal["GEN", "DNG"]

DEFAULT_BRUTE_CAP = 16


def _check_game(g: GroupTable, variant: str) -> None:
    """Refuse a game other than GEN and DNG, or a group too small to play on."""
    if variant not in (GEN, DNG):
        raise ValueError(f"unknown game {variant!r}, expected {GEN!r} or {DNG!r}")
    if g.order < 2:
        raise ValueError("generation games need a group of order at least 2")


def mex(values: Iterable[int]) -> int:
    """Minimum excludant: the least non-negative integer not in ``values``."""
    s = set(values)
    k = 0
    while k in s:
        k += 1
    return k


def brute_search(g: GroupTable, variant: Variant = GEN, *,
                 brute_cap: int = DEFAULT_BRUTE_CAP) -> dict[tuple[int, int], int]:
    """Nim values of every non-generating state reachable from ∅.

    A state (h, k) stands for every position of size k that generates the
    subgroup mask h; they all share one value, because the game from a
    position P depends only on <P> and |P|.  The reachable states of h are
    d(h) <= k <= |h|.  The value of (h, k) is the mex of (h, k + 1) when
    k < |h|, of (j, k + 1) for each proper join j of h, and of 0 in GEN when
    h has a generating join; ``subgroup_walk`` yields every h after its
    joins, so k runs down from |h| and each of those values is already set.
    Generating states are terminal and not stored, so both games hold the
    same keys; the empty position is the state (1, 0).
    """
    _check_game(g, variant)
    if g.order > brute_cap:
        raise CapacityError(
            f"brute-force search capped at order {brute_cap}, group has order {g.order}")
    full = g.full_mask
    gen = variant == GEN
    memo: dict[tuple[int, int], int] = {}
    for h, d, joins in subgroup_walk(g):
        if h == full:
            continue
        # A generating move ends GEN with value 0; DNG forbids it.
        base = 1 if gen and full in joins else 0
        proper = [j for j in joins if j != full]
        size = h.bit_count()
        for k in range(size, d - 1, -1):
            seen = base if k == size else base | 1 << memo[h, k + 1]
            for j in proper:
                seen |= 1 << memo[j, k + 1]
            memo[h, k] = (~seen & (seen + 1)).bit_length() - 1  # lowest clear bit
    return memo


def brute_nim(g: GroupTable, variant: Variant = GEN, *,
              brute_cap: int = DEFAULT_BRUTE_CAP) -> int:
    """Nim value of the game from the empty position, by exhaustive search."""
    return brute_search(g, variant, brute_cap=brute_cap)[1, 0]


@dataclass(frozen=True)
class ClassNimTable:
    """Per-class nim values: class id -> (even-position nim, odd-position nim)."""

    per_class: Mapping[int, tuple[int, int]]
    game_nim: int


def structure_nim(g: GroupTable, lat: IntersectionLattice,
                  variant: Variant = GEN) -> ClassNimTable:
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
    options, carriers = lat.options, lat.intersections
    even = [0] * len(options) + [1 if variant == GEN else 0]
    odd = list(even)
    per: dict[int, tuple[int, int]] = {TERMINAL: (0, 0)}
    for cid in reversed(range(len(options))):
        even_pool = odd_pool = 0
        for j in options[cid]:
            even_pool |= even[j]
            odd_pool |= odd[j]
        # A move adds one element, so every option of a position has the
        # opposite parity.  Positions sharing the carrier's parity include
        # the carrier itself, which has no move that stays inside the class;
        # opposite-parity positions are proper subsets of the carrier and
        # always have such a move.  Proper subsets of the carrier's parity
        # also reach n_other != n_carrier, which leaves their mex unchanged.
        q = carriers[cid].bit_count() & 1
        same, other = (odd_pool, even_pool) if q else (even_pool, odd_pool)
        n_carrier = ~other & (other + 1)  # lowest clear bit
        same |= n_carrier
        n_other = ~same & (same + 1)
        even[cid], odd[cid] = e, o = (n_other, n_carrier) if q else (n_carrier, n_other)
        per[cid] = (e.bit_length() - 1, o.bit_length() - 1)
    return ClassNimTable(per_class=per, game_nim=per[lat.frattini_index][0])


@dataclass(frozen=True)
class SolveResult:
    """One solved game with its group's lattice and class deficiencies;
    ``classes`` holds the per-class nim values, ``None`` in brute mode."""

    nim: int
    mode: str
    lattice: IntersectionLattice
    deficiency: DeficiencyTable
    classes: ClassNimTable | None

    @property
    def d_g(self) -> int:
        return self.deficiency.d_g


def solve(group: IntersectionLattice | GroupTable | GroupSpec | str,
          variant: Variant = GEN, mode: str = "auto", *,
          brute_cap: int = DEFAULT_BRUTE_CAP,
          order_cap: int = DEFAULT_ORDER_CAP) -> SolveResult:
    """Nim value of a game on a lattice, a table or a spec, with the tables
    ``SolveResult`` lists.

    A spec is built by ``build_group`` under ``order_cap``, which refuses
    the first table over the cap before building it.  ``auto`` uses brute
    force up to ``brute_cap`` and the structure solver above it, in both
    games.  The lattice is built in every mode, so ``order_cap`` bounds
    brute-force solves as well; a lattice given in place of the group is
    used as it is, once its group's order is checked against the cap.
    """
    if isinstance(group, IntersectionLattice):
        lat, g = group, group.group
    else:
        lat, g = None, group if isinstance(group, GroupTable) else build_group(group, order_cap)
    _check_game(g, variant)
    if mode == "auto":
        mode = "brute" if g.order <= brute_cap else "structure"
    elif mode not in ("brute", "structure"):
        raise ValueError(f"unknown mode {mode!r}")
    check_order_cap(g.order, order_cap)
    if lat is None:
        lat = intersection_subgroups(g, order_cap=order_cap)
    if mode == "brute":
        classes = None
        nim = brute_nim(g, variant, brute_cap=brute_cap)
    else:
        classes = structure_nim(g, lat, variant)
        nim = classes.game_nim
    return SolveResult(nim=nim, mode=mode, lattice=lat,
                       deficiency=deficiency_table(lat), classes=classes)
