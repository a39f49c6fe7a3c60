"""Nim-value solvers for the generation games.

GEN is the achievement game: players alternately pick unchosen elements and
whoever first makes the chosen set generate the whole group wins.  DNG is the
avoidance game: a player forced to complete a generating set loses.  Both are
scored by Sprague-Grundy values over the position DAG.

The brute solver walks positions directly, reading only the Cayley table.
It carries each position's generated subgroup down the search.  Each reached
subgroup H gets its moves once, from one coset extension per double coset
HxH, so the inner loop makes no call per move and takes the mex of a bitset.
The memo holds the positions entered; a generating move only adds 0 to a mex.

The structure solver evaluates either game per structure class: inside a
class, positions of the carrier's parity and of the opposite parity each
share one nim value, so two mex equations per class suffice.  The games
differ only in the terminal class, an option in GEN and never one in DNG.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Mapping

from .errors import CapacityError
from .groups import GroupSpec, GroupTable, iter_mask, subgroup_joins
from .lattice import (
    DEFAULT_ORDER_CAP,
    TERMINAL,
    DeficiencyTable,
    IntersectionLattice,
    build_capped,
    class_parity,
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
                 brute_cap: int = DEFAULT_BRUTE_CAP) -> dict[int, int]:
    """Memoized nim values for every non-generating position reachable from ∅.

    Generating positions are terminal, of value 0 in GEN by the rules, and
    are not stored, so both games memoize the same key set.  A child
    ``mask | 1 << x`` of a position generating ``h`` generates <h, x>, since
    <P ∪ {x}> = <<P> ∪ {x}>.  Each reached subgroup gets its moves once
    (``subgroup_joins``): the elements of h, the non-generating moves outside
    h, never in the position, and whether a GEN-winning move exists.
    """
    _check_game(g, variant)
    if g.order > brute_cap:
        raise CapacityError(
            f"brute-force search capped at order {brute_cap}, group has order {g.order}")
    full = g.full_mask
    gen = variant == GEN
    joins = subgroup_joins(g)
    # subgroup -> (bits of h, (bit, join) outside h, has a GEN-winning move)
    moves: dict[int, tuple[list[int], list[tuple[int, int]], bool]] = {}
    memo: dict[int, int] = {}

    # ``h`` is the subgroup that ``mask`` generates, so ``mask`` lies in h.
    # The search never enters a generating position: the root is the empty
    # set, and a child is entered only when its join is a proper subgroup.
    def nim(mask: int, h: int) -> int:
        m = moves.get(h)
        if m is None:
            js = joins(h)
            m = moves[h] = (
                [1 << x for x in iter_mask(h)],
                [(1 << x, j) for j, xs in js.items() if j != full
                 for x in iter_mask(xs)],
                gen and full in js)
        inside, outside, wins = m
        seen = 0
        for bit in inside:
            if not mask & bit:
                child = mask | bit
                v = memo.get(child)
                if v is None:
                    v = nim(child, h)
                seen |= 1 << v
        for bit, j in outside:
            child = mask | bit
            v = memo.get(child)
            if v is None:
                v = nim(child, j)
            seen |= 1 << v
        # A generating move ends GEN with value 0; DNG forbids it.
        if wins:
            seen |= 1
        v = (~seen & (seen + 1)).bit_length() - 1  # mex: lowest clear bit
        memo[mask] = v
        return v

    nim(0, 1)
    return memo


def brute_nim(g: GroupTable, variant: Variant = GEN, *,
              brute_cap: int = DEFAULT_BRUTE_CAP) -> int:
    """Nim value of the game from the empty position, by exhaustive search."""
    return brute_search(g, variant, brute_cap=brute_cap)[0]


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
    terminal.
    A generating position ends GEN with value 0; in DNG no move may reach
    one, so the terminal class is left out of every option list.
    """
    _check_game(g, variant)
    options = lat.options
    if variant == DNG:
        options = [[j for j in opts if j != TERMINAL] for opts in options]
    per: dict[int, tuple[int, int]] = {TERMINAL: (0, 0)}
    for cid in reversed(range(len(options))):
        opts = options[cid]
        pools = ({per[j][0] for j in opts}, {per[j][1] for j in opts})
        q = class_parity(lat, cid)
        # A move adds one element, so every option of a position has the
        # opposite parity.  Positions sharing the carrier's parity include
        # the carrier itself, which has no move that stays inside the class;
        # opposite-parity positions are proper subsets of the carrier and
        # always have such a move.  Proper subsets of the carrier's parity
        # also reach n_other != n_carrier, which leaves their mex unchanged.
        n_carrier = mex(pools[1 - q])
        n_other = mex(pools[q] | {n_carrier})
        per[cid] = (n_carrier, n_other) if q == 0 else (n_other, n_carrier)
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


def solve(g: GroupTable, variant: Variant = GEN, mode: str = "auto", *,
          brute_cap: int = DEFAULT_BRUTE_CAP,
          order_cap: int = DEFAULT_ORDER_CAP) -> SolveResult:
    """Nim value of a game on ``g``, with the tables ``SolveResult`` lists.

    ``auto`` uses brute force up to ``brute_cap`` and the structure solver
    above it, in both games.  The lattice is built in every mode, so
    ``order_cap`` bounds brute-force solves as well.
    """
    _check_game(g, variant)
    if mode == "auto":
        mode = "brute" if g.order <= brute_cap else "structure"
    elif mode not in ("brute", "structure"):
        raise ValueError(f"unknown mode {mode!r}")
    lat = intersection_subgroups(g, order_cap=order_cap)
    if mode == "brute":
        classes = None
        nim = brute_nim(g, variant, brute_cap=brute_cap)
    else:
        classes = structure_nim(g, lat, variant)
        nim = classes.game_nim
    return SolveResult(nim=nim, mode=mode, lattice=lat,
                       deficiency=deficiency_table(lat), classes=classes)


def nim_of_game(spec: GroupSpec | str, variant: Variant = GEN, mode: str = "auto", *,
                brute_cap: int = DEFAULT_BRUTE_CAP,
                order_cap: int = DEFAULT_ORDER_CAP) -> int:
    """Nim value of a game given a group spec, built by ``build_capped``; see ``solve``."""
    return solve(build_capped(spec, order_cap), variant, mode,
                 brute_cap=brute_cap, order_cap=order_cap).nim
