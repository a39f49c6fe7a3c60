"""Structure digraphs of generation games and their type-merged reductions.

A structure digraph has one vertex per intersection class plus the terminal
class, and an edge for every within-lattice option.  Vertices carry a type
triple (carrier parity, nim value on even positions, nim value on odd
positions).  Merging vertices that share a type and an option-type profile
yields a small diagram whose shape is often the same across a whole family
of groups.

Both diagram types store one option tuple per vertex, parallel to
``vertices``.  A structure digraph keeps the lattice's class order with the
terminal vertex last, so ``vertices[cid]`` and ``options[cid]`` address
every class, ``TERMINAL`` (-1) included, and its options are class ids.  A
simplified diagram's options are vertex indices.  For either, option j of
an n-vertex diagram is vertex ``j % n``, and ``edges`` flattens the table.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .groups import GroupTable
from .lattice import TERMINAL, DeficiencyTable, IntersectionLattice, class_parity
from .solver import ClassNimTable


class TypeTriple(NamedTuple):
    parity: int
    even_nim: int
    odd_nim: int


@dataclass(frozen=True)
class DigraphVertex:
    cid: int
    carrier_order: int
    parity: int
    deficiency: int
    vtype: TypeTriple


@dataclass(frozen=True)
class StructureDigraph:
    """Option digraph over intersection classes in class-id order, the
    terminal vertex last: ``vertices[cid]`` is class ``cid`` and
    ``options[cid]`` its sorted option class ids, for ``TERMINAL`` too."""

    vertices: tuple[DigraphVertex, ...]
    options: tuple[tuple[int, ...], ...]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every (class, option class) pair, in class order."""
        return tuple((v.cid, b) for v, opts in zip(self.vertices, self.options)
                     for b in opts)


@dataclass(frozen=True)
class MergedVertex:
    vtype: TypeTriple
    members: tuple[int, ...]


@dataclass(frozen=True)
class SimplifiedDiagram:
    """Type-merged digraph: ``options[i]`` lists the vertex indices that
    vertex i has an edge to, sorted and without i itself."""

    vertices: tuple[MergedVertex, ...]
    options: tuple[tuple[int, ...], ...]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every (vertex index, option index) pair, sorted."""
        return tuple((a, b) for a, opts in enumerate(self.options) for b in opts)


def type_of(nims: ClassNimTable, lat: IntersectionLattice, cid: int) -> TypeTriple:
    """Type triple of one class: parity and both within-class nim values."""
    even_nim, odd_nim = nims.per_class[cid]
    return TypeTriple(class_parity(lat, cid), even_nim, odd_nim)


def build_digraph(g: GroupTable, lat: IntersectionLattice, nims: ClassNimTable,
                  dt: DeficiencyTable) -> StructureDigraph:
    """One vertex per class plus the terminal one, with ``dt``'s distances."""
    per_nim, per_def = nims.per_class, dt.per_class
    vertices = []
    for cid, size in enumerate(map(int.bit_count, lat.intersections)):
        q = size & 1
        vertices.append(DigraphVertex(cid, size, q, per_def[cid],
                                      TypeTriple(q, *per_nim[cid])))
    q = g.order & 1
    vertices.append(DigraphVertex(TERMINAL, g.order, q, 0, TypeTriple(q, *per_nim[TERMINAL])))
    return StructureDigraph(vertices=tuple(vertices), options=lat.options + ((),))


def simplify(d: StructureDigraph | SimplifiedDiagram, *,
             rng: random.Random | None = None) -> SimplifiedDiagram:
    """Merge vertices with equal types and equal option-type profiles.

    The profile of a vertex is the set of its option types together with its
    own type, so edges between same-type vertices never block a merge.  A
    merge changes no vertex's type or profile, so merging pairs until none
    qualifies ends at the partition by (type, profile), which is computed
    here in one pass.  The result does not depend on merge order; ``rng`` is
    ignored.  Self-loops created by merging are dropped from the output.
    The terminal vertex stays alone: its type is (p, 0, 0), and every class
    has two distinct nim values.
    """
    members = [v.members if isinstance(d, SimplifiedDiagram) else (v.cid,)
               for v in d.vertices]
    types = [v.vtype for v in d.vertices]
    blocks: dict[tuple, list[int]] = {}
    for i, t in enumerate(types):
        profile = frozenset([t, *(types[j] for j in d.options[i])])
        blocks.setdefault((t, profile), []).append(i)
    merged = sorted(
        (types[block[0]], tuple(sorted(c for i in block for c in members[i])),
         block)
        for block in blocks.values())
    # option -1, the terminal class, reads the last entry of a list
    home = [0] * len(types)
    for k, (_, _, block) in enumerate(merged):
        for i in block:
            home[i] = k
    return SimplifiedDiagram(
        vertices=tuple(MergedVertex(vtype=t, members=cids) for t, cids, _ in merged),
        options=tuple(tuple(sorted({home[j] for i in block for j in d.options[i]} - {k}))
                      for k, (_, _, block) in enumerate(merged)))


def _type_label(t: TypeTriple) -> str:
    return f"({t.parity},{t.even_nim},{t.odd_nim})"


def to_dot(d: StructureDigraph | SimplifiedDiagram, style: str = "full") -> str:
    """Render as Graphviz source; ``plain`` style labels vertices by type only."""
    if style not in ("full", "plain"):
        raise ValueError(f"unknown style {style!r}")
    n = len(d.vertices)
    edges = sorted((i, j % n) for i, opts in enumerate(d.options) for j in opts)
    if isinstance(d, StructureDigraph):
        full = [f"I={v.carrier_order} pty={v.parity} d={v.deficiency} "
                f"type={_type_label(v.vtype)}" for v in d.vertices]
    else:
        full = [f"type={_type_label(v.vtype)} members={len(v.members)}"
                for v in d.vertices]
    labels = (full if style == "full"
              else [_type_label(v.vtype) for v in d.vertices])
    lines = ["digraph structure {"]
    lines += [f'  v{i} [label="{label}"];' for i, label in enumerate(labels)]
    lines += [f"  v{a} -> v{b};" for a, b in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def digraph_to_dict(d: StructureDigraph) -> dict:
    return {
        "vertices": [
            {
                "cid": v.cid,
                "carrierOrder": v.carrier_order,
                "parity": v.parity,
                "deficiency": v.deficiency,
                "type": list(v.vtype),
            }
            for v in d.vertices
        ],
        "edges": [list(e) for e in sorted(d.edges)],
    }


def simplified_to_dict(d: SimplifiedDiagram) -> dict:
    return {
        "vertices": [
            {"type": list(v.vtype), "members": list(v.members)}
            for v in d.vertices
        ],
        "edges": [list(e) for e in sorted(d.edges)],
    }
