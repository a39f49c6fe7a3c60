"""Structure digraphs of generation games and their type-merged reductions.

A structure digraph has one vertex per intersection class plus the terminal
class, and an edge for every within-lattice option.  Vertices carry a type
triple (carrier parity, nim value on even positions, nim value on odd
positions).  Merging vertices that share a type and an option-type profile
yields a small diagram whose shape is often the same across a whole family
of groups.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

from .groups import GroupTable
from .lattice import (TERMINAL, DeficiencyTable, IntersectionLattice,
                      class_edges, class_parity)
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
    """Option digraph over intersection classes; edges reference class ids."""

    vertices: tuple[DigraphVertex, ...]
    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class MergedVertex:
    vtype: TypeTriple
    members: tuple[int, ...]


@dataclass(frozen=True)
class SimplifiedDiagram:
    """Type-merged digraph; edges reference vertex list indices."""

    vertices: tuple[MergedVertex, ...]
    edges: tuple[tuple[int, int], ...]


def type_of(nims: ClassNimTable, lat: IntersectionLattice, cid: int) -> TypeTriple:
    """Type triple of one class: parity and both within-class nim values."""
    even_nim, odd_nim = nims.per_class[cid]
    return TypeTriple(class_parity(lat, cid), even_nim, odd_nim)


def build_digraph(g: GroupTable, lat: IntersectionLattice, nims: ClassNimTable,
                  dt: DeficiencyTable) -> StructureDigraph:
    """One vertex per class plus the terminal one, with ``dt``'s distances."""
    vertices = [
        DigraphVertex(
            cid=cid,
            carrier_order=mask.bit_count(),
            parity=class_parity(lat, cid),
            deficiency=dt.per_class[cid],
            vtype=type_of(nims, lat, cid),
        )
        for cid, mask in enumerate(lat.intersections)
    ]
    vertices.append(DigraphVertex(
        cid=TERMINAL,
        carrier_order=g.order,
        parity=class_parity(lat, TERMINAL),
        deficiency=0,
        vtype=type_of(nims, lat, TERMINAL),
    ))
    return StructureDigraph(vertices=tuple(vertices), edges=class_edges(lat))


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
    if isinstance(d, SimplifiedDiagram):
        members = [v.members for v in d.vertices]
        edges = set(d.edges)
    else:
        members = [(v.cid,) for v in d.vertices]
        key_of = {v.cid: i for i, v in enumerate(d.vertices)}
        edges = {(key_of[a], key_of[b]) for a, b in d.edges}
    types = [v.vtype for v in d.vertices]
    profiles = [{t} for t in types]
    for a, b in edges:
        profiles[a].add(types[b])

    blocks: dict[tuple, list[int]] = {}
    for i, t in enumerate(types):
        blocks.setdefault((t, frozenset(profiles[i])), []).append(i)
    merged = sorted(
        (types[block[0]], tuple(sorted(c for i in block for c in members[i])),
         block)
        for block in blocks.values())
    home = {i: k for k, (_, _, block) in enumerate(merged) for i in block}
    out_vertices = tuple(MergedVertex(vtype=t, members=cids)
                         for t, cids, _ in merged)
    out_edges = sorted({(home[a], home[b]) for a, b in edges
                        if home[a] != home[b]})
    return SimplifiedDiagram(vertices=out_vertices, edges=tuple(out_edges))


def _type_label(t: TypeTriple) -> str:
    return f"({t.parity},{t.even_nim},{t.odd_nim})"


def to_dot(d: StructureDigraph | SimplifiedDiagram, style: str = "full") -> str:
    """Render as Graphviz source; ``plain`` style labels vertices by type only."""
    if style not in ("full", "plain"):
        raise ValueError(f"unknown style {style!r}")
    if isinstance(d, StructureDigraph):
        index = {v.cid: i for i, v in enumerate(d.vertices)}
        edges = sorted((index[a], index[b]) for a, b in d.edges)
        full = [f"I={v.carrier_order} pty={v.parity} d={v.deficiency} "
                f"type={_type_label(v.vtype)}" for v in d.vertices]
    else:
        edges = sorted(d.edges)
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
