"""Per-layer tracing of nimgen from outside its source tree.

``Tracer.install`` replaces the layers' public functions with wrappers in
every ``nimgen`` module namespace that holds them, so calls made through
``from .lattice import ...`` imports and calls inside the defining module
are both seen.  A span wrapper records (name, start, end, parent span,
operation id); a count wrapper records only a call count.  The two hottest
functions, ``generated_subgroup`` and ``ceil_class``, get count wrappers:
they run tens of thousands of times per operation, and a span each would
add more time than the layers around them spend.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

# (module, function, span name); ``brute_search`` is named per game below.
SPANS = (
    ("cli", "main", "cli.main"),
    ("groups", "parse_table_text", "groups.parse_table_text"),
    ("lattice", "all_subgroups", "lattice.all_subgroups"),
    ("lattice", "maximal_subgroups", "lattice.maximal_subgroups"),
    ("lattice", "intersection_subgroups", "lattice.intersection_subgroups"),
    ("lattice", "class_options", "lattice.class_options"),
    ("solver", "structure_nim", "solver.structure_nim"),
    ("solver", "brute_search", "solver.brute_search"),
    ("diagram", "build_digraph", "diagram.build_digraph"),
    ("diagram", "simplify", "diagram.simplify"),
    ("theory", "deficiency_table", "theory.deficiency_table"),
    ("theory", "verify_family", "theory.verify_family"),
    ("theory", "exhaustive_deficiency_map", "theory.exhaustive_deficiency_map"),
)
COUNTS = (
    ("groups", "generated_subgroup", "groups.generated_subgroup"),
    ("lattice", "ceil_class", "lattice.ceil_class"),
)

# Per-layer metric -> span whose self time it reports.
SELF_TIMES = {
    "lattice.all_subgroups_s": "lattice.all_subgroups",
    "lattice.maximal_subgroups_s": "lattice.maximal_subgroups",
    "lattice.intersection_subgroups_s": "lattice.intersection_subgroups",
    "lattice.class_options_s": "lattice.class_options",
    "solver.structure_nim_s": "solver.structure_nim",
    "diagram.build_digraph_s": "diagram.build_digraph",
    "diagram.simplify_s": "diagram.simplify",
    "theory.deficiency_table_s": "theory.deficiency_table",
    "theory.verify_family_s": "theory.verify_family",
    "theory.exhaustive_deficiency_map_s": "theory.exhaustive_deficiency_map",
    "solver.brute_search_gen_s": "solver.brute_search_gen",
    "solver.brute_search_dng_s": "solver.brute_search_dng",
    "groups.parse_table_text_s": "groups.parse_table_text",
    "cli.self_s": "cli.main",
}
CALLS = {
    "groups.generated_subgroup_calls": "groups.generated_subgroup",
    "lattice.class_options_calls": "lattice.class_options",
    "lattice.ceil_class_calls": "lattice.ceil_class",
}


class Tracer:
    """Spans and counts of one round, kept in memory until ``write``."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.op: int | None = None
        self.subgroups_found = 0
        self.join_closures = 0
        self.brute_positions = 0
        # (op, group order, subgroup count) of every all_subgroups result.
        self.subgroup_counts: list[tuple[int, int, int]] = []

    def _span(self, name: str, fn):
        spans, stack, calls = self.spans, self.stack, self.calls

        def wrapper(*args, **kwargs):
            label = name
            if name == "solver.brute_search":
                game = args[1] if len(args) > 1 else kwargs.get("variant", "GEN")
                label = f"{name}_{game.lower()}"
            idx = len(spans)
            spans.append([label, time.perf_counter(), None,
                          stack[-1] if stack else None, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
                calls[label] += 1
            if name == "lattice.all_subgroups":
                self.subgroups_found += len(result)
                self.subgroup_counts.append((self.op, args[0].order, len(result)))
            elif name == "solver.brute_search":
                self.brute_positions += len(result)
            return result
        return wrapper

    def _count(self, name: str, fn):
        spans, stack, calls = self.spans, self.stack, self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if stack and spans[stack[-1]][0] == "lattice.all_subgroups":
                self.join_closures += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap each listed function wherever a nimgen module refers to it.

        A function a later nimgen no longer has is skipped; its metrics
        then read 0.
        """
        modules = [m for k, m in sys.modules.items()
                   if k == "nimgen" or k.startswith("nimgen.")]
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for mod_name, fn_name, name in table:
                original = getattr(sys.modules.get(f"nimgen.{mod_name}"),
                                   fn_name, None)
                if original is None:
                    continue
                wrapped = make(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)

    def self_times(self) -> Counter:
        """Per span name: total duration minus the time of direct children."""
        out: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][0]] -= end - start
        return out

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out = {metric: selfs.get(span, 0.0) for metric, span in SELF_TIMES.items()}
        out.update({metric: self.calls.get(name, 0)
                    for metric, name in CALLS.items()})
        out["solver.brute_positions"] = self.brute_positions
        out["lattice.join_yield"] = (self.subgroups_found / self.join_closures
                                     if self.join_closures else 0.0)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines, then one line of counts."""
        with path.open("w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"calls": dict(sorted(self.calls.items()))}) + "\n")
