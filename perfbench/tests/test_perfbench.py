"""Tests of the benchmark's oracles, checks and tracer.

    python3 -m pytest perfbench/tests -q

The oracles are checked against known values and against a small search
written here from the definitions (subgroups by closure, games by memoized
mex), on Cayley tables built by ``oracles.dih_table``; nimgen is used only
where a test traces it.
"""

from __future__ import annotations

import io
import json
import random
import shutil
import sys
from contextlib import redirect_stdout
from functools import lru_cache
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


@pytest.fixture
def scratch():
    """A directory under the benchmark's ignored output directory."""
    path = HERE.parent / "out" / "tests"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# A reference search over Cayley tables, independent of nimgen.


def _identity(table) -> int:
    return next(i for i in range(len(table)) if table[i][i] == i)


def _closure(table, mask: int) -> int:
    mask |= 1 << _identity(table)
    elems = [i for i in range(len(table)) if mask >> i & 1]
    frontier = list(elems)
    while frontier:
        x = frontier.pop()
        for y in list(elems):
            for z in (table[x][y], table[y][x]):
                if not mask >> z & 1:
                    mask |= 1 << z
                    elems.append(z)
                    frontier.append(z)
    return mask


def _subgroups(table) -> set[int]:
    trivial = 1 << _identity(table)
    found, frontier = {trivial}, [trivial]
    while frontier:
        h = frontier.pop()
        for x in range(len(table)):
            j = _closure(table, h | 1 << x)
            if j not in found:
                found.add(j)
                frontier.append(j)
    return found


def _intersections(table) -> set[int]:
    full = (1 << len(table)) - 1
    proper = [m for m in _subgroups(table) if m != full]
    family = {m for m in proper if not any(m != k and m | k == k for k in proper)}
    grown = True
    while grown:
        new = {a & b for a in family for b in family} - family
        family |= new
        grown = bool(new)
    return family


def _d(table) -> int:
    full = (1 << len(table)) - 1
    for k in range(1, len(table)):
        for combo in combinations(range(len(table)), k):
            if _closure(table, sum(1 << x for x in combo)) == full:
                return k
    return 0


def _nim(table, avoid: bool) -> int:
    full = (1 << len(table)) - 1

    @lru_cache(maxsize=None)
    def gen(mask: int) -> bool:
        return _closure(table, mask) == full

    @lru_cache(maxsize=None)
    def value(mask: int) -> int:
        if not avoid and gen(mask):
            return 0
        opts = {value(mask | 1 << x) for x in range(len(table))
                if not mask >> x & 1 and not (avoid and gen(mask | 1 << x))}
        return next(k for k in range(len(opts) + 1) if k not in opts)

    return value(0)


def _table(spec: str):
    is_dih, a = oracles.parse(spec)
    t = oracles.dih_table(a.factors)
    if is_dih:
        return t
    return [row[:a.order] for row in t[:a.order]]


def _relabelled(spec: str, seed: int):
    text = oracles.relabelled_table_text(_table(spec), random.Random(seed))
    lines = text.split("\n")
    n = int(lines[0])
    return [[int(v) for v in line.split()] for line in lines[1:1 + n]]


# ---------------------------------------------------------------------------
# Oracles


def test_gen_dng_of_cyclic_dihedral_groups_match_known_values():
    gens = [oracles.expected(f"Dih(Z{n})").gen for n in range(2, 13)]
    dngs = [oracles.expected(f"Dih(Z{n})").dng for n in range(2, 13)]
    assert gens == [1, 3, 0, 3, 1, 3, 0, 3, 1, 3, 0]
    assert dngs == [0, 3, 0, 3, 0, 3, 0, 3, 0, 3, 0]


def test_counts_match_known_values():
    assert oracles.expected("Z2xZ2xZ2xZ2xZ2").subgroups == 374
    assert oracles.expected("Z2xZ2xZ2xZ2xZ2").intersections == 373
    assert oracles.expected("Dih(Z2xZ2xZ2xZ2)").intersections == 373
    # S3, D4 and D6 have 6, 10 and 16 subgroups.
    assert [oracles.dih_cyclic_subgroups(n) for n in (3, 4, 6)] == [6, 10, 16]
    assert oracles.expected("Dih(Z3xZ3xZ3)").d == 4
    assert oracles.expected("Z2xZ2xZ2xZ6").d == 4
    assert oracles.expected("Z3xZ3xZ3").gen is None


@pytest.mark.parametrize("spec", [
    "Dih(Z2)", "Dih(Z3)", "Dih(Z4)", "Dih(Z6)", "Dih(Z9)", "Dih(Z12)",
    "Dih(Z2xZ2)", "Dih(Z2xZ4)", "Dih(Z3xZ3)", "Dih(Z2xZ6)",
    "Z2xZ2xZ2xZ2", "Z3xZ3", "Z2xZ6", "Z2xZ2xZ2xZ6",
])
def test_structure_oracles_match_a_search(spec):
    want = oracles.expected(spec)
    table = _relabelled(spec, seed=7)
    assert len(table) == want.order
    if want.subgroups is not None:
        assert len(_subgroups(table)) == want.subgroups
    assert len(_intersections(table)) == want.intersections
    if want.order <= 16:
        assert _d(table) == want.d


@pytest.mark.parametrize("spec", [
    "Dih(Z2)", "Dih(Z3)", "Dih(Z4)", "Dih(Z5)", "Dih(Z6)", "Dih(Z2xZ2)",
    "Z2xZ2",
])
def test_game_oracles_match_a_search(spec):
    want = oracles.expected(spec)
    table = _table(spec)
    assert _nim(table, avoid=False) == want.gen
    assert _nim(table, avoid=True) == want.dng


# ---------------------------------------------------------------------------
# Checks: a wrong answer is a failed operation


def _solve_output(**changes) -> str:
    record = {"d_g": 2, "intersections": 7, "millis": 0, "mode": "brute",
              "nim": 3, "order": 10, "spec": "Dih(Z5)",
              "tool_version": "0.1.0", "variant": "GEN"}
    record.update(changes)
    return json.dumps([record])


def _run_one(op: workloads.Op, output: str, code: int = 0):
    def fake_main(argv):
        print(output, end="")
        return code
    return workloads.run_ops([op], fake_main)


@pytest.mark.parametrize("changes,code,failed", [
    ({}, 0, 0),
    ({"nim": 1}, 0, 1),
    ({"d_g": 3}, 0, 1),
    ({"intersections": 8}, 0, 1),
    ({"order": 20}, 0, 1),
    ({}, 2, 1),
])
def test_wrong_solve_answer_is_a_failed_operation(changes, code, failed):
    op = workloads.Op(["solve", "Dih(Z5)"],
                      workloads.solve_check(oracles.expected("Dih(Z5)"), "gen"))
    res = _run_one(op, _solve_output(**changes), code)
    assert (res.attempted, res.failed) == (1, failed)


def test_unreadable_output_and_crash_are_failed_operations():
    op = workloads.Op(["solve", "Dih(Z5)"],
                      workloads.solve_check(oracles.expected("Dih(Z5)"), "gen"))
    assert _run_one(op, "not json").failed == 1

    def crash(argv):
        raise RuntimeError("boom")
    assert workloads.run_ops([op], crash).failed == 1


def test_wrong_table_row_is_a_failed_operation():
    ns = range(2, 4)
    header = "spec,order,variant,nim,mode,d(G),millis,note\n"
    good = header + "Dih(Z2),4,GEN,1,brute,2,0,\nDih(Z3),6,GEN,3,brute,2,0,\n"
    op = workloads.Op(["table"], workloads.table_check(ns))
    assert _run_one(op, good).failed == 0
    assert _run_one(op, good.replace("GEN,3", "GEN,0")).failed == 1
    assert _run_one(op, good.replace("brute,2,0,\nDih(Z3)",
                                     "brute,3,0,\nDih(Z3)")).failed == 1


def _diagram_output(vertices, edges) -> str:
    return json.dumps({"vertices": [{"type": t, "members": m} for t, m in vertices],
                       "edges": edges})


def test_diagram_check_needs_a_fixpoint_with_a_lone_terminal():
    want = oracles.expected("Dih(Z5)")  # 7 classes, GEN 3
    op = workloads.Op(["diagram"], workloads.diagram_check(want))
    good = [([0, 0, 0], [-1]), ([1, 3, 0], [0]), ([1, 2, 1], [1, 2, 3, 4, 5, 6])]
    edges = [[1, 2], [2, 0]]
    assert _run_one(op, _diagram_output(good, edges)).failed == 0
    merged_terminal = [([0, 0, 0], [-1, 6]), good[1], ([1, 2, 1], [1, 2, 3, 4, 5])]
    assert _run_one(op, _diagram_output(merged_terminal, edges)).failed == 1
    split = good[:2] + [([1, 2, 1], [1, 2, 3]), ([1, 2, 1], [4, 5, 6])]
    assert _run_one(op, _diagram_output(split, [[1, 2], [2, 0], [3, 0]])).failed == 1
    missing = good[:2] + [([1, 2, 1], [1, 2, 3, 4, 5])]
    assert _run_one(op, _diagram_output(missing, edges)).failed == 1
    wrong_nim = [good[0], ([1, 1, 0], [0]), good[2]]
    assert _run_one(op, _diagram_output(wrong_nim, edges)).failed == 1


def test_verify_check_reads_failures_and_wrong_values():
    record = {"spec": "Dih(Z5)", "variant": "GEN", "predicted": 3,
              "computed": 3, "dDih": 2, "dA": 1, "frattiniMatch": True,
              "agree": True}
    payload = {"records": [record], "checks": [], "notes": [], "exitCode": 0}
    op = workloads.Op(["verify"], workloads.verify_check)
    assert _run_one(op, json.dumps(payload)).failed == 0
    bad = dict(payload, records=[dict(record, computed=1, predicted=1)])
    assert _run_one(op, json.dumps(bad)).failed == 1
    bad = dict(payload, checks=[{"name": "x", "subject": "y", "checked": 1,
                                 "violations": ["class 3"]}])
    assert _run_one(op, json.dumps(bad)).failed == 1


def test_wrong_subgroup_count_is_a_failed_operation():
    ops = [workloads.Op(["solve"], lambda code, out: [], {10: 8})]
    assert workloads.subgroup_problems(ops, [(0, 10, 8)]) == {}
    assert list(workloads.subgroup_problems(ops, [(0, 10, 9)])) == [0]
    assert workloads.subgroup_problems(ops, [(0, 12, 16)]) == {}


# ---------------------------------------------------------------------------
# Workloads and the tracer


def test_workloads_are_seeded_and_distinct(scratch):
    for name in workloads.WORKLOADS:
        a = workloads.build(name, 3, scratch / "a")
        b = workloads.build(name, 3, scratch / "b")
        c = workloads.build(name, 4, scratch / "c")
        strip = lambda ops, d: [" ".join(o.argv).replace(str(d), "") for o in ops]
        assert strip(a, scratch / "a") == strip(b, scratch / "b")
        assert sorted(strip(a, scratch / "a")) == sorted(strip(c, scratch / "c"))
        assert len(set(strip(a, scratch / "a"))) == len(a)
        files_a = sorted((scratch / "a").glob("*.tbl"))
        files_c = sorted((scratch / "c").glob("*.tbl"))
        assert [f.read_text() for f in files_a] != [f.read_text() for f in files_c] \
            or not files_a


def test_self_time_subtracts_direct_children():
    t = Tracer()
    t.spans = [["a", 0.0, 10.0, None, 0], ["b", 1.0, 4.0, 0, 0],
               ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 6.0, 0, 0]]
    assert dict(t.self_times()) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_tracer_sees_every_layer_of_a_real_solve(scratch):
    import nimgen.cli
    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name == "nimgen" or name.startswith("nimgen.")}
    tracer = Tracer()
    try:
        tracer.install()
        tracer.op = 0
        with redirect_stdout(io.StringIO()):
            assert nimgen.cli.main(["solve", "Dih(Z6)", "--format", "json"]) == 0
    finally:
        for name, attrs in saved.items():
            vars(sys.modules[name]).update(attrs)
    m = tracer.metrics()
    assert tracer.calls["cli.main"] == 1
    assert m["lattice.class_options_calls"] > 0
    assert m["lattice.ceil_class_calls"] > 0
    assert m["groups.generated_subgroup_calls"] > 0
    assert 0 < m["lattice.join_yield"] <= 1
    assert m["solver.brute_positions"] > 0
    assert (0, 12, oracles.dih_cyclic_subgroups(6)) in tracer.subgroup_counts
    for name, start, end, parent, op in tracer.spans:
        assert op == 0 and start <= end
        if parent is not None:
            assert tracer.spans[parent][1] <= start and end <= tracer.spans[parent][2]
    tracer.write(scratch / "t.jsonl")
    lines = (scratch / "t.jsonl").read_text().splitlines()
    assert len(lines) == len(tracer.spans) + 1
