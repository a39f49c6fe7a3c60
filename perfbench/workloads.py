"""The benchmark's three workloads: operations, their inputs and their checks.

An operation is one ``nimgen.cli.main(argv)`` call.  Its check reads the
call's exit code and captured stdout and returns the problems found; an
operation with any problem counts as failed.  Every expected value comes
from ``oracles``, never from nimgen.

The seed picks the relabelling of every generated Cayley-table file and the
order of the operations.  The set of groups is fixed per workload, so every
seed does the same amount of work.
"""

from __future__ import annotations

import csv
import io
import json
import random
import signal
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from oracles import Expected, dih_table, expected, parse, relabelled_table_text

WORKLOADS = ("dih-sweep", "class-dense", "brute-oracle")

Check = Callable[[int, str], list]


@dataclass
class Op:
    """One CLI call, its check, and the subgroup counts its groups must have."""

    argv: list[str]
    check: Check
    subgroups: dict[int, int] = field(default_factory=dict)


@dataclass
class RoundResult:
    attempted: int = 0
    # Sum of the operations' CPU times, without the sampler's own time.
    cpu_s: float = 0.0
    # Sum over operations of CPU time / reference-loop CPU time during it.
    cpu_norm: float = 0.0
    ref_samples: list[float] = field(default_factory=list)
    problems: dict[int, list[str]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.problems)


SAMPLE_PERIOD_S = 0.05


def ref_kernel() -> float:
    """CPU time of a fixed integer loop (about 1 ms) that allocates no
    tracked objects, so no garbage collection runs inside it and its time
    follows the host's speed, not nimgen's state."""
    started = time.process_time()
    acc = 0
    for i in range(8000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.process_time() - started


class HostSampler:
    """Times ``ref_kernel`` every 50 ms from a SIGALRM handler.

    The host's speed can change within one operation, so it is sampled
    during the operation, not only around it.  The handler runs between
    bytecodes of the main thread; its time is taken out of the operation's.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.samples.append(ref_kernel())

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_ops(ops: list[Op], main: Callable, on_op: Callable[[int], None] = None
            ) -> RoundResult:
    """Run the operations one after another and check each answer.

    Each operation's CPU time is divided by the mean reference-loop time
    of the samples taken during it and of one taken just before it.  CPU
    time leaves out the time the hypervisor runs other guests on this
    vCPU; the division takes out the host's changing speed.
    """
    res = RoundResult()
    with HostSampler() as sampler:
        for i, op in enumerate(ops):
            if on_op is not None:
                on_op(i)
            before = ref_kernel()
            first = len(sampler.samples)
            out, err = io.StringIO(), io.StringIO()
            started = time.process_time()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(op.argv)
            except (Exception, SystemExit) as exc:  # a crash is a failed operation
                code = f"raised {exc!r}"
            elapsed = time.process_time() - started
            during = sampler.samples[first:]
            elapsed -= sum(during)
            res.ref_samples += [before] + during
            res.cpu_s += elapsed
            res.cpu_norm += elapsed / statistics.mean([before] + during)
            res.attempted += 1
            try:
                problems = op.check(code, out.getvalue())
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                res.problems[i] = problems
    return res


def subgroup_problems(ops: list[Op], counts) -> dict[int, list[str]]:
    """Problems from traced ``all_subgroups`` results: (op, order, count)."""
    out: dict[int, list[str]] = {}
    for op, order, count in counts:
        want = ops[op].subgroups.get(order)
        if want is not None and count != want:
            out.setdefault(op, []).append(
                f"order-{order} group has {count} subgroups, expected {want}")
    return out


def _compare(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what} is {got!r}, expected {want!r}"]


def _exit_zero(code) -> list[str]:
    return _compare("exit code", code, 0)


def solve_check(want: Expected, game: str) -> Check:
    """``solve --format json`` on one spec: order, nim, d_g, intersections."""
    nim = want.gen if game == "gen" else want.dng

    def check(code, out: str) -> list[str]:
        records = json.loads(out)
        if len(records) != 1:
            return [f"{len(records)} records, expected 1"]
        r = records[0]
        return (_exit_zero(code)
                + _compare("error", r.get("error"), None)
                + _compare("order", r.get("order"), want.order)
                + _compare("nim", r.get("nim"), nim)
                + _compare("d_g", r.get("d_g"), want.d)
                + _compare("intersections", r.get("intersections"),
                           want.intersections))
    return check


def table_check(ns: range) -> Check:
    """``table "Dih(Zn)"`` CSV: one row per n with order, nim and d(G)."""
    def check(code, out: str) -> list[str]:
        rows = list(csv.DictReader(io.StringIO(out)))
        problems = _exit_zero(code) + _compare("row count", len(rows), len(ns))
        for n, row in zip(ns, rows):
            want = expected(f"Dih(Z{n})")
            problems += _compare(f"spec of row {n}", row["spec"], f"Dih(Z{n})")
            problems += _compare(f"order of Dih(Z{n})", row["order"], str(want.order))
            problems += _compare(f"nim of Dih(Z{n})", row["nim"], str(want.gen))
            problems += _compare(f"d(G) of Dih(Z{n})", row["d(G)"], str(want.d))
        return problems
    return check


def diagram_check(want: Expected) -> Check:
    """``diagram --simplified --format json``: a fixpoint over all classes.

    The members partition the class ids 0..I-1 and the terminal -1, the
    terminal class stands alone, no two vertices share a type and an
    option-type profile, and where the nim value is known, the vertex of
    the Frattini class (id 0, the smallest carrier) has it as even value.
    """
    def check(code, out: str) -> list[str]:
        d = json.loads(out)
        vertices = d["vertices"]
        members = sorted(m for v in vertices for m in v["members"])
        problems = _exit_zero(code) + _compare(
            "class ids", members, list(range(-1, want.intersections)))
        types = [tuple(v["type"]) for v in vertices]
        succ: list[set] = [set() for _ in vertices]
        for a, b in d["edges"]:
            succ[a].add(types[b])
        keys = [(t, frozenset(s | {t})) for t, s in zip(types, succ)]
        if len(set(keys)) != len(keys):
            problems.append("two vertices share a type and a profile")
        for v in vertices:
            if -1 in v["members"] and v["members"] != [-1]:
                problems.append("terminal class merged with others")
            if 0 in v["members"] and want.gen is not None:
                problems += _compare("Frattini even nim", v["type"][1], want.gen)
        return problems
    return check


def verify_check(code, out: str) -> list[str]:
    """``verify --suite all --format json``: 0 failed, values match oracles."""
    payload = json.loads(out)
    problems = (_exit_zero(code)
                + _compare("exitCode", payload["exitCode"], 0)
                + _compare("notes", payload["notes"], []))
    for r in payload["records"]:
        want = expected(r["spec"])
        nim = want.gen if r["variant"] == "GEN" else want.dng
        problems += _compare(f"{r['spec']} {r['variant']} computed",
                             r["computed"], nim)
        problems += _compare(f"{r['spec']} dDih", r["dDih"], want.d)
        problems += _compare(f"{r['spec']} agree", r["agree"], True)
        problems += _compare(f"{r['spec']} frattiniMatch", r["frattiniMatch"], True)
    for c in payload["checks"]:
        problems += _compare(f"{c['name']} {c['subject']} violations",
                             c["violations"], [])
    return problems


class _OpList:
    """Collects one workload's operations and writes its table files."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.ops: list[Op] = []

    def _subgroups(self, want: Expected) -> dict[int, int]:
        return {want.order: want.subgroups} if want.subgroups else {}

    def _table_file(self, spec: str) -> str:
        """Write a relabelled table of ``Dih(A)`` and return its spec."""
        is_dih, a = parse(spec)
        if not is_dih:
            raise ValueError(f"table files are built for Dih(A) only: {spec}")
        path = self.workdir / f"op{len(self.ops):02d}.tbl"
        path.write_text(relabelled_table_text(dih_table(a.factors), self.rng),
                        encoding="utf-8")
        return f"table:{path}"

    def solve(self, spec: str, *, game: str = "gen", brute: bool = False,
              as_file: bool = False) -> None:
        want = expected(spec)
        argv = ["solve", self._table_file(spec) if as_file else spec,
                "--game", game, "--format", "json"]
        if brute:
            argv += ["--mode", "brute", "--brute-cap", str(want.order)]
        self.ops.append(Op(argv, solve_check(want, game), self._subgroups(want)))

    def table(self, lo: int, hi: int) -> None:
        ns = range(lo, hi + 1)
        subgroups = {2 * n: expected(f"Dih(Z{n})").subgroups for n in ns}
        self.ops.append(Op(["table", "Dih(Zn)", "--n", f"{lo}..{hi}"],
                           table_check(ns), subgroups))

    def diagram(self, spec: str, *, as_file: bool = False) -> None:
        want = expected(spec)
        argv = ["diagram", self._table_file(spec) if as_file else spec,
                "--simplified", "--format", "json"]
        self.ops.append(Op(argv, diagram_check(want), self._subgroups(want)))

    def verify(self, *args: str) -> None:
        self.ops.append(Op(["verify", *args, "--format", "json"], verify_check))


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    """The operations of workload ``name`` in seeded order."""
    b = _OpList(seed, workdir)
    if name == "dih-sweep":
        # Subgroup enumeration dominates: cyclic parts give few classes.
        b.table(2, 12)
        b.table(13, 22)
        for n in (23, 24, 25, 26, 27, 28, 29, 31, 32, 33, 36):
            b.solve(f"Dih(Z{n})")
        for n in (30, 34):
            b.solve(f"Dih(Z{n})", as_file=True)
        b.solve("Dih(Z2xZ8)", as_file=True)
        for spec in ("Dih(Z4xZ4)", "Dih(Z5xZ5)", "Dih(Z3xZ9)"):
            b.solve(spec)
        # Small calls so that every traced layer does some work here too.
        b.diagram("Dih(Z35)")
        b.verify("Z7", "--game", "dng")
        b.verify("--suite", "deficiency")
    elif name == "class-dense":
        # Hundreds of intersection classes: option probes, mex, digraph
        # and simplify outweigh enumeration.  Z2^5 = Dih(Z2^4) has 373
        # classes among its 374 subgroups; it comes as a spec, as a Dih
        # spec and as a relabelled table.
        b.verify("--suite", "all")
        b.solve("Z2xZ2xZ2xZ2xZ2")
        b.diagram("Dih(Z2xZ2xZ2xZ2)")
        b.solve("Dih(Z2xZ2xZ2xZ2)", as_file=True)
        b.solve("Dih(Z2xZ2xZ4)", as_file=True)
        b.diagram("Dih(Z3xZ6)", as_file=True)
        b.solve("Dih(Z2xZ10)")
        b.solve("Dih(Z2xZ2xZ2)")  # order 16: brute-force GEN
    elif name == "brute-oracle":
        # Position search and closures; both games on every group.
        for game in ("gen", "dng"):
            for spec in ("Z2xZ2xZ2xZ2", "Dih(Z2xZ4)", "Dih(Z9)", "Dih(Z11)",
                         "Dih(Z13)"):
                b.solve(spec, game=game, brute=True)
            for spec in ("Dih(Z10)", "Dih(Z3xZ3)"):
                b.solve(spec, game=game, brute=True, as_file=True)
        # Small calls so that every traced layer does some work here too.
        b.diagram("Dih(Z7)")
        b.verify("Z5", "--game", "dng")
        b.verify("--suite", "deficiency")
    else:
        raise ValueError(f"unknown workload {name!r}")
    b.rng.shuffle(b.ops)
    return b.ops
