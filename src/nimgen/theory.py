"""Deficiency bookkeeping, closed-form predictions, and verification harnesses.

The deficiency of a structure class is its directed distance to the terminal
class; the deficiency of the Frattini class equals the minimum size of a
generating set.  The prediction functions give the expected nim values of
generation games on generalized dihedral groups straight from the shape of
the abelian part, and the verify/check helpers compare those expectations
against computed values.  The deficiency oracle checks class distances
against every subgroup's deficiency, found from the Cayley table alone.
``verify_suite`` runs the shipped suites, building each group's lattice
and solving each (group, game) once per call, and noting once each group a
check cannot solve under the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from .diagram import StructureDigraph, build_digraph
from .errors import CapacityError, OutOfScopeError
from .groups import (
    Cyclic,
    GroupTable,
    Product,
    build_group,
    parse_group_spec,
    prime_factors,
    subgroup_walk,
)
from .lattice import (
    DEFAULT_ORDER_CAP,
    TERMINAL,
    DeficiencyTable,
    IntersectionLattice,
    ceil_class,
    class_parity,
    deficiency_table,  # not called here: perfbench traces it by this name
    intersection_subgroups,
)
from .solver import DNG, GEN, SolveResult, Variant, solve


# ---------------------------------------------------------------------------
# Deficiency


def _subgroup_deficiencies(g: GroupTable) -> dict[int, int]:
    """Deficiency of every subgroup: fewest extra elements that generate G.

    ``subgroup_walk`` yields every subgroup after its joins, each larger
    than it, so one fold sets delta(G) = 0 and delta(H) = 1 + the least
    delta of its joins.
    """
    delta: dict[int, int] = {}
    for h, _, joins in subgroup_walk(g):
        delta[h] = 1 + min(map(delta.__getitem__, joins), default=-1)
    return delta


def strata(dt: DeficiencyTable, lat: IntersectionLattice) -> dict[tuple[int, int], set[int]]:
    """Group class ids by (parity bit, deficiency)."""
    out: dict[tuple[int, int], set[int]] = {}
    for cid, m in dt.per_class.items():
        out.setdefault((class_parity(lat, cid), m), set()).add(cid)
    return out


# ---------------------------------------------------------------------------
# Abelian shapes and predictions


@dataclass(frozen=True)
class AbelianSpec:
    """An abelian group given as a direct product of cyclic factors."""

    factors: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.factors or any(f < 1 for f in self.factors):
            raise ValueError(f"cyclic factors must be positive, got {self.factors}")

    @classmethod
    def from_spec(cls, spec: str) -> "AbelianSpec":
        """The factors of a product of cyclic specs, left to right; any other
        spec is refused with a ValueError naming ``spec`` as given."""
        parsed = parse_group_spec(spec)
        factors = parsed.factors if isinstance(parsed, Product) else (parsed,)
        if not all(isinstance(f, Cyclic) for f in factors):
            raise ValueError(f"not a direct product of cyclic groups: {spec}")
        return cls(tuple(f.n for f in factors))

    @property
    def order(self) -> int:
        n = 1
        for f in self.factors:
            n *= f
        return n

    @property
    def is_odd(self) -> bool:
        return self.order % 2 == 1

    @property
    def rank(self) -> int:
        """Minimum number of generators: the largest per-prime factor count."""
        counts = [sum(1 for f in self.factors if f % p == 0)
                  for p in prime_factors(self.order)]
        return max(counts, default=0)

    @property
    def is_cyclic(self) -> bool:
        return self.rank <= 1

    @property
    def spec_string(self) -> str:
        return "x".join(f"Z{f}" for f in sorted(f for f in self.factors if f > 1)) or "Z1"


def _partitions(e: int, largest: int) -> Iterator[tuple[int, ...]]:
    """Partitions of ``e`` into parts of at most ``largest``, largest first."""
    if e == 0:
        yield ()
    for first in range(min(e, largest), 0, -1):
        for rest in _partitions(e - first, first):
            yield (first,) + rest


def abelian_groups(order: int) -> tuple[AbelianSpec, ...]:
    """Every abelian group of ``order`` up to isomorphism, by invariant factors.

    An abelian group is the product of its Sylow subgroups, and the one of
    order p^e is fixed by a partition of e.  The i-th largest invariant
    factor multiplies the i-th largest part of every prime.
    """
    if order < 1:
        raise ValueError(f"group order must be at least 1, got {order}")
    primes = sorted(prime_factors(order))
    exponents = []
    for p in primes:
        e = 0
        while order % p ** (e + 1) == 0:
            e += 1
        exponents.append(e)
    out = []
    for choice in product(*(_partitions(e, e) for e in exponents)):
        factors = [1] * max(map(len, choice), default=1)
        for p, parts in zip(primes, choice):
            for i, k in enumerate(parts):
                factors[i] *= p ** k
        out.append(AbelianSpec(tuple(sorted(factors))))
    return tuple(out)


def predict_gen_dih(a: AbelianSpec) -> int:
    """Expected achievement-game nim value of the dihedralized group.

    Covers every abelian part of order at least 2; the order-1 case is
    rejected because its dihedralization is the two-element group, whose
    value matches none of the family's cases.
    """
    if a.order < 2:
        raise OutOfScopeError(
            "prediction needs an abelian part of order at least 2")
    if a.rank == 1:
        n = a.order
        if n % 4 == 0:
            return 0
        if n % 4 == 2:
            return 1
        return 3
    if a.rank == 2 and a.is_odd:
        return 3
    return 0


def predict_dng_dih(a: AbelianSpec) -> int:
    """Expected avoidance-game nim value of the dihedralized group."""
    if a.order < 2:
        raise OutOfScopeError(
            "prediction needs an abelian part of order at least 2")
    return 3 if (a.is_cyclic and a.is_odd) else 0


# ---------------------------------------------------------------------------
# Verification harnesses


@dataclass(frozen=True)
class FamilyRecord:
    """One verified dihedralization: prediction vs. computation."""

    spec: str
    variant: str
    predicted: int | None = None
    computed: int | None = None
    d_dih: int | None = None
    d_a: int | None = None
    frattini_match: bool | None = None
    agree: bool | None = None
    note: str = ""

    @property
    def failed(self) -> bool:
        if self.agree is False or self.frattini_match is False:
            return True
        if self.d_dih is not None and self.d_a is not None:
            return self.d_dih != self.d_a + 1
        return False

    @property
    def skipped(self) -> bool:
        return self.computed is None

    def to_dict(self) -> dict:
        out = {
            "spec": self.spec,
            "variant": self.variant,
            "predicted": self.predicted,
            "computed": self.computed,
            "dDih": self.d_dih,
            "dA": self.d_a,
            "frattiniMatch": self.frattini_match,
            "agree": self.agree,
        }
        if self.note:
            out["note"] = self.note
        return out


@dataclass(frozen=True)
class FamilyReport:
    """Family records, structural checks and the groups a check could not solve."""

    records: tuple[FamilyRecord, ...]
    checks: tuple[CheckReport, ...] = ()
    notes: tuple[str, ...] = ()

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.records) + sum(not c.ok for c in self.checks)

    @property
    def skipped(self) -> int:
        return sum(r.skipped for r in self.records) + len(self.notes)

    @property
    def ok(self) -> int:
        return (sum(not (r.failed or r.skipped) for r in self.records)
                + sum(c.ok for c in self.checks))

    @property
    def exit_code(self) -> int:
        """0 if everything agrees, 1 on any mismatch, 2 if only skips occurred."""
        return 1 if self.failed else 2 if self.skipped else 0


def _structure_solver(order_cap: int):
    """One lattice per spec, and one structure solve per (spec, game) on it;
    ``build_group`` refuses a table over the cap before building it."""
    lattice = cache(lambda spec: intersection_subgroups(build_group(spec, order_cap),
                                                        order_cap=order_cap))
    return lattice, cache(lambda spec, variant: solve(lattice(spec), variant, "structure",
                                                      order_cap=order_cap))


def _family_records(specs: Iterable[AbelianSpec], variant: Variant,
                    lattice: Callable[[str], IntersectionLattice],
                    structure: Callable[[str, Variant], SolveResult]) -> list[FamilyRecord]:
    records = []
    for a in specs:
        spec_str = f"Dih({a.spec_string})"
        try:
            predicted = (predict_gen_dih(a) if variant == GEN else predict_dng_dih(a))
        except OutOfScopeError as exc:
            records.append(FamilyRecord(spec_str, variant, note=str(exc)))
            continue
        try:
            result = structure(spec_str, variant)
            # Dih(A) built from A's spec keeps A's element indices, so
            # Frattini carriers compare directly.
            frattini_match = lattice(a.spec_string).frattini_mask == result.lattice.frattini_mask
        except CapacityError as exc:
            records.append(FamilyRecord(spec_str, variant, predicted, d_a=a.rank,
                                        note=str(exc)))
            continue
        records.append(FamilyRecord(
            spec=spec_str, variant=variant, predicted=predicted,
            computed=result.nim, d_dih=result.d_g, d_a=a.rank,
            frattini_match=frattini_match, agree=result.nim == predicted))
    return records


def verify_family(specs: Sequence[AbelianSpec], variant: Variant = GEN, *,
                  order_cap: int = DEFAULT_ORDER_CAP) -> FamilyReport:
    """Compare predicted and computed nim values over dihedralized groups.

    Capacity and scope problems are reported per record, never raised.
    """
    return FamilyReport(records=tuple(_family_records(
        specs, variant, *_structure_solver(order_cap))))


@dataclass(frozen=True)
class CheckReport:
    """Result of one structural check on one group."""

    name: str
    subject: str
    checked: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


# Expected (parity, even nim, odd nim) of even classes, by deficiency.
_EVEN_TYPES = {0: (0, 0, 0), 1: (0, 1, 2), 2: (0, 0, 2)}
_EVEN_TYPE_DEEP = (0, 0, 1)

# Expected types of odd classes of a dihedralized odd two-generator abelian
# group, by deficiency.
_ODD_TYPES = {1: (1, 2, 1), 2: (1, 3, 0), 3: (1, 3, 1)}


def check_even_type_table(g: GroupTable, lat: IntersectionLattice,
                          dt: DeficiencyTable, nims) -> CheckReport:
    """Even classes of an even-order group have types fixed by deficiency."""
    if g.order % 2:
        raise ValueError("the even-type table applies to even-order groups")
    violations = []
    checked = 0
    for cid, (even_nim, odd_nim) in nims.per_class.items():
        if class_parity(lat, cid) != 0:
            continue
        checked += 1
        m = dt.per_class[cid]
        expected = _EVEN_TYPES.get(m, _EVEN_TYPE_DEEP)
        actual = (0, even_nim, odd_nim)
        if actual != expected:
            violations.append(
                f"class {cid} at deficiency {m} has type {actual}, expected {expected}")
    if dt.d_g >= 4 and nims.game_nim != 0:
        violations.append(
            f"groups needing {dt.d_g} generators must have nim value 0, "
            f"got {nims.game_nim}")
    return CheckReport(name="even-type-table", subject=g.label or "group",
                       checked=checked, violations=tuple(violations))


def check_option_deficiency(digraph: StructureDigraph, dt: DeficiencyTable,
                            subject: str = "digraph") -> CheckReport:
    """Each class has an option one step closer to terminal and none farther.

    For even classes all options are even (carriers contain the even carrier),
    so the step-closer option is itself even.
    """
    violations = []
    checked = 0
    for v, opts in zip(digraph.vertices, digraph.options):
        if v.cid == TERMINAL:
            continue
        checked += 1
        m = dt.per_class[v.cid]
        deltas = {dt.per_class[j] for j in opts}
        if m - 1 not in deltas:
            violations.append(f"class {v.cid} at deficiency {m} has no option at {m - 1}")
        if not deltas <= {m, m - 1}:
            violations.append(
                f"class {v.cid} at deficiency {m} has options at {sorted(deltas)}")
        if v.parity == 0:
            odd_opts = [j for j in opts if digraph.vertices[j].parity != 0]
            if odd_opts:
                violations.append(
                    f"even class {v.cid} has odd-carrier options {sorted(odd_opts)}")
    return CheckReport(name="option-deficiency", subject=subject,
                       checked=checked, violations=tuple(violations))


def check_deficiency_oracle(g: GroupTable, lat: IntersectionLattice,
                            dt: DeficiencyTable) -> CheckReport:
    """Class distances agree with the deficiency of every subgroup.

    A subset P has the deficiency and the class of <P>, since
    <P ∪ X> = <<P> ∪ X> and ``ceil(P) = ceil(<P>)``, so checking every
    subgroup, the class carriers among them, covers every subset.
    ``checked`` counts the subgroups.
    """
    delta = _subgroup_deficiencies(g)
    violations = []
    for h, d in delta.items():
        cid = ceil_class(lat, g, h)
        if d != dt.per_class[cid]:
            violations.append(
                f"subgroup {h:#x} has deficiency {d} but its class {cid} "
                f"sits at distance {dt.per_class[cid]}")
    if delta[1] != dt.d_g:
        violations.append(
            f"the trivial subgroup needs {delta[1]} elements but d(G) was "
            f"computed as {dt.d_g}")
    return CheckReport(name="deficiency-oracle", subject=g.label or "group",
                       checked=len(delta), violations=tuple(violations))


def check_odd_case_lemmas(digraph: StructureDigraph, dt: DeficiencyTable,
                          subject: str = "digraph") -> CheckReport:
    """Odd-class pattern of a dihedralized odd two-generator abelian group.

    Odd classes carry the expected type for their deficiency; at deficiency
    2 and 3 they have an odd option one step closer; at deficiency 1..3 they
    have an even option one step closer and no even option at the same depth.
    """
    violations = []
    checked = 0
    for v, opts in zip(digraph.vertices, digraph.options):
        if v.cid == TERMINAL or v.parity == 0:
            continue
        checked += 1
        m = dt.per_class[v.cid]
        expected = _ODD_TYPES.get(m)
        if expected is None:
            violations.append(f"odd class {v.cid} at unexpected deficiency {m}")
            continue
        if tuple(v.vtype) != expected:
            violations.append(
                f"odd class {v.cid} at deficiency {m} has type {tuple(v.vtype)}, "
                f"expected {expected}")
        option_info = [(digraph.vertices[j].parity, dt.per_class[j]) for j in opts]
        if m in (2, 3) and (1, m - 1) not in option_info:
            violations.append(
                f"odd class {v.cid} at deficiency {m} has no odd option at {m - 1}")
        if (0, m - 1) not in option_info:
            violations.append(
                f"odd class {v.cid} at deficiency {m} has no even option at {m - 1}")
        if (0, m) in option_info:
            violations.append(
                f"odd class {v.cid} at deficiency {m} has an even option at the same depth")
    return CheckReport(name="odd-case-pattern", subject=subject,
                       checked=checked, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Shipped catalogs


# Abelian parts for the cyclic dihedral table.
DIHEDRAL_FAMILY = tuple(f"Z{n}" for n in range(2, 13))

# Abelian parts for the non-cyclic classification sweep.
THEOREM_FAMILY = (
    "Z3xZ3", "Z3xZ9", "Z5xZ5", "Z2xZ2",
    "Z2xZ4", "Z2xZ6", "Z2xZ2xZ2", "Z3xZ3xZ3",
)

# Abelian parts for the avoidance-game classification.
DNG_FAMILY = ("Z3", "Z5", "Z7", "Z4", "Z6", "Z2xZ2")

# Groups of order at most 16, used wherever brute force must agree with the
# structure solver.
SMALL_CATALOG = tuple(
    [f"Z{n}" for n in range(2, 17)]
    + ["Z2xZ2", "Z2xZ4", "Z2xZ2xZ2", "Z2xZ6"]
    + [f"Dih(Z{n})" for n in range(2, 9)]
    + ["Dih(Z2xZ2)", "Dih(Z2xZ4)", "Dih(Z2xZ2xZ2)"]
)

# The even-order groups of SMALL_CATALOG: all but the odd cyclic ones.
EVEN_CATALOG = tuple(s for s in SMALL_CATALOG if s not in {f"Z{n}" for n in range(3, 17, 2)})

# Larger groups still within the order cap; mostly dihedralizations.
EXTENDED_CATALOG = SMALL_CATALOG + (
    "Dih(Z9)", "Dih(Z10)", "Dih(Z11)", "Dih(Z12)",
    "Dih(Z3xZ3)", "Dih(Z3xZ9)", "Dih(Z5xZ5)", "Dih(Z2xZ6)", "Dih(Z3xZ3xZ3)",
)

# Abelian groups of order at most 27 for dihedralization identities.
ABELIAN_CATALOG = tuple(dict.fromkeys(DIHEDRAL_FAMILY + THEOREM_FAMILY))

# Dihedralized odd abelian parts needing at most two generators: the only
# groups whose odd classes the odd-case pattern covers.
ODD_CATALOG = ("Dih(Z3)", "Dih(Z5)", "Dih(Z7)", "Dih(Z9)", "Dih(Z11)",
               "Dih(Z3xZ3)")

# Suites of ``verify_suite``, in the order ``all`` runs them.
SUITES = ("theorem", "dng", "even-types", "odd-lemmas", "deficiency", "all")


def verify_suite(suite: str, *, order_cap: int = DEFAULT_ORDER_CAP) -> FamilyReport:
    """Run one of ``SUITES`` (``all`` runs the others in order) as one report.

    Each group's lattice is built once per call, shared by both games and
    by the Frattini check, and each (group, game) is solved once on it; a
    group a check suite cannot solve under ``order_cap`` gets one note,
    however many suites list it.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    lattice, structure = _structure_solver(order_cap)
    records: list[FamilyRecord] = []
    if suite in ("theorem", "all"):
        records += _family_records(map(AbelianSpec.from_spec, ABELIAN_CATALOG),
                                   GEN, lattice, structure)
    if suite in ("dng", "all"):
        records += _family_records(map(AbelianSpec.from_spec, DNG_FAMILY),
                                   DNG, lattice, structure)
    checks: list[CheckReport] = []
    notes: dict[str, str] = {}

    def solved(specs: Iterable[str]) -> Iterator[tuple[str, SolveResult]]:
        for s in specs:
            try:
                yield s, structure(s, GEN)
            except CapacityError as exc:
                notes.setdefault(s, f"{s}: {exc}")

    if suite in ("even-types", "all"):
        for _, r in solved(EVEN_CATALOG):
            checks.append(check_even_type_table(
                r.lattice.group, r.lattice, r.deficiency, r.classes))
    if suite in ("odd-lemmas", "all"):
        for s, r in solved(ODD_CATALOG):
            digraph = build_digraph(r.lattice.group, r.lattice, r.classes, r.deficiency)
            checks.append(check_option_deficiency(digraph, r.deficiency, subject=s))
            checks.append(check_odd_case_lemmas(digraph, r.deficiency, subject=s))
    if suite in ("deficiency", "all"):
        for _, r in solved(SMALL_CATALOG):
            checks.append(check_deficiency_oracle(
                r.lattice.group, r.lattice, r.deficiency))
    return FamilyReport(tuple(records), tuple(checks), tuple(notes.values()))
