"""Command-line interface: solve games, draw diagrams, verify, tabulate.

All output is UTF-8 with LF line endings; wall-time fields are the only
nondeterministic part.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
import time
from typing import Sequence

from . import __version__
from .diagram import (
    build_digraph,
    digraph_to_dict,
    simplified_to_dict,
    simplify,
    to_dot,
)
from .errors import CapacityError, NimgenError, TableFormatError
from .groups import (Cyclic, Dih, GroupSpec, GroupTable, Product, build_group,
                     parse_group_spec, table_file_order)
from .lattice import DEFAULT_ORDER_CAP, check_order_cap
from .solver import DEFAULT_BRUTE_CAP, DNG, GEN, solve
from .theory import (
    ABELIAN_CATALOG,
    DNG_FAMILY,
    SMALL_CATALOG,
    AbelianSpec,
    CheckReport,
    check_deficiency_oracle,
    check_even_type_table,
    check_odd_case_lemmas,
    check_option_deficiency,
    verify_family,
)

_VARIANTS = {"gen": GEN, "dng": DNG}

# Dihedralized odd abelian parts needing at most two generators: the only
# groups whose odd classes the odd-case pattern covers.
_ODD_SUITE = ("Dih(Z3)", "Dih(Z5)", "Dih(Z7)", "Dih(Z9)", "Dih(Z11)",
              "Dih(Z3xZ3)")

_SUITES = ("theorem", "dng", "even-types", "odd-lemmas", "deficiency", "all")


def _spec_order(spec: GroupSpec, in_dih: bool = False) -> tuple[int, bool]:
    """Order of the group a spec describes, without building it, and
    whether that order is exact.

    Where building may fail first, the order is a lower bound: the order
    a table file's header declares (1 if the header is not an order),
    twice the inner bound for a ``Dih`` inside a ``Dih``, which
    need not be abelian, and the product of the bounds for a product.
    """
    if isinstance(spec, Cyclic):
        return spec.n, True
    if isinstance(spec, Product):
        left, left_exact = _spec_order(spec.left, in_dih)
        right, right_exact = _spec_order(spec.right, in_dih)
        return left * right, left_exact and right_exact
    if isinstance(spec, Dih):
        inner, exact = _spec_order(spec.inner, True)
        return 2 * inner, exact and not in_dih
    try:  # the header alone: an over-cap table file is refused unparsed
        return table_file_order(spec.path), False
    except (TableFormatError, UnicodeDecodeError):  # the loader reports it
        return 1, False


def _build_capped(spec_str: str, order_cap: int) -> GroupTable:
    """The group of a spec string; one whose order, or a lower bound of it,
    the spec gives and which is over ``order_cap`` raises CapacityError
    before any table is built.  Orders below 2 are left to ``solve``."""
    spec = parse_group_spec(spec_str)
    order, exact = _spec_order(spec)
    if exact and order >= 2:
        check_order_cap(order, order_cap)
    elif order >= 2 and order > order_cap:
        raise CapacityError(f"structure lattice capped at order {order_cap}, "
                            f"spec declares order at least {order}")
    return build_group(spec)


def _solve_record(spec_str: str, variant: str, mode: str, *, brute_cap: int,
                  order_cap: int) -> dict:
    started = time.perf_counter()
    record: dict = {"spec": spec_str, "variant": variant,
                    "tool_version": __version__}
    try:
        g = _build_capped(spec_str, order_cap)
        result = solve(g, variant, mode, brute_cap=brute_cap,
                       order_cap=order_cap)
        record.update(order=g.order, nim=result.nim, mode=result.mode,
                      intersections=len(result.lattice.intersections),
                      d_g=result.d_g)
    except (NimgenError, ValueError) as exc:
        record["error"] = str(exc)
    record["millis"] = int((time.perf_counter() - started) * 1000)
    return record


def _print_solve_text(records: Sequence[dict]) -> None:
    for r in records:
        if "error" in r:
            print(f"{r['spec']}  {r['variant']}  ERROR  {r['error']}")
        else:
            print(f"{r['spec']}  {r['variant']}  *{r['nim']}  "
                  f"order={r['order']} mode={r['mode']} "
                  f"intersections={r['intersections']} d={r['d_g']}  "
                  f"{r['millis']}ms")


# CSV columns of ``solve``: (header, record key).
_SOLVE_COLUMNS = (("spec", "spec"), ("order", "order"), ("variant", "variant"),
                  ("nim", "nim"), ("mode", "mode"),
                  ("intersections", "intersections"), ("d(G)", "d_g"),
                  ("millis", "millis"), ("tool_version", "tool_version"),
                  ("note", "error"))
_TABLE_COLUMNS = tuple(c for c in _SOLVE_COLUMNS
                       if c[1] not in ("intersections", "tool_version"))


def _write_csv(records: Sequence[dict],
               columns: Sequence[tuple[str, str]]) -> None:
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow([header for header, _ in columns])
    for r in records:
        w.writerow([r.get(key, "") for _, key in columns])


def _solve_records(specs: Sequence[str],
                   args: argparse.Namespace) -> tuple[list[dict], int]:
    """One record per spec for ``solve`` and ``table``; the exit code is 2
    if any record failed, else 0."""
    records = [
        _solve_record(s, _VARIANTS[args.game], args.mode,
                      brute_cap=args.brute_cap, order_cap=args.order_cap)
        for s in specs
    ]
    return records, 2 if any("error" in r for r in records) else 0


def cmd_solve(args: argparse.Namespace) -> int:
    records, code = _solve_records(args.specs, args)
    if args.fmt == "json":
        print(json.dumps(records, indent=2, sort_keys=True))
    elif args.fmt == "csv":
        _write_csv(records, _SOLVE_COLUMNS)
    else:
        _print_solve_text(records)
    return code


def cmd_diagram(args: argparse.Namespace) -> int:
    if args.game == "dng":
        print("error: diagrams are defined for the achievement game only",
              file=sys.stderr)
        return 2
    try:
        r = solve(_build_capped(args.spec, args.order_cap), GEN, "structure",
                  order_cap=args.order_cap)
        digraph = build_digraph(r.lattice.group, r.lattice, r.classes, r.deficiency)
        drawing = simplify(digraph) if args.simplified else digraph
    except (NimgenError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        payload = (simplified_to_dict(drawing) if args.simplified
                   else digraph_to_dict(drawing))
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        sys.stdout.write(to_dot(drawing, style=args.style))
    return 0


def _suite_checks(suite: str, order_cap: int) -> tuple[list[CheckReport], list[str]]:
    checks: list[CheckReport] = []
    notes: list[str] = []
    # Suites share groups; each is solved once.
    structure = functools.cache(lambda s: solve(
        _build_capped(s, order_cap), GEN, "structure", order_cap=order_cap))
    if suite in ("even-types", "all"):
        for s in SMALL_CATALOG:
            try:
                r = structure(s)
                if r.lattice.group.order % 2 == 0:
                    checks.append(check_even_type_table(
                        r.lattice.group, r.lattice, r.deficiency, r.classes))
            except NimgenError as exc:
                notes.append(f"{s}: {exc}")
    if suite in ("odd-lemmas", "all"):
        for s in _ODD_SUITE:
            try:
                r = structure(s)
                digraph = build_digraph(r.lattice.group, r.lattice, r.classes,
                                        r.deficiency)
                checks.append(check_option_deficiency(digraph, r.deficiency, subject=s))
                checks.append(check_odd_case_lemmas(digraph, r.deficiency, subject=s))
            except NimgenError as exc:
                notes.append(f"{s}: {exc}")
    if suite in ("deficiency", "all"):
        for s in SMALL_CATALOG:
            try:
                r = structure(s)
                checks.append(check_deficiency_oracle(
                    r.lattice.group, r.lattice, r.deficiency))
            except NimgenError as exc:
                notes.append(f"{s}: {exc}")
    return checks, notes


def cmd_verify(args: argparse.Namespace) -> int:
    order_cap = args.order_cap
    family_records = []
    checks: list[CheckReport] = []
    notes: list[str] = []
    try:
        if args.specs:
            parts = [AbelianSpec.from_spec(s) for s in args.specs]
            report = verify_family(parts, _VARIANTS[args.game or "gen"],
                                   order_cap=order_cap)
            family_records = list(report.records)
        else:
            suite = args.suite or "theorem"
            if suite in ("theorem", "all"):
                parts = [AbelianSpec.from_spec(s) for s in ABELIAN_CATALOG]
                family_records += list(verify_family(
                    parts, GEN, order_cap=order_cap).records)
            if suite in ("dng", "all"):
                parts = [AbelianSpec.from_spec(s) for s in DNG_FAMILY]
                family_records += list(verify_family(
                    parts, DNG, order_cap=order_cap).records)
            suite_checks, suite_notes = _suite_checks(suite, order_cap)
            checks += suite_checks
            notes += suite_notes
    except (NimgenError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = sum(1 for r in family_records if r.failed) \
        + sum(1 for c in checks if not c.ok)
    skipped = sum(1 for r in family_records if r.skipped) + len(notes)
    ok = len(family_records) + len(checks) - failed \
        - sum(1 for r in family_records if r.skipped)
    code = 1 if failed else (2 if skipped else 0)

    if args.fmt == "json":
        payload = {
            "records": [r.to_dict() for r in family_records],
            "checks": [
                {"name": c.name, "subject": c.subject, "checked": c.checked,
                 "violations": list(c.violations)}
                for c in checks
            ],
            "notes": notes,
            "exitCode": code,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return code

    for r in family_records:
        if r.skipped:
            print(f"skip {r.spec}  {r.variant}  ({r.note})")
        elif r.failed:
            print(f"FAIL {r.spec}  {r.variant}  computed=*{r.computed} "
                  f"predicted=*{r.predicted} d(Dih)={r.d_dih} d(A)={r.d_a} "
                  f"frattini={'ok' if r.frattini_match else 'MISMATCH'}")
        else:
            print(f"ok   {r.spec}  {r.variant}  *{r.computed} "
                  f"(predicted *{r.predicted}, d(Dih)={r.d_dih}, d(A)={r.d_a})")
    for c in checks:
        if c.ok:
            print(f"ok   {c.name}  {c.subject}  checked={c.checked}")
        else:
            print(f"FAIL {c.name}  {c.subject}  {len(c.violations)} violations")
            for v in c.violations:
                print(f"     - {v}")
    for n in notes:
        print(f"skip {n}")
    print(f"verify: {ok} ok, {failed} failed, {skipped} skipped")
    return code


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, _, hi = text.partition("..")
        lo, hi = int(lo), int(hi)
        if lo > hi:
            raise ValueError(text)
        return lo, hi
    n = int(text)
    return n, n


def cmd_table(args: argparse.Namespace) -> int:
    if "Zn" not in args.family:
        print("error: the family expression must contain 'Zn'",
              file=sys.stderr)
        return 2
    try:
        lo, hi = _parse_range(args.n)
    except ValueError:
        print(f"error: bad range {args.n!r}; expected A..B with A <= B",
              file=sys.stderr)
        return 2
    records, code = _solve_records(
        [args.family.replace("Zn", f"Z{k}") for k in range(lo, hi + 1)], args)
    _write_csv(records, _TABLE_COLUMNS)
    return code


def _cap(text: str) -> int:
    """A non-negative order cap; argparse reports anything else."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _add_brute_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--brute-cap", type=_cap, default=DEFAULT_BRUTE_CAP,
                   help="largest order solved by exhaustive search "
                        f"(default {DEFAULT_BRUTE_CAP})")


def _add_order_cap(p: argparse.ArgumentParser) -> None:
    p.add_argument("--order-cap", type=_cap, default=DEFAULT_ORDER_CAP,
                   help="largest order whose maximal subgroups are computed "
                        f"(default {DEFAULT_ORDER_CAP})")


def _add_game(p: argparse.ArgumentParser) -> None:
    p.add_argument("--game", choices=["gen", "dng"], default="gen",
                   help="achievement (gen) or avoidance (dng) game")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nimgen",
        description="Nim values of group generation games.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="compute nim values of group specs")
    p.add_argument("specs", nargs="+", metavar="SPEC")
    _add_game(p)
    p.add_argument("--mode", choices=["auto", "brute", "structure"],
                   default="auto")
    p.add_argument("--format", dest="fmt", choices=["text", "json", "csv"],
                   default="text")
    _add_brute_cap(p)
    _add_order_cap(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("diagram", help="emit the structure digraph")
    p.add_argument("spec", metavar="SPEC")
    _add_game(p)
    p.add_argument("--format", dest="fmt", choices=["dot", "json"],
                   default="dot")
    p.add_argument("--style", choices=["full", "plain"], default="full")
    p.add_argument("--simplified", action="store_true",
                   help="merge vertices with equal types and option profiles")
    _add_order_cap(p)
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("verify", help="check computed values against the "
                                      "published classification")
    p.add_argument("specs", nargs="*", metavar="ABELIAN_SPEC",
                   help="abelian parts to dihedralize and verify")
    _add_game(p)
    p.add_argument("--suite", choices=_SUITES,
                   help="built-in suite to run (default: theorem)")
    p.add_argument("--format", dest="fmt", choices=["text", "json"],
                   default="text")
    _add_order_cap(p)
    p.set_defaults(func=cmd_verify, game=None)  # each suite fixes its games

    p = sub.add_parser("table", help="CSV nim-number table over a family")
    p.add_argument("family", metavar="FAMILY",
                   help="spec template containing 'Zn', e.g. Dih(Zn)")
    p.add_argument("--n", required=True, metavar="A..B",
                   help="inclusive range substituted for n")
    _add_game(p)
    p.add_argument("--mode", choices=["auto", "brute", "structure"],
                   default="auto")
    _add_brute_cap(p)
    _add_order_cap(p)
    p.set_defaults(func=cmd_table)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify" and args.specs and args.suite:
        print("error: pass specs or --suite, not both", file=sys.stderr)
        return 2
    if args.command == "verify" and args.game and not args.specs:
        print("error: --game applies to specs, not to a suite", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
