"""Command-line interface: solve games, draw diagrams, verify, tabulate.

``solver.solve`` builds each spec, refusing the first table over the order
cap unbuilt.  ``verify`` renders the report of ``theory.verify_family``
or ``theory.verify_suite``, whose counts give the exit code.  All output is
UTF-8 with LF line endings; wall-time fields are the only nondeterministic part.
``main`` may be called any number of times in one process: the parser is
built on the first call and reused, since it holds only constants and each
``parse_args`` returns a fresh namespace.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from dataclasses import asdict
from typing import Sequence

from . import __version__
from .diagram import (
    build_digraph,
    digraph_to_dict,
    simplified_to_dict,
    simplify,
    to_dot,
)
from .errors import NimgenError
from .lattice import DEFAULT_ORDER_CAP
from .solver import DEFAULT_BRUTE_CAP, DNG, GEN, solve
from .theory import SUITES, AbelianSpec, verify_family, verify_suite

_VARIANTS = {"gen": GEN, "dng": DNG}


def _solve_record(spec_str: str, variant: str, mode: str, *, brute_cap: int,
                  order_cap: int) -> dict:
    started = time.perf_counter()
    record: dict = {"spec": spec_str, "variant": variant,
                    "tool_version": __version__}
    try:
        result = solve(spec_str, variant, mode, brute_cap=brute_cap,
                       order_cap=order_cap)
        record.update(order=result.lattice.group.order, nim=result.nim,
                      mode=result.mode,
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
    try:
        r = solve(args.spec, GEN, "structure", order_cap=args.order_cap)
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


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        if args.specs:
            report = verify_family([AbelianSpec.from_spec(s) for s in args.specs],
                                   _VARIANTS[args.game or "gen"],
                                   order_cap=args.order_cap)
        else:
            report = verify_suite(args.suite or "theorem", order_cap=args.order_cap)
    except (NimgenError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.fmt == "json":
        payload = {"records": [r.to_dict() for r in report.records],
                   "checks": [asdict(c) for c in report.checks],
                   "notes": list(report.notes), "exitCode": report.exit_code}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return report.exit_code

    for r in report.records:
        if r.skipped:
            print(f"skip {r.spec}  {r.variant}  ({r.note})")
        elif r.failed:
            print(f"FAIL {r.spec}  {r.variant}  computed=*{r.computed} "
                  f"predicted=*{r.predicted} d(Dih)={r.d_dih} d(A)={r.d_a} "
                  f"frattini={'ok' if r.frattini_match else 'MISMATCH'}")
        else:
            print(f"ok   {r.spec}  {r.variant}  *{r.computed} "
                  f"(predicted *{r.predicted}, d(Dih)={r.d_dih}, d(A)={r.d_a})")
    for c in report.checks:
        if c.ok:
            print(f"ok   {c.name}  {c.subject}  checked={c.checked}")
        else:
            print(f"FAIL {c.name}  {c.subject}  {len(c.violations)} violations")
            for v in c.violations:
                print(f"     - {v}")
    for n in report.notes:
        print(f"skip {n}")
    print(f"verify: {report.ok} ok, {report.failed} failed, "
          f"{report.skipped} skipped")
    return report.exit_code


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    lo, hi = int(lo), int(hi)
    if lo > hi:
        raise ValueError(text)
    return lo, hi


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of ``main``, shared by every later call: do not change it."""
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

    p = sub.add_parser("diagram", help="emit the structure digraph of GEN")
    p.add_argument("spec", metavar="SPEC")
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
    p.add_argument("--suite", choices=SUITES,
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
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader has gone, as under ``| head``: the exit flush goes to
        # devnull, and the run counts as incomplete, not as a mismatch.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
