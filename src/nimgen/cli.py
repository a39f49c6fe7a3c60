"""Command-line interface: solve games, draw diagrams, verify, tabulate.

``solver.solve`` builds each spec, refusing the first table over the order
cap unbuilt.  ``verify`` renders the report of ``theory.verify_family``
or ``theory.verify_suite``, whose counts give the exit code.  All output is
UTF-8 with LF line endings; wall-time fields are the only nondeterministic part.
``main`` may be called any number of times in one process.  Its command
line is declared once, in ``_COMMANDS``.  A plain one (the command, its
positionals, then exact full option names, each once, with values that
are among their choices, do not start with '-' and, for caps, are at
most 18 ASCII digits) is read off that table; any other, help, errors
and ``--version`` included, goes to argparse, whose parser is built from
the table once.
"""

from __future__ import annotations

import csv
import functools
import json
import os
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

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

if TYPE_CHECKING:
    import argparse

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
    if args.specs and args.suite:
        print("error: pass specs or --suite, not both", file=sys.stderr)
        return 2
    if args.game and not args.specs:
        print("error: --game applies to specs, not to a suite", file=sys.stderr)
        return 2
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
                   "checks": [{"name": c.name, "subject": c.subject, "checked": c.checked,
                               "violations": list(c.violations)} for c in report.checks],
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
    from argparse import ArgumentTypeError
    try:
        value = int(text)
    except ValueError:
        raise ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _format(*choices: str) -> tuple[str, dict]:
    return "--format", {"dest": "fmt", "choices": list(choices),
                        "default": choices[0]}


_GAME = ("--game", {"choices": ["gen", "dng"], "default": "gen",
                    "help": "achievement (gen) or avoidance (dng) game"})
_MODE = ("--mode", {"choices": ["auto", "brute", "structure"],
                    "default": "auto"})
_BRUTE_CAP = ("--brute-cap", {
    "type": _cap, "default": DEFAULT_BRUTE_CAP,
    "help": f"largest order solved by exhaustive search (default {DEFAULT_BRUTE_CAP})"})
_ORDER_CAP = ("--order-cap", {
    "type": _cap, "default": DEFAULT_ORDER_CAP,
    "help": "largest order whose maximal subgroups are computed "
            f"(default {DEFAULT_ORDER_CAP})"})

# The command line, declared once: per command, its help, its positional
# (dest, ``add_argument`` keywords), its options (flag, ``add_argument``
# keywords) and its handler.  ``build_parser`` hands it to argparse and
# ``_parse_plain`` reads the plain command lines off it.
_COMMANDS = {
    "solve": ("compute nim values of group specs",
              ("specs", {"nargs": "+", "metavar": "SPEC"}),
              (_GAME, _MODE, _format("text", "json", "csv"), _BRUTE_CAP,
               _ORDER_CAP),
              cmd_solve),
    "diagram": ("emit the structure digraph of GEN",
                ("spec", {"metavar": "SPEC"}),
                (_format("dot", "json"),
                 ("--style", {"choices": ["full", "plain"], "default": "full"}),
                 ("--simplified", {
                     "action": "store_true", "default": False,
                     "help": "merge vertices with equal types and option profiles"}),
                 _ORDER_CAP),
                cmd_diagram),
    "verify": ("check computed values against the published classification",
               ("specs", {"nargs": "*", "metavar": "ABELIAN_SPEC",
                          "help": "abelian parts to dihedralize and verify"}),
               # each suite fixes its games, so --game has no default here
               (("--game", {**_GAME[1], "default": None}),
                ("--suite", {"choices": SUITES,
                             "help": "built-in suite to run (default: theorem)"}),
                _format("text", "json"), _ORDER_CAP),
               cmd_verify),
    "table": ("CSV nim-number table over a family",
              ("family", {"metavar": "FAMILY",
                          "help": "spec template containing 'Zn', e.g. Dih(Zn)"}),
              (("--n", {"required": True, "metavar": "A..B",
                        "help": "inclusive range substituted for n"}),
               _GAME, _MODE, _BRUTE_CAP, _ORDER_CAP),
              cmd_table),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """argparse's parser of the command lines ``_parse_plain`` declines,
    shared by every later call: do not change it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="nimgen",
        description="Nim values of group generation games.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, (dest, keywords), options, func) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.add_argument(dest, **keywords)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _parse_plain(argv: Sequence[str]) -> SimpleNamespace | None:
    """argparse's namespace for a plain command line, as the module
    docstring defines it, or None for any other."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    _, (dest, keywords), options, func = _COMMANDS[argv[0]]
    end = 1
    while end < len(argv) and not argv[end].startswith("-"):
        end += 1
    nargs, values = keywords.get("nargs"), list(argv[1:end])
    if (nargs is None and len(values) != 1) or (nargs == "+" and not values):
        return None
    args = {"command": argv[0], dest: values if nargs else values[0],
            "func": func}
    unseen = {}
    for flag, keywords in options:
        unseen[flag] = keywords.get("dest", flag[2:].replace("-", "_")), keywords
        args[unseen[flag][0]] = keywords.get("default")
    tokens = iter(argv[end:])
    for flag in tokens:
        if flag not in unseen:  # not an option name, or a repeat
            return None
        dest, keywords = unseen.pop(flag)
        if keywords.get("action") == "store_true":
            args[dest] = True
            continue
        value = next(tokens, "-")  # a missing value declines like an option
        if value.startswith("-") or value not in keywords.get("choices", [value]):
            return None
        if "type" in keywords:  # a cap: at most 18 digits, which int() takes
            if not (value.isascii() and value.isdigit() and len(value) < 19):
                return None
            value = int(value)
        args[dest] = value
    if any(keywords.get("required") for _, keywords in unseen.values()):
        return None
    return SimpleNamespace(**args)


def main(argv: Sequence[str] | None = None) -> int:
    args = (_parse_plain(sys.argv[1:] if argv is None else argv)
            or build_parser().parse_args(argv))
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
