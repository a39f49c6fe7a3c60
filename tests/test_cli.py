import collections
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nimgen as ng
from nimgen import __version__
from nimgen.cli import _parse_plain, build_parser, main

import support

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def normalize_json(text):
    records = json.loads(text)
    for r in records:
        r["millis"] = 0
    return json.dumps(records, indent=2, sort_keys=True) + "\n"


def normalize_csv(text):
    lines = text.splitlines()
    cols = lines[0].split(",")
    mi = cols.index("millis")
    out = [lines[0]]
    for line in lines[1:]:
        parts = line.split(",")
        parts[mi] = "0"
        out.append(",".join(parts))
    return "\n".join(out) + "\n"


def test_solve_text(capsys):
    code, out, _ = run(capsys, "solve", "--game", "gen", "Dih(Z5)", "Z2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("Dih(Z5)  GEN  *3  order=10")
    assert lines[1].startswith("Z2  GEN  *2  order=2")


def test_solve_json_golden(capsys):
    code, out, _ = run(capsys, "solve", "--game", "gen", "Dih(Z5)",
                       "--format", "json")
    assert code == 0
    assert normalize_json(out) == (GOLDEN / "solve_dihz5.json").read_text()


def test_solve_csv_layout(capsys):
    code, out, _ = run(capsys, "solve", "Z4", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["spec", "order", "variant", "nim", "mode",
                       "intersections", "d(G)", "millis", "tool_version",
                       "note"]
    assert rows[1][:5] == ["Z4", "4", "GEN", "1", "brute"]
    assert rows[1][8] == __version__


def test_solve_dng(capsys):
    code, out, _ = run(capsys, "solve", "--game", "dng", "Dih(Z6)")
    assert code == 0
    assert "DNG  *0" in out


def test_solve_parse_error_exit_code(capsys):
    code, out, _ = run(capsys, "solve", "Zx")
    assert code == 2
    assert "ERROR" in out


def test_solve_error_keeps_other_records(capsys):
    code, out, _ = run(capsys, "solve", "Z4", "Zx", "--format", "json")
    assert code == 2
    records = json.loads(out)
    assert records[0]["nim"] == 1
    assert "error" in records[1]


def test_solve_structure_dng(capsys):
    # above the brute cap, auto picks the structure method in both games
    code, out, _ = run(capsys, "solve", "--game", "dng", "Dih(Z25)",
                       "Dih(Z3xZ9)")
    assert code == 0
    lines = out.splitlines()
    assert "DNG  *3  order=50 mode=structure" in lines[0]
    assert "DNG  *0  order=54 mode=structure" in lines[1]
    # below it, the structure method on request
    code, out, _ = run(capsys, "solve", "Dih(Z5)", "--mode", "structure",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)[0]["mode"] == "structure"


def test_solve_determinism(capsys):
    a = run(capsys, "solve", "Dih(Z4)", "Z6", "--format", "json")
    b = run(capsys, "solve", "Dih(Z4)", "Z6", "--format", "json")
    assert normalize_json(a[1]) == normalize_json(b[1])


def test_table_golden(capsys):
    code, out, _ = run(capsys, "table", "Dih(Zn)", "--n", "2..12",
                       "--game", "gen")
    assert code == 0
    assert normalize_csv(out) == (GOLDEN / "table_dih_2_12.csv").read_text()


def test_table_nim_column_pattern(capsys):
    code, out, _ = run(capsys, "table", "Dih(Zn)", "--n", "2..12")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [int(r[3]) for r in rows] == [1, 3, 0, 3, 1, 3, 0, 3, 1, 3, 0]


def test_table_brute_mode(capsys):
    code, out, _ = run(capsys, "table", "Zn", "--n", "2..8", "--mode", "brute")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == 7
    assert all(r[3] != "" and r[7] == "" for r in rows)


def test_table_reversed_range_is_rejected(capsys):
    # a reversed range once printed only the CSV header and exited 0
    # the bare form N is no range: A..A gives one group
    for text in ("5..3", "5..4", "5"):
        code, out, err = run(capsys, "table", "Dih(Zn)", "--n", text)
        assert code == 2
        assert out == ""
        assert err == (f"error: bad range '{text}'; "
                       "expected A..B with A <= B\n")
    code, out, _ = run(capsys, "table", "Dih(Zn)", "--n", "5..5")
    assert code == 0
    assert len(out.splitlines()) == 2


def test_table_requires_placeholder(capsys):
    code, _, err = run(capsys, "table", "Dih(Z4)", "--n", "2..4")
    assert code == 2
    assert "Zn" in err


def test_table_bad_range(capsys):
    code, _, err = run(capsys, "table", "Dih(Zn)", "--n", "two..4")
    assert code == 2
    assert "range" in err


def test_table_capacity_note(capsys):
    code, out, _ = run(capsys, "table", "Dih(Zn)", "--n", "2..3",
                       "--order-cap", "5")
    assert code == 2
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert rows[0][3] == "1"        # Dih(Z2) fits under the cap
    assert rows[1][3] == ""         # Dih(Z3) does not
    assert rows[1][7] != ""


def test_diagram_full_golden(capsys):
    code, out, _ = run(capsys, "diagram", "Dih(Z4)")
    assert code == 0
    assert out == (GOLDEN / "diagram_dihz4.dot").read_text()


def test_diagram_simplified_golden(capsys):
    code, out, _ = run(capsys, "diagram", "Dih(Z4)", "--simplified")
    assert code == 0
    assert out == (GOLDEN / "diagram_dihz4_simplified.dot").read_text()


def test_diagram_two_node(capsys):
    code, out, _ = run(capsys, "diagram", "Z7")
    assert code == 0
    assert out.count("label=") == 2


def test_diagram_json(capsys):
    code, out, _ = run(capsys, "diagram", "Dih(Z4)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 5
    code, out, _ = run(capsys, "diagram", "Dih(Z4)", "--format", "json",
                       "--simplified")
    payload = json.loads(out)
    assert len(payload["vertices"]) == 3


# seed: None for the spec itself, else a relabelled table file of it
@pytest.mark.parametrize("spec,seed", [("Dih(Z3xZ3)", None), ("Z2xZ2xZ2", None),
                                       ("Dih(Z12)", None), ("Dih(Z2xZ4)", 3)])
def test_diagram_json_matches_library_pipeline(spec, seed, capsys, tmp_path):
    if seed is not None:
        path = tmp_path / "g.tbl"
        path.write_text(ng.to_table_text(support.relabelled(support.group(spec), seed)),
                        encoding="utf-8")
        spec = f"table:{path}"
    digraph = support.digraph(spec)
    for flags, expected in (([], ng.digraph_to_dict(digraph)),
                            (["--simplified"],
                             ng.simplified_to_dict(ng.simplify(digraph)))):
        code, out, _ = run(capsys, "diagram", spec, "--format", "json", *flags)
        assert code == 0
        assert json.loads(out) == expected, flags


@pytest.mark.parametrize("argv", [
    ["solve", "Z2", "--brute-cap", "-5"],
    ["solve", "Z4", "--order-cap", "-3"],
    ["table", "Dih(Zn)", "--n", "2..3", "--order-cap", "-1"],
    ["diagram", "Dih(Z4)", "--order-cap", "-1"],
    ["verify", "Z5", "--order-cap", "-1"],
])
def test_negative_caps_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: must be at least 0, got {argv[-1]}" in err


def test_non_integer_cap_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "Z4", "--order-cap", "x"])
    assert exc.value.code == 2
    assert "argument --order-cap: invalid int value: 'x'" in capsys.readouterr().err


def test_zero_caps_accepted(capsys):
    code, out, _ = run(capsys, "solve", "Z4", "--order-cap", "0")
    assert code == 2
    assert "capped at order 0, group has order 4" in out
    code, out, _ = run(capsys, "solve", "Dih(Z5)", "--mode", "structure",
                       "--order-cap", "8")
    assert code == 2
    assert "capped at order 8" in out
    code, out, _ = run(capsys, "solve", "Z2", "--brute-cap", "0")
    assert code == 0
    assert "mode=structure" in out
    # orders below 2 are the solvers' to refuse, whatever the cap
    for cap in ("0", "1"):
        code, out, _ = run(capsys, "solve", "Z1", "--order-cap", cap)
        assert code == 2
        assert "generation games need a group of order at least 2" in out
    with pytest.raises(ValueError, match="order at least 2"):
        ng.solve("Z1", order_cap=0)


@pytest.mark.parametrize("argv", [
    ["diagram", "Dih(Z4)", "--brute-cap", "1"],
    ["verify", "Z5", "--brute-cap", "1"],
    # diagrams are drawn for GEN only
    ["diagram", "Dih(Z4)", "--game", "gen"],
    ["diagram", "Dih(Z4)", "--game", "dng"],
])
def test_brute_cap_only_where_it_acts(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


def test_diagram_bad_spec(capsys):
    code, _, err = run(capsys, "diagram", "Zx")
    assert code == 2
    assert "error" in err


def test_verify_explicit_specs(capsys):
    code, out, _ = run(capsys, "verify", "Z5", "Z4", "--game", "dng")
    assert code == 0
    assert "2 ok, 0 failed, 0 skipped" in out


def test_verify_out_of_scope(capsys):
    code, out, _ = run(capsys, "verify", "Z1")
    assert code == 2
    assert "skip" in out


def test_verify_rejects_non_abelian_part(capsys):
    code, _, err = run(capsys, "verify", "Dih(Z3)")
    assert code == 2
    assert "error: not a direct product of cyclic groups: Dih(Z3)" in err


def test_verify_rejects_specs_plus_suite(capsys):
    # as a plain command line and through argparse, refused before any run
    for argv in (["verify", "Z5", "--suite", "dng"],
                 ["verify", "Z5", "Z7", "--suite=all", "--format", "json"]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", "error: pass specs or --suite, not both\n")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "theorem", "--game", "dng"],
    ["verify", "--suite", "all", "--game", "gen"],
    ["verify", "--game", "dng"],  # the default suite
])
def test_verify_game_only_with_specs(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error: --game applies to specs, not to a suite" in err


def test_verify_dng_suite_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "dng", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exitCode"] == 0
    assert len(payload["records"]) == 6
    assert all(r["agree"] for r in payload["records"])


def test_verify_deficiency_suite_json(capsys):
    # every SMALL_CATALOG group, orders 13 to 16 included
    code, out, _ = run(capsys, "verify", "--suite", "deficiency",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["notes"] == []
    checks = payload["checks"]
    assert [c["name"] for c in checks] == ["deficiency-oracle"] * 29
    assert all(c["violations"] == [] for c in checks)


def test_verify_reports_a_wrong_prediction(capsys, monkeypatch):
    predict = ng.theory.predict_gen_dih
    monkeypatch.setattr(ng.theory, "predict_gen_dih",
                        lambda a: predict(a) + (a.spec_string == "Z4"))
    code, out, _ = run(capsys, "verify", "Z4", "Z3")
    assert code == 1
    assert out.splitlines() == [
        "FAIL Dih(Z4)  GEN  computed=*0 predicted=*1 d(Dih)=2 d(A)=1 frattini=ok",
        "ok   Dih(Z3)  GEN  *3 (predicted *3, d(Dih)=2, d(A)=1)",
        "verify: 1 ok, 1 failed, 0 skipped"]
    code, out, _ = run(capsys, "verify", "Z4", "Z3", "--format", "json")
    assert code == 1
    assert json.loads(out)["exitCode"] == 1


def test_verify_reports_a_failed_check(capsys, monkeypatch):
    monkeypatch.setitem(ng.theory._ODD_TYPES, 1, (1, 2, 0))
    code, out, _ = run(capsys, "verify", "--suite", "odd-lemmas")
    assert code == 1
    assert ("FAIL odd-case-pattern  Dih(Z5)  1 violations\n"
            "     - odd class 6 at deficiency 1 has type (1, 2, 1), expected (1, 2, 0)\n"
            in out)
    assert out.endswith("verify: 6 ok, 6 failed, 0 skipped\n")


def test_verify_capacity_exit(capsys):
    code, out, _ = run(capsys, "verify", "Z5xZ5", "--order-cap", "10")
    assert code == 2
    assert "skip" in out


def _notes(text):
    return [line.split(":")[0][len("skip "):] for line in text.splitlines()
            if re.match(r"skip \S+: ", line)]


def test_verify_notes_each_group_once(capsys):
    # one note per group a check suite cannot solve, in the order the
    # suites first meet it: even-types, odd-lemmas, then deficiency
    code, out, _ = run(capsys, "verify", "--suite", "all", "--order-cap", "10")
    assert code == 2
    assert _notes(out) == [
        "Z12", "Z14", "Z16", "Z2xZ6", "Dih(Z6)", "Dih(Z7)", "Dih(Z8)",
        "Dih(Z2xZ4)", "Dih(Z2xZ2xZ2)", "Dih(Z9)", "Dih(Z11)", "Dih(Z3xZ3)",
        "Z11", "Z13", "Z15"]
    assert out.endswith("verify: 43 ok, 0 failed, 31 skipped\n")


def test_verify_suite_builds_no_table_over_the_cap(capsys, monkeypatch):
    # The check suites build no table over the cap, and the even-types
    # suite takes its even-order groups from a constant.
    expected = run(capsys, "verify", "--suite", "all", "--order-cap", "10")
    support.refuse_builds_over(monkeypatch, 10)
    code, out, err = run(capsys, "verify", "--suite", "all", "--order-cap", "10")
    assert (code, out, err) == expected
    assert len(_notes(out)) == 15
    assert out.endswith("verify: 43 ok, 0 failed, 31 skipped\n")


def test_verify_even_types_notes_only_even_groups(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "even-types",
                       "--order-cap", "10")
    assert code == 2
    assert _notes(out) == ["Z12", "Z14", "Z16", "Z2xZ6", "Dih(Z6)", "Dih(Z7)",
                           "Dih(Z8)", "Dih(Z2xZ4)", "Dih(Z2xZ2xZ2)"]


def _count_lattices_and_solves(monkeypatch):
    """Count ``nimgen.theory``'s lattice builds by group label, and its
    solves by group label and game; the suites hand ``solve`` lattices."""
    import nimgen.theory

    lattices, solves = collections.Counter(), collections.Counter()
    build, solve = nimgen.theory.intersection_subgroups, nimgen.theory.solve

    def counting_build(g, *args, **kwargs):
        lattices[g.label] += 1
        return build(g, *args, **kwargs)

    def counting_solve(lat, variant, *args, **kwargs):
        solves[lat.group.label, variant] += 1
        return solve(lat, variant, *args, **kwargs)

    monkeypatch.setattr(nimgen.theory, "intersection_subgroups", counting_build)
    monkeypatch.setattr(nimgen.theory, "solve", counting_solve)
    return lattices, solves


def test_verify_all_solves_each_group_once(capsys, monkeypatch):
    lattices, solves = _count_lattices_and_solves(monkeypatch)
    code, _, _ = run(capsys, "verify", "--suite", "all")
    assert code == 0
    assert set(solves.values()) == {1}
    assert sum(solves.values()) == 44
    # one lattice per group, shared by both games and the Frattini check
    assert set(lattices.values()) == {1}
    assert sum(lattices.values()) == 42


def test_verify_family_builds_one_lattice_per_group(capsys, monkeypatch):
    lattices, solves = _count_lattices_and_solves(monkeypatch)
    assert run(capsys, "verify", "Z7", "--game", "dng")[0] == 0
    assert lattices == {"Dih(Z7)": 1, "Z7": 1}
    assert solves == {("Dih(Z7)", "DNG"): 1}


def test_verify_all_json_golden(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "all", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "verify_all.json").read_text()


def test_verify_all_joins_the_suites(capsys):
    def payload(suite):
        code, out, _ = run(capsys, "verify", "--suite", suite, "--format", "json")
        assert code == 0
        return json.loads(out)

    parts = {s: payload(s) for s in
             ("theorem", "dng", "even-types", "odd-lemmas", "deficiency")}
    assert payload("all") == {
        "records": parts["theorem"]["records"] + parts["dng"]["records"],
        "checks": [c for s in ("even-types", "odd-lemmas", "deficiency")
                   for c in parts[s]["checks"]],
        "notes": [],
        "exitCode": 0,
    }


def _child_env():
    """The environment of a child ``python -m nimgen`` that imports this
    checkout's nimgen."""
    src = str(Path(ng.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_broken_pipe_exits_quietly():
    # The read end is closed before the child starts, so its first write
    # fails: exit 2 as for an incomplete run, with no traceback.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "nimgen", "solve", "Z4"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=_child_env(), timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [
    ("solve", "Z100000"),
    ("solve", "Z400xZ400"),
    ("table", "Zn", "--n", "100000..100000"),
    ("diagram", "Z100000"),
    ("verify", "Z100000"),
    # the left factor is refused before the right one is read or built
    ("solve", "Z100000xtable:k4.tbl"),
    ("solve", "Z100000xDih(Dih(Z3))"),
    ("solve", "table:z300.tbl"),
    # the parts fit and the whole does not
    ("solve", "Z15xZ15"),
    ("solve", "Dih(Z150)"),
    ("solve", "Dih(table:z150.tbl)"),
])
def test_over_cap_builds_no_table(argv, capsys, monkeypatch, tmp_path):
    # Builders that refuse orders over the cap: no table over the cap is
    # built, and no table file's rows over it are parsed.
    import nimgen.groups

    for n in (150, 300):
        (tmp_path / f"z{n}.tbl").write_text(
            nimgen.groups.to_table_text(nimgen.groups.build_cyclic(n)), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    parse = nimgen.groups.parse_table_text

    def refusing_parse(text, label=""):
        if int(text.split(maxsplit=1)[0]) > 200:
            raise AssertionError("parse_table_text asked to parse a large table")
        return parse(text, label)

    monkeypatch.setattr(nimgen.groups, "parse_table_text", refusing_parse)
    support.refuse_builds_over(monkeypatch, 200)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "capped at order 200" in out + err


def test_table_file_header_is_checked_against_the_cap(tmp_path, capsys):
    # Only the header is parsed before the cap check: a file within the cap,
    # or one whose header is not an order, still gets the loader's error,
    # and a header over the cap is refused whatever the rows hold.
    files = {
        "rows.tbl": "3\n0 1 2\n1 1 0\n2 0 1\n",
        "header.tbl": "order 300\n",
        "short.tbl": "300\n0 1 2\n1 2 0\n2 0 1\n",
        "notperm.tbl": "300\n" + "0 " * 300 + "\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    expected = {
        "rows.tbl": "row 1 is not a permutation of 0..2",
        "header.tbl": "first line must be the group order, got 'order 300'",
        "short.tbl": "capped at order 200, group has order 300",
        "notperm.tbl": "capped at order 200, group has order 300",
    }
    for name, message in expected.items():
        code, out, _ = run(capsys, "solve", f"table:{tmp_path / name}")
        assert code == 2
        assert message in out, name
    # a file within the cap is read afresh on every run
    table = tmp_path / "k.tbl"
    specs = (f"table:{table}", f"Dih(table:{table})")
    for text, orders in (("2\n0 1\n1 0\n", [2, 4]),
                         ("3\n0 1 2\n1 2 0\n2 0 1\n", [3, 6])):
        table.write_text(text, encoding="utf-8")
        code, out, _ = run(capsys, "solve", *specs, "--format", "json")
        assert code == 0
        assert [r["order"] for r in json.loads(out)] == orders


@pytest.mark.parametrize("data", [b"\xff2\n0 1\n1 0\n",
                                  b"2\n0 1\n1 0\nname 0 \xff\n"])
def test_non_utf8_table_file_is_named(data, tmp_path, capsys):
    path = tmp_path / "bad.tbl"
    path.write_bytes(data)
    code, out, _ = run(capsys, "solve", f"table:{path}")
    assert code == 2
    assert f"ERROR  cannot read table file {path}: 'utf-8' codec" in out


def test_nested_dih_within_cap_is_built_and_refused(capsys):
    code, out, _ = run(capsys, "solve", "Z2xDih(Dih(Z3))")
    assert code == 2
    assert "Dih(Z3) is not abelian" in out


# Solve and table always compute: --cache is an unknown argument, and
# NIMGEN_CACHE is ignored.
@pytest.mark.parametrize("argv", [
    ["solve", "Z4", "--cache", "x.json"],
    ["table", "Zn", "--n", "2..3", "--cache", "x.json"],
    ["solve", "Z4", "--format", "json"],
])
def test_no_result_cache(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NIMGEN_CACHE", str(tmp_path / "env.json"))
    if "--cache" in argv:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --cache" in capsys.readouterr().err
    else:
        code, out, _ = run(capsys, *argv)
        monkeypatch.delenv("NIMGEN_CACHE")
        assert code == 0
        assert normalize_json(out) == normalize_json(run(capsys, *argv)[1])
    assert list(tmp_path.iterdir()) == []


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


@pytest.mark.parametrize("command", ["solve", "verify", "diagram"])
def test_long_digit_run_is_a_spec_error(capsys, command):
    # more digits than int() converts by default
    code, out, err = run(capsys, command, "Z" + "9" * 5000)
    assert code == 2
    assert "cyclic group order has too many digits (at position 1)" in out + err


@pytest.mark.parametrize("command", ["solve", "verify", "diagram", "table"])
@pytest.mark.parametrize("spec, message", [
    ("Dih(" * 600 + "Zn" + ")" * 600,
     "Dih nested more than 100 deep (at position 400)"),
    ("x".join(["Zn"] * 1000),
     "structure lattice capped at order 200, group has order 256"),
], ids=["deep", "long"])
def test_deep_and_long_specs_exit_2(capsys, command, spec, message):
    argv = ([command, spec, "--n", "2..2"] if command == "table"
            else [command, spec.replace("Zn", "Z2")])
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert message in out + err


# main builds its parser on the first call and reuses it, so no call may
# leave a trace in the next one made in the same process.
def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_verify_game_default_does_not_leak(capsys):
    # --game dng must not stay set for a suite run, which would then be
    # refused with "--game applies to specs"
    assert run(capsys, "verify", "Z7", "--game", "dng")[0] == 0
    code, out, err = run(capsys, "verify", "--suite", "theorem")
    fresh = subprocess.run([sys.executable, "-m", "nimgen", "verify", "--suite",
                            "theorem"], capture_output=True, text=True,
                           env=_child_env(), timeout=120)
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 0


def test_format_default_does_not_leak(capsys):
    assert run(capsys, "solve", "Dih(Z5)", "--format", "json")[0] == 0
    code, out, _ = run(capsys, "solve", "Dih(Z5)")
    assert code == 0
    assert out.startswith("Dih(Z5)  GEN  *3  order=10")


@pytest.mark.parametrize("argv, exit_code", [
    (["solve", "Z4", "--colour"], 2),
    (["--version"], 0),
    (["solve", "--help"], 0),
])
def test_main_works_after_argparse_exit(argv, exit_code, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == exit_code
    capsys.readouterr()
    code, out, _ = run(capsys, "solve", "Dih(Z5)", "--format", "json")
    assert code == 0
    assert normalize_json(out) == (GOLDEN / "solve_dihz5.json").read_text()


def test_argparse_error_after_a_call_is_captured(capsys):
    assert run(capsys, "solve", "Z4")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["solve", "Z4", "--format", "xml"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --format: invalid choice: 'xml'" in captured.err


# The argv shapes the benchmark workloads send.
PLAIN_ARGV = [
    ["solve", "Z4", "--game", "dng", "--format", "json"],
    ["solve", "Dih(Z3)", "--game", "gen", "--format", "json", "--mode", "brute",
     "--brute-cap", "6"],
    ["diagram", "Dih(Z3)", "--simplified", "--format", "json"],
    ["verify", "--suite", "dng", "--format", "json"],
    ["verify", "Z7", "--game", "dng", "--format", "json"],
    ["table", "Dih(Zn)", "--n", "2..3"],
]


def test_plain_command_lines_skip_argparse(tmp_path, capsys):
    table = tmp_path / "z3.tbl"
    table.write_text("3\n0 1 2\n1 2 0\n2 0 1\n", encoding="utf-8")
    argvs = PLAIN_ARGV + [["solve", f"table:{table}", "--game", "gen",
                           "--format", "json"]]
    assert all(_parse_plain(argv) is not None for argv in argvs)
    build_parser.cache_clear()
    for argv in argvs:
        assert run(capsys, *argv)[0] == 0, argv
    assert build_parser.cache_info().currsize == 0
    script = ("import contextlib, io, sys\n"
              "import nimgen.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    codes = [nimgen.cli.main(a) for a in {PLAIN_ARGV!r}]\n"
              "print(codes, sorted({'argparse', 'gettext'} & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=_child_env(), timeout=120)
    assert proc.stdout == f"{[0] * len(PLAIN_ARGV)} []\n", proc.stderr


# Tokens of every kind the fast path must get right or decline: commands,
# exact and abbreviated options, --opt=value, help and version flags,
# choices valid and not, caps argparse accepts that the fast path need not,
# and specs that are empty or look like options.
GOOD_VALUES = {"--game": ["gen", "dng"], "--mode": ["auto", "brute", "structure"],
               "--format": ["text", "json", "csv", "dot"],
               "--style": ["full", "plain"], "--simplified": [],
               "--suite": ["theorem", "all"], "--n": ["2..5"],
               "--brute-cap": ["0", "16"], "--order-cap": ["0", "16"]}
OPTIONS_OF = {
    "solve": ["--game", "--mode", "--format", "--brute-cap", "--order-cap"],
    "diagram": ["--format", "--style", "--simplified", "--order-cap"],
    "verify": ["--game", "--suite", "--format", "--order-cap"],
    "table": ["--n", "--game", "--mode", "--brute-cap", "--order-cap"],
}
VALUES = ["xml", "0", "16", "-1", "+5", "5_0", "\u00b2", "x", "", "-Z4", "9" * 5000]
SPECS = ["Z4", "Dih(Z5)", "Dih(Zn)", "", "-Z4"]
TOKENS = list(OPTIONS_OF) + list(GOOD_VALUES) + VALUES + SPECS + [
    "--form", "--gam", "--simp", "--format=json", "-h", "--help", "--version",
    "--", "-"]


def _option_and_value(option):
    """The option with a value that is often valid, sometimes not, and
    sometimes missing."""
    if not GOOD_VALUES[option]:
        return st.just([option])
    return st.sampled_from(GOOD_VALUES[option] * 6 + VALUES + [None]).map(
        lambda v: [option] if v is None else [option, v])


def _command_line(command):
    """The command, its positionals and its options, each option at most once;
    a drawn option may belong to another command."""
    options = st.sampled_from(OPTIONS_OF[command] * 4 + list(GOOD_VALUES))
    return st.tuples(
        st.just([command]), st.lists(st.sampled_from(SPECS), max_size=2),
        st.lists(options.flatmap(_option_and_value), max_size=4,
                 unique_by=lambda chunk: chunk[0]),
    ).map(lambda parts: parts[0] + parts[1] + sum(parts[2], []))


@settings(max_examples=500, deadline=None)
@example(["table", "Z4", "--n"], [])
@example(["table", "Z4", "--n", "-Z4"], [])
@example(["solve", "Z4", "--brute-cap", "9" * 5000], [])
@example(["verify", "--suite", "all", "--format", "json"], [])
@given(st.sampled_from(list(OPTIONS_OF)).flatmap(_command_line),
       st.lists(st.tuples(st.integers(0, 8), st.sampled_from(TOKENS)), max_size=1))
def test_plain_parse_equals_argparse(argv, inserts):
    # Whenever the fast path returns a namespace, argparse parses the same
    # command line without exiting and gives equal attributes.
    for i, token in inserts:
        argv.insert(i, token)
    fast = _parse_plain(argv)
    if fast is not None:
        assert vars(fast) == vars(build_parser().parse_args(argv))
