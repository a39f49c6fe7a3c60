import csv
import io
import json
from pathlib import Path

import pytest

import nimgen as ng
from nimgen import __version__
from nimgen.cli import main

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
    for text in ("5..3", "5..4"):
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


def test_diagram_rejects_dng(capsys):
    code, _, err = run(capsys, "diagram", "--game", "dng", "Dih(Z4)")
    assert code == 2
    assert "achievement" in err


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


@pytest.mark.parametrize("argv", [["diagram", "Dih(Z4)"], ["verify", "Z5"]])
def test_brute_cap_only_where_it_acts(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--brute-cap", "1"])
    assert exc.value.code == 2
    assert "--brute-cap" in capsys.readouterr().err


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
    code, _, err = run(capsys, "verify", "Z5", "--suite", "dng")
    assert code == 2
    assert "not both" in err


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


def test_verify_capacity_exit(capsys):
    code, out, _ = run(capsys, "verify", "Z5xZ5", "--order-cap", "10")
    assert code == 2
    assert "skip" in out


@pytest.mark.parametrize("argv", [
    ("solve", "Z100000"),
    ("solve", "Z400xZ400"),
    ("table", "Zn", "--n", "100000..100000"),
    ("diagram", "Z100000"),
    ("verify", "Z100000"),
    # a table file counts the order on its first line, or 1 if it cannot
    # be read; a Dih inside a Dih twice its inner bound
    ("solve", "Z100000xtable:k4.tbl"),
    ("solve", "Z100000xDih(Dih(Z3))"),
    ("solve", "table:z300.tbl"),
])
def test_over_cap_builds_no_table(argv, capsys, monkeypatch, tmp_path):
    # Builders that refuse large results: a spec over the order cap must be
    # rejected from the spec alone, before any Cayley table is built or a
    # table file's rows are parsed.
    import nimgen.groups
    import nimgen.theory

    (tmp_path / "z300.tbl").write_text(
        nimgen.groups.to_table_text(nimgen.groups.build_cyclic(300)), encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    def refusing_parse(text, label=""):
        raise AssertionError("parse_table_text asked to parse a table")

    monkeypatch.setattr(nimgen.groups, "parse_table_text", refusing_parse)

    def refusing(build, order_of):
        def wrapper(*groups):
            if order_of(*groups) > 1000:
                raise AssertionError(f"{build.__name__} asked for a large table")
            return build(*groups)
        return wrapper

    for module in (nimgen.groups, nimgen.theory):
        for name, order_of in (("build_cyclic", lambda n: n),
                               ("direct_product", lambda g, h: g.order * h.order),
                               ("dihedralize", lambda a: 2 * a.order)):
            monkeypatch.setattr(module, name,
                                refusing(getattr(nimgen.groups, name), order_of))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "capped at order 200" in out + err


def test_table_file_header_is_checked_against_the_cap(tmp_path, capsys):
    # Only the header is read before the cap check: a file within the cap,
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
        "short.tbl": "capped at order 200, spec declares order at least 300",
        "notperm.tbl": "capped at order 200, spec declares order at least 300",
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

