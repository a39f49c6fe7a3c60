import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nimgen as ng
from nimgen.groups import (Cyclic, Dih, Product, extend_subgroup, span,
                           spec_order, subgroup_joins)

import support


def test_cyclic_element_orders():
    g = ng.build_cyclic(4)
    assert g.order == 4
    assert [ng.element_order(g, i) for i in range(4)] == [1, 4, 2, 4]


def test_cyclic_rejects_nonpositive():
    with pytest.raises(ValueError):
        ng.build_cyclic(0)
    with pytest.raises(ValueError):
        ng.build_cyclic(-3)


def test_trivial_group():
    g = ng.build_cyclic(1)
    assert g.order == 1
    assert g.mul == ((0,),)


def test_direct_product_orders():
    g = ng.direct_product(ng.build_cyclic(2), ng.build_cyclic(3))
    assert g.order == 6
    assert ng.is_abelian(g)
    assert sorted(ng.element_order(g, i) for i in range(6)) == [1, 2, 3, 3, 6, 6]


def test_identity_is_index_zero():
    for spec in ("Z5", "Z2xZ3", "Dih(Z4)"):
        g = support.group(spec)
        assert all(g.mul[0][k] == k == g.mul[k][0] for k in range(g.order))


def test_dihedralize_shape():
    g = ng.dihedralize(ng.build_cyclic(4))
    assert g.order == 8
    assert g.label == "Dih(Z4)"
    assert not ng.is_abelian(g)
    # every element outside the abelian part is an involution
    assert all(ng.element_order(g, i) == 2 for i in range(4, 8))


def test_dihedralize_of_elementary_two_group_is_abelian():
    g = ng.dihedralize(support.group("Z2xZ2xZ2"))
    assert g.order == 16
    assert ng.is_abelian(g)
    assert all(ng.element_order(g, i) == 2 for i in range(1, 16))


def test_dihedralize_requires_abelian():
    with pytest.raises(ng.NonAbelianError):
        ng.dihedralize(support.group("Dih(Z3)"))


# Beyond the catalog: an elementary abelian group, the largest Dih(A)
# under the default order cap, and non-abelian direct products.
BUILDER_SPECS = ng.EXTENDED_CATALOG + (
    "Z2xZ2xZ2xZ2xZ2xZ2xZ2", "Dih(Z99)", "Dih(Z2xZ2xZ2xZ2xZ6)",
    "Z3xDih(Z4)", "Dih(Z3)xDih(Z3)",
)


@pytest.mark.parametrize("spec", BUILDER_SPECS)
def test_builders_match_reference_loops(spec):
    g, want = ng.build_group(spec), support.reference_group(spec)
    assert (g.mul, g.inv, g.names, g.label) == (want.mul, want.inv, want.names, want.label)
    assert ng.is_abelian(g) == support.reference_is_abelian(g)


def test_inverses():
    # Parsed tables included: the parser reads each inverse off its row
    # alone, so this checks that it is two-sided.
    specs = ("Z6", "Dih(Z5)", "Z2xZ4", "A4", "S4", "A5")
    groups = [support.group(spec) for spec in specs]
    groups += [support.relabelled(support.group("Dih(Z3xZ6)"), seed) for seed in (1, 2)]
    for g in groups:
        assert all(g.mul[i][g.inv[i]] == 0 == g.mul[g.inv[i]][i] for i in range(g.order))


def test_mask_helpers_round_trip():
    assert ng.mask_of([0, 3]) == 0b1001
    assert list(ng.iter_mask(0b1001)) == [0, 3]


@given(st.sets(st.integers(min_value=0, max_value=15)))
def test_mask_round_trip_property(indices):
    assert set(ng.iter_mask(ng.mask_of(indices))) == indices


def test_generated_subgroup_cyclic():
    g = support.group("Z6")
    assert ng.generated_subgroup(g, ng.mask_of([2])) == ng.mask_of([0, 2, 4])
    assert ng.generated_subgroup(g, ng.mask_of([1])) == g.full_mask
    # identity is always included
    assert ng.generated_subgroup(g, 0) == 1


def test_generated_subgroup_dihedral():
    g = support.group("Dih(Z4)")
    r, s = 1, 4
    assert ng.generated_subgroup(g, ng.mask_of([r])) == ng.mask_of([0, 1, 2, 3])
    assert ng.generated_subgroup(g, ng.mask_of([s])) == ng.mask_of([0, s])
    assert ng.generated_subgroup(g, ng.mask_of([r, s])) == g.full_mask
    assert ng.generated_subgroup(g, ng.mask_of([r])) != g.full_mask


# A4 has non-normal subgroups, where a union of cosets of one of them need
# not be closed.
@given(st.integers(min_value=0, max_value=(1 << 12) - 1))
def test_generated_subgroup_is_closed_and_monotone(bits):
    for g in (support.group("Dih(Z5)"), support.group("A4")):
        seed = bits & g.full_mask
        got = ng.generated_subgroup(g, seed)
        assert got & (seed | 1) == (seed | 1)
        for x in ng.iter_mask(got):
            for y in ng.iter_mask(got):
                assert got & (1 << g.mul[x][y])
        # closing again changes nothing
        assert ng.generated_subgroup(g, got) == got


def test_span_matches_reference_closure():
    groups = [support.group(s) for s in ng.EXTENDED_CATALOG + ("Z1", "A4", "S4", "A5")]
    groups.append(support.relabelled(support.group("Dih(Z3xZ6)"), 3))
    rng = random.Random(15)
    for g in groups:
        n = g.order
        # Seed 0, bits at and above the order, then a few random elements
        # (mostly a proper subgroup) and random subsets.
        seeds = [0, g.full_mask, (0b101 << n) | 2]
        seeds += [ng.mask_of(rng.randrange(n) for _ in range(k)) for k in (1, 2, 2, 3)]
        seeds += [rng.getrandbits(n + 2) for _ in range(4)]
        for seed in seeds:
            mask, elems, gens = span(g, seed)
            assert mask == support.reference_closure(g, seed), (g.label, seed)
            assert sorted(elems) == list(ng.iter_mask(mask))
            # Greedy in index order: each generator is the least element of
            # the seed outside the closure of the earlier ones.
            closed = 1
            for s in gens:
                rest = seed & g.full_mask & ~closed
                assert s == (rest & -rest).bit_length() - 1
                closed = support.reference_closure(g, closed | 1 << s)
            assert closed == mask
        # Extending H = G by any element gives G back.
        full, elems, gens = span(g, g.full_mask)
        got = extend_subgroup(g, full, elems, gens, n - 1)
        assert got[:2] == (g.full_mask, list(range(n))), g.label


def check_joins(g, subgroups):
    """``joins(h)`` for each subgroup h, in the given order, against
    ``support.reference_closure``."""
    joins = subgroup_joins(g)
    for h in subgroups:
        got = joins(h)
        assert joins(h) is got  # memoized per subgroup
        covered = 0
        for k, xs in got.items():
            assert xs and not xs & (covered | h)  # the masks partition G \ h
            covered |= xs
            for x in ng.iter_mask(xs):
                assert support.reference_closure(g, h | (1 << x)) == k
        assert covered == g.full_mask & ~h


# A4 and S4 have non-normal subgroups whose double cosets HxH span several
# left cosets xH.
@pytest.mark.parametrize("spec", ["Z12", "Dih(Z6)", "Z2xZ2xZ2", "A4", "S4"])
def test_subgroup_joins_match_closures(spec):
    g = support.group(spec)
    check_joins(g, ng.all_subgroups(g))


# Taken largest first, most subgroups are asked for before any join reaches
# them, so they get a greedy generating tuple.
@pytest.mark.parametrize("spec, seed", [("A4", None), ("S4", None),
                                        ("Dih(Z3xZ6)", 3)])
def test_subgroup_joins_of_unreached_subgroups(spec, seed):
    g = support.group(spec)
    if seed is not None:
        g = support.relabelled(g, seed)
    check_joins(g, reversed(ng.all_subgroups(g)))


def test_parse_simple_specs():
    assert ng.parse_group_spec("Z4") == Cyclic(4)
    assert ng.parse_group_spec("Dih(Z3xZ9)") == Dih(Product(Cyclic(3), Cyclic(9)))
    assert ng.parse_group_spec(" Dih( Z3 x Z9 ) ") == Dih(Product(Cyclic(3), Cyclic(9)))
    assert ng.parse_group_spec("Z2xZ3xZ4") == Product(Product(Cyclic(2), Cyclic(3)), Cyclic(4))


@pytest.mark.parametrize("bad", ["", "Z0", "Zx", "Dih(Z3", "Z3)", "Dih()", "xZ3", "Z3x"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ng.SpecParseError) as exc:
        ng.parse_group_spec(bad)
    assert exc.value.position >= 0


def test_spec_order_is_the_built_order():
    for spec in ng.EXTENDED_CATALOG:
        assert spec_order(ng.parse_group_spec(spec)) == (
            support.group(spec).order, True), spec


@pytest.mark.parametrize("spec, expected", [
    # a Dih inside a Dih need not be abelian: twice its inner order bounds it
    ("Dih(Dih(Z3))", (12, False)),
    ("Z2xDih(Z5xDih(Z3))", (120, False)),
    ("Dih(Z2xZ2)xZ3", (24, True)),
    # a table file counts its header, or 1 if the header is not an order
    ("Dih(table:h300.tbl)", (600, False)),
    ("Z2xtable:missing.tbl", (2, False)),
])
def test_spec_order_reads_no_table(spec, expected, monkeypatch, tmp_path):
    (tmp_path / "h300.tbl").write_text("300\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    support.refuse_builds_over(monkeypatch, 0)
    assert spec_order(ng.parse_group_spec(spec)) == expected


def test_build_group_accepts_spec_or_string():
    a = ng.build_group("Dih(Z6)")
    b = ng.build_group(ng.parse_group_spec("Dih(Z6)"))
    assert a.mul == b.mul


def test_element_names():
    g = support.group("Z4")
    assert [g.names[i] for i in range(4)] == ["e", "g", "g^2", "g^3"]
    d = support.group("Dih(Z3)")
    assert d.names[0] == "e"
    assert d.names[3] == "x"
    assert d.names[4] == "x·g"


# Klein four-group written with its identity at file index 2; loading must
# re-index so the identity lands at 0.
K4_SHIFTED = """\
4
2 3 0 1
3 2 1 0
0 1 2 3
1 0 3 2
name 2 e
name 0 a
name 1 b
name 3 c
"""


def test_table_file_reindexes_identity(tmp_path):
    path = tmp_path / "k4.tbl"
    path.write_text(K4_SHIFTED, encoding="utf-8")
    g = ng.load_table_file(str(path))
    assert g.order == 4
    assert all(g.mul[0][k] == k for k in range(4))
    assert g.names[0] == "e"
    assert sorted(g.names[i] for i in range(1, 4)) == ["a", "b", "c"]
    assert all(g.mul[i][i] == 0 for i in range(4))
    assert ng.is_abelian(g)


def test_table_spec_via_parser(tmp_path):
    path = tmp_path / "k4.tbl"
    path.write_text(K4_SHIFTED, encoding="utf-8")
    g = ng.build_group(f"table:{path}")
    assert g.order == 4
    lat = ng.intersection_subgroups(g)
    assert ng.structure_nim(g, lat).game_nim == 1


def test_table_default_names_use_file_indices(tmp_path):
    lines = ["4", "2 3 0 1", "3 2 1 0", "0 1 2 3", "1 0 3 2"]
    path = tmp_path / "anon.tbl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    g = ng.load_table_file(str(path))
    # file element 2 is the identity and keeps its file-derived name
    assert g.names[0] == "g2"


# Latin square with two-sided identity but a failing associativity triple:
# (1*1)*2 = 2 while 1*(1*2) = 4.
NONASSOC5 = """\
5
0 1 2 3 4
1 0 3 4 2
2 3 4 0 1
3 4 1 2 0
4 2 0 1 3
"""


def test_table_rejects_nonassociative(tmp_path):
    path = tmp_path / "loop.tbl"
    path.write_text(NONASSOC5, encoding="utf-8")
    with pytest.raises(ng.TableFormatError, match="associat"):
        ng.load_table_file(str(path))


@pytest.mark.parametrize("text,hint", [
    ("2\n0 1\n", "row"),                      # missing a row
    ("2\n0 1\n0 1\n", "column"),              # repeated row breaks a column
    ("2\n0 0\n1 1\n", "row"),                 # duplicate inside a row
    ("2\n0 2\n1 0\n", "outside"),             # entry out of range
    ("3\n1 0 2\n0 2 1\n2 1 0\n", "identity"), # Latin but no identity
    ("x\n", "order"),                         # unreadable order line
])
def test_table_rejects_malformed(tmp_path, text, hint):
    path = tmp_path / "bad.tbl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ng.TableFormatError, match=hint):
        ng.load_table_file(str(path))


def test_table_missing_file():
    with pytest.raises(ng.TableFormatError):
        ng.load_table_file("/nonexistent/nowhere.tbl")


@pytest.mark.parametrize("data", [b"\xff2\n0 1\n1 0\n",
                                  b"2\n0 1\n1 0\nname 0 \xff\n"])
def test_non_utf8_table_file_is_a_table_format_error(data, tmp_path):
    path = tmp_path / "bad.tbl"
    path.write_bytes(data)
    message = f"cannot read table file {path}: 'utf-8' codec"
    for load in (ng.load_table_file, lambda p: ng.build_group(f"table:{p}")):
        with pytest.raises(ng.TableFormatError) as exc:
            load(path)
        assert str(exc.value).startswith(message)
    if data.startswith(b"\xff"):
        with pytest.raises(ng.TableFormatError, match="cannot read table file"):
            ng.groups.table_file_order(path)


def test_table_round_trip_keeps_every_catalog_group():
    for spec in ng.EXTENDED_CATALOG:
        g = support.group(spec)
        h = ng.parse_table_text(ng.to_table_text(g), label=g.label)
        assert h == g, spec


def relabelled_text(g, perm, named):
    """Table file text of ``g`` with element i written as file index perm[i]."""
    n = g.order
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(g.mul):
        for j, k in enumerate(row):
            rows[perm[i]][perm[j]] = perm[k]
    lines = [str(n)] + [" ".join(map(str, r)) for r in rows]
    if named:
        lines += [f"name {perm[i]} {g.names[i]}" for i in range(n)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("spec", ["A4", "Dih(Z3xZ6)"])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("named", [False, True])
def test_parse_relabelled_table(spec, seed, named):
    g = support.group(spec)
    n = g.order
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    assert perm[0] != 0  # the identity sits away from index 0 in the file
    h = ng.parse_table_text(relabelled_text(g, perm, named), label="t")
    # The parser swaps file indices 0 and perm[0]; element k of h is file
    # element swap[k], which is element src[k] of g.
    swap = list(range(n))
    swap[0], swap[perm[0]] = perm[0], 0
    old_of = {p: i for i, p in enumerate(perm)}
    src = [old_of[f] for f in swap]
    new_of = {i: k for k, i in enumerate(src)}
    assert h.mul == tuple(tuple(new_of[g.mul[i][j]] for j in src) for i in src)
    assert h.inv == tuple(new_of[g.inv[i]] for i in src)
    assert h.names == (tuple(g.names[i] for i in src) if named
                       else tuple(f"g{f}" for f in swap))
    assert h.label == "t"


# Each crafted table trips one check; where it breaks several, the first in
# the parser's order names it.
@pytest.mark.parametrize("text,message", [
    ("\n  \n", "empty table file"),
    ("x\n", "first line must be the group order, got 'x'"),
    ("0\n", "group order must be at least 1, got 0"),
    ("2\n0 1\n", "expected 2 table rows, found 1"),
    ("2\n0 1\n1\n", "row 1 has 1 entries, expected 2"),
    ("2\n0 1\n1 a\n", "row 1 contains a non-integer entry"),
    ("3\n0 1 2\n1 7 -1\n2 0 1\n", "entry (1, 1) is 7, outside 0..2"),
    ("3\n0 1 2\n1 2 0\n-2 0 1\n", "entry (2, 0) is -2, outside 0..2"),
    ("3\n0 1 9\n1 2\n2 0 1\n", "entry (0, 2) is 9, outside 0..2"),
    ("2\n0 1\n1 0\nfoo bar\n", "unrecognized trailing line: 'foo bar'"),
    ("2\n0 0\n1 1\nfoo\n", "unrecognized trailing line: 'foo'"),
    ("2\n0 1\n1 0\nname x a\n", "bad name index in line: 'name x a'"),
    ("2\n0 1\n1 0\nname 2 a\n", "name index 2 outside 0..1"),
    ("3\n0 1 2\n1 1 0\n2 0 1\n", "row 1 is not a permutation of 0..2"),
    ("3\n0 0 2\n0 1 2\n2 0 1\n", "row 0 is not a permutation of 0..2"),
    ("3\n0 1 2\n1 2 0\n1 2 0\n", "column 0 is not a permutation of 0..2"),
    ("3\n1 0 2\n0 2 1\n2 1 0\n", "table has no two-sided identity element"),
    # 2*3 = 0 but 3*2 = 1, yet associativity fails first.  Tables that pass
    # it have two-sided inverses: i*j = e makes j*i idempotent,
    # (j*i)(j*i) = j(ij)i = j*i, and with permutation rows only e is.
    (NONASSOC5, "associativity fails for triple (1, 1, 2): (1*1)*2 = 2 but 1*(1*2) = 4"),
])
def test_table_error_messages(text, message):
    with pytest.raises(ng.TableFormatError) as exc:
        ng.parse_table_text(text)
    assert str(exc.value) == message


def test_table_rejects_nonassociative_above_order_64():
    # Z_n with one intercalate swapped is still a Latin square with
    # identity 0, but no longer associative
    for n in (66, 98, 198):
        rows = [[(i + j) % n for j in range(n)] for i in range(n)]
        h = n // 2
        rows[1][1], rows[1][1 + h] = rows[1][1 + h], rows[1][1]
        rows[1 + h][1], rows[1 + h][1 + h] = rows[1 + h][1 + h], rows[1 + h][1]
        text = f"{n}\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"
        with pytest.raises(ng.TableFormatError, match="associativity fails"):
            ng.parse_table_text(text)



@pytest.mark.parametrize("text, expected", [
    ("", "empty table file"),
    ("\n \n", "empty table file"),
    ("order 3\n", "first line must be the group order, got 'order 3'"),
    ("0\n", "group order must be at least 1, got 0"),
    ("-2\n", "group order must be at least 1, got -2"),
    ("\n  2 \n0 1\n1 0\n", 2),
    ("2\r\n0 1\r\n1 0\r\n", 2),
    ("\x0c\n2\n0 1\n1 0\n", 2),
    # line breaks that str.splitlines knows but file reading does not
    ("2\x0c0 1\n1 0\n", 2),
    ("300\n0 1\n", 300),
])
def test_table_file_order_reads_the_loaders_header(text, expected, tmp_path):
    # The header alone gives the order the loader reads, or its error.
    path = tmp_path / "t.tbl"
    path.write_bytes(text.encode("utf-8"))
    try:
        got = ng.groups.table_file_order(path)
    except ng.TableFormatError as exc:
        got = str(exc)
    assert got == expected
    if isinstance(expected, str):
        with pytest.raises(ng.TableFormatError) as exc:
            ng.load_table_file(path)
        assert str(exc.value) == expected
