import pytest
from hypothesis import given
from hypothesis import strategies as st

import nimgen as ng
from nimgen.groups import Cyclic, Dih, Product, subgroup_joins

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


def test_inverses():
    for spec in ("Z6", "Dih(Z5)", "Z2xZ4"):
        g = support.group(spec)
        assert all(g.mul[i][g.inv[i]] == 0 for i in range(g.order))


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
    assert ng.is_generating(g, ng.mask_of([r, s]))
    assert not ng.is_generating(g, ng.mask_of([r]))


@given(st.integers(min_value=0, max_value=(1 << 10) - 1))
def test_generated_subgroup_is_closed_and_monotone(seed):
    g = support.group("Dih(Z5)")
    got = ng.generated_subgroup(g, seed)
    assert got & (seed | 1) == (seed | 1)
    for x in ng.iter_mask(got):
        for y in ng.iter_mask(got):
            assert got & (1 << g.mul[x][y])
    # closing again changes nothing
    assert ng.generated_subgroup(g, got) == got


def check_joins(g, subgroups):
    """``joins(h)`` for each subgroup h, in the given order, against
    ``generated_subgroup``."""
    joins = subgroup_joins(g)
    for h in subgroups:
        got = joins(h)
        assert joins(h) is got  # memoized per subgroup
        covered = 0
        for k, xs in got.items():
            assert xs and not xs & (covered | h)  # the masks partition G \ h
            covered |= xs
            for x in ng.iter_mask(xs):
                assert ng.generated_subgroup(g, h | (1 << x)) == k
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


def test_canonical_spec_sorts_factors():
    assert ng.canonical_spec(ng.parse_group_spec("Z9xZ3")) == "Z3xZ9"
    assert ng.canonical_spec(ng.parse_group_spec("Dih(Z9xZ3xZ2)")) == "Dih(Z2xZ3xZ9)"
    assert ng.canonical_spec(ng.parse_group_spec("Z4")) == "Z4"
    nested = Product(Product(Cyclic(3), Cyclic(2)), Cyclic(2))
    assert ng.canonical_spec(nested) == "Z2xZ2xZ3"


def test_build_group_accepts_spec_or_string():
    a = ng.build_group("Dih(Z6)")
    b = ng.build_group(ng.parse_group_spec("Dih(Z6)"))
    assert a.mul == b.mul


def test_element_names():
    g = support.group("Z4")
    assert [g.name_of(i) for i in range(4)] == ["e", "g", "g^2", "g^3"]
    d = support.group("Dih(Z3)")
    assert d.name_of(0) == "e"
    assert d.name_of(3) == "x"
    assert d.name_of(4) == "x·g"


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
    assert g.name_of(0) == "e"
    assert sorted(g.name_of(i) for i in range(1, 4)) == ["a", "b", "c"]
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
    assert g.name_of(0) == "g2"


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


def test_table_round_trip_keeps_every_catalog_group():
    for spec in ng.EXTENDED_CATALOG:
        g = support.group(spec)
        h = ng.parse_table_text(ng.to_table_text(g), label=g.label)
        assert h == g, spec


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
