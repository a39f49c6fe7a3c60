import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import nimgen as ng
from nimgen.groups import (Cyclic, Dih, Product, TableFile, extend_subgroup,
                           normal_closure, span, subgroup_walk)

import support


def test_cyclic_element_orders():
    g = ng.build_cyclic(4)
    assert g.order == 4
    assert [ng.generated_subgroup(g, 1 << i).bit_count() for i in range(4)] == [1, 4, 2, 4]


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
    orders = sorted(ng.generated_subgroup(g, 1 << i).bit_count() for i in range(6))
    assert orders == [1, 2, 3, 3, 6, 6]


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
    assert all(ng.generated_subgroup(g, 1 << i).bit_count() == 2 for i in range(4, 8))


def test_dihedralize_of_elementary_two_group_is_abelian():
    g = ng.dihedralize(support.group("Z2xZ2xZ2"))
    assert g.order == 16
    assert ng.is_abelian(g)
    assert all(ng.generated_subgroup(g, 1 << i).bit_count() == 2 for i in range(1, 16))


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


def test_normal_closure_matches_reference():
    # conjugation reads g.inv, so relabelled tables permute the inverses
    # too; in S4, Dih(Z3xZ6) and Dih(Z4)xDih(Z4) some single elements need
    # two or more conjugates added to their span
    groups = [support.group(s) for s in ("A4", "S4", "Dih(Z3xZ6)", "Dih(Z4)xDih(Z4)")]
    groups.append(support.heisenberg(3))
    groups += [support.relabelled(g, 1) for g in groups]
    rng = random.Random(35)
    for g in groups:
        gens = span(g, g.full_mask)[2]
        seeds = [1 << x for x in range(g.order)]
        seeds += [rng.getrandbits(g.order) for _ in range(5)]
        for seed in seeds:
            mask, elems, k_gens = normal_closure(g, seed, gens)
            assert mask == support.reference_normal_closure(g, seed), (g.label, seed)
            assert sorted(elems) == list(ng.iter_mask(mask))
            assert support.reference_closure(g, ng.mask_of(k_gens)) == mask


def check_joins(g):
    """``subgroup_walk`` against a breadth-first walk over
    ``support.reference_closure`` and against ``support.reference_subgroups``."""
    walk = subgroup_walk(g)
    sizes = [h.bit_count() for h, _, _ in walk]
    assert sizes == sorted(sizes, reverse=True)  # largest first
    assert sorted(h for h, _, _ in walk) == sorted(support.reference_subgroups(g))
    ref_joins = {h: {support.reference_closure(g, h | 1 << x)
                     for x in ng.iter_mask(g.full_mask & ~h)}
                 for h, _, _ in walk}
    ref_depth, frontier = {1: 0}, [1]
    for h in frontier:
        for k in ref_joins[h]:
            if k not in ref_depth:
                ref_depth[k] = ref_depth[h] + 1
                frontier.append(k)
    for h, d, joins in walk:
        assert joins == ref_joins[h], (g.label, h)
        assert d == ref_depth[h], (g.label, h)
    assert walk[0][:2] == (g.full_mask, ng.deficiency_table(
        ng.intersection_subgroups(g)).d_g)


# A4 and S4 have non-normal subgroups whose double cosets HxH span several
# left cosets xH.  Z16 finds joins of composite index by their product
# size, the Dih(A) here have dihedral joins of composite index, and in
# Dih(Z3)xDih(Z3) some lookups miss and fall back to a closure.
@pytest.mark.parametrize("spec", ["Z12", "Dih(Z6)", "Z2xZ2xZ2", "A4", "S4", "Z16",
                                  "Dih(Z8)", "Dih(Z9)", "Dih(Z2xZ4)", "Dih(Z3)xDih(Z3)"])
def test_subgroup_joins_match_closures(spec):
    check_joins(support.group(spec))


def test_subgroup_joins_of_heisenberg():
    check_joins(support.heisenberg(3))


# The walk starts from the trivial subgroup alone, so no subgroup is left to
# a greedy generating tuple: each one is a join of a subgroup one level below
# it, and d(H) is never more than the tuple ``span`` builds for H.
@pytest.mark.parametrize("spec, seed", [("A4", None), ("S4", None),
                                        ("Dih(Z3xZ6)", 3), ("Dih(Z9)", 2),
                                        ("Dih(Z3)xDih(Z3)", 2)])
def test_subgroup_joins_of_unreached_subgroups(spec, seed):
    g = support.group(spec)
    if seed is not None:
        g = support.relabelled(g, seed)
    check_joins(g)
    walk = subgroup_walk(g)
    depth = {h: d for h, d, _ in walk}
    reached = {1} | {k for h, d, joins in walk for k in joins
                     if depth[k] == d + 1}
    assert reached == set(support.reference_subgroups(g))
    for h, d, _ in walk:
        assert d <= len(span(g, h)[2]), (g.label, h)


def test_parse_simple_specs():
    assert ng.parse_group_spec("Z4") == Cyclic(4)
    assert ng.parse_group_spec("Dih(Z3xZ9)") == Dih(Product((Cyclic(3), Cyclic(9))))
    assert ng.parse_group_spec(" Dih( Z3 x Z9 ) ") == Dih(Product((Cyclic(3), Cyclic(9))))
    assert ng.parse_group_spec("Z2xZ3xZ4") == Product((Cyclic(2), Cyclic(3), Cyclic(4)))
    assert ng.parse_group_spec("Dih(Z2xZ3)xZ5") == Product(
        (Dih(Product((Cyclic(2), Cyclic(3)))), Cyclic(5)))


EXPECTED_ATOM = "expected 'Z<n>', 'Dih(...)' or 'table:<path>'"


@pytest.mark.parametrize("bad, message, position", [
    pytest.param(bad, message, position, id=bad) for bad, message, position in [
        ("", EXPECTED_ATOM, 0),
        ("xZ3", EXPECTED_ATOM, 0),
        ("Dih()", EXPECTED_ATOM, 4),
        ("Z3x", EXPECTED_ATOM, 3),
        ("Z0", "cyclic group order must be at least 1", 1),
        ("Zx", "expected digits after 'Z'", 1),
        ("Dih(Z3", "expected ')'", 6),
        ("Z3)", "unexpected trailing input", 2),
        ("Dih Z3", "expected '(' after 'Dih'", 4),
        ("Dih", "expected '(' after 'Dih'", 3),
        ("table:", "empty path after 'table:'", 6),
        # only ASCII digits: int() would take the Arabic-Indic and the
        # fullwidth three, and str.isdigit() the superscript two
        ("Z\u00b2", "expected digits after 'Z'", 1),
        ("Z\u0663", "expected digits after 'Z'", 1),
        ("Dih(Z3xZ\uff13)", "expected digits after 'Z'", 8),
    ]])
def test_parse_rejects_malformed(bad, message, position):
    with pytest.raises(ng.SpecParseError) as exc:
        ng.parse_group_spec(bad)
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_deep_and_long_specs_are_typed_errors():
    # A spec nested or chained past the recursion limit is refused with a
    # typed error, not a RecursionError: the parser stops at the 101st Dih,
    # and products are built factor by factor, so the cap refuses the 8th
    # of a thousand Z2 factors.
    spec = Cyclic(2)
    for _ in range(100):
        spec = Dih(spec)
    assert ng.parse_group_spec("Dih(" * 100 + "Z2" + ")" * 100) == spec
    with pytest.raises(ng.SpecParseError) as exc:
        ng.parse_group_spec("Dih(" * 600 + "Z2" + ")" * 600)
    assert str(exc.value) == "Dih nested more than 100 deep (at position 400)"
    chain = "x".join(["Z2"] * 1000)
    with pytest.raises(ng.CapacityError, match="group has order 256$"):
        ng.build_group(chain, order_cap=200)
    assert ng.AbelianSpec.from_spec(chain).factors == (2,) * 1000


def test_long_products_compare_hash_and_repr_without_recursion():
    # an x-chain parses to one flat Product, however long
    chain = "x".join(["Z2"] * 1000)
    a, b = ng.parse_group_spec(chain), ng.parse_group_spec(chain)
    assert a == Product((Cyclic(2),) * 1000)
    assert a == b and hash(a) == hash(b)
    assert a != ng.parse_group_spec(chain + "xZ2")
    assert repr(ng.parse_group_spec("Dih(Z2xZ3)xZ5xtable:k4")) == (
        "Product(factors=(Dih(inner=Product(factors=(Cyclic(n=2), Cyclic(n=3)))), "
        "Cyclic(n=5), TableFile(path='k4')))")
    assert Product((Cyclic(2), Cyclic(3))) != Product((Cyclic(3), Cyclic(2)))
    assert Product((Cyclic(2), Cyclic(3))) != (Cyclic(2), Cyclic(3))


@pytest.mark.parametrize("spec, position", [("Z{}", 1), ("Dih(Z2xZ{})", 8)])
def test_parse_rejects_long_digit_run(spec, position):
    # more digits than int() converts by default
    with pytest.raises(ng.SpecParseError) as exc:
        ng.parse_group_spec(spec.format("9" * 5000))
    assert exc.value.position == position
    assert str(exc.value) == (
        f"cyclic group order has too many digits (at position {position})")


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


def test_order_one_table_is_the_trivial_group():
    # the one order at which itemgetter, which the parser's row kernels
    # use, would return a scalar for a row
    g = ng.parse_table_text("1\n0\n")
    assert (g.order, g.mul, g.inv) == (1, ((0,),), (0,))


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
    # load_table_file gives a table file's order, or its header error, and
    # an order cap reads that same header before any row is parsed.
    path = tmp_path / "t.tbl"
    path.write_bytes(text.encode("utf-8"))
    try:
        got = ng.load_table_file(path).order
    except ng.TableFormatError as exc:
        got = str(exc)
    if isinstance(expected, str):
        assert got == expected
        with pytest.raises(ng.TableFormatError) as exc:
            ng.build_group(TableFile(str(path)), order_cap=1)
        assert str(exc.value) == expected
    else:
        # the order-300 header has one row
        assert got in (expected, f"expected {expected} table rows, found 1")
        with pytest.raises(ng.CapacityError) as exc:
            ng.build_group(TableFile(str(path)), order_cap=1)
        assert str(exc.value).endswith(f"group has order {expected}")


def test_over_cap_table_file_is_refused_on_its_header(tmp_path):
    # the header is read before the body, so a byte the body could not
    # decode 64 KiB into the file is never reached
    path = tmp_path / "big.tbl"
    path.write_bytes(b"2000\n" + b"0 " * (32 * 1024) + b"\xff\n")
    with pytest.raises(ng.CapacityError) as exc:
        ng.build_group(TableFile(str(path)), order_cap=200)
    assert str(exc.value).endswith("group has order 2000")
    with pytest.raises(ng.TableFormatError, match="cannot read table file"):
        ng.build_group(TableFile(str(path)))
