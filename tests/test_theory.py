import dataclasses

import pytest

import nimgen as ng
from nimgen.groups import subgroup_walk
from nimgen.theory import EVEN_CATALOG, AbelianSpec, _subgroup_deficiencies

import support


def test_deficiency_dihz4():
    dt = support.deficiencies("Dih(Z4)")
    assert dt.d_g == 2
    assert dt.per_class[ng.TERMINAL] == 0
    assert dt.per_class[0] == 2
    assert all(dt.per_class[cid] == 1 for cid in (1, 2, 3))


def test_deficiency_known_d_values():
    assert support.deficiencies("Z2").d_g == 1
    assert support.deficiencies("Z2xZ2").d_g == 2
    assert support.deficiencies("Z2xZ2xZ2").d_g == 3
    assert support.deficiencies("Dih(Z3xZ3)").d_g == 3
    assert support.deficiencies("Dih(Z2xZ2xZ2)").d_g == 4


def _per_mask(g):
    """Deficiency of every subset, read off the subgroup it generates."""
    delta = _subgroup_deficiencies(g)
    return [delta[support.reference_closure(g, m)] for m in range(1 << g.order)]


def test_subgroup_deficiencies_z4():
    assert _subgroup_deficiencies(support.group("Z4")) == {
        0b0001: 1, 0b0101: 1, 0b1111: 0}
    delta = _per_mask(support.group("Z4"))
    assert delta[0] == 1
    assert delta[0b0001] == 1
    assert delta[0b0101] == 1   # {e, g^2} still needs one generator
    assert delta[0b0010] == 0
    assert delta[0b1111] == 0
    assert _per_mask(ng.build_cyclic(1)) == [0, 0]


@pytest.mark.parametrize("spec", ["Z12", "Z13", "Dih(Z6)", "Dih(Z7)", "Z2xZ2xZ3"])
def test_subgroup_deficiencies_match_reference(spec):
    g = support.group(spec)
    assert _per_mask(g) == support.reference_deficiency_map(g)


def test_strata_dihz4():
    got = ng.strata(support.deficiencies("Dih(Z4)"), support.lattice("Dih(Z4)"))
    assert got == {
        (0, 0): {ng.TERMINAL},
        (0, 1): {1, 2, 3},
        (0, 2): {0},
    }


def test_deficiency_oracle_small():
    for spec in ng.SMALL_CATALOG:
        report = ng.check_deficiency_oracle(
            support.group(spec), support.lattice(spec),
            support.deficiencies(spec))
        assert report.ok, (spec, report.violations)
        assert report.checked == len(subgroup_walk(support.group(spec)))


def test_deficiency_oracle_beyond_small_catalog():
    groups = [support.group(s) for s in ng.EXTENDED_CATALOG
              if s not in ng.SMALL_CATALOG]
    groups += [support.permutation_table(gens, name)
               for name, gens in support.PERMUTATION_GROUPS.items()]
    groups += [support.relabelled(support.group("Dih(Z3xZ6)"), seed)
               for seed in (1, 2)]
    groups += [support.group(s) for s in
               ("Dih(Z99)", "Dih(Z3xZ3xZ3xZ3)", "Z2xZ2xZ2xZ2xZ2xZ2")]
    for g in groups:
        lat = ng.intersection_subgroups(g)
        report = ng.check_deficiency_oracle(g, lat, ng.deficiency_table(lat))
        assert report.ok, (g.label, report.violations)


def test_deficiency_oracle_flags_wrong_table():
    g, lat = support.group("Dih(Z4)"), support.lattice("Dih(Z4)")
    dt = support.deficiencies("Dih(Z4)")
    for cid in range(len(lat.intersections)):
        per_class = dict(dt.per_class)
        per_class[cid] += 1
        report = ng.check_deficiency_oracle(
            g, lat, dataclasses.replace(dt, per_class=per_class))
        assert not report.ok
        assert all(f" its class {cid} sits " in v for v in report.violations)
    report = ng.check_deficiency_oracle(
        g, lat, dataclasses.replace(dt, d_g=dt.d_g + 1))
    assert report.violations == (
        "the trivial subgroup needs 2 elements but d(G) was computed as 3",)


def test_abelian_spec_parsing():
    a = AbelianSpec.from_spec("Z3xZ9")
    assert a.factors == (3, 9)
    assert AbelianSpec.from_spec("Z9xZ2xZ3").factors == (9, 2, 3)
    assert a.order == 27
    assert a.is_odd
    assert a.rank == 2
    assert not a.is_cyclic
    with pytest.raises(ValueError):
        AbelianSpec.from_spec("Dih(Z3)")
    with pytest.raises(ValueError):
        AbelianSpec(factors=())


@pytest.mark.parametrize("spec", ["Dih(Z3)", "Z2xDih(Z3)", "Z9 x table:k4.tbl"])
def test_abelian_spec_names_a_refused_spec_as_written(spec):
    with pytest.raises(ValueError) as exc:
        AbelianSpec.from_spec(spec)
    assert str(exc.value) == f"not a direct product of cyclic groups: {spec}"


def test_abelian_rank():
    assert AbelianSpec.from_spec("Z2xZ3").rank == 1     # coprime, cyclic
    assert AbelianSpec.from_spec("Z6").rank == 1
    assert AbelianSpec.from_spec("Z2xZ6").rank == 2
    assert AbelianSpec.from_spec("Z2xZ2xZ2").rank == 3
    assert AbelianSpec.from_spec("Z3xZ3xZ3").rank == 3
    assert AbelianSpec((1,)).rank == 0
    assert AbelianSpec((1,)).is_cyclic


def test_abelian_spec_string_and_group():
    assert AbelianSpec((9, 3)).spec_string == "Z3xZ9"
    assert AbelianSpec((1,)).spec_string == "Z1"
    g = ng.build_group(AbelianSpec.from_spec("Z3xZ9").spec_string)
    assert g.order == 27
    assert ng.is_abelian(g)


def test_predict_gen():
    cases = {
        "Z2": 1, "Z4": 0, "Z5": 3, "Z6": 1, "Z8": 0, "Z9": 3, "Z12": 0,
        "Z3xZ3": 3, "Z3xZ9": 3, "Z5xZ5": 3,
        "Z2xZ2": 0, "Z2xZ4": 0, "Z2xZ6": 0,
        "Z2xZ2xZ2": 0, "Z3xZ3xZ3": 0,
    }
    for spec, want in cases.items():
        assert ng.predict_gen_dih(AbelianSpec.from_spec(spec)) == want, spec


def test_predict_dng():
    assert ng.predict_dng_dih(AbelianSpec.from_spec("Z5")) == 3
    assert ng.predict_dng_dih(AbelianSpec.from_spec("Z15")) == 3
    assert ng.predict_dng_dih(AbelianSpec.from_spec("Z4")) == 0
    assert ng.predict_dng_dih(AbelianSpec.from_spec("Z3xZ3")) == 0


def test_predictions_reject_trivial_part():
    with pytest.raises(ng.OutOfScopeError):
        ng.predict_gen_dih(AbelianSpec((1,)))
    with pytest.raises(ng.OutOfScopeError):
        ng.predict_dng_dih(AbelianSpec((1,)))


def test_verify_family_agrees():
    parts = [AbelianSpec.from_spec(s) for s in ("Z5", "Z4", "Z2xZ2")]
    report = ng.verify_family(parts, ng.GEN)
    assert report.exit_code == 0
    assert all(r.agree and r.frattini_match for r in report.records)
    assert all(r.d_dih == r.d_a + 1 for r in report.records)


def test_abelian_groups_by_order():
    for order in (0, -4):
        with pytest.raises(ValueError):
            ng.abelian_groups(order)
    assert [a.spec_string for a in ng.abelian_groups(1)] == ["Z1"]
    assert [a.spec_string for a in ng.abelian_groups(72)] == [
        "Z72", "Z3xZ24", "Z2xZ36", "Z6xZ12", "Z2xZ2xZ18", "Z2xZ6xZ6"]
    # one partition of each prime's exponent: p(4) = 5 groups of order 16
    assert len(ng.abelian_groups(16)) == 5
    assert sum(len(ng.abelian_groups(n)) for n in range(2, 101)) == 184
    for n in range(1, 101):
        parts = ng.abelian_groups(n)
        assert len(set(parts)) == len(parts)
        for a in parts:
            assert a.order == n
            assert a.rank == len(a.factors) or a.factors == (1,)
            assert all(y % x == 0 for x, y in zip(a.factors, a.factors[1:]))


@pytest.mark.parametrize("variant", [ng.GEN, ng.DNG])
def test_theorem_on_every_abelian_part_up_to_48(variant):
    # the first 81 of the 184 parts swept up to |A| = 100
    parts = [a for n in range(2, 49) for a in ng.abelian_groups(n)]
    assert len(parts) == 81
    report = ng.verify_family(parts, variant)
    assert report.exit_code == 0
    assert all(r.agree and r.frattini_match and r.d_dih == r.d_a + 1
               for r in report.records)


def test_verify_family_capacity_note():
    report = ng.verify_family([AbelianSpec.from_spec("Z5xZ5")], ng.GEN,
                              order_cap=10)
    assert report.exit_code == 2
    rec = report.records[0]
    assert rec.skipped and not rec.failed
    assert rec.note


def test_verify_family_out_of_scope():
    report = ng.verify_family([AbelianSpec((1,))], ng.GEN)
    assert report.exit_code == 2
    assert report.records[0].computed is None


def test_verify_suite_counts_checks_and_notes():
    report = ng.verify_suite("odd-lemmas", order_cap=14)
    assert report.records == ()
    assert [n.split(":")[0] for n in report.notes] == [
        "Dih(Z9)", "Dih(Z11)", "Dih(Z3xZ3)"]
    assert (report.ok, report.failed, report.skipped, report.exit_code) == (
        6, 0, 3, 2)
    with pytest.raises(ValueError, match="unknown suite"):
        ng.verify_suite("family")


def test_verify_suite_builds_no_table_over_the_cap(monkeypatch):
    support.refuse_builds_over(monkeypatch, 14)
    report = ng.verify_suite("odd-lemmas", order_cap=14)
    assert [n.split(":")[0] for n in report.notes] == [
        "Dih(Z9)", "Dih(Z11)", "Dih(Z3xZ3)"]
    assert (report.ok, report.skipped) == (6, 3)


def test_family_record_dict_keys():
    report = ng.verify_family([AbelianSpec.from_spec("Z5")], ng.DNG)
    payload = report.records[0].to_dict()
    assert payload == {
        "spec": "Dih(Z5)", "variant": "DNG", "predicted": 3, "computed": 3,
        "dDih": 2, "dA": 1, "frattiniMatch": True, "agree": True,
    }


def test_even_type_table_checks():
    for spec in ("Dih(Z4)", "Dih(Z6)", "Z2xZ4", "Dih(Z2xZ2)"):
        report = ng.check_even_type_table(
            support.group(spec), support.lattice(spec),
            support.deficiencies(spec), support.nims(spec))
        assert report.ok, (spec, report.violations)
    with pytest.raises(ValueError):
        ng.check_even_type_table(
            support.group("Z9"), support.lattice("Z9"),
            support.deficiencies("Z9"), support.nims("Z9"))


def test_odd_case_checks():
    for spec in ("Dih(Z3)", "Dih(Z5)", "Dih(Z9)", "Dih(Z3xZ3)"):
        dg = support.digraph(spec)
        dt = support.deficiencies(spec)
        assert ng.check_option_deficiency(dg, dt, subject=spec).ok
        assert ng.check_odd_case_lemmas(dg, dt, subject=spec).ok


def test_even_type_table_flags_each_wrong_even_nim():
    for spec, count in (("Dih(Z4)", 4), ("Dih(Z6)", 13), ("Z2xZ2xZ2", 14)):
        g, lat = support.group(spec), support.lattice(spec)
        dt, nims = support.deficiencies(spec), support.nims(spec)
        even = [cid for cid in range(len(lat.intersections))
                if ng.class_parity(lat, cid) == 0]
        assert len(even) == count, spec
        for cid in even:
            per_class = dict(nims.per_class)
            even_nim, odd_nim = per_class[cid]
            per_class[cid] = (even_nim + 1, odd_nim)
            report = ng.check_even_type_table(
                g, lat, dt, dataclasses.replace(nims, per_class=per_class))
            assert [v.split(" at ")[0] for v in report.violations] == [f"class {cid}"]


@pytest.mark.parametrize("spec, classes, odd", [
    ("Dih(Z3xZ3)", 27, 6), ("Dih(Z5)", 7, 2), ("Dih(Z9)", 5, 2)])
def test_odd_case_checks_flag_each_wrong_class(spec, classes, odd):
    dg, dt = support.digraph(spec), support.deficiencies(spec)
    assert len(dt.per_class) == classes + 1
    for cid in range(classes):
        per_class = dict(dt.per_class)
        per_class[cid] += 1
        wrong = dataclasses.replace(dt, per_class=per_class)
        assert not ng.check_option_deficiency(dg, wrong, subject=spec).ok, cid
        assert not ng.check_odd_case_lemmas(dg, wrong, subject=spec).ok, cid
    odd_classes = [v for v in dg.vertices if v.cid != ng.TERMINAL and v.parity]
    assert len(odd_classes) == odd
    for v in odd_classes:
        vtype = v.vtype._replace(even_nim=v.vtype.even_nim + 1)
        vertices = list(dg.vertices)
        vertices[v.cid] = dataclasses.replace(v, vtype=vtype)
        report = ng.check_odd_case_lemmas(
            dataclasses.replace(dg, vertices=tuple(vertices)), dt, subject=spec)
        assert [x for x in report.violations if " has type " in x] == [
            f"odd class {v.cid} at deficiency {dt.per_class[v.cid]} has type "
            f"{tuple(vtype)}, expected {tuple(v.vtype)}"]


def test_dihedralization_identities():
    # d goes up by one and the Frattini carrier is unchanged
    for spec in ("Z4", "Z2xZ2", "Z3xZ3", "Z12"):
        a = support.group(spec)
        dih = support.group(f"Dih({spec})")
        assert support.deficiencies(f"Dih({spec})").d_g == \
            support.deficiencies(spec).d_g + 1
        assert support.lattice(f"Dih({spec})").frattini_mask == \
            support.lattice(spec).frattini_mask
        assert dih.order == 2 * a.order


def test_catalogs_build():
    for spec in ng.SMALL_CATALOG:
        assert support.group(spec).order <= 16
    for spec in ng.EXTENDED_CATALOG:
        assert support.group(spec).order <= 54
    assert set(ng.DIHEDRAL_FAMILY) | set(ng.THEOREM_FAMILY) == set(ng.ABELIAN_CATALOG)


def test_even_catalog_is_the_even_order_small_catalog():
    assert EVEN_CATALOG == tuple(s for s in ng.SMALL_CATALOG
                                 if support.group(s).order % 2 == 0)
