"""Coherence checking on the fixture monoidal structures."""

import pathlib

import pytest

from monocentre.centre import BraidingDatum, check_braiding, compute_centre
from monocentre.fincat import Functor, discrete_category, validate_category
from monocentre.graded import Cocycle3, Group, trivial_cocycle, z2_nontrivial_cocycle
from monocentre.jsonio import load_spec
from monocentre.examples import (
    two_group_monoidal, chain_poset_monoidal, D4, Z1, Z2, Z3, Z4, S3,
)
from monocentre.monoidal import (
    MonoidalStructure, validate_monoidal, check_strict_monoidal, group_table_report,
)

from helpers import (
    braiding_mutants, cell_mutants, cocycle_two_group, identity_braiding, identity_functor,
    joint_check_braiding, joint_validate_monoidal, product_monoidal, relabel_monoidal,
    type_i_cocycle, unit_and_s3_monoidal,
)

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def semion():
    return load_spec(str(FIXTURES / "semion_two_group.json")).payload


def semion_times_chain(n):
    """The semion 2-group (N = 2) times the n-chain: non-invertible
    morphisms and a non-identity associator in one input."""
    return product_monoidal(semion(), chain_poset_monoidal(n))


def reports_naturality(report):
    return any("not natural" in line for line in report)


def all_fixtures():
    return [two_group_monoidal(t) for t in (Z2, Z3, Z4, S3)] + [
        chain_poset_monoidal(2), chain_poset_monoidal(3), two_group_monoidal(Z1, 2)]


class TestGroupTables:
    def test_s3_is_a_group(self):
        assert group_table_report(S3) == []
        assert len(S3) == 6

    def test_s3_nonabelian(self):
        assert any(S3[a][b] != S3[b][a] for a in range(6) for b in range(6))

    def test_magma_rejected(self):
        bad = ((0, 1), (1, 1))
        assert group_table_report(bad)
        with pytest.raises(ValueError):
            two_group_monoidal(bad)

    def test_rock_paper_scissors_rejected(self):
        # idempotent, commutative, not associative
        t = ((0, 1, 0), (1, 1, 2), (0, 2, 2))
        assert any("associative" in line for line in group_table_report(t))


class TestCoherence:
    def test_all_fixtures_valid(self):
        for ms in all_fixtures():
            assert validate_category(ms.base) == []
            assert validate_monoidal(ms) == []

    def test_broken_pentagon_detected(self):
        ms = two_group_monoidal(Z1, 2, [[[1]]])
        report = validate_monoidal(ms)
        assert any("pentagon" in line for line in report)

    @pytest.mark.parametrize("spot", [(a, b, c) for a in (1, 2) for b in (1, 2)
                                      for c in (1, 2)])
    def test_pentagon_reports_its_first_failing_quadruple(self, spot):
        # the 2-group on Z3 with automorphisms Z2 at every object: morphism
        # 2 g + k is k in Aut(g), and the associator is the normalized
        # Z2-valued w, 1 at spot alone.  The pentagon holds at (a, b, c, d)
        # iff the additive coboundary of w vanishes there, so the first
        # quadruple reported is the least one where it does not.
        G = range(3)
        w = {(a, b, c): int((a, b, c) == spot) for a in G for b in G for c in G}
        ms = two_group_monoidal(Z3, 2, [[[w[a, b, c] for c in G] for b in G] for a in G])
        first = next((a, b, c, d) for a in G for b in G for c in G for d in G
                     if (w[b, c, d] + w[a, (b + c) % 3, d] + w[a, b, c]
                         + w[(a + b) % 3, c, d] + w[a, b, (c + d) % 3]) % 2)
        assert validate_monoidal(ms) == [f"pentagon fails at objects {first}"]

    @pytest.mark.parametrize("omega,first", [
        (trivial_cocycle(Group(Z2)), None), (z2_nontrivial_cocycle(), None),
        (trivial_cocycle(Group(Z3)), None), (trivial_cocycle(Group(S3)), None),
        (trivial_cocycle(Group(D4)), None), (type_i_cocycle(3), None),
        (load_spec(str(FIXTURES / "z2_broken_omega.json")).payload, (1, 1, 0, 0)),
        (Cocycle3(Group(Z3), 3, [[[int(a == b == c == 1) for c in range(3)] for b in range(3)]
                                 for a in range(3)]), (1, 1, 1, 1)),
    ], ids=["z2", "z2_semion", "z3", "s3", "d4", "z3_type_i", "z2_broken_omega",
            "z3_non_cocycle"])
    def test_the_2_group_is_monoidal_exactly_on_a_cocycle(self, omega, first):
        # the pentagon of the 2-group with automorphisms Z_s is the
        # additive cocycle identity, and its triangle is normalization
        ms = two_group_monoidal(omega.group.table, omega.scalar_order, omega.exponents)
        assert (ms.problems == ()) == (omega.problems == ())
        assert ms.problems[:1] == (() if first is None else (f"pentagon fails at objects {first}",))

    @pytest.mark.parametrize("table", [Z2, Z3, S3, D4], ids=["z2", "z3", "s3", "d4"])
    def test_one_automorphism_gives_the_discrete_group(self, table):
        ms = two_group_monoidal(table)
        assert ms.base == discrete_category(len(table))
        assert all(ms.base.is_identity(m) for m in ms.alpha_table.values())

    def test_broken_pentagon_still_structurally_sound(self):
        # the corruption is purely coherence-level: naturality survives
        ms = two_group_monoidal(Z1, 2, [[[1]]])
        from monocentre.monoidal import _structural_failures, _cell_naturality_failures
        assert list(_structural_failures(ms)) == []
        assert list(_cell_naturality_failures(ms)) == []

    def test_poset_unitors_line_up(self):
        ms = chain_poset_monoidal(4)
        for a in ms.base.objects:
            assert ms.tensor_obj(ms.unit, a) == a
            assert ms.tensor_obj(a, ms.unit) == a

    def test_missing_tensor_entry_reported(self):
        ms = two_group_monoidal(Z2)
        tmor = dict(ms.tensor_mor_table)
        del tmor[(1, 1)]
        broken = MonoidalStructure(ms.base, ms.tensor_obj_table, tmor, ms.unit,
                                   ms.alpha_table, ms.lam_table, ms.rho_table)
        assert any("missing" in line for line in validate_monoidal(broken))


class TestBraiding:
    def test_identity_braiding_on_abelian(self):
        for table in (Z2, Z3, Z4):
            ms = two_group_monoidal(table)
            assert check_braiding(identity_braiding(ms)) == []

    def test_identity_braiding_on_poset(self):
        ms = chain_poset_monoidal(3)
        assert check_braiding(identity_braiding(ms)) == []

    def test_s3_tensor_not_symmetric(self):
        ms = two_group_monoidal(S3)
        with pytest.raises(ValueError):
            identity_braiding(ms)

    def test_wrong_component_caught(self):
        ms = two_group_monoidal(Z1, 2)
        # c = s at the single pair: naturality asks s.(f tensor g) = (g tensor f).s,
        # fine since abelian; hexagons ask s = s.s = id, so they fail
        br = BraidingDatum(ms, {(0, 0): 1})
        report = check_braiding(br)
        assert any("hexagon" in line for line in report)


class TestStrongMonoidal:
    """Strict functors: strong monoidal with identity structure cells."""

    def test_identity_functor_passes(self):
        for ms in all_fixtures():
            F = identity_functor(ms.base)
            assert check_strict_monoidal(F, ms, ms) == []

    def test_group_hom_as_strict_functor(self):
        ms = two_group_monoidal(Z2)
        F = Functor(ms.base, ms.base, (0, 1), (0, 1))
        assert check_strict_monoidal(F, ms, ms) == []

    def test_non_homomorphism_swap_fails(self):
        ms = two_group_monoidal(Z4)
        # swap g and g^2 (indices 1, 2), keep 0 and 3: not a homomorphism
        F = Functor(ms.base, ms.base, (0, 2, 1, 3), (0, 2, 1, 3))
        report = check_strict_monoidal(F, ms, ms)
        assert report != []

    def test_inversion_on_z4_is_monoidal(self):
        ms = two_group_monoidal(Z4)
        F = Functor(ms.base, ms.base, (0, 3, 2, 1), (0, 3, 2, 1))
        assert check_strict_monoidal(F, ms, ms) == []


class TestRelabelling:
    def test_relabelled_copy_is_valid_and_iso(self):
        ms = two_group_monoidal(Z3)
        out = relabel_monoidal(ms, (2, 0, 1), (2, 0, 1))
        assert validate_monoidal(out.monoidal) == []
        assert check_strict_monoidal(out.iso, ms, out.monoidal) == []
        assert out.monoidal.unit == 2

    def test_relabel_poset(self):
        ms = chain_poset_monoidal(2)
        perm_obj = (1, 0)
        # morphisms of the 2-chain: (0,0), (0,1), (1,1) in id order
        perm_mor = (2, 1, 0)
        out = relabel_monoidal(ms, perm_obj, perm_mor)
        assert validate_monoidal(out.monoidal) == []
        assert check_strict_monoidal(out.iso, ms, out.monoidal) == []


class TestOneVariableChecks:
    """Bifunctoriality and naturality, checked one variable at a time, give
    the verdicts of the joint scans over all tuples of morphisms (helpers)
    on every mutant in one entry that keeps the entry's endpoints."""

    @pytest.mark.parametrize("make,mutants,valid", [
        (semion, 28, 1),
        (lambda: cocycle_two_group(type_i_cocycle(3), 3), 228, 0),
        (lambda: chain_poset_monoidal(3), 0, 0),
        (lambda: unit_and_s3_monoidal(lambda f, g: f), 285, 0),
        (lambda: semion_times_chain(2), 216, 0),
    ], ids=["semion", "z3_type_i", "chain_3", "unit_and_s3", "semion_x_chain_2"])
    def test_monoidal_verdicts_match_the_joint_scans(self, make, mutants, valid):
        ms = make()
        assert validate_monoidal(ms) == joint_validate_monoidal(ms) == []
        verdicts = [(validate_monoidal(m) == [], joint_validate_monoidal(m) == [])
                    for m in cell_mutants(ms)]
        assert len(verdicts) == mutants
        assert verdicts.count((True, True)) == valid
        assert all(new == joint for new, joint in verdicts)

    @pytest.mark.parametrize("make,mutants,valid,natural", [
        (lambda: compute_centre(semion()).braiding, 4, 1, 0),
        (lambda: identity_braiding(unit_and_s3_monoidal(lambda f, g: 0)), 15, 0, 10),
        (lambda: compute_centre(semion_times_chain(2)).braiding, 16, 0, 16),
    ], ids=["semion_centre", "unit_and_s3", "semion_x_chain_2_centre"])
    def test_braiding_verdicts_match_the_joint_scan(self, make, mutants, valid, natural):
        # natural counts the mutants whose report has a naturality line
        br = make()
        assert check_braiding(br) == joint_check_braiding(br) == []
        reports = [(check_braiding(m), joint_check_braiding(m)) for m in braiding_mutants(br)]
        assert len(reports) == mutants
        assert [new == [] for new, _ in reports].count(True) == valid
        assert all((new == []) == (joint == []) for new, joint in reports)
        assert sum(reports_naturality(new) for new, _ in reports) == natural

    @pytest.mark.parametrize("make,mutants,natural,cells_first", [
        (semion, 28, 8, 0),
        (lambda: semion_times_chain(2), 216, 136, 72),
        (lambda: semion_times_chain(3), 804, 444, 228),
    ], ids=["semion", "semion_x_chain_2", "semion_x_chain_3"])
    def test_products_make_the_cells_naturality_fail(self, make, mutants, natural, cells_first):
        # On a 2-group the translations act trivially on the abelian
        # endomorphisms, so a mutant cell stays natural; times a chain, a
        # mutant cell over a non-identity of the chain is not.  natural
        # counts the reports with a naturality line, cells_first those
        # whose first line is the naturality of alpha, lambda or rho.
        reports = [validate_monoidal(m) for m in cell_mutants(make())]
        assert len(reports) == mutants
        assert sum(map(reports_naturality, reports)) == natural
        assert sum(bool(r) and r[0].startswith(("associator not natural", "left unitor not natural",
                                                "right unitor not natural"))
                   for r in reports) == cells_first
