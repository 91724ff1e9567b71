"""Table-level checks for finite categories, functors, and enumeration."""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from monocentre.centre import enumerate_half_braidings
from monocentre.config import Budget, GuardConfig, InternalSoundnessError, SizeGuardExceeded
from monocentre.fincat import (
    FinCategory, Functor, NatTransf,
    validate_category, validate_functor, validate_nat_transf,
    discrete_category, terminal_category, empty_category, walking_arrow,
    product_category, coproduct_category, category_over,
    enumerate_functors, enumerate_nat_transfs, functor_category,
    check_equivalence,
)

from monocentre.monoidal import S3, chain_poset_monoidal, two_group_monoidal

from helpers import group_category, identity_functor


Z2_TABLE = ((0, 1), (1, 0))
Z3_TABLE = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


def chaotic_category(n):
    """Exactly one morphism between every ordered pair of objects."""
    pairs = [(a, b) for a in range(n) for b in range(n)]
    mor_of = {p: i for i, p in enumerate(pairs)}
    src = tuple(a for a, _ in pairs)
    dst = tuple(b for _, b in pairs)
    ident = tuple(mor_of[(a, a)] for a in range(n))
    comp = {}
    for g, (b1, c) in enumerate(pairs):
        for f, (a, b2) in enumerate(pairs):
            if b1 == b2:
                comp[(g, f)] = mor_of[(a, c)]
    return FinCategory(n, src, dst, ident, comp)


class TestValidation:
    def test_basic_shapes_are_valid(self):
        for cat in (empty_category(), terminal_category(), discrete_category(3),
                    walking_arrow(), group_category(Z2_TABLE), group_category(Z3_TABLE),
                    chaotic_category(3)):
            assert validate_category(cat) == []

    def test_missing_composite_is_reported(self):
        cat = walking_arrow()
        comp = dict(cat.compose_map)
        del comp[(1, 2)]
        bad = FinCategory(2, cat.mor_src, cat.mor_dst, cat.identity, comp)
        report = validate_category(bad)
        assert any("missing" in line for line in report)

    def test_wrong_identity_is_reported(self):
        bad = FinCategory(1, (0, 0), (0, 0), (1,), {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0})
        assert validate_category(bad)

    def test_out_of_range_ids_reported_not_raised(self):
        bad = FinCategory(2, (0, 5), (0, 1), (0, 1), {})
        report = validate_category(bad)
        assert any("out-of-range" in line for line in report)

    @given(st.integers(0, 8), st.integers(0, 2))
    def test_corrupting_one_group_composite_is_caught(self, k, delta):
        """Overwrite one entry of the Z3 table with a wrong value."""
        cat = group_category(Z3_TABLE)
        g, f = divmod(k, 3)
        good = cat.compose_map[(g, f)]
        bad_val = (good + 1 + delta % 2) % 3
        comp = dict(cat.compose_map)
        comp[(g, f)] = bad_val
        bad = FinCategory(1, cat.mor_src, cat.mor_dst, cat.identity, comp)
        assert validate_category(bad) != []


class TestFunctorsAndTransfs:
    def test_identity_functor_is_valid(self):
        cat = group_category(Z3_TABLE)
        assert validate_functor(identity_functor(cat)) == []

    def test_functor_endpoint_violation(self):
        wa = walking_arrow()
        F = Functor(wa, wa, (0, 1), (0, 1, 0))  # sends the arrow to id0
        assert validate_functor(F)

    def test_nat_transf_validation(self):
        z2 = group_category(Z2_TABLE)
        idf = identity_functor(z2)
        ok = NatTransf(idf, idf, (0,))
        assert validate_nat_transf(ok) == []
        # component s: naturality s.f = f.s holds since Z2 is abelian
        assert validate_nat_transf(NatTransf(idf, idf, (1,))) == []


class TestEnumeration:
    def test_functors_from_walking_arrow_to_discrete(self):
        fs = enumerate_functors(walking_arrow(), discrete_category(2))
        # the arrow must collapse, so exactly the two constant choices
        assert len(fs) == 2
        assert all(validate_functor(F) == [] for F in fs)

    def test_group_endofunctors_are_homomorphisms(self):
        z2 = group_category(Z2_TABLE)
        fs = enumerate_functors(z2, z2)
        assert len(fs) == 2  # trivial and identity
        z3 = group_category(Z3_TABLE)
        assert len(enumerate_functors(z3, z3)) == 3  # x -> 0, x, 2x

    def test_endofunctors_of_walking_arrow(self):
        wa = walking_arrow()
        fs = enumerate_functors(wa, wa)
        assert len(fs) == 3  # constant 0, constant 1, identity
        for F in fs:
            assert validate_functor(F) == []

    def test_nat_transf_enumeration_matches_validation(self):
        z2 = group_category(Z2_TABLE)
        trivial, ident = enumerate_functors(z2, z2)
        assert trivial.mor_map == (0, 0)
        budget = Budget(GuardConfig().max_branch, "transformations")
        assert enumerate_nat_transfs(trivial, ident, budget) == []
        assert len(enumerate_nat_transfs(ident, ident, budget)) == 2

    def test_budget_guard_trips(self):
        cfg = GuardConfig(max_branch=3)
        with pytest.raises(SizeGuardExceeded, match=r"functor enumeration needs more than "
                                                    r"3 steps, limit 3 \(raise max_branch\)"):
            enumerate_functors(discrete_category(3), discrete_category(3), cfg)

    def test_functor_category_discrete(self):
        fc = functor_category(discrete_category(2), discrete_category(2))
        assert fc.category.n_objects == 4
        assert fc.category.n_morphisms == 4
        assert validate_category(fc.category) == []

    def test_functor_category_of_group(self):
        fc = functor_category(group_category(Z2_TABLE), group_category(Z2_TABLE))
        assert fc.category.n_objects == 2
        # no transfs between the trivial and identity homomorphism, two each way round
        assert fc.category.n_morphisms == 4
        assert validate_category(fc.category) == []
        for eta in fc.transfs:
            assert validate_nat_transf(eta) == []

    def test_functor_category_walking_arrow(self):
        fc = functor_category(walking_arrow(), walking_arrow())
        assert fc.category.n_objects == 3
        assert validate_category(fc.category) == []


def _walking_arrow_extremes(max_branch):
    """The transformations from the first to the last endofunctor of the
    walking arrow (constant at 0 to constant at 1)."""
    fs = enumerate_functors(walking_arrow(), walking_arrow())
    return enumerate_nat_transfs(fs[0], fs[-1], Budget(max_branch, "transformations"))


# One max_branch step per candidate tried: the least budget that succeeds
# is the number of candidates each search tries.
@pytest.mark.parametrize("least,run", [
    (9, lambda n: enumerate_functors(walking_arrow(), walking_arrow(),
                                     GuardConfig(max_branch=n))),
    (39, lambda n: enumerate_functors(discrete_category(3), discrete_category(3),
                                      GuardConfig(max_branch=n))),
    (2, _walking_arrow_extremes),
    (6, lambda n: enumerate_half_braidings(two_group_monoidal(S3), 0,
                                           GuardConfig(max_branch=n))),
] + [
    (3, lambda n, a=a: enumerate_half_braidings(chain_poset_monoidal(3), a,
                                                GuardConfig(max_branch=n)))
    for a in range(3)
], ids=["functors-arrow", "functors-discrete3", "transfs-arrow", "half-braidings-s3",
        "half-braidings-chain0", "half-braidings-chain1", "half-braidings-chain2"])
def test_least_max_branch_counts_the_candidates(least, run):
    assert run(least)
    with pytest.raises(SizeGuardExceeded, match=rf"needs more than {least - 1} steps"):
        run(least - 1)


class TestProductsCoproducts:
    def test_product_tables(self):
        wa = walking_arrow()
        prod = product_category(wa, wa)
        assert prod.category.n_objects == 4
        assert prod.category.n_morphisms == 9
        assert validate_category(prod.category) == []
        # the id encodings hochschild reads round-trip, and mor_id(f, g) runs
        # between the objects of f's and g's ends
        objs = [(a, b) for a in wa.objects for b in wa.objects]
        assert [prod.obj_pair(prod.obj_id(a, b)) for a, b in objs] == objs
        mors = [(f, g) for f in wa.morphisms for g in wa.morphisms]
        assert [prod.mor_pair(prod.mor_id(f, g)) for f, g in mors] == mors
        for f, g in mors:
            m = prod.mor_id(f, g)
            assert prod.category.src(m) == prod.obj_id(wa.src(f), wa.src(g))
            assert prod.category.dst(m) == prod.obj_id(wa.dst(f), wa.dst(g))

    def test_product_is_refused_before_its_rows_are_listed(self):
        # 1,000 parallel arrows 0 -> 1 and no non-identity composite:
        # A x A would have 1002 * 1002 morphisms
        arrows = range(2, 1002)
        comp = {(0, 0): 0, (1, 1): 1, **{(f, 0): f for f in arrows},
                **{(1, f): f for f in arrows}}
        A = FinCategory(2, (0, 1) + (0,) * 1000, (0, 1) + (1,) * 1000, (0, 1), comp)
        assert validate_category(A) == []
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardExceeded,
                               match=r"^size guard exceeded: product category morphisms "
                                     r"needs 1004004, limit 4096 \(raise max_morphisms\)$"):
                product_category(A, A, GuardConfig())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak

    def test_coproduct(self):
        z2 = group_category(Z2_TABLE)
        cop = coproduct_category(z2, walking_arrow())
        assert cop.category.n_objects == 3
        assert cop.category.n_morphisms == 5
        assert validate_category(cop.category) == []
        assert validate_functor(cop.inj_left) == []
        assert validate_functor(cop.inj_right) == []

    def test_full_subcategory(self):
        wa = walking_arrow()
        sub, rows, index, inclusion = category_over(wa, [1], lambda i, j, f: True,
                                                    "sub", GuardConfig())
        assert sub.n_objects == 1
        assert rows == [(0, 0, 1)] and index == {(0, 0, 1): 0}
        assert validate_functor(inclusion) == []

    def test_category_over_keeps_what_passes_in_row_order(self):
        # the chaotic pair over itself, twice over each object, keeping
        # the morphisms into the second copy of each object and identities
        ch = chaotic_category(2)
        over = (0, 0, 1, 1)
        cat, rows, index, proj = category_over(
            ch, over, lambda i, j, f: i == j or j % 2 == 1, "copy", GuardConfig())
        assert validate_category(cat) == [] and validate_functor(proj) == []
        assert rows == sorted(rows) and index == {row: k for k, row in enumerate(rows)}
        assert [(i, j) for i, j, _ in rows] == [
            (0, 0), (0, 1), (0, 3), (1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 3)]
        assert proj.obj_map == over and proj.mor_map == tuple(f for _, _, f in rows)

    def test_category_over_refuses_objects_before_testing_morphisms(self):
        tested = []

        def keep(i, j, f):
            tested.append(f)
            return True

        wa = walking_arrow()
        with pytest.raises(SizeGuardExceeded,
                           match=r"^size guard exceeded: it objects needs 2, limit 1 "
                                 r"\(raise max_objects\)$"):
            category_over(wa, (0, 1), keep, "it", GuardConfig(max_objects=1, max_morphisms=1))
        assert tested == []
        with pytest.raises(SizeGuardExceeded,
                           match=r"^size guard exceeded: it morphisms needs 3, limit 2 "
                                 r"\(raise max_morphisms\)$"):
            category_over(wa, (0, 1), keep, "it", GuardConfig(max_morphisms=2))

    def test_category_over_refuses_a_test_not_closed_under_composition(self):
        # the chaotic triple keeping 0 -> 1 and 1 -> 2 but not 0 -> 2
        ch = chaotic_category(3)
        with pytest.raises(InternalSoundnessError,
                           match="^path is not closed under composition$"):
            category_over(ch, (0, 1, 2), lambda i, j, f: j in (i, i + 1), "path",
                          GuardConfig())


class TestEquivalence:
    def test_identity_is_equivalence(self):
        rep = check_equivalence(identity_functor(walking_arrow()))
        assert rep.is_equivalence

    def test_terminal_into_chaotic_is_equivalence(self):
        """A non-bijective equivalence: the point into the chaotic pair."""
        t = terminal_category()
        ch = chaotic_category(2)
        F = Functor(t, ch, (0,), (ch.id_of(0),))
        rep = check_equivalence(F)
        assert rep.is_equivalence
        assert rep.summary() == "equivalence"

    def test_point_into_walking_arrow_is_not(self):
        wa = walking_arrow()
        F = Functor(terminal_category(), wa, (0,), (wa.id_of(0),))
        rep = check_equivalence(F)
        assert not rep.essentially_surjective
        assert any("essential surjectivity" in w for w in rep.witnesses)

    def test_collapse_is_not_faithful(self):
        z2 = group_category(Z2_TABLE)
        t = terminal_category()
        F = Functor(z2, t, (0,), (0, 0))
        rep = check_equivalence(F)
        assert not rep.faithful

    def test_faithfulness_is_reported_before_fullness(self):
        # 0 -> 0 misses the non-identity of B's Z2 (not full) before 1 -> 1
        # sends both endomorphisms of A's Z2 to one (not faithful)
        z2, t = group_category(Z2_TABLE), terminal_category()
        A = coproduct_category(t, z2).category
        B = coproduct_category(z2, t).category
        F = Functor(A, B, (0, 1), (0, 2, 2))
        assert validate_functor(F) == []
        rep = check_equivalence(F)
        assert (rep.faithful, rep.full, rep.essentially_surjective) == (False, False, True)
        assert rep.witnesses == ("faithfulness fails: morphisms 1 and 2 (1 -> 1) both map to 2",)
