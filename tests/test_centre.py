import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from monocentre.config import Budget, GuardConfig, SizeGuardExceeded
from monocentre.jsonio import load_spec
from monocentre.fincat import (
    FinCategory, Functor, terminal_category, empty_category,
    discrete_category, walking_arrow, check_equivalence, enumerate_nat_transfs,
)
from monocentre.monoidal import (
    Z1, Z2, Z3, Z4, S3, two_group_monoidal, chain_poset_monoidal,
)
from monocentre.centre import (
    CentrePiece, check_centre_piece,
    enumerate_half_braidings, compute_centre,
    enumerate_centre_pieces, check_birepresentation, pointwise_monoidal,
    transport_along_power, check_cp_preserves_coproducts, _central_failures,
)
from monocentre.graded import z2_nontrivial_cocycle

from helpers import cocycle_two_group, relabel_monoidal

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def canonical_piece(Z, ms, idx=0):
    """Wrap one computed centre object as a piece over the terminal category."""
    o = Z.objects[idx]
    pt = terminal_category()
    u = Functor(pt, ms.base, (o.a,), (ms.base.id_of(o.a),))
    return CentrePiece(u, ms, {(0, x): o.gamma[x] for x in ms.base.objects})


# -- centre sizes against the group-theoretic count -----------------------

@pytest.mark.parametrize("table,size", [(Z2, 2), (Z3, 3), (Z4, 4), (S3, 1)])
def test_group_centre_sizes(table, size):
    Z = compute_centre(two_group_monoidal(table))
    assert Z.category.n_objects == size
    assert Z.category.n_morphisms == size       # discrete base, discrete centre
    assert Z.all_passed, [c.name for c in Z.certificates if not c.ok]


def test_half_braiding_exists_iff_central_s3():
    ms = two_group_monoidal(S3)
    counts = [len(enumerate_half_braidings(ms, a)) for a in range(6)]
    assert counts == [1, 0, 0, 0, 0, 0]


def test_poset_centre_is_whole_category():
    for n in (2, 3):
        ms = chain_poset_monoidal(n)
        Z = compute_centre(ms)
        assert Z.category.n_objects == ms.base.n_objects
        assert Z.category.n_morphisms == ms.base.n_morphisms
        assert check_equivalence(Z.projection).is_equivalence
        assert Z.all_passed, [c.name for c in Z.certificates if not c.ok]


def test_one_object_z2_centre():
    # multiplicativity forces the component to the identity, but both
    # endomorphisms of the carrier are central morphisms
    Z = compute_centre(two_group_monoidal(Z1, 2))
    assert Z.category.n_objects == 1
    assert Z.category.n_morphisms == 2
    assert Z.all_passed, [c.name for c in Z.certificates if not c.ok]


def test_unit_law_is_derived_not_imposed():
    for ms in (two_group_monoidal(Z4), chain_poset_monoidal(3),
               two_group_monoidal(Z1, 2)):
        Z = compute_centre(ms)
        assert Z.unit_violations == ()


def test_empty_base_is_refused():
    # an empty base cannot carry a unit object, so the centre and every
    # construction over it refuse the structure as invalid input
    from monocentre.monoidal import MonoidalStructure
    ms = MonoidalStructure(empty_category(), (), {}, 0, {}, (), ())
    for run in (lambda: compute_centre(ms),
                lambda: check_birepresentation(empty_category(), ms),
                lambda: check_birepresentation(terminal_category(), ms)):
        with pytest.raises(ValueError, match="unit object 0 out of range"):
            run()


def test_guards_trip():
    with pytest.raises(SizeGuardExceeded):
        compute_centre(two_group_monoidal(Z4), GuardConfig(max_objects=2))


def test_half_braiding_budget_guard():
    with pytest.raises(SizeGuardExceeded, match=r"half-braiding enumeration needs more than "
                                                r"4 steps, limit 4 \(raise max_branch\)"):
        enumerate_half_braidings(two_group_monoidal(S3), 0, GuardConfig(max_branch=4))


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(4)))
def test_centre_size_invariant_under_relabelling(perm):
    ms = two_group_monoidal(Z4)
    rl = relabel_monoidal(ms, tuple(perm), tuple(perm))
    Z = compute_centre(rl.monoidal)
    assert Z.category.n_objects == 4
    assert Z.all_passed


def test_invalid_structure_is_refused_as_input():
    # broken_pentagon's unitors still induce a half-braiding candidate that
    # the pentagon rules out; refusing first names the input, not a bug.
    # CP(U, A) refuses it too, where the coproduct comparison would
    # otherwise call it an equivalence
    ms = load_spec(str(FIXTURES / "broken_pentagon.json")).payload
    pt = terminal_category()
    for run in (lambda: compute_centre(ms), lambda: check_birepresentation(pt, ms),
                lambda: check_cp_preserves_coproducts(pt, pt, ms)):
        with pytest.raises(ValueError) as err:
            run()
        assert str(err.value) == ("input monoidal structure is invalid: "
                                  "pentagon fails at objects (0, 0, 0, 0)")


# -- piece validation and the corrupted-component control -----------------

def test_canonical_piece_passes():
    ms = two_group_monoidal(Z3)
    Z = compute_centre(ms)
    assert check_centre_piece(canonical_piece(Z, ms, 1)) == []


def test_corrupted_component_rejected_with_witness():
    ms = two_group_monoidal(Z1, 2)
    pt = terminal_category()
    u = Functor(pt, ms.base, (0,), (ms.base.id_of(0),))
    bad = CentrePiece(u, ms, {(0, 0): 1})   # the flip endomorphism
    report = check_centre_piece(bad)
    assert report
    assert "multiplicativity fails at (s=0, x=0, y=0)" in report


def test_missing_component_reported():
    ms = two_group_monoidal(Z2)
    pt = terminal_category()
    u = Functor(pt, ms.base, (0,), (ms.base.id_of(0),))
    report = check_centre_piece(CentrePiece(u, ms, {(0, 0): 0}))
    assert any("missing" in line for line in report)


def test_piece_morphism_condition():
    ms = chain_poset_monoidal(2)
    cp = enumerate_centre_pieces(terminal_category(), ms)
    # pieces are ordered by carrier; hom(0, 1) in the poset is the single
    # non-identity arrow and it is a morphism of pieces
    p0, p1 = cp.pieces
    arrow = ms.base.hom(p0.u.obj_map[0], p1.u.obj_map[0])[0]
    assert (0, 1, (arrow,)) in cp.mor_index


# -- the centre piece category and its universal property -----------------

def test_cp_counts_frozen():
    z2 = two_group_monoidal(Z2)
    assert enumerate_centre_pieces(terminal_category(), z2).category.n_objects == 2
    assert enumerate_centre_pieces(empty_category(), z2).category.n_objects == 1
    cp = enumerate_centre_pieces(discrete_category(2), z2)
    assert cp.category.n_objects == 4
    assert cp.category.n_morphisms == 4
    cpw = enumerate_centre_pieces(walking_arrow(), z2)
    assert cpw.category.n_objects == 2
    assert cpw.category.n_morphisms == 2


def test_centre_pieces_obey_the_guards():
    # CP(2, Z4) has 16 pieces and 16 morphisms.  The functor enumeration
    # takes 20 steps and each half-braiding search 4, each on its own
    # budget, so 30 steps run out only in the piece search's budget.  The
    # 16 morphisms are first refused as those of the full functor
    # subcategory on the pieces' functors, which CP lies over.
    U, ms = discrete_category(2), two_group_monoidal(Z4)
    for cfg, message in (
            (GuardConfig(max_objects=4), "centre piece objects needs 16, limit 4 "
                                         "(raise max_objects)"),
            (GuardConfig(max_morphisms=4), "centre piece functor morphisms needs 16, "
                                           "limit 4 (raise max_morphisms)"),
            (GuardConfig(max_branch=30), "centre piece enumeration needs more than 30 "
                                         "steps, limit 30 (raise max_branch)")):
        with pytest.raises(SizeGuardExceeded) as err:
            enumerate_centre_pieces(U, ms, cfg)
        assert str(err.value) == "size guard exceeded: " + message
    cp = enumerate_centre_pieces(U, ms, GuardConfig(max_objects=16, max_morphisms=16))
    assert (cp.category.n_objects, cp.category.n_morphisms) == (16, 16)


def _all_pairs_piece_morphisms(cp, ms):
    """CP's morphisms by the defining formula: every transformation between
    every ordered pair of pieces, kept when each component meets the centre
    condition between the two pieces' families."""
    rows = []
    budget = Budget(GuardConfig().max_branch, "transformations")
    for i, p in enumerate(cp.pieces):
        for j, q in enumerate(cp.pieces):
            for sigma in enumerate_nat_transfs(p.u, q.u, budget):
                fails = (x for s, c in enumerate(sigma.components)
                         for x in _central_failures(ms, c, p.family(s), q.family(s)))
                if next(fails, None) is None:
                    rows.append((i, j, sigma.components))
    return sorted(rows)


@pytest.mark.parametrize("U,ms,sizes", [
    (walking_arrow(), chain_poset_monoidal(3), (6, 20)),
    # most of the 4,096 ordered pairs of pieces have no transformation
    (discrete_category(3), chain_poset_monoidal(4), (64, 1000)),
    # half of the 512 transformations between these pieces are not central
    (walking_arrow(), cocycle_two_group(z2_nontrivial_cocycle(), 4), (16, 256)),
], ids=["arrow_chain3", "discrete3_chain4", "arrow_semion4"])
def test_cp_equals_the_all_pairs_construction(U, ms, sizes):
    cp = enumerate_centre_pieces(U, ms)
    C, A = cp.category, ms.base
    assert (C.n_objects, C.n_morphisms) == sizes
    assert list(cp.mor_table) == _all_pairs_piece_morphisms(cp, ms)
    assert cp.mor_index == {row: k for k, row in enumerate(cp.mor_table)}
    assert [(C.src(k), C.dst(k)) for k in C.morphisms] == [(i, j) for i, j, _ in cp.mor_table]
    for i, p in enumerate(cp.pieces):
        assert cp.mor_table[C.id_of(i)] == (i, i, tuple(A.id_of(b) for b in p.u.obj_map))
    # composition is vertical, componentwise in the base
    for (g, f), h in C.compose_map.items():
        assert cp.mor_table[h][2] == tuple(
            A.compose(y, x) for y, x in zip(cp.mor_table[g][2], cp.mor_table[f][2]))
    assert len(C.compose_map) == sum(
        1 for _, j, _ in cp.mor_table for i2, _, _ in cp.mor_table if i2 == j)


@pytest.mark.parametrize("U", [terminal_category(), discrete_category(2), walking_arrow()])
@pytest.mark.parametrize("ms", [two_group_monoidal(Z2), chain_poset_monoidal(2)])
def test_birepresentation_is_equivalence(U, ms):
    rep = check_birepresentation(U, ms)
    assert rep.verdict == "equivalence", rep.equivalence.summary()
    assert rep.left_objects == rep.equivalence.functor.src.n_objects


# -- transport along powers ------------------------------------------------

def test_pointwise_monoidal_is_monoidal():
    from monocentre.fincat import functor_category
    from monocentre.monoidal import validate_monoidal
    ms = two_group_monoidal(Z2)
    fc = functor_category(discrete_category(2), ms.base)
    msq = pointwise_monoidal(fc, ms)
    assert validate_monoidal(msq) == []
    assert fc.functors[msq.unit].obj_map == (0, 0)


def test_transport_discrete_two_over_z2():
    report = transport_along_power(discrete_category(2),
                                   compute_centre(two_group_monoidal(Z2)).piece)
    assert report.transported_report == ()
    assert report.strong_monoidal_report == ()
    assert report.equivalence.is_equivalence, report.equivalence.summary()
    assert report.ok


def test_transport_terminal_is_identity_shaped():
    report = transport_along_power(terminal_category(),
                                   compute_centre(two_group_monoidal(Z3)).piece)
    assert report.ok
    assert report.comparison.src.n_objects == report.comparison.dst.n_objects == 3


def test_transport_refuses_an_invalid_piece():
    # criterion 9b's piece: gamma at x = 1 moved to the wrong endpoints
    ms = two_group_monoidal(Z2)
    piece = canonical_piece(compute_centre(ms), ms)
    piece.gamma[(0, 1)] = ms.base.id_of(1 - ms.base.dst(piece.gamma[(0, 1)]))
    with pytest.raises(ValueError) as err:
        transport_along_power(discrete_category(2), piece)
    assert str(err.value) == ("input centre piece is invalid: "
                              "gamma at (s=0, x=1) has wrong endpoints")


def test_transport_can_miss_objects_of_the_centre_of_the_power():
    # the semion 2-group's centre has one object over each component, so
    # [discrete 2, Z_A] has 4.  A half-braiding on an object of A x A may
    # twist each factor by a character Z2 -> Aut = Z2 of the other
    # factor's component: 2 x 2 choices over each of those 4 objects, 16 in
    # all, and the comparison is fully faithful but reaches only 4 of them
    ms = cocycle_two_group(z2_nontrivial_cocycle(), 2)
    report = transport_along_power(discrete_category(2), compute_centre(ms).piece)
    assert report.transported_report == ()
    assert report.strong_monoidal_report == ()
    eq = report.equivalence
    assert (eq.faithful, eq.full, eq.essentially_surjective) == (True, True, False)
    assert (report.comparison.src.n_objects, report.comparison.dst.n_objects) == (4, 16)


# -- coproduct preservation -------------------------------------------------

@pytest.mark.parametrize("U,V,ms", [
    (terminal_category(), terminal_category(), two_group_monoidal(Z2)),
    (terminal_category(), empty_category(), two_group_monoidal(Z2)),
    (discrete_category(2), discrete_category(2), chain_poset_monoidal(2)),
])
def test_cp_sends_coproducts_to_products(U, V, ms):
    rep = check_cp_preserves_coproducts(U, V, ms)
    assert rep.verdict == "equivalence", rep.equivalence.summary()
    assert rep.left_objects == rep.right_objects


def test_cp_coproduct_counts_poset_case():
    rep = check_cp_preserves_coproducts(discrete_category(2), discrete_category(2),
                                        chain_poset_monoidal(2))
    assert rep.left_objects == 16
    assert rep.comparison.src.n_morphisms == 81
