"""Acceptance gate: eleven criteria, one test (and one pytest -v line) each.

Every test does its own wall-clock accounting and fails if it exceeds
the stated budget, so a pass line certifies both the mathematics and
the runtime.  All checks are exact; there are no tolerances anywhere.
"""

import random
import time
from collections import Counter

from monocentre.centre import CentrePiece, check_centre_piece, compute_centre
from monocentre.pieces import (
    check_birepresentation, check_cp_preserves_coproducts, transport_along_power,
)
from monocentre.convolution import (
    SetFunctor,
    cardinality_check,
    check_set_transf,
    day_convolve,
    is_bijection_family,
    yoneda_components,
    yoneda_functor,
)
from monocentre.fincat import (
    Functor,
    discrete_category,
    empty_category,
    terminal_category,
    walking_arrow,
)
from monocentre.hochschild import build_hochschild, verify_prop_3_1
from monocentre.examples import (
    S3,
    Z1,
    Z2,
    Z3,
    Z4,
    chain_poset_monoidal,
    two_group_monoidal,
)
from monocentre.monoidal import validate_monoidal
from monocentre.graded import (
    Cocycle3,
    Group,
    HalfBraidingLin,
    check_cocycle,
    check_half_braiding,
    delta_object,
    group_centre,
    half_braiding_space,
    trivial_cocycle,
    z2_nontrivial_cocycle,
)
from monocentre.battery import certify_centre_structure
from monocentre.veck import centre_simples
from monocentre.cyclo import zeta

from helpers import cocycle_two_group, one_dimensional_centres, type_i_cocycle


def _budget(start, limit, label):
    elapsed = time.perf_counter() - start
    print(f"{label}: PASS in {elapsed:.2f}s (budget {limit}s)")
    assert elapsed < limit, f"{label} took {elapsed:.2f}s, budget {limit}s"


def test_criterion_01_braided_centre_suite():
    start = time.perf_counter()
    for table in (Z2, Z3, Z4, S3):
        Z = compute_centre(two_group_monoidal(table))
        assert Z.all_passed, [c.name for c in Z.certificates if not c.ok]
    Z = compute_centre(chain_poset_monoidal(2))
    assert Z.all_passed
    ok_names = {c.name for c in Z.certificates if c.ok}
    assert "centre monoidal structure (incl. pentagon, triangle)" in ok_names
    assert "braiding naturality and hexagons" in ok_names
    assert "projection strong monoidal" in ok_names
    assert "projection faithful" in ok_names
    for omega in (trivial_cocycle(Group(Z2)), z2_nontrivial_cocycle()):
        result = centre_simples(omega)
        assert result.all_passed
        certs = certify_centre_structure(result)
        assert all(c.ok for c in certs), [c.name for c in certs if not c.ok]
        names = {c.name for c in certs}
        for needle in ("pentagon", "triangle", "hexagon 1", "hexagon 2",
                       "naturality", "monoidality", "faithfulness"):
            assert any(needle in n for n in names), needle
    _budget(start, 10.0, "criterion 1 (braided centre suite)")


def test_criterion_02_birepresentation():
    start = time.perf_counter()
    for U in (terminal_category(), discrete_category(2), walking_arrow()):
        for ms in (two_group_monoidal(Z2), chain_poset_monoidal(2)):
            assert check_birepresentation(U, ms).verdict == "equivalence"
    _budget(start, 30.0, "criterion 2 (universal property)")


def test_criterion_03_descent_equivalence():
    start = time.perf_counter()
    from monocentre.bilimits import descent_object
    for ms in (two_group_monoidal(Z2), two_group_monoidal(S3),
               chain_poset_monoidal(2)):
        rep = verify_prop_3_1(ms)
        assert rep.verdict == "equivalence", rep.obstructions
        # descent_object recomputes the limit through the
        # inserter-then-equifier pipeline and refuses if the two routes
        # disagree; rebuilding here covers the same diagrams explicitly
        D = descent_object(build_hochschild(ms).diagram)
        assert D.category.n_objects == rep.descent.category.n_objects
    _budget(start, 300.0, "criterion 3 (descent equals centre)")


def test_criterion_04_group_centre_oracle():
    start = time.perf_counter()
    for table, want in ((Z2, 2), (Z3, 3), (Z4, 4), (S3, 1)):
        Z = compute_centre(two_group_monoidal(table))
        assert Z.category.n_objects == want
        assert {o.a for o in Z.objects} == set(group_centre(table))
    _budget(start, 1.0, "criterion 4 (group-centre oracle)")


def test_criterion_05_power_transport():
    start = time.perf_counter()
    rep = transport_along_power(discrete_category(2),
                                compute_centre(two_group_monoidal(Z2)).piece)
    assert rep.transported_report == ()
    assert rep.strong_monoidal_report == ()
    assert rep.equivalence.is_equivalence, rep.equivalence.summary()
    assert rep.ok
    _budget(start, 10.0, "criterion 5 (transport along powers)")


def test_criterion_06_coproduct_preservation():
    start = time.perf_counter()
    triples = (
        (terminal_category(), terminal_category(), two_group_monoidal(Z2)),
        (terminal_category(), empty_category(), two_group_monoidal(Z2)),
        (discrete_category(2), discrete_category(2), chain_poset_monoidal(2)),
    )
    for U, V, ms in triples:
        assert check_cp_preserves_coproducts(U, V, ms).verdict == "equivalence"
    _budget(start, 30.0, "criterion 6 (coproducts to products)")


def test_criterion_07_day_convolution():
    start = time.perf_counter()
    for ms in (two_group_monoidal(Z2), chain_poset_monoidal(2)):
        cat = ms.base
        for b in cat.objects:
            for c in cat.objects:
                day = day_convolve(ms, yoneda_functor(cat, b),
                                   yoneda_functor(cat, c))
                target = yoneda_functor(cat, ms.tensor_obj(b, c))
                comp = yoneda_components(day, b, c)
                assert check_set_transf(day.functor, target, comp) == []
                assert is_bijection_family(day.functor, target, comp)
    ms = two_group_monoidal(Z3)
    rng = random.Random(20260816)
    for _ in range(10):
        fs = [rng.randrange(4) for _ in range(3)]
        gs = [rng.randrange(4) for _ in range(3)]
        F = SetFunctor(ms.base, fs,
                       [tuple(range(fs[ms.base.src(m)]))
                        for m in ms.base.morphisms])
        G = SetFunctor(ms.base, gs,
                       [tuple(range(gs[ms.base.src(m)]))
                        for m in ms.base.morphisms])
        assert cardinality_check(day_convolve(ms, F, G)) == []
    _budget(start, 5.0, "criterion 7 (Day convolution laws)")


def _character_count(table, class_rep):
    cent = list(Group(table).centralizer(class_rep))
    sub = tuple(tuple(cent.index(table[a][b]) for b in cent) for a in cent)
    return len(Group(sub).classes)


def test_criterion_08_linear_backend():
    start = time.perf_counter()
    for omega in (trivial_cocycle(Group(Z2)), z2_nontrivial_cocycle()):
        result = centre_simples(omega)
        assert len(result.simples) == 4 and result.all_passed
        brute = sum(len(half_braiding_space(delta_object(2, g), omega))
                    for g in range(2))
        assert brute == 4
    _budget(start, 10.0, "criterion 8a (Z(Vec_Z2), both cocycles)")
    start = time.perf_counter()
    result = centre_simples(trivial_cocycle(Group(S3)))
    assert len(result.simples) == 8
    assert result.sum_of_squares == 36
    assert result.complete and result.all_passed
    per_class = Counter(s.class_rep for s in result.simples)
    oracle = {r: _character_count(S3, r) for r in (0, 1, 3)}
    assert oracle == {0: 3, 1: 2, 3: 3}
    assert dict(per_class) == oracle
    _budget(start, 600.0, "criterion 8b (Z(Vec_S3) untwisted)")


def test_criterion_09_negative_controls():
    start = time.perf_counter()
    report = validate_monoidal(two_group_monoidal(Z1, 2, [[[1]]]))
    assert report and report[0] == "pentagon fails at objects (0, 0, 0, 0)"
    _budget(start, 1.0, "criterion 9a (corrupted pentagon)")

    start = time.perf_counter()
    ms = two_group_monoidal(Z2)
    o = compute_centre(ms).objects[0]
    u = Functor(terminal_category(), ms.base, (o.a,), (ms.base.id_of(o.a),))
    gamma = {(0, x): o.gamma[x] for x in ms.base.objects}
    gamma[(0, 1)] = ms.base.id_of(1 - ms.base.dst(gamma[(0, 1)]))
    bad = check_centre_piece(CentrePiece(u, ms, gamma))
    assert bad and bad[0] == "gamma at (s=0, x=1) has wrong endpoints"
    omega = trivial_cocycle(Group(Z2))
    order = omega.field_order
    two = zeta(order, 0) + zeta(order, 0)
    hb = HalfBraidingLin(omega, delta_object(2, 1),
                         {(0, 1): ((zeta(order, 0),),), (1, 1): ((two,),)})
    lin_bad = check_half_braiding(hb)
    assert lin_bad and "multiplicativity fails at (x=1, y=1, g=1)" in lin_bad[0]
    _budget(start, 1.0, "criterion 9b (corrupted gamma component)")

    start = time.perf_counter()
    exps = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    exps[1][1][1] = 1
    bad = check_cocycle(Cocycle3(Group(Z3), 3, exps))
    assert bad and "cocycle identity fails at (a=1, b=1, c=1, d=1)" in bad[0]
    _budget(start, 1.0, "criterion 9c (non-cocycle omega)")


def test_criterion_10_cross_backend():
    start = time.perf_counter()
    for table, n in ((Z2, 2), (Z3, 3), (S3, 2)):
        set_level, simples, search = one_dimensional_centres(trivial_cocycle(Group(table)), n)
        assert set_level == simples == search
        assert {g for g, _ in set_level} == set(group_centre(table))
    _budget(start, 30.0, "criterion 10 (set-level 2-group centre vs linear simples)")


def test_criterion_11_two_group_centre():
    # 16 objects and 256 morphisms: the budget holds only if the centre's
    # own monoidal structure is validated one variable at a time, as a scan
    # over every triple of its morphisms (256^3) takes about 35 s
    start = time.perf_counter()
    Z = compute_centre(cocycle_two_group(type_i_cocycle(4), 16))
    assert Z.all_passed, [c.name for c in Z.certificates if not c.ok]
    assert (Z.category.n_objects, Z.category.n_morphisms) == (16, 256)
    _budget(start, 5.0, "criterion 11 (centre of the Z4 type-I 2-group, N = 16)")
