"""The report rule of the set-level checks.

A check returns a list of failure messages, empty iff its input passes.
Structural failures (missing, misplaced or non-invertible cells, tables of
the wrong shape) are reported on their own, since the laws read those
cells; a report holds at most 12 lines, the first ones in scan order.
The negative paths below pin the exact messages, and the architecture
test keeps the cap in one place.

Size refusals follow one rule too: GuardConfig.bound (or a Budget) raises
every SizeGuardExceeded, and each message ends "(raise <guard>)".
"""

import ast
import pathlib

import pytest

from monocentre.bilimits import (
    TruncatedCosimplicial, descent_object, iso_inserter, validate_cosimplicial,
)
from monocentre.centre import (
    BraidingDatum, CentrePiece, check_braiding, check_centre_piece, compute_centre,
)
from monocentre.pieces import (
    check_birepresentation, check_cp_preserves_coproducts, enumerate_centre_pieces,
)
from monocentre.config import GuardConfig, SizeGuardExceeded
from monocentre.convolution import SetFunctor, check_set_transf, validate_set_functor
from monocentre.fincat import (
    FinCategory, Functor, NatTransf, check_equivalence, discrete_category, product_category,
    terminal_category,
    walking_arrow, validate_category, validate_functor, validate_nat_transf,
)
from monocentre.hochschild import build_hochschild
from monocentre.examples import (
    Z1, Z2, Z4, S3, chain_poset_monoidal, two_group_monoidal,
)
from monocentre.monoidal import (
    MonoidalStructure, check_strict_monoidal, group_table_report, validate_monoidal,
)
from monocentre.graded import (
    Cocycle3, GradedObject, Group, HalfBraidingLin, check_cocycle, check_half_braiding,
    trivial_cocycle, z2_nontrivial_cocycle,
)
from monocentre.veck import centre_simples

from helpers import (
    cocycle_two_group, group_category, identity_braiding, identity_functor,
    unit_and_s3_monoidal,
)

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "monocentre"


def cyclic_table(n):
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def semidirect_monoidal():
    """Objects Z2, hom(g, g) = Z3 as morphisms 3 g + a, and the strict
    tensor (g, a) (x) (h, b) = (g + h, a + (-1)^g b): the object 1 acts on
    endomorphisms by negation, so tensoring with it on the left is not
    tensoring with it on the right."""
    mors = [(g, a) for g in range(2) for a in range(3)]
    comp = {(3 * g + a, 3 * g + b): 3 * g + (a + b) % 3
            for g in range(2) for a in range(3) for b in range(3)}
    cat = FinCategory(2, [g for g, _ in mors], [g for g, _ in mors], (0, 3), comp)
    tmor = {(3 * g + a, 3 * h + b): 3 * (g ^ h) + (a + (-1) ** g * b) % 3
            for g, a in mors for h, b in mors}
    alpha = {(a, b, c): 3 * (a ^ b ^ c) for a in range(2) for b in range(2) for c in range(2)}
    return MonoidalStructure(cat, ((0, 1), (1, 0)), tmor, 0, alpha, (0, 3), (0, 3))


def point_piece(ms, a, components):
    """The piece over the terminal category at the object a."""
    u = Functor(terminal_category(), ms.base, (a,), (ms.base.id_of(a),))
    return CentrePiece(u, ms, {(0, x): m for x, m in enumerate(components)})


def test_semidirect_fixture_is_monoidal():
    ms = semidirect_monoidal()
    assert validate_category(ms.base) == []
    assert validate_monoidal(ms) == []


# -- pinned negative paths ----------------------------------------------------


def test_functor_not_preserving_composition():
    F = Functor(group_category(cyclic_table(3)), group_category(Z2), (0,), (0, 1, 1))
    assert validate_functor(F) == ["composition not preserved on (1, 1)",
                                   "composition not preserved on (2, 2)"]


def test_transformation_not_natural():
    idS = identity_functor(group_category(S3))
    assert validate_nat_transf(NatTransf(idS, idS, (3,))) == [
        "naturality fails at morphism 1", "naturality fails at morphism 2",
        "naturality fails at morphism 5"]


def test_piece_not_natural_in_the_second_argument():
    ms = semidirect_monoidal()
    report = check_centre_piece(point_piece(ms, 1, (3, 0)))
    assert report == [f"gamma not natural in the second argument at (s=0, f={f})"
                      for f in (1, 2, 4, 5)]


def test_piece_not_natural_in_the_first_argument():
    ms = two_group_monoidal(Z1, 2)
    # the arrow of the walking arrow goes to the flip, and the two ends
    # carry different half-braidings
    u = Functor(walking_arrow(), ms.base, (0, 0), (0, 0, 1))
    report = check_centre_piece(CentrePiece(u, ms, {(0, 0): 0, (1, 0): 1}))
    assert report == ["gamma not natural in the first argument at (f=2, x=0)",
                      "multiplicativity fails at (s=1, x=0, y=0)"]


def test_piece_morphism_condition_fails():
    ms = semidirect_monoidal()
    p = point_piece(ms, 0, (0, 3))
    assert check_centre_piece(p) == []
    # the endomorphism 1 of the object 0 does not commute with tensoring
    # by 1, so among the endomorphisms of p in CP only the identity is kept
    cp = enumerate_centre_pieces(terminal_category(), ms)
    i = cp.piece_index[p.key()]
    assert [comps for s, d, comps in cp.mor_table if s == d == i] == [(0,)]


def test_birepresentation_holds_where_pieces_have_non_central_transformations():
    # Fun(U, Z(A)) has no morphism over the non-central endomorphisms of
    # the semidirect fixture, so CP(U, A) must drop them too
    ms = semidirect_monoidal()
    for U in (terminal_category(), discrete_category(2)):
        assert check_birepresentation(U, ms).verdict == "equivalence"


def test_missing_braiding_cell_is_reported_alone():
    ms = two_group_monoidal(Z2)
    br = BraidingDatum(ms, {(0, 0): 0, (0, 1): 1, (1, 0): 1})
    assert check_braiding(br) == ["braiding missing at (1, 1)"]


def test_tensor_of_objects_is_reported_before_the_laws():
    # swapping 1 and 2 of Z4 breaks the tensor of morphisms and the
    # associator too, but those laws read the tensor of objects
    ms = two_group_monoidal(Z4)
    swap = Functor(ms.base, ms.base, (0, 2, 1, 3), (0, 2, 1, 3))
    assert check_strict_monoidal(swap, ms, ms) == [
        "tensor of objects not preserved at (1, 1)",
        "tensor of objects not preserved at (1, 3)",
        "tensor of objects not preserved at (2, 2)",
        "tensor of objects not preserved at (2, 3)",
        "tensor of objects not preserved at (3, 1)",
        "tensor of objects not preserved at (3, 2)",
        "tensor of objects not preserved at (3, 3)"]


def test_strict_check_names_an_unpreserved_associator():
    # the identity keeps the object, the tensor and the unitors, and only
    # the associator changes (from the identity to s)
    ms = two_group_monoidal(Z1, 2)
    broken = two_group_monoidal(Z1, 2, [[[1]]])
    assert check_strict_monoidal(identity_functor(ms.base), ms, broken) == [
        "associator not preserved at (0, 0, 0)"]


def test_missing_gamma_cell_is_reported_alone():
    ms = two_group_monoidal(Z2)
    u = Functor(terminal_category(), ms.base, (0,), (0,))
    assert check_centre_piece(CentrePiece(u, ms, {(0, 0): 0})) == [
        "gamma missing at (s=0, x=1)"]


def test_piece_whose_u_is_not_a_functor_is_reported_before_naturality():
    # the walking arrow's 0 -> 1 goes to the poset's 0 -> 1 although both
    # of its ends go to 1: the naturality scan would compose across it
    ms = chain_poset_monoidal(2)
    u = Functor(walking_arrow(), ms.base, (1, 1), (2, 2, 1))
    gamma = {(s, x): ms.base.id_of(ms.tensor_obj(1, x)) for s in range(2) for x in range(2)}
    report = check_centre_piece(CentrePiece(u, ms, gamma))
    assert report[0] == "u is not a functor: morphism 2 maps to 1 with wrong endpoints"
    other = Functor(walking_arrow(), walking_arrow(), (0, 1), (0, 1, 2))
    assert check_centre_piece(CentrePiece(other, ms, gamma)) == [
        "u does not land in the base category"]


# -- bifunctoriality and naturality, one variable at a time --------------------
#
# unit_and_s3_monoidal(product) has the unit 0 and an object 1 whose
# endomorphisms 1..6 are S3 (1 its identity).  With the left projection
# f (x) g = f, the right translation by 1 is the identity on End(1) and
# the left one sends all of it to the identity 1, so changing one cell to the transposition 2
# breaks naturality in exactly one variable.  With the constant product,
# the identity braiding is a braiding, and a component over the unit and
# 1 changed to 2 fails in exactly one variable.


def with_cells(ms, tensor_mor=(), alpha=(), lam=None, rho=None):
    """ms with the given entries of the tensor of morphisms, the
    associator and the unitors replaced."""
    return MonoidalStructure(ms.base, ms.tensor_obj_table,
                             {**ms.tensor_mor_table, **dict(tensor_mor)}, ms.unit,
                             {**ms.alpha_table, **dict(alpha)}, lam or ms.lam_table,
                             rho or ms.rho_table)


def left_projection():
    return unit_and_s3_monoidal(lambda f, g: f)


S3_NONCOMMUTING = ((2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 4), (4, 2), (4, 6), (5, 2),
                   (5, 3), (6, 2), (6, 5))


def test_s3_fixtures_are_monoidal_and_braided():
    assert validate_monoidal(left_projection()) == []
    constant = unit_and_s3_monoidal(lambda f, g: 0)
    assert validate_monoidal(constant) == []
    assert check_braiding(identity_braiding(constant)) == []


def test_left_translation_not_a_functor():
    # 1_1 (x) 2 should be 1: the left translation by 1 then fixes 2 alone
    report = validate_monoidal(with_cells(left_projection(), tensor_mor={(1, 2): 2}))
    assert report == ["left translation 1 (x) - is not a functor: composition not preserved "
                      f"on {pair}" for pair in S3_NONCOMMUTING]


def test_right_translation_not_a_functor():
    # 2 (x) 1_1 should be 2
    report = validate_monoidal(with_cells(left_projection(), tensor_mor={(2, 1): 1}))
    assert report == ["right translation - (x) 1 is not a functor: composition not preserved "
                      f"on {pair}" for pair in S3_NONCOMMUTING]


def test_tensor_failing_only_interchange():
    # no translation reads 2 (x) 3, which should be 2
    report = validate_monoidal(with_cells(left_projection(), tensor_mor={(2, 3): 3}))
    assert report == ["tensor fails the interchange law at (2, 3)"]


@pytest.mark.parametrize("cell,witnesses,coherence", [
    ((1, 1, 0), [(f, 1, 0) for f in (3, 4, 5, 6)], "pentagon fails at objects (1, 1, 0, 0)"),
    ((0, 1, 0), [(0, f, 0) for f in (3, 4, 5, 6)], "pentagon fails at objects (0, 0, 1, 0)"),
    ((0, 0, 1), [(0, 0, f) for f in (3, 4, 5, 6)], "triangle fails at objects (0, 1)"),
], ids=["first", "second", "third"])
def test_associator_not_natural_in_one_variable(cell, witnesses, coherence):
    # the component at cell becomes 2, which commutes with 1 and 2 only;
    # the held places of each witness are identities
    report = validate_monoidal(with_cells(left_projection(), alpha={cell: 2}))
    assert report == [f"associator not natural at morphisms {w}" for w in witnesses] + [
        coherence]


@pytest.mark.parametrize("name,cells,triangle", [
    ("left unitor", dict(lam=(0, 2)), "(0, 1)"), ("right unitor", dict(rho=(0, 2)), "(1, 0)"),
], ids=["left", "right"])
def test_unitor_not_natural(name, cells, triangle):
    report = validate_monoidal(with_cells(left_projection(), **cells))
    assert report == [f"{name} not natural at morphism {f}" for f in (3, 4, 5, 6)] + [
        f"triangle fails at objects {triangle}"]


@pytest.mark.parametrize("component,naturality,hexagons", [
    ((1, 0), [f"in the first argument at (f={f}, x=0)" for f in (3, 4, 5, 6)],
     ["multiplicativity fails at (s=1, x=0, y=0)", "second hexagon fails at (1, 1, 0)"]),
    ((0, 1), [f"in the second argument at (s=0, f={f})" for f in (3, 4, 5, 6)],
     ["multiplicativity fails at (s=0, x=1, y=1)", "second hexagon fails at (0, 0, 1)"]),
], ids=["first", "second"])
def test_braiding_not_natural_in_one_variable(component, naturality, hexagons):
    # c(1, 0) is natural in the second variable, as the unit has no other
    # endomorphism, and c(0, 1) in the first.  c is checked as the centre
    # piece a -> c(a, -) over the identity: its first argument is a, and
    # the first hexagon at (a, b, c) is multiplicativity at (s=a, x=b, y=c)
    br = identity_braiding(unit_and_s3_monoidal(lambda f, g: 0))
    report = check_braiding(BraidingDatum(br.ms, {**br.table, component: 2}))
    assert report == [f"gamma not natural {w}" for w in naturality] + hexagons


# -- the cap ---------------------------------------------------------------------


def _all_to_one():
    """Every morphism of Z6 to the non-identity of Z2: identities and all
    36 composites fail."""
    return Functor(group_category(cyclic_table(6)), group_category(Z2), (0,), (1,) * 6)


def _cosimplicial_all_broken():
    F = _all_to_one()
    X, Y = F.src, F.dst
    cell = NatTransf(identity_functor(Y), identity_functor(Y), (0,))
    return TruncatedCosimplicial(X, Y, Y, F, F, F, F, F, cell, cell, cell)


def _regular(n):
    """Z_n acting on itself by translation, as a set functor."""
    return SetFunctor(group_category(cyclic_table(n)), (n,), cyclic_table(n))


def _broken_monoidal_tables():
    ms = two_group_monoidal(Z4)
    return MonoidalStructure(ms.base, ms.tensor_obj_table, {}, ms.unit,
                             ms.alpha_table, ms.lam_table, ms.rho_table)


MAXIMALLY_BROKEN = {
    # 16 missing composites and 8 identity-law failures
    "validate_category": lambda: validate_category(
        FinCategory(1, (0,) * 4, (0,) * 4, (0,), {})),
    "validate_functor": lambda: validate_functor(_all_to_one()),
    # naturality fails at the 15 non-identities
    "validate_nat_transf": lambda: validate_nat_transf(NatTransf(
        identity_functor(group_category(cyclic_table(16))),
        Functor(group_category(cyclic_table(16)), group_category(cyclic_table(16)),
                (0,), (0,) * 16), (0,))),
    "validate_cosimplicial": lambda: validate_cosimplicial(_cosimplicial_all_broken()),
    # 16 missing tensor_mor entries
    "validate_monoidal": lambda: validate_monoidal(_broken_monoidal_tables()),
    "check_braiding": lambda: check_braiding(
        BraidingDatum(two_group_monoidal(Z4), {})),
    # the constant functor at 1 preserves neither the unit nor any tensor
    "check_strict_monoidal": lambda: check_strict_monoidal(
        Functor(two_group_monoidal(Z4).base, two_group_monoidal(Z4).base,
                (1,) * 4, (1,) * 4), two_group_monoidal(Z4), two_group_monoidal(Z4)),
    # a point misses the other 19 objects
    "check_equivalence": lambda: check_equivalence(Functor(
        terminal_category(), discrete_category(20), (0,), (0,))).witnesses,
    "check_centre_piece": lambda: check_centre_piece(CentrePiece(
        Functor(discrete_category(4), two_group_monoidal(Z4).base, (0,) * 4, (0,) * 4),
        two_group_monoidal(Z4), {})),
    # every map constant: identities and composites fail
    "validate_set_functor": lambda: validate_set_functor(SetFunctor(
        group_category(cyclic_table(16)), (2,), ((0, 0),) * 16)),
    # the constant component is natural only at the identity
    "check_set_transf": lambda: check_set_transf(_regular(16), _regular(16), ((0,) * 16,)),
    # max is associative with identity 0, and only 0 is invertible
    "group_table_report": lambda: group_table_report(
        tuple(tuple(max(a, b) for b in range(16)) for a in range(16))),
    # not normalized at every tuple through the identity
    "check_cocycle": lambda: check_cocycle(Cocycle3(
        Group(Z4), 2, [[[1] * 4 for _ in range(4)] for _ in range(4)])),
    # grading mismatches in every nontrivial class
    "check_half_braiding": lambda: check_half_braiding(HalfBraidingLin(
        trivial_cocycle(Group(S3)), GradedObject((1, 2, 3, 4, 5, 6)), {})),
}


@pytest.mark.parametrize("check", sorted(MAXIMALLY_BROKEN))
def test_every_report_holds_at_most_twelve_lines(check):
    report = MAXIMALLY_BROKEN[check]()
    assert 0 < len(report) <= 12, report


# -- architecture ----------------------------------------------------------------


def test_only_config_names_the_report_cap():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = (node.id if isinstance(node, ast.Name)
                     else node.attr if isinstance(node, ast.Attribute)
                     else node.name if isinstance(node, ast.alias) else None)
            if named == "_REPORT_CAP":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == [], "_REPORT_CAP named outside config.py: " + ", ".join(offenders)


def test_only_config_raises_size_guard_exceeded():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            named = (exc.id if isinstance(exc, ast.Name)
                     else exc.attr if isinstance(exc, ast.Attribute) else None)
            if named == "SizeGuardExceeded":
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == [], "SizeGuardExceeded raised outside config.py: " + ", ".join(offenders)


def _constant_diagram(A):
    idA = identity_functor(A)
    cell = NatTransf(idA, idA, tuple(A.id_of(a) for a in A.objects))
    return TruncatedCosimplicial(A, A, A, idA, idA, idA, idA, idA, cell, cell, cell)


# (guard, its limit, the stage it refuses, a construction that the limit
# refuses)
SIZE_REFUSALS = {
    "centre objects": (
        "max_objects", 2, "centre objects",
        lambda cfg: compute_centre(two_group_monoidal(Z4), cfg)),
    "centre morphisms": (
        "max_morphisms", 2, "centre morphisms",
        lambda cfg: compute_centre(two_group_monoidal(Z4), cfg)),
    "coproduct category": (
        "max_objects", 1, "coproduct category objects",
        lambda cfg: check_cp_preserves_coproducts(
            discrete_category(2), discrete_category(2), chain_poset_monoidal(2), cfg)),
    "product objects": (
        "max_objects", 8, "product category objects",
        lambda cfg: product_category(discrete_category(3), discrete_category(3), cfg)),
    "product morphisms": (
        "max_morphisms", 8, "product category morphisms",
        lambda cfg: product_category(discrete_category(3), discrete_category(3), cfg)),
    "translation level one": (
        "max_objects", 10, "translation level one objects",
        lambda cfg: build_hochschild(two_group_monoidal(S3), cfg)),
    # level two is never larger than the product A x A built before it
    "translation level two": (
        "max_branch", 500, "translation level two morphism enumeration",
        lambda cfg: build_hochschild(two_group_monoidal(S3), cfg)),
    "inserter": (
        "max_objects", 1, "inserter objects",
        lambda cfg: iso_inserter(identity_functor(discrete_category(2)),
                                 identity_functor(discrete_category(2)), cfg)),
    # the descent object's inserter is bounded as soon as level one is
    # built: here its 8 objects before A x A's 4
    "inserter from level one": (
        "max_objects", 3, "inserter objects",
        lambda cfg: build_hochschild(cocycle_two_group(z2_nontrivial_cocycle(), 2), cfg)),
    "descent": (
        "max_objects", 2, "descent objects",
        lambda cfg: descent_object(_constant_diagram(discrete_category(3)), cfg)),
    "centre pieces": (
        "max_objects", 4, "centre piece objects",
        lambda cfg: enumerate_centre_pieces(
            discrete_category(2), two_group_monoidal(Z4), cfg)),
    # CP lies over the full functor subcategory on its pieces' functors
    "centre piece functors": (
        "max_morphisms", 4, "centre piece functor morphisms",
        lambda cfg: enumerate_centre_pieces(
            discrete_category(2), two_group_monoidal(Z4), cfg)),
    "group order": (
        "vec_max_group", 2, "group order",
        lambda cfg: centre_simples(trivial_cocycle(Group(Z4)), cfg)),
}


@pytest.mark.parametrize("stage", sorted(SIZE_REFUSALS))
def test_every_size_refusal_names_the_guard_to_raise(stage):
    guard, limit, what, build = SIZE_REFUSALS[stage]
    with pytest.raises(SizeGuardExceeded) as err:
        build(GuardConfig(**{guard: limit}))
    assert err.value.what == what, str(err.value)
    assert str(err.value).endswith(f", limit {limit} (raise {guard})"), str(err.value)


# (stage, objects it needs, a construction whose objects and morphisms
# both exceed a limit of 1)
OBJECTS_FIRST = {
    "centre": (4, lambda cfg: compute_centre(two_group_monoidal(Z4), cfg)),
    "inserter": (2, lambda cfg: iso_inserter(
        identity_functor(discrete_category(2)), identity_functor(discrete_category(2)), cfg)),
    "descent": (3, lambda cfg: descent_object(_constant_diagram(discrete_category(3)), cfg)),
    "centre piece": (16, lambda cfg: enumerate_centre_pieces(
        discrete_category(2), two_group_monoidal(Z4), cfg)),
    "coproduct category": (4, lambda cfg: check_cp_preserves_coproducts(
        discrete_category(2), discrete_category(2), chain_poset_monoidal(2), cfg)),
}


@pytest.mark.parametrize("stage", sorted(OBJECTS_FIRST))
def test_objects_are_refused_before_morphisms(stage):
    needed, build = OBJECTS_FIRST[stage]
    with pytest.raises(SizeGuardExceeded) as err:
        build(GuardConfig(max_objects=1, max_morphisms=1))
    assert str(err.value) == (f"size guard exceeded: {stage} objects needs {needed}, "
                              "limit 1 (raise max_objects)")
