import pytest
from hypothesis import given, settings, strategies as st

from monocentre.config import GuardConfig, SizeGuardExceeded
from monocentre.fincat import (
    FinCategory, Functor, NatTransf, terminal_category,
    discrete_category, walking_arrow, validate_functor, validate_category,
)
from monocentre.monoidal import Z1, two_group_monoidal
from monocentre.bilimits import (
    iso_inserter, equifier,
    TruncatedCosimplicial, validate_cosimplicial, descent_object,
)

from helpers import identity_functor


def one_object_z2():
    return two_group_monoidal(Z1, 2).base


def constant_diagram(A: FinCategory) -> TruncatedCosimplicial:
    idA = identity_functor(A)
    cell = NatTransf(idA, idA, tuple(A.id_of(a) for a in A.objects))
    return TruncatedCosimplicial(A, A, A, idA, idA, idA, idA, idA,
                                 cell, cell, cell)


def test_inserter_of_identity_pair_is_the_category():
    A = discrete_category(2)
    ins = iso_inserter(identity_functor(A), identity_functor(A))
    assert ins.objects == ((0, 0), (1, 1))
    assert ins.category.n_morphisms == 2
    assert validate_functor(ins.projection) == []


def test_inserter_between_distinct_constants_is_empty():
    pt = terminal_category()
    two = discrete_category(2)
    F = Functor(pt, two, (0,), (0,))
    G = Functor(pt, two, (1,), (1,))
    ins = iso_inserter(F, G)
    assert ins.category.n_objects == 0
    assert ins.category.n_morphisms == 0


def test_inserter_on_one_object_z2():
    C = one_object_z2()
    ins = iso_inserter(identity_functor(C), identity_functor(C))
    # two comparison cells, and morphisms cannot mix them since the group
    # is abelian and the compatibility square forces equal cells
    assert ins.objects == ((0, 0), (0, 1))
    assert ins.category.n_morphisms == 4
    assert validate_category(ins.category) == []


@settings(max_examples=25, deadline=None)
@given(st.permutations(range(4)))
def test_inserter_counts_fixed_points_of_a_permutation(perm):
    A = discrete_category(4)
    F = Functor(A, A, tuple(perm), tuple(perm))
    ins = iso_inserter(identity_functor(A), F)
    assert ins.category.n_objects == sum(1 for i, p in enumerate(perm) if i == p)


def test_inserter_requires_parallel_pair():
    A, B = discrete_category(2), discrete_category(3)
    with pytest.raises(ValueError):
        iso_inserter(identity_functor(A), identity_functor(B))


def test_inserter_guard():
    A = discrete_category(2)
    with pytest.raises(SizeGuardExceeded):
        iso_inserter(identity_functor(A), identity_functor(A),
                     GuardConfig(max_objects=1))


def test_equifier_whole_and_empty():
    C = one_object_z2()
    idC = identity_functor(C)
    same = NatTransf(idC, idC, (0,))
    flip = NatTransf(idC, idC, (1,))
    assert equifier(same, same).kept == (0,)
    assert equifier(same, flip).kept == ()
    collapse = Functor(C, C, (0,), (0, 0))
    with pytest.raises(ValueError):
        equifier(same, NatTransf(collapse, idC, (0,)))


def test_descent_of_constant_diagram_is_the_base():
    for A in (discrete_category(3), walking_arrow()):
        res = descent_object(constant_diagram(A))
        assert res.category.n_objects == A.n_objects
        assert res.category.n_morphisms == A.n_morphisms
        assert all(A.is_identity(m) for _, m in res.objects)


def test_descent_with_twisted_coherence():
    # one object, endomorphisms Z2, identity cofaces, and a flip in the
    # first coherence cell: the gluing iso is forced to the flip
    C = one_object_z2()
    idC = identity_functor(C)
    ident_cell = NatTransf(idC, idC, (0,))
    twist_cell = NatTransf(idC, idC, (1,))
    T = TruncatedCosimplicial(C, C, C, idC, idC, idC, idC, idC,
                              twist_cell, ident_cell, ident_cell)
    assert validate_cosimplicial(T) == []
    res = descent_object(T)
    assert res.objects == ((0, 1),)
    assert res.category.n_morphisms == 2


def test_cosimplicial_validation_rejects_wrong_cell_endpoints():
    A = discrete_category(2)
    idA = identity_functor(A)
    swap = Functor(A, A, (1, 0), (1, 0))
    cell = NatTransf(idA, idA, (0, 1))
    bad = TruncatedCosimplicial(A, A, A, idA, swap, idA, idA, idA,
                                cell, cell, cell)
    report = validate_cosimplicial(bad)
    assert any("does not sit between" in line for line in report)
    with pytest.raises(ValueError):
        descent_object(bad)


def test_descent_guard():
    A = discrete_category(3)
    with pytest.raises(SizeGuardExceeded):
        descent_object(constant_diagram(A), GuardConfig(max_objects=2))


def test_inserter_and_descent_obey_max_morphisms():
    # the walking arrow's inserter and descent object each have its three
    # morphisms; the object guards pass, the morphism guards refuse
    A = walking_arrow()
    cfg = GuardConfig(max_morphisms=2)
    with pytest.raises(SizeGuardExceeded, match=r"inserter morphisms needs 3, limit 2 "
                                                r"\(raise max_morphisms\)$"):
        iso_inserter(identity_functor(A), identity_functor(A), cfg)
    with pytest.raises(SizeGuardExceeded, match=r"descent morphisms needs 3, limit 2 "
                                                r"\(raise max_morphisms\)$"):
        descent_object(constant_diagram(A), cfg)
    cfg = GuardConfig(max_morphisms=3)
    assert iso_inserter(identity_functor(A), identity_functor(A), cfg).category.n_morphisms == 3
    assert descent_object(constant_diagram(A), cfg).category.n_morphisms == 3
