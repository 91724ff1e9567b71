import pytest
from hypothesis import given, settings, strategies as st

from monocentre.config import GuardConfig, SizeGuardExceeded
from monocentre.examples import (
    Z2, Z3, two_group_monoidal, chain_poset_monoidal,
)
from monocentre.convolution import (
    SetFunctor, validate_set_functor, check_set_transf, is_bijection_family,
    yoneda_functor, day_convolve,
    left_unit_components, right_unit_components, yoneda_components,
    cardinality_check,
)

POSET = chain_poset_monoidal(2)


def discrete_functor(cat, sizes):
    maps = [tuple(range(sizes[cat.src(m)])) for m in cat.morphisms]
    return SetFunctor(cat, sizes, maps)


def poset_functor(s0, s1, arrow_map):
    return SetFunctor(POSET.base, (s0, s1),
                      (tuple(range(s0)), tuple(arrow_map), tuple(range(s1))))


def test_set_functor_validation():
    F = poset_functor(2, 3, (1, 2))
    assert validate_set_functor(F) == []
    broken = SetFunctor(POSET.base, (2, 3),
                        (tuple(range(2)), (1, 5), tuple(range(3))))
    assert any("codomain" in line for line in validate_set_functor(broken))
    not_id = SetFunctor(POSET.base, (2, 3),
                        ((1, 0), (1, 2), tuple(range(3))))
    assert any("identity" in line for line in validate_set_functor(not_id))


def test_yoneda_functors_are_functors():
    for ms in (two_group_monoidal(Z3), POSET):
        for b in ms.base.objects:
            assert validate_set_functor(yoneda_functor(ms.base, b)) == []


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3),
       st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3))
def test_cardinality_law_on_discrete_base(fs, gs):
    ms = two_group_monoidal(Z3)
    day = day_convolve(ms, discrete_functor(ms.base, fs),
                       discrete_functor(ms.base, gs))
    assert cardinality_check(day) == []
    assert validate_set_functor(day.functor) == []


def test_cardinality_check_refuses_nondiscrete():
    F = poset_functor(1, 1, (0,))
    day = day_convolve(POSET, F, F)
    assert cardinality_check(day) == ["cardinality law only applies over a discrete base"]


@pytest.mark.parametrize("ms", [two_group_monoidal(Z2), POSET])
def test_yoneda_law(ms):
    cat = ms.base
    for b in cat.objects:
        for c in cat.objects:
            yb, yc = yoneda_functor(cat, b), yoneda_functor(cat, c)
            ybc = yoneda_functor(cat, ms.tensor_obj(b, c))
            day = day_convolve(ms, yb, yc)
            comps = yoneda_components(day, b, c)
            assert is_bijection_family(day.functor, ybc, comps)
            assert check_set_transf(day.functor, ybc, comps) == []


@pytest.mark.parametrize("ms,F", [
    (two_group_monoidal(Z3), None),
    (POSET, None),
])
def test_unit_laws(ms, F):
    if F is None:
        F = (discrete_functor(ms.base, (2, 1, 3)) if ms.base.n_objects == 3
             else poset_functor(2, 3, (0, 2)))
    J = yoneda_functor(ms.base, ms.unit)
    left = day_convolve(ms, J, F)
    comps = left_unit_components(left)
    assert is_bijection_family(left.functor, F, comps)
    assert check_set_transf(left.functor, F, comps) == []
    right = day_convolve(ms, F, J)
    comps = right_unit_components(right)
    assert is_bijection_family(right.functor, F, comps)
    assert check_set_transf(right.functor, F, comps) == []


def test_empty_factor_gives_empty_convolution():
    ms = two_group_monoidal(Z2)
    empty = discrete_functor(ms.base, (0, 0))
    other = discrete_functor(ms.base, (3, 1))
    day = day_convolve(ms, empty, other)
    assert day.functor.sizes == (0, 0)


def test_generator_guard():
    ms = two_group_monoidal(Z3)
    big = discrete_functor(ms.base, (3, 3, 3))
    with pytest.raises(SizeGuardExceeded, match=r"convolution generators needs more than "
                                                r"10 steps, limit 10 \(raise max_branch\)"):
        day_convolve(ms, big, big, GuardConfig(max_branch=10))


def test_relation_guard():
    # 28 generators, then 56 relation steps
    F = poset_functor(2, 2, (0, 1))
    with pytest.raises(SizeGuardExceeded, match=r"convolution relations needs more than "
                                                r"40 steps, limit 40 \(raise max_branch\)"):
        day_convolve(POSET, F, F, GuardConfig(max_branch=40))
    assert day_convolve(POSET, F, F, GuardConfig(max_branch=56)).functor.sizes == (4, 4)
