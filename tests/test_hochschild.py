import time
from itertools import permutations

import pytest

from monocentre.config import GuardConfig, SizeGuardExceeded
from monocentre.fincat import Functor, NatTransf, functor_category, product_category
from monocentre.monoidal import (
    Z1, Z2, Z3, S3, D4, Z2_CUBED, two_group_monoidal, chain_poset_monoidal,
)
from monocentre.hochschild import build_hochschild, verify_prop_3_1
from monocentre.bilimits import TruncatedCosimplicial, descent_object
from monocentre.graded import z2_nontrivial_cocycle

from helpers import cocycle_two_group


def _permutation_group(n, even_only=False):
    """Multiplication table of S_n (or A_n), composing right to left."""
    def sign(p):
        return sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2
    perms = [p for p in permutations(range(n)) if not (even_only and sign(p))]
    index = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(index[tuple(p[q[k]] for k in range(n))] for q in perms)
                 for p in perms)


A4 = _permutation_group(4, even_only=True)
S4 = _permutation_group(4)


def _full_translation_diagram(ms):
    """The translation diagram with level one all of [A, A] and level two
    all of [A x A, A], built from the defining formulas."""
    big = GuardConfig(max_objects=20_000, max_morphisms=200_000,
                      max_branch=10_000_000)
    A = ms.base
    prod = product_category(A, A, big)
    P = prod.category
    fc1 = functor_category(A, A, big)
    fc2 = functor_category(P, A, big)
    X1, X2 = fc1.category, fc2.category
    pairs = [prod.obj_pair(o) for o in P.objects]
    mor_pairs = [prod.mor_pair(m) for m in P.morphisms]

    def translation(obj, mor):
        return fc1.functor_index[(tuple(obj(x) for x in A.objects),
                                  tuple(mor(f) for f in A.morphisms))]

    d0_obj = [translation(lambda x: ms.tensor_obj(a, x), lambda f: ms.lwhisk(a, f))
              for a in A.objects]
    d1_obj = [translation(lambda x: ms.tensor_obj(x, a), lambda f: ms.rwhisk(f, a))
              for a in A.objects]
    d0_mor = [fc1.transf_index[(d0_obj[A.src(f)], d0_obj[A.dst(f)],
                                tuple(ms.rwhisk(f, x) for x in A.objects))]
              for f in A.morphisms]
    d1_mor = [fc1.transf_index[(d1_obj[A.src(f)], d1_obj[A.dst(f)],
                                tuple(ms.lwhisk(x, f) for x in A.objects))]
              for f in A.morphisms]
    d0 = Functor(A, X1, d0_obj, d0_mor)
    d1 = Functor(A, X1, d1_obj, d1_mor)

    # (F(x) (x) y), F(x (x) y) and (x (x) F(y)), on objects, morphisms and
    # transformation components
    cofaces = (
        (lambda F, x, y: ms.tensor_obj(F.obj_map[x], y),
         lambda F, f, g: ms.tensor_mor(F.mor_map[f], g),
         lambda eta, x, y: ms.rwhisk(eta.components[x], y)),
        (lambda F, x, y: F.obj_map[ms.tensor_obj(x, y)],
         lambda F, f, g: F.mor_map[ms.tensor_mor(f, g)],
         lambda eta, x, y: eta.components[ms.tensor_obj(x, y)]),
        (lambda F, x, y: ms.tensor_obj(x, F.obj_map[y]),
         lambda F, f, g: ms.tensor_mor(f, F.mor_map[g]),
         lambda eta, x, y: ms.lwhisk(x, eta.components[y])),
    )
    es = []
    for on_obj, on_mor, on_comp in cofaces:
        obj = [fc2.functor_index[(tuple(on_obj(F, x, y) for x, y in pairs),
                                  tuple(on_mor(F, f, g) for f, g in mor_pairs))]
               for F in fc1.functors]
        mor = [fc2.transf_index[(obj[fc1.functor_index[(eta.src.obj_map,
                                                        eta.src.mor_map)]],
                                 obj[fc1.functor_index[(eta.dst.obj_map,
                                                        eta.dst.mor_map)]],
                                 tuple(on_comp(eta, x, y) for x, y in pairs))]
               for eta in fc1.transfs]
        es.append(Functor(X1, X2, obj, mor))
    e0, e1, e2 = es

    def cell(src, dst, component):
        comps = []
        for a in A.objects:
            s, d = src.obj_map[a], dst.obj_map[a]
            comps.append(fc2.transf_index[
                (s, d, tuple(component(a, x, y) for x, y in pairs))])
        return NatTransf(src, dst, comps)

    coh00 = cell(d0.then(e0), d0.then(e1), lambda a, x, y: ms.alpha(a, x, y))
    coh01 = cell(d1.then(e0), d0.then(e2), lambda a, x, y: ms.alpha(x, a, y))
    coh21 = cell(d1.then(e2), d1.then(e1), lambda a, x, y: ms.alpha_inv(x, y, a))
    T = TruncatedCosimplicial(A, X1, X2, d0, d1, e0, e1, e2, coh00, coh01, coh21)
    return T, fc1


@pytest.mark.parametrize("ms", [
    two_group_monoidal(Z2),
    two_group_monoidal(Z3),
    chain_poset_monoidal(2),
    chain_poset_monoidal(3),
    two_group_monoidal(Z1, 2),
], ids=["z2", "z3", "chain2", "chain3", "one_object_z2"])
def test_fibred_descent_equals_descent_over_full_functor_categories(ms):
    T_full, fc1_full = _full_translation_diagram(ms)
    full = descent_object(T_full)
    H = build_hochschild(ms)
    fibred = descent_object(H.diagram)
    # gluing isos live in different level-one categories: compare components
    assert ([(x, H.level1.transfs[m].components) for x, m in fibred.objects]
            == [(x, fc1_full.transfs[m].components) for x, m in full.objects])
    assert fibred.mor_table == full.mor_table
    assert fibred.category == full.category
    assert fibred.projection.mor_map == full.projection.mor_map
    assert len(full.objects) == verify_prop_3_1(ms).centre.category.n_objects


@pytest.mark.parametrize("ms,sizes", [
    (two_group_monoidal(Z2), (2, 2, 2, 2)),
    (two_group_monoidal(Z3), (3, 3, 3, 3)),
    (two_group_monoidal(S3), (11, 11, 16, 16)),
    (chain_poset_monoidal(2), (2, 3, 2, 3)),
    (chain_poset_monoidal(3), (3, 6, 3, 6)),
    (two_group_monoidal(Z1, 2), (1, 2, 1, 2)),
], ids=["z2", "z3", "s3", "chain2", "chain3", "one_object_z2"])
def test_fibred_level_sizes(ms, sizes):
    H = build_hochschild(ms)
    T = H.diagram
    assert (T.X1.n_objects, T.X1.n_morphisms,
            T.X2.n_objects, T.X2.n_morphisms) == sizes
    # level one holds exactly the translations, level two their coface images
    assert set(T.d0.obj_map) | set(T.d1.obj_map) == set(T.X1.objects)
    assert set(T.e0.obj_map) | set(T.e1.obj_map) | set(T.e2.obj_map) == set(T.X2.objects)


def test_cofaces_are_the_two_translations():
    H = build_hochschild(two_group_monoidal(S3))
    fc1 = H.level1
    for a in range(6):
        left = fc1.functors[H.diagram.d0.obj_map[a]]
        right = fc1.functors[H.diagram.d1.obj_map[a]]
        assert left.obj_map == tuple(S3[a][x] for x in range(6))
        assert right.obj_map == tuple(S3[x][a] for x in range(6))


@pytest.mark.parametrize("ms,n_descent", [
    (two_group_monoidal(Z2), 2),
    (two_group_monoidal(Z3), 3),
    (chain_poset_monoidal(2), 2),
    (two_group_monoidal(Z1, 2), 1),
    (two_group_monoidal(D4), 2),
    (two_group_monoidal(Z2_CUBED), 8),
    (two_group_monoidal(A4), 1),
    (two_group_monoidal(S4), 1),
])
def test_descent_matches_centre(ms, n_descent):
    # the product A x A is the largest category built; only A4 and S4 need
    # more than the default max_objects for it
    cfg = GuardConfig(max_objects=max(GuardConfig().max_objects,
                                      ms.base.n_objects ** 2))
    rep = verify_prop_3_1(ms, cfg)
    Z, D = rep.centre.category, rep.descent.category
    assert rep.verdict == "equivalence"
    assert D.n_objects == Z.n_objects == n_descent
    assert rep.comparison is not None
    assert len(set(rep.comparison.obj_map)) == Z.n_objects
    assert len(set(rep.comparison.mor_map)) == D.n_morphisms == Z.n_morphisms
    assert rep.obstructions == ()


@pytest.mark.parametrize("n,sizes", [(2, (2, 4)), (4, (4, 16))])
def test_semion_two_group_has_non_identity_coherence_cells(n, sizes):
    # The associator is not an identity, so the coherence cells enter the
    # descent condition; a cell replaced by identities gives "not an
    # equivalence" on both.  The semion associator is symmetric in its
    # arguments and its own inverse, so this cannot tell alpha from
    # alpha_inv in a cell, nor catch permuted arguments.
    rep = verify_prop_3_1(cocycle_two_group(z2_nontrivial_cocycle(), n))
    assert rep.verdict == "equivalence"
    Z = rep.centre.category
    assert (Z.n_objects, Z.n_morphisms) == sizes
    T = rep.hochschild.diagram
    assert any(not T.X2.is_identity(c)
               for cell in (T.coh00, T.coh01, T.coh21) for c in cell.components)


def test_semion_inserter_is_refused_from_level_one():
    # At N = 6 the inserter of the level-one cofaces has 72 objects; level
    # one tells, so the refusal comes before A x A and level two, which
    # take 9-13 s of process time to build
    start = time.process_time()
    with pytest.raises(SizeGuardExceeded) as err:
        verify_prop_3_1(cocycle_two_group(z2_nontrivial_cocycle(), 6))
    assert str(err.value) == ("size guard exceeded: inserter objects needs 72, "
                              "limit 64 (raise max_objects)")
    assert time.process_time() - start < 1.0
    # at N = 2 its 8 objects are refused before A x A's 4 objects and
    # before level two's 32 morphisms
    ms = cocycle_two_group(z2_nontrivial_cocycle(), 2)
    for cfg in (GuardConfig(max_objects=3), GuardConfig(max_objects=7, max_morphisms=16)):
        with pytest.raises(SizeGuardExceeded) as err:
            build_hochschild(ms, cfg)
        assert str(err.value) == ("size guard exceeded: inserter objects needs 8, "
                                  f"limit {cfg.max_objects} (raise max_objects)")


def test_invalid_monoidal_rejected():
    with pytest.raises(ValueError, match="pentagon"):
        build_hochschild(two_group_monoidal(Z1, 2, [[[1]]]))


def test_product_guard_is_the_users_max_objects():
    ms = chain_poset_monoidal(9)
    with pytest.raises(SizeGuardExceeded, match="product category objects needs 81, limit 64"):
        build_hochschild(ms)
    H = build_hochschild(ms, GuardConfig(max_objects=81))
    assert H.prod.category.n_objects == 81


def test_level_guards_name_the_level():
    ms = two_group_monoidal(S3)
    with pytest.raises(SizeGuardExceeded,
                       match="translation level one objects needs 11, limit 10"):
        build_hochschild(ms, GuardConfig(max_objects=10))
    with pytest.raises(SizeGuardExceeded,
                       match="translation level two morphism enumeration"):
        build_hochschild(ms, GuardConfig(max_branch=500))
    assert build_hochschild(ms, GuardConfig(max_objects=36)).diagram.X2.n_objects == 16
