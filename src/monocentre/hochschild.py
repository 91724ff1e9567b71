"""The two-sided translation diagram of a monoidal category and its descent
object.

Level zero is A itself.  Level one sits in the endofunctor category [A, A],
with the two cofaces a |-> a(x)- and a |-> -(x)a.  Level two sits in
[A x A, A], with three cofaces, and the strict cosimplicial identities are
replaced by three invertible cells whose components are associators.
verify_prop_3_1 compares the descent object of this truncated diagram
against the directly enumerated centre.

Descent reads level one only on the hom-sets X1(d0 a, d1 a) and level two
only on the coface images and the coherence cells, so each level is the
full subcategory of its functor category on the functors descent needs:
the translations {d0 a, d1 a} at level one and their three coface images
at level two.  Full subcategories keep every hom-set descent reads, so the
descent object is the one the whole functor categories give; the tests
check this against [A, A] and [A x A, A] built in full.  Each level, and
the product A x A, is bounded by the guards as set.

The input is checked once: build_hochschild reads the report the
MonoidalStructure keeps as problems, and the diagram's own check is kept
on it the same way.  verify_prop_3_1 builds the centre, the diagram and
the descent object once each, in that order, and its report carries all
three, so one call feeds every section that prints them.
"""

from __future__ import annotations

from .config import DEFAULT, GuardConfig, InternalSoundnessError
from .fincat import (
    Functor, NatTransf, full_functor_subcategory, product_category,
    check_equivalence, validate_functor,
)
from .monoidal import MonoidalStructure
from .bilimits import TruncatedCosimplicial, descent_object
from .centre import compute_centre
from .record import Record


class HochschildDiagram(Record):
    __slots__ = ("prod", "level1", "diagram")


def _e_obj_tables(ms, prod, route, F):
    """Object and morphism tables of the route-th coface image of F."""
    obj, mor = [], []
    for o in prod.category.objects:
        x, y = prod.obj_pair(o)
        if route == 0:
            obj.append(ms.tensor_obj(F.obj_map[x], y))
        elif route == 1:
            obj.append(F.obj_map[ms.tensor_obj(x, y)])
        else:
            obj.append(ms.tensor_obj(x, F.obj_map[y]))
    for m in prod.category.morphisms:
        f, g = prod.mor_pair(m)
        if route == 0:
            mor.append(ms.tensor_mor(F.mor_map[f], g))
        elif route == 1:
            mor.append(F.mor_map[ms.tensor_mor(f, g)])
        else:
            mor.append(ms.tensor_mor(f, F.mor_map[g]))
    return tuple(obj), tuple(mor)


def _e_transf_components(ms, prod, route, eta):
    comps = []
    for o in prod.category.objects:
        x, y = prod.obj_pair(o)
        if route == 0:
            comps.append(ms.rwhisk(eta.components[x], y))
        elif route == 1:
            comps.append(eta.components[ms.tensor_obj(x, y)])
        else:
            comps.append(ms.lwhisk(x, eta.components[y]))
    return tuple(comps)


def _cell_components(ms, prod, route, a):
    comps = []
    for o in prod.category.objects:
        x, y = prod.obj_pair(o)
        if route == 0:
            comps.append(ms.alpha(a, x, y))
        elif route == 1:
            comps.append(ms.alpha(x, a, y))
        else:
            comps.append(ms.alpha_inv(x, y, a))
    return tuple(comps)


def _cell_endpoints(route, a, route_obj, d0_obj, d1_obj):
    if route == 0:
        return route_obj[0][d0_obj[a]], route_obj[1][d0_obj[a]]
    if route == 1:
        return route_obj[0][d1_obj[a]], route_obj[2][d0_obj[a]]
    return route_obj[2][d1_obj[a]], route_obj[1][d1_obj[a]]


def build_hochschild(ms: MonoidalStructure,
                     cfg: GuardConfig = DEFAULT) -> HochschildDiagram:
    if ms.problems:
        raise ValueError("input monoidal structure is invalid: " + ms.problems[0])
    A = ms.base
    left = [(tuple(ms.tensor_obj(a, x) for x in A.objects),
             tuple(ms.lwhisk(a, f) for f in A.morphisms)) for a in A.objects]
    right = [(tuple(ms.tensor_obj(x, a) for x in A.objects),
              tuple(ms.rwhisk(f, a) for f in A.morphisms)) for a in A.objects]
    fc1 = full_functor_subcategory(
        A, A, [Functor(A, A, *t) for t in left + right], cfg,
        what="translation level one")
    X1 = fc1.category
    d0_obj = [fc1.functor_index[t] for t in left]
    d1_obj = [fc1.functor_index[t] for t in right]
    d0_mor, d1_mor = [], []
    for f in A.morphisms:
        a, b = A.src(f), A.dst(f)
        d0_mor.append(fc1.index_of_transf(
            d0_obj[a], d0_obj[b], tuple(ms.rwhisk(f, x) for x in A.objects)))
        d1_mor.append(fc1.index_of_transf(
            d1_obj[a], d1_obj[b], tuple(ms.lwhisk(x, f) for x in A.objects)))
    d0 = Functor(A, X1, tuple(d0_obj), tuple(d0_mor))
    d1 = Functor(A, X1, tuple(d1_obj), tuple(d1_mor))

    prod = product_category(A, A, cfg)
    images = [[_e_obj_tables(ms, prod, route, F) for F in fc1.functors]
              for route in range(3)]
    fc2 = full_functor_subcategory(
        prod.category, A,
        [Functor(prod.category, A, *t) for route in images for t in route], cfg,
        what="translation level two")
    X2 = fc2.category
    route_obj = [[fc2.functor_index[t] for t in route] for route in images]
    e0, e1, e2 = (
        Functor(X1, X2, route_obj[route],
                [fc2.index_of_transf(route_obj[route][X1.src(k)],
                                     route_obj[route][X1.dst(k)],
                                     _e_transf_components(ms, prod, route, eta))
                 for k, eta in enumerate(fc1.transfs)])
        for route in range(3))

    cells = []
    for route in range(3):
        comps = []
        for a in A.objects:
            s, d = _cell_endpoints(route, a, route_obj, d0_obj, d1_obj)
            comps.append(fc2.index_of_transf(s, d, _cell_components(ms, prod, route, a)))
        cells.append(tuple(comps))
    coh00 = NatTransf(d0.then(e0), d0.then(e1), cells[0])
    coh01 = NatTransf(d1.then(e0), d0.then(e2), cells[1])
    coh21 = NatTransf(d1.then(e2), d1.then(e1), cells[2])
    T = TruncatedCosimplicial(A, X1, X2, d0, d1, e0, e1, e2, coh00, coh01, coh21)
    if T.problems:
        raise InternalSoundnessError("translation diagram fails its own checks: "
                                     + T.problems[0])
    return HochschildDiagram(prod, fc1, T)


class Prop31Report(Record):
    """The three constructions compared, and the comparison between them."""

    __slots__ = ("centre", "hochschild", "descent", "comparison", "equivalence",
                 "obstructions")

    @property
    def verdict(self):
        eq = self.equivalence  # None when there are obstructions
        return "equivalence" if eq and eq.is_equivalence else "not an equivalence"


def verify_prop_3_1(ms: MonoidalStructure,
                    cfg: GuardConfig = DEFAULT) -> Prop31Report:
    """Compare the enumerated centre with the descent object of the
    translation diagram, object by object and morphism by morphism."""
    Z = compute_centre(ms, cfg)
    H = build_hochschild(ms, cfg)
    D = descent_object(H.diagram, cfg)
    fc1 = H.level1
    T = H.diagram

    dindex = {o: i for i, o in enumerate(D.objects)}
    dmor_index = {t: k for k, t in enumerate(D.mor_table)}
    obstructions = []
    obj_map = []
    for i, o in enumerate(Z.objects):
        ti = fc1.transf_index.get((T.d0.obj_map[o.a], T.d1.obj_map[o.a], o.gamma))
        di = dindex.get((o.a, ti)) if ti is not None else None
        if di is None:
            obstructions.append(f"centre object {i} induces no descent datum")
        obj_map.append(di)
    mor_map = []
    for (i, j, f) in Z.mor_table:
        k = None
        if obj_map[i] is not None and obj_map[j] is not None:
            k = dmor_index.get((obj_map[i], obj_map[j], f))
        if k is None:
            obstructions.append(
                f"centre morphism {f} between objects {i} and {j} has no descent image")
        mor_map.append(k)
    if obstructions:
        return Prop31Report(Z, H, D, None, None, tuple(obstructions))
    comparison = Functor(Z.category, D.category, tuple(obj_map), tuple(mor_map))
    vf = validate_functor(comparison)
    if vf:
        raise InternalSoundnessError("centre-to-descent comparison is not a functor: "
                                     + vf[0])
    return Prop31Report(Z, H, D, comparison, check_equivalence(comparison), ())
