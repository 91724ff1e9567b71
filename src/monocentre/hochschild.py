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
the product A x A, is bounded by the guards as set.  The inserter of the
two cofaces of level one, which the descent object's second route
builds, is bounded on its objects as soon as level one is built, before
A x A and level two.

Level one's cofaces are the MonoidalStructure's translations.  Each
coface of level two is written once, as one map on morphism tables: it
gives a functor's image from the functor's morphism table, the image's
objects from its identities, and a transformation's image from the same
map read at identities.  Each coherence cell is written once, as its
associator component, between the two composites of cofaces it compares.

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
from .bilimits import TruncatedCosimplicial, descent_object, inserter_objects
from .centre import compute_centre
from .record import Record


class HochschildDiagram(Record):
    __slots__ = ("prod", "level1", "diagram")


def _coface(S, fc, functors, components):
    """The functor from S into the level fc that sends the object s of S to
    functors[s] and the morphism k of S to the transformation with
    components[k], a tuple."""
    objs = [fc.functor_index[F.obj_map, F.mor_map] for F in functors]
    return Functor(S, fc.category, objs,
                   [fc.transf_index[(objs[S.src(k)], objs[S.dst(k)], c)]
                    for k, c in enumerate(components)])


def build_hochschild(ms: MonoidalStructure,
                     cfg: GuardConfig = DEFAULT) -> HochschildDiagram:
    if ms.problems:
        raise ValueError("input monoidal structure is invalid: " + ms.problems[0])
    A, t = ms.base, ms.tensor_mor

    # level one: d0 a = a (x) - and d1 a = - (x) a, the translations; the
    # image of h under d0 has component h (x) 1_x at x, which is the right
    # translation by x at h, and under d1 the left one
    left, right = ms.translations
    fc1 = full_functor_subcategory(A, A, left + right, cfg, what="translation level one")
    d0, d1 = (_coface(A, fc1, side, [tuple(G.mor_map[h] for G in other) for h in A.morphisms])
              for side, other in ((left, right), (right, left)))
    # the descent object's inserter lies over level one alone: refuse it
    # before the product and level two are built
    cfg.bound("inserter objects", len(inserter_objects(d0, d1)), "max_objects")

    # level two: e0, e1, e2 each one map of the morphism table F of an
    # endofunctor at (f, g): F f (x) g, F(f (x) g) and f (x) F g.  Read at
    # identities, with F a transformation's components filed under the
    # identities, it gives the components of the transformation's image.
    prod = product_category(A, A, cfg)
    P = prod.category
    pairs = [prod.mor_pair(m) for m in P.morphisms]
    e_routes = (lambda F, f, g: t(F[f], g), lambda F, f, g: F[t(f, g)],
                lambda F, f, g: t(f, F[g]))

    def image(e, F):
        """e's image of F: each object goes where its identity goes."""
        mor = tuple(e(F.mor_map, f, g) for f, g in pairs)
        return Functor(P, A, [A.src(mor[i]) for i in P.identity], mor)

    e_images = [[image(e, F) for F in fc1.functors] for e in e_routes]
    fc2 = full_functor_subcategory(P, A, sum(e_images, []), cfg, what="translation level two")
    at_ids = [dict(zip(A.identity, eta.components)) for eta in fc1.transfs]
    e0, e1, e2 = (
        _coface(fc1.category, fc2, images,
                [tuple(e(c, *pairs[i]) for i in P.identity) for c in at_ids])
        for e, images in zip(e_routes, e_images))

    # each coherence cell sits between the two composites it compares, and
    # its component at a is, at (x, y), the associator given
    obj_pairs = [prod.obj_pair(o) for o in P.objects]

    def cell(src, dst, alpha):
        return NatTransf(src, dst, [
            fc2.transf_index[(src.obj_map[a], dst.obj_map[a],
                              tuple(alpha(a, x, y) for x, y in obj_pairs))]
            for a in A.objects])

    coh00 = cell(d0.then(e0), d0.then(e1), ms.alpha)
    coh01 = cell(d1.then(e0), d0.then(e2), lambda a, x, y: ms.alpha(x, a, y))
    coh21 = cell(d1.then(e2), d1.then(e1), lambda a, x, y: ms.alpha_inv(x, y, a))
    T = TruncatedCosimplicial(A, fc1.category, fc2.category, d0, d1, e0, e1, e2,
                              coh00, coh01, coh21)
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
