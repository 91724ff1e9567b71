"""The category of centre pieces CP(U, A) and the universal property of
the centre.

CP(U, A) is built by fincat.category_over on the full functor subcategory
on its pieces' functors, so that a morphism of pieces is a transformation
of their functors that meets the centre condition; the search that
enumerates the pieces is fincat's one depth-first search.  The centre's
universal piece (CentreCategory.piece) makes each comparison of the
universal property: birepresentation restricts it along every functor U ->
Z_A, coproducts restrict pieces along the two injections
(CentrePiece.restrict), and transport raises it, like the given piece, to
the power [E, -] (_power), over the pointwise structure on [E, A] that
centre._lifted_monoidal lifts from A's.  No subcommand reads CP, so the
CLI does not import this module.
"""

from __future__ import annotations

from .centre import (
    CentrePiece, _central_failures, _lifted_monoidal, check_centre_piece, compute_centre,
    enumerate_half_braidings,
)
from .config import DEFAULT, Budget, GuardConfig, InternalSoundnessError
from .fincat import (
    FinCategory, Functor, FunctorCategory, category_over, check_equivalence,
    coproduct_category, enumerate_functors, full_functor_subcategory, functor_category,
    product_category, _schedule, _search,
)
from .monoidal import MonoidalStructure, check_strict_monoidal
from .record import Record


class CentrePieceCategory(Record):
    __slots__ = (
        "category",
        "source",
        "ms",
        "pieces",
        "mor_table",  # (src idx, dst idx, component tuple)
        "piece_index",
        "mor_index",
    )

    def index_of(self, piece: CentrePiece) -> int:
        """The object of CP that is piece; a piece it lacks is a soundness error."""
        idx = self.piece_index.get(piece.key())
        if idx is None:
            raise InternalSoundnessError("a restricted centre piece is not an object of CP")
        return idx


def enumerate_centre_pieces(U: FinCategory, ms: MonoidalStructure,
                            cfg: GuardConfig = DEFAULT) -> CentrePieceCategory:
    """Exhaustive CP(U, A): objects all centre pieces, morphisms the
    transformations sigma: u => u' whose every component meets the centre
    condition between the two pieces' families, composition vertical.

    Under each functor u: U -> A, one search picks a half-braiding of u(s)
    for each object s of U, checking naturality in the first argument at
    each non-identity morphism once both its ends are picked; that search
    spends one max_branch budget for all pieces.  CP is then built by
    category_over on the full functor subcategory on the pieces' functors,
    whose transformations spend a budget of their own.
    """
    if ms.problems:
        raise ValueError("input monoidal structure is invalid: " + ms.problems[0])
    cat = ms.base
    half = {a: enumerate_half_braidings(ms, a, cfg) for a in cat.objects}
    budget = Budget(cfg.max_branch, "centre piece enumeration")
    at = _schedule(U.objects, ((f, (U.src(f), U.dst(f)))
                               for f in U.morphisms if not U.is_identity(f)))
    picked = [None] * U.n_objects
    pieces = []

    # each reads the functor u of the loop below, under which it runs
    def candidates(s):
        return half[u.obj_map[s]]

    def failures(fs):
        return (x for f in fs for x in _central_failures(
            ms, u.mor_map[f], picked[U.src(f)], picked[U.dst(f)]))

    def emit():
        pieces.append(CentrePiece(u, ms, {(s, x): picked[s][x]
                                          for s in U.objects for x in cat.objects}))

    for u in enumerate_functors(U, cat, cfg):
        _search(picked, U.objects, candidates, at, failures, budget, emit)
    pieces.sort(key=lambda p: p.key())
    # refused before any transformation of their functors is enumerated
    cfg.bound("centre piece objects", len(pieces), "max_objects")
    piece_index = {p.key(): i for i, p in enumerate(pieces)}

    fc = full_functor_subcategory(U, cat, [p.u for p in pieces], cfg, "centre piece functor")

    def central(i, j, k):
        fails = (x for s, c in enumerate(fc.transfs[k].components)
                 for x in _central_failures(ms, c, pieces[i].family(s), pieces[j].family(s)))
        return next(fails, None) is None

    cp_cat, rows, _, _ = category_over(
        fc.category, [fc.functor_index[(p.u.obj_map, p.u.mor_map)] for p in pieces],
        central, "centre piece", cfg)
    mor_table = tuple((i, j, fc.transfs[k].components) for i, j, k in rows)
    return CentrePieceCategory(cp_cat, U, ms, tuple(pieces), mor_table, piece_index,
                               {row: k for k, row in enumerate(mor_table)})


class BirepReport(Record):
    """A comparison functor that birepresentability of CP asks to be an
    equivalence (Fun(U, Z) -> CP(U, A), or CP(U + V, A) -> CP(U, A) x
    CP(V, A)), the object counts of its two sides, and the verdict."""

    __slots__ = ("left_objects", "right_objects", "comparison", "equivalence")

    @property
    def verdict(self):
        return "equivalence" if self.equivalence.is_equivalence else "not an equivalence"


def check_birepresentation(U: FinCategory, ms: MonoidalStructure,
                           cfg: GuardConfig = DEFAULT) -> BirepReport:
    """Builds Fun(U, Z_A) and CP(U, A) and checks that restricting the
    universal piece along each functor is an equivalence between them."""
    Z = compute_centre(ms, cfg)
    fc = functor_category(U, Z.category, cfg)
    cp = enumerate_centre_pieces(U, ms, cfg)
    piece = Z.piece
    obj_map = [cp.index_of(piece.restrict(H)) for H in fc.functors]
    mor_map = [cp.mor_index.get((obj_map[fc.category.src(k)], obj_map[fc.category.dst(k)],
                                 tuple(Z.projection.mor_map[c] for c in eta.components)))
               for k, eta in enumerate(fc.transfs)]
    if None in mor_map:
        raise InternalSoundnessError(
            "transformation of centre-valued functors gives no piece morphism")
    comparison = Functor(fc.category, cp.category, obj_map, mor_map)
    return BirepReport(fc.category.n_objects, cp.category.n_objects,
                       comparison, check_equivalence(comparison))


# -- transport along the representable power pseudofunctor ----------------


def pointwise_monoidal(fc: FunctorCategory, ms: MonoidalStructure) -> MonoidalStructure:
    """The pointwise monoidal structure on [E, A] induced by A's."""
    E, cat = fc.source, ms.base

    def tensor_functor(F, G):
        return fc.functor_index[(tuple(map(ms.tensor_obj, F.obj_map, G.obj_map)),
                                 tuple(map(ms.tensor_mor, F.mor_map, G.mor_map)))]

    tobj = [[tensor_functor(F, G) for G in fc.functors] for F in fc.functors]
    unit = fc.functor_index[((ms.unit,) * E.n_objects,
                             (cat.id_of(ms.unit),) * E.n_morphisms)]
    return _lifted_monoidal(fc.category, tobj, unit, ms, lambda i: fc.functors[i].obj_map,
                            lambda k: fc.transfs[k].components,
                            lambda i, j, comps: fc.transf_index.get((i, j, comps)))


def _power(E: FinCategory, p: CentrePiece, fcA: FunctorCategory,
           msEA: MonoidalStructure, cfg: GuardConfig):
    """[E, U] and the piece [E, p]: [E, U] -> [E, A] over the pointwise
    structure msEA on fcA, whose functor postcomposes with u and whose
    family is p's, taken pointwise."""
    u = p.u
    fcU = functor_category(E, u.src, cfg)
    obj_map = [fcA.functor_index[(K.obj_map, K.mor_map)]
               for K in (H.then(u) for H in fcU.functors)]
    mor_map = [fcA.transf_index[(obj_map[fcU.category.src(k)], obj_map[fcU.category.dst(k)],
                                 tuple(u.mor_map[c] for c in eta.components))]
               for k, eta in enumerate(fcU.transfs)]
    gamma = {(s, f): fcA.transf_index[(msEA.tensor_obj(obj_map[s], f),
                                       msEA.tensor_obj(f, obj_map[s]),
                                       tuple(p.gamma[k] for k in zip(H.obj_map, F.obj_map)))]
             for s, H in enumerate(fcU.functors) for f, F in enumerate(fcA.functors)}
    return fcU, CentrePiece(Functor(fcU.category, fcA.category, obj_map, mor_map), msEA, gamma)


class TransportReport(Record):
    __slots__ = ("transported", "transported_report", "comparison",
                 "strong_monoidal_report", "equivalence")

    @property
    def ok(self):
        return (not self.transported_report and not self.strong_monoidal_report
                and self.equivalence.is_equivalence)


def transport_along_power(E: FinCategory, p: CentrePiece,
                          cfg: GuardConfig = DEFAULT) -> TransportReport:
    """Apply the representable pseudofunctor [E, -] to a centre piece.

    Returns the transported piece [E, u] on [E, U] -> [E, A] with the
    pointwise family (checked), plus the canonical comparison
    [E, Z_A] -> Z_{[E, A]}, read off the power of the universal piece of
    Z_A, with its strict-monoidal and equivalence verdicts.  An invalid
    input piece raises ValueError.
    """
    bad = check_centre_piece(p)
    if bad:
        raise ValueError("input centre piece is invalid: " + bad[0])
    ms = p.ms
    fcA = functor_category(E, ms.base, cfg)
    msEA = pointwise_monoidal(fcA, ms)
    _, transported = _power(E, p, fcA, msEA, cfg)
    tr_report = tuple(check_centre_piece(transported))

    Z = compute_centre(ms, cfg)
    ZEA = compute_centre(msEA, cfg)
    fcZ, power = _power(E, Z.piece, fcA, msEA, cfg)
    zea_obj_index = {(o.a, o.gamma): i for i, o in enumerate(ZEA.objects)}
    zea_mor_index = {t: k for k, t in enumerate(ZEA.mor_table)}
    obj_map = [zea_obj_index.get((a, power.family(h)))
               for h, a in enumerate(power.u.obj_map)]
    if None in obj_map:
        raise InternalSoundnessError(
            "pointwise half-braiding is not an object of the centre of [E, A]")
    mor_map = [zea_mor_index.get((obj_map[fcZ.category.src(k)], obj_map[fcZ.category.dst(k)], m))
               for k, m in enumerate(power.u.mor_map)]
    if None in mor_map:
        raise InternalSoundnessError(
            "pointwise image of a centre-valued transformation is not central")
    comparison = Functor(fcZ.category, ZEA.category, obj_map, mor_map)
    sm_report = tuple(check_strict_monoidal(comparison, pointwise_monoidal(fcZ, Z.monoidal),
                                            ZEA.monoidal))
    return TransportReport(transported, tr_report, comparison, sm_report,
                           check_equivalence(comparison))


def check_cp_preserves_coproducts(U: FinCategory, V: FinCategory,
                                  ms: MonoidalStructure,
                                  cfg: GuardConfig = DEFAULT) -> BirepReport:
    """CP(U + V, A) -> CP(U, A) x CP(V, A) by restriction along the
    injections; checked to be an equivalence by exhaustion."""
    cop = coproduct_category(U, V, cfg)
    cp_all = enumerate_centre_pieces(cop.category, ms, cfg)
    cp_u = enumerate_centre_pieces(U, ms, cfg)
    cp_v = enumerate_centre_pieces(V, ms, cfg)
    prod = product_category(cp_u.category, cp_v.category, cfg)
    obj_map = [prod.obj_id(cp_u.index_of(piece.restrict(cop.inj_left)),
                           cp_v.index_of(piece.restrict(cop.inj_right)))
               for piece in cp_all.pieces]
    mor_map = []
    for (i, j, comps) in cp_all.mor_table:
        cu = tuple(comps[cop.inj_left.obj_map[s]] for s in U.objects)
        cv = tuple(comps[cop.inj_right.obj_map[s]] for s in V.objects)
        iu, ju = prod.obj_pair(obj_map[i])
        iv, jv = prod.obj_pair(obj_map[j])
        ku = cp_u.mor_index[(iu, iv, cu)]
        kv = cp_v.mor_index[(ju, jv, cv)]
        mor_map.append(prod.mor_id(ku, kv))
    comparison = Functor(cp_all.category, prod.category, obj_map, mor_map)
    return BirepReport(cp_all.category.n_objects, prod.category.n_objects,
                       comparison, check_equivalence(comparison))
