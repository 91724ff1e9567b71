"""Half-braidings, centre pieces, and the braided monoidal centre.

A half-braiding for an object a is an invertible natural family
gamma_x: a(x)x -> x(x)a satisfying the multiplicativity equality, with the
associator inserted in the unique well-typed way:

    gamma_{x(x)y} = alpha_inv(x,y,a) . (1_x (x) gamma_y) . alpha(x,a,y)
                    . (gamma_x (x) 1_y) . alpha_inv(a,x,y)

The centre is computed by exhaustive enumeration of these families,
object by object, with naturality and multiplicativity pruning; the
enumeration, like that of centre pieces, is fincat's one depth-first
search.  Both categories built here are built by fincat.category_over:
the centre over the base, and CP(U, A) over the full functor subcategory
on its pieces' functors, so that a morphism of pieces is a
transformation of their functors that meets the centre condition.  Each
is bounded by max_objects before its morphisms are built, and then by
max_morphisms.  The centre's monoidal structure, like the pointwise one
on [E, A], is lifted from the base's cell by cell, by _lifted_monoidal.
Everything the construction claims about the result (braiding hexagons,
strict monoidality of the projection, and so on) is re-verified afterwards
and recorded as named certificates; nothing is trusted by construction.

The centre's universal piece (CentreCategory.piece: the projection, with
every object's half-braiding) certifies every object's half-braiding in
one check_centre_piece, and makes each comparison of the universal
property: birepresentation restricts it along every functor U -> Z_A,
coproducts restrict pieces along the two injections (CentrePiece.restrict),
and transport raises it, like the given piece, to the power [E, -]
(_power).

Naturality, multiplicativity and the condition a morphism of the centre
meets (_central_failures, which is also a piece's naturality in its first
argument and the condition on a morphism of pieces) are each written
once, as a generator of the places where they fail: the enumerations
prune with them, and check_centre_piece reports from them.
"""

from __future__ import annotations

from itertools import chain

from .config import DEFAULT, Budget, GuardConfig, InternalSoundnessError, _report
from .fincat import (
    FinCategory, Functor, FunctorCategory,
    functor_category, full_functor_subcategory, enumerate_functors,
    product_category, coproduct_category,
    check_equivalence, validate_category, validate_functor,
    category_over, _schedule, _search,
)
from .monoidal import (
    MonoidalStructure, BraidingDatum, check_braiding, check_strict_monoidal, _cell_failures,
)
from .record import Certificate, Record


class CentreObject(Record):
    """An object of the centre: a carrier and its half-braiding family."""

    __slots__ = ("a", "gamma")

    def __init__(self, a, gamma):
        super().__init__(a, tuple(gamma))


class CentrePiece(Record):
    """A functor u: U -> A with a binatural invertible family
    gamma[(s, x)]: u(s)(x)x -> x(x)u(s) satisfying multiplicativity."""

    __slots__ = ("u", "ms", "gamma")

    def __init__(self, u: Functor, ms: MonoidalStructure, gamma):
        super().__init__(u, ms, dict(gamma))

    def key(self):
        flat = tuple(self.gamma[k] for k in sorted(self.gamma))
        return (self.u.obj_map, self.u.mor_map, flat)

    def family(self, s):
        """The components at the object s of U, indexed by the objects x."""
        return tuple(self.gamma[(s, x)] for x in self.ms.base.objects)

    def restrict(self, G: Functor) -> "CentrePiece":
        """The piece along G: V -> U: the functor G.then(u), with the
        components at G's images."""
        return CentrePiece(G.then(self.u), self.ms,
                           {(s, x): self.gamma[(G.obj_map[s], x)]
                            for s in G.src.objects for x in self.ms.base.objects})


def _natural_failures(ms: MonoidalStructure, a, gamma, mors):
    """The morphisms f: x -> y among mors where the family gamma of a is
    not natural: gamma_y . (1_a (x) f) != (f (x) 1_a) . gamma_x."""
    cat = ms.base
    for f in mors:
        x, y = cat.src(f), cat.dst(f)
        if cat.compose(gamma[y], ms.lwhisk(a, f)) != cat.compose(ms.rwhisk(f, a), gamma[x]):
            yield f


def _multiplicative_failures(ms: MonoidalStructure, a, gamma, pairs):
    """The pairs (x, y) where gamma_{x(x)y} of the family gamma of a is not
    the two-crossing composite through the associators."""
    cat = ms.base
    for x, y in pairs:
        if gamma[ms.tensor_obj(x, y)] != cat.compose_chain(
                ms.alpha_inv(x, y, a), ms.lwhisk(x, gamma[y]), ms.alpha(x, a, y),
                ms.rwhisk(gamma[x], y), ms.alpha_inv(a, x, y)):
            yield x, y


def _central_failures(ms: MonoidalStructure, f, gamma, delta):
    """The objects x where f: a -> b does not commute with the families
    gamma of a and delta of b: delta_x . (f (x) 1_x) != (1_x (x) f) . gamma_x.
    Both a morphism of the centre and a piece's first argument obey it."""
    cat = ms.base
    for x in cat.objects:
        if cat.compose(delta[x], ms.rwhisk(f, x)) != cat.compose(ms.lwhisk(x, f), gamma[x]):
            yield x


def check_centre_piece(p: CentrePiece) -> list[str]:
    """That u is a functor into the base, then invertibility, binaturality,
    and multiplicativity, exhaustively."""
    cat = p.ms.base
    if p.u.dst is not cat and p.u.dst != cat:
        return ["u does not land in the base category"]
    return _report((f"u is not a functor: {e}" for e in validate_functor(p.u)),
                   _cell_failures(cat, _gamma_cells(p)), _piece_failures(p))


def _gamma_cells(p: CentrePiece):
    """The cells gamma_{s,x}: u(s)(x)x -> x(x)u(s) of p, for _cell_failures."""
    t = p.ms.tensor_obj
    return (("gamma", f"(s={s}, x={x})", p.gamma.get((s, x)), t(us, x), t(x, us))
            for s, us in enumerate(p.u.obj_map) for x in p.ms.base.objects)


def _piece_failures(p: CentrePiece):
    ms, u = p.ms, p.u
    U, cat = u.src, ms.base
    for s, us in enumerate(u.obj_map):
        for f in _natural_failures(ms, us, p.family(s), cat.morphisms):
            yield f"gamma not natural in the second argument at (s={s}, f={f})"
    for f in U.morphisms:
        for x in _central_failures(ms, u.mor_map[f], p.family(U.src(f)), p.family(U.dst(f))):
            yield f"gamma not natural in the first argument at (f={f}, x={x})"
    pairs = [(x, y) for x in cat.objects for y in cat.objects]
    for s, us in enumerate(u.obj_map):
        for x, y in _multiplicative_failures(ms, us, p.family(s), pairs):
            yield f"multiplicativity fails at (s={s}, x={x}, y={y})"


def enumerate_half_braidings(ms: MonoidalStructure, a: int,
                             cfg: GuardConfig = DEFAULT) -> list[tuple]:
    """All half-braidings for the object a, as component tuples in
    lexicographic order: one search over the components, object by object,
    with each naturality and multiplicativity condition checked as soon as
    every index it involves is assigned.
    """
    cat, t = ms.base, ms.tensor_obj
    objs = cat.objects
    at = list(zip(cat._by_later_end,
                  _schedule(objs, (((x, y), (x, y, t(x, y))) for x in objs for y in objs))))
    gamma = [0] * cat.n_objects
    out = []

    def failures(checks):
        nat, mult = checks
        return chain(_natural_failures(ms, a, gamma, nat),
                     _multiplicative_failures(ms, a, gamma, mult))

    _search(gamma, objs, lambda x: cat.invertible_hom(t(a, x), t(x, a)), at, failures,
            Budget(cfg.max_branch, "half-braiding enumeration"),
            lambda: out.append(tuple(gamma)))
    return out


class CentreCategory(Record):
    __slots__ = (
        "base",
        "category",
        "objects",  # CentreObject, canonical order
        "mor_table",  # (src idx, dst idx, base morphism)
        "monoidal",
        "braiding",
        "projection",
        "certificates",
        "unit_violations",  # objects violating the derived unit law
    )

    @property
    def all_passed(self):
        return all(c.ok for c in self.certificates)

    @property
    def piece(self) -> CentrePiece:
        """The universal centre piece: the projection, with every object's
        half-braiding."""
        ms = self.base
        return CentrePiece(self.projection, ms, {(i, x): o.gamma[x]
                                                 for i, o in enumerate(self.objects)
                                                 for x in ms.base.objects})


def _lifted_monoidal(cat: FinCategory, tobj, unit, ms: MonoidalStructure,
                     under_obj, under_mor, lift) -> MonoidalStructure:
    """The monoidal structure on cat that lies over ms component by
    component: object i lies over the tuple under_obj(i) of base objects,
    morphism k over the tuple under_mor(k) of base morphisms, and lift(i,
    j, comps) is the morphism i -> j over comps, or None.

    The tensor of objects tobj and the unit are given; the tensor of
    morphisms, the associator and the unitors are the unique morphisms
    over ms's cells, and a missing one is an InternalSoundnessError that
    names the cell.
    """
    objs, mors = cat.objects, cat.morphisms
    ob = [under_obj(i) for i in objs]
    mo = [under_mor(k) for k in mors]

    def cell(name, at, i, j, comps):
        k = lift(i, j, tuple(comps))
        if k is None:
            raise InternalSoundnessError(f"{name} at {at} has no lift to a morphism "
                                         f"{i} -> {j}")
        return k

    tmor = {(k1, k2): cell("tensor of morphisms", (k1, k2),
                           tobj[cat.src(k1)][cat.src(k2)], tobj[cat.dst(k1)][cat.dst(k2)],
                           map(ms.tensor_mor, mo[k1], mo[k2]))
            for k1 in mors for k2 in mors}
    alpha = {(i, j, k): cell("associator", (i, j, k), tobj[tobj[i][j]][k],
                             tobj[i][tobj[j][k]], map(ms.alpha, ob[i], ob[j], ob[k]))
             for i in objs for j in objs for k in objs}
    lam = tuple(cell("left unitor", i, tobj[unit][i], i, map(ms.lam, ob[i])) for i in objs)
    rho = tuple(cell("right unitor", i, tobj[i][unit], i, map(ms.rho, ob[i])) for i in objs)
    return MonoidalStructure(cat, tobj, tmor, unit, alpha, lam, rho)


def compute_centre(ms: MonoidalStructure, cfg: GuardConfig = DEFAULT) -> CentreCategory:
    cat = ms.base
    if ms.problems:
        raise ValueError("input monoidal structure is invalid: " + ms.problems[0])

    # in (a, gamma) order, as each search emits its families in order
    objs = [CentreObject(a, gamma) for a in cat.objects
            for gamma in enumerate_half_braidings(ms, a, cfg)]

    def central(i, j, f):
        return next(_central_failures(ms, f, objs[i].gamma, objs[j].gamma), None) is None

    zcat, mor_table, mor_index, proj = category_over(
        cat, [o.a for o in objs], central, "centre", cfg)
    obj_index = {(o.a, o.gamma): i for i, o in enumerate(objs)}

    def centre_object(what, a, gamma):
        i = obj_index.get((a, tuple(gamma)))
        if i is None:
            raise InternalSoundnessError(f"{what} is not a centre object")
        return i

    # tensor of centre objects: carrier tensor with the two-step half-braiding
    def theta(o1: CentreObject, o2: CentreObject):
        a, b = o1.a, o2.a
        return (ms.tensor_obj(a, b),
                (cat.compose_chain(ms.alpha(x, a, b), ms.rwhisk(o1.gamma[x], b),
                                   ms.alpha_inv(a, x, b), ms.lwhisk(a, o2.gamma[x]),
                                   ms.alpha(a, b, x))
                 for x in cat.objects))

    tobj = [[centre_object(f"tensor of centre objects {i} and {j}", *theta(o1, o2))
             for j, o2 in enumerate(objs)] for i, o1 in enumerate(objs)]
    unit_idx = centre_object("the unitor-induced half-braiding", ms.unit,
                             (cat.compose(ms.rho_inv(x), ms.lam(x)) for x in cat.objects))

    def lift(i, j, comps):
        return mor_index.get((i, j) + comps)

    zms = _lifted_monoidal(zcat, tobj, unit_idx, ms, lambda i: (objs[i].a,),
                           lambda k: (mor_table[k][2],), lift)

    braid = {(i, j): lift(tobj[i][j], tobj[j][i], (o1.gamma[o2.a],))
             for i, o1 in enumerate(objs) for j, o2 in enumerate(objs)}
    if None in braid.values():
        raise InternalSoundnessError("a braiding component fails the centre condition")
    zbraid = BraidingDatum(zms, braid)

    # post-construction certificate battery; nothing above is taken on trust
    eq = check_equivalence(proj)
    certs = [
        Certificate.of("centre category axioms", validate_category(zcat)),
        Certificate.of("centre monoidal structure (incl. pentagon, triangle)", zms.problems),
        Certificate.of("braiding naturality and hexagons", check_braiding(zbraid)),
        Certificate.of("projection functor", validate_functor(proj)),
        Certificate.of("projection strong monoidal", check_strict_monoidal(proj, zms, ms)),
        Certificate.of("projection faithful", [] if eq.faithful else eq.witnesses),
    ]
    universal = CentrePiece(proj, ms, {(i, x): o.gamma[x]
                                       for i, o in enumerate(objs) for x in cat.objects})
    certs.append(Certificate.of("every object is a half-braiding", check_centre_piece(universal)))
    braid_match = []
    for (i, j), m in braid.items():
        if mor_table[m][2] != objs[i].gamma[objs[j].a]:
            braid_match.append(f"braiding at ({i}, {j}) does not project to gamma")
    certs.append(Certificate.of("braiding projects to the stored half-braidings", braid_match))

    unit_violations = []
    for idx, o in enumerate(objs):
        expected = cat.compose(ms.lam_inv(o.a), ms.rho(o.a))
        if o.gamma[ms.unit] != expected:
            unit_violations.append(idx)
    certs.append(Certificate.of(
        "unit compatibility (derived law, reported not enforced)",
        [f"object {i}: gamma at the unit differs from the unitor composite"
         for i in unit_violations]))

    return CentreCategory(ms, zcat, tuple(objs), tuple(mor_table), zms, zbraid,
                          proj, tuple(certs), tuple(unit_violations))


# -- the category of centre pieces and the universal property -------------


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
