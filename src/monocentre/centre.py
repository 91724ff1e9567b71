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
max_morphisms.
Everything the construction claims about the result (braiding hexagons,
strong monoidality of the projection, and so on) is re-verified afterwards
and recorded as named certificates; nothing is trusted by construction.

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
    product_category, coproduct_category, terminal_category, empty_category,
    check_equivalence, validate_category, validate_functor,
    category_over, _schedule, _search,
)
from .monoidal import (
    MonoidalStructure, BraidingDatum, StrongMonoidalFunctor,
    check_braiding, check_strong_monoidal, strict_cells_functor, _cell_failures,
)
from .record import Record


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


class Certificate(Record):
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name, ok, detail=""):
        super().__init__(name, ok, detail)

    @classmethod
    def of(cls, name, report):
        """Passes iff the check's report is empty; names its first three failures."""
        return cls(name, not report, "; ".join(report[:3]))


class CentreCategory(Record):
    __slots__ = (
        "base",
        "category",
        "objects",  # CentreObject, canonical order
        "mor_table",  # (src idx, dst idx, base morphism)
        "monoidal",  # None, as are braiding and projection, on an empty base
        "braiding",
        "projection",
        "certificates",
        "unit_violations",  # objects violating the derived unit law
    )

    @property
    def all_passed(self):
        return all(c.ok for c in self.certificates)

    def object_index(self, a, gamma):
        key = (a, tuple(gamma))
        for i, o in enumerate(self.objects):
            if (o.a, o.gamma) == key:
                return i
        return None


def compute_centre(ms: MonoidalStructure, cfg: GuardConfig = DEFAULT) -> CentreCategory:
    cat = ms.base
    if cat.n_objects == 0:
        return CentreCategory(ms, empty_category(), (), (), None, None, None,
                              (Certificate("degenerate empty input", True),), ())
    if ms.problems:
        raise ValueError("input monoidal structure is invalid: " + ms.problems[0])

    # in (a, gamma) order, as each search emits its families in order
    objs = [CentreObject(a, gamma) for a in cat.objects
            for gamma in enumerate_half_braidings(ms, a, cfg)]

    def central(i, j, f):
        return next(_central_failures(ms, f, objs[i].gamma, objs[j].gamma), None) is None

    zcat, mor_table, mor_index, i_functor = category_over(
        cat, [o.a for o in objs], central, "centre", cfg)
    obj_index = {(o.a, o.gamma): i for i, o in enumerate(objs)}

    def require_mor(i, j, f, what):
        k = mor_index.get((i, j, f))
        if k is None:
            raise InternalSoundnessError(f"{what}: morphism {f} between centre objects {i} "
                                         f"and {j} fails the centre condition")
        return k

    # tensor of centre objects: carrier tensor with the two-step half-braiding
    def theta(o1: CentreObject, o2: CentreObject):
        a, b = o1.a, o2.a
        comps = []
        for x in cat.objects:
            comps.append(cat.compose_chain(
                ms.alpha(x, a, b),
                ms.rwhisk(o1.gamma[x], b),
                ms.alpha_inv(a, x, b),
                ms.lwhisk(a, o2.gamma[x]),
                ms.alpha(a, b, x),
            ))
        return CentreObject(ms.tensor_obj(a, b), comps)

    tobj = [[0] * len(objs) for _ in objs]
    for i, o1 in enumerate(objs):
        for j, o2 in enumerate(objs):
            t = theta(o1, o2)
            k = obj_index.get((t.a, t.gamma))
            if k is None:
                raise InternalSoundnessError(
                    f"tensor of centre objects {i} and {j} is not a centre object")
            tobj[i][j] = k
    tmor = {}
    for k1, (i1, j1, f1) in enumerate(mor_table):
        for k2, (i2, j2, f2) in enumerate(mor_table):
            tmor[(k1, k2)] = require_mor(tobj[i1][i2], tobj[j1][j2],
                                         ms.tensor_mor(f1, f2), "tensor of morphisms")

    unit_gamma = tuple(cat.compose(ms.rho_inv(x), ms.lam(x)) for x in cat.objects)
    unit_idx = obj_index.get((ms.unit, unit_gamma))
    if unit_idx is None:
        raise InternalSoundnessError("the unitor-induced half-braiding was not enumerated")

    alpha = {}
    for i in range(len(objs)):
        for j in range(len(objs)):
            for k in range(len(objs)):
                f = ms.alpha(objs[i].a, objs[j].a, objs[k].a)
                alpha[(i, j, k)] = require_mor(tobj[tobj[i][j]][k], tobj[i][tobj[j][k]],
                                               f, "associator component")
    lam = tuple(require_mor(tobj[unit_idx][i], i, ms.lam(o.a), "left unitor")
                for i, o in enumerate(objs))
    rho = tuple(require_mor(tobj[i][unit_idx], i, ms.rho(o.a), "right unitor")
                for i, o in enumerate(objs))
    zms = MonoidalStructure(zcat, tobj, tmor, unit_idx, alpha, lam, rho)

    braid = {}
    for i, o1 in enumerate(objs):
        for j, o2 in enumerate(objs):
            braid[(i, j)] = require_mor(tobj[i][j], tobj[j][i],
                                        o1.gamma[o2.a], "braiding component")
    zbraid = BraidingDatum(zms, braid)

    proj = strict_cells_functor(i_functor, zms, ms)

    # post-construction certificate battery; nothing above is taken on trust
    eq = check_equivalence(i_functor)
    certs = [
        Certificate.of("centre category axioms", validate_category(zcat)),
        Certificate.of("centre monoidal structure (incl. pentagon, triangle)", zms.problems),
        Certificate.of("braiding naturality and hexagons", check_braiding(zbraid)),
        Certificate.of("projection functor", validate_functor(i_functor)),
        Certificate.of("projection strong monoidal", check_strong_monoidal(proj)),
        Certificate.of("projection faithful", [] if eq.faithful else eq.witnesses),
    ]
    half_reports = []
    for idx, o in enumerate(objs):
        piece = CentrePiece(Functor(terminal_category(), cat, (o.a,), (cat.id_of(o.a),)),
                            ms, {(0, x): o.gamma[x] for x in cat.objects})
        rep = check_centre_piece(piece)
        if rep:
            half_reports.append(f"object {idx}: {rep[0]}")
    certs.append(Certificate.of("every object is a half-braiding", half_reports))
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
    """Builds Fun(U, Z_A) and CP(U, A) and checks that composing with the
    projection is an equivalence between them."""
    Z = compute_centre(ms, cfg)
    fc = functor_category(U, Z.category, cfg)
    cp = enumerate_centre_pieces(U, ms, cfg)
    cat = ms.base

    obj_map = []
    for H in fc.functors:
        u = H.then(Z.projection.functor)
        gamma = {(s, x): Z.objects[H.obj_map[s]].gamma[x]
                 for s in U.objects for x in cat.objects}
        piece = CentrePiece(u, ms, gamma)
        idx = cp.piece_index.get(piece.key())
        if idx is None:
            raise InternalSoundnessError("functor into the centre gives no centre piece")
        obj_map.append(idx)
    mor_map = []
    for k, eta in enumerate(fc.transfs):
        s_idx, d_idx = fc.category.src(k), fc.category.dst(k)
        comps = tuple(Z.mor_table[c][2] for c in eta.components)
        key = (obj_map[s_idx], obj_map[d_idx], comps)
        if key not in cp.mor_index:
            raise InternalSoundnessError(
                "transformation of centre-valued functors gives no piece morphism")
        mor_map.append(cp.mor_index[key])
    comparison = Functor(fc.category, cp.category, tuple(obj_map), tuple(mor_map))
    return BirepReport(fc.category.n_objects, cp.category.n_objects,
                       comparison, check_equivalence(comparison))


# -- transport along the representable power pseudofunctor ----------------


def pointwise_monoidal(fc: FunctorCategory, ms: MonoidalStructure) -> MonoidalStructure:
    """The pointwise monoidal structure on [E, A] induced by A's."""
    E, cat = fc.source, ms.base

    def tensor_functor(i, j):
        F, G = fc.functors[i], fc.functors[j]
        obj = tuple(ms.tensor_obj(F.obj_map[x], G.obj_map[x]) for x in E.objects)
        mor = tuple(ms.tensor_mor(F.mor_map[f], G.mor_map[f]) for f in E.morphisms)
        return fc.functor_index[(obj, mor)]

    n = fc.category.n_objects
    tobj = [[tensor_functor(i, j) for j in range(n)] for i in range(n)]
    tmor = {}
    for k1, eta in enumerate(fc.transfs):
        i1, j1 = fc.category.src(k1), fc.category.dst(k1)
        for k2, kap in enumerate(fc.transfs):
            i2, j2 = fc.category.src(k2), fc.category.dst(k2)
            comps = tuple(ms.tensor_mor(eta.components[x], kap.components[x])
                          for x in E.objects)
            tmor[(k1, k2)] = fc.index_of_transf(tobj[i1][i2], tobj[j1][j2], comps)
    unit_obj = tuple(ms.unit for _ in E.objects)
    unit_mor = tuple(cat.id_of(ms.unit) for _ in E.morphisms)
    unit = fc.functor_index[(unit_obj, unit_mor)]
    alpha = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                comps = tuple(ms.alpha(fc.functors[i].obj_map[x],
                                       fc.functors[j].obj_map[x],
                                       fc.functors[k].obj_map[x]) for x in E.objects)
                alpha[(i, j, k)] = fc.index_of_transf(tobj[tobj[i][j]][k],
                                                      tobj[i][tobj[j][k]], comps)
    lam = tuple(fc.index_of_transf(tobj[unit][i], i,
                                   tuple(ms.lam(F.obj_map[x]) for x in E.objects))
                for i, F in enumerate(fc.functors))
    rho = tuple(fc.index_of_transf(tobj[i][unit], i,
                                   tuple(ms.rho(F.obj_map[x]) for x in E.objects))
                for i, F in enumerate(fc.functors))
    return MonoidalStructure(fc.category, tobj, tmor, unit, alpha, lam, rho)


class TransportReport(Record):
    __slots__ = ("transported", "transported_report", "comparison",
                 "comparison_monoidal", "strong_monoidal_report", "equivalence")

    @property
    def ok(self):
        return (not self.transported_report and not self.strong_monoidal_report
                and self.equivalence.is_equivalence)


def transport_along_power(E: FinCategory, p: CentrePiece,
                          cfg: GuardConfig = DEFAULT) -> TransportReport:
    """Apply the representable pseudofunctor [E, -] to a centre piece.

    Returns the transported piece [E, u] on [E, U] -> [E, A] with the
    pointwise family (checked), plus the canonical comparison
    [E, Z_A] -> Z_{[E, A]} with its strong-monoidal and equivalence
    verdicts.
    """
    ms = p.ms
    cat = ms.base
    U = p.u.src
    fcU = functor_category(E, U, cfg)
    fcA = functor_category(E, cat, cfg)
    msEA = pointwise_monoidal(fcA, ms)

    def push_functor(H: Functor) -> int:
        K = H.then(p.u)
        return fcA.functor_index[(K.obj_map, K.mor_map)]

    tr_obj = tuple(push_functor(H) for H in fcU.functors)
    tr_mor = []
    for k, eta in enumerate(fcU.transfs):
        s, d = fcU.category.src(k), fcU.category.dst(k)
        comps = tuple(p.u.mor_map[c] for c in eta.components)
        tr_mor.append(fcA.index_of_transf(tr_obj[s], tr_obj[d], comps))
    tr_functor = Functor(fcU.category, fcA.category, tr_obj, tuple(tr_mor))
    gamma = {}
    for si, H in enumerate(fcU.functors):
        for fi, F in enumerate(fcA.functors):
            comps = tuple(p.gamma[(H.obj_map[x], F.obj_map[x])] for x in E.objects)
            us = tr_obj[si]
            gamma[(si, fi)] = fcA.index_of_transf(
                msEA.tensor_obj(us, fi), msEA.tensor_obj(fi, us), comps)
    transported = CentrePiece(tr_functor, msEA, gamma)
    tr_report = tuple(check_centre_piece(transported))

    Z = compute_centre(ms, cfg)
    ZEA = compute_centre(msEA, cfg)
    fcZ = functor_category(E, Z.category, cfg)
    msEZ = pointwise_monoidal(fcZ, Z.monoidal)

    zea_mor_index = {t: k for k, t in enumerate(ZEA.mor_table)}
    under = []
    for H in fcZ.functors:
        K = H.then(Z.projection.functor)
        under.append(fcA.functor_index[(K.obj_map, K.mor_map)])
    obj_map = []
    for hi, H in enumerate(fcZ.functors):
        ui = under[hi]
        gam = []
        for fi, F in enumerate(fcA.functors):
            comps = tuple(Z.objects[H.obj_map[x]].gamma[F.obj_map[x]]
                          for x in E.objects)
            gam.append(fcA.index_of_transf(msEA.tensor_obj(ui, fi),
                                           msEA.tensor_obj(fi, ui), comps))
        idx = ZEA.object_index(ui, tuple(gam))
        if idx is None:
            raise InternalSoundnessError(
                "pointwise half-braiding is not an object of the centre of [E, A]")
        obj_map.append(idx)
    mor_map = []
    for k, eta in enumerate(fcZ.transfs):
        s, d = fcZ.category.src(k), fcZ.category.dst(k)
        comps = tuple(Z.mor_table[c][2] for c in eta.components)
        m = fcA.index_of_transf(under[s], under[d], comps)
        key = (obj_map[s], obj_map[d], m)
        if key not in zea_mor_index:
            raise InternalSoundnessError(
                "pointwise image of a centre-valued transformation is not central")
        mor_map.append(zea_mor_index[key])
    comparison = Functor(fcZ.category, ZEA.category, tuple(obj_map), tuple(mor_map))

    phi = {}
    for i in range(fcZ.category.n_objects):
        for j in range(fcZ.category.n_objects):
            t = msEZ.tensor_obj(i, j)
            if obj_map[t] != ZEA.monoidal.tensor_obj(obj_map[i], obj_map[j]):
                raise InternalSoundnessError(
                    "comparison does not preserve the tensor on the nose")
            phi[(i, j)] = ZEA.category.id_of(obj_map[t])
    comp_monoidal = StrongMonoidalFunctor(comparison, msEZ, ZEA.monoidal, phi,
                                          ZEA.category.id_of(obj_map[msEZ.unit]))
    sm_report = tuple(check_strong_monoidal(comp_monoidal))
    return TransportReport(transported, tr_report, comparison, comp_monoidal,
                           sm_report, check_equivalence(comparison))


def check_cp_preserves_coproducts(U: FinCategory, V: FinCategory,
                                  ms: MonoidalStructure,
                                  cfg: GuardConfig = DEFAULT) -> BirepReport:
    """CP(U + V, A) -> CP(U, A) x CP(V, A) by restriction along the
    injections; checked to be an equivalence by exhaustion."""
    cop = coproduct_category(U, V)
    cp_all = enumerate_centre_pieces(cop.category, ms, cfg)
    cp_u = enumerate_centre_pieces(U, ms, cfg)
    cp_v = enumerate_centre_pieces(V, ms, cfg)
    prod = product_category(cp_u.category, cp_v.category, cfg)
    cat = ms.base

    def restrict(piece: CentrePiece, inj: Functor, cp_side: CentrePieceCategory):
        u = inj.then(piece.u)
        gamma = {(s, x): piece.gamma[(inj.obj_map[s], x)]
                 for s in inj.src.objects for x in cat.objects}
        idx = cp_side.piece_index.get(CentrePiece(u, ms, gamma).key())
        if idx is None:
            raise InternalSoundnessError("restriction of a centre piece is not one")
        return idx

    obj_map = []
    for piece in cp_all.pieces:
        iu = restrict(piece, cop.inj_left, cp_u)
        iv = restrict(piece, cop.inj_right, cp_v)
        obj_map.append(prod.obj_id(iu, iv))
    mor_map = []
    for (i, j, comps) in cp_all.mor_table:
        cu = tuple(comps[cop.inj_left.obj_map[s]] for s in U.objects)
        cv = tuple(comps[cop.inj_right.obj_map[s]] for s in V.objects)
        iu, ju = prod.obj_pair(obj_map[i])
        iv, jv = prod.obj_pair(obj_map[j])
        ku = cp_u.mor_index[(iu, iv, cu)]
        kv = cp_v.mor_index[(ju, jv, cv)]
        mor_map.append(prod.mor_id(ku, kv))
    comparison = Functor(cp_all.category, prod.category, tuple(obj_map), tuple(mor_map))
    return BirepReport(cp_all.category.n_objects, prod.category.n_objects,
                       comparison, check_equivalence(comparison))
