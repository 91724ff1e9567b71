"""Half-braidings, centre pieces, braidings, and the braided monoidal centre.

A half-braiding for an object a is an invertible natural family
gamma_x: a(x)x -> x(x)a satisfying the multiplicativity equality, with the
associator inserted in the unique well-typed way:

    gamma_{x(x)y} = alpha_inv(x,y,a) . (1_x (x) gamma_y) . alpha(x,a,y)
                    . (gamma_x (x) 1_y) . alpha_inv(a,x,y)

The half-braiding of a (x) b is the tensor of those of a and b
(_tensor_crossing): x crosses b, then a,

    theta_x = alpha(x,a,b) . (gamma_x (x) 1_b) . alpha_inv(a,x,b)
              . (1_a (x) delta_x) . alpha(a,b,x)

A braiding c is a family of half-braidings c(a, -), natural in a, whose
value at a (x) b is the tensor of its values at a and b (Joyal and
Street, "Braided tensor categories", 1993).  So check_braiding checks c
as a centre piece over the identity of the base, whose multiplicativity
is the first hexagon, and then the tensor law, which is the second.

The centre is computed by exhaustive enumeration of these families,
object by object, with naturality and multiplicativity pruning; the
enumeration is fincat's one depth-first search.  The centre is built by
fincat.category_over over the base, bounded by max_objects before its
morphisms are built, and then by max_morphisms.  Its monoidal structure,
like the pointwise one on [E, A], is lifted from the base's cell by cell,
by _lifted_monoidal.  Everything the construction claims about the result
(braiding hexagons, strict monoidality of the projection, and so on) is
re-verified afterwards and recorded as named certificates; nothing is
trusted by construction.

The centre's universal piece (CentreCategory.piece: the projection, with
every object's half-braiding) certifies every object's half-braiding in
one check_centre_piece.  The category of centre pieces CP(U, A) and the
comparisons of the universal property, which restrict and raise that
piece, are in pieces, which no subcommand imports.

A half-braiding of a is natural as a transformation between the
translations a (x) - => - (x) a, by fincat's one naturality check.
Multiplicativity and the condition a morphism of the centre meets
(_central_failures, which is also a piece's naturality in its first
argument and the condition on a morphism of pieces) are each written
once, as a generator of the places where they fail: the enumerations
prune with all three, and check_centre_piece and check_braiding report
from them.
"""

from __future__ import annotations

from itertools import chain

from .config import DEFAULT, Budget, GuardConfig, InternalSoundnessError, _report
from .fincat import (
    FinCategory, Functor, check_equivalence, validate_category, validate_functor,
    category_over, _naturality_failures, _schedule, _search,
)
from .monoidal import MonoidalStructure, check_strict_monoidal, _cell_failures
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


def _multiplicative_failures(ms: MonoidalStructure, a, gamma, pairs):
    """The pairs (x, y) where gamma_{x(x)y} of the family gamma of a is not
    the two-crossing composite through the associators."""
    cat = ms.base
    for x, y in pairs:
        if gamma[ms.tensor_obj(x, y)] != cat.compose_chain(
                ms.alpha_inv(x, y, a), ms.lwhisk(x, gamma[y]), ms.alpha(x, a, y),
                ms.rwhisk(gamma[x], y), ms.alpha_inv(a, x, y)):
            yield x, y


def _tensor_crossing(ms: MonoidalStructure, a, b, gamma_x, delta_x, x):
    """The component at x of the half-braiding of a (x) b, from the
    components gamma_x of a's half-braiding and delta_x of b's."""
    return ms.base.compose_chain(ms.alpha(x, a, b), ms.rwhisk(gamma_x, b), ms.alpha_inv(a, x, b),
                                 ms.lwhisk(a, delta_x), ms.alpha(a, b, x))


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
    U, cat, (left, right) = u.src, ms.base, ms.translations
    for s, us in enumerate(u.obj_map):
        for f in _naturality_failures(left[us], right[us], p.family(s), cat.morphisms):
            yield f"gamma not natural in the second argument at (s={s}, f={f})"
    for f in U.morphisms:
        for x in _central_failures(ms, u.mor_map[f], p.family(U.src(f)), p.family(U.dst(f))):
            yield f"gamma not natural in the first argument at (f={f}, x={x})"
    pairs = [(x, y) for x in cat.objects for y in cat.objects]
    for s, us in enumerate(u.obj_map):
        for x, y in _multiplicative_failures(ms, us, p.family(s), pairs):
            yield f"multiplicativity fails at (s={s}, x={x}, y={y})"


# -- braidings ----------------------------------------------------------


class BraidingDatum(Record):
    __slots__ = ("ms", "table")

    def __init__(self, ms: MonoidalStructure, table):
        super().__init__(ms, dict(table))

    def at(self, a, b):
        return self.table[(a, b)]


def check_braiding(br: BraidingDatum) -> list[str]:
    """Endpoints and invertibility, then the braiding laws: the piece
    laws of c over the identity (naturality in each variable, and the
    first hexagon as multiplicativity of each c(a, -)), then the second
    hexagon as c(a (x) b, -) = the tensor of c(a, -) and c(b, -).

    These are the laws of a braiding when br.ms passes validate_monoidal:
    naturality in each variable is naturality only for a bifunctor, and
    the hexagons, solved for c(a, b (x) c) and c(a (x) b, c), compose
    with alpha_inv as the inverse of alpha.
    """
    ms = br.ms
    cat, t, objs = ms.base, ms.tensor_obj, ms.base.objects
    cells = (("braiding", (a, b), br.table.get((a, b)), t(a, b), t(b, a))
             for a in objs for b in objs)
    piece = CentrePiece(Functor(cat, cat, objs, cat.morphisms), ms, br.table)
    return _report(_cell_failures(cat, cells), chain(_piece_failures(piece), (
        f"second hexagon fails at ({a}, {b}, {c})" for a in objs for b in objs for c in objs
        if br.at(t(a, b), c) != _tensor_crossing(ms, a, b, br.at(a, c), br.at(b, c), c))))


def enumerate_half_braidings(ms: MonoidalStructure, a: int,
                             cfg: GuardConfig = DEFAULT) -> list[tuple]:
    """All half-braidings for the object a, as component tuples in
    lexicographic order: one search over the components, object by object,
    with each naturality and multiplicativity condition checked as soon as
    every index it involves is assigned.
    """
    cat, t, (left, right) = ms.base, ms.tensor_obj, ms.translations
    objs = cat.objects
    at = list(zip(cat._by_later_end,
                  _schedule(objs, (((x, y), (x, y, t(x, y))) for x in objs for y in objs))))
    gamma = [0] * cat.n_objects
    out = []

    def failures(checks):
        nat, mult = checks
        return chain(_naturality_failures(left[a], right[a], gamma, nat),
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
        "piece",  # the universal centre piece: the projection, with every half-braiding
    )

    @property
    def all_passed(self):
        return all(c.ok for c in self.certificates)


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

    tobj = [[centre_object(f"tensor of centre objects {i} and {j}", ms.tensor_obj(o1.a, o2.a),
                           (_tensor_crossing(ms, o1.a, o2.a, o1.gamma[x], o2.gamma[x], x)
                            for x in cat.objects))
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
    certs.append(Certificate.of(
        "unit compatibility (derived law, reported not enforced)",
        [f"object {i}: gamma at the unit differs from the unitor composite"
         for i, o in enumerate(objs)
         if o.gamma[ms.unit] != cat.compose(ms.lam_inv(o.a), ms.rho(o.a))]))

    return CentreCategory(ms, zcat, tuple(objs), tuple(mor_table), zms, zbraid,
                          proj, tuple(certs), universal)
