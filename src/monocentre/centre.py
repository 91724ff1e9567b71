"""Half-braidings, centre pieces, and the braided monoidal centre.

A half-braiding for an object a is an invertible natural family
gamma_x: a(x)x -> x(x)a satisfying the multiplicativity equality, with the
associator inserted in the unique well-typed way:

    gamma_{x(x)y} = alpha_inv(x,y,a) . (1_x (x) gamma_y) . alpha(x,a,y)
                    . (gamma_x (x) 1_y) . alpha_inv(a,x,y)

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
    FinCategory, Functor, check_equivalence, validate_category, validate_functor,
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
