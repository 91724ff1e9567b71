"""Constructors of test inputs.

They build the data the unit tests check (identity, relabelled, product
and reversed structures, group categories, symmetric braidings,
coboundaries, the census of small monoids as monoidal categories on a
discrete, a thin or a one-object base, the 2-group of a 3-cocycle, and
the three readings of the one-dimensional centre objects that the
set-level <-> linear bridge compares), not a certified claim, so they
live with the tests rather
than in the package.  The joint scans at the end check bifunctoriality
and naturality over every tuple of morphisms at once; they are the
reference the one-variable checks of the package are tested against.
"""

from itertools import chain
from math import lcm

from monocentre.centre import BraidingDatum, compute_centre
from monocentre.cyclo import zeta
from monocentre.fincat import FinCategory, Functor, product_category
from monocentre.graded import Cocycle3, Group, delta_object, half_braiding_space
from monocentre.examples import S3, two_group_monoidal
from monocentre.config import _report
from monocentre.monoidal import (
    MonoidalStructure, _cell_failures, _coherence_failures, _structural_failures,
)
from monocentre.record import Record
from monocentre.veck import centre_simples


def identity_functor(cat: FinCategory) -> Functor:
    return Functor(cat, cat, tuple(cat.objects), tuple(cat.morphisms))


def group_category(table) -> FinCategory:
    """One-object category whose endomorphisms are a finite group.

    table[g][f] is the product; composition g . f multiplies in that order.
    """
    n = len(table)
    comp = {(g, f): table[g][f] for g in range(n) for f in range(n)}
    return FinCategory(1, (0,) * n, (0,) * n, (0,), comp)


def identity_braiding(ms: MonoidalStructure) -> BraidingDatum:
    """The identity-component braiding; valid when the tensor is symmetric
    as a table and the identities satisfy the hexagons (e.g. abelian
    discrete fixtures and monoidal posets)."""
    cat = ms.base
    comps = {}
    for a in cat.objects:
        for b in cat.objects:
            if ms.tensor_obj(a, b) != ms.tensor_obj(b, a):
                raise ValueError(f"tensor not symmetric on objects at ({a}, {b})")
            comps[(a, b)] = cat.id_of(ms.tensor_obj(a, b))
    return BraidingDatum(ms, comps)


class RelabelledMonoidal(Record):
    __slots__ = (
        "monoidal",
        "iso",  # strict monoidal, from the original to the relabelled copy
    )


def relabel_monoidal(ms: MonoidalStructure, obj_perm, mor_perm) -> RelabelledMonoidal:
    """Transport the whole structure along a renaming of object and
    morphism ids; returns the copy plus the induced strict isomorphism."""
    cat = ms.base
    op = tuple(obj_perm)
    mp = tuple(mor_perm)
    n, m = cat.n_objects, cat.n_morphisms
    if sorted(op) != list(range(n)) or sorted(mp) != list(range(m)):
        raise ValueError("relabelling must be a pair of permutations")
    inv_o = [0] * n
    for i, v in enumerate(op):
        inv_o[v] = i
    inv_m = [0] * m
    for i, v in enumerate(mp):
        inv_m[v] = i
    src = tuple(op[cat.src(inv_m[k])] for k in range(m))
    dst = tuple(op[cat.dst(inv_m[k])] for k in range(m))
    ident = tuple(mp[cat.id_of(inv_o[o])] for o in range(n))
    comp = {(mp[g], mp[f]): mp[h] for (g, f), h in cat.compose_map.items()}
    new_cat = FinCategory(n, src, dst, ident, comp)
    tobj = [[op[ms.tensor_obj(inv_o[a], inv_o[b])] for b in range(n)] for a in range(n)]
    tmor = {(mp[f], mp[g]): mp[h] for (f, g), h in ms.tensor_mor_table.items()}
    alpha = {(op[a], op[b], op[c]): mp[mor] for (a, b, c), mor in ms.alpha_table.items()}
    lam = [0] * n
    rho = [0] * n
    for a in cat.objects:
        lam[op[a]] = mp[ms.lam(a)]
        rho[op[a]] = mp[ms.rho(a)]
    new_ms = MonoidalStructure(new_cat, tobj, tmor, op[ms.unit], alpha, lam, rho)
    return RelabelledMonoidal(new_ms, Functor(cat, new_cat, op, mp))


def product_monoidal(m1: MonoidalStructure, m2: MonoidalStructure) -> MonoidalStructure:
    """A x B over fincat.product_category, with the tensor, the unit and
    the structure cells taken componentwise."""
    P = product_category(m1.base, m2.base)
    obj, mor = P.obj_id, P.mor_id
    objs = [P.obj_pair(o) for o in P.category.objects]
    mors = [P.mor_pair(m) for m in P.category.morphisms]
    tobj = [[obj(m1.tensor_obj(a, c), m2.tensor_obj(b, d)) for c, d in objs] for a, b in objs]
    tmor = {(mor(f, g), mor(h, k)): mor(m1.tensor_mor(f, h), m2.tensor_mor(g, k))
            for f, g in mors for h, k in mors}
    alpha = {(obj(*x), obj(*y), obj(*z)): mor(m1.alpha(x[0], y[0], z[0]),
                                              m2.alpha(x[1], y[1], z[1]))
             for x in objs for y in objs for z in objs}
    return MonoidalStructure(P.category, tobj, tmor, obj(m1.unit, m2.unit), alpha,
                             [mor(m1.lam(a), m2.lam(b)) for a, b in objs],
                             [mor(m1.rho(a), m2.rho(b)) for a, b in objs])


def reverse_monoidal(ms: MonoidalStructure) -> MonoidalStructure:
    """A^rev on the same category: a (x)' b = b (x) a, f (x)' g = g (x) f,
    alpha'(a, b, c) = alpha(c, b, a)^-1, and the two unitors swapped."""
    objs = ms.base.objects
    return MonoidalStructure(ms.base, list(zip(*ms.tensor_obj_table)),
                             {(f, g): h for (g, f), h in ms.tensor_mor_table.items()}, ms.unit,
                             {(a, b, c): ms.alpha_inv(c, b, a)
                              for a in objs for b in objs for c in objs},
                             ms.rho_table, ms.lam_table)


def coboundary_cocycle(group: Group, scalar_order: int, cochain2) -> Cocycle3:
    """The coboundary of a normalized 2-cochain b: G x G -> Z_scalar_order.

    (db)(x, y, z) = b(y, z) - b(xy, z) + b(x, yz) - b(x, y), taken mod the
    scalar order.  Always a normalized cocycle when b is normalized.
    """
    table, e = group.table, group.identity
    n = len(table)
    b = tuple(tuple(int(v) % scalar_order for v in row) for row in cochain2)
    if any(b[e][x] != 0 or b[x][e] != 0 for x in range(n)):
        raise ValueError("2-cochain is not normalized at the identity")
    exps = tuple(
        tuple(
            tuple((b[y][z] - b[table[x][y]][z] + b[x][table[y][z]] - b[x][y])
                  % scalar_order
                  for z in range(n))
            for y in range(n))
        for x in range(n))
    return Cocycle3(group, scalar_order, exps)


def monoid_tables(n: int) -> list:
    """Every associative table on 0..n-1 with identity 0, in lexicographic
    order, by backtracking over the non-identity cells row by row: a cell
    is kept only if every associativity equation it completes holds."""
    table = [[a if b == 0 else b if a == 0 else None for b in range(n)] for a in range(n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]
    out = []

    def associative():
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    bc = table[b][c]
                    if ab is None or bc is None:
                        continue
                    left, right = table[ab][c], table[a][bc]
                    if left is not None and right is not None and left != right:
                        return False
        return True

    def fill(k):
        if k == len(cells):
            out.append(tuple(map(tuple, table)))
            return
        a, b = cells[k]
        for v in range(n):
            table[a][b] = v
            if associative():
                fill(k + 1)
        table[a][b] = None

    fill(0)
    return out


def partial_orders(n: int) -> list:
    """Every partial order on 0..n-1, as the set of its pairs a <= b, the
    discrete order first."""
    strict = [(a, b) for a in range(n) for b in range(n) if a != b]
    out = []
    for mask in range(2 ** len(strict)):
        leq = {(a, a) for a in range(n)} | {p for k, p in enumerate(strict) if mask >> k & 1}
        if (all((b, a) not in leq for a, b in strict if (a, b) in leq)
                and all((a, d) in leq for a, b in leq for c, d in leq if b == c)):
            out.append(frozenset(leq))
    return out


def is_monotone(table, leq) -> bool:
    return all((table[a][c], table[b][d]) in leq for a, b in leq for c, d in leq)


def thin_monoidal(table, leq) -> MonoidalStructure:
    """The poset leq on a monoid's elements as a thin category (one
    morphism a -> b for each pair a <= b, in sorted order), tensored by the
    product, which must be monotone, with identity structure cells."""
    n = len(table)
    pairs = sorted(leq)
    mor = {p: k for k, p in enumerate(pairs)}
    ident = [mor[a, a] for a in range(n)]
    cat = FinCategory(n, [a for a, _ in pairs], [b for _, b in pairs], ident,
                      {(mor[b, c], mor[a, b]): mor[a, c]
                       for a, b in pairs for c in range(n) if (b, c) in leq})
    tmor = {(mor[a, b], mor[c, d]): mor[table[a][c], table[b][d]]
            for a, b in pairs for c, d in pairs}
    alpha = {(a, b, c): ident[table[table[a][b]][c]]
             for a in range(n) for b in range(n) for c in range(n)}
    return MonoidalStructure(cat, table, tmor, 0, alpha, ident, ident)


def one_object_monoidal(table) -> MonoidalStructure:
    """One object whose endomorphisms are a commutative monoid, tensored
    (and composed) by the product, with identity structure cells."""
    n = len(table)
    return MonoidalStructure(group_category(table), ((0,),),
                             {(f, g): table[f][g] for f in range(n) for g in range(n)},
                             0, {(0, 0, 0): 0}, (0,), (0,))


def unit_and_s3_monoidal(product) -> MonoidalStructure:
    """Two objects: the unit 0, with only its identity 0, and 1 = 1 (x) 1,
    whose endomorphisms are S3 as the morphisms 1 + g (1 its identity).
    The unit's identity tensors as a unit, f (x) g is 1 + product(f, g) on
    the elements f, g of S3, which must be a homomorphism S3 x S3 -> S3,
    and every structure cell is an identity.  A product that is not
    constant keeps one translation by 1 from commuting with the cells."""
    comp = {(1 + g, 1 + f): 1 + h for g, row in enumerate(S3) for f, h in enumerate(row)}
    comp[0, 0] = 0
    cat = FinCategory(2, (0,) + (1,) * 6, (0,) + (1,) * 6, (0, 1), comp)
    tmor = {(0, m): m for m in cat.morphisms}
    tmor.update({(m, 0): m for m in cat.morphisms})
    tmor.update({(1 + f, 1 + g): 1 + product(f, g) for f in range(6) for g in range(6)})
    alpha = {(a, b, c): int(a or b or c) for a in range(2) for b in range(2) for c in range(2)}
    return MonoidalStructure(cat, ((0, 1), (1, 1)), tmor, 0, alpha, (0, 1), (0, 1))


def type_i_cocycle(n: int) -> Cocycle3:
    """The type-I 3-cocycle on Z_n, omega(a, b, c) = a floor((b + c) / n),
    of scalar order n."""
    N = range(n)
    return Cocycle3(Group(tuple(tuple((a + b) % n for b in N) for a in N)), n,
                    [[[a * ((b + c) // n) for c in N] for b in N] for a in N])


def cocycle_two_group(omega: Cocycle3, n: int) -> MonoidalStructure:
    """The 2-group of omega with automorphisms Z_n: its associator is
    (n / s) omega, where omega's scalar order s must divide n."""
    s = omega.scalar_order
    if n % s:
        raise ValueError("the cocycle's scalar order must divide n")
    return two_group_monoidal(omega.group.table, n, [[[n // s * v for v in row] for row in plane]
                                                     for plane in omega.exponents])


def one_dimensional_centres(omega: Cocycle3, n: int) -> tuple:
    """The one-dimensional centre objects of Vec_G^omega three ways, each
    as the set of (grade g, (scalar of the half-braiding at x) over x), in
    Q(zeta_m) with m = lcm(n, omega's field order): the set-level centre
    of cocycle_two_group(omega, n), with morphism k of an automorphism
    group read as zeta_n^k; the one-dimensional simples of centre_simples;
    and half_braiding_space on every delta_g.
    """
    G, m = range(len(omega.group.table)), lcm(n, omega.field_order)
    set_level = {(o.a, tuple(zeta(m, k % n * (m // n)) for k in o.gamma))
                 for o in compute_centre(cocycle_two_group(omega, n)).objects}

    def read(hb):
        g, = hb.carrier.support
        return g, tuple(hb.block(x, g)[0][0].promote(m) for x in G)

    simples = {read(simple.hb) for simple in centre_simples(omega).simples
               if simple.total_dim == 1}
    search = {read(hb) for g in G for hb in half_braiding_space(delta_object(len(G), g), omega)}
    return set_level, simples, search


# -- joint scans: the reference for the one-variable checks ---------------


def joint_functoriality_failures(ms: MonoidalStructure):
    """Tensor of identities, and composition over every pair of composable
    pairs."""
    cat = ms.base
    for a in cat.objects:
        for b in cat.objects:
            if ms.tensor_mor(cat.id_of(a), cat.id_of(b)) != cat.id_of(ms.tensor_obj(a, b)):
                yield f"tensor of identities at ({a}, {b}) is not an identity"
    pairs = [(g, f) for (g, f) in cat.compose_map if cat.src(g) == cat.dst(f)]
    for (g2, f2) in pairs:
        for (g1, f1) in pairs:
            lhs = ms.tensor_mor(cat.compose(g2, f2), cat.compose(g1, f1))
            rhs = cat.compose(ms.tensor_mor(g2, g1), ms.tensor_mor(f2, f1))
            if lhs != rhs:
                yield f"tensor does not preserve composition at (({g2},{f2}), ({g1},{f1}))"


def joint_cell_naturality_failures(ms: MonoidalStructure):
    """The associator over every triple of morphisms, each unitor over
    every morphism."""
    cat = ms.base
    mors = list(cat.morphisms)
    for f in mors:
        for g in mors:
            for h in mors:
                a, b, c = cat.src(f), cat.src(g), cat.src(h)
                lhs = cat.compose(ms.alpha(cat.dst(f), cat.dst(g), cat.dst(h)),
                                  ms.tensor_mor(ms.tensor_mor(f, g), h))
                rhs = cat.compose(ms.tensor_mor(f, ms.tensor_mor(g, h)),
                                  ms.alpha(a, b, c))
                if lhs != rhs:
                    yield f"associator not natural at morphisms ({f}, {g}, {h})"
    for f in mors:
        a, b = cat.src(f), cat.dst(f)
        if cat.compose(ms.lam(b), ms.lwhisk(ms.unit, f)) != cat.compose(f, ms.lam(a)):
            yield f"left unitor not natural at morphism {f}"
        if cat.compose(ms.rho(b), ms.rwhisk(f, ms.unit)) != cat.compose(f, ms.rho(a)):
            yield f"right unitor not natural at morphism {f}"


def joint_validate_monoidal(ms: MonoidalStructure) -> list[str]:
    """validate_monoidal with the joint scans in place of the one-variable
    checks."""
    return _report(_structural_failures(ms),
                   chain(joint_functoriality_failures(ms), joint_cell_naturality_failures(ms),
                         _coherence_failures(ms)))


def joint_braiding_failures(br: BraidingDatum):
    """Naturality over every pair of morphisms, then both hexagons."""
    ms = br.ms
    cat = ms.base
    for f in cat.morphisms:
        for g in cat.morphisms:
            a, b = cat.src(f), cat.src(g)
            lhs = cat.compose(br.at(cat.dst(f), cat.dst(g)), ms.tensor_mor(f, g))
            rhs = cat.compose(ms.tensor_mor(g, f), br.at(a, b))
            if lhs != rhs:
                yield f"braiding not natural at morphisms ({f}, {g})"
    for a in cat.objects:
        for b in cat.objects:
            for c in cat.objects:
                bc = ms.tensor_obj(b, c)
                lhs = cat.compose_chain(ms.alpha(b, c, a), br.at(a, bc), ms.alpha(a, b, c))
                rhs = cat.compose_chain(ms.lwhisk(b, br.at(a, c)), ms.alpha(b, a, c),
                                        ms.rwhisk(br.at(a, b), c))
                if lhs != rhs:
                    yield f"first hexagon fails at ({a}, {b}, {c})"
                ab = ms.tensor_obj(a, b)
                lhs2 = cat.compose_chain(ms.alpha_inv(c, a, b), br.at(ab, c),
                                         ms.alpha_inv(a, b, c))
                rhs2 = cat.compose_chain(ms.rwhisk(br.at(a, c), b), ms.alpha_inv(a, c, b),
                                         ms.lwhisk(a, br.at(b, c)))
                if lhs2 != rhs2:
                    yield f"second hexagon fails at ({a}, {b}, {c})"


def joint_check_braiding(br: BraidingDatum) -> list[str]:
    """check_braiding with the joint naturality scan."""
    cat, t = br.ms.base, br.ms.tensor_obj
    cells = (("braiding", (a, b), br.table.get((a, b)), t(a, b), t(b, a))
             for a in cat.objects for b in cat.objects)
    return _report(_cell_failures(cat, cells), joint_braiding_failures(br))


def cell_mutants(ms: MonoidalStructure):
    """Every structure that differs from ms in one entry of the tensor of
    morphisms, the associator or a unitor, by another morphism with the
    entry's endpoints."""
    cat = ms.base
    fields = dict(tensor_mor=ms.tensor_mor_table, alpha=ms.alpha_table,
                  lam=dict(enumerate(ms.lam_table)), rho=dict(enumerate(ms.rho_table)))
    for name, table in fields.items():
        for key, m in table.items():
            for h in cat.hom(cat.src(m), cat.dst(m)):
                if h != m:
                    changed = {**fields, name: {**table, key: h}}
                    yield MonoidalStructure(
                        cat, ms.tensor_obj_table, changed["tensor_mor"], ms.unit,
                        changed["alpha"], [changed["lam"][a] for a in cat.objects],
                        [changed["rho"][a] for a in cat.objects])


def braiding_mutants(br: BraidingDatum):
    """Every braiding that differs from br in one component, by another
    morphism with the component's endpoints."""
    cat = br.ms.base
    for key, m in br.table.items():
        for h in cat.hom(cat.src(m), cat.dst(m)):
            if h != m:
                yield BraidingDatum(br.ms, {**br.table, key: h})
