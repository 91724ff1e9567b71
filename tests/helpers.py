"""Constructors of test inputs.

They build the data the unit tests check (identity and relabelled
structures, group categories, symmetric braidings, coboundaries, the
census of small monoids as monoidal categories on a discrete, a thin or a
one-object base, the 2-group of a 3-cocycle, and the three readings of
the one-dimensional centre objects that the set-level <-> linear bridge
compares), not a certified claim, so they live with the tests rather
than in the package.
"""

from math import lcm

from monocentre.centre import compute_centre
from monocentre.cyclo import zeta
from monocentre.fincat import FinCategory, Functor
from monocentre.graded import Cocycle3, Group, delta_object, half_braiding_space
from monocentre.monoidal import BraidingDatum, MonoidalStructure, two_group_monoidal
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
