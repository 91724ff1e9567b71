"""Monoidal structure on a finite category, with coherence checking.

A MonoidalStructure stores the tensor tables, the unit object, and the
associator/unitor components explicitly, even when everything is strict.
All checks are exhaustive and exact: pentagon and triangle over all object
tuples, naturality over all morphism tuples, invertibility by table lookup.

Each check is a generator of failure messages per phase, capped and
ordered by config._report: the structure cells are scanned first, by the
one cell scan (_cell_failures) that also serves braidings and the
centre's half-braidings, and the laws that compose with those cells run
only when the scan finds nothing.  A strict monoidal functor is checked
the same way: the unit and the tensor of objects first, then each cell
preserved on the nose.

Of the fixtures, every group-like input (a group's discrete category, one
object with automorphisms Z_2, a 2-group with a non-identity associator) is
built by two_group_monoidal, and the chain poset by chain_poset_monoidal.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product

from .config import _report
from .fincat import FinCategory, Functor
from .record import Record


class MonoidalStructure(Record):
    """problems is validate_monoidal's report, computed on first use."""

    __slots__ = ("base", "tensor_obj_table", "tensor_mor_table", "unit", "alpha_table",
                 "lam_table", "rho_table", "__dict__")

    def __init__(self, base: FinCategory, tensor_obj, tensor_mor, unit, alpha, lam, rho):
        super().__init__(base, tuple(map(tuple, tensor_obj)), dict(tensor_mor), unit,
                         dict(alpha), tuple(lam), tuple(rho))

    @cached_property
    def problems(self) -> tuple:
        return tuple(validate_monoidal(self))

    def tensor_obj(self, a, b):
        return self.tensor_obj_table[a][b]

    def tensor_mor(self, f, g):
        return self.tensor_mor_table[(f, g)]

    def lwhisk(self, a, g):
        """1_a tensor g."""
        return self.tensor_mor_table[(self.base.id_of(a), g)]

    def rwhisk(self, f, b):
        """f tensor 1_b."""
        return self.tensor_mor_table[(f, self.base.id_of(b))]

    def alpha(self, a, b, c):
        return self.alpha_table[(a, b, c)]

    def alpha_inv(self, a, b, c):
        return self.base.inverse(self.alpha_table[(a, b, c)])

    def lam(self, a):
        return self.lam_table[a]

    def lam_inv(self, a):
        return self.base.inverse(self.lam_table[a])

    def rho(self, a):
        return self.rho_table[a]

    def rho_inv(self, a):
        return self.base.inverse(self.rho_table[a])


def _cell_failures(cat: FinCategory, cells):
    """The missing, misplaced and non-invertible cells among the
    (name, at, mor, src, dst): mor (None when missing) should be an
    invertible src -> dst, and "{name} at {at}" names it (at None: name)."""
    for name, at, mor, src, dst in cells:
        if mor is None:
            fault = None
        elif cat.src(mor) != src or cat.dst(mor) != dst:
            fault = "has wrong endpoints"
        elif not cat.is_invertible(mor):
            fault = "is not invertible"
        else:
            continue
        where = "" if at is None else f" at {at}"
        yield f"{name} missing{where}" if fault is None else f"{name}{where} {fault}"


def _structural_failures(ms: MonoidalStructure):
    cat = ms.base
    n = cat.n_objects
    if len(ms.tensor_obj_table) != n or any(len(row) != n for row in ms.tensor_obj_table):
        yield "tensor_obj table is not n x n"
        return
    for row in ms.tensor_obj_table:
        for v in row:
            if not 0 <= v < n:
                yield f"tensor_obj value {v} out of range"
                return
    if not 0 <= ms.unit < n:
        yield f"unit object {ms.unit} out of range"
        return
    if len(ms.lam_table) != n or len(ms.rho_table) != n:
        yield "unitor tables do not cover all objects"
        return
    t, objs = ms.tensor_obj, cat.objects
    for f in cat.morphisms:
        for g in cat.morphisms:
            h = ms.tensor_mor_table.get((f, g))
            if h is None:
                yield f"tensor_mor missing at ({f}, {g})"
            elif (cat.src(h) != t(cat.src(f), cat.src(g))
                    or cat.dst(h) != t(cat.dst(f), cat.dst(g))):
                yield f"tensor_mor({f}, {g}) = {h} has wrong endpoints"
    yield from _cell_failures(cat, (
        ("associator", (a, b, c), ms.alpha_table.get((a, b, c)), t(t(a, b), c), t(a, t(b, c)))
        for a in objs for b in objs for c in objs))
    yield from _cell_failures(cat, (
        (name, a, mor, src, a) for a in objs
        for name, mor, src in (("left unitor", ms.lam_table[a], t(ms.unit, a)),
                               ("right unitor", ms.rho_table[a], t(a, ms.unit)))))


def _functoriality_failures(ms: MonoidalStructure):
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


def _cell_naturality_failures(ms: MonoidalStructure):
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


def _pentagon_failure(ms: MonoidalStructure):
    """The first (a, b, c, d) in lexicographic order where the pentagon
    fails, or None; alpha, the whiskers and composition are read from
    tables bound outside the loop over d."""
    cat, objs, t = ms.base, ms.base.objects, ms.tensor_obj_table
    compose, ids, tm = cat.compose, cat.identity, ms.tensor_mor_table
    alpha = [[[ms.alpha_table[a, b, c] for c in objs] for b in objs] for a in objs]
    for a, b, c in product(objs, repeat=3):
        # x_y is the row z -> alpha(x, y, z); ab is a b, bc is b c
        a_b, ab_c, a_bc, b_c = alpha[a][b], alpha[t[a][b]][c], alpha[a][t[b][c]], alpha[b][c]
        id_a, abc, t_c = ids[a], a_b[c], t[c]
        for d in objs:
            if (compose(a_b[t_c[d]], ab_c[d])
                    != compose(tm[id_a, b_c[d]], compose(a_bc[d], tm[abc, ids[d]]))):
                return a, b, c, d
    return None


def _coherence_failures(ms: MonoidalStructure):
    cat, objs, alpha = ms.base, ms.base.objects, ms.alpha
    pentagon = _pentagon_failure(ms)
    if pentagon:
        yield f"pentagon fails at objects {pentagon}"
    triangle = next(((a, b) for a in objs for b in objs
                     if cat.compose(ms.lwhisk(a, ms.lam(b)), alpha(a, ms.unit, b))
                     != ms.rwhisk(ms.rho(a), b)), None)
    if triangle:
        yield f"triangle fails at objects {triangle}"


def validate_monoidal(ms: MonoidalStructure) -> list[str]:
    """Full battery: structure, bifunctoriality, naturality, coherence.

    A structural failure (a missing, misplaced or non-invertible component)
    is reported alone, since composites with it are not trustworthy.  The
    pentagon runs over all object quadruples and the triangle over all
    pairs, and each reports its first failing tuple.
    """
    return _report(_structural_failures(ms),
                   chain(_functoriality_failures(ms), _cell_naturality_failures(ms),
                         _coherence_failures(ms)))


# -- braidings ----------------------------------------------------------


class BraidingDatum(Record):
    __slots__ = ("ms", "table")

    def __init__(self, ms: MonoidalStructure, table):
        super().__init__(ms, dict(table))

    def at(self, a, b):
        return self.table[(a, b)]


def check_braiding(br: BraidingDatum) -> list[str]:
    """Endpoints, invertibility, naturality, and both hexagon identities."""
    ms = br.ms
    cat, t = ms.base, ms.tensor_obj
    cells = (("braiding", (a, b), br.table.get((a, b)), t(a, b), t(b, a))
             for a in cat.objects for b in cat.objects)
    return _report(_cell_failures(cat, cells), _braiding_failures(br))


def _braiding_failures(br: BraidingDatum):
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


# -- strict monoidal functors --------------------------------------------


def check_strict_monoidal(F: Functor, src: MonoidalStructure,
                          dst: MonoidalStructure) -> list[str]:
    """That F: src -> dst preserves the monoidal structure on the nose: the
    unit and the tensor of objects first, then the tensor of morphisms,
    the associator and both unitors.

    This is strong monoidality with identity structure cells: the cells
    are well placed iff the first phase passes, and as dst's tensor
    preserves identities, each law then reduces to one of the equalities
    of the second phase.
    """
    catA = src.base
    objs, mors, o, m = catA.objects, catA.morphisms, F.obj_map, F.mor_map
    return _report(
        chain(["unit not preserved"] if o[src.unit] != dst.unit else [],
              (f"tensor of objects not preserved at ({a}, {b})" for a in objs for b in objs
               if o[src.tensor_obj(a, b)] != dst.tensor_obj(o[a], o[b]))),
        chain((f"tensor of morphisms not preserved at ({f}, {g})" for f in mors for g in mors
               if m[src.tensor_mor(f, g)] != dst.tensor_mor(m[f], m[g])),
              (f"associator not preserved at ({a}, {b}, {c})"
               for a, b, c in product(objs, repeat=3)
               if m[src.alpha(a, b, c)] != dst.alpha(o[a], o[b], o[c])),
              (f"{name} not preserved at {a}" for a in objs
               for name, cell, image in (("left unitor", src.lam(a), dst.lam(o[a])),
                                         ("right unitor", src.rho(a), dst.rho(o[a])))
               if m[cell] != image)))


# -- fixtures -------------------------------------------------------------


def identity_of(table) -> int:
    """The identity element of a square multiplication table."""
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    raise ValueError("table has no identity element")


def group_table_report(table) -> list[str]:
    """Check a multiplication table for associativity, identity, inverses."""
    n = len(table)
    for row in table:
        if len(row) != n or any(not 0 <= v < n for v in row):
            return ["table is not a square over element indices"]
    return _report(_group_failures(table))


def _group_failures(table):
    n = len(table)
    try:
        ident = identity_of(table)
    except ValueError:
        ident = None
        yield "no identity element"
    bad = next(((a, b, c) for a in range(n) for b in range(n) for c in range(n)
                if table[table[a][b]][c] != table[a][table[b][c]]), None)
    if bad:
        yield f"not associative at {bad}"
    elif ident is not None:
        for a in range(n):
            if not any(table[a][b] == ident and table[b][a] == ident for b in range(n)):
                yield f"element {a} has no inverse"


def two_group_monoidal(table, n: int = 1, alpha=None) -> MonoidalStructure:
    """The 2-group on a finite group's elements, each with automorphisms
    Z_n: morphism (g, k) is numbered g * n + k, and morphisms compose and
    tensor by adding their k mod n.  The associator at (a, b, c) is
    (abc, alpha[a][b][c] mod n), identities when alpha is None, and the
    unitors are identities.  Exactly when alpha is a normalized 3-cocycle
    valued in Z_n do the pentagon and the triangle hold (Baez-Lauda)."""
    problems = group_table_report(table)
    if problems:
        raise ValueError("not a group table: " + "; ".join(problems))
    G, K = range(len(table)), range(n)
    ends = [g for g in G for _ in K]
    cat = FinCategory(len(table), ends, ends, [g * n for g in G],
                      {(g * n + k, g * n + l): g * n + (k + l) % n
                       for g in G for k in K for l in K})
    tmor = {(a * n + k, b * n + l): table[a][b] * n + (k + l) % n
            for a in G for k in K for b in G for l in K}
    cells = {(a, b, c): table[table[a][b]][c] * n + (0 if alpha is None else alpha[a][b][c] % n)
             for a, b, c in product(G, repeat=3)}
    return MonoidalStructure(cat, table, tmor, identity_of(table), cells,
                             cat.identity, cat.identity)


def chain_poset_monoidal(n: int = 2) -> MonoidalStructure:
    """The chain 0 <= 1 <= ... <= n-1 with tensor = min and unit = top."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a <= b]
    mor_of = {p: i for i, p in enumerate(pairs)}
    src = tuple(a for a, _ in pairs)
    dst = tuple(b for _, b in pairs)
    ident = tuple(mor_of[(a, a)] for a in range(n))
    comp = {}
    for g, (b1, c) in enumerate(pairs):
        for f, (a, b2) in enumerate(pairs):
            if b1 == b2:
                comp[(g, f)] = mor_of[(a, c)]
    cat = FinCategory(n, src, dst, ident, comp)
    tobj = [[min(a, b) for b in range(n)] for a in range(n)]
    tmor = {}
    for f, (a, b) in enumerate(pairs):
        for g, (c, d) in enumerate(pairs):
            tmor[(f, g)] = mor_of[(min(a, c), min(b, d))]
    alpha = {(a, b, c): ident[min(a, b, c)]
             for a in range(n) for b in range(n) for c in range(n)}
    lam = tuple(ident[min(n - 1, a)] for a in range(n))
    rho = tuple(ident[min(a, n - 1)] for a in range(n))
    return MonoidalStructure(cat, tobj, tmor, n - 1, alpha, lam, rho)


# shared group tables for fixtures and tests

Z1 = ((0,),)
Z2 = ((0, 1), (1, 0))
Z3 = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
Z4 = tuple(tuple((a + b) % 4 for b in range(4)) for a in range(4))


def _s3_table():
    import itertools
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    # composition: (p * q)(i) = p(q(i)); identity lands at index 0
    return tuple(tuple(index[tuple(p[q[i]] for i in range(3))] for q in perms)
                 for p in perms)


S3 = _s3_table()


def _d4_table():
    # r^i s^j at index i + 4 j, with s r = r^-1 s
    def mul(a, b):
        i, j, k, l = a % 4, a // 4, b % 4, b // 4
        return (i + (-k if j else k)) % 4 + 4 * ((j + l) % 2)
    return tuple(tuple(mul(a, b) for b in range(8)) for a in range(8))


D4 = _d4_table()
# Z2 x Z2 x Z2 with element a = a_1 + 2 a_2 + 4 a_3; the product is xor
Z2_CUBED = tuple(tuple(a ^ b for b in range(8)) for a in range(8))
