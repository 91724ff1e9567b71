"""Monoidal structure on a finite category, with coherence checking.

A MonoidalStructure stores the tensor tables, the unit object, and the
associator/unitor components explicitly, even when everything is strict.
All checks are exhaustive and exact: pentagon and triangle over all object
tuples, invertibility by table lookup, and bifunctoriality and naturality
one variable at a time (Mac Lane, CWM II.3), by fincat's functor and
naturality checks along the translations a (x) - and - (x) a.

Each check is a generator of failure messages per phase, capped and
ordered by config._report: the structure cells are scanned first, by the
one cell scan (_cell_failures) that centre also runs on braidings and
half-braidings, and the laws that compose with those cells run only when
the scan finds nothing.  A strict monoidal functor is checked the same
way: the unit and the tensor of objects first, then each cell preserved
on the nose.

Braidings are checked in centre, as centre pieces over the identity.
The fixtures' builders and group tables are in examples.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product

from .config import _report
from .fincat import FinCategory, Functor, validate_functor, _naturality_failures
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

    @cached_property
    def translations(self) -> tuple:
        """(left, right): left[a] is the functor a (x) - and right[a] is - (x) a."""
        cat, t, tm = self.base, self.tensor_obj_table, self.tensor_mor_table
        ids, mors = cat.identity, cat.morphisms
        return (tuple(Functor(cat, cat, row, [tm[e, f] for f in mors]) for row, e in zip(t, ids)),
                tuple(Functor(cat, cat, col, [tm[f, e] for f in mors])
                      for col, e in zip(zip(*t), ids)))

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
    objs, tm, table = cat.objects, ms.tensor_mor_table, ms.tensor_obj_table
    src, dst = cat.mor_src, cat.mor_dst
    for f in cat.morphisms:
        t_src, t_dst = table[src[f]], table[dst[f]]
        for g in cat.morphisms:
            h = tm.get((f, g))
            if h is None:
                yield f"tensor_mor missing at ({f}, {g})"
            elif src[h] != t_src[src[g]] or dst[h] != t_dst[dst[g]]:
                yield f"tensor_mor({f}, {g}) = {h} has wrong endpoints"
    yield from _cell_failures(cat, (
        ("associator", (a, b, c), ms.alpha_table.get((a, b, c)),
         table[table[a][b]][c], table[a][table[b][c]])
        for a in objs for b in objs for c in objs))
    yield from _cell_failures(cat, (
        (name, a, mor, ends, a) for a in objs
        for name, mor, ends in (("left unitor", ms.lam_table[a], table[ms.unit][a]),
                                ("right unitor", ms.rho_table[a], table[a][ms.unit]))))


def _functoriality_failures(ms: MonoidalStructure):
    """Functorial translations, and f (x) g = (f (x) 1)(1 (x) g) = (1 (x) g)(f (x) 1)."""
    cat, (left, right) = ms.base, ms.translations
    for side, fs in (("left translation {} (x) -", left), ("right translation - (x) {}", right)):
        for a, F in enumerate(fs):
            for e in validate_functor(F):
                yield f"{side.format(a)} is not a functor: {e}"
    src, dst, compose, tm = cat.mor_src, cat.mor_dst, cat.compose, ms.tensor_mor_table
    yield from (f"tensor fails the interchange law at ({f}, {g})"
                for f, g in product(cat.morphisms, repeat=2)
                if not tm[f, g] == compose(right[dst[g]].mor_map[f], left[src[f]].mor_map[g])
                == compose(left[dst[f]].mor_map[g], right[src[g]].mor_map[f]))


def _cell_naturality_failures(ms: MonoidalStructure):
    """The associator natural in each variable, the others held, and each unitor."""
    cat, (left, right) = ms.base, ms.translations
    # natural at identities, which the translations preserve: check the rest
    mors = [m for m in cat.morphisms if not cat.is_identity(m)]
    objs, ids, t, alpha = cat.objects, cat.identity, ms.tensor_obj_table, ms.alpha_table
    for p, q in product(objs, repeat=2):
        held = (ids[p], ids[q])
        # the k-th variable x, with p and q held in the other two places
        for k, (F, G, comps) in enumerate((
                (right[p].then(right[q]), right[t[p][q]], [alpha[x, p, q] for x in objs]),
                (left[p].then(right[q]), right[q].then(left[p]), [alpha[p, x, q] for x in objs]),
                (left[t[p][q]], left[q].then(left[p]), [alpha[p, q, x] for x in objs]))):
            for f in _naturality_failures(F, G, comps, mors):
                yield "associator not natural at morphisms ({}, {}, {})".format(
                    *held[:k], f, *held[k:])
    for name, F, comps in (("left unitor", left[ms.unit], ms.lam_table),
                           ("right unitor", right[ms.unit], ms.rho_table)):
        for f in _naturality_failures(F, Functor(cat, cat, objs, cat.morphisms), comps, mors):
            yield f"{name} not natural at morphism {f}"


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
    cells are checked natural in each variable, which is naturality only
    for a bifunctor, checked in the same phase.  The pentagon runs over all
    object quadruples and the triangle over all pairs, and each reports its
    first failing tuple.
    """
    return _report(_structural_failures(ms),
                   chain(_functoriality_failures(ms), _cell_naturality_failures(ms),
                         _coherence_failures(ms)))


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


# -- group tables ---------------------------------------------------------


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
